//! Global-dictionary (plan-once) builds of the sharded index.
//!
//! Two properties are pinned here:
//!
//! 1. **Result invariance** — for editdist and setsim, the
//!    dictionary-first [`ShardedIndex::build`] returns the same result
//!    sets as a linear scan over every record (equal [`ResultHasher`]
//!    fingerprints) for every shard count K ∈ {1, 2, 3, 7}.
//!
//! 2. **Resharding determinism** (the `GramOrder::Frequency` regression)
//!    — a per-shard frequency order would make prefix/pivotal selection
//!    — and hence per-shard candidate statistics — depend on how records
//!    were partitioned. With one corpus-wide dictionary the global order
//!    is partition-independent, so aggregate candidate statistics are
//!    exactly equal for every K.

use std::sync::Arc;

use proptest::prelude::*;

use pigeonring_datagen::{sample_query_ids, SetConfig, StringConfig};
use pigeonring_editdist::verify::edit_distance_within;
use pigeonring_editdist::{
    EditParams, EditStats, GramDictionary, GramOrder, QGramCollection, RingEdit,
};
use pigeonring_service::{ResultHasher, ShardedIndex, WorkerPool};
use pigeonring_setsim::{
    Collection, LinearScanSets, RingSetSim, SetParams, SetStats, Threshold, TokenDictionary,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];
const TAU: usize = 2;
const KAPPA: usize = 2;

fn edit_global(data: &[Vec<u8>], k: usize) -> ShardedIndex<RingEdit> {
    ShardedIndex::build(
        data.to_vec(),
        k,
        |corpus| Arc::new(GramDictionary::build(corpus, KAPPA, GramOrder::Frequency)),
        |dict, shard| {
            RingEdit::build(
                QGramCollection::with_dictionary(shard, Arc::clone(dict)),
                TAU,
            )
        },
    )
}

fn set_global(data: &[Vec<u32>], k: usize, t: Threshold) -> ShardedIndex<RingSetSim> {
    ShardedIndex::build(
        data.to_vec(),
        k,
        |corpus| Arc::new(TokenDictionary::build(corpus)),
        move |dict, shard| {
            RingSetSim::build(Collection::with_dictionary(shard, Arc::clone(dict)), t, 5)
        },
    )
}

/// Fingerprint of a whole batch's result ids on `index`.
fn batch_hash<E: pigeonring_service::SearchEngine>(
    index: &ShardedIndex<E>,
    queries: &[E::Query],
    params: &E::Params,
    threads: usize,
) -> u64 {
    let mut hasher = ResultHasher::new();
    for res in index.search_batch_on(&WorkerPool::new(threads), queries, params) {
        hasher.push(&res.ids);
    }
    hasher.finish()
}

/// Fingerprint of a linear scan's result ids, one id list per query.
fn scan_hash(answers: impl Iterator<Item = Vec<u32>>) -> u64 {
    let mut hasher = ResultHasher::new();
    for ids in answers {
        hasher.push(&ids);
    }
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn editdist_result_hash_matches_scan(seed in 0u64..1_000) {
        let mut cfg = StringConfig::imdb_like(200);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = EditParams { l: 3 };
        let reference = scan_hash(queries.iter().map(|q| {
            (0..data.len() as u32)
                .filter(|&id| edit_distance_within(&data[id as usize], q, TAU as u32).is_some())
                .collect()
        }));
        for k in SHARD_COUNTS {
            let global = batch_hash(&edit_global(&data, k), &queries, &params, k);
            prop_assert_eq!(global, reference, "global k={}", k);
        }
    }

    #[test]
    fn setsim_result_hash_matches_scan(seed in 0u64..1_000, tenths in 7usize..9) {
        let mut cfg = SetConfig::dblp_like(250);
        cfg.seed = seed;
        let data = cfg.generate();
        let t = Threshold::jaccard(tenths as f64 / 10.0);
        let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = SetParams { l: 2 };
        let collection = Collection::new(data.clone());
        let scan = LinearScanSets::new(&collection);
        let reference =
            scan_hash(queries.iter().map(|q| scan.search(&collection.rank_query(q), t)));
        for k in SHARD_COUNTS {
            let global = batch_hash(&set_global(&data, k, t), &queries, &params, k);
            prop_assert_eq!(global, reference, "global k={}", k);
        }
    }
}

/// Aggregate editdist filter statistics over a batch on `index`.
fn edit_agg(index: &ShardedIndex<RingEdit>, queries: &[Vec<u8>]) -> EditStats {
    let mut agg = EditStats::default();
    for res in index.search_batch_on(&WorkerPool::new(2), queries, &EditParams { l: 3 }) {
        agg.merge(&res.stats);
    }
    agg
}

/// Regression: `GramOrder::Frequency` built per shard yields
/// shard-dependent prefix selection — the same queries do different
/// filter work at different shard counts. The global dictionary makes
/// per-shard candidate statistics exactly deterministic under
/// resharding.
#[test]
fn global_dictionary_makes_candidate_stats_resharding_invariant() {
    let data = StringConfig::imdb_like(300).generate();
    let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 10, 5)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();

    // Global dictionary: candidate generation is partition-independent,
    // so every aggregate partition-independent counter agrees across K.
    let baseline = edit_agg(&edit_global(&data, 1), &queries);
    for k in SHARD_COUNTS {
        let agg = edit_agg(&edit_global(&data, k), &queries);
        assert_eq!(agg.candidates, baseline.candidates, "candidates k={k}");
        assert_eq!(agg.cand1, baseline.cand1, "cand1 k={k}");
        assert_eq!(
            agg.postings_scanned, baseline.postings_scanned,
            "postings k={k}"
        );
        assert_eq!(agg.results, baseline.results, "results k={k}");
    }
}

/// The same resharding-determinism property for setsim: one global token
/// rank space makes signature enumeration and probing
/// partition-independent.
#[test]
fn global_token_dictionary_makes_set_stats_resharding_invariant() {
    let data = SetConfig::dblp_like(300).generate();
    let t = Threshold::jaccard(0.8);
    let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 10, 4)
        .into_iter()
        .map(|i| data[i].clone())
        .collect();
    let agg = |index: &ShardedIndex<RingSetSim>| -> SetStats {
        let mut agg = SetStats::default();
        for res in index.search_batch_on(&WorkerPool::new(2), &queries, &SetParams { l: 2 }) {
            agg.merge(&res.stats);
        }
        agg
    };
    let baseline = agg(&set_global(&data, 1, t));
    for k in SHARD_COUNTS {
        let got = agg(&set_global(&data, k, t));
        assert_eq!(got.candidates, baseline.candidates, "candidates k={k}");
        assert_eq!(got.viable_boxes, baseline.viable_boxes, "viable k={k}");
        assert_eq!(got.results, baseline.results, "results k={k}");
        // Plan-once: the signature enumeration is counted once per query
        // regardless of K, so this is flat too.
        assert_eq!(got.sig_probes, baseline.sig_probes, "sig_probes k={k}");
    }
}
