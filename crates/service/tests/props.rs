//! Property tests for the service layer: for every domain engine, a
//! [`ShardedIndex`] with K ∈ {1, 2, 3, 7} shards must return exactly the
//! same result set as a plain linear scan over every record, and
//! repeated runs of the same batch must agree bit-for-bit.
//!
//! Candidate counts may legitimately differ across shard counts
//! (per-shard cost models); the *result* sets may not — every engine
//! verifies exactly.

use std::sync::Arc;

use proptest::prelude::*;

use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::verify::edit_distance_within;
use pigeonring_editdist::{EditParams, GramDictionary, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::pars::LinearScanGraphs;
use pigeonring_graph::{Graph, GraphParams, RingGraph};
use pigeonring_hamming::{AllocationStrategy, BitVector, HammingParams, LinearScan, RingHamming};
use pigeonring_service::{ShardedIndex, WorkerPool};
use pigeonring_setsim::{
    Collection, LinearScanSets, RingSetSim, SetParams, Threshold, TokenDictionary,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn sharded_hamming_matches_unsharded(seed in 0u64..1_000, tau in 8u32..32) {
        // m = 16 over 256 dims keeps the per-part signature enumeration
        // cheap (the harness's own gist configuration).
        let mut cfg = VectorConfig::gist_like(300);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<BitVector> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = HammingParams { tau, l: 4 };

        let scan = LinearScan::new(&data);
        for k in SHARD_COUNTS {
            let index = ShardedIndex::build(data.clone(), k, |_| (), |_, shard| {
                RingHamming::build(shard, 16, AllocationStrategy::CostModel)
            });
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                prop_assert_eq!(&got[qi].ids, &scan.search(q, tau), "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_editdist_matches_unsharded(seed in 0u64..1_000) {
        let mut cfg = StringConfig::imdb_like(200);
        cfg.seed = seed;
        let data = cfg.generate();
        let tau = 2usize;
        let queries: Vec<Vec<u8>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = EditParams { l: 3 };

        for k in SHARD_COUNTS {
            let index = ShardedIndex::build(
                data.clone(),
                k,
                |corpus| Arc::new(GramDictionary::build(corpus, 2, GramOrder::Frequency)),
                |dict, shard| {
                    RingEdit::build(QGramCollection::with_dictionary(shard, Arc::clone(dict)), tau)
                },
            );
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect: Vec<u32> = (0..data.len() as u32)
                    .filter(|&id| edit_distance_within(&data[id as usize], q, tau as u32).is_some())
                    .collect();
                prop_assert_eq!(&got[qi].ids, &expect, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_setsim_matches_unsharded(seed in 0u64..1_000, tenths in 7usize..9) {
        let mut cfg = SetConfig::dblp_like(250);
        cfg.seed = seed;
        let data = cfg.generate();
        let threshold = Threshold::jaccard(tenths as f64 / 10.0);
        let queries: Vec<Vec<u32>> = sample_query_ids(data.len(), 6, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = SetParams { l: 2 };

        let collection = Collection::new(data.clone());
        let scan = LinearScanSets::new(&collection);
        for k in SHARD_COUNTS {
            let index = ShardedIndex::build(
                data.clone(),
                k,
                |corpus| Arc::new(TokenDictionary::build(corpus)),
                |dict, shard| {
                    RingSetSim::build(Collection::with_dictionary(shard, Arc::clone(dict)), threshold, 5)
                },
            );
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                let expect = scan.search(&collection.rank_query(q), threshold);
                prop_assert_eq!(&got[qi].ids, &expect, "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn sharded_graph_matches_unsharded(seed in 0u64..1_000) {
        let mut cfg = GraphConfig::aids_like(60);
        cfg.seed = seed;
        let data = cfg.generate();
        let tau = 3usize;
        let queries: Vec<Graph> = sample_query_ids(data.len(), 4, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = GraphParams { l: tau };

        let scan = LinearScanGraphs::new(&data);
        for k in SHARD_COUNTS {
            let index =
                ShardedIndex::build(data.clone(), k, |_| (), |_, shard| RingGraph::build(shard, tau));
            let got = index.search_batch_on(&WorkerPool::new(k), &queries, &params);
            for (qi, q) in queries.iter().enumerate() {
                prop_assert_eq!(&got[qi].ids, &scan.search(q, tau as u32), "k={} qi={}", k, qi);
            }
        }
    }

    #[test]
    fn batches_are_deterministic(seed in 0u64..1_000) {
        // Two runs of the same batch over a multi-threaded shard pool
        // must agree bit-for-bit — result ids AND aggregated stats.
        // m = 32 over 512 dims (the harness's sift configuration) keeps
        // per-part thresholds — and hence signature enumeration — small.
        let mut cfg = VectorConfig::sift_like(300);
        cfg.seed = seed;
        let data = cfg.generate();
        let queries: Vec<BitVector> = sample_query_ids(data.len(), 8, seed)
            .into_iter()
            .map(|i| data[i].clone())
            .collect();
        let params = HammingParams { tau: 64, l: 3 };
        let index = ShardedIndex::build(data, 3, |_| (), |_, shard| {
            RingHamming::build(shard, 32, AllocationStrategy::Even)
        });
        let pool = WorkerPool::new(3);
        let run1 = index.search_batch_on(&pool, &queries, &params);
        let run2 = index.search_batch_on(&pool, &queries, &params);
        for qi in 0..queries.len() {
            prop_assert_eq!(&run1[qi].ids, &run2[qi].ids, "qi={}", qi);
            prop_assert_eq!(run1[qi].stats, run2[qi].stats, "qi={}", qi);
        }
    }
}
