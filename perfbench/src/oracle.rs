//! The answer oracle: every pool query's expected ids, found by a
//! plain scan of the generated data. The scan shares no code with the
//! indexes, their filters, the sharding, the service layer or the
//! server, so a change there that drops or adds an id is caught.
//!
//! Hamming, edit-distance and set-similarity answers are computed here
//! from the definitions. Graph edit distance has no cheap definition,
//! so the graph scan calls the library's exact `ged_within` check on
//! every record: it still checks the graph index's filters and
//! sharding, but not the GED verifier itself.

use std::time::Instant;

use pigeonring_graph::ged_within;
use pigeonring_hamming::BitVector;
use pigeonring_server::EngineSpec;
use pigeonring_setsim::Threshold;

use crate::data::{Datasets, Pools, NAMES};
use crate::WORKERS;

/// Expected result ids for every pool query, `[domain][query]`, in
/// ascending order.
pub struct Oracle {
    pub expected: [Vec<Vec<u32>>; 4],
}

impl Oracle {
    /// Scans every record of `data` for every query of `pools` under
    /// `spec`'s thresholds, on `WORKERS` threads.
    pub fn scan(data: &Datasets, pools: &Pools, spec: &EngineSpec) -> Oracle {
        let t = Instant::now();
        let hamming_tau = spec.hamming_tau;
        let edit_tau = spec.edit_tau;
        let Threshold::Jaccard { num, den } = Threshold::jaccard(spec.set_tau) else {
            unreachable!("Threshold::jaccard returns a Jaccard threshold");
        };
        let graph_tau = spec.graph_tau as u32;
        let expected = [
            scan_all(&pools.hamming, &data.vectors, |q, r| {
                hamming_within(q, r, hamming_tau)
            }),
            scan_all(&pools.edit, &data.strings, |q, r| {
                edit_within(q, r, edit_tau)
            }),
            scan_all(&pools.set, &data.sets, |q, r| {
                jaccard_at_least(q, r, num.into(), den.into())
            }),
            scan_all(&pools.graph, &data.graphs, |q, r| {
                ged_within(q, r, graph_tau).is_some()
            }),
        ];
        let counts: Vec<String> = expected
            .iter()
            .zip(NAMES)
            .map(|(answers, name)| {
                let ids: usize = answers.iter().map(Vec::len).sum();
                format!("{name} {} queries / {ids} ids", answers.len())
            })
            .collect();
        eprintln!(
            "perfbench: oracle scanned in {:.1} s: {}",
            t.elapsed().as_secs_f64(),
            counts.join(", ")
        );
        Oracle { expected }
    }

    /// An oracle that expects every query to come back empty (the
    /// transport replay's handler answers without running an engine).
    pub fn empty(pools: &Pools) -> Oracle {
        Oracle {
            expected: std::array::from_fn(|d| vec![Vec::new(); pools.len(d)]),
        }
    }

    /// Whether `ids` is the expected answer to query `query` of
    /// `domain`, in the ascending order the service promises.
    pub fn matches(&self, domain: usize, query: usize, ids: &[u32]) -> bool {
        self.expected[domain]
            .get(query)
            .is_some_and(|want| want.as_slice() == ids)
    }
}

/// For each query, the ids of the records `hit(query, record)` accepts,
/// in ascending order. The queries are split over `WORKERS` threads.
fn scan_all<Q: Sync, R: Sync>(
    queries: &[Q],
    records: &[R],
    hit: impl Fn(&Q, &R) -> bool + Sync,
) -> Vec<Vec<u32>> {
    let scan = |q: &Q| -> Vec<u32> {
        (0..records.len() as u32)
            .filter(|&i| hit(q, &records[i as usize]))
            .collect()
    };
    let chunk = queries.len().div_ceil(WORKERS).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = queries
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(scan).collect::<Vec<_>>()))
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("oracle scan thread panicked"))
            .collect()
    })
}

/// Whether the two vectors differ in at most `tau` bits.
fn hamming_within(a: &BitVector, b: &BitVector, tau: u32) -> bool {
    let bits: u32 = a
        .words()
        .iter()
        .zip(b.words())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum();
    bits <= tau
}

/// Whether the Levenshtein distance of `a` and `b` is at most `tau`:
/// the textbook dynamic programme, one row at a time, given up once a
/// whole row exceeds `tau` (row minima never decrease).
fn edit_within(a: &[u8], b: &[u8], tau: usize) -> bool {
    if a.len().abs_diff(b.len()) > tau {
        return false;
    }
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        let mut least = row[0];
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(diag + 1);
            least = least.min(row[j + 1]);
        }
        if least > tau {
            return false;
        }
    }
    row[b.len()] <= tau
}

/// Whether the Jaccard similarity of two sorted, duplicate-free sets is
/// at least `num / den`, in integers: `den·|a∩b| ≥ num·|a∪b|`.
fn jaccard_at_least(a: &[u32], b: &[u32], num: u64, den: u64) -> bool {
    let (mut i, mut j, mut common) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = (a.len() + b.len()) as u64 - common;
    den * common >= num * union
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeonring_server::{EngineSet, Response};
    use pigeonring_service::WorkerPool;

    use crate::data::{spec, ALL};

    #[test]
    fn scans_follow_the_definitions() {
        assert!(edit_within(b"kitten", b"sitting", 3));
        assert!(!edit_within(b"kitten", b"sitting", 2));
        assert!(edit_within(b"", b"ab", 2));
        assert!(!edit_within(b"abcd", b"dcba", 2));
        // |∩| = 4, |∪| = 5: J = 0.8.
        assert!(jaccard_at_least(&[1, 2, 3, 4], &[1, 2, 3, 4, 5], 800, 1000));
        assert!(!jaccard_at_least(
            &[1, 2, 3, 4],
            &[1, 2, 3, 4, 5],
            801,
            1000
        ));
        let v = |bits: &str| BitVector::from_bit_str(bits);
        assert!(hamming_within(&v("1100"), &v("1010"), 2));
        assert!(!hamming_within(&v("1100"), &v("0011"), 3));
    }

    /// The engines, sharded as engine-batch shards them, return exactly
    /// the scanned ids on a small dataset, and an answer with one id
    /// dropped or added is refused.
    #[test]
    fn engines_agree_with_the_scan_and_changed_ids_are_caught() {
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let spec = EngineSpec {
            hamming_n: 2_000,
            edit_n: 2_000,
            set_n: 2_000,
            graph_n: 200,
            ..spec(8)
        };
        let data = Datasets::generate(&spec);
        let pools = Pools::sample(&data, &spec, 5);
        let oracle = Oracle::scan(&data, &pools, &spec);
        let engines = EngineSet::build(spec);
        let pool = WorkerPool::new(WORKERS);
        let mut nonempty = 0;
        for d in ALL {
            for (q, resp) in engines
                .run(&pool, pools.wire[d].clone())
                .into_iter()
                .enumerate()
            {
                let Response::Results { ids, .. } = resp else {
                    panic!("{} query {q} failed: {resp:?}", NAMES[d]);
                };
                assert!(oracle.matches(d, q, &ids), "{} query {q}", NAMES[d]);
                let mut added = ids.clone();
                added.push(u32::MAX);
                assert!(!oracle.matches(d, q, &added), "an added id is caught");
                if let Some((_, fewer)) = ids.split_last() {
                    nonempty += 1;
                    assert!(!oracle.matches(d, q, fewer), "a dropped id is caught");
                }
            }
        }
        assert!(nonempty > 0, "some queries have answers");
    }
}
