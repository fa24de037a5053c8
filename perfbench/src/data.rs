//! Inputs: the generated datasets and the seeded per-domain query
//! pools drawn from them.

use std::time::Instant;

use pigeonring_datagen::{sample_query_ids, GraphConfig, SetConfig, StringConfig, VectorConfig};
use pigeonring_editdist::EditParams;
use pigeonring_graph::{Graph, GraphParams};
use pigeonring_hamming::{BitVector, HammingParams};
use pigeonring_server::{DomainQuery, EngineSpec};
use pigeonring_setsim::SetParams;

/// Domain index order used throughout: the server's `Domain::ALL`.
pub const HAMMING: usize = 0;
pub const EDIT: usize = 1;
pub const SET: usize = 2;
pub const GRAPH: usize = 3;
/// Metric-name labels, in domain index order.
pub const NAMES: [&str; 4] = ["hamming", "editdist", "setsim", "graph"];
/// Every domain.
pub const ALL: [usize; 4] = [HAMMING, EDIT, SET, GRAPH];
/// The cheap classes: tens of microseconds per query.
pub const CHEAP: [usize; 2] = [EDIT, SET];
/// The heavy classes: milliseconds per query.
pub const HEAVY: [usize; 2] = [HAMMING, GRAPH];

/// Queries per domain pool. Each is a multiple of the batch size 16.
/// The pools are large so that which records a seed draws moves the
/// cost of a pass little. The cheap pools are the largest so that, in
/// a pass of the closed loop, cheap batches are the majority and its
/// median batch latency falls inside one cost class instead of on the
/// edge between two.
pub const POOL_SIZES: [usize; 4] = [256, 1024, 1024, 128];

/// Queries per `search_batch_on` call in the closed loop.
pub const BATCH: usize = 16;

/// The full-scale spec with `shards` shards; thresholds and chain
/// lengths stay at the spec's defaults.
pub fn spec(shards: usize) -> EngineSpec {
    EngineSpec {
        shards,
        ..EngineSpec::full()
    }
}

/// The four generated datasets, exactly as `EngineSet::build` generates
/// them for the same spec.
pub struct Datasets {
    pub vectors: Vec<BitVector>,
    pub strings: Vec<Vec<u8>>,
    pub sets: Vec<Vec<u32>>,
    pub graphs: Vec<Graph>,
    /// Wall time of the four generators, in seconds.
    pub generate_s: f64,
}

impl Datasets {
    pub fn generate(spec: &EngineSpec) -> Datasets {
        let t = Instant::now();
        let vectors = VectorConfig::gist_like(spec.hamming_n).generate();
        let strings = StringConfig::imdb_like(spec.edit_n).generate();
        let sets = SetConfig::dblp_like(spec.set_n).generate();
        let graphs = GraphConfig::aids_like(spec.graph_n).generate();
        Datasets {
            vectors,
            strings,
            sets,
            graphs,
            generate_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// SplitMix64: the benchmark's only random source, so one seed fixes
/// every draw.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Each domain's query pool: records drawn from its dataset by
/// `sample_query_ids` at a seed derived from the workload seed.
pub struct Pools {
    pub hamming: Vec<BitVector>,
    pub edit: Vec<Vec<u8>>,
    pub set: Vec<Vec<u32>>,
    pub graph: Vec<Graph>,
    /// The same queries as wire queries with the spec's default τ/l,
    /// indexed `[domain][query]`.
    pub wire: [Vec<DomainQuery>; 4],
}

fn draw<T: Clone>(data: &[T], domain: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed ^ (domain as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d));
    sample_query_ids(data.len(), POOL_SIZES[domain], rng.next_u64())
        .into_iter()
        .map(|i| data[i].clone())
        .collect()
}

impl Pools {
    pub fn sample(data: &Datasets, spec: &EngineSpec, seed: u64) -> Pools {
        let hamming = draw(&data.vectors, HAMMING, seed);
        let edit = draw(&data.strings, EDIT, seed);
        let set = draw(&data.sets, SET, seed);
        let graph = draw(&data.graphs, GRAPH, seed);
        let wire = [
            hamming
                .iter()
                .map(|q| DomainQuery::Hamming {
                    query: q.clone(),
                    tau: spec.hamming_tau,
                    l: spec.hamming_l,
                })
                .collect(),
            edit.iter()
                .map(|q| DomainQuery::Edit {
                    query: q.clone(),
                    l: spec.edit_l,
                })
                .collect(),
            set.iter()
                .map(|q| DomainQuery::Set {
                    tokens: q.clone(),
                    l: spec.set_l,
                })
                .collect(),
            graph
                .iter()
                .map(|q| DomainQuery::Graph {
                    query: q.clone(),
                    l: spec.graph_l,
                })
                .collect(),
        ];
        Pools {
            hamming,
            edit,
            set,
            graph,
            wire,
        }
    }

    pub fn len(&self, domain: usize) -> usize {
        self.wire[domain].len()
    }
}

/// The service-layer parameters matching the spec's defaults.
pub struct Params {
    pub hamming: HammingParams,
    pub edit: EditParams,
    pub set: SetParams,
    pub graph: GraphParams,
}

impl Params {
    pub fn of(spec: &EngineSpec) -> Params {
        Params {
            hamming: HammingParams {
                tau: spec.hamming_tau,
                l: spec.hamming_l as usize,
            },
            edit: EditParams {
                l: spec.edit_l as usize,
            },
            set: SetParams {
                l: spec.set_l as usize,
            },
            graph: GraphParams {
                l: spec.graph_l as usize,
            },
        }
    }
}
