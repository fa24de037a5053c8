//! The closed loop: one caller, no sockets. Each domain's pool goes
//! through `ShardedIndex::search_batch_on` in batches of 16 on one
//! shared worker pool, pass after pass, and every answer is checked.

use std::time::{Duration, Instant};

use pigeonring_service::{SearchEngine, ShardedIndex, WorkerPool};

use crate::data::{ALL, BATCH, EDIT, HAMMING, POOL_SIZES, SET};
use crate::oracle::Oracle;
use crate::procfs::StealClock;
use crate::spans::{timed, Span, Tracer};
use crate::stats::Sample;
use crate::Ctx;

/// One `search_batch_on` call: its domain, size and wall time.
pub struct BatchSample {
    pub domain: usize,
    pub queries: usize,
    pub secs: f64,
}

#[derive(Default)]
pub struct ClosedRun {
    pub batches: Vec<BatchSample>,
    pub queries: u64,
    pub mismatches: u64,
    /// Host steal percent of each second of the run.
    pub window_steal: Vec<f64>,
}

impl ClosedRun {
    /// Queries per second for `domain`: the median over its batches of
    /// batch size over batch time, so one slow batch does not move it.
    pub fn qps(&self, domain: usize) -> f64 {
        let rates: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.domain == domain)
            .map(|b| b.queries as f64 / b.secs)
            .collect();
        crate::stats::median(&rates)
    }

    /// Every batch as a latency sample: a batch is one closed-loop
    /// request.
    pub fn latencies(&self) -> Vec<Sample> {
        self.batches
            .iter()
            .map(|b| Sample {
                domain: b.domain,
                ms: b.secs * 1e3,
            })
            .collect()
    }
}

/// The batches of one pass, `(domain, batch)`, with each domain's
/// batches spread evenly over the pass: batch `i` of a domain with `n`
/// batches sits at `(i + ½) / n`. A short disturbance of the host then
/// touches a few batches of every domain rather than all of one.
fn pass_order() -> Vec<(usize, usize)> {
    let mut order: Vec<(f64, usize, usize)> = ALL
        .iter()
        .flat_map(|&d| {
            let n = POOL_SIZES[d] / BATCH;
            (0..n).map(move |i| ((i as f64 + 0.5) / n as f64, d, i))
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.into_iter().map(|(_, d, i)| (d, i)).collect()
}

/// Runs whole passes over every domain pool until `budget` has
/// elapsed (at least one pass). A pass is a fixed mix of batches, so
/// every run measures the same composition.
pub fn run(ctx: &Ctx, pool: &WorkerPool, budget: Duration, tracer: Option<&Tracer>) -> ClosedRun {
    let (engines, pools, params) = (&ctx.engines, &ctx.pools, &ctx.params);
    let order = pass_order();
    let start = Instant::now();
    let mut sink = Sink {
        oracle: &ctx.oracle,
        tracer,
        out: ClosedRun::default(),
        spans: Vec::new(),
        clock: StealClock::new(start),
    };
    loop {
        for &(d, i) in &order {
            match d {
                HAMMING => sink.batch(
                    engines.hamming_index(),
                    pool,
                    &pools.hamming,
                    &params.hamming,
                    d,
                    i,
                ),
                EDIT => sink.batch(engines.edit_index(), pool, &pools.edit, &params.edit, d, i),
                SET => sink.batch(engines.set_index(), pool, &pools.set, &params.set, d, i),
                _ => sink.batch(
                    engines.graph_index(),
                    pool,
                    &pools.graph,
                    &params.graph,
                    d,
                    i,
                ),
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    if let Some(t) = tracer {
        t.extend(sink.spans);
    }
    ClosedRun {
        window_steal: sink.clock.windows(),
        ..sink.out
    }
}

/// Where a pass's answers are checked and its samples and spans go.
struct Sink<'a> {
    oracle: &'a Oracle,
    tracer: Option<&'a Tracer>,
    out: ClosedRun,
    spans: Vec<Span>,
    clock: StealClock,
}

impl Sink<'_> {
    /// Batch `bi` of one domain's pool.
    fn batch<E: SearchEngine>(
        &mut self,
        index: &ShardedIndex<E>,
        pool: &WorkerPool,
        queries: &[E::Query],
        params: &E::Params,
        domain: usize,
        bi: usize,
    ) {
        let batch = &queries[bi * BATCH..(bi + 1) * BATCH];
        let (results, took, t0, t1) = timed(|| index.search_batch_on(pool, batch, params));
        if let Some(t) = self.tracer {
            // A batch is one closed-loop request: one trace, one span.
            let trace = self.out.batches.len() as u64 + 1;
            self.spans
                .push(t.span((trace, trace, 0), "search_batch_on", t0, t1));
        }
        for (i, r) in results.iter().enumerate() {
            if !self.oracle.matches(domain, bi * BATCH + i, &r.ids) {
                self.out.mismatches += 1;
            }
        }
        self.out.queries += batch.len() as u64;
        self.out.batches.push(BatchSample {
            domain,
            queries: batch.len(),
            secs: took.as_secs_f64(),
        });
        self.clock.tick();
    }
}
