//! Hash-partitioned sharding over a persistent [`WorkerPool`].
//!
//! [`ShardedIndex::build`] splits the record set into `N` shards by
//! hashing global record ids (deterministic: the same records and shard
//! count always produce the same partition), derives one **shared
//! dictionary** (gram interning table, token rank space, …) from the
//! *whole* record set, builds one engine per non-empty shard against it,
//! and remembers each shard's global ids. Engines without a dictionary
//! pass `|_| ()`.
//!
//! ## Plan once, execute per shard
//!
//! Because all shards agree on the query-side structures, each query's
//! [`SearchEngine::Plan`] is computed **exactly once** — by
//! [`ShardedIndex::plan_batch`], against a long-lived planner scratch —
//! and handed read-only to every shard, so query-side preprocessing does
//! not scale with the shard count. [`ShardedIndex::search_batch_on`] then
//! runs the batch on a caller-owned [`WorkerPool`] — one job per shard,
//! each worker reusing its long-lived
//! [`ScratchStore`](crate::pool::ScratchStore) scratch, so buffers stay
//! warm across shards, batches and indexes — or on the calling thread
//! when the index or the pool has a single lane. Per-shard result sets
//! are merged back into ascending *global* id order in fixed shard order
//! (so results are deterministic for any worker count), statistics are
//! aggregated with [`MergeStats::merge`], and each query's plan-time
//! statistics ([`SearchEngine::plan_stats`]) are folded in once.
//!
//! Every domain engine verifies its candidates exactly, so sharding
//! cannot change the result set: the union over shards of "records
//! within the threshold" is exactly the unsharded answer.

use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::engine::{MergeStats, SearchEngine};
use crate::pool::{ScratchStore, WorkerPool};
use pigeonring_core::fxhash::FxHasher;
use pigeonring_telemetry::trace::{kind, ShardTrace};
use pigeonring_telemetry::{Histogram, MetricsRegistry, SpanHandle};

/// Telemetry handles for one [`ShardedIndex`], attached via
/// [`ShardedIndex::attach_metrics`]. Recorded in
/// [`ShardedIndex::search_batch_on`] and [`ShardedIndex::plan_batch`].
#[derive(Clone)]
pub struct IndexMetrics {
    /// µs spent planning a batch (one observation per `plan_batch`).
    pub plan_us: Arc<Histogram>,
    /// µs spent answering a batch end to end (plan + fan-out + merge).
    pub search_us: Arc<Histogram>,
    /// Queries per executed batch.
    pub batch_size: Arc<Histogram>,
}

impl IndexMetrics {
    /// Registers the index metric family under `prefix` (e.g.
    /// `index.hamming` → `index.hamming.plan_us`, `.search_us`,
    /// `.batch_size`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> Self {
        IndexMetrics {
            // lint: metric(index.{domain}.plan_us)
            plan_us: registry.histogram(&format!("{prefix}.plan_us")),
            // lint: metric(index.{domain}.search_us)
            search_us: registry.histogram(&format!("{prefix}.search_us")),
            // lint: metric(index.{domain}.batch_size)
            batch_size: registry.histogram(&format!("{prefix}.batch_size")),
        }
    }
}

/// Elapsed µs since `start`, saturating into u64.
fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Brackets one shard's execution with a `shard` span per traced
/// query, buffered locally and drained with a single
/// [`TraceCollector::extend`](pigeonring_telemetry::TraceCollector::extend)
/// — the spans reach the ring *before* the shard's results are
/// reported, so a trace assembled right after the batch completes is
/// never missing its shard spans.
fn shard_spans<T>(trace: Option<&ShardTrace>, si: usize, f: impl FnOnce() -> T) -> T {
    let handles: Option<Vec<SpanHandle>> = trace.map(|t| {
        t.targets
            .iter()
            .map(|&(tid, parent)| t.collector.child_of(tid, parent))
            .collect()
    });
    let out = f();
    if let (Some(t), Some(handles)) = (trace, handles) {
        let buf = handles
            .into_iter()
            .map(|h| {
                t.collector
                    .finish(h, kind::SHARD, "", vec![("shard", si as u64)])
            })
            .collect();
        t.collector.extend(buf);
    }
    out
}

/// Deterministic shard assignment for global record id `id` among
/// `shards` shards (FxHash of the id).
#[inline]
pub fn shard_of(id: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let h = BuildHasherDefault::<FxHasher>::default().hash_one(id);
    (h % shards as u64) as usize
}

/// One query's merged answer: ascending global record ids plus the
/// statistics aggregated over all shards.
#[derive(Clone, Debug, Default)]
pub struct SearchResult<S> {
    /// Global record ids within the threshold, ascending.
    pub ids: Vec<u32>,
    /// Statistics summed (saturating) over every shard.
    pub stats: S,
}

/// One shard's answers for a whole batch: `(global ids, stats)` per
/// query, in batch order.
type ShardBatch<S> = Vec<(Vec<u32>, S)>;

struct Shard<E> {
    engine: E,
    /// Global ids of this shard's records, ascending (shard-local id `i`
    /// is the record `ids[i]` of the original collection).
    ids: Vec<u32>,
}

impl<E: SearchEngine> Shard<E> {
    /// Runs every query of `batch` against this shard with its shared
    /// plan (`plans[i]` belongs to `batch[i]`), translating shard-local
    /// ids to global ids.
    fn run_batch(
        &self,
        scratch: &mut E::Scratch,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
    ) -> ShardBatch<E::Stats> {
        batch
            .iter()
            .zip(plans)
            .map(|(q, plan)| {
                let mut out = Vec::new();
                let stats = self
                    .engine
                    .search_planned(scratch, plan, q, params, &mut out);
                for id in &mut out {
                    // lint: allow(panic) — engines emit shard-local ids, which
                    // index the shard's own id table by construction
                    *id = self.ids[*id as usize];
                }
                (out, stats)
            })
            .collect()
    }
}

/// A hash-partitioned collection of engines answering queries as one
/// index.
pub struct ShardedIndex<E> {
    /// Shared so per-shard jobs on the persistent pool (which outlive
    /// any one `search_batch_on` stack frame) can hold the shards alive.
    shards: Arc<Vec<Shard<E>>>,
    requested_shards: usize,
    total: usize,
    /// Wall time spent building the shared dictionary.
    dict_build_ms: f64,
    /// Long-lived planner scratch for [`ShardedIndex::plan_batch`]:
    /// plan-side buffers (gram/token scratch vectors) are reused across
    /// queries and batches instead of being allocated per query — the
    /// same [`ScratchStore`] mechanism the pool workers use.
    planner: Mutex<ScratchStore>,
    /// Optional telemetry (plan/search latency, batch sizes); attached
    /// once by the owning service, absent for bench/test builds.
    metrics: OnceLock<IndexMetrics>,
}

/// Hash-partitions `records`: returns per-shard `(global ids, records)`
/// pairs, skipping empty shards.
fn partition<R>(records: Vec<R>, shards: usize) -> Vec<(Vec<u32>, Vec<R>)> {
    let mut parts: Vec<(Vec<u32>, Vec<R>)> = (0..shards).map(|_| Default::default()).collect();
    for (id, record) in records.into_iter().enumerate() {
        let s = shard_of(id as u64, shards);
        // lint: allow(panic) — shard_of reduces modulo `shards`, the length
        let part = &mut parts[s];
        part.0.push(id as u32);
        part.1.push(record);
    }
    parts.retain(|(ids, _)| !ids.is_empty());
    parts
}

impl<E: SearchEngine> ShardedIndex<E> {
    /// Hash-partitions `records` into `shards` shards, derives one
    /// shared artifact (a gram interning table, a token rank space, …)
    /// from the *whole* record set with `dictionary`, and builds one
    /// engine per non-empty shard against it with `build` (empty shards
    /// — possible for tiny collections — are skipped, since the domain
    /// engines reject empty datasets). `build` must take every
    /// query-side structure from the shared artifact: the index plans
    /// each query once, on the first shard ([`ShardedIndex::plan_batch`]),
    /// and every shard executes that plan — which also makes per-shard
    /// candidate statistics invariant under resharding. Engines without
    /// a dictionary pass `|_| ()`.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn build<R, D>(
        records: Vec<R>,
        shards: usize,
        dictionary: impl FnOnce(&[R]) -> D,
        build: impl Fn(&D, Vec<R>) -> E,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let requested_shards = shards;
        let total = records.len();
        let dict_start = Instant::now();
        let dict = dictionary(&records);
        let dict_build_ms = dict_start.elapsed().as_secs_f64() * 1e3;
        let shards = partition(records, shards)
            .into_iter()
            .map(|(ids, records)| Shard {
                engine: build(&dict, records),
                ids,
            })
            .collect();
        ShardedIndex {
            shards: Arc::new(shards),
            requested_shards,
            total,
            dict_build_ms,
            planner: Mutex::new(ScratchStore::default()),
            metrics: OnceLock::new(),
        }
    }

    /// Attaches telemetry to this index (first attach wins). Recorded
    /// in [`ShardedIndex::plan_batch`] and
    /// [`ShardedIndex::search_batch_on`]; an un-instrumented index pays
    /// one `OnceLock` load per batch.
    pub fn attach_metrics(&self, metrics: IndexMetrics) {
        let _ = self.metrics.set(metrics);
    }

    /// Number of non-empty shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard count requested at build time (≥ [`Self::num_shards`]).
    pub fn requested_shards(&self) -> usize {
        self.requested_shards
    }

    /// Total number of records across all shards.
    pub fn num_records(&self) -> usize {
        self.total
    }

    /// Wall time spent building the shared dictionary, in milliseconds.
    pub fn dictionary_build_ms(&self) -> f64 {
        self.dict_build_ms
    }

    /// Computes every query's plan exactly once against the index's
    /// long-lived planner scratch (`plans[i]` belongs to `batch[i]`).
    /// An index with no shards has nothing to plan against and returns
    /// an empty vector.
    ///
    /// Concurrent callers (the server's dispatcher threads) do not
    /// serialize here: the shared planner scratch is taken with
    /// `try_lock`, and a contended caller plans against a fresh local
    /// scratch instead of waiting out another batch's whole plan phase.
    pub fn plan_batch(&self, batch: &[E::Query]) -> Vec<Arc<E::Plan>> {
        let Some(shard0) = self.shards.first() else {
            return Vec::new();
        };
        // A poisoned planner scratch (a plan panicked mid-update) is treated
        // like contention: plan against a fresh local scratch instead.
        let mut guard = self.planner.try_lock().ok();
        let mut local: Option<E::Scratch> = None;
        let scratch: &mut E::Scratch = match guard.as_mut() {
            Some(store) => store.get_mut::<E::Scratch>(),
            None => local.insert(E::Scratch::default()),
        };
        let start = Instant::now();
        let plans = batch
            .iter()
            .map(|q| Arc::new(shard0.engine.plan(scratch, q)))
            .collect();
        if let Some(m) = self.metrics.get() {
            m.plan_us.record(elapsed_us(start));
        }
        plans
    }

    /// Answers a batch of queries on a caller-owned [`WorkerPool`]
    /// (shared across indexes — and across *domains*, since worker
    /// scratch is keyed by scratch type): plans every query once
    /// ([`ShardedIndex::plan_batch`]), then runs every shard and merges.
    ///
    /// Per-shard results are merged in fixed shard order and sorted, so
    /// the output is deterministic regardless of the pool's size or
    /// scheduling: two runs of the same batch agree bit-for-bit.
    pub fn search_batch_on(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        params: &E::Params,
    ) -> Vec<SearchResult<E::Stats>> {
        self.search_batch_on_traced(pool, batch, params, None)
    }

    /// [`ShardedIndex::search_batch_on`] with per-request tracing: for
    /// every `(trace_id, parent span)` target in `trace`, the index
    /// emits a `plan` span bracketing the shared plan phase, a `pool`
    /// span bracketing the whole execution window, and one `shard` child
    /// span per shard measured where the work runs (on the worker for
    /// the parallel path, on the calling thread for the serial one).
    /// `None` is the zero-cost untraced path.
    pub fn search_batch_on_traced(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        params: &E::Params,
        trace: Option<&ShardTrace>,
    ) -> Vec<SearchResult<E::Stats>> {
        let start = Instant::now();
        // One `plan` span per traced query, around the shared plan phase.
        let plan_handles: Option<Vec<SpanHandle>> = trace.map(|t| {
            t.targets
                .iter()
                .map(|&(tid, parent)| t.collector.child_of(tid, parent))
                .collect()
        });
        let plans = self.plan_batch(batch);
        if let (Some(t), Some(handles)) = (trace, plan_handles) {
            let buf = handles
                .into_iter()
                .map(|h| {
                    t.collector
                        .finish(h, kind::PLAN, "", vec![("queries", batch.len() as u64)])
                })
                .collect();
            t.collector.extend(buf);
        }
        // One `pool` span per traced query bracketing execution; shard
        // spans parent under it, so the timeline shows fan-out window
        // vs. per-shard work.
        let exec = trace.map(|t| {
            let handles: Vec<SpanHandle> = t
                .targets
                .iter()
                .map(|&(tid, parent)| t.collector.child_of(tid, parent))
                .collect();
            let ctx = Arc::new(ShardTrace {
                collector: Arc::clone(&t.collector),
                targets: handles.iter().map(|h| (h.trace_id, h.id)).collect(),
            });
            (handles, ctx)
        });
        let merged = self.execute(
            pool,
            batch,
            &plans,
            params,
            exec.as_ref().map(|(_, ctx)| ctx),
        );
        if let (Some(t), Some((handles, _))) = (trace, exec) {
            let tags = vec![
                ("shards", self.shards.len() as u64),
                ("queries", batch.len() as u64),
            ];
            let buf = handles
                .into_iter()
                .map(|h| t.collector.finish(h, kind::POOL, "", tags.clone()))
                .collect();
            t.collector.extend(buf);
        }
        if let Some(m) = self.metrics.get() {
            m.batch_size.record(batch.len() as u64);
            m.search_us.record(elapsed_us(start));
        }
        merged
    }

    /// The one execution body: runs `batch` with precomputed `plans`
    /// (`plans[i]` belongs to `batch[i]`, from
    /// [`ShardedIndex::plan_batch`]) on every shard — on the calling
    /// thread with one scratch when the index or `pool` has a single
    /// lane, otherwise one job per shard on `pool` — then merges the
    /// per-shard answers in fixed shard order, folds each query's
    /// plan-time statistics in **once** (the shards report
    /// execution-only statistics) and sorts ids ascending.
    ///
    /// Plans are parameter-independent by the [`SearchEngine::Plan`]
    /// contract, so [`Sweep`](crate::sweep::Sweep) reuses one plan set
    /// across several `params` values through this entry point.
    ///
    /// # Panics
    /// Panics if the index has shards and `plans.len() != batch.len()`.
    pub(crate) fn execute(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
        trace: Option<&Arc<ShardTrace>>,
    ) -> Vec<SearchResult<E::Stats>> {
        assert!(
            self.shards.is_empty() || plans.len() == batch.len(),
            "one plan per query"
        );
        let per_shard = if self.shards.len() <= 1 || pool.workers() <= 1 {
            let mut scratch = E::Scratch::default();
            self.shards
                .iter()
                .enumerate()
                .map(|(si, s)| {
                    shard_spans(trace.map(Arc::as_ref), si, || {
                        s.run_batch(&mut scratch, batch, plans, params)
                    })
                })
                .collect()
        } else {
            self.fan_out(pool, batch, plans, params, trace)
        };
        let mut merged: Vec<SearchResult<E::Stats>> =
            (0..batch.len()).map(|_| SearchResult::default()).collect();
        for shard_results in per_shard {
            for (slot, (ids, stats)) in merged.iter_mut().zip(shard_results) {
                slot.ids.extend(ids);
                slot.stats.merge(&stats);
            }
        }
        if let Some(shard0) = self.shards.first() {
            for (res, plan) in merged.iter_mut().zip(plans) {
                res.stats.merge(&shard0.engine.plan_stats(plan));
            }
        }
        for res in &mut merged {
            res.ids.sort_unstable();
        }
        merged
    }

    /// Fans one job per shard out to `pool` and collects per-shard
    /// results back into fixed shard order. With a trace context, each
    /// job opens its `shard` spans on the worker thread — queue wait
    /// inside the pool shows up as the gap between the `pool` span's
    /// start and the `shard` span's start.
    ///
    /// Jobs on the persistent pool must be `'static`, so the batch and
    /// its plans are cloned into `Arc`s shared by all jobs (queries are
    /// cheap to clone relative to a shard search; plans are `Arc`s).
    fn fan_out(
        &self,
        pool: &WorkerPool,
        batch: &[E::Query],
        plans: &[Arc<E::Plan>],
        params: &E::Params,
        trace: Option<&Arc<ShardTrace>>,
    ) -> Vec<ShardBatch<E::Stats>> {
        let ns = self.shards.len();
        let batch: Arc<Vec<E::Query>> = Arc::new(batch.to_vec());
        let plans: Arc<Vec<Arc<E::Plan>>> = Arc::new(plans.to_vec());
        let (tx, rx) = mpsc::channel::<(usize, ShardBatch<E::Stats>)>();
        for si in 0..ns {
            let shards = Arc::clone(&self.shards);
            let batch = Arc::clone(&batch);
            let plans = Arc::clone(&plans);
            let params = params.clone();
            let tx = tx.clone();
            let trace = trace.cloned();
            pool.submit(move |store| {
                let scratch = store.get_mut::<E::Scratch>();
                let result = shard_spans(trace.as_deref(), si, || {
                    // lint: allow(panic) — si ranges over 0..shards.len()
                    shards[si].run_batch(scratch, &batch, &plans, &params)
                });
                // The receiver only hangs up on panic-unwind; ignore.
                let _ = tx.send((si, result));
            })
            // Searching on a pool the caller already shut down is a
            // caller bug; failing loudly beats deadlocking below on
            // results that will never arrive.
            // lint: allow(panic) — deliberate: deadlock is the alternative
            .expect("search_batch_on called on a shut-down worker pool");
        }
        drop(tx);
        let mut slots: Vec<Option<ShardBatch<E::Stats>>> = (0..ns).map(|_| None).collect();
        for _ in 0..ns {
            // A worker job that panicked drops its sender without
            // sending; recv then fails once all senders are gone.
            // lint: allow(panic) — a shard worker panicked; this batch cannot
            // be answered, and the server's dispatcher catches the unwind
            let (si, res) = rx.recv().expect("search worker panicked");
            // lint: allow(panic) — si comes from the submit loop, always < ns
            slots[si] = Some(res);
        }
        slots
            .into_iter()
            // lint: allow(panic) — ns successful receives fill every slot
            .map(|s| s.expect("every shard served"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Toy engine for service-layer tests: records are integers, a query
    /// matches every record within `params` of it.
    struct AbsDiffEngine {
        values: Vec<i64>,
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct AbsDiffStats {
        compared: usize,
        results: usize,
    }

    impl MergeStats for AbsDiffStats {
        fn merge(&mut self, other: &Self) {
            self.compared = self.compared.saturating_add(other.compared);
            self.results = self.results.saturating_add(other.results);
        }
    }

    impl SearchEngine for AbsDiffEngine {
        type Query = i64;
        type Params = i64;
        type Stats = AbsDiffStats;
        type Scratch = ();
        type Plan = ();

        fn num_records(&self) -> usize {
            self.values.len()
        }

        fn plan(&self, _scratch: &mut (), _query: &i64) {}

        fn search_planned(
            &self,
            _scratch: &mut (),
            _plan: &(),
            query: &i64,
            params: &i64,
            out: &mut Vec<u32>,
        ) -> AbsDiffStats {
            let mut stats = AbsDiffStats::default();
            for (id, v) in self.values.iter().enumerate() {
                stats.compared += 1;
                if (v - query).abs() <= *params {
                    out.push(id as u32);
                    stats.results += 1;
                }
            }
            stats
        }
    }

    /// A plan-counting engine: its plan is the query doubled, and every
    /// `plan` call is counted so tests can assert plan-once behaviour.
    struct CountingEngine {
        inner: AbsDiffEngine,
        plans_computed: Arc<AtomicUsize>,
    }

    impl SearchEngine for CountingEngine {
        type Query = i64;
        type Params = i64;
        type Stats = AbsDiffStats;
        type Scratch = ();
        type Plan = i64;

        fn num_records(&self) -> usize {
            self.inner.num_records()
        }

        fn plan(&self, _scratch: &mut (), query: &i64) -> i64 {
            self.plans_computed.fetch_add(1, Ordering::SeqCst);
            query * 2
        }

        fn search_planned(
            &self,
            scratch: &mut (),
            plan: &i64,
            query: &i64,
            params: &i64,
            out: &mut Vec<u32>,
        ) -> AbsDiffStats {
            assert_eq!(*plan, query * 2, "shard received a foreign plan");
            self.inner.search_planned(scratch, &(), query, params, out)
        }
    }

    fn build_sharded(n: usize, shards: usize) -> (Vec<i64>, ShardedIndex<AbsDiffEngine>) {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101).collect();
        let index = ShardedIndex::build(
            values.clone(),
            shards,
            |_| (),
            |_, values| AbsDiffEngine { values },
        );
        (values, index)
    }

    fn build_counting(n: usize, shards: usize) -> (Arc<AtomicUsize>, ShardedIndex<CountingEngine>) {
        let values: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 101).collect();
        let plans = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&plans);
        let index = ShardedIndex::build(
            values,
            shards,
            |_| (),
            move |_, values| CountingEngine {
                inner: AbsDiffEngine { values },
                plans_computed: Arc::clone(&counter),
            },
        );
        (plans, index)
    }

    #[test]
    fn partition_covers_every_record_exactly_once() {
        let (_, index) = build_sharded(257, 5);
        let mut seen: Vec<u32> = index.shards.iter().flat_map(|s| s.ids.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..257).collect::<Vec<u32>>());
        assert_eq!(index.num_records(), 257);
        assert_eq!(index.requested_shards(), 5);
    }

    #[test]
    fn shard_ids_are_ascending() {
        let (_, index) = build_sharded(100, 7);
        for shard in index.shards.iter() {
            assert!(shard.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn sharded_matches_unsharded_any_k() {
        let (values, _) = build_sharded(120, 1);
        let reference = AbsDiffEngine {
            values: values.clone(),
        };
        let pool = WorkerPool::new(2);
        for k in [1usize, 2, 3, 7, 120, 200] {
            let (_, index) = build_sharded(120, k);
            for q in [0i64, 17, 50, 100] {
                let mut expect = Vec::new();
                let stats = reference.search_planned(&mut (), &(), &q, &10, &mut expect);
                let got = &index.search_batch_on(&pool, &[q], &10)[0];
                assert_eq!(got.ids, expect, "k={k} q={q}");
                assert_eq!(got.stats.results, stats.results, "k={k} q={q}");
                assert_eq!(got.stats.compared, stats.compared, "k={k} q={q}");
            }
        }
    }

    #[test]
    fn batch_matches_single_and_is_deterministic() {
        let (_, index) = build_sharded(300, 4);
        let batch: Vec<i64> = (0..23).map(|i| i * 9).collect();
        let serial_pool = WorkerPool::new(1);
        let serial: Vec<_> = batch
            .iter()
            .map(|q| index.search_batch_on(&serial_pool, &[*q], &7).remove(0))
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let run1 = index.search_batch_on(&pool, &batch, &7);
            let run2 = index.search_batch_on(&pool, &batch, &7);
            for qi in 0..batch.len() {
                assert_eq!(run1[qi].ids, serial[qi].ids, "threads={threads} qi={qi}");
                assert_eq!(run1[qi].ids, run2[qi].ids, "threads={threads} qi={qi}");
                assert_eq!(run1[qi].stats, run2[qi].stats, "threads={threads} qi={qi}");
            }
        }
    }

    #[test]
    fn global_build_plans_once_per_query_for_any_shard_count() {
        let batch: Vec<i64> = (0..10).map(|i| i * 11).collect();
        for k in [1usize, 2, 4, 7] {
            let (plans, index) = build_counting(300, k);
            for threads in [1usize, 4] {
                let pool = WorkerPool::new(threads);
                plans.store(0, Ordering::SeqCst);
                let _ = index.search_batch_on(&pool, &batch, &7);
                assert_eq!(
                    plans.load(Ordering::SeqCst),
                    batch.len(),
                    "k={k} threads={threads}: one plan per query, not per shard"
                );
            }
            // A single-query batch plans once too.
            plans.store(0, Ordering::SeqCst);
            let _ = index.search_batch_on(&WorkerPool::new(1), &[5], &7);
            assert_eq!(plans.load(Ordering::SeqCst), 1, "k={k}");
        }
    }

    #[test]
    fn precomputed_plans_are_reusable_across_params() {
        let (plans_computed, index) = build_counting(200, 3);
        let pool = WorkerPool::new(2);
        let batch: Vec<i64> = (0..8).collect();
        let plans = index.plan_batch(&batch);
        assert_eq!(plans.len(), batch.len());
        for params in [3i64, 7, 11] {
            let via_plans = index.execute(&pool, &batch, &plans, &params, None);
            let direct = index.search_batch_on(&pool, &batch, &params);
            for qi in 0..batch.len() {
                assert_eq!(via_plans[qi].ids, direct[qi].ids, "params={params} qi={qi}");
                assert_eq!(
                    via_plans[qi].stats, direct[qi].stats,
                    "params={params} qi={qi}"
                );
            }
        }
        // One plan set up front plus one per direct call.
        assert_eq!(plans_computed.load(Ordering::SeqCst), 4 * batch.len());
    }

    #[test]
    fn search_batch_on_shared_pool_matches_serial() {
        let (_, index_a) = build_sharded(300, 4);
        let (_, index_b) = build_sharded(150, 3);
        let batch: Vec<i64> = (0..17).map(|i| i * 11).collect();
        let pool = WorkerPool::new(2);
        let serial_pool = WorkerPool::new(1);
        // The same pool serves two different indexes, repeatedly; the
        // results must match the calling-thread path every time.
        for _ in 0..3 {
            let via_pool = index_a.search_batch_on(&pool, &batch, &9);
            let serial = index_a.search_batch_on(&serial_pool, &batch, &9);
            for qi in 0..batch.len() {
                assert_eq!(via_pool[qi].ids, serial[qi].ids, "qi={qi}");
                assert_eq!(via_pool[qi].stats, serial[qi].stats, "qi={qi}");
            }
            let via_pool_b = index_b.search_batch_on(&pool, &batch, &9);
            let serial_b = index_b.search_batch_on(&serial_pool, &batch, &9);
            for qi in 0..batch.len() {
                assert_eq!(via_pool_b[qi].ids, serial_b[qi].ids, "qi={qi}");
            }
        }
    }

    #[test]
    fn search_batch_on_plans_once_with_shared_pool() {
        let (plans, index) = build_counting(300, 4);
        let pool = WorkerPool::new(2);
        let batch: Vec<i64> = (0..9).collect();
        let expect = index.search_batch_on(&WorkerPool::new(1), &batch, &5);
        plans.store(0, Ordering::SeqCst);
        let got = index.search_batch_on(&pool, &batch, &5);
        assert_eq!(plans.load(Ordering::SeqCst), batch.len());
        for qi in 0..batch.len() {
            assert_eq!(got[qi].ids, expect[qi].ids, "qi={qi}");
        }
    }

    #[test]
    fn traced_search_emits_plan_pool_and_shard_spans() {
        use pigeonring_telemetry::json::Value;
        use pigeonring_telemetry::TraceCollector;

        let (_, index) = build_counting(300, 4);
        let pool = WorkerPool::new(2);
        let batch: Vec<i64> = (0..6).collect();
        let collector = Arc::new(TraceCollector::new(0, 256));
        let root = collector.sample(true).expect("forced trace");
        let trace = ShardTrace {
            collector: Arc::clone(&collector),
            targets: vec![(root.trace_id, root.id)],
        };

        let plain = index.search_batch_on(&pool, &batch, &5);
        let traced = index.search_batch_on_traced(&pool, &batch, &5, Some(&trace));
        for qi in 0..batch.len() {
            assert_eq!(plain[qi].ids, traced[qi].ids, "tracing changed results");
            assert_eq!(plain[qi].stats, traced[qi].stats, "tracing changed stats");
        }

        collector.extend(vec![collector.finish(root, kind::QUERY, "", vec![])]);
        let doc = collector.export_trace(root.trace_id);
        let spans = match doc.get("spans") {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("spans missing: {other:?}"),
        };
        let of_kind = |k: &str| -> Vec<&Value> {
            spans
                .iter()
                .filter(|s| s.get("kind").and_then(Value::as_str) == Some(k))
                .collect()
        };
        assert_eq!(of_kind(kind::PLAN).len(), 1, "one plan span per query");
        let pools = of_kind(kind::POOL);
        assert_eq!(pools.len(), 1, "one pool span per query");
        let pool_id = pools[0].get("id").and_then(Value::as_u64).unwrap();
        let shards = of_kind(kind::SHARD);
        assert_eq!(shards.len(), index.num_shards(), "one span per shard");
        for s in &shards {
            assert_eq!(
                s.get("parent").and_then(Value::as_u64),
                Some(pool_id),
                "shard spans nest under the pool span"
            );
        }
        // Every span traces back to the root.
        let ids: Vec<u64> = spans
            .iter()
            .map(|s| s.get("id").and_then(Value::as_u64).unwrap())
            .collect();
        for s in &spans {
            let parent = s.get("parent").and_then(Value::as_u64).unwrap();
            assert!(parent == 0 || ids.contains(&parent), "dangling parent");
        }
    }

    #[test]
    fn pool_reuse_and_size_never_change_answers() {
        let (_, index) = build_sharded(200, 4);
        let batch: Vec<i64> = (0..9).collect();
        let expect: Vec<Vec<u32>> = index
            .search_batch_on(&WorkerPool::new(1), &batch, &5)
            .into_iter()
            .map(|r| r.ids)
            .collect();
        // One pool reused across batches, then pools of other sizes;
        // answers never change.
        let two = WorkerPool::new(2);
        for pool in [&two, &two, &WorkerPool::new(3)] {
            let got = index.search_batch_on(pool, &batch, &5);
            for qi in 0..batch.len() {
                assert_eq!(
                    got[qi].ids,
                    expect[qi],
                    "workers={} qi={qi}",
                    pool.workers()
                );
            }
        }
    }

    #[test]
    fn more_shards_than_records_skips_empties() {
        let (_, index) = build_sharded(3, 64);
        assert!(index.num_shards() <= 3);
        assert_eq!(index.num_records(), 3);
        let res = index.search_batch_on(&WorkerPool::new(2), &[0], &1000);
        assert_eq!(res[0].ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_index_answers_every_query_with_nothing() {
        use pigeonring_telemetry::TraceCollector;

        let (_, index) = build_sharded(0, 4);
        assert_eq!(index.num_shards(), 0);
        assert_eq!(index.num_records(), 0);
        let batch: Vec<i64> = (0..5).collect();
        assert!(index.plan_batch(&batch).is_empty());
        let collector = Arc::new(TraceCollector::new(0, 64));
        let root = collector.sample(true).expect("forced trace");
        let trace = ShardTrace {
            collector: Arc::clone(&collector),
            targets: vec![(root.trace_id, root.id)],
        };
        for workers in [1usize, 2] {
            let pool = WorkerPool::new(workers);
            let plain = index.search_batch_on(&pool, &batch, &1000);
            let traced = index.search_batch_on_traced(&pool, &batch, &1000, Some(&trace));
            for res in [plain, traced] {
                assert_eq!(res.len(), batch.len(), "workers={workers}");
                for r in &res {
                    assert!(r.ids.is_empty(), "workers={workers}");
                    assert_eq!(r.stats, AbsDiffStats::default(), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn shard_assignment_is_deterministic() {
        for id in 0..1000u64 {
            assert_eq!(shard_of(id, 7), shard_of(id, 7));
        }
        // and spreads: no shard gets everything
        let mut counts = [0usize; 4];
        for id in 0..1000u64 {
            counts[shard_of(id, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedIndex::build(vec![1i64], 0, |_| (), |_, values| AbsDiffEngine { values });
    }

    /// The shard count is checked before the corpus-wide dictionary is
    /// built, so a bad count fails fast instead of after that work.
    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected_global() {
        let _ = ShardedIndex::build(
            vec![1i64],
            0,
            |_| panic!("dictionary built before the shard count was checked"),
            |_: &(), values| AbsDiffEngine { values },
        );
    }
}
