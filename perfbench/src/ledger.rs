//! The traced run: the per-layer ledger. It times, from the
//! benchmark's own code, the calls into each layer's public functions,
//! records a span around each, and reads the server's own Stats delta
//! for the layers inside the server. Every span, the server's Stats
//! export and its Trace export are written to `.bench_runs/` at the end.
//!
//! The steps, in order:
//! 1. the workload's load, once untraced and once traced (half the run
//!    length each); the difference in CPU per request is the tracing
//!    overhead, and the traced half feeds the pool, server, wire and
//!    generator metrics;
//! 2. the engines: each shard's engine rebuilt from the generated data
//!    with `shard_of`, and its `candidates_with*` / `search_with*` calls
//!    timed for every pool query;
//! 3. the sharded service layer: `plan_batch` and `search_batch_on`;
//! 4. the registry: `EngineSet::run_streaming` replaying mixed
//!    micro-batches;
//! 5. the connection path alone: a fast editdist and setsim schedule
//!    against a server whose handler answers without running an
//!    engine.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pigeonring_editdist::{EditScratch, GramDictionary, GramOrder, QGramCollection, RingEdit};
use pigeonring_graph::RingGraph;
use pigeonring_hamming::{AllocationStrategy, HammingScratch, RingHamming};
use pigeonring_server::{
    start_with_handler, Client, DomainQuery, Handler, Response, ServerConfig, TraceBatch,
    CONNECTION_REQUEST_ID,
};
use pigeonring_service::telemetry::{MetricsRegistry, Snapshot};
use pigeonring_service::{shard_of, PoolMetrics, SearchEngine, ShardedIndex, WorkerPool};
use pigeonring_setsim::{Collection, RingSetSim, SetScratch, Threshold, TokenDictionary};

use crate::data::{Datasets, Rng, BATCH, CHEAP, EDIT, GRAPH, HAMMING, HEAVY, NAMES, SET};
use crate::oracle::Oracle;
use crate::report::{out_dir, Outcome};
use crate::spans::{timed, Span, Tracer};
use crate::stats::{class_ms, mean, pct, ratio};
use crate::{
    check_generator, closed, fetch_stats, latency_metrics, note_steal, open, procfs, serve, Ctx,
    Workload, WORKERS,
};

/// Mixed micro-batches replayed through `run_streaming`, of the
/// server's default micro-batch size.
const REPLAY_BATCHES: usize = 24;
const MICRO_BATCH: usize = 16;

/// The connection-path replay sends editdist and setsim queries at
/// this rate: the cheap-open mix of the one-off knee sweep in
/// `perfbench/README.md`, well below its knee.
const TRANSPORT_RATE: f64 = 2000.0;

/// Trace ids handed to probe spans start here, above any request id
/// the load phase uses.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1 << 40);

fn fresh_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut out = Outcome::default();
    let half = ctx.args.seconds / 2.0;
    out.set("setup.datagen_s", ctx.datagen_s);
    let mut server_exports = None;
    match ctx.args.workload {
        Workload::EngineBatch => closed_load(ctx, half, &tracer, &mut out),
        Workload::MixedOpen => {
            server_exports = Some(open_load(ctx, half, &tracer, &mut out)?);
        }
    }
    let engine = engines(ctx, &tracer, &mut out);
    service(ctx, &engine, &tracer, &mut out);
    registry(ctx, &tracer, &mut out);
    transport(ctx, ctx.args.seconds / 4.0, &mut out)?;

    let dir = out_dir();
    let stem = format!("{}-seed{}", ctx.args.workload.name(), ctx.args.seed);
    let mut files = vec![(format!("{stem}-spans.json"), tracer.to_json())];
    if let Some((stats, trace)) = server_exports {
        files.push((format!("{stem}-server-stats.json"), stats));
        files.push((format!("{stem}-server-trace.json"), trace));
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, body) in files {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Sets every server-side and wire metric to 0: the closed loop does
/// not reach those layers.
fn no_server(out: &mut Outcome) {
    for d in NAMES {
        out.set(&format!("server.{d}.queue_wait_us"), 0.0);
        out.set(&format!("server.{d}.latency_us"), 0.0);
    }
    for name in [
        "server.dispatch.batch_size",
        "server.reactor.wakeups_per_req",
        "server.reactor.flushes_per_req",
        "wire.encode_us",
        "wire.decode_us",
        "wire.bytes_per_req",
        "loadgen.late_p99_ms",
        "loadgen.backlog",
    ] {
        out.set(name, 0.0);
    }
}

fn closed_load(ctx: &Ctx, half: f64, tracer: &Tracer, out: &mut Outcome) {
    let budget = Duration::from_secs_f64(half);
    let cpu_per_query = |run: &closed::ClosedRun, cpu_us: f64| cpu_us / run.queries.max(1) as f64;
    let plain_pool = WorkerPool::new(WORKERS);
    let cpu0 = procfs::process_cpu_us();
    let plain = closed::run(ctx, &plain_pool, budget, None);
    let plain_cpu = cpu_per_query(&plain, procfs::process_cpu_us() - cpu0);
    drop(plain_pool);

    let registry = MetricsRegistry::new();
    let pool = WorkerPool::new(WORKERS);
    pool.attach_metrics(PoolMetrics::register(&registry));
    let cpu0 = procfs::process_cpu_us();
    let run = closed::run(ctx, &pool, budget, Some(tracer));
    let traced_cpu = cpu_per_query(&run, procfs::process_cpu_us() - cpu0);
    let snap = registry.snapshot();
    pool_metrics(&snap, run.queries, out);
    out.set(
        "telemetry.trace_overhead_pct",
        overhead_pct(plain_cpu, traced_cpu),
    );
    latency_metrics(out, &run.latencies());
    for r in [&plain, &run] {
        note_steal(out, &r.window_steal);
        out.attempted += r.queries;
        out.failed += r.mismatches;
        out.mismatches += r.mismatches;
    }
    no_server(out);
}

fn overhead_pct(plain: f64, traced: f64) -> f64 {
    ratio(traced - plain, plain) * 100.0
}

fn hist_mean(snap: &Snapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64))
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn pool_metrics(snap: &Snapshot, requests: u64, out: &mut Outcome) {
    out.set("pool.queue_wait_us", hist_mean(snap, "pool.queue_wait_us"));
    out.set(
        "pool.jobs_per_req",
        ratio(counter(snap, "pool.jobs"), requests as f64),
    );
}

/// Untraced half, then traced half against a server sampling every
/// request. Returns the traced server's Stats and Trace exports.
fn open_load(
    ctx: &Ctx,
    half: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(String, String), String> {
    let items = ctx.schedule(half);
    let server = serve(&ctx.engines, 0)?;
    let plain = open::run(server.addr(), &items, &ctx.pools, &ctx.oracle, None);
    server.shutdown();
    let plain = plain?;

    let server = serve(&ctx.engines, 1)?;
    let addr = server.addr();
    let traced = (|| {
        let (before, _) = fetch_stats(addr)?;
        let run = open::run(addr, &items, &ctx.pools, &ctx.oracle, Some(tracer))?;
        let (after, stats_json) = fetch_stats(addr)?;
        let trace_json = Client::connect(addr)
            .and_then(|mut c| c.trace())
            .map_err(|e| format!("trace export: {e}"))?;
        Ok::<_, String>((run, after.delta(&before), stats_json, trace_json))
    })();
    server.shutdown();
    let (run, delta, stats_json, trace_json) = traced?;

    for r in [&plain, &run] {
        note_steal(out, &r.window_steal);
        out.attempted += r.sent;
        out.failed += r.failed;
        out.mismatches += r.mismatches;
    }
    check_generator(out, &run);
    out.set("loadgen.late_p99_ms", out.late_p99_ms);
    out.set("loadgen.backlog", out.backlog as f64);
    let per_req = |r: &open::OpenRun| r.net_cpu_us / r.answered().max(1) as f64;
    out.set(
        "telemetry.trace_overhead_pct",
        overhead_pct(per_req(&plain), per_req(&run)),
    );
    latency_metrics(out, &run.latencies);

    let answered = run.answered() as f64;
    pool_metrics(&delta, run.answered(), out);
    for d in NAMES {
        out.set(
            &format!("server.{d}.queue_wait_us"),
            hist_mean(&delta, &format!("server.{d}.queue_wait_us")),
        );
        out.set(
            &format!("server.{d}.latency_us"),
            hist_mean(&delta, &format!("server.{d}.latency_us")),
        );
    }
    out.set(
        "server.dispatch.batch_size",
        hist_mean(&delta, "server.dispatch.batch_size"),
    );
    out.set(
        "server.reactor.wakeups_per_req",
        ratio(counter(&delta, "server.reactor.wakeups"), answered),
    );
    out.set(
        "server.reactor.flushes_per_req",
        ratio(counter(&delta, "server.reactor.write_flushes"), answered),
    );
    out.set("wire.encode_us", ratio(run.encode_us, run.sent as f64));
    out.set("wire.decode_us", ratio(run.decode_us, answered));
    out.set(
        "wire.bytes_per_req",
        ratio(run.bytes as f64, run.sent as f64),
    );
    Ok((stats_json, trace_json))
}

/// Per-query engine cost, summed over shards.
#[derive(Default)]
struct EngineCost {
    cand_us: Vec<f64>,
    search_us: Vec<f64>,
    candidates: u64,
    results: u64,
    probes: u64,
}

/// One shard's answer to one query, timed.
struct ShardCall {
    cand: (Instant, Instant),
    search: (Instant, Instant),
    candidates: usize,
    probes: usize,
    /// Shard-local result ids.
    ids: Vec<u32>,
}

/// Splits `records` into shards exactly as `ShardedIndex` does: record
/// `i` goes to `shard_of(i, shards)`; empty shards are dropped.
fn partition<R: Clone>(records: &[R], shards: usize) -> Vec<(Vec<u32>, Vec<R>)> {
    let mut parts: Vec<(Vec<u32>, Vec<R>)> = (0..shards).map(|_| Default::default()).collect();
    for (id, r) in records.iter().enumerate() {
        let p = &mut parts[shard_of(id as u64, shards)];
        p.0.push(id as u32);
        p.1.push(r.clone());
    }
    parts.retain(|(ids, _)| !ids.is_empty());
    parts
}

/// Pool queries per domain the engine probe runs: every engine call is
/// repeated (see [`probe_engine`]), so it takes a prefix of each pool.
const ENGINE_PROBE: [usize; 4] = [64, 256, 256, 32];
/// Times each (candidates, search) pair is made per shard and query.
const ENGINE_REPEATS: usize = 3;

/// Runs the first [`ENGINE_PROBE`] pool queries of `domain` against
/// every shard through `call(shard, engine, query)`, which makes one
/// candidates call and one search call. Checks the merged ids against
/// the oracle and records an `engine.query` span per query with
/// `candidates_with` and `search_with` children.
///
/// Successive calls on one query run faster as caches and predictors
/// warm, and verification is a small part of a search, so the pair is
/// repeated and each call's fastest time kept: the difference of the
/// two minima is the verification. Each shard has its own scratch, as
/// each worker of a pool would.
fn probe_engine<S>(
    domain: usize,
    shards: &[(Vec<u32>, S)],
    oracle: &Oracle,
    tracer: &Tracer,
    out: &mut Outcome,
    mut call: impl FnMut(usize, &S, usize) -> ShardCall,
) -> EngineCost {
    let mut cost = EngineCost::default();
    let mut spans: Vec<Span> = Vec::new();
    let us = |(a, b): (Instant, Instant)| (b - a).as_secs_f64() * 1e6;
    for q in 0..ENGINE_PROBE[domain] {
        let trace = fresh_id();
        let (mut cand_us, mut search_us) = (0.0, 0.0);
        let mut ids = Vec::new();
        let t0 = Instant::now();
        for (si, (global, engine)) in shards.iter().enumerate() {
            let (mut cand, mut search) = (f64::MAX, f64::MAX);
            let mut last = None;
            for _ in 0..ENGINE_REPEATS {
                let c = call(si, engine, q);
                cand = cand.min(us(c.cand));
                search = search.min(us(c.search));
                spans.push(tracer.span(
                    (trace, fresh_id(), trace),
                    "candidates_with",
                    c.cand.0,
                    c.cand.1,
                ));
                spans.push(tracer.span(
                    (trace, fresh_id(), trace),
                    "search_with",
                    c.search.0,
                    c.search.1,
                ));
                last = Some(c);
            }
            let c = last.expect("ENGINE_REPEATS is at least 1");
            cand_us += cand;
            search_us += search;
            cost.candidates += c.candidates as u64;
            cost.results += c.ids.len() as u64;
            cost.probes += c.probes as u64;
            ids.extend(c.ids.iter().map(|&local| global[local as usize]));
        }
        spans.push(tracer.span((trace, trace, 0), "engine.query", t0, Instant::now()));
        ids.sort_unstable();
        out.attempted += 1;
        if !oracle.matches(domain, q, &ids) {
            out.failed += 1;
            out.mismatches += 1;
        }
        cost.cand_us.push(cand_us);
        cost.search_us.push(search_us);
    }
    tracer.extend(spans);
    cost
}

/// Times each shard engine's `&self` scratch-taking calls, on shards
/// rebuilt from freshly generated datasets. Returns each domain's mean
/// engine time per query (search, all shards summed).
fn engines(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) -> [f64; 4] {
    let spec = crate::data::spec(ctx.args.workload.shards());
    let data = &Datasets::generate(&spec);
    let (pools, oracle) = (&ctx.pools, &ctx.oracle);
    let k = spec.shards;
    let mut costs: [EngineCost; 4] = Default::default();

    let shards: Vec<(Vec<u32>, RingHamming)> = partition(&data.vectors, k)
        .into_iter()
        .map(|(ids, recs)| {
            (
                ids,
                RingHamming::build(recs, spec.hamming_m, AllocationStrategy::CostModel),
            )
        })
        .collect();
    let (tau, l) = (spec.hamming_tau, spec.hamming_l as usize);
    let mut scratch: Vec<HammingScratch> = shards.iter().map(|_| Default::default()).collect();
    costs[HAMMING] = probe_engine(HAMMING, &shards, oracle, tracer, out, |si, e, q| {
        let (query, scratch) = (&pools.hamming[q], &mut scratch[si]);
        let ((_, st), _, c0, c1) = timed(|| e.candidates_with(scratch, query, tau, l));
        let ((ids, _), _, s0, s1) = timed(|| e.search_with(scratch, query, tau, l));
        ShardCall {
            cand: (c0, c1),
            search: (s0, s1),
            candidates: st.candidates,
            probes: st.probes,
            ids,
        }
    });
    drop(shards);

    let dict = Arc::new(GramDictionary::build(
        &data.strings,
        spec.edit_kappa,
        GramOrder::Frequency,
    ));
    let shards: Vec<(Vec<u32>, RingEdit)> = partition(&data.strings, k)
        .into_iter()
        .map(|(ids, recs)| {
            (
                ids,
                RingEdit::build(
                    QGramCollection::with_dictionary(recs, Arc::clone(&dict)),
                    spec.edit_tau,
                ),
            )
        })
        .collect();
    let mut scratch: Vec<EditScratch> = shards.iter().map(|_| Default::default()).collect();
    // Plans are shard-independent (one global dictionary): made once
    // per query, outside the timed engine calls, as the service does.
    let plans: Vec<_> = pools.edit[..ENGINE_PROBE[EDIT]]
        .iter()
        .map(|q| shards[0].1.plan_query(&mut scratch[0], q))
        .collect();
    let l = spec.edit_l as usize;
    costs[EDIT] = probe_engine(EDIT, &shards, oracle, tracer, out, |si, e, q| {
        let (plan, query, scratch) = (&plans[q], &pools.edit[q], &mut scratch[si]);
        let ((_, st), _, c0, c1) = timed(|| e.candidates_with_plan(scratch, plan, query, l));
        let ((ids, _), _, s0, s1) = timed(|| e.search_with_plan(scratch, plan, query, l));
        ShardCall {
            cand: (c0, c1),
            search: (s0, s1),
            candidates: st.candidates,
            probes: 0,
            ids,
        }
    });
    drop(shards);

    let dict = Arc::new(TokenDictionary::build(&data.sets));
    let jaccard = Threshold::jaccard(spec.set_tau);
    let shards: Vec<(Vec<u32>, RingSetSim)> = partition(&data.sets, k)
        .into_iter()
        .map(|(ids, recs)| {
            (
                ids,
                RingSetSim::build(
                    Collection::with_dictionary(recs, Arc::clone(&dict)),
                    jaccard,
                    spec.set_m,
                ),
            )
        })
        .collect();
    let mut scratch: Vec<SetScratch> = shards.iter().map(|_| Default::default()).collect();
    let plans: Vec<_> = pools.set[..ENGINE_PROBE[SET]]
        .iter()
        .map(|q| shards[0].1.plan_raw_query(&mut scratch[0], q))
        .collect();
    let l = spec.set_l as usize;
    costs[SET] = probe_engine(SET, &shards, oracle, tracer, out, |si, e, q| {
        let (plan, scratch) = (&plans[q], &mut scratch[si]);
        let ((_, st), _, c0, c1) = timed(|| e.candidates_with_plan(scratch, plan, l));
        let ((ids, _), _, s0, s1) = timed(|| e.search_with_plan(scratch, plan, l));
        ShardCall {
            cand: (c0, c1),
            search: (s0, s1),
            candidates: st.candidates,
            probes: 0,
            ids,
        }
    });
    drop(shards);

    let shards: Vec<(Vec<u32>, RingGraph)> = partition(&data.graphs, k)
        .into_iter()
        .map(|(ids, recs)| (ids, RingGraph::build(recs, spec.graph_tau)))
        .collect();
    let l = spec.graph_l as usize;
    costs[GRAPH] = probe_engine(GRAPH, &shards, oracle, tracer, out, |_, e, q| {
        let query = &pools.graph[q];
        let ((_, st), _, c0, c1) = timed(|| e.candidates(query, l));
        let ((ids, _), _, s0, s1) = timed(|| e.search(query, l));
        ShardCall {
            cand: (c0, c1),
            search: (s0, s1),
            candidates: st.candidates,
            probes: 0,
            ids,
        }
    });

    let mut engine_us = [0.0; 4];
    for (d, c) in costs.iter().enumerate() {
        let name = NAMES[d];
        let n = c.cand_us.len() as f64;
        let cand = mean(&c.cand_us);
        let search = mean(&c.search_us);
        out.set(&format!("engine.{name}.cand_us"), cand);
        out.set(&format!("engine.{name}.verify_us"), search - cand);
        out.set(
            &format!("engine.{name}.candidates"),
            ratio(c.candidates as f64, n),
        );
        out.set(
            &format!("engine.{name}.precision"),
            ratio(c.results as f64, c.candidates as f64),
        );
        if d == HAMMING {
            out.set("engine.hamming.probes", ratio(c.probes as f64, n));
        }
        engine_us[d] = search;
    }
    engine_us
}

/// What the service probe shares across domains.
struct ServiceProbe<'a> {
    pool: WorkerPool,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
}

impl ServiceProbe<'_> {
    /// Times `plan_batch` and `search_batch_on` per batch of one
    /// domain. Returns (plan µs, search µs) per query.
    fn run<E: SearchEngine>(
        &self,
        domain: usize,
        index: &ShardedIndex<E>,
        queries: &[E::Query],
        params: &E::Params,
        out: &mut Outcome,
    ) -> (f64, f64) {
        let (mut plan_us, mut search_us) = (0.0, 0.0);
        let mut spans = Vec::new();
        for (bi, batch) in queries.chunks(BATCH).enumerate() {
            let trace = fresh_id();
            let (_, plan, p0, p1) = timed(|| index.plan_batch(batch));
            let (results, search, s0, s1) =
                timed(|| index.search_batch_on(&self.pool, batch, params));
            plan_us += plan.as_secs_f64() * 1e6;
            search_us += search.as_secs_f64() * 1e6;
            let t = self.tracer;
            spans.push(t.span((trace, trace, 0), "service.batch", p0, s1));
            spans.push(t.span((trace, fresh_id(), trace), "plan_batch", p0, p1));
            spans.push(t.span((trace, fresh_id(), trace), "search_batch_on", s0, s1));
            for (i, r) in results.iter().enumerate() {
                out.attempted += 1;
                if !self.oracle.matches(domain, bi * BATCH + i, &r.ids) {
                    out.failed += 1;
                    out.mismatches += 1;
                }
            }
        }
        self.tracer.extend(spans);
        let n = queries.len() as f64;
        (plan_us / n, search_us / n)
    }
}

fn service(ctx: &Ctx, engine_us: &[f64; 4], tracer: &Tracer, out: &mut Outcome) {
    let probe = ServiceProbe {
        pool: WorkerPool::new(WORKERS),
        oracle: &ctx.oracle,
        tracer,
    };
    let (e, p, pools) = (&ctx.engines, &ctx.params, &ctx.pools);
    let per_domain = [
        probe.run(HAMMING, e.hamming_index(), &pools.hamming, &p.hamming, out),
        probe.run(EDIT, e.edit_index(), &pools.edit, &p.edit, out),
        probe.run(SET, e.set_index(), &pools.set, &p.set, out),
        probe.run(GRAPH, e.graph_index(), &pools.graph, &p.graph, out),
    ];
    let parallelism = WORKERS.min(ctx.args.workload.shards()) as f64;
    for (d, (plan, search)) in per_domain.into_iter().enumerate() {
        let name = NAMES[d];
        out.set(&format!("service.{name}.plan_us"), plan);
        out.set(&format!("service.{name}.search_us"), search);
        // What the service call costs beyond planning and the engines'
        // own work spread over the workers: fan-out, pool hand-off,
        // merge. Reported as measured, even when negative.
        out.set(
            &format!("service.{name}.unattributed_us"),
            search - plan - engine_us[d] / parallelism,
        );
    }
}

/// Replays seeded mixed micro-batches through `run_streaming` and
/// times, per batch, the last emit of each cost class.
fn registry(ctx: &Ctx, tracer: &Tracer, out: &mut Outcome) {
    let pool = WorkerPool::new(WORKERS);
    let mut rng = Rng::new(ctx.args.seed ^ 0x7265_706c_6179);
    let (mut cheap_us, mut heavy_us) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    for _ in 0..REPLAY_BATCHES {
        let picks: Vec<(usize, usize)> = (0..MICRO_BATCH)
            .map(|_| {
                let d = rng.below(4);
                (d, rng.below(ctx.pools.len(d)))
            })
            .collect();
        let queries: Vec<DomainQuery> = picks
            .iter()
            .map(|&(d, q)| ctx.pools.wire[d][q].clone())
            .collect();
        let trace = fresh_id();
        let start = Instant::now();
        let mut last: [Option<Instant>; 2] = [None, None];
        let mut emit = |slot: usize, resp: Response| {
            let now = Instant::now();
            let (d, q) = picks[slot];
            last[usize::from(HEAVY.contains(&d))] = Some(now);
            spans.push(tracer.span((trace, fresh_id(), trace), "emit", now, now));
            out.attempted += 1;
            match resp {
                Response::Results { ids, .. } if ctx.oracle.matches(d, q, &ids) => {}
                Response::Results { .. } => {
                    out.failed += 1;
                    out.mismatches += 1;
                }
                _ => out.failed += 1,
            }
        };
        ctx.engines.run_streaming(
            &pool,
            queries,
            &TraceBatch::untraced(MICRO_BATCH),
            &mut emit,
        );
        spans.push(tracer.span((trace, trace, 0), "run_streaming", start, Instant::now()));
        let since = |t: Option<Instant>| t.map(|t| (t - start).as_secs_f64() * 1e6);
        cheap_us.extend(since(last[0]));
        heavy_us.extend(since(last[1]));
    }
    tracer.extend(spans);
    out.set("registry.cheap_emit_us", mean(&cheap_us));
    out.set("registry.heavy_emit_us", mean(&heavy_us));
}

/// Editdist and setsim queries at [`TRANSPORT_RATE`] against a server
/// whose handler answers every query with an empty result: the
/// connection, reactor, wire and dispatch path with no engine behind
/// it.
fn transport(ctx: &Ctx, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let handler: Handler = Arc::new(
        |queries: Vec<DomainQuery>, _: &TraceBatch, emit: &mut dyn FnMut(usize, Response)| {
            for slot in 0..queries.len() {
                emit(
                    slot,
                    Response::Results {
                        request_id: CONNECTION_REQUEST_ID,
                        ids: Vec::new(),
                    },
                );
            }
        },
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let server = start_with_handler(listener, handler, ServerConfig::default())
        .map_err(|e| format!("start transport server: {e}"))?;
    let items = open::poisson(ctx.args.seed, TRANSPORT_RATE, seconds, &CHEAP, &ctx.pools);
    let run = open::run(
        server.addr(),
        &items,
        &ctx.pools,
        &Oracle::empty(&ctx.pools),
        None,
    );
    server.shutdown();
    let run = run?;
    out.attempted += run.sent;
    out.failed += run.failed;
    let all = class_ms(&run.latencies, &CHEAP);
    out.set("server.transport_p50_ms", pct(&all, 50.0));
    out.set("server.transport_p99_ms", pct(&all, 99.0));
    Ok(())
}
