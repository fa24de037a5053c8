//! The pigeonring benchmark: builds the full-scale engines, runs one
//! workload from a single process, checks every answer against a plain
//! scan of the generated data, and prints every metric by name and
//! unit.
//!
//! ```text
//! perfbench --workload <engine-batch|mixed-open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench compare <old-record.json> <new-record.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced ledger and reports the per-layer metrics instead. The last
//! line of standard output is the result as one JSON object. A run
//! record (the result plus machine fingerprint, seed, source digest and
//! validity) goes to `.bench_runs/` in the checkout.

mod calib;
mod closed;
mod data;
mod ledger;
mod open;
mod oracle;
mod procfs;
mod report;
mod spans;
mod stats;

use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pigeonring_server::{start, Client, EngineSet, ServerConfig, ServerHandle};
use pigeonring_service::telemetry::{json, Snapshot};
use pigeonring_service::WorkerPool;

use data::{Datasets, Params, Pools, ALL, CHEAP, HEAVY, NAMES};
use oracle::Oracle;
use procfs::HostCpu;
use report::Outcome;
use stats::Sample;

/// Held by tests that start threads or measure process CPU, so that
/// one test's threads do not show up in another's CPU reading.
#[cfg(test)]
pub static TEST_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Worker threads in every pool: the rates were chosen on a 2-core
/// machine.
pub const WORKERS: usize = 2;
/// `EngineSet::build` runs this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// How long open workloads measure per-domain capacity after their
/// load phase, with the closed loop on the serving engines.
const CAPACITY_PROBE: Duration = Duration::from_secs(10);
/// A run is invalid when its sends ran later than this at p99 …
const LATE_LIMIT_MS: f64 = 20.0;
/// … or when more requests were outstanding at the end of the schedule
/// than arrive in this long at the workload's rate …
const BACKLOG_WINDOW_S: f64 = 0.1;
/// … or when the host stole more than this share of CPU time over the
/// whole run …
const STEAL_LIMIT_PCT: f64 = 10.0;
/// … or more than this share in any one second of the measured load.
const PEAK_STEAL_LIMIT_PCT: f64 = 50.0;
/// mixed-open's arrival rate, below the knee measured for its mix (see
/// `perfbench/README.md`).
pub const MIXED_OPEN_RATE: f64 = 150.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one caller, no sockets, 8 shards.
    EngineBatch,
    /// Open loop over one connection, all four domains.
    MixedOpen,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::EngineBatch, Workload::MixedOpen];

    fn name(self) -> &'static str {
        match self {
            Workload::EngineBatch => "engine-batch",
            Workload::MixedOpen => "mixed-open",
        }
    }

    fn shards(self) -> usize {
        match self {
            Workload::EngineBatch => 8,
            Workload::MixedOpen => 2,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let name = get("--workload")?;
        let workload = Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let seed = get("--seed")?;
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("--seed must be a whole number, got {seed}"))?;
        let seconds = get("--seconds")?;
        let seconds = seconds
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--seconds must be a positive number, got {seconds}"))?;
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Everything a run sets up before it measures.
pub struct Ctx {
    pub args: Args,
    pub engines: Arc<EngineSet>,
    pub pools: Pools,
    pub params: Params,
    pub oracle: Oracle,
    pub setup_s: f64,
    /// Wall time of the four dataset generators, in seconds.
    pub datagen_s: f64,
}

impl Ctx {
    fn new(args: Args) -> Ctx {
        let spec = data::spec(args.workload.shards());
        // Inputs and oracle first, and the datasets dropped before the
        // builds, so that peak memory is the engines' own.
        let data = Datasets::generate(&spec);
        let pools = Pools::sample(&data, &spec, args.seed);
        let oracle = Oracle::scan(&data, &pools, &spec);
        let datagen_s = data.generate_s;
        drop(data);
        let mut builds = Vec::with_capacity(SETUP_REPEATS);
        let mut engines = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous set first so peak memory holds one set.
            drop(engines.take());
            let t = Instant::now();
            engines = Some(EngineSet::build(spec.clone()));
            builds.push(t.elapsed().as_secs_f64());
        }
        let engines = Arc::new(engines.expect("SETUP_REPEATS is at least 1"));
        Ctx {
            params: Params::of(&spec),
            setup_s: stats::median(&builds),
            datagen_s,
            args,
            engines,
            pools,
            oracle,
        }
    }

    /// mixed-open's arrival schedule for `seconds`.
    pub fn schedule(&self, seconds: f64) -> Vec<open::Item> {
        open::poisson(self.args.seed, MIXED_OPEN_RATE, seconds, &ALL, &self.pools)
    }
}

/// An in-process server over the workload's engines, as `repro serve`
/// runs it: default config, its own pool of `WORKERS` workers.
pub fn serve(engines: &Arc<EngineSet>, trace_sample: u64) -> Result<ServerHandle, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    start(
        listener,
        Arc::clone(engines),
        WorkerPool::new(WORKERS),
        ServerConfig {
            trace_sample,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))
}

/// The server's metrics snapshot, fetched over its own connection.
pub fn fetch_stats(addr: SocketAddr) -> Result<(Snapshot, String), String> {
    let text = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats: {e}"))?;
    let doc = json::parse(&text)?;
    let snap = doc
        .get("metrics")
        .and_then(Snapshot::from_json)
        .ok_or("stats document has no metrics snapshot")?;
    Ok((snap, text))
}

/// Marks `out` invalid when the generator fell behind or the backlog
/// grew.
pub fn check_generator(out: &mut Outcome, run: &open::OpenRun) {
    out.late_p99_ms = stats::pct(&run.late_ms, 99.0);
    out.backlog = run.backlog;
    eprintln!(
        "perfbench: {} sent, lateness p50 {:.3} p99 {:.3} max {:.3} ms, backlog {}",
        run.sent,
        stats::pct(&run.late_ms, 50.0),
        out.late_p99_ms,
        stats::pct(&run.late_ms, 100.0),
        run.backlog
    );
    if out.late_p99_ms > LATE_LIMIT_MS {
        out.invalid.push(format!(
            "generator fell behind its schedule: p99 lateness {:.2} ms",
            out.late_p99_ms
        ));
    }
    let limit = (MIXED_OPEN_RATE * BACKLOG_WINDOW_S).max(10.0) as u64;
    if run.backlog > limit {
        out.invalid.push(format!(
            "backlog grew: {} requests outstanding at the end of the schedule",
            run.backlog
        ));
    }
}

/// Keeps the highest one-second host steal seen in a measured phase.
pub fn note_steal(out: &mut Outcome, window_steal: &[f64]) {
    out.peak_steal_pct = out.peak_steal_pct.max(stats::pct(window_steal, 100.0));
}

/// Marks `out` invalid when the host stole too much CPU time: `steal_pct`
/// over the whole run, or `out.peak_steal_pct` in one second.
fn check_steal(out: &mut Outcome, steal_pct: f64) {
    out.steal_pct = steal_pct;
    eprintln!(
        "perfbench: host steal {steal_pct:.2}% over the run, {:.2}% in the worst second",
        out.peak_steal_pct
    );
    if steal_pct > STEAL_LIMIT_PCT {
        out.invalid.push(format!(
            "the host stole {steal_pct:.1}% of CPU time over the run"
        ));
    }
    if out.peak_steal_pct > PEAK_STEAL_LIMIT_PCT {
        out.invalid.push(format!(
            "the host stole {:.1}% of CPU time in one second",
            out.peak_steal_pct
        ));
    }
}

/// Median and p99 latency over all requests and per cost class.
pub fn latency_metrics(out: &mut Outcome, samples: &[Sample]) {
    for (prefix, class) in [
        ("", &ALL[..]),
        ("cheap_", &CHEAP[..]),
        ("heavy_", &HEAVY[..]),
    ] {
        let ms = stats::class_ms(samples, class);
        out.set(&format!("{prefix}p50_ms"), stats::pct(&ms, 50.0));
        out.set(&format!("{prefix}p99_ms"), stats::pct(&ms, 99.0));
    }
}

/// The untraced run: every end-to-end metric.
fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let capacity = match ctx.args.workload {
        Workload::EngineBatch => {
            let pool = WorkerPool::new(WORKERS);
            let cpu0 = procfs::process_cpu_us();
            let seconds = Duration::from_secs_f64(ctx.args.seconds);
            let run = closed::run(ctx, &pool, seconds, None);
            let cpu = procfs::process_cpu_us() - cpu0;
            out.set("cpu_us_per_req", cpu / run.queries as f64);
            latency_metrics(&mut out, &run.latencies());
            run
        }
        Workload::MixedOpen => {
            let server = serve(&ctx.engines, 0)?;
            let items = ctx.schedule(ctx.args.seconds);
            let run = open::run(server.addr(), &items, &ctx.pools, &ctx.oracle, None);
            server.shutdown();
            let run = run?;
            check_generator(&mut out, &run);
            out.attempted += run.sent;
            out.failed += run.failed;
            out.mismatches += run.mismatches;
            out.set(
                "cpu_us_per_req",
                run.net_cpu_us / run.answered().max(1) as f64,
            );
            latency_metrics(&mut out, &run.latencies);
            note_steal(&mut out, &run.window_steal);
            // Per-domain capacity of the serving engines, once the load
            // is gone.
            let pool = WorkerPool::new(WORKERS);
            closed::run(ctx, &pool, CAPACITY_PROBE, None)
        }
    };
    note_steal(&mut out, &capacity.window_steal);
    out.attempted += capacity.queries;
    out.failed += capacity.mismatches;
    out.mismatches += capacity.mismatches;
    for (d, name) in NAMES.iter().enumerate() {
        out.set(&format!("{name}_qps"), capacity.qps(d));
    }
    Ok(out)
}

fn bench(args: Args) -> Result<(Outcome, Args), String> {
    let host0 = HostCpu::read();
    // Before the engines exist, so its buffers do not add to peak RSS.
    let calibration_s = calib::host_seconds(3);
    let ctx = Ctx::new(args);
    let mut out = if ctx.args.trace {
        ledger::run(&ctx)?
    } else {
        measure(&ctx)?
    };
    out.set("host.calibration_s", calibration_s);
    out.set("setup_s", ctx.setup_s);
    check_steal(&mut out, HostCpu::read().steal_pct_since(&host0));
    out.set("host.steal_pct", out.steal_pct);
    out.set("rss_mb", procfs::peak_rss_mb());
    out.set("error_share", out.error_share());
    Ok((out, ctx.args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => match report::compare(a, b) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: perfbench compare <old-record.json> <new-record.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <engine-batch|mixed-open> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (out, args) = match bench(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let name = args.workload.name();
    let record = out.record(name, args.seed, args.seconds, args.trace);
    let dir = report::out_dir();
    let path = dir.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &record)) {
        Ok(()) => eprintln!("perfbench: run record in {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    for reason in &out.invalid {
        eprintln!("perfbench: INVALID RUN: {reason}");
    }
    if out.mismatches > 0 {
        eprintln!(
            "perfbench: {} answers differ from the oracle",
            out.mismatches
        );
    }
    match out.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
