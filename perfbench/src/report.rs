//! Metric names and units, the result line, the run record, and the
//! comparison of two run records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pigeonring_service::MachineFingerprint;
use pigeonring_telemetry::json::{self, Value};

use crate::data::NAMES;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("cpu_us_per_req", "us"),
    ("p50_ms", "ms"),
    ("cheap_p50_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("hamming_qps", "1/s"),
    ("editdist_qps", "1/s"),
    ("setsim_qps", "1/s"),
    ("graph_qps", "1/s"),
];

/// Per-layer metrics, with units: every traced run reports all of
/// them. A layer the workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    let mut per_domain = |pattern: &str, unit: &'static str| {
        for d in NAMES {
            out.push((pattern.replace("{d}", d), unit));
        }
    };
    per_domain("engine.{d}.cand_us", "us");
    per_domain("engine.{d}.verify_us", "us");
    per_domain("engine.{d}.candidates", "count");
    per_domain("engine.{d}.precision", "ratio");
    per_domain("service.{d}.plan_us", "us");
    per_domain("service.{d}.search_us", "us");
    per_domain("service.{d}.unattributed_us", "us");
    per_domain("server.{d}.queue_wait_us", "us");
    per_domain("server.{d}.latency_us", "us");
    let fixed: [(&str, &'static str); 23] = [
        ("engine.hamming.probes", "count"),
        ("pool.queue_wait_us", "us"),
        ("pool.jobs_per_req", "count"),
        ("registry.cheap_emit_us", "us"),
        ("registry.heavy_emit_us", "us"),
        ("server.dispatch.batch_size", "count"),
        ("server.transport_p50_ms", "ms"),
        ("server.transport_p99_ms", "ms"),
        ("server.reactor.wakeups_per_req", "count"),
        ("server.reactor.flushes_per_req", "count"),
        ("wire.encode_us", "us"),
        ("wire.decode_us", "us"),
        ("wire.bytes_per_req", "bytes"),
        ("setup.datagen_s", "s"),
        ("telemetry.trace_overhead_pct", "%"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.backlog", "count"),
        ("host.steal_pct", "%"),
        ("host.calibration_s", "s"),
        ("p99_ms", "ms"),
        ("cheap_p99_ms", "ms"),
        ("heavy_p99_ms", "ms"),
        ("error_share", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// The unit a metric is reported in.
fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .or_else(|| {
            per_layer()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, u)| u)
        })
        .unwrap_or("")
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Of `failed`: answers that differ from the oracle.
    pub mismatches: u64,
    pub late_p99_ms: f64,
    pub backlog: u64,
    pub steal_pct: f64,
    /// The highest host steal of any one second of the measured load.
    pub peak_steal_pct: f64,
    /// Why the run does not count, if it does not: the generator fell
    /// behind its schedule, the backlog grew, or the host stole too
    /// much CPU time.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_share(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    /// `"name": {"value": v, "unit": u}` pairs for `names`, in order.
    /// Every name must have been measured.
    fn metrics_json(&self, names: &[(String, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a number: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json(&names)?
        ))
    }

    /// The run record: the result plus what makes it comparable — the
    /// machine fingerprint, the seed, the source digest — and whether
    /// the run is valid.
    pub fn record(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
        let all: Vec<(String, &str)> = self
            .metrics
            .keys()
            .map(|k| (k.clone(), unit_of(k)))
            .collect();
        let metrics = self
            .metrics_json(&all)
            .unwrap_or_else(|e| format!("\"{e}\""));
        let invalid = self
            .invalid
            .iter()
            .map(|r| format!("\"{}\"", json::escape(r)))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
             \"commit\": \"{}\", \"machine\": {}, \"valid\": {}, \"invalid\": [{invalid}], \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"mismatches\": {}, \"error_share\": {:?}, \
             \"late_p99_ms\": {:?}, \"backlog\": {}, \"steal_pct\": {:?}, \"peak_steal_pct\": {:?}, \
             \"metrics\": {metrics}}}\n",
            source_digest(),
            MachineFingerprint::detect().to_json(),
            self.invalid.is_empty(),
            self.correct(),
            self.attempted,
            self.failed,
            self.mismatches,
            self.error_share(),
            self.late_p99_ms,
            self.backlog,
            self.steal_pct,
            self.peak_steal_pct,
        )
    }
}

/// The checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where run records, spans and server exports go.
pub fn out_dir() -> PathBuf {
    repo_root().join(".bench_runs")
}

/// Identifies the code measured: an FNV-1a digest over the paths and
/// contents of the program's sources and the benchmark's own. The
/// checkout a benchmark runs in need not be a git repository, so the
/// digest stands in for the commit.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else {
                files.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files: Vec<PathBuf> = ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
        .iter()
        .map(|f| root.join(f))
        .collect();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(f).unwrap_or_default();
        for b in rel.bytes().chain(std::iter::once(0)).chain(body) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a64:{h:016x}")
}

/// How far the calibration kernel's time may differ between two
/// records before `compare` warns that the host ran at another speed.
const HOST_SPEED_TOLERANCE: f64 = 0.1;

/// Compares two run records metric by metric. Refuses records from
/// different machines, workloads or trace modes, and invalid runs.
pub fn compare(old_path: &str, new_path: &str) -> Result<String, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (old, new) = (load(old_path)?, load(new_path)?);
    comparable(&old, &new)?;
    let mut out = String::new();
    let metrics = |v: &Value| -> Vec<(String, f64)> {
        v.get("metrics")
            .and_then(Value::entries)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect()
    };
    let new_metrics: BTreeMap<String, f64> = metrics(&new).into_iter().collect();
    let calibration = |v: &Value| {
        metrics(v)
            .into_iter()
            .find(|(k, _)| k == "host.calibration_s")
            .map(|(_, s)| s)
    };
    if let (Some(a), Some(b)) = (calibration(&old), calibration(&new)) {
        if (b / a - 1.0).abs() > HOST_SPEED_TOLERANCE {
            let _ = writeln!(
                out,
                "warning: the host ran the calibration kernel in {a:.3} s then {b:.3} s; \
                 the runs saw different host speeds"
            );
        }
    }
    for (name, a) in metrics(&old) {
        if let Some(&b) = new_metrics.get(&name) {
            let change = if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 };
            let _ = writeln!(out, "{name:40} {a:>14.4} {b:>14.4} {change:>+8.1}%");
        }
    }
    Ok(out)
}

/// Why two records may not be compared, if they may not.
pub fn comparable(old: &Value, new: &Value) -> Result<(), String> {
    for key in ["machine", "workload", "trace"] {
        if old.get(key) != new.get(key) {
            return Err(format!("records differ in {key}; refusing to compare"));
        }
    }
    for (which, r) in [("old", old), ("new", new)] {
        if r.get("valid") != Some(&Value::Bool(true)) {
            return Err(format!("the {which} record is from an invalid run"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(machine: &str) -> Value {
        json::parse(&format!(
            "{{\"workload\": \"mixed-open\", \"trace\": false, \"valid\": true, \"machine\": {machine}, \
             \"metrics\": {{\"p50_ms\": {{\"value\": 1.0, \"unit\": \"ms\"}}}}}}"
        ))
        .expect("test record parses")
    }

    #[test]
    fn comparison_refuses_different_fingerprints() {
        let here = record(&MachineFingerprint::detect().to_json());
        let there = record(
            "{\"arch\": \"aarch64\", \"cores\": 64, \"cpu_features\": [], \"container\": false}",
        );
        assert!(comparable(&here, &here).is_ok());
        let err = comparable(&here, &there).expect_err("fingerprints differ");
        assert!(err.contains("machine"), "{err}");
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            items
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (n, _) in END_TO_END {
            o.set(n, 1.25);
        }
        let line = json::parse(&o.result_line(false).expect("all metrics set")).expect("parses");
        let keys: Vec<&str> = line
            .entries()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        o.metrics.remove("p50_ms");
        assert!(
            o.result_line(false).is_err(),
            "a missing metric is an error"
        );
    }
}
