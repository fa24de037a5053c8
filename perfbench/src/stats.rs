//! Summaries of samples.

use pigeonring_telemetry::percentile;

/// Nearest-rank percentile `p` (0–100) of unsorted samples; 0 when
/// there are none.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One request's latency and its domain.
pub struct Sample {
    pub domain: usize,
    pub ms: f64,
}

/// Latencies of `domains`' requests.
pub fn class_ms(samples: &[Sample], domains: &[usize]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| domains.contains(&s.domain))
        .map(|s| s.ms)
        .collect()
}
