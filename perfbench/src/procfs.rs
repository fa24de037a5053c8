//! Readings from `/proc`: CPU time of the process and of the calling
//! thread, peak resident memory, and the host's steal time.

use std::fs;
use std::time::Instant;

/// `USER_HZ`: the unit of the utime/stime fields in `/proc/*/stat`.
/// Linux fixes it at 100 on every architecture the benchmark runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime of a `/proc/.../stat` line, in microseconds. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
fn stat_cpu_us(path: &str) -> f64 {
    let Ok(text) = fs::read_to_string(path) else {
        return 0.0;
    };
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 * 1e6 / TICKS_PER_SEC
}

/// CPU time used by the whole process so far (every thread, live or
/// exited), in microseconds.
pub fn process_cpu_us() -> f64 {
    stat_cpu_us("/proc/self/stat")
}

/// CPU time used by the calling thread so far, in microseconds.
pub fn thread_cpu_us() -> f64 {
    stat_cpu_us("/proc/thread-self/stat")
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate host CPU counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the counters now.
    pub fn read() -> HostCpu {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let vals: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        HostCpu {
            steal: vals.get(7).copied().unwrap_or(0),
            total: vals.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`,
    /// in percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 * 100.0 / total as f64
    }
}

/// Host steal per whole second of a run, read as the run goes.
pub struct StealClock {
    start: Instant,
    /// `marks[i]`: the counters as second `i` began.
    marks: Vec<HostCpu>,
}

impl StealClock {
    pub fn new(start: Instant) -> StealClock {
        StealClock {
            start,
            marks: vec![HostCpu::read()],
        }
    }

    /// Reads the counters if a new second has begun since the last
    /// reading. Cheap otherwise, so it can run between requests.
    pub fn tick(&mut self) {
        let second = Instant::now()
            .saturating_duration_since(self.start)
            .as_secs() as usize;
        if second >= self.marks.len() {
            let now = HostCpu::read();
            self.marks.resize(second + 1, now);
        }
    }

    /// Steal percent of each second that has begun.
    pub fn windows(mut self) -> Vec<f64> {
        self.marks.push(HostCpu::read());
        self.marks
            .windows(2)
            .map(|p| p[1].steal_pct_since(&p[0]))
            .collect()
    }
}

/// CPU time the process spent outside the given generator threads:
/// the process's CPU delta minus what the generator threads measured
/// for themselves.
pub fn net_cpu_us(process_delta_us: f64, generator_us: &[f64]) -> f64 {
    process_delta_us - generator_us.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns at least `us` of the calling thread's CPU time.
    fn burn(us: f64) -> f64 {
        let t0 = thread_cpu_us();
        let mut x = 0u64;
        while thread_cpu_us() - t0 < us {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        }
        thread_cpu_us() - t0
    }

    #[test]
    fn generator_cpu_is_subtracted_from_process_cpu() {
        // A synthetic generator thread burns 300 ms of CPU and measures
        // itself from inside, while the main thread burns 200 ms of
        // "server" work. Process CPU minus the generator's own must come
        // out at the main thread's share, not the whole process's. The
        // tolerance covers the 10 ms tick of each reading.
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = process_cpu_us();
        let generator = std::thread::spawn(|| burn(300_000.0));
        let server_us = burn(200_000.0);
        let generator_us = generator.join().expect("generator thread");
        let process_us = process_cpu_us() - before;
        let net = net_cpu_us(process_us, &[generator_us]);
        assert!(process_us >= 480_000.0, "process used {process_us} us");
        assert!(
            (net - server_us).abs() < 60_000.0,
            "net {net} us (process {process_us} minus generator {generator_us}) vs server {server_us}"
        );
    }

    #[test]
    fn readings_are_plausible() {
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(peak_rss_mb() > 0.0);
        let a = HostCpu::read();
        burn(30_000.0);
        let b = HostCpu::read();
        let steal = b.steal_pct_since(&a);
        assert!((0.0..=100.0).contains(&steal));
    }
}
