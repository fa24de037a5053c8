//! The benchmark's own spans: timed from outside the program around
//! each call into a layer's public functions, kept in memory, and
//! written out when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call. Spans of one request share `trace`; `parent` is the
/// `id` of the span that caused this one (0 for a root).
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Collects spans from every thread. Threads fill a local `Vec<Span>`
/// and hand it over once with [`Tracer::extend`], so recording takes
/// no lock.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// A span covering `start..end`.
    pub fn span(
        &self,
        (trace, id, parent): (u64, u64, u64),
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            trace,
            id,
            parent,
            name,
            start_us: self.us(start),
            end_us: self.us(end),
        }
    }

    pub fn extend(&self, local: Vec<Span>) {
        self.spans
            .lock()
            .expect("span buffer lock is never held across a panic")
            .extend(local);
    }

    /// The collected spans as a JSON array, ordered by start time.
    pub fn to_json(&self) -> String {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock is never held across a panic");
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"trace\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}{sep}",
                s.trace, s.id, s.parent, s.name, s.start_us, s.end_us
            );
        }
        out.push(']');
        out
    }
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, Instant, Instant) {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    (r, end - start, start, end)
}
