//! The open-loop generator: a seeded Poisson schedule sent over one
//! loopback TCP connection by a sender thread while a receiver thread
//! reads, checks and times the replies. Each request is timed from the
//! moment the schedule said to send it, so a stall in the server also
//! delays, and is charged to, the requests due behind it.
//!
//! The socket mirrors `Client::connect`: default options (no
//! `TCP_NODELAY`), a buffered writer that flushes once per frame, and
//! a Hello/HelloOk handshake before the first query.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pigeonring_server::wire::{decode_response, encode_request, read_frame, write_frame};
use pigeonring_server::{Request, Response, PROTOCOL_VERSION};

use crate::data::{Pools, Rng};
use crate::oracle::Oracle;
use crate::procfs::{net_cpu_us, process_cpu_us, thread_cpu_us, StealClock};
use crate::spans::{Span, Tracer};
use crate::stats::Sample;

/// One scheduled request: when it is due (from the schedule's start),
/// and which pool query it sends.
#[derive(Clone, Copy, Debug)]
pub struct Item {
    pub at_ns: u64,
    pub domain: usize,
    pub query: usize,
}

/// Poisson arrivals at `rate` per second for `seconds`, each drawn
/// uniformly from `domains` and then uniformly from that domain's pool.
pub fn poisson(seed: u64, rate: f64, seconds: f64, domains: &[usize], pools: &Pools) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let mut items = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return items;
        }
        let domain = domains[rng.below(domains.len())];
        items.push(Item {
            at_ns: (t * 1e9) as u64,
            domain,
            query: rng.below(pools.len(domain)),
        });
    }
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct OpenRun {
    /// Every answered request's latency.
    pub latencies: Vec<Sample>,
    /// Host steal percent of each second of the schedule.
    pub window_steal: Vec<f64>,
    pub sent: u64,
    /// Replies that were Busy, an error, or not the expected ids, plus
    /// requests never answered.
    pub failed: u64,
    /// Of `failed`: replies whose ids differ from the oracle.
    pub mismatches: u64,
    /// How late each send was against its due time, in ms.
    pub late_ms: Vec<f64>,
    /// Requests sent but not yet answered when the schedule ended.
    pub backlog: u64,
    /// Process CPU over the phase minus the generator threads' own.
    pub net_cpu_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    /// Frame bytes both ways, length prefixes included.
    pub bytes: u64,
}

impl OpenRun {
    pub fn answered(&self) -> u64 {
        self.latencies.len() as u64
    }
}

/// Connects and negotiates the protocol, as `Client::connect` does.
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    write_frame(
        &mut w,
        &encode_request(&Request::Hello {
            max_version: PROTOCOL_VERSION,
        }),
    )
    .map_err(|e| format!("hello: {e}"))?;
    let mut r = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    match read_frame(&mut r).map_err(|e| format!("hello reply: {e}"))? {
        Some(p) => match decode_response(&p) {
            Ok(Response::HelloOk { .. }) => Ok(stream),
            other => Err(format!("expected HelloOk, got {other:?}")),
        },
        None => Err("server closed during hello".into()),
    }
}

/// A reply is never awaited longer than this; a server that stops
/// answering fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Sends `items` on schedule over one connection to `addr` and checks
/// every reply against `oracle`.
pub fn run(
    addr: SocketAddr,
    items: &[Item],
    pools: &Pools,
    oracle: &Oracle,
    tracer: Option<&Tracer>,
) -> Result<OpenRun, String> {
    let stream = connect(addr)?;
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let write_half = stream.try_clone().map_err(|e| e.to_string())?;
    let answered = AtomicU64::new(0);
    // A short lead so both threads are running before the first send.
    let start = Instant::now() + Duration::from_millis(20);
    let gen = Gen {
        items,
        start,
        answered: &answered,
        tracer,
    };
    let cpu0 = process_cpu_us();
    let (tx, rx) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let out = gen.send(write_half, pools);
            if out.is_err() {
                // Unblock the receiver: no more replies are coming.
                let _ = stream.shutdown(Shutdown::Both);
            }
            out
        });
        let receiver = s.spawn(|| gen.receive(&stream, oracle));
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });
    let process_us = process_cpu_us() - cpu0;
    let tx = tx?;
    Ok(OpenRun {
        sent: tx.sent,
        late_ms: tx.late_ms,
        backlog: tx.backlog,
        encode_us: tx.encode_us,
        net_cpu_us: net_cpu_us(process_us, &[tx.cpu_us, rx.cpu_us]),
        bytes: tx.bytes + rx.bytes,
        window_steal: tx.window_steal,
        ..rx.run
    })
}

/// State shared by the sender and receiver threads.
struct Gen<'a> {
    items: &'a [Item],
    start: Instant,
    answered: &'a AtomicU64,
    tracer: Option<&'a Tracer>,
}

struct Sent {
    sent: u64,
    window_steal: Vec<f64>,
    late_ms: Vec<f64>,
    backlog: u64,
    encode_us: f64,
    bytes: u64,
    cpu_us: f64,
}

struct Received {
    run: OpenRun,
    bytes: u64,
    cpu_us: f64,
}

/// Span ids of request `id`: the root and its three children.
fn span_ids(id: u64) -> [u64; 4] {
    [id << 2, id << 2 | 1, id << 2 | 2, id << 2 | 3]
}

impl Gen<'_> {
    fn due(&self, it: &Item) -> Instant {
        self.start + Duration::from_nanos(it.at_ns)
    }

    fn send(&self, stream: TcpStream, pools: &Pools) -> Result<Sent, String> {
        let cpu0 = thread_cpu_us();
        let mut clock = StealClock::new(self.start);
        let mut w = BufWriter::new(stream);
        let mut late_ms = Vec::with_capacity(self.items.len());
        let mut spans: Vec<Span> = Vec::new();
        let (mut encode_us, mut bytes) = (0.0, 0u64);
        for (i, it) in self.items.iter().enumerate() {
            clock.tick();
            let at = self.due(it);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            let t0 = Instant::now();
            late_ms.push(t0.saturating_duration_since(at).as_secs_f64() * 1e3);
            let id = i as u64 + 1;
            let payload = encode_request(&Request::Query {
                request_id: id,
                query: pools.wire[it.domain][it.query].clone(),
                explain: false,
            });
            let t1 = Instant::now();
            write_frame(&mut w, &payload).map_err(|e| format!("send request {id}: {e}"))?;
            let t2 = Instant::now();
            encode_us += (t1 - t0).as_secs_f64() * 1e6;
            bytes += payload.len() as u64 + 4;
            if let Some(t) = self.tracer {
                let [root, enc, wr, _] = span_ids(id);
                spans.push(t.span((id, enc, root), "encode_request", t0, t1));
                spans.push(t.span((id, wr, root), "write_frame", t1, t2));
            }
        }
        let backlog =
            (self.items.len() as u64).saturating_sub(self.answered.load(Ordering::Relaxed));
        if let Some(t) = self.tracer {
            t.extend(spans);
        }
        Ok(Sent {
            sent: self.items.len() as u64,
            window_steal: clock.windows(),
            late_ms,
            backlog,
            encode_us,
            bytes,
            cpu_us: thread_cpu_us() - cpu0,
        })
    }

    fn receive(&self, stream: &TcpStream, oracle: &Oracle) -> Received {
        let cpu0 = thread_cpu_us();
        let mut r = BufReader::new(stream);
        let mut run = OpenRun::default();
        let mut seen = vec![false; self.items.len()];
        let mut spans: Vec<Span> = Vec::new();
        let mut bytes = 0u64;
        let mut remaining = self.items.len();
        while remaining > 0 {
            let payload = match read_frame(&mut r) {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("perfbench: reading replies failed: {e}");
                    break;
                }
            };
            let t0 = Instant::now();
            let resp = decode_response(&payload);
            let t1 = Instant::now();
            bytes += payload.len() as u64 + 4;
            run.decode_us += (t1 - t0).as_secs_f64() * 1e6;
            let Ok(resp) = resp else {
                run.failed += 1;
                continue;
            };
            let id = resp.request_id();
            let Some(slot) = (id as usize)
                .checked_sub(1)
                .filter(|&i| i < seen.len() && !seen[i])
            else {
                // A reply to no outstanding request.
                run.failed += 1;
                continue;
            };
            seen[slot] = true;
            remaining -= 1;
            self.answered.fetch_add(1, Ordering::Relaxed);
            let it = &self.items[slot];
            let due = self.due(it);
            run.latencies.push(Sample {
                domain: it.domain,
                ms: t1.saturating_duration_since(due).as_secs_f64() * 1e3,
            });
            match resp {
                Response::Results { ids, .. } => {
                    if !oracle.matches(it.domain, it.query, &ids) {
                        run.failed += 1;
                        run.mismatches += 1;
                    }
                }
                _ => run.failed += 1,
            }
            if let Some(t) = self.tracer {
                let [root, _, _, dec] = span_ids(id);
                spans.push(t.span((id, root, 0), "request", due, t1));
                spans.push(t.span((id, dec, root), "decode_response", t0, t1));
            }
        }
        // Requests never answered count as failed.
        run.failed += remaining as u64;
        if let Some(t) = self.tracer {
            t.extend(spans);
        }
        Received {
            run,
            bytes,
            cpu_us: thread_cpu_us() - cpu0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeonring_server::CONNECTION_REQUEST_ID;
    use pigeonring_server::{start_with_handler, DomainQuery, Handler, ServerConfig, TraceBatch};
    use std::net::TcpListener;
    use std::sync::Arc;

    /// One edit-distance and one set query; the oracle expects `[7]`
    /// for both.
    fn fixture() -> (Pools, Oracle) {
        let pools = Pools {
            hamming: Vec::new(),
            edit: vec![b"pigeon".to_vec()],
            set: vec![vec![1, 2, 3]],
            graph: Vec::new(),
            wire: [
                Vec::new(),
                vec![DomainQuery::Edit {
                    query: b"pigeon".to_vec(),
                    l: 2,
                }],
                vec![DomainQuery::Set {
                    tokens: vec![1, 2, 3],
                    l: 2,
                }],
                Vec::new(),
            ],
        };
        let oracle = Oracle {
            expected: [Vec::new(), vec![vec![7]], vec![vec![7]], Vec::new()],
        };
        (pools, oracle)
    }

    /// Serves every query with `ids`, whatever it asked.
    fn run_against(ids: Vec<u32>) -> OpenRun {
        let _serial = crate::TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let handler: Handler = Arc::new(
            move |queries: Vec<DomainQuery>,
                  _: &TraceBatch,
                  emit: &mut dyn FnMut(usize, Response)| {
                for slot in 0..queries.len() {
                    emit(
                        slot,
                        Response::Results {
                            request_id: CONNECTION_REQUEST_ID,
                            ids: ids.clone(),
                        },
                    );
                }
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server =
            start_with_handler(listener, handler, ServerConfig::default()).expect("start server");
        let (pools, oracle) = fixture();
        let items = poisson(3, 1000.0, 0.05, &[1, 2], &pools);
        assert!(!items.is_empty());
        let run = run(server.addr(), &items, &pools, &oracle, None).expect("open-loop run");
        server.shutdown();
        assert_eq!(run.sent, items.len() as u64);
        assert_eq!(run.answered(), items.len() as u64);
        run
    }

    #[test]
    fn correct_replies_pass() {
        let run = run_against(vec![7]);
        assert_eq!(run.failed, 0);
        assert_eq!(run.mismatches, 0);
    }

    #[test]
    fn corrupted_replies_are_caught() {
        let run = run_against(vec![7, 9]);
        assert_eq!(
            run.mismatches, run.sent,
            "every corrupted reply is a mismatch"
        );
        assert_eq!(run.failed, run.sent);
    }

    #[test]
    fn schedule_is_seeded_and_poisson() {
        let (pools, _) = fixture();
        let a = poisson(11, 2000.0, 2.0, &[1, 2], &pools);
        let b = poisson(11, 2000.0, 2.0, &[1, 2], &pools);
        let c = poisson(12, 2000.0, 2.0, &[1, 2], &pools);
        let at = |v: &[Item]| v.iter().map(|i| i.at_ns).collect::<Vec<_>>();
        assert_eq!(at(&a), at(&b), "same seed, same schedule");
        assert_ne!(at(&a), at(&c), "another seed, another schedule");
        // 4000 expected arrivals: the count is within a few standard
        // deviations (√4000 ≈ 63) of it, and both domains are drawn.
        assert!(
            (a.len() as f64 - 4000.0).abs() < 300.0,
            "{} arrivals",
            a.len()
        );
        assert!(a.iter().any(|i| i.domain == 1) && a.iter().any(|i| i.domain == 2));
    }
}
