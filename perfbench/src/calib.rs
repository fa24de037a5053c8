//! A fixed amount of the benchmark's own work, timed to gauge how fast
//! the host runs while a run measures. It uses none of the program's
//! code, so a change to the program cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Words in each thread's buffer (8 MiB): larger than the caches a
/// core keeps to itself, like the engines' indexes.
const WORDS: usize = 1 << 20;
/// Steps per thread per round: about 0.7 s on a 2-core x86-64
/// container.
const STEPS: usize = 4_000_000;

/// Dependent random reads mixed with popcounts and shifts.
fn kernel(buf: &[u64], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = buf[(x ^ acc) as usize & (WORDS - 1)];
        acc = acc.wrapping_add(u64::from(v.count_ones())).rotate_left(5) ^ v;
    }
    acc
}

/// Seconds two threads take to run the kernel side by side: the
/// median of `rounds` rounds.
pub fn host_seconds(rounds: usize) -> f64 {
    let bufs: Vec<Vec<u64>> = (0..crate::WORKERS as u64)
        .map(|t| {
            (0..WORDS as u64)
                .map(|i| (i ^ t).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect()
        })
        .collect();
    let mut times = Vec::with_capacity(rounds);
    for r in 0..rounds as u64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for buf in &bufs {
                s.spawn(move || black_box(kernel(black_box(buf), r)));
            }
        });
        times.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&times)
}
