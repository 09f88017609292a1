//! Host measurements: process CPU time and peak RSS (`getrusage`), the
//! host-speed probe, order statistics, and the FNV-1a output digest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

/// User plus system CPU time of the whole process (every thread).
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(micros(&u.ru_utime) + micros(&u.ru_stime))
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// Median wall time of one [`probe_host`] call at two threads on the
/// host the baseline was measured on (2 vCPUs of a shared Xeon VM, the
/// median over 30 runs of 40 s), ms. Times are reported scaled to this
/// host speed.
pub const PROBE_REF_MS: f64 = 15.2;

/// Rounds of [`probe_work`]: about 15 ms at two threads on the
/// reference host.
const PROBE_ROUNDS: usize = 150;

/// A fixed workload that depends on no `ravel` code: a binary heap of
/// small heap-allocated payloads (the allocator and pointer traffic of an
/// event queue) and a chain of integer arithmetic. Of the probes tried
/// (integer, random-access, page-fault and heap work, alone and mixed),
/// this mix tracked the other tenants' effect on all three workloads
/// best, so its median over a run measures the host's speed in the run.
fn probe_work() -> u64 {
    let mut heap = BinaryHeap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let next = |x: &mut u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    };
    for _ in 0..PROBE_ROUNDS {
        for _ in 0..512 {
            let k = next(&mut x);
            heap.push(Reverse((k % 100_000, vec![k; 4])));
        }
        while heap.len() > 64 {
            let Reverse((k, v)) = heap.pop().expect("non-empty heap");
            acc = acc.wrapping_add(k ^ v[1]);
        }
        heap.clear();
        for i in 0..20_000u64 {
            acc = acc.wrapping_add(next(&mut x) ^ i);
        }
    }
    acc
}

/// Runs [`probe_work`] on `threads` threads at once, as the pool runs
/// cells, and returns the wall time in ms.
pub fn probe_host(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| std::hint::black_box(probe_work())))
            .collect();
        for w in workers {
            w.join().expect("probe thread panicked");
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `samples`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest quantile with at least ten of `n` samples beyond it.
pub fn tail_quantile(n: usize) -> f64 {
    assert!(n > 10, "a tail needs more than ten samples, got {n}");
    1.0 - 10.0 / n as f64
}

/// A 64-bit FNV-1a hasher fed through `fmt::Write`, so any `Debug` or
/// `Display` value can be digested without building a string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(tail_quantile(400), 0.975);
    }

    #[test]
    fn rusage_reads_the_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= before);
    }
}
