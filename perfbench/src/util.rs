//! Small shared helpers: seeded streams, order statistics, process
//! resource usage, and the timed repetition loop.

use std::time::{Duration, Instant};

/// splitmix64 stream: the benchmark's only source of randomness, so a
/// seed fixes every generated input.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted per workload so workloads sharing a
    /// seed do not share inputs.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.range(0, i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation; 0 for an
/// empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Log the distribution of a run's samples on standard error.
pub fn log_samples(name: &str, v: &[f64]) {
    eprintln!(
        "perfbench: {name}: {} samples, min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        v.len(),
        quantile(v, 0.0),
        quantile(v, 0.25),
        median(v),
        quantile(v, 0.75),
        quantile(v, 1.0)
    );
}

/// Worker threads the benchmark may use: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage`: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage_self() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a valid, exclusively borrowed `struct rusage`
    // with the C layout (two timevals and fourteen longs on 64-bit
    // Linux); RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    r
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage_self().maxrss as f64 / 1024.0
}

/// User + system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let r = rusage_self();
    (r.utime.sec + r.stime.sec) as f64 + (r.utime.usec + r.stime.usec) as f64 * 1e-6
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Return the allocator's free pages to the operating system.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` takes no pointers; it only walks
    // the allocator's own arenas under their locks.
    unsafe {
        malloc_trim(0);
    }
}

/// Current resident set in KiB (`VmRSS`), 0 where unavailable.
pub fn current_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Seconds in `d`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `op(rep)` once as a discarded warm-up (`rep == 0`), then again
/// for whole repetitions until `seconds` have passed since the first
/// timed one started, and at least `min_timed` times. An `Err` from any
/// repetition aborts.
pub fn repeat(
    seconds: f64,
    min_timed: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    op(0)?;
    let start = Instant::now();
    let mut rep = 1;
    while rep <= min_timed || start.elapsed().as_secs_f64() < seconds {
        op(rep)?;
        rep += 1;
    }
    Ok(())
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
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
