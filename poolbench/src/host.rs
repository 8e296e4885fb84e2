//! The host drift probe: a fixed memory-bound reference kernel.
//!
//! Timings on a shared host drift over minutes on memory-bound work while
//! register-only loops stay flat, so the probe chases pointers through a
//! buffer far larger than the caches and then streams through it once.
//! Its time, taken between ops, shows whether the host itself slowed.

use std::hint::black_box;
use std::time::Instant;

/// Buffer entries (32 MiB of `u32`).
const LEN: usize = 1 << 23;
/// Dependent loads per probe.
const CHASE_STEPS: usize = 1 << 17;

pub struct RefKernel {
    next: Vec<u32>,
}

impl RefKernel {
    /// Builds one random cycle through the buffer (Sattolo's shuffle
    /// under a fixed LCG, so every run chases the same path).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..LEN as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) as usize) % i;
            next.swap(i, j);
        }
        Self { next }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        let sum: u64 = self.next.iter().map(|&v| u64::from(v)).sum();
        black_box((at, sum));
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Cumulative `(steal, total)` CPU ticks from `/proc/stat`, where the
/// host exposes them.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] snapshots, percent.
pub fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, end?);
    (t1 > t0).then(|| 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
}
