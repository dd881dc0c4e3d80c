//! Host speed, read from a fixed reference kernel the benchmark owns.
//!
//! This 2-vCPU virtual machine shares its cores and caches with other
//! tenants, and runs the same code at speeds that wander by up to 2×
//! over minutes: one resident batch process made passes of 0.42–1.05 s
//! in four minutes, with its CPU time moving as much as its wall time
//! and no steal time. No run length averages that out. So in a
//! `--trace 0` run every timed block sits between runs of
//! [`kernel_ns`], and the block's times are multiplied by its factor:
//! [`REFERENCE_NS`] over the mean of the two kernel times around it. The
//! kernel calls no code of the program, so a change to the program moves
//! the scaled figures as much as the measured ones.
//!
//! The kernel hashes into a map, sorts, and allocates small vectors: the
//! kind of work the engine and the daemon do. Interleaved with batch
//! passes for five minutes, it tracked the pass time with a log-log
//! slope of 1.0, and dividing by it cut the spread of 15-second pass
//! medians from 0.26 to 0.07 of their median. Register arithmetic alone
//! tracked with a slope near 2, and was left out.
//!
//! A factor per block follows the host's speed within a run, which one
//! factor per run (the median of all samples) cannot. Scored both ways
//! on the same 18 runs, per-block factors gave a mean spread of 0.053
//! against 0.063, and 0.107 against 0.145 at worst. Rolling medians over
//! 3 to 18 samples did no better than the plain mean of two.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed: about its median on the
/// 2.0 GHz Xeon vCPUs the bounds were set on.
pub const REFERENCE_NS: f64 = 30e6;

/// A kernel sample this recent also stands for the next block's start.
const SHARED: Duration = Duration::from_millis(5);

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// One run of the reference kernel, in nanoseconds. Its inputs are fixed
/// and its map hasher unkeyed, so every run does the same work.
pub fn kernel_ns() -> f64 {
    let start = Instant::now();
    let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..100_000u64 {
        *counts.entry(mix(i) % 75_000).or_default() += i;
    }
    let mut keys: Vec<u64> = (0..500_000u64).map(mix).collect();
    keys.sort_unstable();
    let lists: Vec<Vec<u32>> = (0..100_000u32).map(|i| (0..i % 16).collect()).collect();
    let items: usize = lists.iter().map(Vec::len).sum();
    black_box((counts.len(), keys[keys.len() / 2], items));
    drop(lists);
    start.elapsed().as_nanos() as f64
}

/// Kernel samples taken around a run's timed blocks. A disabled gauge
/// takes none and scales by 1.
pub struct Gauge {
    enabled: bool,
    last: Option<Instant>,
    /// Every kernel time taken, in nanoseconds.
    pub samples: Vec<f64>,
}

impl Gauge {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            last: None,
            samples: Vec::new(),
        }
    }

    fn sample(&mut self) {
        if self.enabled && self.last.is_none_or(|at| at.elapsed() >= SHARED) {
            self.samples.push(kernel_ns());
            self.last = Some(Instant::now());
        }
    }

    /// Runs the timed block `work` between two kernel samples, a sample
    /// that ended just before standing for the first, and returns its
    /// output with the block's factor. Multiply the block's times by the
    /// factor, and divide its rates by it.
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            return (work(), 1.0);
        }
        self.sample();
        let before = *self.samples.last().expect("sampled above");
        let out = work();
        self.last = None;
        self.sample();
        let after = *self.samples.last().expect("sampled above");
        (out, factor(before, after))
    }
}

/// [`REFERENCE_NS`] over the mean of the samples around a block.
fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down() {
        assert_eq!(factor(REFERENCE_NS, REFERENCE_NS), 1.0);
        assert_eq!(factor(2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS), 0.5);
        assert_eq!(factor(REFERENCE_NS, 3.0 * REFERENCE_NS), 0.5);
    }

    #[test]
    fn a_disabled_gauge_runs_no_kernel() {
        let mut gauge = Gauge::new(false);
        assert_eq!(gauge.around(|| 7), (7, 1.0));
        assert!(gauge.samples.is_empty());
    }

    #[test]
    fn back_to_back_blocks_share_a_sample() {
        let mut gauge = Gauge::new(true);
        let (_, first) = gauge.around(|| ());
        let (_, second) = gauge.around(|| ());
        assert_eq!(gauge.samples.len(), 3);
        assert_eq!(first, factor(gauge.samples[0], gauge.samples[1]));
        assert_eq!(second, factor(gauge.samples[1], gauge.samples[2]));
    }
}
