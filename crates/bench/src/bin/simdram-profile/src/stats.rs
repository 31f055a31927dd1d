//! Sample statistics, process memory and the host-speed calibration loop.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; 0.0 when empty.
///
/// With `n` samples, exactly `n - ceil(p/100 · n)` samples lie above the result, so for
/// `n = 100` the p90 has ten samples beyond it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds one fixed integer loop takes (best of three). Timed before and after a
/// workload, the ratio shows whether the host's speed drifted during the run.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            for i in 0..20_000_000u64 {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
                x ^= x >> 29;
            }
            black_box(x);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// SplitMix64: the benchmark's seeded input generator, so one `--seed` gives the same
/// inputs on every host and build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` values drawn uniformly from `lo..hi`.
    pub fn values(&mut self, n: usize, lo: u64, hi: u64) -> Vec<u64> {
        (0..n).map(|_| lo + self.next_u64() % (hi - lo)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_one_hundred_leaves_exactly_ten_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p90 = percentile(&samples, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        assert_eq!(
            Rng::new(7).values(32, 0, 256),
            Rng::new(7).values(32, 0, 256)
        );
        assert_ne!(
            Rng::new(7).values(32, 0, 256),
            Rng::new(8).values(32, 0, 256)
        );
        assert!(Rng::new(1)
            .values(1000, 3, 9)
            .iter()
            .all(|v| (3..9).contains(v)));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().is_some_and(|mib| mib > 0.0));
    }
}
