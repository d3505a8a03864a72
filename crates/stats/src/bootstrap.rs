//! Bootstrap confidence intervals.
//!
//! Figure 1's shaded region is "the distribution of the lower and upper
//! bounds of the confidence intervals around the performance difference".
//! We compute per-group CIs for the median by the percentile bootstrap,
//! with an explicit seed so the whole figure is reproducible.

use crate::quantile::{median, quantile_sorted};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Division-free `n % d` for a loop-invariant divisor (Lemire's fastmod):
/// `c = ⌊2¹²⁸/d⌋ + 1`, then `n % d = ⌊(c·n mod 2¹²⁸) · d / 2¹²⁸⌋`. Exact
/// for every `n` and `d > 0`, so the result matches the hardware remainder
/// bit-for-bit at a fraction of the latency.
struct FastRem {
    d: u64,
    c: u128,
}

impl FastRem {
    fn new(d: u64) -> Self {
        assert!(d > 0);
        // For d = 1 the +1 wraps c to 0, which still yields rem ≡ 0: correct.
        Self {
            d,
            c: (u128::MAX / d as u128).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(&self, n: u64) -> u64 {
        let low = self.c.wrapping_mul(n as u128);
        // High 64 bits of the 192-bit product `low · d`, i.e.
        // ⌊low · d / 2¹²⁸⌋ (d < 2⁶⁴ keeps every partial sum in u128).
        let hi = low >> 64;
        let lo = low & u64::MAX as u128;
        let d = self.d as u128;
        ((hi * d + ((lo * d) >> 64)) >> 64) as u64
    }
}

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub lower: f64,
    pub point: f64,
    pub upper: f64,
    /// Nominal coverage, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lower..=self.upper).contains(&x)
    }
}

/// Percentile-bootstrap CI for the median of `values`.
///
/// `resamples` controls the bootstrap replication count (the paper's scale
/// would use thousands; 200 is plenty for figure shape). Returns `None` on
/// empty input. For a single sample the interval is degenerate.
pub fn bootstrap_median_ci(
    values: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    let point = median(values)?;
    if values.len() == 1 {
        return Some(ConfidenceInterval {
            lower: point,
            point,
            upper: point,
            level,
        });
    }

    SCRATCH.with_borrow_mut(|scratch| {
        let BootstrapScratch { raw, buf, medians } = scratch;
        let mut rng = StdRng::seed_from_u64(seed);
        // One batched pass over the generator: selection consumes no
        // randomness, so front-loading every draw leaves the stream order —
        // and therefore the resampled indices — exactly as the interleaved
        // draw-then-select loop produced them.
        let n = resamples * values.len();
        raw.clear();
        raw.reserve(n);
        for _ in 0..n {
            raw.push(rng.next_u64());
        }
        // `gen_range(0..len)` is `next_u64() % len`; the divisor is loop-
        // invariant, so hoist the division out of the ~len × resamples
        // draws.
        let index = FastRem::new(values.len() as u64);
        buf.resize(values.len(), 0.0);
        medians.clear();
        medians.reserve(resamples);
        for r in 0..resamples {
            let draws = &raw[r * values.len()..(r + 1) * values.len()];
            for (slot, &bits) in buf.iter_mut().zip(draws) {
                *slot = values[index.rem(bits) as usize];
            }
            // O(n) selection; bit-identical to sort + quantile_sorted, and
            // buf is refilled next iteration so the partial reorder is
            // harmless.
            medians.push(crate::quantile_select(buf, 0.5));
        }
        medians.sort_by(|a, b| a.total_cmp(b));

        let alpha = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
        Some(ConfidenceInterval {
            lower: quantile_sorted(medians, alpha),
            point,
            upper: quantile_sorted(medians, 1.0 - alpha),
            level,
        })
    })
}

/// Reused bootstrap buffers, one set per thread: the egress study runs one
/// `bootstrap_median_ci` per ⟨PoP, prefix⟩ group (hundreds to thousands per
/// campaign), and the three buffers would otherwise be reallocated per
/// group.
struct BootstrapScratch {
    /// Raw generator output, one `u64` per resampled index.
    raw: Vec<u64>,
    /// One resample of `values`.
    buf: Vec<f64>,
    /// The bootstrap replicate medians.
    medians: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<BootstrapScratch> =
        std::cell::RefCell::new(BootstrapScratch {
            raw: Vec::new(),
            buf: Vec::new(),
            medians: Vec::new(),
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_rem_matches_hardware_remainder() {
        let divisors = [1u64, 2, 3, 7, 240, 241, 1000, u32::MAX as u64, u64::MAX];
        let mut probes: Vec<u64> = vec![0, 1, 2, 239, 240, 241, u64::MAX, u64::MAX - 1];
        // Deterministic pseudo-random probes (splitmix64 walk).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).rotate_left(31);
            probes.push(x);
        }
        for &d in &divisors {
            let f = FastRem::new(d);
            for &n in &probes {
                assert_eq!(f.rem(n), n % d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn empty_returns_none() {
        assert!(bootstrap_median_ci(&[], 0.95, 100, 1).is_none());
    }

    #[test]
    fn single_sample_is_degenerate() {
        let ci = bootstrap_median_ci(&[7.0], 0.95, 100, 1).unwrap();
        assert_eq!(ci.lower, 7.0);
        assert_eq!(ci.upper, 7.0);
        assert_eq!(ci.width(), 0.0);
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64) * 0.1).collect();
        let ci = bootstrap_median_ci(&data, 0.95, 300, 42).unwrap();
        assert!(ci.lower <= ci.point);
        assert!(ci.point <= ci.upper);
        assert!(ci.contains(ci.point));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let data: Vec<f64> = (0..30).map(|i| ((i * 13) % 17) as f64).collect();
        let a = bootstrap_median_ci(&data, 0.95, 200, 7).unwrap();
        let b = bootstrap_median_ci(&data, 0.95, 200, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_data_tighter_interval() {
        // Same underlying distribution; 10x the samples should shrink the CI.
        let small: Vec<f64> = (0..20).map(|i| ((i * 7919) % 100) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 100) as f64).collect();
        let ci_s = bootstrap_median_ci(&small, 0.95, 300, 3).unwrap();
        let ci_l = bootstrap_median_ci(&large, 0.95, 300, 3).unwrap();
        assert!(
            ci_l.width() < ci_s.width(),
            "large {} vs small {}",
            ci_l.width(),
            ci_s.width()
        );
    }

    #[test]
    fn wider_level_wider_interval() {
        let data: Vec<f64> = (0..40).map(|i| ((i * 31) % 23) as f64).collect();
        let ci_90 = bootstrap_median_ci(&data, 0.90, 400, 5).unwrap();
        let ci_99 = bootstrap_median_ci(&data, 0.99, 400, 5).unwrap();
        assert!(ci_99.width() >= ci_90.width());
    }
}
