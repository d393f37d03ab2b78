//! Binomial proportions with Wilson score confidence intervals — the
//! interval math behind confidence-targeted adaptive campaigns.
//!
//! The paper's tables report proportions (recovery rate, failure rate)
//! out of a fixed number of runs; an adaptive campaign instead runs each
//! sweep arm until the interval around its key proportion is tight. The
//! Wilson score interval is used rather than the Wald interval because
//! campaign proportions sit near 0 or 1 (the paper's headline is "every
//! injected error was recovered"), exactly where the Wald interval
//! degenerates to zero width and stops a sweep on no evidence.

use crate::special::Z_95;

/// A binomial proportion: `successes` out of `trials`.
///
/// # Examples
///
/// ```
/// use ree_stats::Proportion;
/// let p = Proportion::new(48, 50);
/// assert_eq!(p.point(), 0.96);
/// let (lo, hi) = p.wilson();
/// assert!(lo > 0.85 && hi <= 1.0);
/// assert!(p.wilson_half_width() < 0.07);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Proportion {
    /// Number of successes observed.
    pub successes: u64,
    /// Number of trials observed.
    pub trials: u64,
}

impl Proportion {
    /// Creates a proportion of `successes` out of `trials`.
    ///
    /// # Panics
    ///
    /// Panics if `successes > trials`.
    pub fn new(successes: u64, trials: u64) -> Self {
        assert!(successes <= trials, "successes {successes} > trials {trials}");
        Proportion { successes, trials }
    }

    /// Point estimate `successes / trials` (0 for zero trials).
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Two-sided 95 % Wilson score interval `(lo, hi)`.
    ///
    /// For zero trials the interval is the vacuous `(0, 1)`: no evidence
    /// constrains nothing, which is what makes a stopping rule on the
    /// half-width safe before the first batch lands.
    pub fn wilson(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.point();
        let z = Z_95;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).max(0.0), (centre + half).min(1.0))
    }

    /// Half the width of the Wilson interval — the adaptive stopping
    /// rule's "±x% at 95 % confidence" quantity. `0.5` (the widest
    /// possible) for zero trials.
    pub fn wilson_half_width(&self) -> f64 {
        let (lo, hi) = self.wilson();
        (hi - lo) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimates() {
        assert_eq!(Proportion::new(0, 0).point(), 0.0);
        assert_eq!(Proportion::new(1, 2).point(), 0.5);
        assert_eq!(Proportion::new(10, 10).point(), 1.0);
    }

    #[test]
    fn wilson_matches_reference_values() {
        // Reference: Wilson (1927) interval for k=8, n=10 at 95%:
        // (0.490, 0.943) — e.g. statsmodels proportion_confint(8, 10,
        // method="wilson").
        let (lo, hi) = Proportion::new(8, 10).wilson();
        assert!((lo - 0.4901).abs() < 1e-3, "lo {lo}");
        assert!((hi - 0.9433).abs() < 1e-3, "hi {hi}");
    }

    #[test]
    fn wilson_is_informative_at_the_boundaries() {
        // k = n: the Wald interval collapses to zero width; Wilson keeps
        // ~z^2/n of slack below 1.
        let p = Proportion::new(100, 100);
        let (lo, hi) = p.wilson();
        assert_eq!(hi, 1.0);
        assert!(lo < 1.0 && lo > 0.94, "lo {lo}");
        // Symmetric at k = 0.
        let q = Proportion::new(0, 100);
        let (lo0, hi0) = q.wilson();
        assert_eq!(lo0, 0.0);
        assert!((hi0 - (1.0 - lo)).abs() < 1e-12, "Wilson must be symmetric under k -> n-k");
    }

    #[test]
    fn zero_trials_is_vacuous() {
        let p = Proportion::default();
        assert_eq!(p.wilson(), (0.0, 1.0));
        assert_eq!(p.wilson_half_width(), 0.5);
    }

    #[test]
    fn half_width_shrinks_with_trials() {
        let mut last = 0.5;
        for n in [10u64, 40, 160, 640, 2560] {
            let hw = Proportion::new(n / 2, n).wilson_half_width();
            assert!(hw < last, "half-width must shrink: {hw} !< {last}");
            last = hw;
        }
        // And the classic planning numbers: ±2% at 95% for p=0.5 needs
        // ~2400 trials; for p=1.0 roughly z^2/(2n) => ~96 trials.
        assert!(Proportion::new(1200, 2400).wilson_half_width() < 0.02);
        assert!(Proportion::new(1100, 2200).wilson_half_width() > 0.02);
        assert!(Proportion::new(100, 100).wilson_half_width() < 0.02);
    }

    #[test]
    fn interval_contains_the_point_estimate() {
        for (k, n) in [(0u64, 7u64), (1, 7), (3, 7), (7, 7), (250, 512)] {
            let p = Proportion::new(k, n);
            let (lo, hi) = p.wilson();
            assert!(lo <= p.point() + 1e-12 && p.point() <= hi + 1e-12, "({k},{n})");
        }
    }
}
