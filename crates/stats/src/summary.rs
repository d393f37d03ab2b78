//! Sample summaries with 95% t-confidence intervals, and the paper's
//! zero-failure probability bound.

use crate::special::t_quantile;

/// A running sample summary (mean, deviation, 95% CI).
///
/// # Examples
///
/// ```
/// use ree_stats::Summary;
/// let s: Summary = [74.0, 75.0, 76.0].into_iter().collect();
/// assert_eq!(s.mean(), 75.0);
/// assert!(s.ci95() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]. (A derived default would zero the
    /// min/max sentinels, silently clamping `min()` of any
    /// default-constructed summary to ≤ 0.)
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation (Welford's online update).
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator).
    pub(crate) fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval on the mean
    /// (t-distribution, as in the paper §4.2).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let t = t_quantile(0.975, (self.n - 1) as f64);
        t * self.std_dev() / (self.n as f64).sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `mean ± ci95` rendered like the paper's tables.
    pub fn display_pm(&self) -> String {
        format!("{:.2} ± {:.2}", self.mean(), self.ci95())
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// The paper's §5 bound: observing zero failures in `n` runs implies,
/// with 95% confidence, a per-run failure probability below
/// `1 − 0.95^(1/n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn no_failure_upper_bound(n: u64) -> f64 {
    assert!(n > 0, "need at least one run");
    1.0 - 0.95_f64.powf(1.0 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_mean_and_std() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.138089935299395).abs() < 1e-12);
        assert_eq!(s.n(), 8);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn ci_shrinks_with_more_data() {
        let small: Summary = (0..10).map(|i| (i % 3) as f64).collect();
        let large: Summary = (0..1000).map(|i| (i % 3) as f64).collect();
        assert!(large.ci95() < small.ci95());
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let empty = Summary::new();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.ci95(), 0.0);
        let mut one = Summary::new();
        one.push(42.0);
        assert_eq!(one.mean(), 42.0);
        assert_eq!(one.ci95(), 0.0);
        assert_eq!(one.std_dev(), 0.0);
    }

    #[test]
    fn paper_zero_failure_bound() {
        // §5: "With n = 734 runs ... less than 0.01% of all
        // SIGINT/SIGSTOP failures will be unrecoverable."
        let p = no_failure_upper_bound(734);
        assert!(p < 0.0001, "bound {p}");
        assert!(p > 0.00005, "bound {p} suspiciously small");
    }

    #[test]
    fn bound_decreases_with_n() {
        assert!(no_failure_upper_bound(100) > no_failure_upper_bound(1000));
    }

    #[test]
    fn default_tracks_min_like_new() {
        let mut s = Summary::default();
        s.push(74.0);
        s.push(76.0);
        assert_eq!(s.min(), 74.0, "default-constructed summary must not clamp min to 0");
        assert_eq!(s.max(), 76.0);
        assert_eq!(Summary::default(), Summary::new());
    }

    #[test]
    fn display_format() {
        let s: Summary = [74.0, 76.0].into_iter().collect();
        let text = s.display_pm();
        assert!(text.starts_with("75.00 ±"), "{text}");
    }
}
