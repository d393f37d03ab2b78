//! The estimators every figure goes through: per-op minimum across
//! passes, nearest-rank percentiles, and medians.

/// Per-op minimum over passes. The simulator is deterministic, so op `i`
/// does identical work in every pass and host interference can only add
/// time: the minimum is the least-disturbed observation of that work.
///
/// # Panics
///
/// Panics if `passes` is empty or the passes disagree on the op count.
pub fn merge_min(passes: &[&[u64]]) -> Vec<u64> {
    let mut out = passes[0].to_vec();
    for pass in &passes[1..] {
        assert_eq!(pass.len(), out.len(), "passes must time the same ops");
        for (m, &t) in out.iter_mut().zip(pass.iter()) {
            *m = (*m).min(t);
        }
    }
    out
}

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 · n)` (1-based). `p = 50` on an even sample is the
/// lower middle value, never an interpolation — every reported figure
/// is a time some op actually took.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order, NaN last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median in the textbook sense (mean of the two middle values on an
/// even sample) — for summarising repeated measurements of one quantity,
/// where no single observation is privileged.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_observed_value() {
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 95.0), 19.0);
        assert_eq!(nearest_rank(&s, 50.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 20.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        // 12 ops: rank ceil(11.4) = 12, the maximum.
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(nearest_rank(&twelve, 95.0), 12.0);
        assert_eq!(nearest_rank(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn merge_min_takes_each_ops_best_pass() {
        let a = [5u64, 9, 3];
        let b = [6u64, 2, 3];
        let c = [4u64, 8, 7];
        assert_eq!(merge_min(&[&a, &b, &c]), vec![4, 2, 3]);
        assert_eq!(merge_min(&[&a]), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "same ops")]
    fn merge_min_rejects_ragged_passes() {
        merge_min(&[&[1, 2], &[1]]);
    }

    #[test]
    fn median_of_even_sample_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }
}
