//! Order statistics: medians, quartiles and the percentile rule.

/// Sorts a sample ascending. Timings and rates here are never NaN.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of a sample (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value of the best tenth of a run's samples: the 90th percentile
/// of rates, the 10th of times (nearest rank; the extreme below ten
/// samples). Host noise here is one-sided and comes in bursts of seconds
/// — a neighbour only ever slows a window down — so the best decile
/// estimates the undisturbed cost where the median follows the bursts
/// (measured on this host: a cross-run spread of 3.9 % against 5.8 % for
/// web throughput, 14 % against 30 % for the `heap_eager_0` pause).
pub fn best_decile(xs: &[f64], higher_is_better: bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sort(&mut sorted);
    let tenth = (sorted.len() as f64 * 0.1).ceil() as usize; // ≥ 1
    if higher_is_better {
        sorted[sorted.len() - tenth]
    } else {
        sorted[tenth - 1]
    }
}

/// Nearest rank (1-based) of percentile `p` among `n` samples. The
/// epsilon keeps `0.9 * 100` (90.00000000000001) at rank 90.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The percentile rule: percentile `p` (0 < p < 1) of `n` samples may be
/// reported only when at least ten samples lie beyond it.
pub fn percentile_allowed(n: usize, p: f64) -> bool {
    n >= rank(n, p) + 10
}

/// Nearest-rank percentile `p` of an ascending sample, or `None` when
/// the percentile rule forbids it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if !percentile_allowed(sorted.len(), p) {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Quartiles by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// takes a metric's spread. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut sorted = xs.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks; like Python, interpolate
        // from the nearest interior pair (extrapolating for tiny samples).
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 needs 1000 samples, p90 needs 100, p50 needs 20.
        assert!(!percentile_allowed(999, 0.99));
        assert!(percentile_allowed(1000, 0.99));
        assert!(!percentile_allowed(99, 0.9));
        assert!(percentile_allowed(100, 0.9));
        assert!(!percentile_allowed(19, 0.5));
        assert!(percentile_allowed(20, 0.5));
    }

    #[test]
    fn percentile_is_nearest_rank_and_obeys_the_rule() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        assert_eq!(percentile(&xs, 0.999), None, "only one sample beyond p99.9");
        assert_eq!(percentile(&xs[..50], 0.9), None);
    }

    #[test]
    fn sub_window_median_ignores_one_slow_window() {
        // Nine windows at 1000 req/ms and one ten times slower: the mean
        // rate drops 9 %, the median does not move.
        let mut rates = vec![1_000.0; 9];
        rates.push(100.0);
        assert_eq!(median(&rates), 1_000.0);
    }

    #[test]
    fn best_decile_takes_the_fast_tail_on_the_right_side() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_decile(&xs, true), 19.0); // 2 of 20 at or above
        assert_eq!(best_decile(&xs, false), 2.0);
        // Below ten samples it is the extreme; a burst covering most of
        // the run still leaves it at the undisturbed value.
        assert_eq!(best_decile(&[5.0, 9.0, 9.0, 9.0], false), 5.0);
        assert_eq!(best_decile(&[5.0, 1.0, 1.0], true), 5.0);
        assert_eq!(best_decile(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
