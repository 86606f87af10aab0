//! Order statistics for repetition samples and per-point latencies.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so the spreads this benchmark prints are
//! the spreads anyone recomputing them from the raw samples gets.

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` by the exclusive method: with `m = len + 1`, the
/// `i`-th cut point interpolates between the order statistics around
/// `i·m/4`, clamped to the sample. A single sample is its own quartiles;
/// an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest whole percentile that still has at least ten samples
/// strictly beyond its nearest-rank position, with its value:
/// `(percentile, value)`. `None` when fewer than eleven samples exist.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let data = sorted(values);
    let len = data.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * len).div_ceil(100);
        (rank >= 1 && len - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

/// `(q3 - q1) / median`: the relative spread the regression bounds are
/// compared against. `0.0` when the median is zero.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, mid, q3) = quartiles(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&seven), (2.0, 4.0, 6.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]: the
        // exclusive method extrapolates past the sample at tiny sizes.
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 3.0, 6.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99, 990.0)));
        // 48 samples: rank 38 leaves exactly ten beyond it, rank 39 nine.
        let forty_eight: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(tail(&forty_eight), Some((79, 38.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((9, 1.0)));
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
