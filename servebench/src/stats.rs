//! Exact order statistics over raw samples.
//!
//! The server's `obs::Histogram` buckets are 3.2% wide, so latency
//! percentiles here are always taken from the raw samples instead.

/// The nearest-rank `q`-quantile (`q` in `[0, 1]`) of `samples`: the
/// `ceil(q·n)`-th smallest value, rank clamped to `1..=n`. `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(ranked(&sorted, q))
}

/// [`percentile`] over samples already sorted ascending.
pub fn ranked(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median in the usual sense (mean of the middle pair for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// A latency summary: exact p50/p90/p99 with the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (printed for reading only: it does not repeat).
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        (!sorted.is_empty()).then(|| Summary {
            count: sorted.len(),
            p50: ranked(&sorted, 0.50),
            p90: ranked(&sorted, 0.90),
            p99: ranked(&sorted, 0.99),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={:.1} p90={:.1} p99={:.1} (p99 has {} samples beyond it)",
            self.count,
            self.p50,
            self.p90,
            self.p99,
            self.count - (self.count as f64 * 0.99).ceil() as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let data: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&data, 0.50), Some(50.0));
        assert_eq!(percentile(&data, 0.90), Some(90.0));
        assert_eq!(percentile(&data, 0.99), Some(99.0));
        assert_eq!(percentile(&data, 1.0), Some(100.0));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
    }

    #[test]
    fn nearest_rank_on_small_and_uneven_sets() {
        // Rank ceil(q·n): with n = 5, p50 is the 3rd value, p90 the 5th.
        let data = [7.0, 3.0, 9.0, 1.0, 5.0];
        assert_eq!(percentile(&data, 0.5), Some(5.0));
        assert_eq!(percentile(&data, 0.9), Some(9.0));
        assert_eq!(percentile(&data, 0.2), Some(1.0));
        assert_eq!(percentile(&data, 0.21), Some(3.0));
        assert_eq!(percentile(&[42.0], 0.99), Some(42.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn values_between_buckets_are_not_rounded() {
        // A 3.2%-wide histogram bucket would report 1000 for all of these.
        let data = [1000.0, 1010.0, 1020.0];
        assert_eq!(percentile(&data, 0.5), Some(1010.0));
        assert_eq!(percentile(&data, 1.0), Some(1020.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_matches_percentile() {
        let data: Vec<f64> = (0..1000).map(|i| f64::from(i * 7 % 1000)).collect();
        let s = Summary::of(&data).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p90, 899.0);
        assert_eq!(s.p99, 989.0);
    }
}
