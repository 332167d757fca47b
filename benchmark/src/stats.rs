//! Sample statistics: quantiles, the tail-percentile rule, the rank-max
//! reduction and the repeat spread.

/// Percentiles a tail may be reported at, ascending, in per mille (so
/// that the ten-samples rule is integer arithmetic).
const TAIL_PERMILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples.
/// NaN for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile that still has at least ten samples beyond
/// it, or `None` when even the 75th does not (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .iter()
        .rfind(|&&p| n * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// A timing as the guide asks for it: median, the tail percentile the
/// sample count supports, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

/// Per-iteration wall of a world: an iteration ends when its slowest
/// rank does, so reduce `per_rank[rank][iteration]` with max.
pub fn rank_max(per_rank: &[Vec<f64>]) -> Vec<f64> {
    let n = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| per_rank.iter().map(|r| r[i]).fold(f64::MIN, f64::max))
        .collect()
}

/// `(max − min)` of the per-repeat medians as a percentage of the pooled
/// median: how far whole repeats disagree, which is what a bound must
/// exceed before a comparison resolves anything.
pub fn repeat_spread_pct(repeats: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = repeats.iter().map(|r| median(r)).collect();
    let pooled: Vec<f64> = repeats.iter().flatten().copied().collect();
    let lo = medians.iter().copied().fold(f64::MAX, f64::min);
    let hi = medians.iter().copied().fold(f64::MIN, f64::max);
    100.0 * (hi - lo) / median(&pooled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10000), Some(99.9));
    }

    #[test]
    fn summary_carries_count_and_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.5);
        let (p, x) = s.tail.unwrap();
        assert_eq!(p, 95.0);
        assert!((x - 190.05).abs() < 1e-9);
    }

    #[test]
    fn rank_max_takes_slowest_rank_per_iteration() {
        let r0 = vec![1.0, 5.0, 2.0];
        let r1 = vec![3.0, 4.0, 2.5];
        assert_eq!(rank_max(&[r0.clone(), r1]), vec![3.0, 5.0, 2.5]);
        assert_eq!(rank_max(std::slice::from_ref(&r0)), r0);
        assert!(rank_max(&[]).is_empty());
    }

    #[test]
    fn spread_of_repeat_medians() {
        let repeats = vec![
            vec![10.0, 10.0, 10.0],
            vec![11.0, 11.0, 11.0],
            vec![10.5; 3],
        ];
        // medians 10, 11, 10.5; pooled median 10.5
        assert!((repeat_spread_pct(&repeats) - 100.0 / 10.5).abs() < 1e-9);
    }
}
