//! Order statistics: medians and quartiles of a run's repetitions, and
//! percentiles of per-call spans.

/// Median of `xs`, averaging the two middle values for an even count;
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles of `xs`, by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so spreads
/// printed here match that function applied to the JSON values. One
/// sample is its own quartiles; `None` for no samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return s.first().map(|&x| (x, x));
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank `p`-th percentile (0 < `p` ≤ 100) of `xs`, reordering
/// `xs` in place; 0 for no samples.
pub fn percentile(xs: &mut [u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    *xs.select_nth_unstable(rank - 1).1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_order_statistics() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn one_sample_is_its_own_median_and_quartiles() {
        assert_eq!(median(&[3.5]), Some(3.5));
        assert_eq!(quartiles(&[3.5]), Some((3.5, 3.5)));
        assert_eq!(percentile(&mut [7], 99.0), 7);
    }

    #[test]
    fn n_samples_match_python_statistics() {
        // statistics.median / statistics.quantiles(n=4) on the same data.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some((1.25, 3.75)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        let mut hundred: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut hundred, 50.0), 50);
        assert_eq!(percentile(&mut hundred, 99.0), 99);
        assert_eq!(percentile(&mut hundred, 100.0), 100);
    }
}
