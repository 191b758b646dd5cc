//! Order statistics over run samples.

/// Median of `values` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99 / p90 / p50 that has at least ten samples beyond
/// it, with its label — the tail a sample of this size supports.
pub fn supported_tail(values: &[f64]) -> (&'static str, f64) {
    let n = values.len();
    for (label, p) in [("p99", 99.0), ("p90", 90.0)] {
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        if beyond >= 10 {
            return (label, percentile(values, p));
        }
    }
    ("p50", median(values))
}

/// Quartiles `[q1, q2, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, the spread rule the benchmark's
/// acceptance check uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn medians_percentiles_and_tails() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(supported_tail(&v), ("p90", 90.0));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&big), ("p99", 1980.0));
        assert_eq!(supported_tail(&[1.0, 2.0, 3.0]).0, "p50");
    }
}
