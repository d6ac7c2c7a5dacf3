//! Order statistics used by every workload report.

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last rather than panicking).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted `values`; 0 for an
/// empty slice. Nearest-rank always returns an observed sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Median of unsorted `values` (mean of the two middle samples for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartiles with the same "exclusive" interpolation as
/// Python's `statistics.quantiles(values, n=4)`, so the spread a run prints
/// matches the one computed over its JSON output. A single sample is its own
/// quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (s[0], s[0]),
        _ => {}
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 50.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // 1,008 samples: p99 leaves ten samples above it.
        let v: Vec<f64> = (1..=1008).map(f64::from).collect();
        let p99 = percentile(&v, 99.0);
        assert_eq!(v.iter().filter(|x| **x > p99).count(), 10);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    /// Expected values come from Python's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[3.5, 1.25, 9.0, 2.0]), (1.4375, 7.625));
        assert_eq!(quartiles(&[5.0; 10]), (5.0, 5.0));
        assert_eq!(quartiles(&[1.0, 100.0]), (-23.75, 124.75));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }
}
