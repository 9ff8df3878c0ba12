//! Order statistics used by every metric: median, linear-interpolation
//! percentiles, and the quartiles Python's `statistics.quantiles(v, n=4)`
//! gives (its default "exclusive" method), so the quartiles the benchmark
//! prints match a recomputation in Python.

/// Sorted copy of `values`.
///
/// # Panics
/// On a NaN, which no measurement produces.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `p`-th percentile (0..=100), interpolating linearly between the two
/// nearest ranks. One sample is its own every percentile.
///
/// # Panics
/// On an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median (the 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First, second and third quartile by Python's default "exclusive" method.
/// With fewer than two samples every quartile is the sample itself.
///
/// # Panics
/// On an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median, over `windows` equal slices of `[0, span)`, of each slice's
/// `p`-th percentile. `samples` are `(start, value)` pairs with `start` in
/// the same unit as `span`; a sample at or past `span` joins the last slice
/// and empty slices are skipped. A burst of host noise then moves one
/// slice's figure, not the run's.
///
/// # Panics
/// On an empty slice or `windows == 0`.
pub fn windowed(samples: &[(f64, f64)], span: f64, windows: usize, p: f64) -> f64 {
    assert!(windows > 0, "at least one window");
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(start, value) in samples {
        let i = ((start / span) * windows as f64).floor().max(0.0) as usize;
        slices[i.min(windows - 1)].push(value);
    }
    let figures: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, p))
        .collect();
    median(&figures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_vectors() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert!((percentile(&[10.0, 20.0], 90.0) - 19.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_takes_the_median_of_per_window_percentiles() {
        // Three windows over [0, 3): medians 2, 20 and 5 -> 5.
        let samples = [
            (0.1, 1.0),
            (0.5, 2.0),
            (0.9, 3.0),
            (1.2, 10.0),
            (1.5, 20.0),
            (1.8, 30.0),
            (2.5, 5.0),
            (7.0, 5.0),
        ];
        assert_eq!(windowed(&samples, 3.0, 3, 50.0), 5.0);
        // One window is the plain percentile; empty windows are skipped.
        assert_eq!(windowed(&samples[..3], 3.0, 1, 50.0), 2.0);
        assert_eq!(windowed(&samples[..3], 3.0, 3, 100.0), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
