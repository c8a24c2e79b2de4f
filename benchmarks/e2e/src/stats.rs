//! Order statistics used by every metric.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample with at least
/// `p` percent of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample in place (latencies are finite, so the order is total).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of an unsorted sample; 0 when there are no samples.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, p).unwrap_or(0.0)
}

/// Class-balanced percentile: the nearest-rank percentile of each class's values, averaged
/// over the classes that have any. A workload sends a fixed mix of templates whose latencies
/// sit in separate clusters; the percentile of the pooled samples then lands on a boundary
/// between two clusters and jumps from one to the other between runs, while every template's
/// own percentile repeats within a few percent. Averaging per-template percentiles keeps each
/// template's weight fixed and moves in proportion when any one of them changes.
pub fn balanced_pct(classes: usize, samples: impl Iterator<Item = (usize, f64)>, p: f64) -> f64 {
    let mut by_class: Vec<Vec<f64>> = vec![Vec::new(); classes];
    for (class, value) in samples {
        by_class[class].push(value);
    }
    let per_class: Vec<f64> = by_class
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| pct(v, p))
        .collect();
    if per_class.is_empty() {
        0.0
    } else {
        per_class.iter().sum::<f64>() / per_class.len() as f64
    }
}

/// Median that averages the two middle samples of an even-sized sample; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses; `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread the acceptance rule
/// compares with a metric's bound.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let m = median(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 99.0), Some(198.0));
    }

    #[test]
    fn balanced_percentiles_ignore_how_many_samples_each_class_got() {
        // Two clusters, 10 and 100: pooled medians flip with the split, balanced ones do not.
        let mix = |fast: usize, slow: usize| {
            (0..fast)
                .map(|_| (0usize, 10.0))
                .chain((0..slow).map(|_| (1usize, 100.0)))
        };
        assert_eq!(balanced_pct(2, mix(51, 49), 50.0), 55.0);
        assert_eq!(balanced_pct(2, mix(49, 51), 50.0), 55.0);
        assert_eq!(
            balanced_pct(3, mix(5, 5), 50.0),
            55.0,
            "an empty class is left out"
        );
        assert_eq!(balanced_pct(2, std::iter::empty(), 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
