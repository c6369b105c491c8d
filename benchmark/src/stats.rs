//! Order statistics and interval arithmetic. Pure functions: no repo
//! crate is touched here.

/// Percentiles the tail rule may pick, ascending, in tenths of a percent
/// (whole numbers, so "ten of a hundred samples" is exact).
const TAIL_CANDIDATES: [usize; 5] = [750, 900, 950, 990, 999];
/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one unit.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples (a count that never occurred).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `pct` (0..=100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest candidate percentile that still has at least ten samples
/// beyond it; the median when even p75 has fewer.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&p| samples * (1000 - p) / 1000 >= TAIL_MIN_BEYOND)
        .map_or(50.0, |&p| p as f64 / 10.0)
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median; 0 for fewer than
/// two samples (no spread can be stated).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// Union length and peak overlap of a set of `[t0, t1]` intervals: the
/// time at least one was open, and the most that were open at once.
pub fn interval_union(intervals: &[(f64, f64)]) -> (f64, usize) {
    let mut sorted: Vec<(f64, f64)> = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut busy = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(t0, t1) in &sorted {
        open = match open {
            Some((s, e)) if t0 <= e => Some((s, e.max(t1))),
            Some((s, e)) => {
                busy += e - s;
                Some((t0, t1))
            }
            None => Some((t0, t1)),
        };
    }
    if let Some((s, e)) = open {
        busy += e - s;
    }
    // Sweep: an interval that ends exactly where another starts does not
    // overlap it, so ends sort before starts at equal times.
    let mut edges: Vec<(f64, i32)> = Vec::with_capacity(2 * sorted.len());
    for &(t0, t1) in &sorted {
        edges.push((t0, 1));
        edges.push((t1, -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut inflight, mut peak) = (0i32, 0i32);
    for (_, step) in edges {
        inflight += step;
        peak = peak.max(inflight);
    }
    (busy, peak as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), 50.0); // p75 would leave 5
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0); // p90 would leave 9.9
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert_eq!(spread(&[4.0, 1.0, 2.0]), 1.5);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn union_merges_overlaps_and_counts_inflight() {
        // [0,2] and [1,3] overlap; [5,6] stands alone; [6,7] touches it.
        let (busy, peak) = interval_union(&[(5.0, 6.0), (0.0, 2.0), (1.0, 3.0), (6.0, 7.0)]);
        assert_eq!(busy, 5.0);
        assert_eq!(peak, 2);
        assert_eq!(interval_union(&[]), (0.0, 0));
        // Three nested intervals are all in flight at once.
        let (busy, peak) = interval_union(&[(0.0, 10.0), (1.0, 2.0), (1.5, 3.0)]);
        assert_eq!(busy, 10.0);
        assert_eq!(peak, 3);
    }
}
