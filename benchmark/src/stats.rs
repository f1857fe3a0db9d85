//! Order statistics used by every report: percentiles of one run,
//! quartiles across runs, and the five in-run windows.

/// Sorts a copy and returns it; NaNs are a bug in the caller.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// The `p`-th percentile (0–100) by linear interpolation between closest
/// ranks; 0 for an empty sample so an omitted population prints as 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives
/// them, because that is what the driver computes spreads with.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: distance between the first and third quartile as a
/// share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / q2.abs()
    }
}

/// Splits `(completion offset in seconds, item)` pairs into `parts` equal
/// consecutive windows of the timed wall.
pub fn windows<T>(
    items: impl IntoIterator<Item = (f64, T)>,
    wall_s: f64,
    parts: usize,
) -> Vec<Vec<T>> {
    let mut buckets: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
    for (at, item) in items {
        let idx = ((at / wall_s) * parts as f64).floor() as usize;
        buckets[idx.min(parts - 1)].push(item);
    }
    buckets
}

/// `stat` in the quietest window: its lowest value over the windows that
/// yield one (`lower_is_better`), else its highest. Outside interference on
/// a shared machine only ever makes a closed loop slower, so the best
/// window is the one that shows the program; over ten runs a p95 taken this
/// way spread a third as far as the median of the windows' p95s.
pub fn quietest_window<T>(
    windows: &[Vec<T>],
    lower_is_better: bool,
    stat: impl Fn(&[T]) -> Option<f64>,
) -> f64 {
    let values = windows.iter().filter_map(|w| stat(w));
    let best = if lower_is_better {
        values.reduce(f64::min)
    } else {
        values.reduce(f64::max)
    };
    best.unwrap_or(0.0)
}

/// `(max − min) / median` of the window medians, in percent.
pub fn window_spread_pct(windows: &[f64]) -> f64 {
    let mid = median(windows);
    if mid == 0.0 {
        return 0.0;
    }
    let max = windows.iter().copied().fold(f64::MIN, f64::max);
    let min = windows.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(percentile(&[7.5], 95.0), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_split_the_wall_evenly() {
        // Ten completions over 10 s: values rise, so the windows drift.
        let samples: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 + 0.5, i as f64)).collect();
        let w: Vec<f64> = windows(samples, 10.0, 5)
            .iter()
            .map(|w| median(w))
            .collect();
        assert_eq!(w, vec![0.5, 2.5, 4.5, 6.5, 8.5]);
        assert!((window_spread_pct(&w) - 8.0 / 4.5 * 100.0).abs() < 1e-9);
        // A completion stamped at the very end lands in the last window.
        assert_eq!(windows([(10.0, 1.0)], 10.0, 5)[4], vec![1.0]);
    }

    #[test]
    fn quietest_window_ignores_spoiled_and_empty_windows() {
        // Three quiet windows around 2.0, two disturbed, by p95 of each.
        let mut samples: Vec<(f64, f64)> = Vec::new();
        for window in 0..5 {
            for i in 0..100 {
                let value = if window % 2 == 1 {
                    9.0
                } else {
                    2.0 + (window * 100 + i) as f64 / 1e4
                };
                samples.push((window as f64 + i as f64 / 100.0, value));
            }
        }
        let split = windows(samples.clone(), 5.0, 5);
        let p95 = quietest_window(&split, true, |w| Some(percentile(w, 95.0)));
        assert!((2.009..2.010).contains(&p95), "{p95}");
        let whole: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(percentile(&whole, 95.0), 9.0);
        // Rates: the window that got most done.
        let busiest = quietest_window(&split, false, |w| {
            Some(w.iter().filter(|&&v| v < 5.0).count() as f64)
        });
        assert_eq!(busiest, 100.0);
        // Windows without a value are skipped, not counted as 0.
        let sparse = windows([(0.5, 4.0), (4.5, 6.0)], 5.0, 5);
        assert_eq!(
            quietest_window(&sparse, true, |w| (!w.is_empty()).then(|| median(w))),
            4.0
        );
        assert_eq!(
            quietest_window(&Vec::<Vec<f64>>::new(), true, |_| None),
            0.0
        );
    }
}
