//! Order statistics over the samples a run collects.

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sorts `values` ascending (NaN-free input) and returns the copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of unsorted samples; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Mean of the middle half of the samples: deaf to outliers like a median,
/// but it averages, so samples that come in coarse steps (CPU times of
/// reaped children tick in ms) still give a fine-grained result.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = &v[v.len() / 4..v.len() - v.len() / 4];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Cuts a phase into `segments` equal-count pieces and returns each
/// piece's completion rate in ops per second. `done_ns[i]` is when op `i`
/// completed, in ns since the phase started; ops that do not fill the last
/// segment are left out, so every rate covers the same number of ops.
pub fn segment_rates(done_ns: &[u64], segments: usize) -> Vec<f64> {
    let per = done_ns.len() / segments.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut rates = Vec::with_capacity(segments);
    let mut prev_end = 0u64;
    for seg in 0..segments {
        let end = done_ns[(seg + 1) * per - 1];
        let span_ns = end.saturating_sub(prev_end).max(1);
        rates.push(per as f64 * 1e9 / span_ns as f64);
        prev_end = end;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0); // rank round(0.5 * 99) = 50
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[9.0, 1.0, 1000.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_both_tails_and_averages_the_rest() {
        // Middle half of 1..=8 is 3,4,5,6; the outlier does not count.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 800.0]), 4.5);
        // Quantized samples: the median would read 11, the truth is nearer 11.5.
        assert_eq!(interquartile_mean(&[11.0, 11.0, 12.0, 12.0]), 11.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn segment_rates_are_equal_count_and_robust_to_one_stall() {
        // 40 ops at 1 ms each, except op 17 which stalls for 100 ms.
        let mut t = 0u64;
        let done: Vec<u64> = (0..40)
            .map(|i| {
                t += if i == 17 { 100_000_000 } else { 1_000_000 };
                t
            })
            .collect();
        let rates = segment_rates(&done, 20);
        assert_eq!(rates.len(), 20);
        assert!((median(&rates) - 1000.0).abs() < 1e-6, "one stalled segment must not move it");
        assert!(rates[8] < 20.0, "the stalled segment itself is slow");
    }

    #[test]
    fn segment_rates_drop_the_ragged_tail() {
        let done: Vec<u64> = (1..=10).map(|i| i * 1_000).collect();
        // 10 ops in 3 segments: 3 per segment, the 10th op is left out.
        assert_eq!(segment_rates(&done, 3).len(), 3);
        assert!(segment_rates(&done, 11).is_empty(), "fewer ops than segments");
    }
}
