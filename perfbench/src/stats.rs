//! Sample statistics the report is built from: nearest-rank
//! percentiles, the tail-percentile rule, and the geometric mean.

/// Percentiles the tail rule may pick, lowest first. Each rung above
/// p50 holds for a 5× range of sample counts (p75: 40–199, p95:
/// 200–999), so a run on a faster or slower host keeps reporting the
/// same percentile; with a p90 rung, check-apps' and check-synth's
/// 45–95 units per run would flip between p75 and p90.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    // In integer per-mille, so p99.9 of 10,000 is rank 9,990 exactly.
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of `samples` (need not be sorted).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(p, s.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|&p| n >= 1 && n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(values.iter().all(|&v| v > 0.0), "geometric mean needs positive values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median wall time of `reps` calls of `f`, in ms: a probe of a call
/// the program makes without timing it.
pub fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Median, tail percentile and sample count of one latency series.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub samples: usize,
}

impl Latency {
    /// Summarises `samples`; `None` when there are too few for a tail.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let tail_pct = tail_percentile(samples.len())?;
        Some(Self {
            p50: median(samples),
            tail_pct,
            tail: percentile(samples, tail_pct),
            samples: samples.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(199), Some(75.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The rule, checked directly for every n in range.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if let Some(&next) = TAIL_LADDER.iter().find(|&&q| q > p) {
                assert!(n - rank(next, n) < TAIL_MIN_BEYOND, "n={n} skipped p{next}");
            }
        }
    }

    #[test]
    fn tail_value_is_the_nearest_rank_sample() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let l = Latency::of(&samples).unwrap();
        assert_eq!((l.p50, l.tail_pct, l.tail, l.samples), (100.0, 95.0, 190.0, 200));
        let beyond = samples.iter().filter(|&&v| v > l.tail).count();
        assert_eq!(beyond, 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }
}
