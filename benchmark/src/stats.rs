//! Order statistics and the seeded generator behind the arrival schedules.

/// Nearest-rank percentile of an ascending slice: the value at 1-based rank
/// `ceil(q * n)`. No interpolation, so every reported value was measured.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond the nearest-rank `q`
/// percentile — the rule that decides the highest percentile worth reporting.
pub fn supports_percentile(n: usize, q: f64) -> bool {
    n > 0 && n - ((q * n as f64).ceil() as usize).clamp(1, n) >= 10
}

/// Sorts a copy ascending (timings and counts here are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    nearest_rank(&sorted(values), q)
}

/// Median with the two middle values averaged for even counts (used for the
/// handful of per-session aggregates, where nearest-rank would bias low);
/// 0 when there are no values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Deterministic LCG (the constants of `experiments::loadgen`) for arrival
/// schedules: the same seed always offers the same traffic.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        )
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.95), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.95), 95.0);
        assert_eq!(nearest_rank(&hundred, 0.951), 96.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // ceil(0.95 * 199) = 190 leaves 9 beyond; 200 samples leave 10.
        assert!(!supports_percentile(199, 0.95));
        assert!(supports_percentile(200, 0.95));
        assert!(supports_percentile(240, 0.95));
        assert!(!supports_percentile(180, 0.95));
        // The median needs 20 samples; p99 needs 1000.
        assert!(!supports_percentile(19, 0.5));
        assert!(supports_percentile(20, 0.5));
        assert!(!supports_percentile(999, 0.99));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(0, 0.5));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lcg_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = Lcg::new(seed);
            (0..8).map(|_| rng.unit()).collect::<Vec<f64>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(3).iter().all(|&u| u > 0.0 && u <= 1.0));
    }
}
