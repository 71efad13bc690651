//! Fixed-bucket log-scale latency histograms with exact-rank percentile
//! extraction.
//!
//! The bucket layout is an HDR-lite scheme: values below `2^SUB_BITS` get one
//! bucket each (exact), and every octave above that is split into
//! `2^SUB_BITS` sub-buckets, bounding the relative quantization error at
//! `2^-SUB_BITS` (6.25% for `SUB_BITS = 4`). The full `u64` range fits in
//! `BUCKET_COUNT` buckets, so a histogram is a fixed-size array of atomic
//! counters: recording is two relaxed `fetch_add`s and never allocates, which
//! is what lets the steady-state render path keep its zero-allocation
//! contract with recording enabled.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution exponent: each octave is split into `2^SUB_BITS`
/// buckets (relative error ≤ 2^-SUB_BITS = 6.25%).
const SUB_BITS: u32 = 4;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Total number of buckets covering the full `u64` range.
const BUCKET_COUNT: usize = ((64 - SUB_BITS) as usize + 1) * SUB_COUNT as usize;

/// Maps a value to its bucket index. Exact below `2^SUB_BITS`, log-scale with
/// `2^SUB_BITS` sub-buckets per octave above.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros();
    let shift = octave - SUB_BITS;
    let sub = (value >> shift) - SUB_COUNT;
    ((octave - SUB_BITS + 1) as u64 * SUB_COUNT + sub) as usize
}

/// Lowest value mapping to `index` — the representative reported for any
/// percentile falling in that bucket (a deterministic underestimate of at
/// most the sub-bucket width).
#[inline]
fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_COUNT as usize {
        return index as u64;
    }
    let block = index as u64 / SUB_COUNT;
    let sub = index as u64 % SUB_COUNT;
    (SUB_COUNT + sub) << (block - 1) as u32
}

/// A concurrent latency histogram: fixed atomic buckets, lock-free recording.
///
/// All methods are safe to call from any thread; `record` is wait-free and
/// allocation-free.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKET_COUNT]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (one allocation, up front).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKET_COUNT]> = buckets
            .into_boxed_slice()
            .try_into()
            .unwrap_or_else(|_| unreachable!("BUCKET_COUNT-sized vec"));
        Self {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a plain (non-atomic) snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; BUCKET_COUNT];
        for (dst, src) in counts.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], suitable for merging (fleet-wide
/// aggregates) and percentile extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (zero observations).
    pub fn empty() -> Self {
        Self {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact-rank quantile: the bucket lower bound of the observation at rank
    /// `ceil(q · count)` (1-based), i.e. the smallest recorded bucket such
    /// that at least a `q` fraction of observations fall at or below it.
    /// `q` is clamped to `[0, 1]`; returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower_bound(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Adds another snapshot's observations into this one (fleet merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_indices_are_monotone_and_contiguous() {
        // Consecutive integers never skip a bucket (contiguity)...
        let mut last = bucket_index(0);
        for v in 1..1u64 << 14 {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            assert!(idx - last <= 1, "indices must be contiguous at {v}");
            last = idx;
        }
        // ...and sparse probes across the whole range stay monotone.
        let mut probes: Vec<u64> = Vec::new();
        for shift in 14..64 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift) + 1);
            probes.push((1u64 << shift) - 1);
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx >= last, "index must not decrease at {v}");
            assert!(idx < BUCKET_COUNT);
            last = idx;
        }
    }

    #[test]
    fn lower_bound_inverts_index() {
        for idx in 0..BUCKET_COUNT {
            let lb = bucket_lower_bound(idx);
            assert_eq!(bucket_index(lb), idx, "lower bound of bucket {idx}");
            if lb > 0 {
                assert!(bucket_index(lb - 1) == idx.saturating_sub(1));
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for shift in SUB_BITS..62 {
            let v = (1u64 << shift) + (1u64 << shift.saturating_sub(1)) / 3;
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v);
            let err = (v - lb) as f64 / v as f64;
            assert!(err <= 1.0 / SUB_COUNT as f64, "error {err} at {v}");
        }
    }

    #[test]
    fn quantiles_are_exact_for_small_values() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 16);
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.p50(), 7);
        assert_eq!(s.quantile(1.0), 15);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 15);
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let h = Histogram::new();
        // 990 observations at 1 µs, 9 at 1 ms, 1 at 1 s.
        for _ in 0..990 {
            h.record(1_000);
        }
        for _ in 0..9 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.p50();
        assert!((937..=1_000).contains(&p50), "p50 {p50}");
        let p99 = s.p99(); // rank 990 → last of the 1 µs cohort
        assert!((937..=1_000).contains(&p99), "p99 {p99}");
        let p999 = s.p999(); // rank 999 → the 1 ms cohort
        assert!((900_000..=1_000_000).contains(&p999), "p999 {p999}");
        let top = s.quantile(1.0); // rank 1000 → the 1 s observation's bucket
        assert!((900_000_000..=1_000_000_000).contains(&top), "q1.0 {top}");
        assert_eq!(s.max(), 1_000_000_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for v in [3u64, 17, 900, 1_000_000, 12] {
            a.record(v);
            combined.record(v);
        }
        for v in [5u64, 40_000, 7] {
            b.record(v);
            combined.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s, HistogramSnapshot::empty());
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), u64::MAX);
        assert!(s.quantile(1.0) >= s.quantile(0.0));
    }
}
