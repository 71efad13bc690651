//! A small sliding window over the most recent observations, for *control*
//! decisions rather than reporting.
//!
//! The registry's [`Histogram`](crate::Histogram) accumulates over a whole
//! run — exactly wrong for load-shedding, where the question is "what is the
//! p99 of the last N frames *right now*". [`RecentWindow`] keeps the latest
//! N samples in the crate's overwrite-on-wrap ring and extracts exact
//! quantiles from a scratch sort: both buffers are allocated once at
//! construction, so recording and querying stay allocation-free in the
//! steady state. It is single-owner (`&mut`), which matches its use inside a
//! session's step loop.

use crate::ring::Ring;

/// Fixed-size ring of the most recent `u64` samples with exact quantiles.
#[derive(Debug, Clone)]
pub struct RecentWindow {
    samples: Ring<u64>,
    /// Pre-sized sort buffer reused by every quantile query.
    scratch: Vec<u64>,
}

impl RecentWindow {
    /// Window over the last `capacity` samples (`capacity` is clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            samples: Ring::with_capacity(capacity, 0),
            scratch: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Records one sample, evicting the oldest once the window is full.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
    }

    /// Exact quantile (`q` in `[0, 1]`) over the windowed samples by
    /// nearest-rank; returns 0 on an empty window. Takes `&mut self` for the
    /// reusable scratch sort — no allocation after construction.
    pub fn quantile(&mut self, q: f64) -> u64 {
        let live = self.samples.live();
        if live.is_empty() {
            return 0;
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(live);
        self.scratch.sort_unstable();
        let len = live.len();
        let rank = ((q.clamp(0.0, 1.0) * len as f64).ceil() as usize).clamp(1, len) - 1;
        self.scratch[rank]
    }

    /// Nearest-rank p99 of the window (0 when empty).
    pub fn p99(&mut self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_reports_zero() {
        let mut w = RecentWindow::new(8);
        assert_eq!(w.p99(), 0);
        assert_eq!(w.quantile(0.5), 0);
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut w = RecentWindow::new(100);
        for v in 1..=100 {
            w.record(v);
        }
        assert_eq!(w.quantile(0.5), 50);
        assert_eq!(w.p99(), 99);
        assert_eq!(w.quantile(1.0), 100);
        assert_eq!(w.quantile(0.0), 1);
    }

    #[test]
    fn window_slides_over_old_samples() {
        let mut w = RecentWindow::new(4);
        for v in [1_000, 1_000, 1_000, 1_000] {
            w.record(v);
        }
        assert_eq!(w.p99(), 1_000);
        // Four fresh fast samples push the slow ones out entirely.
        for v in [10, 10, 10, 10] {
            w.record(v);
        }
        assert_eq!(w.p99(), 10);
        assert_eq!(w.quantile(0.0), 10);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut w = RecentWindow::new(0);
        w.record(7);
        assert_eq!(w.p99(), 7);
    }
}
