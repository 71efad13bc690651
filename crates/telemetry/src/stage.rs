//! Pipeline-stage identifiers and the per-stage timer behind the paper's
//! Fig. 3 latency breakdown.
//!
//! The render/SLAM crates account per-iteration stage time into a
//! [`StageTimings`] (plain `u64` adds on the hot path) and emit one span per
//! stage with the *same* measured interval, so the span-derived breakdown
//! and the accumulator agree exactly.

use std::time::Duration;

/// The five paper pipeline steps plus "other" (loss, optimizer, bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum StageId {
    /// Step ❶ Preprocessing (projection + tile intersection setup).
    Preprocess = 0,
    /// Step ❷ Sorting (tile list construction + depth sort).
    Sorting = 1,
    /// Step ❸ Rendering (alpha compute + blend).
    Render = 2,
    /// Step ❹ Rendering BP.
    RenderBp = 3,
    /// Step ❺ Preprocessing BP (incl. pose/parameter updates).
    PreprocessBp = 4,
    /// Everything else (loss, optimizer steps, bookkeeping).
    Other = 5,
}

/// Number of stages tracked by [`StageTimings`].
pub const STAGE_COUNT: usize = 6;

impl StageId {
    /// All stages, in accumulator order.
    const ALL: [StageId; STAGE_COUNT] = [
        StageId::Preprocess,
        StageId::Sorting,
        StageId::Render,
        StageId::RenderBp,
        StageId::PreprocessBp,
        StageId::Other,
    ];

    /// The span name recorded for this stage (`"stage.<name>"`).
    pub fn span_name(self) -> &'static str {
        match self {
            StageId::Preprocess => "stage.preprocess",
            StageId::Sorting => "stage.sorting",
            StageId::Render => "stage.render",
            StageId::RenderBp => "stage.render_bp",
            StageId::PreprocessBp => "stage.preprocess_bp",
            StageId::Other => "stage.other",
        }
    }

    /// Maps a stage span name back to its stage (export-side parsing).
    pub fn from_span_name(name: &str) -> Option<StageId> {
        StageId::ALL.into_iter().find(|s| s.span_name() == name)
    }
}

/// Accumulated wall-clock nanoseconds per pipeline step (Steps ❶–❺ plus
/// "other"). Adding a sample is one array add, no `Duration` arithmetic, no
/// allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Nanoseconds per stage, indexed by [`StageId`] discriminant.
    pub nanos: [u64; STAGE_COUNT],
}

impl StageTimings {
    /// Adds `ns` to `stage`.
    #[inline]
    pub fn add(&mut self, stage: StageId, ns: u64) {
        self.nanos[stage as usize] += ns;
    }

    /// Nanoseconds accumulated for `stage`.
    #[inline]
    pub fn get(&self, stage: StageId) -> u64 {
        self.nanos[stage as usize]
    }

    /// Adds another accumulator's times into this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        for (dst, src) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *dst += src;
        }
    }

    /// Sum over all stages.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Per-stage shares of the total, in [`StageId`] order
    /// `[preprocess, sorting, render, render_bp, preprocess_bp, other]`.
    /// Returns zeros when nothing was recorded.
    pub fn shares(&self) -> [f64; STAGE_COUNT] {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return [0.0; STAGE_COUNT];
        }
        self.nanos
            .map(|ns| Duration::from_nanos(ns).as_secs_f64() / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get_roundtrip() {
        let mut s = StageTimings::default();
        s.add(StageId::Render, 100);
        s.add(StageId::Render, 50);
        s.add(StageId::Other, 7);
        assert_eq!(s.get(StageId::Render), 150);
        assert_eq!(s.get(StageId::Other), 7);
        assert_eq!(s.total(), Duration::from_nanos(157));
    }

    #[test]
    fn total_sums_stages() {
        let t = StageTimings {
            nanos: [1, 22, 333, 4_444, 55_555, 666_666_666_666],
        };
        assert_eq!(t.total(), Duration::from_nanos(666_666_727_021));
    }

    #[test]
    fn shares_sum_to_one() {
        let t = StageTimings {
            nanos: [0, 0, 30_000_000, 50_000_000, 0, 20_000_000],
        };
        let s: f64 = t.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert_eq!(t.shares()[StageId::RenderBp as usize], 0.5);
    }

    #[test]
    fn empty_shares_are_zero() {
        assert_eq!(StageTimings::default().shares(), [0.0; STAGE_COUNT]);
    }

    #[test]
    fn accumulate_adds() {
        let mut a = StageTimings::default();
        a.add(StageId::Render, 10);
        let mut b = StageTimings::default();
        b.add(StageId::Render, 5);
        b.add(StageId::Sorting, 1);
        a.accumulate(&b);
        assert_eq!(a.get(StageId::Render), 15);
        assert_eq!(a.get(StageId::Sorting), 1);
    }

    #[test]
    fn accumulate_is_associative() {
        let a = StageTimings {
            nanos: [1, 2, 3, 4, 5, 6],
        };
        let b = StageTimings {
            nanos: [10, 20, 30, 40, 50, 60],
        };
        let c = StageTimings {
            nanos: [100, 200, 300, 400, 500, 600],
        };
        let mut ab = a;
        ab.accumulate(&b);
        let mut ab_c = ab;
        ab_c.accumulate(&c);
        let mut bc = b;
        bc.accumulate(&c);
        let mut a_bc = a;
        a_bc.accumulate(&bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn span_names_roundtrip() {
        for stage in StageId::ALL {
            assert_eq!(StageId::from_span_name(stage.span_name()), Some(stage));
        }
        assert_eq!(StageId::from_span_name("stage.unknown"), None);
    }
}
