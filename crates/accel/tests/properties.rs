//! Property-based tests on the hardware cycle models.

use proptest::prelude::*;
use rtgs_accel::{gpu_iteration, plugin_iteration, Aggregation, GpuSpec, PluginConfig, Scheduling};
use rtgs_render::{WorkloadTrace, TILE_SIZE};

fn arb_trace() -> impl Strategy<Value = WorkloadTrace> {
    (
        2usize..5,
        2usize..4,
        prop::collection::vec(0u32..80, 16 * 16 * 20),
        4usize..64,
    )
        .prop_map(|(tx, ty, mut workloads, gaussians_per_tile)| {
            let w = tx * TILE_SIZE;
            let h = ty * TILE_SIZE;
            workloads.resize(w * h, 0);
            let total: u64 = workloads.iter().map(|&v| v as u64).sum();
            let tiles = tx * ty;
            WorkloadTrace {
                width: w,
                height: h,
                pixel_workloads: workloads,
                tiles_x: tx,
                tiles_y: ty,
                tile_gaussian_ids: vec![(0..gaussians_per_tile as u32).collect(); tiles],
                fragments_blended: total,
                visible_gaussians: gaussians_per_tile * tiles,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduling dominance chain: ideal <= paired <= streaming <= static
    /// forward cycles on ANY workload (each scheme strictly generalizes the
    /// previous one's freedom).
    #[test]
    fn scheduling_dominance(trace in arb_trace()) {
        let mk = |s| PluginConfig { scheduling: s, ..PluginConfig::rtgs() };
        let stat = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::Static)).forward;
        let stream = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::Streaming)).forward;
        let paired = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::StreamingPaired)).forward;
        let ideal = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::Ideal)).forward;
        prop_assert!(stream <= stat, "streaming {stream} > static {stat}");
        prop_assert!(ideal <= paired, "ideal {ideal} > paired {paired}");
        prop_assert!(ideal <= stream, "ideal {ideal} > streaming {stream}");
    }

    /// The R&B buffer never hurts: backward cycles with reuse are at most
    /// those without, on any workload.
    #[test]
    fn rb_buffer_never_hurts(trace in arb_trace()) {
        let with = plugin_iteration(&trace, None, &PluginConfig::rtgs()).backward;
        let mut cfg = PluginConfig::rtgs();
        cfg.rb_buffer = false;
        let without = plugin_iteration(&trace, None, &cfg).backward;
        prop_assert!(with <= without);
    }

    /// GMU aggregation never exceeds atomic aggregation.
    #[test]
    fn gmu_never_slower_than_atomics(trace in arb_trace()) {
        let gmu = plugin_iteration(&trace, None, &PluginConfig::rtgs()).aggregation;
        let mut cfg = PluginConfig::rtgs();
        cfg.aggregation = Aggregation::Atomic;
        let atomic = plugin_iteration(&trace, None, &cfg).aggregation;
        prop_assert!(gmu <= atomic.max(64), "gmu {gmu} vs atomic {atomic}");
    }

    /// GPU cycle counts are monotone in workload: doubling every pixel's
    /// fragment count cannot reduce any stage.
    #[test]
    fn gpu_model_is_monotone(trace in arb_trace()) {
        let mut heavier = trace.clone();
        for w in &mut heavier.pixel_workloads {
            *w *= 2;
        }
        heavier.fragments_blended = trace.fragments_blended * 2;
        let a = gpu_iteration(&trace, &GpuSpec::onx(), false);
        let b = gpu_iteration(&heavier, &GpuSpec::onx(), false);
        prop_assert!(b.forward >= a.forward);
        prop_assert!(b.backward >= a.backward);
        prop_assert!(b.aggregation >= a.aggregation);
    }

    /// DISTWAR only changes the aggregation stage.
    #[test]
    fn distwar_touches_only_aggregation(trace in arb_trace()) {
        let base = gpu_iteration(&trace, &GpuSpec::onx(), false);
        let dw = gpu_iteration(&trace, &GpuSpec::onx(), true);
        prop_assert_eq!(base.forward, dw.forward);
        prop_assert_eq!(base.backward, dw.backward);
        prop_assert_eq!(base.preprocess, dw.preprocess);
        prop_assert_eq!(base.sorting, dw.sorting);
        prop_assert!(dw.aggregation <= base.aggregation);
    }

    /// Stale pairing (previous-iteration order) is never catastrophically
    /// worse than fresh pairing on the SAME distribution — when prev ==
    /// now, pairing is optimal heavy-light matching.
    #[test]
    fn self_pairing_beats_or_matches_no_pairing(trace in arb_trace()) {
        let mk = |s| PluginConfig { scheduling: s, ..PluginConfig::rtgs() };
        let paired = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::StreamingPaired)).forward;
        let unpaired = plugin_iteration(&trace, Some(&trace), &mk(Scheduling::Streaming)).forward;
        // Pairing halves within-pair serialization; it can cost at most the
        // fill-latency difference.
        prop_assert!(paired <= unpaired + 64, "paired {paired} vs unpaired {unpaired}");
    }
}
