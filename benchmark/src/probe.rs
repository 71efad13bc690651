//! The per-frame **probe iteration** of a traced run: one render/backward
//! iteration on a harness-owned arena against the session's live map at the
//! ground-truth pose, then one optimizer step — the same stage calls the
//! tracking and mapping loops make, one span each. It works on a clone of
//! the map: the session's own state is only read.

use crate::trace;
use rtgs::render::FrameArena;
use rtgs::runtime::Serial;
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{MapOptimizer, SlamConfig, SlamPipeline};

/// Counts a probe keeps beside its spans.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    pub iterations: u64,
    pub fragments: u64,
    pub visible: u64,
    pub live: u64,
}

/// Probe state of one session.
pub struct Probe {
    arena: FrameArena,
    pub counts: ProbeCounts,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            arena: FrameArena::new(),
            counts: ProbeCounts::default(),
        }
    }

    /// Bytes held by the probe arena: the working set of one iteration.
    pub fn arena_bytes(&self) -> usize {
        self.arena.high_water_bytes()
    }

    /// Runs one probe iteration for `frame`, which `pipeline` just processed.
    pub fn iteration(
        &mut self,
        pipeline: &SlamPipeline<'_>,
        dataset: &SyntheticDataset,
        config: &SlamConfig,
        frame: usize,
    ) {
        let _probe = trace::span("probe");
        // A clone, so the session's map and optimizer moments stay
        // untouched; mapping leaves shard bounds stale until the next
        // frame's tracking refreshes them, and the cull needs them fresh.
        let mut map = pipeline.scene().clone();
        map.refresh_bounds_with(&Serial);
        let scene = &map;
        let camera = &dataset.camera;
        let w2c = dataset.poses_c2w[frame].inverse();
        let observed = &dataset.frames[frame];
        let arena = &mut self.arena;
        {
            let _s = trace::span("render.shard.cull");
            arena.cull(scene, &w2c, camera, None, &Serial);
        }
        {
            let _s = trace::span("render.project.project");
            arena.project_visible(&w2c, camera, &Serial);
        }
        {
            let _s = trace::span("render.tiles.assign");
            arena.assign_tiles(camera, &Serial);
        }
        {
            let _s = trace::span("render.forward.render");
            arena.render_fused(camera, &Serial);
        }
        {
            let _s = trace::span("render.loss.loss");
            std::hint::black_box(arena.compute_loss(
                &observed.color,
                observed.depth.as_ref(),
                &config.tracking.loss,
            ));
        }
        {
            let _s = trace::span("render.backward.backward");
            arena.backward_visible_fused(camera, &w2c, &Serial);
        }
        self.counts.iterations += 1;
        self.counts.fragments += arena.output().stats.fragments_processed;
        self.counts.visible += arena.visible().ids.len() as u64;
        self.counts.live += scene.len() as u64;

        // The mapping loop's tail: one optimizer step, then the bounds
        // refresh the next iteration's cull would need.
        let mut optimizer = MapOptimizer::new(map.capacity(), config.map_lrs);
        {
            let _s = trace::span("slam.optimizer.step_visible");
            optimizer.step_visible(&mut map, &arena.visible().ids, &arena.backward().gaussians);
        }
        {
            let _s = trace::span("slam.map.refresh_bounds");
            map.refresh_bounds_with(&Serial);
        }
        std::hint::black_box(&map);
    }
}
