//! Re-implemented pruning baselines the paper compares against
//! (Sec. 6.1–6.2, Tab. 6, Fig. 13a).
//!
//! Each baseline reproduces the *selection rule* and *cost profile* of the
//! original method on our Gaussian model:
//!
//! - [`TamingPruner`] — Taming 3DGS \[29\]: importance from gradient
//!   statistics collected over a long warm-up horizon. Effective for
//!   offline training; with SLAM's 15–100 iterations per frame the scores
//!   never converge, which is exactly the weakness Tab. 6 exposes.
//! - [`LightGaussianPruner`] — LightGaussian \[7\]: global one-shot
//!   importance from volume × opacity × hit-count, requiring a dedicated
//!   scoring pass over all training views (extra cost, better quality).
//! - [`FlashGsPruner`] — FlashGS \[8\]-style precise selection: hits
//!   weighted by gradient magnitude (position + color), so the Gaussians
//!   that move the image most rank highest.
//!
//! All baselines implement [`Pruner`] and plug into the SLAM pipeline
//! through [`BaselineExtension`]. Like the RTGS pruner, their per-Gaussian
//! statistics are keyed by the sharded map's **stable IDs**: tracking
//! iterations deliver frame-local gradients plus the ID map, observations
//! scatter through it, and selection emits a capacity-sized keep-mask that
//! the pipeline applies by tombstoning — no statistic ever has to survive a
//! reindexing, because there is none.

use rtgs_render::{GaussianGrad, ShardedScene};
use rtgs_slam::{IterationArtifacts, PipelineExtension};

/// A Gaussian-pruning baseline: observes training, then selects which
/// Gaussians to keep.
pub trait Pruner {
    /// Observes one optimization iteration: `grads[k]` belongs to the
    /// Gaussian with stable ID `ids[k]` (the frame's visible working set).
    fn observe(&mut self, ids: &[u32], grads: &[GaussianGrad]);

    /// Returns the keep-mask (one entry per stable ID, `map.capacity()`
    /// long) that prunes `ratio` of the live Gaussians (0.0–1.0), or
    /// `None` if the method has not gathered enough evidence yet.
    fn select(&mut self, map: &ShardedScene, ratio: f32) -> Option<Vec<bool>>;

    /// Method name.
    fn name(&self) -> &'static str;
}

/// Grows an ID-keyed statistic buffer to cover every observed ID.
fn ensure_len(buf: &mut Vec<f32>, ids: &[u32]) {
    if let Some(&max_id) = ids.iter().max() {
        if buf.len() <= max_id as usize {
            buf.resize(max_id as usize + 1, 0.0);
        }
    }
}

/// Taming-3DGS-style pruner: accumulates gradient-change statistics and
/// refuses to act before its warm-up horizon (500 iterations in the paper's
/// description) has elapsed.
#[derive(Debug, Clone)]
pub struct TamingPruner {
    /// Iterations required before scores are considered converged.
    pub warmup_iterations: usize,
    seen: usize,
    scores: Vec<f32>,
    prev_scores: Vec<f32>,
}

impl TamingPruner {
    /// Creates the pruner with the paper-reported 500-iteration warm-up.
    pub fn new() -> Self {
        Self::with_warmup(500)
    }

    /// Creates the pruner with a custom warm-up horizon.
    pub fn with_warmup(warmup_iterations: usize) -> Self {
        Self {
            warmup_iterations,
            seen: 0,
            scores: Vec::new(),
            prev_scores: Vec::new(),
        }
    }
}

impl Default for TamingPruner {
    fn default() -> Self {
        Self::new()
    }
}

impl Pruner for TamingPruner {
    fn observe(&mut self, ids: &[u32], grads: &[GaussianGrad]) {
        self.seen += 1;
        ensure_len(&mut self.scores, ids);
        ensure_len(&mut self.prev_scores, ids);
        // Gradient-change statistic: |g_t| blended with the previous
        // estimate; Taming 3DGS predicts importance from how scores
        // evolve. The decay applies to *every* tracked Gaussian — an
        // invisible one contributes a zero gradient, exactly as in the
        // flat-map formulation — so the ranking cannot depend on which
        // shard a Gaussian happens to sit in. This full-map pass is the
        // method's genuine cost profile (the weakness Tab. 6 charges it
        // for), not an artifact of our store.
        for (prev, score) in self.prev_scores.iter_mut().zip(self.scores.iter_mut()) {
            *prev = *score;
            *score *= 0.99;
        }
        for (&id, g) in ids.iter().zip(grads.iter()) {
            let s = g.position.norm() + g.cov_frobenius;
            self.scores[id as usize] += 0.01 * s;
        }
    }

    fn select(&mut self, map: &ShardedScene, ratio: f32) -> Option<Vec<bool>> {
        if self.seen < self.warmup_iterations {
            // Scores have not converged: acting now would prune the wrong
            // Gaussians (the paper's footnote 5).
            return None;
        }
        self.scores.resize(map.capacity(), 0.0);
        Some(keep_top_live(
            map,
            |id| self.scores[id as usize],
            1.0 - ratio,
        ))
    }

    fn name(&self) -> &'static str {
        "Taming 3DGS"
    }
}

/// LightGaussian-style pruner: global importance = opacity × volume ×
/// observed hit count, evaluated in a dedicated pass.
#[derive(Debug, Clone, Default)]
pub struct LightGaussianPruner {
    hits: Vec<f32>,
}

impl LightGaussianPruner {
    /// Creates an empty pruner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pruner for LightGaussianPruner {
    fn observe(&mut self, ids: &[u32], grads: &[GaussianGrad]) {
        ensure_len(&mut self.hits, ids);
        for (&id, g) in ids.iter().zip(grads.iter()) {
            // A Gaussian that received gradient was rendered (hit).
            if g.color.norm_squared() > 0.0 || g.opacity != 0.0 {
                self.hits[id as usize] += 1.0;
            }
        }
    }

    fn select(&mut self, map: &ShardedScene, ratio: f32) -> Option<Vec<bool>> {
        self.hits.resize(map.capacity(), 0.0);
        let hits = &self.hits;
        Some(keep_top_live(
            map,
            |id| {
                let g = map.gaussian(id);
                let s = g.scale();
                let volume = s.x * s.y * s.z;
                g.opacity_activated() * volume.cbrt() * (1.0 + hits[id as usize])
            },
            1.0 - ratio,
        ))
    }

    fn name(&self) -> &'static str {
        "LightGaussian"
    }
}

/// FlashGS-style pruner: hit counts weighted by each hit's gradient
/// magnitude (position + color), the most precise selection of the three.
#[derive(Debug, Clone, Default)]
pub struct FlashGsPruner {
    weighted_hits: Vec<f32>,
}

impl FlashGsPruner {
    /// Creates an empty pruner.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Pruner for FlashGsPruner {
    fn observe(&mut self, ids: &[u32], grads: &[GaussianGrad]) {
        ensure_len(&mut self.weighted_hits, ids);
        for (&id, g) in ids.iter().zip(grads.iter()) {
            let mag = g.position.norm() + g.color.norm();
            if mag > 0.0 {
                self.weighted_hits[id as usize] += 1.0 + mag;
            }
        }
    }

    fn select(&mut self, map: &ShardedScene, ratio: f32) -> Option<Vec<bool>> {
        self.weighted_hits.resize(map.capacity(), 0.0);
        let hits = &self.weighted_hits;
        Some(keep_top_live(map, |id| hits[id as usize], 1.0 - ratio))
    }

    fn name(&self) -> &'static str {
        "FlashGS"
    }
}

/// Keeps the top `keep_fraction` of *live* Gaussians by score. The
/// returned mask is `map.capacity()` long; tombstoned IDs read `true`
/// (nothing to remove there).
fn keep_top_live(map: &ShardedScene, score: impl Fn(u32) -> f32, keep_fraction: f32) -> Vec<bool> {
    let mut scored: Vec<(f32, u32)> = map.live_ids().map(|id| (score(id), id)).collect();
    let keep_n = ((scored.len() as f32 * keep_fraction).round() as usize).min(scored.len());
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut keep = vec![true; map.capacity()];
    for &(_, id) in scored.iter().skip(keep_n) {
        keep[id as usize] = false;
    }
    keep
}

/// Adapts any [`Pruner`] into a SLAM pipeline extension that observes
/// tracking iterations and prunes at the end of each frame.
pub struct BaselineExtension<P: Pruner> {
    pruner: P,
    /// Target prune ratio applied whenever the method is ready.
    pub prune_ratio: f32,
    pruned_once: bool,
}

impl<P: Pruner> BaselineExtension<P> {
    /// Wraps a pruner with a target ratio.
    pub fn new(pruner: P, prune_ratio: f32) -> Self {
        Self {
            pruner,
            prune_ratio,
            pruned_once: false,
        }
    }

    /// Access to the wrapped pruner.
    pub fn pruner(&self) -> &P {
        &self.pruner
    }
}

impl<P: Pruner> PipelineExtension for BaselineExtension<P> {
    fn after_tracking_iteration(&mut self, artifacts: &IterationArtifacts<'_>, _mask: &mut [bool]) {
        self.pruner
            .observe(artifacts.visible_ids, &artifacts.grads.gaussians);
    }

    fn end_of_frame(
        &mut self,
        map: &ShardedScene,
        _mask: &[bool],
        is_keyframe: bool,
    ) -> Option<Vec<bool>> {
        if is_keyframe || self.pruned_once {
            return None;
        }
        let keep = self.pruner.select(map, self.prune_ratio)?;
        self.pruned_once = true;
        Some(keep)
    }

    fn name(&self) -> &'static str {
        "baseline-pruner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::{Quat, Vec3};
    use rtgs_render::Gaussian3d;

    fn map_of(n: usize) -> ShardedScene {
        let mut map = ShardedScene::new(1.0);
        for i in 0..n {
            map.insert(Gaussian3d::from_activated(
                Vec3::new(i as f32 * 0.1, 0.0, 2.0),
                Vec3::splat(0.05 + 0.01 * (i % 5) as f32),
                Quat::IDENTITY,
                0.3 + 0.05 * (i % 10) as f32,
                Vec3::splat(0.5),
            ));
        }
        map
    }

    fn ids_of(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    fn grads_with_signal(n: usize, strong: &[usize]) -> Vec<GaussianGrad> {
        let mut grads = vec![GaussianGrad::default(); n];
        for &i in strong {
            grads[i].position = Vec3::splat(1.0);
            grads[i].color = Vec3::splat(0.5);
            grads[i].cov_frobenius = 1.0;
            grads[i].opacity = 0.5;
        }
        grads
    }

    #[test]
    fn taming_refuses_before_warmup() {
        let mut p = TamingPruner::with_warmup(100);
        let map = map_of(10);
        p.observe(&ids_of(10), &grads_with_signal(10, &[0, 1]));
        assert!(p.select(&map, 0.5).is_none());
        assert_eq!(p.seen, 1);
    }

    #[test]
    fn taming_acts_after_warmup() {
        let mut p = TamingPruner::with_warmup(5);
        let map = map_of(10);
        for _ in 0..6 {
            p.observe(&ids_of(10), &grads_with_signal(10, &[0, 1, 2]));
        }
        let keep = p.select(&map, 0.5).unwrap();
        assert_eq!(keep.iter().filter(|&&k| !k).count(), 5);
        // The strong-gradient Gaussians survive.
        assert!(keep[0] && keep[1] && keep[2]);
    }

    #[test]
    fn lightgaussian_prefers_hit_and_opaque() {
        let mut p = LightGaussianPruner::new();
        let map = map_of(10);
        for _ in 0..3 {
            p.observe(&ids_of(10), &grads_with_signal(10, &[7, 8, 9]));
        }
        let keep = p.select(&map, 0.7).unwrap();
        assert_eq!(keep.iter().filter(|&&k| k).count(), 3);
        assert!(keep[7] && keep[8] && keep[9]);
    }

    #[test]
    fn flashgs_prunes_to_requested_ratio() {
        let mut p = FlashGsPruner::new();
        let map = map_of(20);
        p.observe(&ids_of(20), &grads_with_signal(20, &[1, 3, 5, 7]));
        let keep = p.select(&map, 0.5).unwrap();
        assert_eq!(keep.iter().filter(|&&k| k).count(), 10);
        assert!(keep[1] && keep[3] && keep[5] && keep[7]);
    }

    /// Frame-local observations scattered through a sparse visible-ID set
    /// must land on the right stable IDs (the post-shard contract).
    #[test]
    fn sparse_visible_set_scatters_by_id() {
        let mut p = FlashGsPruner::new();
        let map = map_of(10);
        // Only IDs 4 and 9 visible this iteration, both with signal.
        let ids = vec![4u32, 9u32];
        p.observe(&ids, &grads_with_signal(2, &[0, 1]));
        let keep = p.select(&map, 0.8).unwrap();
        assert_eq!(keep.iter().filter(|&&k| k).count(), 2);
        assert!(keep[4] && keep[9]);
    }

    /// Tombstoned IDs stay out of the ranking and read `true` in the mask.
    #[test]
    fn selection_ignores_tombstoned_ids() {
        let mut p = FlashGsPruner::new();
        let mut map = map_of(10);
        p.observe(&ids_of(10), &grads_with_signal(10, &[0, 1, 2, 3]));
        map.tombstone(0);
        map.tombstone(5);
        let keep = p.select(&map, 0.5).unwrap();
        assert_eq!(keep.len(), map.capacity());
        assert!(keep[0] && keep[5], "dead IDs are not selected for removal");
        // Half of the 8 live Gaussians are marked for removal.
        let removed_live = keep
            .iter()
            .enumerate()
            .filter(|&(id, &k)| !k && map.is_live(id as u32))
            .count();
        assert_eq!(removed_live, 4);
    }

    #[test]
    fn keep_top_live_handles_edge_ratios() {
        let map = map_of(3);
        let scores = [3.0f32, 1.0, 2.0];
        let all = keep_top_live(&map, |id| scores[id as usize], 1.0);
        assert_eq!(all, vec![true, true, true]);
        let none = keep_top_live(&map, |id| scores[id as usize], 0.0);
        assert_eq!(none, vec![false, false, false]);
        let third = keep_top_live(&map, |id| scores[id as usize], 1.0 / 3.0);
        assert_eq!(third, vec![true, false, false]);
    }

    #[test]
    fn baseline_extension_prunes_once() {
        use rtgs_scene::{DatasetProfile, SyntheticDataset};
        use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 4);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(4);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        let base = SlamPipeline::new(cfg, &ds).run();
        let ext = BaselineExtension::new(LightGaussianPruner::new(), 0.5);
        let pruned = SlamPipeline::with_extension(cfg, &ds, Box::new(ext)).run();
        assert!(pruned.frames.last().unwrap().gaussians < base.frames.last().unwrap().gaussians);
    }
}
