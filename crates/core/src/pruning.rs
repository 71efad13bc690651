//! Adaptive Gaussian pruning (paper Sec. 4.1).
//!
//! Reuses the gradients already computed by tracking backpropagation to
//! score each Gaussian (Eq. 7), masks low-importance Gaussians over a
//! dynamically adapted interval `K` (mask-prune), and removes them
//! permanently at the end of non-keyframes. The interval adapts to the
//! tile–Gaussian intersection change ratio: over 5% change halves `K`,
//! otherwise `K` doubles.
//!
//! Scores are read only at a pruning point, and only that frame's:
//! [`AdaptivePruner::begin_frame`] zeroes them on every frame's first
//! iteration. So a tracking trial's per-Gaussian gradients matter only if a
//! pruning point of the same frame follows it, and
//! [`AdaptivePruner::reads_gradients`] tells the tracker when that can
//! still happen; on every other trial tracking runs the pose-only backward
//! (and none on the stopping trial).
//!
//! The count towards `K` restarts on every frame, and `K` adapts only at a
//! pruning point. Once `K` exceeds the tracker's per-frame trial cap
//! ([`rtgs_slam::TrackingConfig::iterations`], 15 for MonoGS), no frame
//! runs enough trials to reach a pruning point, so none fires again and
//! `K` stays where it is: pruning happens in a session's first few frames
//! only, and from then on no trial's gradients are read.

use rtgs_render::TileAssignment;
use rtgs_slam::IterationArtifacts;

/// Configuration of the adaptive pruning step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruningConfig {
    /// Weight `λ` between position and covariance gradient norms in the
    /// importance score (Eq. 7). Paper default: 0.8.
    pub lambda: f32,
    /// Initial pruning interval `K₀` in iterations. Paper default: 5.
    pub initial_interval: usize,
    /// Fraction of the *active* Gaussians masked at each pruning point.
    pub prune_step_fraction: f32,
    /// Hard cap on the cumulative pruned fraction of the map. The paper
    /// caps at 50% (Fig. 14a: ATE rises sharply beyond).
    pub max_prune_ratio: f32,
    /// Tile-intersection change ratio above which the interval halves
    /// (below it, doubles). Paper default: 5%.
    pub change_ratio_threshold: f32,
}

impl Default for PruningConfig {
    fn default() -> Self {
        Self {
            lambda: 0.8,
            initial_interval: 5,
            prune_step_fraction: 0.15,
            max_prune_ratio: 0.5,
            change_ratio_threshold: 0.05,
        }
    }
}

/// State of the adaptive pruning across one SLAM run.
#[derive(Debug, Clone)]
pub struct AdaptivePruner {
    config: PruningConfig,
    /// Accumulated importance per Gaussian within the current frame.
    scores: Vec<f32>,
    /// Gaussians masked (pending permanent removal) this frame.
    masked_this_frame: Vec<bool>,
    /// Current interval K (iterations between pruning points).
    interval: usize,
    /// Iterations since the last pruning point.
    since_prune: usize,
    /// Tile assignment snapshot at the last pruning point.
    tiles_snapshot: Option<TileAssignment>,
    /// Gaussians permanently removed over the run (counts against the
    /// `max_prune_ratio` cap).
    cumulative_pruned: usize,
    /// Baseline map size for the cumulative cap.
    baseline_size: usize,
}

impl AdaptivePruner {
    /// Creates a pruner for a scene of `n` Gaussians.
    pub fn new(config: PruningConfig, n: usize) -> Self {
        Self {
            config,
            scores: vec![0.0; n],
            masked_this_frame: vec![false; n],
            interval: config.initial_interval.max(1),
            since_prune: 0,
            tiles_snapshot: None,
            cumulative_pruned: 0,
            baseline_size: n.max(1),
        }
    }

    /// Current pruning interval K.
    pub fn interval(&self) -> usize {
        self.interval
    }

    /// Whether a pruning point can still read the scores of tracking trial
    /// `iteration`, asked before that trial's
    /// [`Self::observe_iteration`]. `last` is the frame's last trial as far
    /// as the tracker knows: exact on the stopping trial, an upper bound
    /// otherwise. Trials `iteration..=last` observed from now reach the
    /// next pruning point iff `since + (last − iteration + 1) ≥ K`, where
    /// `since` counts the trials observed since the last pruning point —
    /// 0 on iteration 0, whose observation starts a new frame
    /// ([`Self::begin_frame`]). An upper-bound `last` can only turn a
    /// `false` into a `true`, and a `true` is always safe: it asks for
    /// gradients that may go unread.
    pub fn reads_gradients(&self, iteration: usize, last: usize) -> bool {
        let since = if iteration == 0 { 0 } else { self.since_prune };
        since + last + 1 >= iteration + self.interval
    }

    /// Resets per-frame state (call at the start of each frame's tracking).
    pub fn begin_frame(&mut self, n: usize) {
        self.resize(n);
        for s in &mut self.scores {
            *s = 0.0;
        }
        for m in &mut self.masked_this_frame {
            *m = false;
        }
        self.since_prune = 0;
        self.tiles_snapshot = None;
    }

    /// Re-synchronizes buffers after the scene was resized.
    pub fn resize(&mut self, n: usize) {
        self.scores.resize(n, 0.0);
        self.masked_this_frame.resize(n, false);
        if self.baseline_size < n {
            // Densification grew the map; grow the baseline so the ratio cap
            // stays meaningful.
            self.baseline_size = n;
        }
    }

    /// Processes one tracking iteration: accumulates importance scores from
    /// the gradients the backward pass already produced, and — every K
    /// iterations — masks the lowest-scoring active Gaussians and adapts K.
    ///
    /// `mask` is the pipeline's active mask in stable-ID space; masked-off
    /// entries are excluded from rendering in subsequent iterations. The
    /// iteration's gradients arrive in the frame-local (frustum-survivor)
    /// layout, so scoring walks only the visible working set and scatters
    /// through [`IterationArtifacts::visible_ids`] into the stable-ID score
    /// buffer — cost follows the frustum's contents, not the map size.
    pub fn observe_iteration(&mut self, artifacts: &IterationArtifacts<'_>, mask: &mut [bool]) {
        let n = mask.len();
        self.resize(n);

        // Zero-overhead importance evaluation: the gradients are reused from
        // the optimization backward pass (Eq. 7).
        for (k, g) in artifacts.grads.gaussians.iter().enumerate() {
            let id = artifacts.visible_ids[k] as usize;
            self.scores[id] += g.importance_score(self.config.lambda);
        }
        self.since_prune += 1;

        if self.tiles_snapshot.is_none() {
            self.tiles_snapshot = Some(artifacts.tiles.clone());
        }

        if self.since_prune >= self.interval {
            self.prune_step(mask);

            // Adapt the interval from the tile-intersection change ratio.
            if let Some(snapshot) = &self.tiles_snapshot {
                if snapshot.tiles_x == artifacts.tiles.tiles_x
                    && snapshot.tiles_y == artifacts.tiles.tiles_y
                {
                    let ratio = artifacts.tiles.change_ratio(snapshot);
                    if ratio > self.config.change_ratio_threshold {
                        self.interval = (self.interval / 2).max(1);
                    } else {
                        self.interval = (self.interval * 2).min(64);
                    }
                }
            }
            self.tiles_snapshot = Some(artifacts.tiles.clone());
            self.since_prune = 0;
        }
    }

    /// Masks the lowest-importance active Gaussians, respecting the
    /// cumulative cap.
    fn prune_step(&mut self, mask: &mut [bool]) {
        let active: Vec<usize> = (0..mask.len()).filter(|&i| mask[i]).collect();
        if active.is_empty() {
            return;
        }
        let budget_total = (self.config.max_prune_ratio * self.baseline_size as f32) as usize;
        let already = self.cumulative_pruned + self.masked_count();
        if already >= budget_total {
            return;
        }
        let step = ((active.len() as f32 * self.config.prune_step_fraction) as usize)
            .min(budget_total - already);
        if step == 0 {
            return;
        }
        let mut by_score: Vec<usize> = active;
        by_score.sort_by(|&a, &b| {
            self.scores[a]
                .partial_cmp(&self.scores[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for &i in by_score.iter().take(step) {
            mask[i] = false;
            self.masked_this_frame[i] = true;
        }
    }

    fn masked_count(&self) -> usize {
        self.masked_this_frame.iter().filter(|&&m| m).count()
    }

    /// Ends the frame: on non-keyframes returns the keep-mask that
    /// permanently removes this frame's masked Gaussians (paper: SMs prune
    /// after RTGS writes gradients back); on keyframes pruning is skipped
    /// and the masks are discarded.
    pub fn end_frame(&mut self, is_keyframe: bool) -> Option<Vec<bool>> {
        if is_keyframe {
            for m in &mut self.masked_this_frame {
                *m = false;
            }
            return None;
        }
        let pruned = self.masked_count();
        if pruned == 0 {
            return None;
        }
        self.cumulative_pruned += pruned;
        let keep: Vec<bool> = self.masked_this_frame.iter().map(|&m| !m).collect();
        Some(keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_render::{
        BackwardOutput, DepthImage, FragmentCache, FrameArena, Gaussian3d, GaussianScene, Image,
        LossConfig, PinholeCamera, RenderOutput, ShardedScene, DEFAULT_CELL_SIZE,
    };
    use rtgs_runtime::Serial;

    fn make_artifacts_scene() -> (GaussianScene, PinholeCamera) {
        let gaussians: Vec<Gaussian3d> = (0..12)
            .map(|i| {
                Gaussian3d::from_activated(
                    Vec3::new((i % 4) as f32 * 0.3 - 0.45, (i / 4) as f32 * 0.3 - 0.3, 2.0),
                    Vec3::splat(0.15),
                    Quat::IDENTITY,
                    0.7,
                    Vec3::new(0.2 + 0.06 * i as f32, 0.5, 0.8 - 0.05 * i as f32),
                )
            })
            .collect();
        (
            GaussianScene::from_gaussians(gaussians),
            PinholeCamera::from_fov(32, 32, 1.2),
        )
    }

    /// Drives the pruner through `iters` real tracking-style iterations,
    /// each the production spelling the pipeline runs: the cull under
    /// `mask`, then Steps ❶–❺ over its working set, whose frame-local
    /// gradients `visible_ids` maps to stable IDs.
    fn drive(pruner: &mut AdaptivePruner, iters: usize, mask: &mut [bool]) {
        let (scene, cam) = make_artifacts_scene();
        let map = ShardedScene::from_scene(&scene, DEFAULT_CELL_SIZE);
        let gt = Image::from_data(32, 32, vec![Vec3::splat(0.3); 32 * 32]);
        let mut arena = FrameArena::new();
        for it in 0..iters {
            arena.cull(&map, &Se3::IDENTITY, &cam, Some(mask), &Serial);
            arena.project_visible(&Se3::IDENTITY, &cam, &Serial);
            arena.assign_tiles(&cam, &Serial);
            arena.render_fused(&cam, &Serial);
            arena.compute_loss(&gt, None, &LossConfig::default());
            arena.backward_visible_fused(&cam, &Se3::IDENTITY, &Serial);
            let artifacts = IterationArtifacts {
                iteration: it,
                grads: arena.backward(),
                visible_ids: &arena.visible().ids,
                tiles: arena.tiles(),
                output: arena.output(),
                fragments: arena.fragments(),
            };
            pruner.observe_iteration(&artifacts, mask);
        }
    }

    #[test]
    fn no_pruning_before_interval() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 10,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        drive(&mut pruner, 3, &mut mask);
        assert!(
            mask.iter().all(|&m| m),
            "nothing pruned before K iterations"
        );
    }

    #[test]
    fn masks_lowest_importance_after_interval() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 2,
                prune_step_fraction: 0.25,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        drive(&mut pruner, 4, &mut mask);
        let masked = mask.iter().filter(|&&m| !m).count();
        assert!(masked > 0, "some Gaussians should be masked");
        assert!(masked <= 6, "cap must hold");
    }

    #[test]
    fn cumulative_cap_is_respected() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 1,
                prune_step_fraction: 0.9,
                max_prune_ratio: 0.25,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        drive(&mut pruner, 8, &mut mask);
        let masked = mask.iter().filter(|&&m| !m).count();
        assert!(
            masked <= 3,
            "max_prune_ratio 0.25 of 12 allows 3, got {masked}"
        );
    }

    #[test]
    fn end_frame_keeps_everything_on_keyframes() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 1,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        drive(&mut pruner, 3, &mut mask);
        assert!(pruner.end_frame(true).is_none());
        assert_eq!(pruner.cumulative_pruned, 0);
    }

    #[test]
    fn end_frame_removes_masked_on_non_keyframes() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 1,
                prune_step_fraction: 0.25,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        drive(&mut pruner, 3, &mut mask);
        let masked = mask.iter().filter(|&&m| !m).count();
        let keep = pruner.end_frame(false).expect("should prune");
        assert_eq!(keep.iter().filter(|&&k| !k).count(), masked);
        assert_eq!(pruner.cumulative_pruned, masked);
    }

    #[test]
    fn begin_frame_resets_scores_and_masks() {
        let mut pruner = AdaptivePruner::new(PruningConfig::default(), 12);
        let mut mask = vec![true; 12];
        drive(&mut pruner, 6, &mut mask);
        pruner.begin_frame(12);
        assert_eq!(pruner.masked_count(), 0);
        assert!(pruner.scores.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn interval_adapts() {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 2,
                prune_step_fraction: 0.4,
                ..Default::default()
            },
            12,
        );
        let mut mask = vec![true; 12];
        // Aggressive pruning changes tile intersections > 5% -> halvings;
        // once stable -> doublings. Either way the interval must adapt.
        let intervals: Vec<usize> = (0..10)
            .map(|_| {
                drive(&mut pruner, 1, &mut mask);
                pruner.interval()
            })
            .collect();
        assert!(
            intervals.iter().any(|&k| k != 2),
            "interval should have adapted: {intervals:?}"
        );
    }

    /// [`AdaptivePruner::reads_gradients`] against the pruning points that
    /// actually fire, for every K in 1..=20, trial cap in 1..=16 and
    /// stopping trial, over two frames in a row (the second starts with the
    /// first's count and adapted K). A trial answered `false` is followed
    /// by no pruning point before the stop; a trial where one fires was
    /// answered `true`; and where `last` is exact — on the stopping trial,
    /// and on every trial of a frame that runs to the cap — the answer is
    /// exactly whether one follows.
    #[test]
    fn reads_gradients_is_exact() {
        let tiles = |id: u32| TileAssignment {
            tiles_x: 1,
            tiles_y: 1,
            entries: vec![0],
            offsets: vec![0, 1],
            slot_ids: vec![id],
        };
        let (still, moved) = (tiles(0), tiles(1));
        let grads = BackwardOutput {
            gaussians: Vec::new(),
            pose: [0.0; 6],
            stats: Default::default(),
        };
        let output = RenderOutput {
            image: Image::new(1, 1),
            depth: DepthImage::new(1, 1),
            final_transmittance: vec![1.0],
            stats: Default::default(),
        };
        let mut fired_total = 0;
        for k in 1..=20 {
            for cap in 1..=16 {
                for stop in 0..cap {
                    let config = PruningConfig {
                        initial_interval: k,
                        ..Default::default()
                    };
                    let mut pruner = AdaptivePruner::new(config, 0);
                    for frame in 0..2 {
                        let (mut asked, mut fired) = (Vec::new(), Vec::new());
                        for iteration in 0..=stop {
                            let last = if iteration == stop { stop } else { cap - 1 };
                            asked.push(pruner.reads_gradients(iteration, last));
                            if iteration == 0 {
                                pruner.begin_frame(0);
                            }
                            // The tile lists move every third trial, so K
                            // both halves and doubles at pruning points.
                            let tiles = if (iteration / 3 + frame) % 2 == 0 {
                                &still
                            } else {
                                &moved
                            };
                            let artifacts = IterationArtifacts {
                                iteration,
                                grads: &grads,
                                visible_ids: &[],
                                tiles,
                                output: &output,
                                fragments: &FragmentCache::default(),
                            };
                            pruner.observe_iteration(&artifacts, &mut []);
                            fired.push(pruner.since_prune == 0);
                        }
                        fired_total += fired.iter().filter(|&&f| f).count();
                        for i in 0..=stop {
                            let case =
                                format!("K {k}, cap {cap}, stop {stop}, frame {frame}, trial {i}");
                            let follows = fired[i..].contains(&true);
                            assert!(asked[i] || !follows, "{case}: read unasked");
                            assert!(!fired[i] || asked[i], "{case}: fired unasked");
                            if i == stop || stop == cap - 1 {
                                assert_eq!(asked[i], follows, "{case}: not exact");
                            }
                        }
                    }
                }
            }
        }
        assert!(fired_total > 0);
    }

    #[test]
    fn resize_grows_baseline() {
        let mut pruner = AdaptivePruner::new(PruningConfig::default(), 10);
        pruner.resize(20);
        assert_eq!(pruner.scores.len(), 20);
        assert_eq!(pruner.baseline_size, 20);
        assert_eq!(pruner.cumulative_pruned, 0);
    }
}
