//! Optimizers for mapping (Adam over Gaussian parameters) and tracking
//! (Adam over the 6-dof camera-pose tangent).

use rtgs_math::{clamp, Vec3};
use rtgs_render::{Gaussian3d, GaussianGrad, ShardedScene};

/// Number of scalar parameters per Gaussian
/// (position 3 + log-scale 3 + quaternion 4 + opacity 1 + color 3).
pub const PARAMS_PER_GAUSSIAN: usize = 14;

/// Per-group learning rates for the Gaussian Adam optimizer, following the
/// reference 3DGS training recipe (scaled for SLAM's few iterations per
/// frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapLearningRates {
    /// Position learning rate (meters).
    pub position: f32,
    /// Log-scale learning rate.
    pub log_scale: f32,
    /// Quaternion learning rate.
    pub rotation: f32,
    /// Opacity-logit learning rate.
    pub opacity: f32,
    /// Color learning rate.
    pub color: f32,
}

impl Default for MapLearningRates {
    fn default() -> Self {
        Self {
            position: 1e-3,
            log_scale: 5e-3,
            rotation: 1e-3,
            opacity: 0.05,
            color: 2.5e-3,
        }
    }
}

/// Adam state over the Gaussians of a [`ShardedScene`], with the moment
/// arrays keyed by **stable ID** ([`ShardedScene`] arena index — one-to-one
/// with the `(shard, slot)` handle while a Gaussian is alive).
///
/// Because pruning tombstones instead of compacting, moments never move:
/// a surviving Gaussian keeps its moments across any densify/prune
/// interleaving. Densification only has to [`Self::register`] each new ID,
/// which zeroes the slot when a tombstoned ID is recycled.
#[derive(Debug, Clone)]
pub struct MapOptimizer {
    lrs: MapLearningRates,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<[f32; PARAMS_PER_GAUSSIAN]>,
    v: Vec<[f32; PARAMS_PER_GAUSSIAN]>,
}

impl MapOptimizer {
    /// Creates an optimizer for a map of arena capacity `capacity`.
    pub fn new(capacity: usize, lrs: MapLearningRates) -> Self {
        Self {
            lrs,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: vec![[0.0; PARAMS_PER_GAUSSIAN]; capacity],
            v: vec![[0.0; PARAMS_PER_GAUSSIAN]; capacity],
        }
    }

    /// Number of ID slots tracked (the arena capacity, live or not).
    pub fn capacity(&self) -> usize {
        self.m.len()
    }

    /// True when tracking no slots.
    pub fn is_empty(&self) -> bool {
        self.m.is_empty()
    }

    /// The first-moment row of one stable ID (diagnostics and tests).
    pub fn first_moment(&self, id: u32) -> &[f32; PARAMS_PER_GAUSSIAN] {
        &self.m[id as usize]
    }

    /// The second-moment row of one stable ID (serialization).
    pub fn second_moment(&self, id: u32) -> &[f32; PARAMS_PER_GAUSSIAN] {
        &self.v[id as usize]
    }

    /// Number of Adam steps taken so far (drives bias correction; part of
    /// a session checkpoint's iteration counters).
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Rebuilds an optimizer from checkpointed state: the step counter and
    /// the per-ID moment rows (`m` and `v` must be the same length).
    ///
    /// # Panics
    ///
    /// Panics when the moment arrays disagree in length.
    pub fn from_parts(
        lrs: MapLearningRates,
        step: u64,
        m: Vec<[f32; PARAMS_PER_GAUSSIAN]>,
        v: Vec<[f32; PARAMS_PER_GAUSSIAN]>,
    ) -> Self {
        assert_eq!(m.len(), v.len(), "moment arrays must be the same length");
        Self {
            lrs,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step,
            m,
            v,
        }
    }

    /// Registers a stable ID returned by [`ShardedScene::insert`]: grows
    /// the moment arrays for appended IDs and zeroes the slot for recycled
    /// ones, so a reused arena slot never inherits a dead Gaussian's
    /// momentum.
    pub fn register(&mut self, id: u32) {
        let idx = id as usize;
        if idx < self.m.len() {
            self.m[idx] = [0.0; PARAMS_PER_GAUSSIAN];
            self.v[idx] = [0.0; PARAMS_PER_GAUSSIAN];
        } else {
            self.m.resize(idx + 1, [0.0; PARAMS_PER_GAUSSIAN]);
            self.v.resize(idx + 1, [0.0; PARAMS_PER_GAUSSIAN]);
        }
    }

    /// Applies one Adam step to the frame's visible working set: `ids[k]`
    /// is the stable ID of the Gaussian whose gradient is `grads[k]` (the
    /// frame-local layout of `rtgs_render::FrameArena::visible` after a
    /// cull). Gaussians outside the
    /// visible set — and visible ones with an all-zero gradient — are
    /// untouched, matching the sparse-update behaviour of the reference
    /// trainer.
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree or an ID is out of range / tombstoned.
    pub fn step_visible(&mut self, map: &mut ShardedScene, ids: &[u32], grads: &[GaussianGrad]) {
        assert_eq!(ids.len(), grads.len(), "gradient buffer size mismatch");
        assert!(
            map.capacity() <= self.capacity(),
            "optimizer not sized for the map (register new IDs first)"
        );
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        for (&id, grad) in ids.iter().zip(grads.iter()) {
            let flat = flatten_grad(grad);
            if flat.iter().all(|&x| x == 0.0) {
                continue;
            }
            let m = &mut self.m[id as usize];
            let v = &mut self.v[id as usize];
            let mut update = [0.0f32; PARAMS_PER_GAUSSIAN];
            for i in 0..PARAMS_PER_GAUSSIAN {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * flat[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * flat[i] * flat[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                update[i] = m_hat / (v_hat.sqrt() + self.eps);
            }
            apply_update(map.gaussian_mut(id), &update, &self.lrs);
        }
    }
}

fn flatten_grad(g: &GaussianGrad) -> [f32; PARAMS_PER_GAUSSIAN] {
    [
        g.position.x,
        g.position.y,
        g.position.z,
        g.log_scale.x,
        g.log_scale.y,
        g.log_scale.z,
        g.rotation[0],
        g.rotation[1],
        g.rotation[2],
        g.rotation[3],
        g.opacity,
        g.color.x,
        g.color.y,
        g.color.z,
    ]
}

fn apply_update(g: &mut Gaussian3d, u: &[f32; PARAMS_PER_GAUSSIAN], lrs: &MapLearningRates) {
    g.position -= Vec3::new(u[0], u[1], u[2]) * lrs.position;
    g.log_scale -= Vec3::new(u[3], u[4], u[5]) * lrs.log_scale;
    // Keep scales in a sane range to avoid degenerate covariances.
    g.log_scale = Vec3::new(
        clamp(g.log_scale.x, -8.0, 2.0),
        clamp(g.log_scale.y, -8.0, 2.0),
        clamp(g.log_scale.z, -8.0, 2.0),
    );
    g.rotation.w -= u[6] * lrs.rotation;
    g.rotation.x -= u[7] * lrs.rotation;
    g.rotation.y -= u[8] * lrs.rotation;
    g.rotation.z -= u[9] * lrs.rotation;
    g.opacity = clamp(g.opacity - u[10] * lrs.opacity, -9.0, 9.0);
    g.color -= Vec3::new(u[11], u[12], u[13]) * lrs.color;
    g.color = Vec3::new(
        clamp(g.color.x, 0.0, 1.0),
        clamp(g.color.y, 0.0, 1.0),
        clamp(g.color.z, 0.0, 1.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::Quat;

    fn map_of(n: usize) -> ShardedScene {
        let mut map = ShardedScene::new(1.0);
        for i in 0..n {
            map.insert(Gaussian3d::from_activated(
                Vec3::new(i as f32, 0.0, 2.0),
                Vec3::splat(0.1),
                Quat::IDENTITY,
                0.5,
                Vec3::splat(0.5),
            ));
        }
        map
    }

    fn all_ids(map: &ShardedScene) -> Vec<u32> {
        map.live_ids().collect()
    }

    #[test]
    fn adam_moves_against_gradient() {
        let mut map = map_of(1);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        let before = map.gaussian(0).position.x;
        let ids = all_ids(&map);
        let grads = vec![GaussianGrad {
            position: Vec3::new(1.0, 0.0, 0.0),
            ..Default::default()
        }];
        opt.step_visible(&mut map, &ids, &grads);
        assert!(map.gaussian(0).position.x < before);
    }

    #[test]
    fn zero_gradient_leaves_gaussian_unchanged() {
        let mut map = map_of(2);
        let snapshot = *map.gaussian(1);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        let ids = all_ids(&map);
        let mut grads = vec![GaussianGrad::default(); 2];
        grads[0].color = Vec3::splat(1.0);
        opt.step_visible(&mut map, &ids, &grads);
        assert_eq!(*map.gaussian(1), snapshot);
        assert_ne!(map.gaussian(0).color, Vec3::splat(0.5));
    }

    #[test]
    fn gaussians_outside_visible_set_are_untouched() {
        let mut map = map_of(3);
        let snapshot = *map.gaussian(2);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        // Frame-local working set covers IDs 0 and 1 only.
        let grads = vec![
            GaussianGrad {
                color: Vec3::splat(1.0),
                ..Default::default()
            };
            2
        ];
        opt.step_visible(&mut map, &[0, 1], &grads);
        assert_eq!(*map.gaussian(2), snapshot);
    }

    #[test]
    fn color_stays_clamped() {
        let mut map = map_of(1);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        for _ in 0..2000 {
            let grads = vec![GaussianGrad {
                color: Vec3::splat(-1.0), // pushes color up
                ..Default::default()
            }];
            opt.step_visible(&mut map, &[0], &grads);
        }
        let c = map.gaussian(0).color;
        assert!(c.x <= 1.0 && c.y <= 1.0 && c.z <= 1.0);
    }

    #[test]
    fn register_grows_and_resets() {
        let mut opt = MapOptimizer::new(3, MapLearningRates::default());
        opt.register(3);
        opt.register(4);
        assert_eq!(opt.capacity(), 5);
        opt.register(1);
        assert_eq!(opt.capacity(), 5);
    }

    /// The core stable-ID contract: moments stay matched to the surviving
    /// Gaussians' handles — not their old indices — across an interleaved
    /// densify → prune → densify sequence.
    #[test]
    fn moments_follow_handles_across_densify_prune_densify() {
        let mut map = map_of(3);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        // Build distinct momentum on each Gaussian.
        let grads: Vec<GaussianGrad> = (0..3)
            .map(|i| GaussianGrad {
                position: Vec3::new((i + 1) as f32, 0.0, 0.0),
                ..Default::default()
            })
            .collect();
        opt.step_visible(&mut map, &[0, 1, 2], &grads);
        let m0 = *opt.first_moment(0);
        let m2 = *opt.first_moment(2);
        assert!(m0[0] != 0.0 && m2[0] != 0.0 && m0[0] != m2[0]);

        // Densify: append a fresh Gaussian (ID 3).
        let id3 = map.insert(Gaussian3d::from_activated(
            Vec3::new(9.0, 0.0, 2.0),
            Vec3::splat(0.1),
            Quat::IDENTITY,
            0.5,
            Vec3::splat(0.5),
        ));
        assert_eq!(id3, 3);
        opt.register(id3);
        assert_eq!(opt.first_moment(id3)[0], 0.0);

        // Prune the middle Gaussian. Under the old compacting store this
        // shifted ID 2's moments down by one; tombstoning must not.
        map.tombstone(1);
        assert_eq!(*opt.first_moment(0), m0, "survivor 0 moments moved");
        assert_eq!(*opt.first_moment(2), m2, "survivor 2 moments moved");

        // Densify again: the freed slot (ID 1) is recycled and must start
        // with zeroed moments, not the dead Gaussian's momentum.
        let recycled = map.insert(Gaussian3d::from_activated(
            Vec3::new(-4.0, 0.0, 2.0),
            Vec3::splat(0.1),
            Quat::IDENTITY,
            0.5,
            Vec3::splat(0.5),
        ));
        assert_eq!(recycled, 1, "freed arena slot should be recycled");
        opt.register(recycled);
        assert_eq!(opt.first_moment(recycled)[0], 0.0);
        assert_eq!(*opt.first_moment(0), m0);
        assert_eq!(*opt.first_moment(2), m2);

        // A further step on the survivors keeps compounding the same slots.
        let g = vec![
            GaussianGrad {
                position: Vec3::new(1.0, 0.0, 0.0),
                ..Default::default()
            };
            2
        ];
        opt.step_visible(&mut map, &[0, 2], &g);
        assert!(opt.first_moment(0)[0] != m0[0]);
        assert!(opt.first_moment(2)[0] != m2[0]);
        assert_eq!(opt.first_moment(recycled)[0], 0.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x - 3)^2 through the position-x channel.
        let mut map = map_of(1);
        let mut opt = MapOptimizer::new(
            map.capacity(),
            MapLearningRates {
                position: 0.05,
                ..Default::default()
            },
        );
        for _ in 0..500 {
            let x = map.gaussian(0).position.x;
            let grads = vec![GaussianGrad {
                position: Vec3::new(2.0 * (x - 3.0), 0.0, 0.0),
                ..Default::default()
            }];
            opt.step_visible(&mut map, &[0], &grads);
        }
        assert!((map.gaussian(0).position.x - 3.0).abs() < 0.05);
    }
}
