//! Optimizers for mapping (Adam over Gaussian parameters) and tracking
//! (Adam over the 6-dof camera-pose tangent).

use rtgs_math::{clamp, Vec3};
use rtgs_render::{Gaussian3d, GaussianGrad, ShardedScene};
use rtgs_runtime::{Backend, Serial, SharedSlice};
use rtgs_snapshot::Channel;

/// Number of scalar parameters per Gaussian
/// (position 3 + log-scale 3 + quaternion 4 + opacity 1 + color 3).
pub const PARAMS_PER_GAUSSIAN: usize = 14;

/// Visible rows per chunk of the Adam step.
const ADAM_CHUNK: usize = 128;

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

/// Names of the checkpoint channels that hold the Adam first and second
/// moments.
pub(crate) const MOMENT_CHANNELS: [&str; 2] = ["adam.m", "adam.v"];

/// Adam state over the Gaussians of a [`ShardedScene`], with the moment
/// arrays keyed by **stable ID** (the [`ShardedScene`] arena index, which
/// never changes while a Gaussian is alive).
///
/// Because pruning tombstones instead of compacting, moments never move:
/// a surviving Gaussian keeps its moments across any densify/prune
/// interleaving. Densification only has to [`Self::register`] each new ID,
/// which zeroes the slot when a tombstoned ID is recycled.
///
/// The two moment arrays are the session checkpoint's `adam.m` and
/// `adam.v` channels, [`PARAMS_PER_GAUSSIAN`] floats per ID each, so a
/// capture encodes them as they stand and a restore moves the decoded
/// channels back in.
#[derive(Debug, Clone)]
pub struct MapOptimizer {
    lrs: MapLearningRates,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    /// The first and the second moments, in that order.
    moments: [Channel; 2],
}

impl MapOptimizer {
    /// Creates an optimizer for a map of arena capacity `capacity`.
    pub fn new(capacity: usize, lrs: MapLearningRates) -> Self {
        let moments =
            MOMENT_CHANNELS.map(|name| Channel::zeroed(name, PARAMS_PER_GAUSSIAN, capacity));
        Self::restored(lrs, 0, moments)
    }

    /// An optimizer continuing from a checkpoint: the step counter and the
    /// decoded [`MOMENT_CHANNELS`], in that order.
    pub(crate) fn restored(lrs: MapLearningRates, step: u64, moments: [Channel; 2]) -> Self {
        Self {
            lrs,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step,
            moments,
        }
    }

    /// Number of ID slots tracked (the arena capacity, live or not).
    pub fn capacity(&self) -> usize {
        self.moments[0].data.len() / PARAMS_PER_GAUSSIAN
    }

    /// True when tracking no slots.
    pub fn is_empty(&self) -> bool {
        self.moments[0].data.is_empty()
    }

    /// Number of Adam steps taken so far (drives bias correction; part of
    /// a session checkpoint's iteration counters).
    pub(crate) fn step_count(&self) -> u64 {
        self.step
    }

    /// The moments as checkpoint channels, `capacity() × PARAMS_PER_GAUSSIAN`
    /// floats each.
    pub(crate) fn moments(&self) -> &[Channel; 2] {
        &self.moments
    }

    /// Registers a stable ID returned by [`ShardedScene::insert`]: grows
    /// the moment arrays for appended IDs and zeroes the slot for recycled
    /// ones, so a reused arena slot never inherits a dead Gaussian's
    /// momentum.
    pub fn register(&mut self, id: u32) {
        let end = (id as usize + 1) * PARAMS_PER_GAUSSIAN;
        for ch in &mut self.moments {
            if end <= ch.data.len() {
                ch.data[end - PARAMS_PER_GAUSSIAN..end].fill(0.0);
            } else {
                ch.data.resize(end, 0.0);
            }
        }
    }

    /// Applies one Adam step to the frame's visible working set: `ids[k]`
    /// is the stable ID of the Gaussian whose gradient is `grads[k]` (the
    /// frame-local layout of `rtgs_render::FrameArena::visible` after a
    /// cull, ascending). Gaussians outside the
    /// visible set — and visible ones with an all-zero gradient — are
    /// untouched, matching the sparse-update behaviour of the reference
    /// trainer. Runs on the calling thread: [`Self::step_visible_with`] on
    /// [`Serial`].
    ///
    /// # Panics
    ///
    /// Panics if sizes disagree (the optimizer must have registered every
    /// ID of the map, and no other), `ids` is not strictly ascending, or an
    /// ID is out of range / tombstoned.
    pub fn step_visible(&mut self, map: &mut ShardedScene, ids: &[u32], grads: &[GaussianGrad]) {
        self.step_visible_with(map, ids, grads, &Serial);
    }

    /// [`Self::step_visible`] with the visible rows chunked over `backend`
    /// ([`ShardedScene::update_with`]). A row's moments and parameters
    /// depend on its own gradient alone, and the map stamps the changed
    /// rows' shards afterwards in ascending-ID order, so the moments, the
    /// map and every shard version are the same bits on every backend.
    ///
    /// # Panics
    ///
    /// As for [`Self::step_visible`].
    pub fn step_visible_with(
        &mut self,
        map: &mut ShardedScene,
        ids: &[u32],
        grads: &[GaussianGrad],
        backend: &dyn Backend,
    ) {
        assert_eq!(ids.len(), grads.len(), "gradient buffer size mismatch");
        assert_eq!(
            map.capacity(),
            self.capacity(),
            "optimizer not sized for the map (register every new ID)"
        );
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        let Self {
            lrs,
            beta1,
            beta2,
            eps,
            moments: [m_all, v_all],
            ..
        } = self;
        let (beta1, beta2, eps) = (*beta1, *beta2, *eps);
        let m_all = SharedSlice::new(&mut m_all.data);
        let v_all = SharedSlice::new(&mut v_all.data);
        map.update_with(ids, ADAM_CHUNK, backend, |k, gaussian| {
            let flat = flatten_grad(&grads[k]);
            if flat.iter().all(|&x| x == 0.0) {
                return false;
            }
            let id = ids[k] as usize;
            let row = id * PARAMS_PER_GAUSSIAN..(id + 1) * PARAMS_PER_GAUSSIAN;
            // SAFETY: `update_with` visits each `k` once, and its IDs are
            // strictly ascending, so no two calls share a moment row.
            let (m, v) = unsafe { (m_all.range_mut(row.clone()), v_all.range_mut(row)) };
            let mut update = [0.0f32; PARAMS_PER_GAUSSIAN];
            for i in 0..PARAMS_PER_GAUSSIAN {
                m[i] = beta1 * m[i] + (1.0 - beta1) * flat[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * flat[i] * flat[i];
                let m_hat = m[i] / bc1;
                let v_hat = v[i] / bc2;
                update[i] = m_hat / (v_hat.sqrt() + eps);
            }
            apply_update(gaussian, &update, lrs);
            true
        });
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

    /// The first-moment row of `id`.
    fn first_moment(opt: &MapOptimizer, id: u32) -> [f32; PARAMS_PER_GAUSSIAN] {
        let start = id as usize * PARAMS_PER_GAUSSIAN;
        opt.moments[0].data[start..start + PARAMS_PER_GAUSSIAN]
            .try_into()
            .unwrap()
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
    /// Gaussians' stable IDs — not their old indices — across an interleaved
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
        let m0 = first_moment(&opt, 0);
        let m2 = first_moment(&opt, 2);
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
        assert_eq!(first_moment(&opt, id3)[0], 0.0);

        // Prune the middle Gaussian. Under the old compacting store this
        // shifted ID 2's moments down by one; tombstoning must not.
        map.tombstone(1);
        assert_eq!(first_moment(&opt, 0), m0, "survivor 0 moments moved");
        assert_eq!(first_moment(&opt, 2), m2, "survivor 2 moments moved");

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
        assert_eq!(first_moment(&opt, recycled)[0], 0.0);
        assert_eq!(first_moment(&opt, 0), m0);
        assert_eq!(first_moment(&opt, 2), m2);

        // A further step on the survivors keeps compounding the same slots.
        let g = vec![
            GaussianGrad {
                position: Vec3::new(1.0, 0.0, 0.0),
                ..Default::default()
            };
            2
        ];
        opt.step_visible(&mut map, &[0, 2], &g);
        assert!(first_moment(&opt, 0)[0] != m0[0]);
        assert!(first_moment(&opt, 2)[0] != m2[0]);
        assert_eq!(first_moment(&opt, recycled)[0], 0.0);
    }

    /// Runs a loop's chunks on the caller in a fixed permutation of their
    /// indices: last first, or a seeded shuffle.
    struct Permuted(fn(usize) -> Vec<usize>);

    impl Backend for Permuted {
        fn name(&self) -> &'static str {
            "permuted"
        }

        fn for_each_chunk(
            &self,
            len: usize,
            chunk_size: usize,
            body: &(dyn Fn(usize, std::ops::Range<usize>) + Sync),
        ) {
            for index in (self.0)(len.div_ceil(chunk_size)) {
                body(
                    index,
                    index * chunk_size..((index + 1) * chunk_size).min(len),
                );
            }
        }
    }

    fn reversed(chunks: usize) -> Vec<usize> {
        (0..chunks).rev().collect()
    }

    fn shuffled(chunks: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..chunks).collect();
        let mut state = 0x5EED_u64;
        for i in (1..chunks).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    /// Everything an Adam step leaves behind that a checkpoint or a cull
    /// reads: the moments, the map's persistent state and the shard
    /// versions.
    fn outcome(opt: &MapOptimizer, map: &ShardedScene) -> impl PartialEq + std::fmt::Debug {
        let bits = |ch: &Channel| ch.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let versions: Vec<u64> = map.shards().iter().map(|s| s.version()).collect();
        (
            [bits(&opt.moments[0]), bits(&opt.moments[1])],
            format!("{:?}", map.export_state()),
            versions,
        )
    }

    /// Chunked over `Parallel`, `Reversed` and `Shuffled` claim orders, a
    /// run of Adam steps leaves the moments, the map and every shard
    /// version bit for bit where `Serial` leaves them — over five chunks of
    /// rows, with zero-gradient rows (skipped, so never stamped), a step
    /// that sees a subset, and a densify between steps; and over a working
    /// set smaller than one chunk, which every backend runs inline.
    #[test]
    fn chunked_steps_match_serial_on_every_backend() {
        for n in [600, 40] {
            let run = |backend: &dyn Backend| {
                let mut map = ShardedScene::new(0.7);
                for i in 0..n {
                    map.insert(Gaussian3d::from_activated(
                        Vec3::new(
                            (i % 23) as f32 * 0.3,
                            (i % 7) as f32 * 0.2,
                            2.0 + (i % 5) as f32,
                        ),
                        Vec3::splat(0.1),
                        Quat::IDENTITY,
                        0.5,
                        Vec3::splat(0.5),
                    ));
                }
                let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
                for step in 0..4u32 {
                    let ids: Vec<u32> = map
                        .live_ids()
                        .filter(|id| step != 2 || id % 3 != 0)
                        .collect();
                    let grads: Vec<GaussianGrad> = ids
                        .iter()
                        .map(|&id| {
                            if (id + step) % 11 == 0 {
                                return GaussianGrad::default();
                            }
                            let x = ((id * 7 + step * 13) % 17) as f32 / 17.0 - 0.5;
                            GaussianGrad {
                                position: Vec3::new(x, -0.5 * x, 0.25),
                                log_scale: Vec3::splat(0.1 * x),
                                rotation: [x, 0.0, -x, 0.5],
                                opacity: -x,
                                color: Vec3::new(0.3, x, -0.2),
                                ..Default::default()
                            }
                        })
                        .collect();
                    opt.step_visible_with(&mut map, &ids, &grads, backend);
                    if step == 1 {
                        let id = map.insert(Gaussian3d::from_activated(
                            Vec3::new(-1.0, 0.0, 2.0),
                            Vec3::splat(0.1),
                            Quat::IDENTITY,
                            0.5,
                            Vec3::splat(0.5),
                        ));
                        opt.register(id);
                    }
                }
                outcome(&opt, &map)
            };
            let want = run(&Serial);
            let backends: [(&str, &dyn Backend); 4] = [
                ("parallel", &rtgs_runtime::Parallel::new(2)),
                ("parallel-3", &rtgs_runtime::Parallel::new(3)),
                ("reversed", &Permuted(reversed)),
                ("shuffled", &Permuted(shuffled)),
            ];
            for (name, backend) in backends {
                assert_eq!(run(backend), want, "{name}, {n} Gaussians");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_ids_are_refused() {
        let mut map = map_of(2);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        let grads = vec![GaussianGrad::default(); 2];
        opt.step_visible(&mut map, &[1, 0], &grads);
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
