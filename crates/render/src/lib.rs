//! Differentiable tile-based 3D Gaussian Splatting rasterizer.
//!
//! Implements the five pipeline steps of the paper (Sec. 2.1–2.2), each
//! reached through exactly one public path — a stage method of
//! [`FrameArena`], which owns every transient buffer of a frame — over one
//! kind of map, the [`ShardedScene`]. A frame starts with the frustum cull
//! ([`FrameArena::cull`]), which gathers the map's visible working set and
//! is the one place the paper's pruning mask (Sec. 4.1) acts:
//!
//! 1. **Preprocessing** ([`FrameArena::project_visible`]) — EWA projection
//!    of the working set's 3D Gaussians to 2D splats, eight Gaussians (one
//!    per lane) at a time, compacted into a [`Projection`]: one record of
//!    hot fields per visible splat (the record step 3 gathers per tile),
//!    beside the tile rectangles step 2 reads and the camera-frame means
//!    and activations of scale and rotation step 5 reads. A tracking frame's trials run it inside a
//!    [`Trials`] scope ([`FrameArena::trials`]), which reuses a trial's
//!    gathered working set and these pose-independent activations while
//!    the cull and the mask allow.
//! 2. **Sorting** ([`FrameArena::assign_tiles`]) — tile intersection plus
//!    front-to-back depth ordering by a per-tile sort on the monotone depth
//!    key, stored as flat CSR tile lists ([`TileAssignment`]).
//! 3. **Rendering** ([`FrameArena::render_fused`]) — per-pixel alpha
//!    computing and blending with early ray termination (Eqs. 2–3),
//!    streaming a per-tile gathered working set (gathered once per
//!    iteration; step 4 reads it too) through the tile's 4×4 subtiles, one
//!    band of four subtiles per unit of parallel work: 16 pixel lanes,
//!    splat-outer, behind a conservative
//!    per-subtile cull, with the exponential, the blend and the termination
//!    test lane-wide under masks — and writing, per (subtile, splat), the
//!    R&B record ([`RecordHead`] + [`RecordRow`]s) step 4 consumes.
//!    [`FrameArena::render`] is the forward-only spelling for evaluation
//!    renders.
//! 4. **Rendering BP** ([`FrameArena::backward_visible_fused`]) — loss
//!    gradients ([`FrameArena::compute_loss`]) to per-Gaussian 2D gradients
//!    (Eq. 4), walking each subtile's records back to front, 16 lanes wide,
//!    and merging every record's per-pixel gradients into its Gaussian's
//!    accumulator at once.
//! 5. **Preprocessing BP** (same call) — 2D gradients to 3D parameter
//!    gradients and the camera-pose tangent, lanes = Gaussians like step 1,
//!    on step 1's activations.
//!
//! Steps 4–5 come in two [`GradSet`]s: [`FrameArena::backward_visible_grads`]
//! with [`GradSet::PoseOnly`] computes only the pose tangent — the full
//! pass's bits — for tracking iterations nothing else reads.
//!
//! [`FrameArena::forward`] runs the cull and steps 1–3 in one call for
//! callers that only need an image; [`render_poses`] runs it at many poses
//! of one map, frame-parallel, [`POSE_CHUNK`] frames per arena.
//!
//! The seed's array-of-structs path over a flat [`GaussianScene`], the
//! legacy per-tile sort and the backward re-walk survive in the hidden
//! `reference` module as the bitwise ground truth; `tests/equivalence.rs`
//! proves production (cull → records → fused) == the flat AoS oracle, fresh ==
//! reused arena, serial == parallel, bit for bit, over random maps. The analytic backward pass is verified against finite
//! differences in `tests/grad_check.rs`.
//!
//! # Example
//!
//! ```
//! use rtgs_render::{
//!     FrameArena, Gaussian3d, GaussianScene, Image, LossConfig, PinholeCamera, ShardedScene,
//!     DEFAULT_CELL_SIZE,
//! };
//! use rtgs_math::{Quat, Se3, Vec3};
//! use rtgs_runtime::Serial;
//!
//! let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
//!     Vec3::new(0.0, 0.0, 2.0),
//!     Vec3::splat(0.3),
//!     Quat::IDENTITY,
//!     0.8,
//!     Vec3::new(1.0, 0.2, 0.1),
//! )]);
//! let map = ShardedScene::from_scene(&scene, DEFAULT_CELL_SIZE); // bounds fresh
//! let camera = PinholeCamera::from_fov(64, 48, 1.2);
//! let pose = Se3::IDENTITY; // world-to-camera
//!
//! // One arena per session; every stage reuses its storage across frames.
//! let mut arena = FrameArena::new();
//! arena.cull(&map, &pose, &camera, None, &Serial); // no pruning mask
//! arena.project_visible(&pose, &camera, &Serial);
//! arena.assign_tiles(&camera, &Serial);
//! arena.render_fused(&camera, &Serial);
//!
//! let gt = Image::new(64, 48); // all black target
//! let loss = arena.compute_loss(&gt, None, &LossConfig::default());
//! arena.backward_visible_fused(&camera, &pose, &Serial);
//! assert!(loss > 0.0);
//! // One gradient per gathered Gaussian; `visible().ids` maps them to the
//! // map's stable IDs.
//! assert_eq!(arena.backward().gaussians.len(), arena.visible().ids.len());
//! assert_eq!(arena.visible().ids, [0]);
//! ```

mod arena;
mod backward;
mod camera;
mod forward;
mod gaussian;
mod loss;
mod project;
#[doc(hidden)]
pub mod reference;
mod shard;
mod tiles;
mod trace;

pub use arena::{render_poses, FrameArena, Trials, POSE_CHUNK};
pub use backward::{BackwardOutput, BackwardStats, GradSet, PixelGrads};
pub use camera::{DepthImage, Image, PinholeCamera};
pub use forward::{
    FragmentCache, RecordHead, RecordRow, RenderOutput, RenderStats, TileFragments, ALPHA_MAX,
    ALPHA_MIN, TERMINATION_THRESHOLD,
};
pub use gaussian::{Gaussian3d, GaussianGrad, GaussianScene};
pub use loss::{LossConfig, LossKind, LossOutput};
pub use project::{
    jacobian_with_clamp, projection_jacobian, Projected2d, Projection, COV2D_BLUR, FRUSTUM_CLAMP,
    NEAR_PLANE,
};
pub use shard::{
    SceneState, Shard, ShardState, ShardedScene, VisibleFrame, DEFAULT_CELL_SIZE, TOMBSTONE_FILL,
};
pub use tiles::{TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE, TILE_SIZE};
pub use trace::WorkloadTrace;
