//! Differentiable tile-based 3D Gaussian Splatting rasterizer.
//!
//! Implements the five pipeline steps of the paper (Sec. 2.1–2.2), each
//! reached through exactly one public path — a stage method of
//! [`FrameArena`], which owns every transient buffer of a frame:
//!
//! 1. **Preprocessing** ([`FrameArena::project`], or [`FrameArena::cull`] +
//!    [`FrameArena::project_visible`] over a [`ShardedScene`]) — EWA
//!    projection of 3D Gaussians to 2D splats compacted into a
//!    structure-of-arrays layout ([`ProjectedSoA`]), eight Gaussians (one
//!    per lane) at a time, keeping what it activates of a Gaussian's scale
//!    and rotation for step 5.
//! 2. **Sorting** ([`FrameArena::assign_tiles`]) — tile intersection plus
//!    front-to-back depth ordering via a stable radix sort on the monotone
//!    depth key, stored as flat CSR tile lists ([`TileAssignment`]).
//! 3. **Rendering** ([`FrameArena::render_fused`]) — per-pixel alpha
//!    computing and blending with early ray termination (Eqs. 2–3),
//!    streaming a per-tile gathered working set through the tile's 4×4
//!    subtiles: 16 pixel lanes, splat-outer, behind a conservative
//!    per-subtile cull, with the exponential, the blend and the termination
//!    test lane-wide under masks — and writing, per (subtile, splat), the
//!    R&B record ([`RecordHead`] + [`RecordRow`]s) step 4 consumes.
//!    [`FrameArena::render`] is the forward-only spelling for evaluation
//!    renders.
//! 4. **Rendering BP** ([`FrameArena::backward_fused`] /
//!    [`FrameArena::backward_visible_fused`]) — loss gradients
//!    ([`FrameArena::compute_loss`]) to per-Gaussian 2D gradients (Eq. 4),
//!    walking each subtile's records back to front, 16 lanes wide, and
//!    merging every record's per-pixel gradients into its Gaussian's
//!    accumulator at once.
//! 5. **Preprocessing BP** (same call) — 2D gradients to 3D parameter
//!    gradients and the camera-pose tangent, lanes = Gaussians like step 1,
//!    on step 1's activations.
//!
//! [`FrameArena::forward`] runs steps 1–3 in one call for callers that only
//! need an image.
//!
//! The seed's array-of-structs path, the legacy per-tile sort and the
//! backward re-walk survive in the hidden `reference` module as the bitwise
//! ground truth; `tests/equivalence.rs` proves AoS == SoA == fused ==
//! sharded, fresh == reused arena, serial == parallel, bit for bit, over
//! random scenes. The analytic backward pass is verified against finite
//! differences in `tests/grad_check.rs`.
//!
//! # Example
//!
//! ```
//! use rtgs_render::{
//!     FrameArena, Gaussian3d, GaussianScene, Image, LossConfig, PinholeCamera,
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
//! let camera = PinholeCamera::from_fov(64, 48, 1.2);
//! let pose = Se3::IDENTITY; // world-to-camera
//!
//! // One arena per session; every stage reuses its storage across frames.
//! let mut arena = FrameArena::new();
//! arena.project(&scene, &pose, &camera, None, &Serial);
//! arena.assign_tiles(&camera, &Serial);
//! arena.render_fused(&camera, &Serial);
//!
//! let gt = Image::new(64, 48); // all black target
//! let loss = arena.compute_loss(&gt, None, &LossConfig::default());
//! arena.backward_fused(&scene, &camera, &pose, &Serial);
//! assert!(loss > 0.0);
//! assert_eq!(arena.backward().gaussians.len(), scene.len());
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

pub use arena::FrameArena;
pub use backward::{BackwardOutput, BackwardStats, PixelGrads};
pub use camera::{DepthImage, Image, PinholeCamera};
pub use forward::{
    FragmentCache, RecordHead, RecordRow, RenderOutput, RenderStats, TileFragments, ALPHA_MAX,
    ALPHA_MIN, TERMINATION_THRESHOLD,
};
pub use gaussian::{Gaussian3d, GaussianGrad, GaussianScene};
pub use loss::{LossConfig, LossKind, LossOutput};
pub use project::{
    jacobian_with_clamp, projection_jacobian, Projected2d, ProjectedSoA, Projection, TileRect,
    COV2D_BLUR, FRUSTUM_CLAMP, NEAR_PLANE, NO_SLOT,
};
pub use shard::{
    Aabb, GaussianHandle, SceneState, Shard, ShardState, ShardedScene, VisibleFrame,
    DEFAULT_CELL_SIZE, TOMBSTONED_SLOT, TOMBSTONE_FILL,
};
pub use tiles::{TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE, TILE_SIZE};
pub use trace::WorkloadTrace;
