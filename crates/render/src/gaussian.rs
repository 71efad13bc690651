//! 3D Gaussian primitives and scenes (paper Sec. 2.1, Eq. 1).

use rtgs_math::{sigmoid, Mat3, Quat, Sym3, Vec3};

/// One trainable 3D Gaussian.
///
/// Storage follows the reference 3DGS parameterization: scales are stored in
/// log-space and opacity as a logit so that unconstrained gradient steps keep
/// the activated values in their valid ranges. Color is a plain RGB triple
/// (spherical-harmonics degree 0); the paper's SLAM pipelines likewise run
/// with DC-only color during tracking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian3d {
    /// 3D mean position (world frame), `μ` in Eq. 1.
    pub position: Vec3,
    /// Per-axis log-scale; activated scale is `exp(log_scale)`.
    pub log_scale: Vec3,
    /// Orientation (unnormalized quaternion, free parameter).
    pub rotation: Quat,
    /// Opacity logit; activated opacity is `sigmoid(opacity)`, `o` in Eq. 2.
    pub opacity: f32,
    /// RGB color in `[0, 1]` (degree-0 SH), `sh` in Eq. 1.
    pub color: Vec3,
}

impl Gaussian3d {
    /// Creates a Gaussian from *activated* values (scale and opacity in
    /// natural units).
    pub fn from_activated(
        position: Vec3,
        scale: Vec3,
        rotation: Quat,
        opacity: f32,
        color: Vec3,
    ) -> Self {
        Self {
            position,
            log_scale: Vec3::new(
                scale.x.max(1e-8).ln(),
                scale.y.max(1e-8).ln(),
                scale.z.max(1e-8).ln(),
            ),
            rotation,
            opacity: rtgs_math::logit(opacity),
            color,
        }
    }

    /// Activated per-axis scale, `exp(log_scale)`.
    #[inline]
    pub fn scale(&self) -> Vec3 {
        Vec3::new(
            self.log_scale.x.exp(),
            self.log_scale.y.exp(),
            self.log_scale.z.exp(),
        )
    }

    /// Activated opacity in `(0, 1)`.
    #[inline]
    pub fn opacity_activated(&self) -> f32 {
        sigmoid(self.opacity)
    }

    /// 3D covariance `Σ = R S Sᵀ Rᵀ` (Eq. 1), built as `(R S)(R S)ᵀ`.
    pub fn covariance(&self) -> Sym3 {
        let m = self.rotation.to_rotation_matrix() * Mat3::from_diagonal(self.scale());
        Sym3::from_m_mt(&m)
    }
}

/// The activations of one Gaussian's raw scale and rotation parameters that
/// cost a libm call or a square root and a division chain: what Step ❶
/// computes on the way to the 2D covariance and Step ❺ would otherwise
/// compute again.
///
/// Step ❶ stores one per visible slot (`Projection::activations`); Step ❺
/// of the same iteration reads it back rather than activating the
/// parameters a second time — the paper's R&B idea (the backward step reuses
/// what the forward step already computed) applied to preprocessing. The
/// rotation matrix and the covariance are a few dozen lane-wide flops from
/// these eight floats and are rebuilt rather than stored (three times the
/// bytes per slot, for less than the time it takes to load them).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Activation {
    /// [`Gaussian3d::scale`]: `exp(log_scale)`.
    pub(crate) scale: Vec3,
    /// Norm of the raw rotation quaternion.
    pub(crate) rotation_norm: f32,
    /// The raw rotation quaternion normalized ([`Quat::normalized`]).
    pub(crate) unit_rotation: Quat,
}

#[cfg(test)]
impl Activation {
    /// The scalar definition: every field is what the named [`Gaussian3d`] /
    /// [`Quat`] method returns. Production never calls it — the projection
    /// lane kernel computes the same bits (property-tested against this).
    pub(crate) fn of(g: &Gaussian3d) -> Self {
        Self {
            scale: g.scale(),
            rotation_norm: g.rotation.norm(),
            unit_rotation: g.rotation.normalized(),
        }
    }
}

/// Gradient of the loss with respect to one Gaussian's parameters, in the
/// same (pre-activation) parameterization as [`Gaussian3d`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GaussianGrad {
    /// `dL/dμ` (world frame).
    pub position: Vec3,
    /// `dL/d log_scale`.
    pub log_scale: Vec3,
    /// `dL/dq` for the raw quaternion parameters `(w, x, y, z)`.
    pub rotation: [f32; 4],
    /// `dL/d opacity-logit`.
    pub opacity: f32,
    /// `dL/d color`.
    pub color: Vec3,
    /// `‖dL/dΣ‖_F` of the world-frame covariance gradient: the covariance
    /// half of the paper's importance score (Eq. 7), recorded during
    /// backpropagation so pruning reuses it at zero extra cost.
    pub cov_frobenius: f32,
}

impl GaussianGrad {
    /// Accumulates another gradient contribution.
    pub fn accumulate(&mut self, rhs: &GaussianGrad) {
        self.position += rhs.position;
        self.log_scale += rhs.log_scale;
        for i in 0..4 {
            self.rotation[i] += rhs.rotation[i];
        }
        self.opacity += rhs.opacity;
        self.color += rhs.color;
        self.cov_frobenius += rhs.cov_frobenius;
    }

    /// The paper's Gaussian importance score (Eq. 7):
    /// `‖dL/dμ‖ + λ · ‖dL/dΣ‖`.
    pub fn importance_score(&self, lambda: f32) -> f32 {
        self.position.norm() + lambda * self.cov_frobenius
    }
}

/// A collection of 3D Gaussians representing a scene.
#[derive(Debug, Clone, Default)]
pub struct GaussianScene {
    /// The Gaussians. Indices into this vector are the Gaussian IDs used
    /// across the renderer, the SLAM pipeline and the hardware traces.
    pub gaussians: Vec<Gaussian3d>,
}

impl GaussianScene {
    /// An empty scene.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scene from a list of Gaussians.
    pub fn from_gaussians(gaussians: Vec<Gaussian3d>) -> Self {
        Self { gaussians }
    }

    /// Number of Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// True when the scene has no Gaussians.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Zeroed gradient buffer sized for this scene.
    pub fn zero_grads(&self) -> Vec<GaussianGrad> {
        vec![GaussianGrad::default(); self.gaussians.len()]
    }
}

impl FromIterator<Gaussian3d> for GaussianScene {
    fn from_iter<T: IntoIterator<Item = Gaussian3d>>(iter: T) -> Self {
        Self {
            gaussians: iter.into_iter().collect(),
        }
    }
}

impl Extend<Gaussian3d> for GaussianScene {
    fn extend<T: IntoIterator<Item = Gaussian3d>>(&mut self, iter: T) {
        self.gaussians.extend(iter);
    }
}

/// Generators shared by the lane-kernel property tests of `project` and
/// `backward`.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use proptest::prelude::*;

    /// A Gaussian anywhere around a camera at the origin looking down +z —
    /// inside the frustum, beside it, behind the near plane — with scales
    /// from a millimetre to two metres and a raw (non-unit) quaternion.
    pub(crate) fn arb_gaussian() -> impl Strategy<Value = Gaussian3d> {
        (
            (-3.0f32..3.0, -2.0f32..2.0, -1.0f32..6.0),
            (-7.0f32..0.7, -7.0f32..0.7, -7.0f32..0.7),
            (-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0),
            -4.0f32..4.0,
            (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
        )
            .prop_map(
                |((x, y, z), (sx, sy, sz), (qw, qx, qy, qz), o, (r, g, b))| Gaussian3d {
                    position: Vec3::new(x, y, z),
                    log_scale: Vec3::new(sx, sy, sz),
                    rotation: Quat::new(qw, qx, qy, qz),
                    opacity: o,
                    color: Vec3::new(r, g, b),
                },
            )
    }

    /// The 75×42 camera every benchmark session renders with.
    pub(crate) fn session_camera() -> crate::PinholeCamera {
        crate::PinholeCamera::from_fov(75, 42, 1.2)
    }

    /// A world-to-camera pose with all nine rotation entries and the
    /// translation non-zero.
    pub(crate) fn tilted_pose() -> rtgs_math::Se3 {
        rtgs_math::Se3::new(
            Quat::from_axis_angle(Vec3::new(0.3, -0.5, 0.2), 0.35),
            Vec3::new(0.1, -0.05, 0.3),
        )
    }

    /// `n` (at most 8) distinct, finite Gaussians, each visible from the
    /// identity pose and from [`tilted_pose`] through [`session_camera`].
    pub(crate) fn visible_gaussians(n: usize) -> Vec<Gaussian3d> {
        assert!(n <= 8);
        (0..n)
            .map(|i| {
                let f = i as f32;
                Gaussian3d {
                    position: Vec3::new(0.1 * f - 0.4, 0.2 - 0.05 * f, 1.4 + 0.3 * f),
                    log_scale: Vec3::new(-2.0 - 0.1 * f, -1.5 + 0.05 * f, -2.5),
                    rotation: Quat::new(0.9, 0.1 * f, -0.3, 0.2 + 0.05 * f),
                    opacity: 0.4 * f - 1.0,
                    color: Vec3::new(0.1 * f, 0.5, 0.9 - 0.1 * f),
                }
            })
            .collect()
    }

    /// `a == b` on bits, or both NaN (whose payloads the hardware is free
    /// to pick between when two NaNs meet).
    pub(crate) fn same_float(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gaussian() -> Gaussian3d {
        Gaussian3d::from_activated(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.1, 0.2, 0.3),
            Quat::from_axis_angle(Vec3::Z, 0.5),
            0.7,
            Vec3::new(0.9, 0.5, 0.1),
        )
    }

    #[test]
    fn activation_roundtrip() {
        let g = sample_gaussian();
        assert!((g.scale() - Vec3::new(0.1, 0.2, 0.3)).max_abs() < 1e-6);
        assert!((g.opacity_activated() - 0.7).abs() < 1e-5);
    }

    #[test]
    fn covariance_is_positive_definite() {
        let g = sample_gaussian();
        let cov = g.covariance();
        for v in [Vec3::X, Vec3::Y, Vec3::Z] {
            assert!(v.dot(cov.mul_vec(v)) > 0.0);
        }
    }

    #[test]
    fn covariance_of_axis_aligned_gaussian_is_diagonal() {
        let g = Gaussian3d::from_activated(
            Vec3::ZERO,
            Vec3::new(0.5, 1.0, 2.0),
            Quat::IDENTITY,
            0.5,
            Vec3::splat(0.5),
        );
        let cov = g.covariance();
        assert!((cov.xx - 0.25).abs() < 1e-5);
        assert!((cov.yy - 1.0).abs() < 1e-5);
        assert!((cov.zz - 4.0).abs() < 1e-4);
        assert!(cov.xy.abs() < 1e-6 && cov.xz.abs() < 1e-6 && cov.yz.abs() < 1e-6);
    }

    #[test]
    fn grad_accumulation_sums_fields() {
        let mut a = GaussianGrad {
            position: Vec3::X,
            opacity: 1.0,
            ..Default::default()
        };
        let b = GaussianGrad {
            position: Vec3::Y,
            opacity: 2.0,
            cov_frobenius: 0.5,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.position, Vec3::new(1.0, 1.0, 0.0));
        assert_eq!(a.opacity, 3.0);
        assert_eq!(a.cov_frobenius, 0.5);
    }

    #[test]
    fn importance_score_combines_position_and_cov() {
        let g = GaussianGrad {
            position: Vec3::new(3.0, 4.0, 0.0),
            cov_frobenius: 2.0,
            ..Default::default()
        };
        assert!((g.importance_score(0.5) - 6.0).abs() < 1e-6);
        assert!((g.importance_score(0.0) - 5.0).abs() < 1e-6);
    }
}
