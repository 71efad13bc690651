//! SE(3) rigid-body transforms with exponential/logarithm maps.
//!
//! Camera poses are optimized on the SE(3) manifold: tracking computes a
//! gradient in the 6-dof tangent space (translation first, then rotation)
//! and retracts with [`Se3::retract`]. Exp/log run in `f64` internally for
//! stability near zero angle.

use crate::{Mat3, Quat, Vec3};

/// A rigid-body transform `x ↦ R x + t` (camera-to-world by convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Se3 {
    /// Rotation component.
    pub rotation: Quat,
    /// Translation component.
    pub translation: Vec3,
}

impl Se3 {
    /// The identity transform.
    pub const IDENTITY: Self = Self {
        rotation: Quat::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a transform from rotation and translation.
    #[inline]
    pub fn new(rotation: Quat, translation: Vec3) -> Self {
        Self {
            rotation: rotation.normalized(),
            translation,
        }
    }

    /// A pure translation.
    #[inline]
    pub fn from_translation(translation: Vec3) -> Self {
        Self::new(Quat::IDENTITY, translation)
    }

    /// A pure rotation.
    #[inline]
    pub fn from_rotation(rotation: Quat) -> Self {
        Self::new(rotation, Vec3::ZERO)
    }

    /// Applies the transform to a point.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec3 {
        self.rotation.rotate(p) + self.translation
    }

    /// Applies only the rotation (for directions).
    #[inline]
    pub fn transform_direction(&self, d: Vec3) -> Vec3 {
        self.rotation.rotate(d)
    }

    /// The inverse transform.
    #[inline]
    pub fn inverse(&self) -> Self {
        let rot_inv = self.rotation.conjugate().normalized();
        Self {
            rotation: rot_inv,
            translation: -rot_inv.rotate(self.translation),
        }
    }

    /// Composition: `(self ∘ rhs)(x) = self(rhs(x))`.
    #[inline]
    pub fn compose(&self, rhs: &Se3) -> Self {
        Self {
            rotation: (self.rotation * rhs.rotation).normalized(),
            translation: self.rotation.rotate(rhs.translation) + self.translation,
        }
    }

    /// The rotation as a matrix.
    #[inline]
    pub fn rotation_matrix(&self) -> Mat3 {
        self.rotation.to_rotation_matrix()
    }

    /// Exponential map from a twist `ξ = (ρ, φ)` — translation part `ρ`
    /// first, rotation part `φ` (axis-angle) second.
    #[inline]
    pub fn exp(xi: [f32; 6]) -> Self {
        let rho = Vec3::new(xi[0], xi[1], xi[2]);
        let phi = Vec3::new(xi[3], xi[4], xi[5]);
        let theta = phi.norm() as f64;
        let rotation = Quat::from_axis_angle(phi, phi.norm());

        // V matrix: t = V * rho
        let v = if theta < 1e-6 {
            Mat3::IDENTITY + Mat3::skew(phi).scale(0.5)
        } else {
            let t = theta;
            let a = ((1.0 - t.cos()) / (t * t)) as f32;
            let b = ((t - t.sin()) / (t * t * t)) as f32;
            let skew = Mat3::skew(phi);
            Mat3::IDENTITY + skew.scale(a) + (skew * skew).scale(b)
        };
        Self {
            rotation,
            translation: v.mul_vec(rho),
        }
    }

    /// Logarithm map to a twist `(ρ, φ)`; inverse of [`Se3::exp`].
    #[inline]
    pub fn log(&self) -> [f32; 6] {
        let q = self.rotation.normalized();
        let w = (q.w as f64).clamp(-1.0, 1.0);
        let vec_norm = ((q.x as f64).powi(2) + (q.y as f64).powi(2) + (q.z as f64).powi(2)).sqrt();
        let theta = 2.0 * vec_norm.atan2(w);
        let phi = if vec_norm < 1e-12 {
            Vec3::ZERO
        } else {
            Vec3::new(q.x, q.y, q.z) * ((theta / vec_norm) as f32)
        };

        let v_inv = if theta.abs() < 1e-6 {
            Mat3::IDENTITY - Mat3::skew(phi).scale(0.5)
        } else {
            let t = theta;
            let half = t / 2.0;
            let cot_term = (1.0 / (t * t) - half.cos() / (2.0 * t * half.sin())) as f32;
            let skew = Mat3::skew(phi);
            Mat3::IDENTITY - skew.scale(0.5) + (skew * skew).scale(cot_term)
        };
        let rho = v_inv.mul_vec(self.translation);
        [rho.x, rho.y, rho.z, phi.x, phi.y, phi.z]
    }

    /// Left-multiplicative retraction: `exp(δ) ∘ self`.
    ///
    /// This is the update used by tracking: the pose gradient lives in the
    /// tangent space at the current estimate.
    #[inline]
    pub fn retract(&self, delta: [f32; 6]) -> Self {
        Se3::exp(delta).compose(self)
    }

    /// Translation distance to another pose.
    #[inline]
    pub fn translation_distance(&self, other: &Se3) -> f32 {
        (self.translation - other.translation).norm()
    }

    /// Rotation angle (radians) to another pose.
    #[inline]
    pub fn rotation_distance(&self, other: &Se3) -> f32 {
        self.rotation.angle_to(other.rotation)
    }
}

impl Default for Se3 {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::FRAC_PI_3;

    fn approx_pose(a: &Se3, b: &Se3, tol: f32) {
        assert!(
            a.translation_distance(b) < tol,
            "translation {} vs {}",
            a.translation,
            b.translation
        );
        assert!(a.rotation_distance(b) < tol, "rotation distance too large");
    }

    #[test]
    fn identity_transforms_nothing() {
        let p = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(Se3::IDENTITY.transform_point(p), p);
    }

    #[test]
    fn inverse_undoes_transform() {
        let t = Se3::new(
            Quat::from_axis_angle(Vec3::new(0.1, 0.9, -0.3), 0.8),
            Vec3::new(1.0, 2.0, -0.5),
        );
        let p = Vec3::new(0.4, -0.7, 2.0);
        let back = t.inverse().transform_point(t.transform_point(p));
        assert!((back - p).max_abs() < 1e-5);
    }

    #[test]
    fn compose_associates_with_application() {
        let a = Se3::new(
            Quat::from_axis_angle(Vec3::Z, 0.5),
            Vec3::new(1.0, 0.0, 0.0),
        );
        let b = Se3::new(
            Quat::from_axis_angle(Vec3::X, -0.3),
            Vec3::new(0.0, 2.0, 0.0),
        );
        let p = Vec3::new(0.3, 0.4, 0.5);
        let via_compose = a.compose(&b).transform_point(p);
        let via_sequence = a.transform_point(b.transform_point(p));
        assert!((via_compose - via_sequence).max_abs() < 1e-5);
    }

    #[test]
    fn exp_log_roundtrip() {
        let xi = [0.3f32, -0.2, 0.5, 0.1, 0.4, -0.25];
        let pose = Se3::exp(xi);
        let back = pose.log();
        for i in 0..6 {
            assert!(
                (xi[i] - back[i]).abs() < 1e-4,
                "component {i}: {} vs {}",
                xi[i],
                back[i]
            );
        }
    }

    #[test]
    fn exp_log_roundtrip_small_angle() {
        let xi = [1e-8f32, 2e-8, -1e-8, 1e-9, -2e-9, 1e-9];
        let back = Se3::exp(xi).log();
        for (a, b) in xi.iter().zip(back.iter()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn exp_of_zero_is_identity() {
        approx_pose(&Se3::exp([0.0; 6]), &Se3::IDENTITY, 1e-7);
    }

    #[test]
    fn exp_pure_rotation() {
        let pose = Se3::exp([0.0, 0.0, 0.0, 0.0, 0.0, FRAC_PI_3]);
        assert!(pose.translation.max_abs() < 1e-6);
        assert!((pose.rotation.angle_to(Quat::IDENTITY) - FRAC_PI_3).abs() < 1e-5);
    }

    #[test]
    fn exp_pure_translation() {
        let pose = Se3::exp([1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        approx_pose(
            &pose,
            &Se3::from_translation(Vec3::new(1.0, 2.0, 3.0)),
            1e-6,
        );
    }

    #[test]
    fn retract_zero_is_noop() {
        let pose = Se3::new(
            Quat::from_axis_angle(Vec3::Y, 1.0),
            Vec3::new(3.0, 1.0, 2.0),
        );
        approx_pose(&pose.retract([0.0; 6]), &pose, 1e-6);
    }

    #[test]
    fn retract_small_translation_moves_pose() {
        let pose = Se3::IDENTITY;
        let moved = pose.retract([0.01, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!((moved.translation.x - 0.01).abs() < 1e-6);
    }

    #[test]
    fn distances_are_symmetric() {
        let a = Se3::new(
            Quat::from_axis_angle(Vec3::X, 0.2),
            Vec3::new(1.0, 0.0, 0.0),
        );
        let b = Se3::new(
            Quat::from_axis_angle(Vec3::X, 0.5),
            Vec3::new(0.0, 1.0, 0.0),
        );
        assert!((a.translation_distance(&b) - b.translation_distance(&a)).abs() < 1e-6);
        assert!((a.rotation_distance(&b) - b.rotation_distance(&a)).abs() < 1e-6);
    }
}
