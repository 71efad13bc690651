//! Unit quaternions for Gaussian orientations.

use crate::{Mat3, Vec3};
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`.
///
/// Gaussian orientations store *unnormalized* quaternions as free
/// optimization parameters; [`Quat::to_rotation_matrix`] normalizes
/// internally, matching the reference 3DGS implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// i component.
    pub x: f32,
    /// j component.
    pub y: f32,
    /// k component.
    pub z: f32,
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Self = Self {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a quaternion from components.
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Creates a rotation of `angle` radians about the (not necessarily
    /// unit) `axis`. A zero axis yields the identity.
    #[inline]
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let n = axis.norm();
        if n < 1e-12 {
            return Self::IDENTITY;
        }
        let half = 0.5 * angle;
        let s = half.sin() / n;
        Self::new(half.cos(), axis.x * s, axis.y * s, axis.z * s)
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(self) -> f32 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Returns the unit quaternion with the same orientation; the identity
    /// when the norm is (numerically) zero.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n < 1e-12 {
            return Self::IDENTITY;
        }
        Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
    }

    /// The conjugate (inverse for unit quaternions).
    #[inline]
    pub fn conjugate(self) -> Self {
        Self::new(self.w, -self.x, -self.y, -self.z)
    }

    /// Converts to a rotation matrix, normalizing first.
    #[inline]
    pub fn to_rotation_matrix(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3::from_rows(
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        )
    }

    /// Rotates a vector (normalizes first).
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        self.to_rotation_matrix().mul_vec(v)
    }

    /// Builds a quaternion from a rotation matrix (Shepperd's method).
    ///
    /// The input is assumed to be a proper rotation; small orthogonality
    /// errors are absorbed by the final normalization.
    #[inline]
    pub fn from_rotation_matrix(m: &Mat3) -> Self {
        let t = m.trace();
        let q = if t > 0.0 {
            let s = (t + 1.0).sqrt() * 2.0;
            Self::new(
                0.25 * s,
                (m.m[2][1] - m.m[1][2]) / s,
                (m.m[0][2] - m.m[2][0]) / s,
                (m.m[1][0] - m.m[0][1]) / s,
            )
        } else if m.m[0][0] > m.m[1][1] && m.m[0][0] > m.m[2][2] {
            let s = (1.0 + m.m[0][0] - m.m[1][1] - m.m[2][2]).sqrt() * 2.0;
            Self::new(
                (m.m[2][1] - m.m[1][2]) / s,
                0.25 * s,
                (m.m[0][1] + m.m[1][0]) / s,
                (m.m[0][2] + m.m[2][0]) / s,
            )
        } else if m.m[1][1] > m.m[2][2] {
            let s = (1.0 + m.m[1][1] - m.m[0][0] - m.m[2][2]).sqrt() * 2.0;
            Self::new(
                (m.m[0][2] - m.m[2][0]) / s,
                (m.m[0][1] + m.m[1][0]) / s,
                0.25 * s,
                (m.m[1][2] + m.m[2][1]) / s,
            )
        } else {
            let s = (1.0 + m.m[2][2] - m.m[0][0] - m.m[1][1]).sqrt() * 2.0;
            Self::new(
                (m.m[1][0] - m.m[0][1]) / s,
                (m.m[0][2] + m.m[2][0]) / s,
                (m.m[1][2] + m.m[2][1]) / s,
                0.25 * s,
            )
        };
        q.normalized()
    }

    /// Angular distance in radians to another rotation.
    ///
    /// Computed as `2·atan2(‖vec(r)‖, |w(r)|)` of the relative rotation
    /// `r = a⁻¹·b`, which stays well-conditioned for small angles (the
    /// naive `2·acos(|a·b|)` amplifies f32 rounding to ~1e-3 rad near
    /// identity).
    #[inline]
    pub fn angle_to(self, other: Quat) -> f32 {
        let r = self.normalized().conjugate() * other.normalized();
        let vec_norm = (r.x * r.x + r.y * r.y + r.z * r.z).sqrt();
        2.0 * vec_norm.atan2(r.w.abs())
    }
}

impl Default for Quat {
    #[inline]
    fn default() -> Self {
        Self::IDENTITY
    }
}

impl Mul for Quat {
    type Output = Self;
    /// Hamilton product; composes rotations (`a * b` rotates by `b` then `a`).
    #[inline]
    fn mul(self, r: Self) -> Self {
        Self::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotation() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert!((Quat::IDENTITY.rotate(v) - v).max_abs() < 1e-6);
    }

    #[test]
    fn quarter_turn_about_z() {
        let q = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        let v = q.rotate(Vec3::X);
        assert!((v - Vec3::Y).max_abs() < 1e-6);
    }

    #[test]
    fn rotation_matrix_is_orthonormal() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 2.0, -0.5), 1.2);
        let r = q.to_rotation_matrix();
        let rt_r = r.transpose() * r;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((rt_r.m[i][j] - expect).abs() < 1e-5);
            }
        }
        assert!((r.det() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn matrix_roundtrip() {
        let q = Quat::from_axis_angle(Vec3::new(0.3, -0.8, 0.5), 2.4).normalized();
        let q2 = Quat::from_rotation_matrix(&q.to_rotation_matrix());
        // q and -q represent the same rotation
        assert!(q.angle_to(q2) < 1e-4);
    }

    #[test]
    fn composition_matches_matrix_product() {
        let a = Quat::from_axis_angle(Vec3::X, 0.7);
        let b = Quat::from_axis_angle(Vec3::Y, -1.1);
        let lhs = (a * b).to_rotation_matrix();
        let rhs = a.to_rotation_matrix() * b.to_rotation_matrix();
        for i in 0..3 {
            for j in 0..3 {
                assert!((lhs.m[i][j] - rhs.m[i][j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.0), 0.9);
        let v = Vec3::new(0.2, -0.4, 1.3);
        let back = q.conjugate().rotate(q.rotate(v));
        assert!((back - v).max_abs() < 1e-5);
    }

    #[test]
    fn angle_to_self_is_zero() {
        let q = Quat::from_axis_angle(Vec3::Z, 0.4);
        assert!(q.angle_to(q) < 1e-4);
        assert!((q.angle_to(Quat::IDENTITY) - 0.4).abs() < 1e-4);
    }

    #[test]
    fn zero_axis_gives_identity() {
        assert_eq!(Quat::from_axis_angle(Vec3::ZERO, 1.0), Quat::IDENTITY);
    }

    #[test]
    fn full_turn_is_identity_rotation() {
        let q = Quat::from_axis_angle(Vec3::Y, 2.0 * PI);
        let v = Vec3::new(1.0, 0.5, -2.0);
        assert!((q.rotate(v) - v).max_abs() < 1e-5);
    }

    #[test]
    fn unnormalized_quat_rotates_like_normalized() {
        let q = Quat::new(2.0, 0.0, 0.0, 2.0); // unnormalized 90° about z
        let v = q.rotate(Vec3::X);
        assert!((v - Vec3::Y).max_abs() < 1e-5);
    }
}
