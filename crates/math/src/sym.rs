//! Symmetric matrices stored in compact (upper-triangular) form.
//!
//! The 3DGS pipeline manipulates covariance matrices, which are symmetric by
//! construction; storing only the unique entries halves memory traffic — the
//! same layout the paper's CUDA kernels (and our hardware trace model) use.

use crate::{Mat2, Mat3, Vec2, Vec3};
use std::ops::{Add, Mul};

/// A symmetric 2×2 matrix `[[xx, xy], [xy, yy]]` (2D covariance).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sym2 {
    /// Entry (0,0).
    pub xx: f32,
    /// Entry (0,1) == (1,0).
    pub xy: f32,
    /// Entry (1,1).
    pub yy: f32,
}

impl Sym2 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        xx: 1.0,
        xy: 0.0,
        yy: 1.0,
    };

    /// Creates a symmetric 2×2 matrix from its unique entries.
    #[inline]
    pub const fn new(xx: f32, xy: f32, yy: f32) -> Self {
        Self { xx, xy, yy }
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f32 {
        self.xx * self.yy - self.xy * self.xy
    }

    /// Inverse, or `None` when the determinant magnitude is below `1e-12`.
    #[inline]
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / d;
        Some(Self::new(self.yy * inv, -self.xy * inv, self.xx * inv))
    }

    /// Evaluates the quadratic form `v^T M v`.
    #[inline]
    pub fn quadratic_form(&self, v: Vec2) -> f32 {
        self.xx * v.x * v.x + 2.0 * self.xy * v.x * v.y + self.yy * v.y * v.y
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec2) -> Vec2 {
        Vec2::new(self.xx * v.x + self.xy * v.y, self.xy * v.x + self.yy * v.y)
    }

    /// Eigenvalues in descending order. Always real for symmetric matrices.
    #[inline]
    pub fn eigenvalues(&self) -> (f32, f32) {
        let mean = 0.5 * (self.xx + self.yy);
        let diff = 0.5 * (self.xx - self.yy);
        let r = (diff * diff + self.xy * self.xy).sqrt();
        (mean + r, mean - r)
    }

    /// True when the matrix is positive definite (both eigenvalues > 0).
    #[inline]
    pub fn is_positive_definite(&self) -> bool {
        self.xx > 0.0 && self.det() > 0.0
    }

    /// Expands to a full [`Mat2`].
    #[inline]
    pub fn to_mat2(self) -> Mat2 {
        Mat2::new(self.xx, self.xy, self.xy, self.yy)
    }

    /// Trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f32 {
        self.xx + self.yy
    }

    /// Frobenius norm, counting the off-diagonal entry twice.
    #[inline]
    pub fn frobenius_norm(&self) -> f32 {
        (self.xx * self.xx + 2.0 * self.xy * self.xy + self.yy * self.yy).sqrt()
    }
}

impl Add for Sym2 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.xx + rhs.xx, self.xy + rhs.xy, self.yy + rhs.yy)
    }
}

impl Mul<f32> for Sym2 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        Self::new(self.xx * s, self.xy * s, self.yy * s)
    }
}

/// A symmetric 3×3 matrix (3D covariance), upper-triangular storage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sym3 {
    /// Entry (0,0).
    pub xx: f32,
    /// Entry (0,1).
    pub xy: f32,
    /// Entry (0,2).
    pub xz: f32,
    /// Entry (1,1).
    pub yy: f32,
    /// Entry (1,2).
    pub yz: f32,
    /// Entry (2,2).
    pub zz: f32,
}

impl Sym3 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        xx: 1.0,
        xy: 0.0,
        xz: 0.0,
        yy: 1.0,
        yz: 0.0,
        zz: 1.0,
    };

    /// Creates a symmetric matrix from the six unique entries.
    #[inline]
    pub const fn new(xx: f32, xy: f32, xz: f32, yy: f32, yz: f32, zz: f32) -> Self {
        Self {
            xx,
            xy,
            xz,
            yy,
            yz,
            zz,
        }
    }

    /// Builds the symmetric matrix `M M^T` from an arbitrary 3×3 matrix `M`.
    ///
    /// This is the canonical construction of a 3D Gaussian covariance
    /// `Σ = R S S^T R^T` where `M = R S` (rotation times scale).
    #[inline]
    pub fn from_m_mt(m: &Mat3) -> Self {
        let r0 = m.row(0);
        let r1 = m.row(1);
        let r2 = m.row(2);
        Self::new(
            r0.dot(r0),
            r0.dot(r1),
            r0.dot(r2),
            r1.dot(r1),
            r1.dot(r2),
            r2.dot(r2),
        )
    }

    /// Expands to a full [`Mat3`].
    #[inline]
    pub fn to_mat3(self) -> Mat3 {
        Mat3::from_rows(
            [self.xx, self.xy, self.xz],
            [self.xy, self.yy, self.yz],
            [self.xz, self.yz, self.zz],
        )
    }

    /// Projects with a (possibly non-symmetric) matrix: `A Σ A^T`.
    ///
    /// Used by EWA splatting to push a 3D covariance through the affine
    /// approximation of the perspective projection.
    #[inline]
    pub fn congruence(&self, a: &Mat3) -> Sym3 {
        let full = *a * self.to_mat3() * a.transpose();
        Sym3::new(
            full.m[0][0],
            full.m[0][1],
            full.m[0][2],
            full.m[1][1],
            full.m[1][2],
            full.m[2][2],
        )
    }

    /// Drops the third row/column, yielding the image-plane 2D covariance.
    #[inline]
    pub fn top_left_2x2(&self) -> Sym2 {
        Sym2::new(self.xx, self.xy, self.yy)
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.xx * v.x + self.xy * v.y + self.xz * v.z,
            self.xy * v.x + self.yy * v.y + self.yz * v.z,
            self.xz * v.x + self.yz * v.y + self.zz * v.z,
        )
    }

    /// Trace (sum of diagonal entries).
    #[inline]
    pub fn trace(&self) -> f32 {
        self.xx + self.yy + self.zz
    }

    /// Frobenius norm counting off-diagonal entries twice.
    #[inline]
    pub fn frobenius_norm(&self) -> f32 {
        (self.xx * self.xx
            + self.yy * self.yy
            + self.zz * self.zz
            + 2.0 * (self.xy * self.xy + self.xz * self.xz + self.yz * self.yz))
            .sqrt()
    }
}

impl Add for Sym3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(
            self.xx + rhs.xx,
            self.xy + rhs.xy,
            self.xz + rhs.xz,
            self.yy + rhs.yy,
            self.yz + rhs.yz,
            self.zz + rhs.zz,
        )
    }
}

impl Mul<f32> for Sym3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        Self::new(
            self.xx * s,
            self.xy * s,
            self.xz * s,
            self.yy * s,
            self.yz * s,
            self.zz * s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym2_inverse_roundtrip() {
        let s = Sym2::new(2.0, 0.5, 1.5);
        let inv = s.inverse().unwrap();
        let prod = s.to_mat2() * inv.to_mat2();
        assert!((prod.m[0][0] - 1.0).abs() < 1e-5);
        assert!(prod.m[0][1].abs() < 1e-5);
    }

    #[test]
    fn sym2_quadratic_form_matches_explicit() {
        let s = Sym2::new(2.0, -0.3, 1.1);
        let v = Vec2::new(0.7, -1.2);
        let explicit = v.dot(s.to_mat2().mul_vec(v));
        assert!((s.quadratic_form(v) - explicit).abs() < 1e-5);
    }

    #[test]
    fn sym2_eigenvalues_of_diagonal() {
        let (l1, l2) = Sym2::new(3.0, 0.0, 1.0).eigenvalues();
        assert_eq!((l1, l2), (3.0, 1.0));
    }

    #[test]
    fn sym2_positive_definiteness() {
        assert!(Sym2::new(1.0, 0.0, 1.0).is_positive_definite());
        assert!(!Sym2::new(1.0, 2.0, 1.0).is_positive_definite());
        assert!(!Sym2::new(-1.0, 0.0, 1.0).is_positive_definite());
    }

    #[test]
    fn sym3_from_m_mt_is_psd() {
        let m = Mat3::from_rows([1.0, 0.2, 0.0], [0.0, 0.5, 0.1], [0.3, 0.0, 2.0]);
        let s = Sym3::from_m_mt(&m);
        // quadratic form of M M^T is |M^T v|^2 >= 0
        for v in [Vec3::X, Vec3::Y, Vec3::new(0.3, -0.7, 0.2)] {
            assert!(v.dot(s.mul_vec(v)) >= 0.0);
        }
    }

    #[test]
    fn sym3_congruence_matches_dense() {
        let s = Sym3::new(2.0, 0.1, -0.2, 1.5, 0.3, 0.8);
        let a = Mat3::from_rows([0.9, 0.1, 0.0], [-0.2, 1.1, 0.3], [0.0, 0.2, 0.7]);
        let dense = a * s.to_mat3() * a.transpose();
        let compact = s.congruence(&a).to_mat3();
        for i in 0..3 {
            for j in 0..3 {
                assert!((dense.m[i][j] - compact.m[i][j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn sym3_top_left() {
        let s = Sym3::new(1.0, 2.0, 3.0, 4.0, 5.0, 6.0);
        assert_eq!(s.top_left_2x2(), Sym2::new(1.0, 2.0, 4.0));
    }

    #[test]
    fn traces() {
        assert_eq!(Sym2::IDENTITY.trace(), 2.0);
        assert_eq!(Sym3::IDENTITY.trace(), 3.0);
    }

    #[test]
    fn frobenius_counts_off_diagonals_twice() {
        let s = Sym2::new(0.0, 1.0, 0.0);
        assert!((s.frobenius_norm() - 2.0f32.sqrt()).abs() < 1e-6);
    }
}
