//! Small dense square matrices (row-major).

use crate::{Vec2, Vec3};
use std::ops::{Add, Mul, Sub};

/// A 2×2 `f32` matrix, row-major.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat2 {
    /// Rows of the matrix.
    pub m: [[f32; 2]; 2],
}

impl Mat2 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0], [0.0, 1.0]],
    };

    /// Creates a matrix from row-major entries.
    #[inline]
    pub const fn new(m00: f32, m01: f32, m10: f32, m11: f32) -> Self {
        Self {
            m: [[m00, m01], [m10, m11]],
        }
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f32 {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// Matrix inverse, or `None` when the determinant magnitude is below
    /// `1e-12`.
    #[inline]
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-12 {
            return None;
        }
        let inv = 1.0 / d;
        Some(Self::new(
            self.m[1][1] * inv,
            -self.m[0][1] * inv,
            -self.m[1][0] * inv,
            self.m[0][0] * inv,
        ))
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        Self::new(self.m[0][0], self.m[1][0], self.m[0][1], self.m[1][1])
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec2) -> Vec2 {
        Vec2::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y,
            self.m[1][0] * v.x + self.m[1][1] * v.y,
        )
    }
}

impl Mul for Mat2 {
    type Output = Self;
    /// Each entry is `a[i][0]·b[0][j] + a[i][1]·b[1][j]`, added left to
    /// right — spelled out rather than `Iterator::sum`, whose starting
    /// value (and with it the sign of an all-zero sum) differs between
    /// toolchains.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (&self.m, &rhs.m);
        let mut out = [[0.0f32; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
            }
        }
        Self { m: out }
    }
}

/// A 3×3 `f32` matrix, row-major. Used for rotations and covariance
/// transforms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Mat3 {
    /// Rows of the matrix.
    pub m: [[f32; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Self = Self {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from rows.
    #[inline]
    pub const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Self { m: [r0, r1, r2] }
    }

    /// Creates a diagonal matrix.
    #[inline]
    pub fn from_diagonal(d: Vec3) -> Self {
        Self::from_rows([d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z])
    }

    /// Returns row `i` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 3`.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Returns column `j` as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= 3`.
    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Transpose.
    #[inline]
    pub fn transpose(&self) -> Self {
        let mut out = [[0.0f32; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.m[j][i];
            }
        }
        Self { m: out }
    }

    /// Determinant.
    #[inline]
    pub fn det(&self) -> f32 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse via the adjugate, or `None` when the determinant
    /// magnitude is below `1e-18`.
    #[inline]
    pub fn inverse(&self) -> Option<Self> {
        let d = self.det();
        if d.abs() < 1e-18 {
            return None;
        }
        let m = &self.m;
        let inv = 1.0 / d;
        let c = |a: f32, b: f32, cc: f32, dd: f32| (a * dd - b * cc) * inv;
        Some(Self::from_rows(
            [
                c(m[1][1], m[1][2], m[2][1], m[2][2]),
                c(m[0][2], m[0][1], m[2][2], m[2][1]),
                c(m[0][1], m[0][2], m[1][1], m[1][2]),
            ],
            [
                c(m[1][2], m[1][0], m[2][2], m[2][0]),
                c(m[0][0], m[0][2], m[2][0], m[2][2]),
                c(m[0][2], m[0][0], m[1][2], m[1][0]),
            ],
            [
                c(m[1][0], m[1][1], m[2][0], m[2][1]),
                c(m[0][1], m[0][0], m[2][1], m[2][0]),
                c(m[0][0], m[0][1], m[1][0], m[1][1]),
            ],
        ))
    }

    /// Matrix–vector product.
    #[inline]
    pub fn mul_vec(&self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }

    /// Outer product `a * b^T`.
    #[inline]
    pub fn outer(a: Vec3, b: Vec3) -> Self {
        Self::from_rows(
            [a.x * b.x, a.x * b.y, a.x * b.z],
            [a.y * b.x, a.y * b.y, a.y * b.z],
            [a.z * b.x, a.z * b.y, a.z * b.z],
        )
    }

    /// Skew-symmetric cross-product matrix `[v]_×` with `[v]_× w = v × w`.
    #[inline]
    pub fn skew(v: Vec3) -> Self {
        Self::from_rows([0.0, -v.z, v.y], [v.z, 0.0, -v.x], [-v.y, v.x, 0.0])
    }

    /// Sum of diagonal entries.
    #[inline]
    pub fn trace(&self) -> f32 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }

    /// Scales every entry.
    #[inline]
    pub fn scale(&self, s: f32) -> Self {
        let mut out = *self;
        for row in &mut out.m {
            for v in row {
                *v *= s;
            }
        }
        out
    }
}

impl Mul for Mat3 {
    type Output = Self;
    /// Each entry is `a[i][0]·b[0][j] + a[i][1]·b[1][j] + a[i][2]·b[2][j]`,
    /// added left to right (spelled out for the reason given at
    /// [`Mat2`]'s product; the per-Gaussian lane kernels of `rtgs-render`
    /// reproduce exactly this order).
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let (a, b) = (&self.m, &rhs.m);
        let mut out = [[0.0f32; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j];
            }
        }
        Self { m: out }
    }
}

impl Add for Mat3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] += rhs.m[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] -= rhs.m[i][j];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn mat2_inverse_roundtrip() {
        let m = Mat2::new(2.0, 1.0, 1.0, 3.0);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        assert!(approx(id.m[0][0], 1.0) && approx(id.m[1][1], 1.0));
        assert!(approx(id.m[0][1], 0.0) && approx(id.m[1][0], 0.0));
    }

    #[test]
    fn mat2_singular_returns_none() {
        assert!(Mat2::new(1.0, 2.0, 2.0, 4.0).inverse().is_none());
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let m = Mat3::from_rows([2.0, 0.5, 0.1], [0.0, 1.5, -0.2], [0.3, 0.0, 1.0]);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    approx(id.m[i][j], expect),
                    "entry ({i},{j}) = {}",
                    id.m[i][j]
                );
            }
        }
    }

    #[test]
    fn mat3_det_of_identity() {
        assert_eq!(Mat3::IDENTITY.det(), 1.0);
        assert!(Mat3::from_diagonal(Vec3::splat(2.0)).det() - 8.0 < 1e-6);
    }

    #[test]
    fn mat3_transpose_involution() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().m[0][1], 4.0);
    }

    #[test]
    fn skew_matches_cross_product() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        let w = Vec3::new(0.3, 0.7, -1.1);
        let lhs = Mat3::skew(v).mul_vec(w);
        let rhs = v.cross(w);
        assert!((lhs - rhs).max_abs() < 1e-6);
    }

    #[test]
    fn outer_product_entries() {
        let m = Mat3::outer(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.m[1][2], 12.0);
        assert_eq!(m.m[2][0], 12.0);
        assert_eq!(m.m[0][0], 4.0);
    }

    #[test]
    fn mat3_row_col_access() {
        let m = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), Vec3::new(4.0, 5.0, 6.0));
        assert_eq!(m.col(2), Vec3::new(3.0, 6.0, 9.0));
        assert_eq!(m.trace(), 15.0);
    }

    #[test]
    fn mat3_mul_vec_identity() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Mat3::IDENTITY.mul_vec(v), v);
    }
}
