//! Fixed-size `f32` vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

macro_rules! impl_vec_common {
    ($name:ident, $($f:ident),+) => {
        impl $name {
            /// The zero vector.
            pub const ZERO: Self = Self { $($f: 0.0),+ };

            /// Creates a vector from components.
            #[inline]
            pub const fn new($($f: f32),+) -> Self {
                Self { $($f),+ }
            }

            /// Creates a vector with every component set to `v`.
            #[inline]
            pub const fn splat(v: f32) -> Self {
                Self { $($f: v),+ }
            }

            /// Dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$f * rhs.$f)+
            }

            /// Euclidean norm.
            #[inline]
            pub fn norm(self) -> f32 {
                self.dot(self).sqrt()
            }

            /// Squared Euclidean norm (cheaper than [`Self::norm`]).
            #[inline]
            pub fn norm_squared(self) -> f32 {
                self.dot(self)
            }

            /// Returns the unit vector in the same direction, or zero when
            /// the norm is (numerically) zero.
            #[inline]
            pub fn normalized(self) -> Self {
                let n = self.norm();
                if n > 1e-12 { self / n } else { Self::ZERO }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($f: self.$f.min(rhs.$f)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($f: self.$f.max(rhs.$f)),+ }
            }

            /// Largest absolute component, useful for convergence tests.
            #[inline]
            pub fn max_abs(self) -> f32 {
                let mut m = 0.0f32;
                $( m = m.max(self.$f.abs()); )+
                m
            }

            /// True when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$f.is_finite())+
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($f: self.$f + rhs.$f),+ }
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                $(self.$f += rhs.$f;)+
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($f: self.$f - rhs.$f),+ }
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                $(self.$f -= rhs.$f;)+
            }
        }

        impl Mul<f32> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($f: self.$f * rhs),+ }
            }
        }

        impl MulAssign<f32> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                $(self.$f *= rhs;)+
            }
        }

        impl Mul<$name> for f32 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl Div<f32> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($f: self.$f / rhs),+ }
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }

        impl Default for $name {
            #[inline]
            fn default() -> Self {
                Self::ZERO
            }
        }
    };
}

/// A 2-component `f32` vector (pixel coordinates, 2D means).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

impl_vec_common!(Vec2, x, y);

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A 3-component `f32` vector (3D positions, RGB colors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

impl_vec_common!(Vec3, x, y, z);

impl Vec3 {
    /// Unit vector along +X.
    pub const X: Self = Self::new(1.0, 0.0, 0.0);
    /// Unit vector along +Y.
    pub const Y: Self = Self::new(0.0, 1.0, 0.0);
    /// Unit vector along +Z.
    pub const Z: Self = Self::new(0.0, 0.0, 1.0);

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Truncates to the XY components.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;
    #[inline]
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index {i} out of range"),
        }
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

/// A 4-component `f32` vector (homogeneous coordinates, RGBA).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl_vec_common!(Vec4, x, y, z, w);

impl Vec4 {
    /// Truncates to the XYZ components.
    #[inline]
    pub fn xyz(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }
}

impl fmt::Display for Vec4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.z, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn vec3_dot_and_cross() {
        let a = Vec3::X;
        let b = Vec3::Y;
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), Vec3::Z);
        assert_eq!(b.cross(a), -Vec3::Z);
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.5, 4.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-5);
        assert!(c.dot(b).abs() < 1e-5);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = Vec3::new(3.0, 4.0, 0.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn vec3_indexing() {
        let mut v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        v[2] = 9.0;
        assert_eq!(v.z, 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vec3_index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn min_max_componentwise() {
        let a = Vec2::new(1.0, 5.0);
        let b = Vec2::new(3.0, 2.0);
        assert_eq!(a.min(b), Vec2::new(1.0, 2.0));
        assert_eq!(a.max(b), Vec2::new(3.0, 5.0));
    }

    #[test]
    fn vec4_xyz_truncation() {
        let v = Vec4::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(v.xyz(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn conversion_roundtrip() {
        let v = Vec3::from([1.0, 2.0, 3.0]);
        let a: [f32; 3] = v.into();
        assert_eq!(a, [1.0, 2.0, 3.0]);
    }
}
