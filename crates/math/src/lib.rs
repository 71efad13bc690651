//! Linear-algebra and Lie-group primitives used throughout the RTGS
//! reproduction.
//!
//! The crate is deliberately small and dependency-free: rendering math runs
//! in `f32` (mirroring GPU practice in the paper's CUDA kernels), while pose
//! math ([`Se3`]) keeps `f32` storage but performs exp/log in `f64` for
//! stability.
//!
//! Every arithmetic method of the value types is `#[inline]`: the callers that matter
//! sit in other crates (the scalar definitions of `rtgs-render`'s
//! per-Gaussian stages chain a dozen 3×3 products per Gaussian) and a build
//! without LTO would otherwise pay an opaque call for each. Floating-point
//! sums are spelled out term by term, left to right — never
//! `Iterator::sum`, whose starting value differs between toolchains — so
//! the order is part of each method's contract: `rtgs-render`'s lane
//! kernels reproduce [`Mat3`]'s and [`Mat2`]'s products, [`Vec3::dot`] and
//! [`Quat::to_rotation_matrix`] expression for expression and are tested
//! bit for bit against them.
//!
//! # Example
//!
//! ```
//! use rtgs_math::{Vec3, Se3};
//!
//! let pose = Se3::from_translation(Vec3::new(1.0, 0.0, 0.0));
//! let p = pose.transform_point(Vec3::ZERO);
//! assert_eq!(p, Vec3::new(1.0, 0.0, 0.0));
//! ```

mod exp;
mod mat;
mod quat;
mod se3;
mod sym;
mod vec;

pub use exp::exp_nonpos;
pub use mat::{Mat2, Mat3};
pub use quat::Quat;
pub use se3::Se3;
pub use sym::{Sym2, Sym3};
pub use vec::{Vec2, Vec3, Vec4};

/// Clamps `x` into `[lo, hi]`.
///
/// Unlike [`f32::clamp`] this does not panic when `lo > hi`; the lower bound
/// wins, which is the behaviour wanted when bounds are derived from noisy
/// data.
#[inline]
pub fn clamp(x: f32, lo: f32, hi: f32) -> f32 {
    if x < lo {
        lo
    } else if x > hi {
        hi
    } else {
        x
    }
}

/// Numerically safe sigmoid, used for opacity activations.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of [`sigmoid`]; input is clamped away from {0, 1}.
#[inline]
pub fn logit(p: f32) -> f32 {
    let p = clamp(p, 1e-6, 1.0 - 1e-6);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_orders_bounds() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn sigmoid_matches_definition() {
        for &x in &[-10.0f32, -1.0, 0.0, 1.0, 10.0] {
            let expect = 1.0 / (1.0 + (-x).exp());
            assert!((sigmoid(x) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &p in &[0.01f32, 0.2, 0.5, 0.8, 0.99] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-5);
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0).is_finite());
    }
}
