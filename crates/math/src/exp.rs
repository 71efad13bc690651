//! The workspace's one `exp`: a pure-`f32` exponential for non-positive
//! arguments, written so that a loop over a fixed-size array of lanes
//! vectorises and every lane computes exactly what the scalar call computes.
//!
//! `f32::exp` is a libm call — opaque to the vectoriser and free to differ
//! between platforms. A Gaussian splat's weight `G = exp(−q/2)` is evaluated
//! for every fragment of every frame, so the render kernels (and their
//! oracles, which must agree bit for bit) all go through [`exp_nonpos`]
//! instead.

/// `log₂ e`.
const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// Cody–Waite split of `ln 2`: the high part has nine significant bits, so
/// `n · LN2_HI` is exact for every `|n| ≤ 2¹⁵`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it to a float of magnitude below `2²²` rounds that
/// float to the nearest integer (ties to even) in the sum's low mantissa
/// bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `2⁻²⁴`, the constant second factor of the scale.
const TWO_POW_MINUS_24: f32 = 1.0 / 16_777_216.0;
/// Arguments below this give the same result as this: `2⁻¹⁵⁰`-ish, which
/// rounds to zero. Keeps `n` inside the range the exponent arithmetic
/// covers for any input, `−∞` included.
const ARG_MIN: f32 = -104.0;

/// `eˣ` for `x ≤ 0`, within 2 ulp of the real value (subnormal results
/// included), exactly `1.0` at `±0`, `+0.0` for `x ≤ −104`, NaN for NaN.
///
/// Every step is an `f32` add, multiply, compare-select or integer
/// shift — no table, no branch, no libm — and Rust never contracts `a·b + c`
/// into a fused multiply-add, so a lane loop around this function and a
/// scalar call produce the same bits on every target.
///
/// The method: `n = round(x·log₂e)` by the magic-number trick, the reduced
/// argument `r = x − n·ln 2` with `ln 2` split in two (Cody–Waite, `|r| ≤
/// ½·ln 2`), a degree-6 polynomial for `eʳ`, and the scale `2ⁿ` built by
/// shifting `n` into the exponent field — in two factors, `2ⁿ⁺²⁴` and the
/// constant `2⁻²⁴`, so that a subnormal result is reached by one correctly
/// rounded multiply of an exact normal product.
///
/// Positive arguments are outside the contract (the result overflows the
/// exponent arithmetic above `x ≈ 88`).
///
/// Cost note: where the result is subnormal or underflows (`x < −87.3`) the
/// final multiplies take the CPU's subnormal path — an order of magnitude
/// slower per call on current x86 parts. The render kernels never go there
/// (they evaluate admitted lanes only, `x ≥ −5.6`); a caller that feeds
/// far-out arguments in bulk, as the AoS oracle does, pays for it.
#[inline]
pub fn exp_nonpos(x: f32) -> f32 {
    // `ARG_MIN.max(x)` spelled as the compare-select it vectorises to; a NaN
    // `x` fails the compare and stays.
    let x = if x < ARG_MIN { ARG_MIN } else { x };
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // eʳ = 1 + r + r²·P(r), P of degree 5 with the minimax coefficients of
    // Cephes `expf`, evaluated pairwise (Estrin) rather than by Horner's
    // rule: the same count of operations in a dependency chain half as
    // long, which is what a lane loop waits on.
    let r2 = r * r;
    let r4 = r2 * r2;
    let p01 = 1.666_666_5e-1 * r + 0.5;
    let p23 = 8.333_452e-3 * r + 4.166_579_6e-2;
    let p45 = 1.987_569_1e-4 * r + 1.398_2e-3;
    let p = p45 * r4 + (p23 * r2 + p01);
    let e_r = p * r2 + r + 1.0;
    // The low mantissa bits of `shifted` hold `n` in two's complement (the
    // magic constant's own low bits are zero), so shifting them into the
    // exponent field, biased, builds the power of two. `n ≥ −150` here:
    // raised by 24 the factor stays normal, and lowering it again by the
    // constant `2⁻²⁴` is exact down to the smallest subnormal.
    let scale = f32::from_bits(shifted.to_bits().wrapping_add(127 + 24) << 23);
    e_r * (scale * TWO_POW_MINUS_24)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between `got` and the f64
    /// reference `want`, measured at `want`'s f32 binade (subnormal spacing
    /// below the smallest normal).
    fn ulp_error(got: f32, want: f64) -> f64 {
        let exponent = (want.abs().log2().floor() as i32).max(-126);
        let ulp = 2f64.powi(exponent - 23);
        (got as f64 - want).abs() / ulp
    }

    #[test]
    fn within_two_ulp_of_f64_over_the_whole_range() {
        // 1.8 M points over [−90, 0] (subnormal results below −87.3), plus a
        // finer sweep of the range a blended fragment can reach
        // (`q ≤ q_cut ≤ 2·ln 255 + margin`, so `x ≥ −5.55`).
        let mut worst = 0.0f64;
        let grids = [(90.0f32, 1_800_000u32), (6.0, 1_200_000)];
        for (span, steps) in grids {
            for i in 0..=steps {
                let x = -span * (i as f32 / steps as f32);
                let err = ulp_error(exp_nonpos(x), (x as f64).exp());
                assert!(err <= 2.0, "exp_nonpos({x}) is {err} ulp off");
                worst = worst.max(err);
            }
        }
        // The measured bound the `Q_CUT_MARGIN` argument in
        // `rtgs-render::forward` leans on; loosening the polynomial shows
        // up here first.
        assert!(worst < 1.0, "worst error {worst} ulp");
    }

    #[test]
    fn exact_and_special_values() {
        assert_eq!(exp_nonpos(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_nonpos(-0.0).to_bits(), 1.0f32.to_bits());
        assert!(exp_nonpos(f32::NAN).is_nan());
        assert_eq!(exp_nonpos(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp_nonpos(f32::MIN).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp_nonpos(-104.0).to_bits(), 0.0f32.to_bits());
        // The smallest subnormal is reached, not skipped.
        assert_eq!(exp_nonpos(-103.0), f32::from_bits(1));
    }

    #[test]
    fn lanes_match_the_scalar_call_bit_for_bit() {
        // The form the render kernels use: a fixed-size array loop the
        // compiler is free to vectorise (run in release by CI).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            let mut x = [0.0f32; 16];
            for lane in &mut x {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
                // Mostly the blend range, with far-out and subnormal lanes.
                *lane = -unit * if state & 0x300 == 0 { 120.0 } else { 8.0 };
            }
            let mut wide = [0.0f32; 16];
            for l in 0..16 {
                wide[l] = exp_nonpos(x[l]);
            }
            for l in 0..16 {
                let scalar = exp_nonpos(std::hint::black_box(x[l]));
                assert_eq!(
                    wide[l].to_bits(),
                    scalar.to_bits(),
                    "lane {l}, x = {}",
                    x[l]
                );
            }
        }
    }
}
