//! The SLAM training loss (paper Eq. 6) and its per-pixel gradients.
//!
//! `L = λ_pho · E_pho + (1 − λ_pho) · E_geo`: a photometric residual over
//! RGB plus a geometric residual over rendered depth. The per-pixel
//! gradients produced here are the input to the backward pass
//! ([`crate::FrameArena::backward_visible_fused`]).

use crate::backward::PixelGrads;
use crate::camera::{DepthImage, Image};
use crate::forward::RenderOutput;
use rtgs_math::Vec3;
use rtgs_runtime::{Backend, SharedSlice};

/// Pixel rows per chunk of the loss loop.
const LOSS_ROWS: usize = 8;

/// Residual norm used for both loss terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LossKind {
    /// L1 (robust; the default in MonoGS-style pipelines).
    #[default]
    L1,
    /// L2 (smooth; used by the finite-difference gradient checks).
    L2,
}

/// Loss configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Weight of the photometric term, `λ_pho` in Eq. 6.
    pub lambda_pho: f32,
    /// Residual norm.
    pub kind: LossKind,
    /// Minimum opacity coverage for a pixel's depth residual to count
    /// (pixels the model has not yet covered carry no depth gradient).
    pub min_depth_coverage: f32,
}

impl Default for LossConfig {
    fn default() -> Self {
        Self {
            lambda_pho: 0.9,
            kind: LossKind::L1,
            min_depth_coverage: 0.5,
        }
    }
}

/// Loss value and its per-pixel gradients.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Total loss `L` (Eq. 6).
    pub loss: f32,
    /// Photometric term `E_pho`.
    pub photometric: f32,
    /// Geometric term `E_geo` (zero when no depth supervision).
    pub geometric: f32,
    /// Per-pixel upstream gradients for the backward pass.
    pub pixel_grads: PixelGrads,
}

impl LossOutput {
    /// A zero-sized output shell for arena storage; [`compute_loss_into`]
    /// resizes the gradient buffers to the frame before writing.
    pub(crate) fn empty() -> Self {
        Self {
            loss: 0.0,
            photometric: 0.0,
            geometric: 0.0,
            pixel_grads: PixelGrads::zeros(0, 0),
        }
    }
}

/// Computes the loss between a rendered frame and ground truth into
/// caller-owned storage.
///
/// `gt_depth` is optional: monocular pipelines (MonoGS on RGB) pass `None`
/// and the geometric term vanishes with its weight folded out.
///
/// The per-pixel residuals, gradients and loss terms are chunked over pixel
/// rows on `backend`; every pixel, valid for the depth term or not, is
/// written by the chunk that owns its row. The valid-depth-pixel count the
/// depth weight needs comes first, an integer sum. `E_pho` and `E_geo` are
/// then folded on the caller, in f64, from the per-pixel `f32` terms in
/// ascending pixel order — the same expressions in the same order on every
/// backend, so the loss bits do not depend on it.
///
/// The gradient buffers and the per-pixel term scratch are resized and
/// overwritten; once their capacities cover the frame, a steady-state loss
/// evaluation performs **no heap allocation**.
///
/// # Panics
///
/// Panics if image dimensions disagree.
pub(crate) fn compute_loss_into(
    rendered: &RenderOutput,
    gt_color: &Image,
    gt_depth: Option<&DepthImage>,
    config: &LossConfig,
    backend: &dyn Backend,
    terms: &mut Vec<[f32; 2]>,
    out: &mut LossOutput,
) {
    let w = rendered.image.width();
    let h = rendered.image.height();
    assert_eq!((gt_color.width(), gt_color.height()), (w, h), "color dims");
    if let Some(d) = gt_depth {
        assert_eq!((d.width(), d.height()), (w, h), "depth dims");
    }

    let n_pix = (w * h) as f32;
    let pho_weight = config.lambda_pho / (3.0 * n_pix);
    // Residual on the blend side: `r = D - c·D_gt` with `c` the opacity
    // coverage (1 - T_final). Ground-truth depth is a *surface* depth,
    // while the rasterizer produces an opacity-weighted blend `D ≈ c·d`;
    // comparing `D` to `D_gt` directly would leave a nonzero residual
    // even for a pixel-perfect reconstruction (biasing tracking away
    // from the true pose wherever coverage < 1). The `c`-dependence
    // backpropagates through the transmittance channel.
    let valid = |gt: f32, t: f32| gt > 0.0 && 1.0 - t >= config.min_depth_coverage;
    // Count valid pixels first so the normalization is well-defined.
    let n_valid = gt_depth.map_or(0, |d| {
        d.data()
            .iter()
            .zip(&rendered.final_transmittance)
            .filter(|&(&gt, &t)| valid(gt, t))
            .count()
    }) as f32;
    let geo_weight = (1.0 - config.lambda_pho) / n_valid;

    let grads = &mut out.pixel_grads;
    grads.color.resize(w * h, Vec3::ZERO);
    grads.depth.resize(w * h, 0.0);
    grads.transmittance.resize(w * h, 0.0);
    terms.resize(w * h, [0.0; 2]);
    {
        let color = SharedSlice::new(&mut grads.color);
        let depth = SharedSlice::new(&mut grads.depth);
        let transmittance = SharedSlice::new(&mut grads.transmittance);
        let terms = SharedSlice::new(terms);
        backend.for_each_chunk(h, LOSS_ROWS, &|_, rows| {
            let pixels = rows.start * w..rows.end * w;
            // SAFETY: row chunks are disjoint pixel ranges.
            let (color, depth, transmittance, terms) = unsafe {
                (
                    color.range_mut(pixels.clone()),
                    depth.range_mut(pixels.clone()),
                    transmittance.range_mut(pixels.clone()),
                    terms.range_mut(pixels.clone()),
                )
            };
            let rendered_color = &rendered.image.data()[pixels.clone()];
            let gt = &gt_color.data()[pixels.clone()];
            for (k, (&c, &gt)) in rendered_color.iter().zip(gt).enumerate() {
                let r = c - gt;
                terms[k][0] = match config.kind {
                    LossKind::L1 => {
                        color[k] = Vec3::new(sign(r.x), sign(r.y), sign(r.z)) * pho_weight;
                        (r.x.abs() + r.y.abs() + r.z.abs()) / (3.0 * n_pix)
                    }
                    LossKind::L2 => {
                        color[k] = r * (2.0 * pho_weight);
                        (r.x * r.x + r.y * r.y + r.z * r.z) / (3.0 * n_pix)
                    }
                };
            }
            let Some(gt_depth) = gt_depth else {
                depth.fill(0.0);
                transmittance.fill(0.0);
                terms.iter_mut().for_each(|t| t[1] = 0.0);
                return;
            };
            let gt = &gt_depth.data()[pixels.clone()];
            let rendered_depth = &rendered.depth.data()[pixels.clone()];
            let rendered_t = &rendered.final_transmittance[pixels];
            for k in 0..gt.len() {
                let (mut dl_dr, mut geo) = (0.0, 0.0);
                if valid(gt[k], rendered_t[k]) {
                    let r = rendered_depth[k] - (1.0 - rendered_t[k]) * gt[k];
                    // ∂r/∂D = 1 and, via c = 1 - T_final, ∂r/∂T_final = +gt.
                    (dl_dr, geo) = match config.kind {
                        LossKind::L1 => (sign(r) * geo_weight, r.abs() / n_valid),
                        LossKind::L2 => (2.0 * r * geo_weight, (r * r) / n_valid),
                    };
                }
                depth[k] = dl_dr;
                transmittance[k] = dl_dr * gt[k];
                terms[k][1] = geo;
            }
        });
    }

    // Invalid pixels add +0.0 to a sum of non-negative terms: no bit moves.
    let (mut e_pho, mut e_geo) = (0.0f64, 0.0f64);
    for &[pho, geo] in terms.iter() {
        e_pho += pho as f64;
        e_geo += geo as f64;
    }
    let photometric = e_pho as f32;
    let geometric = e_geo as f32;
    out.loss = config.lambda_pho * photometric + (1.0 - config.lambda_pho) * geometric;
    out.photometric = photometric;
    out.geometric = geometric;
}

/// `1.0` or `-1.0` by the sign of `x`, `0.0` for a zero or NaN `x`: the
/// sign bit copied onto `1.0`, masked off unless `|x| > 0`, so no branch
/// follows a residual's coin-flip sign.
#[inline]
fn sign(x: f32) -> f32 {
    let keep = 0u32.wrapping_sub(u32::from(x.abs() > 0.0));
    f32::from_bits(1.0f32.copysign(x).to_bits() & keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::PinholeCamera;
    use crate::forward::RenderStats;
    use rtgs_runtime::Serial;

    fn compute_loss(
        rendered: &RenderOutput,
        gt_color: &Image,
        gt_depth: Option<&DepthImage>,
        config: &LossConfig,
    ) -> LossOutput {
        let mut out = LossOutput::empty();
        compute_loss_into(
            rendered,
            gt_color,
            gt_depth,
            config,
            &Serial,
            &mut Vec::new(),
            &mut out,
        );
        out
    }

    fn dummy_render(w: usize, h: usize, value: Vec3, depth: f32) -> RenderOutput {
        RenderOutput {
            image: Image::from_data(w, h, vec![value; w * h]),
            depth: DepthImage::from_data(w, h, vec![depth; w * h]),
            final_transmittance: vec![0.0; w * h], // coverage 1.0
            stats: RenderStats::default(),
        }
    }

    #[test]
    fn perfect_match_has_zero_loss() {
        let out = dummy_render(4, 4, Vec3::splat(0.5), 2.0);
        let gt = Image::from_data(4, 4, vec![Vec3::splat(0.5); 16]);
        let gt_d = DepthImage::from_data(4, 4, vec![2.0; 16]);
        let l = compute_loss(&out, &gt, Some(&gt_d), &LossConfig::default());
        assert_eq!(l.loss, 0.0);
        assert!(l.pixel_grads.color.iter().all(|g| *g == Vec3::ZERO));
    }

    #[test]
    fn l1_loss_matches_manual() {
        let out = dummy_render(2, 2, Vec3::splat(0.75), 0.0);
        let gt = Image::from_data(2, 2, vec![Vec3::splat(0.5); 4]);
        let cfg = LossConfig {
            lambda_pho: 1.0,
            kind: LossKind::L1,
            ..Default::default()
        };
        let l = compute_loss(&out, &gt, None, &cfg);
        assert!((l.photometric - 0.25).abs() < 1e-6);
        assert!((l.loss - 0.25).abs() < 1e-6);
    }

    #[test]
    fn l2_gradient_is_proportional_to_residual() {
        let out = dummy_render(2, 2, Vec3::new(0.6, 0.5, 0.5), 0.0);
        let gt = Image::from_data(2, 2, vec![Vec3::splat(0.5); 4]);
        let cfg = LossConfig {
            lambda_pho: 1.0,
            kind: LossKind::L2,
            ..Default::default()
        };
        let l = compute_loss(&out, &gt, None, &cfg);
        let g = l.pixel_grads.color[0];
        assert!(g.x > 0.0);
        assert_eq!(g.y, 0.0);
        // expected: 2 * 0.1 / (3*4) per pixel-channel
        assert!((g.x - 2.0 * 0.1 / 12.0).abs() < 1e-6);
    }

    #[test]
    fn depth_loss_ignores_invalid_gt() {
        let out = dummy_render(2, 2, Vec3::ZERO, 3.0);
        let gt = Image::from_data(2, 2, vec![Vec3::ZERO; 4]);
        let gt_d = DepthImage::from_data(2, 2, vec![0.0; 4]); // all invalid
        let l = compute_loss(&out, &gt, Some(&gt_d), &LossConfig::default());
        assert_eq!(l.geometric, 0.0);
        assert!(l.pixel_grads.depth.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn depth_loss_ignores_uncovered_pixels() {
        let mut out = dummy_render(2, 2, Vec3::ZERO, 3.0);
        out.final_transmittance = vec![1.0; 4]; // nothing rendered
        let gt = Image::from_data(2, 2, vec![Vec3::ZERO; 4]);
        let gt_d = DepthImage::from_data(2, 2, vec![2.0; 4]);
        let l = compute_loss(&out, &gt, Some(&gt_d), &LossConfig::default());
        assert_eq!(l.geometric, 0.0);
    }

    #[test]
    fn mixed_loss_weights_terms() {
        let out = dummy_render(2, 2, Vec3::splat(0.6), 2.5);
        let gt = Image::from_data(2, 2, vec![Vec3::splat(0.5); 4]);
        let gt_d = DepthImage::from_data(2, 2, vec![2.0; 4]);
        let cfg = LossConfig {
            lambda_pho: 0.7,
            kind: LossKind::L1,
            min_depth_coverage: 0.5,
        };
        let l = compute_loss(&out, &gt, Some(&gt_d), &cfg);
        assert!((l.photometric - 0.1).abs() < 1e-6);
        assert!((l.geometric - 0.5).abs() < 1e-6);
        assert!((l.loss - (0.7 * 0.1 + 0.3 * 0.5)).abs() < 1e-6);
    }

    /// The photometric term folds in pixel order, whatever the row chunks:
    /// on this 16×24 frame (three chunks) two pixels' terms sum to exactly
    /// `1 + 2⁻²⁴` — the midpoint between two `f32`s — and each of the other
    /// 382 adds `2⁻⁵⁹`, below half an `f64` ulp of the running sum, so the
    /// pixel-order fold stays on the midpoint and rounds to `1.0`. Folding
    /// per-chunk partial sums instead would add two `2⁻⁵²`s and round up.
    #[test]
    fn photometric_term_folds_in_pixel_order() {
        let (w, h) = (16, 24);
        assert!(h > 2 * LOSS_ROWS, "three row chunks");
        let (n, tiny) = ((w * h) as f32, 2f32.powi(-59));
        let mut color = vec![Vec3::new(tiny * 3.0 * n, 0.0, 0.0); w * h];
        color[0].x = 576.0; // term 576 / 1152 = 0.5
        color[1].x = f32::from_bits(576f32.to_bits() + 1); // term 0.5 + 2⁻²⁴
        let mut out = dummy_render(w, h, Vec3::ZERO, 0.0);
        out.image = Image::from_data(w, h, color);
        let cfg = LossConfig {
            lambda_pho: 1.0,
            ..Default::default()
        };
        let gt = Image::new(w, h);
        for backend in [&Serial as &dyn Backend, &rtgs_runtime::Parallel::new(2)] {
            let mut l = LossOutput::empty();
            compute_loss_into(&out, &gt, None, &cfg, backend, &mut Vec::new(), &mut l);
            assert_eq!(
                l.photometric.to_bits(),
                1f32.to_bits(),
                "{}",
                backend.name()
            );
        }
    }

    /// The branch-free `sign` is the three-way branch it replaced, bit for
    /// bit: zero of either sign and NaN give `+0.0`.
    #[test]
    fn sign_is_the_branchy_sign() {
        let values = [
            2.5f32,
            -0.1,
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::from_bits(1),
        ];
        for x in values {
            let branchy = if x > 0.0 {
                1.0f32
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            };
            assert_eq!(sign(x).to_bits(), branchy.to_bits(), "{x}");
        }
    }

    #[test]
    #[should_panic(expected = "color dims")]
    fn dimension_mismatch_panics() {
        let out = dummy_render(2, 2, Vec3::ZERO, 0.0);
        let gt = Image::new(3, 3);
        let _ = compute_loss(&out, &gt, None, &LossConfig::default());
    }

    #[test]
    fn camera_and_loss_resolutions_compose() {
        // End-to-end shape check with a downsampled camera.
        let cam = PinholeCamera::from_fov(32, 24, 1.0).downsampled(2);
        let out = dummy_render(cam.width, cam.height, Vec3::ZERO, 0.0);
        let gt = Image::new(cam.width, cam.height);
        let l = compute_loss(&out, &gt, None, &LossConfig::default());
        assert_eq!(l.loss, 0.0);
    }
}
