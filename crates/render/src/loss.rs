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
/// The gradient buffers and the valid-depth-pixel scratch are cleared and
/// refilled; once their capacities cover the frame, a steady-state loss
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
    valid_scratch: &mut Vec<(usize, f32, f32)>,
    out: &mut LossOutput,
) {
    let w = rendered.image.width();
    let h = rendered.image.height();
    assert_eq!((gt_color.width(), gt_color.height()), (w, h), "color dims");
    if let Some(d) = gt_depth {
        assert_eq!((d.width(), d.height()), (w, h), "depth dims");
    }

    let n_pix = (w * h) as f32;
    let grads = &mut out.pixel_grads;
    grads.color.clear();
    grads.color.resize(w * h, Vec3::ZERO);
    grads.depth.clear();
    grads.depth.resize(w * h, 0.0);
    grads.transmittance.clear();
    grads.transmittance.resize(w * h, 0.0);
    let mut e_pho = 0.0f64;
    let pho_weight = config.lambda_pho / (3.0 * n_pix);

    for (i, (c, gt)) in rendered
        .image
        .data()
        .iter()
        .zip(gt_color.data().iter())
        .enumerate()
    {
        let r = *c - *gt;
        match config.kind {
            LossKind::L1 => {
                e_pho += ((r.x.abs() + r.y.abs() + r.z.abs()) / (3.0 * n_pix)) as f64;
                grads.color[i] = Vec3::new(sign(r.x), sign(r.y), sign(r.z)) * pho_weight;
            }
            LossKind::L2 => {
                e_pho += ((r.x * r.x + r.y * r.y + r.z * r.z) / (3.0 * n_pix)) as f64;
                grads.color[i] = r * (2.0 * pho_weight);
            }
        }
    }

    let mut e_geo = 0.0f64;
    if let Some(depth_gt) = gt_depth {
        // Residual on the blend side: `r = D - c·D_gt` with `c` the opacity
        // coverage (1 - T_final). Ground-truth depth is a *surface* depth,
        // while the rasterizer produces an opacity-weighted blend `D ≈ c·d`;
        // comparing `D` to `D_gt` directly would leave a nonzero residual
        // even for a pixel-perfect reconstruction (biasing tracking away
        // from the true pose wherever coverage < 1). The `c`-dependence
        // backpropagates through the transmittance channel.
        // Count valid pixels first so the normalization is well-defined.
        let valid = valid_scratch;
        valid.clear();
        for y in 0..h {
            for x in 0..w {
                let gt = depth_gt.depth(x, y);
                if gt > 0.0 && rendered.coverage(x, y) >= config.min_depth_coverage {
                    let r = rendered.depth.depth(x, y) - rendered.coverage(x, y) * gt;
                    valid.push((y * w + x, r, gt));
                }
            }
        }
        if !valid.is_empty() {
            let n_valid = valid.len() as f32;
            let geo_weight = (1.0 - config.lambda_pho) / n_valid;
            for &(i, r, gt) in valid.iter() {
                // ∂r/∂D = 1 and, via c = 1 - T_final, ∂r/∂T_final = +gt.
                let dl_dr = match config.kind {
                    LossKind::L1 => {
                        e_geo += (r.abs() / n_valid) as f64;
                        sign(r) * geo_weight
                    }
                    LossKind::L2 => {
                        e_geo += ((r * r) / n_valid) as f64;
                        2.0 * r * geo_weight
                    }
                };
                grads.depth[i] = dl_dr;
                grads.transmittance[i] = dl_dr * gt;
            }
        }
    }

    let photometric = e_pho as f32;
    let geometric = e_geo as f32;
    out.loss = config.lambda_pho * photometric + (1.0 - config.lambda_pho) * geometric;
    out.photometric = photometric;
    out.geometric = geometric;
}

#[inline]
fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::PinholeCamera;
    use crate::forward::RenderStats;

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
            pixel_workloads: vec![1; w * h],
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
