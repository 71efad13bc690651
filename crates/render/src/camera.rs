//! Pinhole camera intrinsics and image containers.

use rtgs_math::{Vec2, Vec3};

/// Pinhole camera intrinsics tied to an image resolution.
///
/// Poses are kept separate ([`rtgs_math::Se3`], world-to-camera convention
/// in the renderer) so the same intrinsics serve a whole trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Focal length in pixels along x.
    pub fx: f32,
    /// Focal length in pixels along y.
    pub fy: f32,
    /// Principal point x.
    pub cx: f32,
    /// Principal point y.
    pub cy: f32,
}

impl PinholeCamera {
    /// Creates intrinsics from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize, fx: f32, fy: f32, cx: f32, cy: f32) -> Self {
        assert!(
            width > 0 && height > 0,
            "camera resolution must be non-zero"
        );
        Self {
            width,
            height,
            fx,
            fy,
            cx,
            cy,
        }
    }

    /// Creates intrinsics from a horizontal field of view (radians) with the
    /// principal point at the image center.
    pub fn from_fov(width: usize, height: usize, fov_x: f32) -> Self {
        let fx = width as f32 / (2.0 * (fov_x / 2.0).tan());
        Self::new(
            width,
            height,
            fx,
            fx,
            width as f32 / 2.0,
            height as f32 / 2.0,
        )
    }

    /// Total pixel count.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Returns intrinsics for the same view at `1/factor` of the linear
    /// resolution (the paper's dynamic-downsampling resizes, Sec. 4.2).
    ///
    /// `factor == 1` returns `self` unchanged; resolutions are floored but
    /// kept at least 1 pixel.
    pub fn downsampled(&self, factor: usize) -> Self {
        assert!(factor > 0, "downsample factor must be positive");
        if factor == 1 {
            return *self;
        }
        let f = factor as f32;
        Self {
            width: (self.width / factor).max(1),
            height: (self.height / factor).max(1),
            fx: self.fx / f,
            fy: self.fy / f,
            cx: self.cx / f,
            cy: self.cy / f,
        }
    }

    /// Projects a camera-frame point to pixel coordinates. `z` must be
    /// positive (in front of the camera); callers cull beforehand.
    #[inline]
    pub fn project(&self, p_cam: Vec3) -> Vec2 {
        Vec2::new(
            self.fx * p_cam.x / p_cam.z + self.cx,
            self.fy * p_cam.y / p_cam.z + self.cy,
        )
    }

    /// True when a pixel-coordinate point falls inside the image bounds.
    #[inline]
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x < self.width as f32 && p.y < self.height as f32
    }
}

/// An RGB image stored as a flat row-major `Vec<Vec3>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<Vec3>,
}

impl Image {
    /// Creates a black image.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![Vec3::ZERO; width * height],
        }
    }

    /// Creates an image from raw pixel data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<Vec3>) -> Self {
        assert_eq!(data.len(), width * height, "pixel buffer size mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Resizes in place to `width × height`, retaining the buffer's
    /// capacity — the allocation-free reuse path of the frame arena. Pixels
    /// that were already there keep their stale values: the caller writes
    /// every pixel (the render kernel's chunks do).
    pub(crate) fn resize_for_overwrite(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.data.resize(width * height, Vec3::ZERO);
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> Vec3 {
        self.data[y * self.width + x]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, v: Vec3) {
        self.data[y * self.width + x] = v;
    }

    /// The flat row-major pixel buffer.
    #[inline]
    pub fn data(&self) -> &[Vec3] {
        &self.data
    }

    /// Mutable access to the flat pixel buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Vec3] {
        &mut self.data
    }

    /// Box-filter downsample by an integer factor (used to produce
    /// ground-truth targets at the dynamically selected resolution).
    pub fn downsampled(&self, factor: usize) -> Image {
        assert!(factor > 0, "downsample factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        let w = (self.width / factor).max(1);
        let h = (self.height / factor).max(1);
        let mut out = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = Vec3::ZERO;
                let mut n = 0.0f32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let sx = x * factor + dx;
                        let sy = y * factor + dy;
                        if sx < self.width && sy < self.height {
                            acc += self.pixel(sx, sy);
                            n += 1.0;
                        }
                    }
                }
                out.set_pixel(x, y, acc / n.max(1.0));
            }
        }
        out
    }

    /// Mean per-channel absolute difference to another image of identical
    /// dimensions.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn mean_abs_diff(&self, other: &Image) -> f32 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let mut acc = 0.0f64;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            let d = *a - *b;
            acc += (d.x.abs() + d.y.abs() + d.z.abs()) as f64;
        }
        (acc / (self.data.len() as f64 * 3.0)) as f32
    }
}

/// A depth map stored as a flat row-major `Vec<f32>`; `0.0` means "no
/// depth" (nothing rendered / invalid).
#[derive(Debug, Clone, PartialEq)]
pub struct DepthImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl DepthImage {
    /// Creates a depth image filled with zeros (invalid depth).
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates a depth image from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "depth buffer size mismatch");
        Self {
            width,
            height,
            data,
        }
    }

    /// Resizes in place to `width × height`, retaining the buffer's
    /// capacity; as [`Image::resize_for_overwrite`], the caller writes every
    /// sample.
    pub(crate) fn resize_for_overwrite(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.data.resize(width * height, 0.0);
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Reads depth at `(x, y)`.
    #[inline]
    pub fn depth(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    /// Writes depth at `(x, y)`.
    #[inline]
    pub fn set_depth(&mut self, x: usize, y: usize, d: f32) {
        self.data[y * self.width + x] = d;
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Average-pool downsample, ignoring invalid (zero) samples.
    pub fn downsampled(&self, factor: usize) -> DepthImage {
        assert!(factor > 0, "downsample factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        let w = (self.width / factor).max(1);
        let h = (self.height / factor).max(1);
        let mut out = DepthImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                let mut n = 0.0;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let sx = x * factor + dx;
                        let sy = y * factor + dy;
                        if sx < self.width && sy < self.height {
                            let d = self.depth(sx, sy);
                            if d > 0.0 {
                                acc += d;
                                n += 1.0;
                            }
                        }
                    }
                }
                out.set_depth(x, y, if n > 0.0 { acc / n } else { 0.0 });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fov_camera_centers_principal_point() {
        let cam = PinholeCamera::from_fov(640, 480, std::f32::consts::FRAC_PI_2);
        assert_eq!(cam.cx, 320.0);
        assert_eq!(cam.cy, 240.0);
        // 90 degree FOV: fx = w/2
        assert!((cam.fx - 320.0).abs() < 1e-3);
    }

    #[test]
    fn projection_of_center_ray() {
        let cam = PinholeCamera::from_fov(100, 80, 1.0);
        let p = cam.project(Vec3::new(0.0, 0.0, 2.0));
        assert!((p - Vec2::new(50.0, 40.0)).max_abs() < 1e-5);
    }

    #[test]
    fn downsampled_camera_halves_everything() {
        let cam = PinholeCamera::new(640, 480, 500.0, 510.0, 320.0, 240.0);
        let half = cam.downsampled(2);
        assert_eq!((half.width, half.height), (320, 240));
        assert_eq!(half.fx, 250.0);
        assert_eq!(half.cx, 160.0);
        // projection of the same ray lands at half the pixel coordinate
        let p_full = cam.project(Vec3::new(0.3, -0.2, 1.5));
        let p_half = half.project(Vec3::new(0.3, -0.2, 1.5));
        assert!((p_half * 2.0 - p_full).max_abs() < 1e-4);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let cam = PinholeCamera::from_fov(64, 48, 1.0);
        assert_eq!(cam.downsampled(1), cam);
    }

    #[test]
    fn contains_checks_bounds() {
        let cam = PinholeCamera::from_fov(10, 10, 1.0);
        assert!(cam.contains(Vec2::new(0.0, 0.0)));
        assert!(cam.contains(Vec2::new(9.9, 9.9)));
        assert!(!cam.contains(Vec2::new(10.0, 5.0)));
        assert!(!cam.contains(Vec2::new(-0.1, 5.0)));
    }

    #[test]
    fn image_pixel_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set_pixel(2, 1, Vec3::new(0.5, 0.6, 0.7));
        assert_eq!(img.pixel(2, 1), Vec3::new(0.5, 0.6, 0.7));
        assert_eq!(img.pixel(0, 0), Vec3::ZERO);
    }

    #[test]
    fn image_downsample_averages() {
        let mut img = Image::new(2, 2);
        img.set_pixel(0, 0, Vec3::splat(1.0));
        img.set_pixel(1, 0, Vec3::splat(0.0));
        img.set_pixel(0, 1, Vec3::splat(1.0));
        img.set_pixel(1, 1, Vec3::splat(0.0));
        let small = img.downsampled(2);
        assert_eq!(small.width(), 1);
        assert!((small.pixel(0, 0) - Vec3::splat(0.5)).max_abs() < 1e-6);
    }

    #[test]
    fn depth_downsample_skips_invalid() {
        let mut d = DepthImage::new(2, 2);
        d.set_depth(0, 0, 2.0);
        // other three pixels are invalid (0.0)
        let small = d.downsampled(2);
        assert!((small.depth(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let img = Image::new(8, 8);
        assert_eq!(img.mean_abs_diff(&img.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn from_data_validates_length() {
        let _ = Image::from_data(3, 3, vec![Vec3::ZERO; 8]);
    }
}
