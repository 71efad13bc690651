//! Ground-truth camera trajectories.
//!
//! Smooth low-frequency paths through the room with small correlated noise:
//! the frame-to-frame similarity (paper Observation 5, Fig. 5) and the
//! iteration-to-iteration workload similarity (Observation 6) both follow
//! from this smoothness, exactly as they do for handheld RGB-D recordings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtgs_math::{Mat3, Quat, Se3, Vec3};

/// Shape of the camera path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrajectoryStyle {
    /// Circular orbit around the room center (Replica-style smooth sweep).
    #[default]
    Orbit,
    /// Lissajous figure (TUM-style handheld wandering).
    Lissajous,
    /// Back-and-forth lateral scan (ScanNet-style room sweep).
    Scan,
}

/// Trajectory generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Number of frames.
    pub frames: usize,
    /// RNG seed for the noise process.
    pub seed: u64,
    /// Path shape.
    pub style: TrajectoryStyle,
    /// Fraction of the room half-extent the path sweeps (0..1).
    pub sweep: f32,
    /// Revolutions (or sweep periods) per frame. Per-frame motion is
    /// independent of sequence length, so short test sequences move at the
    /// same speed as long experiment runs.
    pub cycles_per_frame: f32,
    /// Standard deviation of the correlated positional noise (meters) —
    /// models handheld jitter.
    pub jitter: f32,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        Self {
            frames: 30,
            seed: 11,
            style: TrajectoryStyle::Orbit,
            sweep: 0.45,
            cycles_per_frame: 0.05 / 30.0,
            jitter: 0.002,
        }
    }
}

/// Generates camera-to-world poses for every frame.
///
/// The camera always looks toward the room center (with a small smooth
/// offset), which keeps the scene in frame for any room-scale content.
///
/// # Panics
///
/// Panics if `config.frames == 0`.
pub fn generate_trajectory(config: &TrajectoryConfig, room_half_extent: Vec3) -> Vec<Se3> {
    assert!(config.frames > 0, "trajectory needs at least one frame");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let h = room_half_extent;
    let mut poses = Vec::with_capacity(config.frames);
    // First-order low-pass noise state (correlated jitter).
    let mut noise = Vec3::ZERO;

    for i in 0..config.frames {
        let t = i as f32 * config.cycles_per_frame;
        let phase = 2.0 * std::f32::consts::PI * t;
        let base = match config.style {
            TrajectoryStyle::Orbit => Vec3::new(
                config.sweep * h.x * phase.cos(),
                -0.2 * h.y + 0.1 * h.y * (2.0 * phase).sin(),
                config.sweep * h.z * phase.sin(),
            ),
            TrajectoryStyle::Lissajous => Vec3::new(
                config.sweep * h.x * phase.sin(),
                0.15 * h.y * (2.0 * phase + 0.4).sin(),
                config.sweep * h.z * (1.5 * phase).sin(),
            ),
            TrajectoryStyle::Scan => Vec3::new(
                config.sweep * h.x * (2.0 * (2.0 * t.fract() - 1.0).abs() - 1.0),
                -0.1 * h.y,
                0.5 * config.sweep * h.z * phase.cos(),
            ),
        };
        let step = Vec3::new(
            rng.gen_range(-1.0..1.0f32),
            rng.gen_range(-1.0..1.0f32),
            rng.gen_range(-1.0..1.0f32),
        ) * config.jitter;
        noise = noise * 0.8 + step;
        let position = base + noise;

        // Look at a slowly drifting target near the room center.
        let target = Vec3::new(
            0.25 * h.x * (0.7 * phase).sin(),
            0.0,
            0.25 * h.z * (0.9 * phase).cos(),
        );
        poses.push(look_at(position, target));
    }
    poses
}

/// Builds a camera-to-world pose located at `eye` looking toward `target`
/// (OpenCV convention: +z forward, +y down in camera frame).
pub fn look_at(eye: Vec3, target: Vec3) -> Se3 {
    let forward = (target - eye).normalized();
    let world_up = Vec3::new(0.0, -1.0, 0.0); // camera +y is down
    let mut right = forward.cross(world_up).normalized();
    if right.norm() < 1e-6 {
        right = Vec3::X;
    }
    let down = forward.cross(right).normalized();
    // Columns of the camera-to-world rotation are the camera axes in world.
    let rot = Mat3::from_rows(
        [right.x, down.x, forward.x],
        [right.y, down.y, forward.y],
        [right.z, down.z, forward.z],
    );
    Se3::new(Quat::from_rotation_matrix(&rot), eye)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean translational frame-to-frame step of a trajectory (meters).
    fn mean_step(poses: &[Se3]) -> f32 {
        if poses.len() < 2 {
            return 0.0;
        }
        let total: f32 = poses
            .windows(2)
            .map(|w| w[0].translation_distance(&w[1]))
            .sum();
        total / (poses.len() - 1) as f32
    }

    #[test]
    fn look_at_points_camera_at_target() {
        let pose = look_at(Vec3::new(0.0, 0.0, -2.0), Vec3::ZERO);
        // Camera-to-world: camera-frame forward (0,0,1) maps to world +z.
        let fwd_world = pose.transform_direction(Vec3::Z);
        assert!((fwd_world - Vec3::Z).max_abs() < 1e-4);
        // The target should project onto the optical axis: in camera frame
        // (w2c), the target sits at (0, 0, +distance).
        let target_cam = pose.inverse().transform_point(Vec3::ZERO);
        assert!(target_cam.xy().norm() < 1e-4);
        assert!(target_cam.z > 0.0);
    }

    #[test]
    fn trajectory_has_requested_length() {
        let cfg = TrajectoryConfig::default();
        let poses = generate_trajectory(&cfg, Vec3::new(3.0, 2.0, 3.0));
        assert_eq!(poses.len(), cfg.frames);
    }

    #[test]
    fn trajectory_is_smooth() {
        let cfg = TrajectoryConfig {
            frames: 60,
            ..Default::default()
        };
        let poses = generate_trajectory(&cfg, Vec3::new(3.0, 2.0, 3.0));
        let mean = mean_step(&poses);
        for w in poses.windows(2) {
            let step = w[0].translation_distance(&w[1]);
            assert!(
                step < 6.0 * mean + 1e-3,
                "step {step} too large vs mean {mean}"
            );
            let rot = w[0].rotation_distance(&w[1]);
            assert!(rot < 0.5, "rotation step {rot} rad too large");
        }
    }

    #[test]
    fn trajectory_is_deterministic() {
        let cfg = TrajectoryConfig::default();
        let room = Vec3::new(3.0, 2.0, 3.0);
        let a = generate_trajectory(&cfg, room);
        let b = generate_trajectory(&cfg, room);
        assert_eq!(a[5].translation, b[5].translation);
    }

    #[test]
    fn styles_produce_different_paths() {
        let room = Vec3::new(3.0, 2.0, 3.0);
        let orbit = generate_trajectory(
            &TrajectoryConfig {
                style: TrajectoryStyle::Orbit,
                ..Default::default()
            },
            room,
        );
        let scan = generate_trajectory(
            &TrajectoryConfig {
                style: TrajectoryStyle::Scan,
                ..Default::default()
            },
            room,
        );
        assert!((orbit[10].translation - scan[10].translation).norm() > 0.05);
    }

    #[test]
    fn camera_stays_inside_room() {
        let room = Vec3::new(3.0, 2.0, 3.0);
        for style in [
            TrajectoryStyle::Orbit,
            TrajectoryStyle::Lissajous,
            TrajectoryStyle::Scan,
        ] {
            let poses = generate_trajectory(
                &TrajectoryConfig {
                    style,
                    frames: 50,
                    ..Default::default()
                },
                room,
            );
            for p in &poses {
                assert!(p.translation.x.abs() < room.x);
                assert!(p.translation.y.abs() < room.y);
                assert!(p.translation.z.abs() < room.z);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        let _ = generate_trajectory(
            &TrajectoryConfig {
                frames: 0,
                ..Default::default()
            },
            Vec3::splat(1.0),
        );
    }
}
