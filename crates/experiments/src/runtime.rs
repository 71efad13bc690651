//! Runtime-subsystem experiments (not a paper artifact): serial-vs-parallel
//! kernel scaling, the zero-allocation frame-arena steady state, and the
//! multi-session serving demonstration.

use crate::common::{default_backend, f, slam_config, Scale, Table};
use rtgs_render::{FrameArena, LossConfig};
use rtgs_runtime::Serve;
use rtgs_runtime::{Backend, BackendChoice, Parallel, Serial};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
use std::time::Instant;

/// Serial-vs-parallel wall-clock of the arena's forward (project → tiles →
/// fused render) and fused backward stages plus a bitwise equivalence
/// check, at pool sizes 1/2/4/8.
pub fn runtime_scaling(scale: Scale) -> String {
    let ds = SyntheticDataset::generate(scale.profile(DatasetProfile::scannet_analog()), 2);
    let scene = ds.reference_scene.clone();
    let w2c = ds.poses_c2w[0].inverse();

    let time_backend = |backend: &dyn Backend| {
        let mut arena = FrameArena::new();
        let t0 = Instant::now();
        // Fused tile pass: the forward records fragment sequences, the
        // backward consumes them (one tile traversal shared by both).
        arena.project(&scene, &w2c, &ds.camera, None, backend);
        arena.assign_tiles(&ds.camera, backend);
        arena.render_fused(&ds.camera, backend);
        let forward = t0.elapsed();
        arena.compute_loss(
            &ds.frames[0].color,
            ds.frames[0].depth.as_ref(),
            &LossConfig::default(),
        );
        let t1 = Instant::now();
        arena.backward_fused(&scene, &ds.camera, &w2c, backend);
        (forward, t1.elapsed(), arena)
    };

    let (fwd_serial, bwd_serial, serial) = time_backend(&Serial);
    let mut table = Table::new(&[
        "backend",
        "forward (ms)",
        "backward (ms)",
        "bitwise == serial",
    ]);
    table.row(vec![
        "serial".into(),
        f(fwd_serial.as_secs_f64() * 1e3, 2),
        f(bwd_serial.as_secs_f64() * 1e3, 2),
        "-".into(),
    ]);
    for threads in [1usize, 2, 4, 8] {
        let backend = Parallel::new(threads);
        let (fwd, bwd, arena) = time_backend(&backend);
        let identical = arena.output().image == serial.output().image
            && arena.output().final_transmittance == serial.output().final_transmittance
            && arena.backward().pose == serial.backward().pose
            && arena.backward().gaussians == serial.backward().gaussians;
        table.row(vec![
            format!("parallel({threads})"),
            f(fwd.as_secs_f64() * 1e3, 2),
            f(bwd.as_secs_f64() * 1e3, 2),
            identical.to_string(),
        ]);
    }
    format!(
        "Runtime scaling on {} ({} Gaussians, {}x{}):\n{}",
        ds.profile.name,
        scene.len(),
        ds.camera.width,
        ds.camera.height,
        table.render()
    )
}

/// Frame-arena steady state: wall-clock of one full tracking-style
/// iteration (cull → project → CSR tile assign → fused forward → loss →
/// fused backward) through a warm reused [`FrameArena`] versus a new arena
/// per iteration, with a bitwise-equality check. The delta is the heap
/// churn arena reuse removes from every optimizer iteration.
pub fn arena_steady_state(scale: Scale) -> String {
    let ds = SyntheticDataset::generate(scale.profile(DatasetProfile::scannet_analog()), 2);
    let map = rtgs_render::ShardedScene::from_scene(&ds.reference_scene, 1.0);
    let mask = vec![true; map.capacity()];
    let w2c = ds.poses_c2w[1].inverse();
    let frame = &ds.frames[1];
    let cfg = LossConfig::default();
    let backend = Serial;
    let iterations = 20usize.max(scale.tracking_iters());

    let mut arena = FrameArena::new();
    let arena_iter = |arena: &mut FrameArena| {
        arena.cull(&map, &w2c, &ds.camera, Some(&mask), &backend);
        arena.project_visible(&w2c, &ds.camera, &backend);
        arena.assign_tiles(&ds.camera, &backend);
        arena.render_fused(&ds.camera, &backend);
        arena.compute_loss(&frame.color, frame.depth.as_ref(), &cfg);
        arena.backward_visible_fused(&ds.camera, &w2c, &backend);
    };
    // Warm-up establishes every buffer's steady-state capacity.
    arena_iter(&mut arena);
    arena_iter(&mut arena);
    let t0 = Instant::now();
    for _ in 0..iterations {
        arena_iter(&mut arena);
    }
    let arena_wall = t0.elapsed();
    let arena_pose = arena.backward().pose;
    let arena_image = arena.output().image.clone();

    let t1 = Instant::now();
    let mut fresh = FrameArena::new();
    for _ in 0..iterations {
        fresh = FrameArena::new();
        arena_iter(&mut fresh);
    }
    let fresh_wall = t1.elapsed();

    let identical = fresh.backward().pose == arena_pose && fresh.output().image == arena_image;
    let mut table = Table::new(&["path", "iteration (µs)", "bitwise identical"]);
    let per_iter = |wall: std::time::Duration| wall.as_secs_f64() * 1e6 / iterations as f64;
    table.row(vec![
        "arena_reuse (steady state)".into(),
        f(per_iter(arena_wall), 1),
        "-".into(),
    ]);
    table.row(vec![
        "fresh_alloc".into(),
        f(per_iter(fresh_wall), 1),
        identical.to_string(),
    ]);
    format!(
        "Zero-allocation steady state on {} ({} Gaussians, {} iterations):\n{}\n{}",
        ds.profile.name,
        map.len(),
        iterations,
        table.render(),
        session_stage_table(scale)
    )
}

/// The same warm-arena loop at the size a repository-benchmark session runs
/// it — the map a MonoGS session builds over 75×42 `replica_analog` frames
/// (12 of them at full scale: ~1 k Gaussians, ~80 k blended fragments) —
/// timed stage by stage, on [`Serial`] and on the process default backend
/// (the machine, or `--parallel=N`) side by side: the in-process table to
/// read before and after a kernel or runtime change (run the binary of each
/// commit; stages the change did not touch show the host's drift between
/// the two runs). The two columns come from one binary, one map and one
/// process, in alternating blocks, so their ratio is what the second core
/// buys.
fn session_stage_table(scale: Scale) -> String {
    let frames = match scale {
        Scale::Quick => 3,
        Scale::Full => 12,
    };
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), frames);
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(frames);
    if scale == Scale::Quick {
        cfg.tracking.iterations = 4;
        cfg.mapping_iterations = 4;
    }
    let mut session = SlamPipeline::new(cfg, &ds);
    session.run();
    let mut map = session.scene().clone();
    map.refresh_bounds_with(&Serial);
    let w2c = ds.poses_c2w[frames - 1].inverse();
    let frame = &ds.frames[frames - 1];
    let cfg = LossConfig::default();
    let iterations: usize = match scale {
        Scale::Quick => 20,
        Scale::Full => 400,
    };

    const STAGES: [&str; 7] = [
        "cull",
        "Step ❶ project",
        "tile-bin",
        "Step ❸ render",
        "loss",
        "Step ❹ render BP",
        "Step ❺ preprocess BP",
    ];
    // One warm arena per backend, timed in alternating blocks so that the
    // host's drift over the run lands on both columns alike.
    const BLOCKS: usize = 10;
    let run_block = |backend: &dyn Backend,
                     arena: &mut FrameArena,
                     nanos: &mut [u64; STAGES.len()],
                     iterations: usize,
                     record: bool| {
        for _ in 0..iterations {
            let mut lap = [0u64; STAGES.len()];
            let mut timed = |stage: usize, run: &mut dyn FnMut()| {
                let t = Instant::now();
                run();
                lap[stage] = t.elapsed().as_nanos() as u64;
            };
            timed(0, &mut || arena.cull(&map, &w2c, &ds.camera, None, backend));
            timed(1, &mut || arena.project_visible(&w2c, &ds.camera, backend));
            timed(2, &mut || arena.assign_tiles(&ds.camera, backend));
            timed(3, &mut || arena.render_fused(&ds.camera, backend));
            timed(4, &mut || {
                arena.compute_loss(&frame.color, frame.depth.as_ref(), &cfg);
            });
            arena.backward_visible_fused(&ds.camera, &w2c, backend);
            let stats = arena.backward().stats;
            lap[5] = stats.rendering_bp_nanos;
            lap[6] = stats.preprocessing_bp_nanos;
            if record {
                for (total, ns) in nanos.iter_mut().zip(lap) {
                    *total += ns;
                }
            }
        }
    };
    let choice = default_backend();
    let chosen_backend = choice.instantiate();
    let (mut arena, mut chosen_arena) = (FrameArena::new(), FrameArena::new());
    let (mut serial, mut chosen) = ([0u64; STAGES.len()], [0u64; STAGES.len()]);
    // Two unrecorded iterations establish each arena's capacities.
    run_block(&Serial, &mut arena, &mut serial, 2, false);
    run_block(&*chosen_backend, &mut chosen_arena, &mut chosen, 2, false);
    let per_block = iterations.div_ceil(BLOCKS);
    let iterations = per_block * BLOCKS;
    for _ in 0..BLOCKS {
        run_block(&Serial, &mut arena, &mut serial, per_block, true);
        run_block(
            &*chosen_backend,
            &mut chosen_arena,
            &mut chosen,
            per_block,
            true,
        );
    }
    let identical = chosen_arena.output().image == arena.output().image
        && chosen_arena.backward().pose == arena.backward().pose
        && chosen_arena.backward().gaussians == arena.backward().gaussians;

    let us = |ns: u64| f(ns as f64 / 1e3 / iterations as f64, 1);
    let mut table = Table::new(&[
        "stage",
        "serial µs",
        "share",
        &format!("{} µs", choice.label()),
        "vs serial",
    ]);
    let (total, chosen_total): (u64, u64) = (serial.iter().sum(), chosen.iter().sum());
    let rows = STAGES
        .iter()
        .copied()
        .zip(serial.into_iter().zip(chosen))
        .chain([("iteration", (total, chosen_total))]);
    for (stage, (ns, chosen_ns)) in rows {
        table.row(vec![
            stage.to_string(),
            us(ns),
            f(ns as f64 / total as f64, 3),
            us(chosen_ns),
            format!("×{}", f(chosen_ns as f64 / ns as f64, 2)),
        ]);
    }
    format!(
        "Stage budget at session size ({} Gaussians visible of {}, {}x{}, {} blended fragments, {} warm iterations, {} CPUs; {} bitwise == serial: {identical}):\n{}",
        arena.projection().visible_count(),
        map.len(),
        ds.camera.width,
        ds.camera.height,
        arena.output().stats.fragments_blended,
        iterations,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        choice.label(),
        table.render()
    )
}

/// Multi-session serving: one SLAM session per base algorithm, multiplexed
/// concurrently over the shared pool with round-robin frame scheduling.
pub fn serving(scale: Scale) -> String {
    let ds =
        SyntheticDataset::generate(scale.profile(DatasetProfile::tum_analog()), scale.frames());
    let t0 = Instant::now();
    let sessions = BaseAlgorithm::all()
        .into_iter()
        .map(|algo| {
            let cfg = slam_config(algo, scale, false)
                .with_backend(BackendChoice::Parallel { threads: 0 });
            (algo.name().to_string(), SlamPipeline::new(cfg, &ds))
        })
        .collect();
    let outcomes = Serve::builder().threads(0).run(sessions);
    let wall = t0.elapsed();

    let mut table = Table::new(&[
        "session",
        "frames",
        "steps",
        "ATE (cm)",
        "PSNR (dB)",
        "wall (s)",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
        "I/O (ms)",
    ]);
    let ms = |ns: u64| f(ns as f64 / 1e6, 2);
    let mut busy = 0.0f64;
    for outcome in &outcomes {
        busy += outcome.stats.wall.as_secs_f64();
        let io = outcome.stats.hibernate_wall + outcome.stats.rehydrate_wall;
        table.row(vec![
            outcome.stats.label.clone(),
            outcome.report.frames_processed.to_string(),
            outcome.stats.steps.to_string(),
            f(outcome.report.ate.rmse * 100.0, 2),
            f(outcome.report.mean_psnr, 2),
            f(outcome.stats.wall.as_secs_f64(), 2),
            ms(outcome.stats.latency.p50()),
            ms(outcome.stats.latency.p99()),
            ms(outcome.stats.latency.p999()),
            f(io.as_secs_f64() * 1e3, 2),
        ]);
    }
    let fleet = rtgs_runtime::fleet_latency(&outcomes);
    format!(
        "{} concurrent SLAM sessions over one pool ({} wall seconds, {:.2} busy-seconds served):\n{}\nfleet step latency: {} steps, p50 {} ms, p99 {} ms, p999 {} ms\n",
        outcomes.len(),
        f(wall.as_secs_f64(), 2),
        busy,
        table.render(),
        fleet.count(),
        ms(fleet.p50()),
        ms(fleet.p99()),
        ms(fleet.p999()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_scaling_reports_bitwise_equality() {
        let out = runtime_scaling(Scale::Quick);
        assert!(out.contains("parallel(2)"));
        assert!(out.contains("true"));
        assert!(!out.contains("false"));
    }

    #[test]
    fn arena_steady_state_is_bitwise_identical_to_fresh() {
        let out = arena_steady_state(Scale::Quick);
        assert!(out.contains("arena_reuse"));
        assert!(out.contains("true"));
        assert!(!out.contains("false"));
        assert!(out.contains("Stage budget at session size"), "{out}");
        assert!(out.contains("Step ❺ preprocess BP"), "{out}");
    }

    #[test]
    fn serving_runs_all_four_algorithms() {
        let out = serving(Scale::Quick);
        for algo in BaseAlgorithm::all() {
            assert!(out.contains(algo.name()), "missing {}", algo.name());
        }
        assert!(out.contains("fleet step latency"), "{out}");
        assert!(out.contains("p999"), "{out}");
    }
}
