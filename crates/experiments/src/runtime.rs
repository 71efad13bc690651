//! Runtime measurement (not a paper artifact): the zero-allocation
//! frame-arena steady state and the per-stage budget at session size.

use crate::common::{default_backend, f, Scale, Table};
use rtgs_math::Se3;
use rtgs_render::{FrameArena, GradSet, LossConfig, ShardedScene};
use rtgs_runtime::{Backend, Serial};
use rtgs_scene::{DatasetProfile, RgbdFrame, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, MapLearningRates, MapOptimizer, SlamConfig, SlamPipeline};
use std::time::Instant;

/// Frame-arena steady state: wall-clock of one full tracking-style
/// iteration (cull → project → CSR tile assign → fused forward → loss →
/// fused backward) through a warm reused [`FrameArena`] versus a new arena
/// per iteration, with a bitwise-equality check. The delta is the heap
/// churn arena reuse removes from every optimizer iteration.
pub fn arena_steady_state(scale: Scale) -> String {
    let ds = SyntheticDataset::generate(scale.profile(DatasetProfile::scannet_analog()), 2);
    let map = &ds.reference_scene;
    let mask = vec![true; map.capacity()];
    let w2c = ds.poses_c2w[1].inverse();
    let frame = &ds.frames[1];
    let cfg = LossConfig::default();
    let backend = Serial;
    let iterations = 20usize.max(scale.tracking_iters());

    let mut arena = FrameArena::new();
    let arena_iter = |arena: &mut FrameArena| {
        arena.cull(map, &w2c, &ds.camera, Some(&mask), &backend);
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
        {
            let session = SessionMap::build(scale);
            format!(
                "{}\n{}\n{}",
                session_stage_table(&session, scale),
                mapping_stage_table(&session, scale),
                downsampled_iteration_table(&session, scale)
            )
        }
    )
}

/// The map a MonoGS session builds over 75×42 `replica_analog` frames (12
/// of them at full scale: ~1 k Gaussians, ~80 k blended fragments), and its
/// last frame's pose and observations — what both stage tables run on.
struct SessionMap {
    ds: SyntheticDataset,
    map: ShardedScene,
    w2c: Se3,
    frame: RgbdFrame,
}

impl SessionMap {
    fn build(scale: Scale) -> Self {
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
        let frame = ds.frames[frames - 1].clone();
        Self {
            ds,
            map,
            w2c,
            frame,
        }
    }
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
/// buys. Below the `iteration` row (cull through the full backward) come
/// the pose-only Steps ❹–❺ a base pipeline's tracking runs instead, from
/// the iterations in between, and the header's bitwise check includes that
/// their pose is the full pass's. Under the table, the serial arena's
/// [`FrameArena::high_water_bytes`]: what a change to the arena's layout
/// does to its memory, without a traced benchmark run.
fn session_stage_table(session: &SessionMap, scale: Scale) -> String {
    let SessionMap {
        ds,
        map,
        w2c,
        frame,
    } = session;
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
    // What a base pipeline's tracking iterations run instead of the last
    // two rows; printed below the `iteration` row, which stays the
    // full-backward total.
    const POSE_STAGES: [&str; 2] = ["Step ❹ render BP (pose)", "Step ❺ preprocess BP (pose)"];
    const COLUMNS: usize = STAGES.len() + POSE_STAGES.len();
    /// Per-column sums — nanoseconds, and the iterations that ran the stage
    /// — and the pose-only passes whose pose was not the full pass's.
    #[derive(Clone, Copy, Default)]
    struct Tally {
        nanos: [u64; COLUMNS],
        runs: [u64; COLUMNS],
        pose_mismatches: u64,
    }
    impl Tally {
        fn us(&self, column: usize) -> f64 {
            self.nanos[column] as f64 / 1e3 / self.runs[column].max(1) as f64
        }
        fn iteration_us(&self) -> f64 {
            (0..STAGES.len()).map(|c| self.us(c)).sum()
        }
    }
    // One warm arena per backend, timed in alternating blocks so that the
    // host's drift over the run lands on both columns alike. Within a block
    // iterations alternate between the full and the pose-only backward,
    // each right after its own forward, as in a session. Every iteration is
    // the same one, so each pose-only pose must be the full pose's bits.
    const BLOCKS: usize = 10;
    let run_block = |backend: &dyn Backend,
                     arena: &mut FrameArena,
                     tally: &mut Tally,
                     iterations: usize,
                     record: bool| {
        for i in 0..iterations {
            let mut lap = Tally::default();
            let mut timed = |stage: usize, run: &mut dyn FnMut()| {
                let t = Instant::now();
                run();
                lap.nanos[stage] = t.elapsed().as_nanos() as u64;
                lap.runs[stage] = 1;
            };
            timed(0, &mut || arena.cull(map, w2c, &ds.camera, None, backend));
            timed(1, &mut || arena.project_visible(w2c, &ds.camera, backend));
            timed(2, &mut || arena.assign_tiles(&ds.camera, backend));
            timed(3, &mut || arena.render_fused(&ds.camera, backend));
            timed(4, &mut || {
                arena.compute_loss_with(&frame.color, frame.depth.as_ref(), &cfg, backend);
            });
            let pose_only = i % 2 == 1;
            let (grads, first) = if pose_only {
                (GradSet::PoseOnly, STAGES.len())
            } else {
                (GradSet::Full, 5)
            };
            let full_pose = arena.backward().pose.map(f32::to_bits);
            arena.backward_visible_grads(&ds.camera, w2c, grads, backend);
            let stats = arena.backward().stats;
            lap.nanos[first] = stats.rendering_bp_nanos;
            lap.nanos[first + 1] = stats.preprocessing_bp_nanos;
            lap.runs[first] = 1;
            lap.runs[first + 1] = 1;
            if pose_only && arena.backward().pose.map(f32::to_bits) != full_pose {
                tally.pose_mismatches += 1;
            }
            if record {
                for c in 0..COLUMNS {
                    tally.nanos[c] += lap.nanos[c];
                    tally.runs[c] += lap.runs[c];
                }
            }
        }
    };
    let choice = default_backend();
    let chosen_backend = choice.instantiate();
    let (mut arena, mut chosen_arena) = (FrameArena::new(), FrameArena::new());
    let (mut serial, mut chosen) = (Tally::default(), Tally::default());
    // Two unrecorded iterations, one of each backward, establish each
    // arena's capacities.
    run_block(&Serial, &mut arena, &mut serial, 2, false);
    run_block(&*chosen_backend, &mut chosen_arena, &mut chosen, 2, false);
    let per_block = iterations.div_ceil(BLOCKS).next_multiple_of(2);
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
    // Both arenas end on a pose-only pass; compare full gradients.
    arena.backward_visible_fused(&ds.camera, w2c, &Serial);
    chosen_arena.backward_visible_fused(&ds.camera, w2c, &*chosen_backend);
    let identical = serial.pose_mismatches + chosen.pose_mismatches == 0
        && chosen_arena.output().image == arena.output().image
        && chosen_arena.backward().pose == arena.backward().pose
        && chosen_arena.backward().gaussians == arena.backward().gaussians;

    let mut table = Table::new(&[
        "stage",
        "serial µs",
        "share",
        &format!("{} µs", choice.label()),
        "vs serial",
    ]);
    let (total, chosen_total) = (serial.iteration_us(), chosen.iteration_us());
    let rows = STAGES
        .iter()
        .enumerate()
        .map(|(c, &stage)| (stage, serial.us(c), chosen.us(c)))
        .chain([("iteration", total, chosen_total)])
        .chain(POSE_STAGES.iter().enumerate().map(|(k, &stage)| {
            let c = STAGES.len() + k;
            (stage, serial.us(c), chosen.us(c))
        }));
    for (stage, us, chosen_us) in rows {
        table.row(vec![
            stage.to_string(),
            f(us, 1),
            f(us / total, 3),
            f(chosen_us, 1),
            format!("×{}", f(chosen_us / us, 2)),
        ]);
    }
    format!(
        "Stage budget at session size ({} Gaussians visible of {}, {}x{}, {} blended fragments, {} warm iterations, {} CPUs; pose-only pose == full pose and {} bitwise == serial: {identical}):\n{}Arena high-water at session size: {} B ({} MB)\n",
        arena.projection().visible_count(),
        map.len(),
        ds.camera.width,
        ds.camera.height,
        arena.fragments().total_fragments(),
        iterations,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        choice.label(),
        table.render(),
        arena.high_water_bytes(),
        f(arena.high_water_bytes() as f64 / 1e6, 4)
    )
}

/// One mapping iteration at session size, stage by stage, on [`Serial`] and
/// on the process default backend in alternating blocks of one process, as
/// [`session_stage_table`]'s are: the bounds refresh, the cull, Steps ❶–❺
/// with the full gradient set and the loss, then the Adam step — what each
/// of a keyframe's mapping iterations runs. Each backend maps its own copy
/// of the session map from the same start, so after the same iterations
/// both copies must be the same bits, shard versions included (the
/// header's bitwise check).
fn mapping_stage_table(session: &SessionMap, scale: Scale) -> String {
    let SessionMap {
        ds,
        map,
        w2c,
        frame,
    } = session;
    let camera = &ds.camera;
    let cfg = LossConfig::default();
    let iterations: usize = match scale {
        Scale::Quick => 20,
        Scale::Full => 400,
    };
    const STAGES: [&str; 9] = [
        "bounds refresh",
        "cull",
        "Step ❶ project",
        "tile-bin",
        "Step ❸ render",
        "loss",
        "Step ❹ render BP",
        "Step ❺ preprocess BP",
        "Adam step",
    ];
    /// One backend's mapping state and its per-stage nanoseconds.
    struct Mapper {
        map: ShardedScene,
        optimizer: MapOptimizer,
        arena: FrameArena,
        nanos: [u64; STAGES.len()],
    }
    let mapper = || Mapper {
        map: map.clone(),
        optimizer: MapOptimizer::new(map.capacity(), MapLearningRates::default()),
        arena: FrameArena::new(),
        nanos: [0; STAGES.len()],
    };
    let run_block = |backend: &dyn Backend, mapper: &mut Mapper, n: usize, record: bool| {
        let Mapper {
            map,
            optimizer,
            arena,
            nanos,
        } = mapper;
        for _ in 0..n {
            let timed = |run: &mut dyn FnMut()| {
                let t = Instant::now();
                run();
                t.elapsed().as_nanos() as u64
            };
            let mut lap = [0u64; STAGES.len()];
            lap[0] = timed(&mut || map.refresh_bounds_with(backend));
            lap[1] = timed(&mut || arena.cull(map, w2c, camera, None, backend));
            lap[2] = timed(&mut || arena.project_visible(w2c, camera, backend));
            lap[3] = timed(&mut || arena.assign_tiles(camera, backend));
            lap[4] = timed(&mut || arena.render_fused(camera, backend));
            lap[5] = timed(&mut || {
                arena.compute_loss_with(&frame.color, frame.depth.as_ref(), &cfg, backend);
            });
            arena.backward_visible_fused(camera, w2c, backend);
            lap[6] = arena.backward().stats.rendering_bp_nanos;
            lap[7] = arena.backward().stats.preprocessing_bp_nanos;
            lap[8] = timed(&mut || {
                let (ids, grads) = (&arena.visible().ids, &arena.backward().gaussians);
                optimizer.step_visible_with(map, ids, grads, backend);
            });
            if record {
                for (sum, lap) in nanos.iter_mut().zip(lap) {
                    *sum += lap;
                }
            }
        }
    };
    const BLOCKS: usize = 10;
    let choice = default_backend();
    let chosen_backend = choice.instantiate();
    let (mut serial, mut chosen) = (mapper(), mapper());
    run_block(&Serial, &mut serial, 2, false);
    run_block(&*chosen_backend, &mut chosen, 2, false);
    let per_block = iterations.div_ceil(BLOCKS);
    for _ in 0..BLOCKS {
        run_block(&Serial, &mut serial, per_block, true);
        run_block(&*chosen_backend, &mut chosen, per_block, true);
    }
    let versions = |m: &Mapper| {
        m.map
            .shards()
            .iter()
            .map(|s| s.version())
            .collect::<Vec<_>>()
    };
    let identical = serial.map.export_state() == chosen.map.export_state()
        && versions(&serial) == versions(&chosen)
        && serial.arena.loss().loss.to_bits() == chosen.arena.loss().loss.to_bits()
        && serial.arena.backward().gaussians == chosen.arena.backward().gaussians;

    let mut table = Table::new(&[
        "stage",
        "serial µs",
        "share",
        &format!("{} µs", choice.label()),
        "vs serial",
    ]);
    let us = |m: &Mapper, stage: usize| m.nanos[stage] as f64 / 1e3 / (per_block * BLOCKS) as f64;
    let total = |m: &Mapper| (0..STAGES.len()).map(|c| us(m, c)).sum::<f64>();
    let rows = STAGES
        .iter()
        .enumerate()
        .map(|(c, &stage)| (stage, us(&serial, c), us(&chosen, c)))
        .chain([("mapping iteration", total(&serial), total(&chosen))]);
    for (stage, us, chosen_us) in rows {
        table.row(vec![
            stage.to_string(),
            f(us, 1),
            f(us / total(&serial), 3),
            f(chosen_us, 1),
            format!("×{}", f(chosen_us / us, 2)),
        ]);
    }
    format!(
        "Mapping iteration budget at session size ({} Gaussians visible of {}, {}x{}, full backward + Adam, {} iterations, {} CPUs; {} bitwise == serial: {identical}):\n{}",
        serial.arena.visible().ids.len(),
        map.len(),
        camera.width,
        camera.height,
        per_block * BLOCKS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        choice.label(),
        table.render(),
    )
}

/// One tracking iteration at each of RTGS's downsampled resolutions
/// (factors 2, 3 and 4 of the 75×42 session frame: 6, 2 and 2 tiles), on
/// [`Serial`] and on the process default backend, with Step ❸ and Step ❹
/// apart: what a second core buys where RTGS tracks most frames. Iterations
/// run as tracking runs them — through one trial scope over the session map
/// ([`FrameArena::trials`]), pose-only backward — in alternating blocks of
/// one process, as [`session_stage_table`]'s are; the `bitwise` column
/// compares the two backends' images and pose tangents.
fn downsampled_iteration_table(session: &SessionMap, scale: Scale) -> String {
    let SessionMap {
        ds,
        map,
        w2c,
        frame,
    } = session;
    let cfg = LossConfig::default();
    let iterations: usize = match scale {
        Scale::Quick => 20,
        Scale::Full => 400,
    };
    const BLOCKS: usize = 10;
    /// Nanoseconds summed over a block: (iteration, Step ❸, Step ❹).
    type Laps = [u64; 3];
    let choice = default_backend();
    let chosen_backend = choice.instantiate();
    let mut table = Table::new(&[
        "factor",
        "frame",
        "tiles",
        "serial µs",
        &format!("{} µs", choice.label()),
        "vs serial",
        "Step ❸ vs serial",
        "Step ❹ vs serial",
        "bitwise",
    ]);
    for factor in [2, 3, 4] {
        let camera = ds.camera.downsampled(factor);
        let color = frame.color.downsampled(factor);
        let depth = frame.depth.as_ref().map(|d| d.downsampled(factor));
        let run_block = |backend: &dyn Backend, arena: &mut FrameArena, laps: &mut Laps, n| {
            let mut trials = arena.trials(map);
            for _ in 0..n {
                let t0 = std::time::Instant::now();
                trials.cull(w2c, &camera, None, backend);
                trials.project_visible(w2c, &camera, backend);
                trials.assign_tiles(&camera, backend);
                let t1 = std::time::Instant::now();
                trials.render_fused(&camera, backend);
                let t2 = std::time::Instant::now();
                trials.compute_loss_with(&color, depth.as_ref(), &cfg, backend);
                trials.backward_visible_grads(&camera, w2c, GradSet::PoseOnly, backend);
                laps[0] += t0.elapsed().as_nanos() as u64;
                laps[1] += (t2 - t1).as_nanos() as u64;
                laps[2] += trials.backward().stats.rendering_bp_nanos;
            }
        };
        let (mut serial_arena, mut chosen_arena) = (FrameArena::new(), FrameArena::new());
        let (mut serial, mut chosen) = ([0u64; 3], [0u64; 3]);
        run_block(&Serial, &mut serial_arena, &mut [0; 3], 2);
        run_block(&*chosen_backend, &mut chosen_arena, &mut [0; 3], 2);
        for _ in 0..BLOCKS {
            run_block(&Serial, &mut serial_arena, &mut serial, iterations / BLOCKS);
            run_block(
                &*chosen_backend,
                &mut chosen_arena,
                &mut chosen,
                iterations / BLOCKS,
            );
        }
        let identical = chosen_arena.output().image == serial_arena.output().image
            && chosen_arena.backward().pose == serial_arena.backward().pose;
        let us = |laps: &Laps| laps[0] as f64 / 1e3 / iterations as f64;
        let ratio = |k: usize| format!("×{}", f(chosen[k] as f64 / serial[k] as f64, 2));
        table.row(vec![
            factor.to_string(),
            format!("{}x{}", camera.width, camera.height),
            serial_arena.tiles().tile_count().to_string(),
            f(us(&serial), 1),
            f(us(&chosen), 1),
            ratio(0),
            ratio(1),
            ratio(2),
            identical.to_string(),
        ]);
    }
    format!(
        "Tracking iteration at RTGS's downsampled resolutions ({} iterations each, trial scope, pose-only backward, {} CPUs):\n{}",
        iterations / BLOCKS * BLOCKS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_steady_state_is_bitwise_identical_to_fresh() {
        let out = arena_steady_state(Scale::Quick);
        assert!(out.contains("arena_reuse"));
        assert!(out.contains("true"));
        assert!(!out.contains("false"));
        assert!(out.contains("Stage budget at session size"), "{out}");
        assert!(out.contains("Step ❺ preprocess BP"), "{out}");
        assert!(out.contains("Step ❺ preprocess BP (pose)"), "{out}");
        assert!(out.contains("Arena high-water at session size: "), "{out}");
        assert!(
            out.contains("Mapping iteration budget at session size"),
            "{out}"
        );
        assert!(out.contains("Adam step"), "{out}");
        assert!(out.contains("downsampled resolutions"), "{out}");
        for row in ["37x21", "25x14", "18x10"] {
            let line = out.lines().find(|l| l.contains(row));
            let line = line.unwrap_or_else(|| panic!("no {row} row in {out}"));
            assert!(line.trim_end().ends_with("true"), "bitwise flag: {line}");
        }
    }
}
