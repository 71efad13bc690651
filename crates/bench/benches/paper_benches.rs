//! Criterion benchmarks keyed to the paper's tables and figures.
//!
//! Each group regenerates the computational core of one evaluation artifact
//! on real workloads (wall-clock of the Rust implementation, plus the cycle
//! models for hardware comparisons). Run with:
//!
//! ```bash
//! cargo bench --workspace
//! ```

use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};
use rtgs_accel::{
    plugin_iteration, simulate_run, Aggregation, ArchConfig, DeviceSpec, FrameWorkload, GpuSpec,
    HardwareModel, PluginConfig, RunWorkload, Scheduling, TechNode,
};
use rtgs_core::{AdaptivePruner, PruningConfig, RtgsConfig};
use rtgs_math::Se3;
use rtgs_render::reference;
use rtgs_render::{FrameArena, GaussianScene, LossConfig, WorkloadTrace};
use rtgs_runtime::{
    Backend, BackendChoice, IngestConfig, IngestHub, LatePolicy, Parallel, Serial, Serve,
};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, OpenLoopSession, SlamConfig, SlamPipeline, SlamReport};
use rtgs_snapshot::{Channel, CheckpointLog};
use std::time::Duration;

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

/// Untimed warm-up of every row that runs on more than one thread: the
/// sessions on the default (machine) backend, the served fleets and the
/// session-size `parallel` rows of `runtime_scaling`. A sample is one call,
/// so the ten samples of a 1–6 ms routine are over in tens of milliseconds,
/// and on the bench host a pool thread that was just woken shares its
/// waker's vCPU until the kernel's periodic balancer has moved it — about a
/// second (`.claude/skills/verify/SKILL.md`, gotchas). Without the warm-up
/// such a row reads as its serial twin whatever the code does
/// (`scheduled_4_sessions` ≈ `sequential_4_sessions`: ROADMAP's "the
/// scheduler currently buys nothing").
const THREADED_WARM_UP: Duration = Duration::from_millis(1500);

fn small_dataset() -> SyntheticDataset {
    SyntheticDataset::generate(DatasetProfile::tum_analog().small(), 4)
}

fn to_workload(report: &SlamReport) -> RunWorkload {
    RunWorkload {
        frames: report
            .frames
            .iter()
            .map(|f| FrameWorkload {
                tracking: f.traces.clone(),
                mapping: f.mapping_traces.clone(),
                is_keyframe: f.is_keyframe,
            })
            .collect(),
    }
}

fn traced_run() -> (RunWorkload, Vec<WorkloadTrace>) {
    let ds = small_dataset();
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(4);
    cfg.tracking.iterations = 4;
    cfg.mapping_iterations = 4;
    cfg.record_traces = true;
    let report = SlamPipeline::new(cfg, &ds).run();
    let traces: Vec<WorkloadTrace> = report
        .frames
        .iter()
        .flat_map(|f| f.traces.clone())
        .collect();
    (to_workload(&report), traces)
}

/// The size a repository-benchmark session runs the kernels at: a 75×42
/// `replica_analog` frame (partial edge tiles included) over the
/// ~1 k-Gaussian map a MonoGS session holds after its first keyframe — a
/// SLAM map's splats are far larger than the reference scene's (~170 per
/// tile, ~560 k fragments inspected per pass). Returns the dataset, the
/// flattened map and the world-to-camera pose of frame 1.
fn session_size_scene() -> (SyntheticDataset, GaussianScene, Se3) {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), 2);
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(2);
    cfg.tracking.iterations = 4;
    cfg.mapping_iterations = 4;
    let mut session = SlamPipeline::new(cfg, &ds);
    session.run();
    let scene = session.scene().flatten().0;
    let w2c = ds.poses_c2w[1].inverse();
    (ds, scene, w2c)
}

/// Rendering kernels (Steps ❶–❺): the substrate every experiment rests on.
fn bench_render_kernels(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("render_kernels");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let scene = ds.reference_scene.clone();
    let w2c = ds.poses_c2w[0].inverse();

    let mut arena = FrameArena::new();
    group.bench_function("forward_full_frame", |b| {
        b.iter(|| arena.forward(&scene, &w2c, &ds.camera, None, &Serial).stats)
    });

    arena.render_fused(&ds.camera, &Serial);
    arena.compute_loss(
        &ds.frames[0].color,
        ds.frames[0].depth.as_ref(),
        &LossConfig::default(),
    );
    group.bench_function("backward_full_frame", |b| {
        b.iter(|| {
            arena.backward_fused(&scene, &ds.camera, &w2c, &Serial);
            arena.backward().pose
        })
    });

    // The same two kernels at session size (see `session_size_scene`), a
    // ~2.5 ms iteration against the ~140 µs one above.
    let (ds, scene, w2c) = session_size_scene();
    group.bench_function("forward_session_size", |b| {
        b.iter(|| arena.forward(&scene, &w2c, &ds.camera, None, &Serial).stats)
    });
    // Step ❶ alone over the same map: the per-Gaussian lane kernel, its
    // scalar libm activations and the scatter (Step ❺, its counterpart,
    // shows in `backward_session_size` below). Re-projecting the same scene
    // at the same pose leaves the arena as the bench above left it.
    group.bench_function("project_session_size", |b| {
        b.iter(|| {
            arena.project(&scene, &w2c, &ds.camera, None, &Serial);
            arena.projection().visible_count()
        })
    });
    // The recording pass — the one a session's tracking and mapping
    // iterations run: the same blend plus the R&B records Step ❹ consumes
    // (over the projection and tile lists the bench above left behind).
    group.bench_function("forward_fused_session_size", |b| {
        b.iter(|| {
            arena.render_fused(&ds.camera, &Serial);
            arena.output().stats
        })
    });
    arena.compute_loss(
        &ds.frames[0].color,
        ds.frames[0].depth.as_ref(),
        &LossConfig::default(),
    );
    group.bench_function("backward_session_size", |b| {
        b.iter(|| {
            arena.backward_fused(&scene, &ds.camera, &w2c, &Serial);
            arena.backward().pose
        })
    });
    group.finish();
}

/// SoA vs AoS: the production structure-of-arrays kernels against the
/// seed's preserved array-of-structs reference path, same scene, same
/// camera, serial execution — what the layout refactor buys by itself.
fn bench_soa_vs_aos(c: &mut Criterion) {
    let mut group = c.benchmark_group("soa_vs_aos");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let scene = ds.reference_scene.clone();
    let w2c = ds.poses_c2w[0].inverse();

    // The AoS oracle allocates its outputs per call, so the SoA side runs
    // on a fresh arena per call too: the delta is the layout, not reuse.
    group.bench_function("forward/soa", |b| {
        b.iter(|| {
            let mut arena = FrameArena::new();
            arena.forward(&scene, &w2c, &ds.camera, None, &Serial);
            arena
        })
    });
    group.bench_function("forward/aos", |b| {
        b.iter(|| reference::render_frame_aos(&scene, &w2c, &ds.camera, None))
    });

    let mut arena = FrameArena::new();
    arena.forward(&scene, &w2c, &ds.camera, None, &Serial);
    let (aos_proj, aos_tiles, _) = reference::render_frame_aos(&scene, &w2c, &ds.camera, None);
    arena.compute_loss(
        &ds.frames[0].color,
        ds.frames[0].depth.as_ref(),
        &LossConfig::default(),
    );
    let loss = arena.loss().clone();
    // Like for like: the AoS backward re-walks, so the SoA side is the SoA
    // re-walk driver.
    group.bench_function("backward/soa", |b| {
        b.iter(|| {
            reference::backward_rewalk(
                &mut arena,
                &scene,
                &ds.camera,
                &w2c,
                &loss.pixel_grads,
                &Serial,
            );
            arena.backward().pose
        })
    });
    group.bench_function("backward/aos", |b| {
        b.iter(|| {
            reference::backward_aos(
                &scene,
                &aos_proj,
                &aos_tiles,
                &ds.camera,
                &w2c,
                &loss.pixel_grads,
            )
        })
    });
    group.finish();
}

/// Fused tile pass: one render+backward iteration with the forward pass
/// recording fragment sequences (backward consumes them) versus the unfused
/// pair (backward re-walks every pixel's splat list).
///
/// Pixel gradients are dense (every pixel carries color and depth loss), as
/// in a mid-optimization tracking/mapping iteration — the workload the
/// fusion exists for; at the converged pose gradients vanish and the
/// backward pass is free either way.
fn bench_fused_tile_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_tile_pass");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let scene = ds.reference_scene.clone();
    let w2c = ds.poses_c2w[0].inverse();
    let backend = Serial;

    // Dense upstream gradients, identical for both variants: the loss of
    // this pose's render against the *next* frame's observation.
    let target = &ds.frames[1];
    let prepared = || {
        let mut arena = FrameArena::new();
        arena.forward(&scene, &w2c, &ds.camera, None, &backend);
        arena.compute_loss(&target.color, target.depth.as_ref(), &LossConfig::default());
        arena
    };
    let (mut unfused, mut fused) = (prepared(), prepared());
    let pixel_grads = unfused.loss().pixel_grads.clone();

    group.bench_function("render_backward/unfused", |b| {
        b.iter(|| {
            unfused.render(&ds.camera, &backend);
            reference::backward_rewalk(
                &mut unfused,
                &scene,
                &ds.camera,
                &w2c,
                &pixel_grads,
                &backend,
            );
            unfused.backward().pose
        })
    });
    group.bench_function("render_backward/fused", |b| {
        b.iter(|| {
            fused.render_fused(&ds.camera, &backend);
            fused.backward_fused(&scene, &ds.camera, &w2c, &backend);
            fused.backward().pose
        })
    });
    group.finish();
}

/// Tab. 2: one SLAM frame per base algorithm.
fn bench_table2_baseline_slams(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_baseline_slams");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(THREADED_WARM_UP);
    let ds = small_dataset();
    for algo in BaseAlgorithm::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(algo.name()),
            &algo,
            |b, &algo| {
                b.iter(|| {
                    let mut cfg = SlamConfig::for_algorithm(algo).with_frames(2);
                    cfg.tracking.iterations = 3;
                    cfg.mapping_iterations = 3;
                    SlamPipeline::new(cfg, &ds).run()
                })
            },
        );
    }
    group.finish();
}

/// Tab. 6 / Fig. 14: base vs RTGS algorithm wall-clock.
fn bench_table6_rtgs_algorithm(c: &mut Criterion) {
    let mut group = c.benchmark_group("table6_rtgs_algorithm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(THREADED_WARM_UP);
    let ds = small_dataset();
    let mk_cfg = || {
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(3);
        cfg.tracking.iterations = 4;
        cfg.mapping_iterations = 4;
        cfg
    };
    group.bench_function("base", |b| {
        b.iter(|| SlamPipeline::new(mk_cfg(), &ds).run())
    });
    group.bench_function("ours_full", |b| {
        b.iter(|| {
            SlamPipeline::with_extension(mk_cfg(), &ds, RtgsConfig::full().into_extension()).run()
        })
    });
    group.bench_function("ours_pruning_only", |b| {
        b.iter(|| {
            SlamPipeline::with_extension(mk_cfg(), &ds, RtgsConfig::pruning_only().into_extension())
                .run()
        })
    });
    group.bench_function("ours_downsampling_only", |b| {
        b.iter(|| {
            SlamPipeline::with_extension(
                mk_cfg(),
                &ds,
                RtgsConfig::downsampling_only().into_extension(),
            )
            .run()
        })
    });
    group.finish();
}

/// Fig. 15 / Tab. 7: hardware model evaluation throughput.
fn bench_fig15_hardware_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_hardware_fps");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let (run, _) = traced_run();
    let models: [(&str, HardwareModel); 4] = [
        ("onx", HardwareModel::onx()),
        ("onx_distwar", HardwareModel::onx_distwar()),
        ("rtgs", HardwareModel::rtgs()),
        ("gauspu", HardwareModel::gauspu()),
    ];
    for (name, hw) in models {
        group.bench_with_input(BenchmarkId::from_parameter(name), &hw, |b, hw| {
            b.iter(|| simulate_run(&run, hw, true))
        });
    }
    group.finish();
}

/// Fig. 17: plug-in configuration ablations on a real trace.
fn bench_fig17_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig17_ablation");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let (_, traces) = traced_run();
    let trace = traces.last().expect("need traces").clone();
    let prev = traces[traces.len().saturating_sub(2)].clone();
    let configs: [(&str, PluginConfig); 4] = [
        ("bare", PluginConfig::bare()),
        (
            "gmu",
            PluginConfig {
                aggregation: Aggregation::Gmu,
                ..PluginConfig::bare()
            },
        ),
        (
            "gmu_rb",
            PluginConfig {
                aggregation: Aggregation::Gmu,
                rb_buffer: true,
                ..PluginConfig::bare()
            },
        ),
        ("full_rtgs", PluginConfig::rtgs()),
    ];
    for (name, cfg) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| plugin_iteration(&trace, Some(&prev), cfg))
        });
    }
    // Scheduling ablation (Fig. 17a).
    for sched in [
        Scheduling::Static,
        Scheduling::Streaming,
        Scheduling::StreamingPaired,
        Scheduling::Ideal,
    ] {
        let cfg = PluginConfig {
            arch: ArchConfig::paper(),
            scheduling: sched,
            rb_buffer: true,
            aggregation: Aggregation::Gmu,
        };
        group.bench_with_input(
            BenchmarkId::new("scheduling", format!("{sched:?}")),
            &cfg,
            |b, cfg| b.iter(|| plugin_iteration(&trace, Some(&prev), cfg)),
        );
    }
    group.finish();
}

/// Ablation: pruning-score bookkeeping cost (the paper's "zero overhead"
/// claim — scoring must be negligible next to a backward pass).
fn bench_pruning_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pruning_overhead");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let scene = ds.reference_scene.clone();
    let w2c = ds.poses_c2w[0].inverse();
    let mut arena = FrameArena::new();
    arena.project(&scene, &w2c, &ds.camera, None, &Serial);
    arena.assign_tiles(&ds.camera, &Serial);
    arena.render_fused(&ds.camera, &Serial);
    let loss = arena.compute_loss(
        &ds.frames[0].color,
        ds.frames[0].depth.as_ref(),
        &LossConfig::default(),
    );
    arena.backward_fused(&scene, &ds.camera, &w2c, &Serial);
    let grads = arena.backward();

    group.bench_function("importance_scoring", |b| {
        b.iter(|| {
            grads
                .gaussians
                .iter()
                .map(|g| g.importance_score(0.8))
                .sum::<f32>()
        })
    });
    group.bench_function("full_prune_step", |b| {
        let mut pruner = AdaptivePruner::new(
            PruningConfig {
                initial_interval: 1,
                ..Default::default()
            },
            scene.len(),
        );
        let all_ids: Vec<u32> = (0..scene.len() as u32).collect();
        b.iter(|| {
            let mut mask = vec![true; scene.len()];
            let artifacts = rtgs_slam::IterationArtifacts {
                iteration: 0,
                loss,
                grads,
                visible_ids: &all_ids,
                tiles: arena.tiles(),
                output: arena.output(),
            };
            pruner.begin_frame(scene.len());
            pruner.observe_iteration(&artifacts, &mut mask);
            mask
        })
    });
    group.finish();
}

/// Microbench: device specs and energy tables (Tab. 4/5 accessors used by
/// the experiment harness; kept here so regressions in the config layer
/// surface in the bench logs).
fn bench_config_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("config_layer");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1));
    group.bench_function("table5", |b| b.iter(DeviceSpec::table5));
    group.bench_function("rtgs_scaled", |b| b.iter(|| DeviceSpec::rtgs(TechNode::N8)));
    group.bench_function("gpu_specs", |b| b.iter(GpuSpec::onx));
    group.finish();
}

/// Tracking pose-optimization cost per iteration (the unit the paper's
/// per-frame iteration budgets multiply).
fn bench_tracking_iteration(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracking_iteration");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let map = rtgs_render::ShardedScene::from_scene(&ds.reference_scene, 1.0);
    use rtgs_slam::{track_frame, NoObserver, StageNanos, TrackingConfig};
    group.bench_function("track_frame_4_iters", |b| {
        b.iter(|| {
            let mut mask = vec![true; map.capacity()];
            let mut t = StageNanos::default();
            track_frame(
                &map,
                ds.poses_c2w[1].inverse(),
                &ds.frames[1],
                &ds.camera,
                &TrackingConfig {
                    iterations: 4,
                    ..Default::default()
                },
                &mut mask,
                &mut NoObserver,
                &mut t,
                &mut FrameArena::new(),
                &Serial,
            )
        })
    });
    // With 50% of the map masked (the pruning speedup source).
    group.bench_function("track_frame_4_iters_half_masked", |b| {
        b.iter(|| {
            let mut mask: Vec<bool> = (0..map.capacity()).map(|i| i % 2 == 0).collect();
            let mut t = StageNanos::default();
            track_frame(
                &map,
                ds.poses_c2w[1].inverse(),
                &ds.frames[1],
                &ds.camera,
                &TrackingConfig {
                    iterations: 4,
                    ..Default::default()
                },
                &mut mask,
                &mut NoObserver,
                &mut t,
                &mut FrameArena::new(),
                &Serial,
            )
        })
    });
    group.finish();
}

/// Step ❷ in isolation: the CSR + stable-radix tile assignment against the
/// legacy per-tile `Vec` + comparison `sort_by` it replaced (both produce
/// identical depth ordering — property-tested in
/// `crates/render/tests/equivalence.rs`). `csr_radix_reused` is the
/// production path: rebuild into arena-owned storage, zero steady-state
/// allocations; `csr_radix_fresh` builds into a new arena each time and pays
/// the allocations (its projection happens in the untimed setup).
fn bench_tile_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_sort");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    // Two workload shapes: the SLAM bench scene (short per-tile lists,
    // allocation-dominated) and a dense overlap scene (hundreds of splats
    // per tile, sort-dominated — the regime the radix pass targets).
    let ds = small_dataset();
    let slam_cam = ds.camera;
    let slam_pose = ds.poses_c2w[0].inverse();
    let dense_cam = rtgs_render::PinholeCamera::from_fov(128, 96, 1.2);
    let dense_scene: rtgs_render::GaussianScene = (0..4000)
        .map(|i| {
            rtgs_render::Gaussian3d::from_activated(
                rtgs_math::Vec3::new(
                    ((i * 37) % 97) as f32 * 0.02 - 1.0,
                    ((i * 17) % 53) as f32 * 0.03 - 0.8,
                    1.0 + ((i * 29) % 31) as f32 * 0.12,
                ),
                rtgs_math::Vec3::splat(0.08),
                rtgs_math::Quat::IDENTITY,
                0.5,
                rtgs_math::Vec3::splat(0.5),
            )
        })
        .collect();

    for (label, scene, pose, camera) in [
        ("slam", &ds.reference_scene, &slam_pose, &slam_cam),
        ("dense", &dense_scene, &rtgs_math::Se3::IDENTITY, &dense_cam),
    ] {
        let projected = || {
            let mut arena = FrameArena::new();
            arena.project(scene, pose, camera, None, &Serial);
            arena
        };
        let mut arena = projected();
        group.bench_function(BenchmarkId::new("legacy_per_tile_sort_by", label), |b| {
            b.iter(|| reference::build_tile_lists_legacy(arena.projection(), camera))
        });
        group.bench_function(BenchmarkId::new("csr_radix_fresh", label), |b| {
            b.iter_batched(
                projected,
                |mut fresh| {
                    fresh.assign_tiles(camera, &Serial);
                    fresh
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("csr_radix_reused", label), |b| {
            b.iter(|| {
                arena.assign_tiles(camera, &Serial);
                arena.tiles().intersection_count()
            })
        });
    }
    group.finish();
}

/// One full steady-state tracking iteration — frustum cull → project →
/// tile assign → fused forward → loss → fused backward — through a warm
/// [`FrameArena`] (the production zero-allocation path) versus the same
/// stages through a new arena per iteration. The delta is exactly the heap
/// churn arena reuse removes.
fn bench_tracking_iteration_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracking_iteration_steady_state");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let ds = small_dataset();
    let map = rtgs_render::ShardedScene::from_scene(&ds.reference_scene, 1.0);
    let mask = vec![true; map.capacity()];
    let w2c = ds.poses_c2w[1].inverse();
    let frame = &ds.frames[1];
    let cfg = LossConfig::default();
    let backend = Serial;

    let iteration = |arena: &mut FrameArena| {
        arena.cull(&map, &w2c, &ds.camera, Some(&mask), &backend);
        arena.project_visible(&w2c, &ds.camera, &backend);
        arena.assign_tiles(&ds.camera, &backend);
        arena.render_fused(&ds.camera, &backend);
        let loss = arena.compute_loss(&frame.color, frame.depth.as_ref(), &cfg);
        arena.backward_visible_fused(&ds.camera, &w2c, &backend);
        (loss, arena.backward().pose)
    };
    let mut arena = FrameArena::new();
    // Warm-up: establish every buffer's steady-state capacity.
    for _ in 0..2 {
        iteration(&mut arena);
    }
    group.bench_function("arena_reuse", |b| b.iter(|| iteration(&mut arena)));
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| iteration(&mut FrameArena::new()))
    });
    group.finish();
}

/// Runtime subsystem: serial-vs-parallel wall-clock of the forward and
/// backward kernels (the perf trajectory of the `rtgs-runtime` backend
/// seam, recorded in `BENCH_RESULTS.json`), at two sizes.
///
/// `forward/*` and `backward/*` run the reference scene — a 46 µs / 5 µs
/// pair of passes over four tiles. They are the **dispatch-overhead rows**:
/// a loop that short is over before a parked thread could be woken, so
/// what they show is what publishing a loop costs and what a helper that
/// is already looking can still pick up (`BENCH_RESULTS.json`: `backward`
/// 5.3 µs serial, 5.8–7.2 µs on a pool — a loop costs about a microsecond
/// and a half; `forward` 46 → 36–37 µs). PR 19 closed ROADMAP item 1's
/// "never beats serial, `backward` gets slower with threads" with them:
/// before the allocation-free parallel-for the same rows read `forward`
/// 46–72 µs and `backward` 6–16 µs on a pool, all of it dispatch.
///
/// `forward_session_size/*` and `backward_session_size/*` run the size
/// that matters ([`session_size_scene`]) on `Serial` and on the default
/// backend — the machine, `available_parallelism() − 1` workers beside the
/// benching thread: the rows a second core has to show up in, which is why
/// the `parallel` pair is warmed up for [`THREADED_WARM_UP`] first.
fn bench_runtime_scaling(c: &mut Criterion) {
    /// One `forward` row and one `backward` row of `scene` on `backend`.
    fn bench_backend(
        group: &mut BenchmarkGroup<'_>,
        names: [&str; 2],
        label: &str,
        backend: &dyn Backend,
        (ds, scene, w2c): &(SyntheticDataset, GaussianScene, Se3),
    ) {
        let mut arena = FrameArena::new();
        group.bench_function(BenchmarkId::new(names[0], label), |b| {
            b.iter(|| arena.forward(scene, w2c, &ds.camera, None, backend).stats)
        });
        arena.render_fused(&ds.camera, backend);
        arena.compute_loss(
            &ds.frames[0].color,
            ds.frames[0].depth.as_ref(),
            &LossConfig::default(),
        );
        group.bench_function(BenchmarkId::new(names[1], label), |b| {
            b.iter(|| {
                arena.backward_fused(scene, &ds.camera, w2c, backend);
                arena.backward().pose
            })
        });
    }

    let mut group = c.benchmark_group("runtime_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    let ds = small_dataset();
    let (scene, w2c) = (ds.reference_scene.clone(), ds.poses_c2w[0].inverse());
    let toy = (ds, scene, w2c);
    let names = ["forward", "backward"];
    bench_backend(&mut group, names, "serial", &Serial, &toy);
    for threads in [1usize, 2, 4, 8] {
        let label = format!("parallel-{threads}");
        bench_backend(&mut group, names, &label, &Parallel::new(threads), &toy);
    }

    let session = session_size_scene();
    let names = ["forward_session_size", "backward_session_size"];
    bench_backend(&mut group, names, "serial", &Serial, &session);
    group.warm_up_time(THREADED_WARM_UP);
    let machine = BackendChoice::default().instantiate();
    bench_backend(&mut group, names, "parallel", &*machine, &session);
    group.finish();
}

/// Large-scene scaling: per-frame projection + render cost as the *total*
/// map size grows from 60k to 500k Gaussians while the frustum's contents
/// stay fixed (the camera sees the same slab of a long lateral strip; the
/// rest of the map extends outside the field of view).
///
/// `sharded/N` runs the production path — shard frustum cull, gather,
/// chunked projection, tile build, render — whose cost should stay
/// near-flat in N. `flat/N` runs the same kernels over the flat full
/// scene, which must walk (and individually cull) every Gaussian and
/// therefore degrades linearly. Both produce bitwise-identical images
/// (see `crates/render/tests/equivalence.rs`).
fn bench_large_scene_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_scene_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cam = rtgs_render::PinholeCamera::from_fov(96, 64, 1.2);
    let w2c = rtgs_math::Se3::IDENTITY;

    for &n in &[60_000usize, 160_000, 500_000] {
        // A long strip along +x at viewing depth: fixed Gaussian density,
        // so the camera (looking down +z from the origin) always has the
        // same ~frustum occupancy while the strip — and the map — grows.
        let mut map = rtgs_render::ShardedScene::new(1.0);
        for i in 0..n {
            let x = i as f32 * 0.02;
            let z = 2.0 + (i % 50) as f32 * 0.06;
            let y = ((i % 7) as f32 - 3.0) * 0.12;
            map.insert(rtgs_render::Gaussian3d::from_activated(
                rtgs_math::Vec3::new(x, y, z),
                rtgs_math::Vec3::splat(0.03),
                rtgs_math::Quat::IDENTITY,
                0.6,
                rtgs_math::Vec3::new(0.4, 0.6, 0.8),
            ));
        }
        map.refresh_bounds();
        let (flat, _) = map.flatten();
        let backend = Serial;

        let mut arena = FrameArena::new();
        group.bench_with_input(BenchmarkId::new("sharded", n), &map, |b, map| {
            b.iter(|| {
                arena.cull(map, &w2c, &cam, None, &backend);
                arena.project_visible(&w2c, &cam, &backend);
                arena.assign_tiles(&cam, &backend);
                arena.render(&cam, &backend);
                arena.output().stats
            })
        });
        group.bench_with_input(BenchmarkId::new("flat", n), &flat, |b, flat| {
            b.iter(|| arena.forward(flat, &w2c, &cam, None, &backend).stats)
        });
    }
    group.finish();
}

/// Runtime subsystem: serving 4 concurrent SLAM sessions versus running
/// them back-to-back.
fn bench_session_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_serving");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
    let mk_cfg = |algo: BaseAlgorithm, backend: BackendChoice| {
        let mut cfg = SlamConfig::for_algorithm(algo)
            .with_frames(3)
            .with_backend(backend);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        cfg
    };
    group.bench_function("sequential_4_sessions", |b| {
        b.iter(|| {
            BaseAlgorithm::all()
                .into_iter()
                .map(|algo| SlamPipeline::new(mk_cfg(algo, BackendChoice::Serial), &ds).run())
                .collect::<Vec<_>>()
        })
    });
    group.warm_up_time(THREADED_WARM_UP);
    group.bench_function("scheduled_4_sessions", |b| {
        b.iter(|| {
            let sessions = BaseAlgorithm::all()
                .into_iter()
                .map(|algo| {
                    (
                        algo.name().to_string(),
                        SlamPipeline::new(mk_cfg(algo, BackendChoice::Serial), &ds),
                    )
                })
                .collect();
            Serve::builder().threads(4).run(sessions)
        })
    });
    group.finish();
}

/// Open-loop ingestion primitives and serving overhead: the bounded-inbox
/// push/pop round trip, the drop-oldest churn path under a producer storm,
/// and the 4-session open-loop serve against the closed-loop equivalent
/// from `session_serving`. All CPU-only and arrival-free (tickets are
/// pre-queued), so timings are stable enough for BENCH_RESULTS.json.
fn bench_loadgen(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("inbox_push_pop_256", |b| {
        b.iter(|| {
            let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(64));
            let (tx, rx) = hub.channel::<u64>().unwrap();
            let mut sum = 0u64;
            for i in 0..256u64 {
                tx.push(i);
                let frame = rx.try_pop().unwrap();
                sum += rx.frame_done(frame, false);
            }
            sum
        })
    });
    group.bench_function("drop_oldest_storm_256", |b| {
        b.iter(|| {
            let hub = IngestHub::new(
                IngestConfig::new()
                    .with_inbox_capacity(4)
                    .with_late_policy(LatePolicy::DropOldest),
            );
            let (tx, rx) = hub.channel::<u64>().unwrap();
            for i in 0..256u64 {
                tx.push(i);
            }
            tx.close();
            let mut drained = 0u64;
            while let Some(frame) = rx.try_pop() {
                rx.frame_done(frame, false);
                drained += 1;
            }
            drained
        })
    });
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
    let mk_cfg = |algo: BaseAlgorithm| {
        let mut cfg = SlamConfig::for_algorithm(algo).with_frames(3);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        cfg
    };
    group.warm_up_time(THREADED_WARM_UP);
    group.bench_function("open_loop_4_sessions_prequeued", |b| {
        b.iter(|| {
            let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(8));
            let sessions = BaseAlgorithm::all()
                .into_iter()
                .map(|algo| {
                    let (tx, rx) = hub.channel::<()>().unwrap();
                    for _ in 0..3 {
                        tx.push(());
                    }
                    tx.close();
                    (
                        algo.name().to_string(),
                        OpenLoopSession::new(SlamPipeline::new(mk_cfg(algo), &ds), rx),
                    )
                })
                .collect();
            Serve::builder().threads(4).ingest(&hub).run(sessions)
        })
    });
    group.finish();
}

/// Snapshot subsystem, full path: base-capture and restore throughput on
/// a churned mid-size map with pipeline-shaped side channels (Adam m/v at
/// width 14, mask at width 1).
fn bench_snapshot_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_full");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let (map, channels) = churned_snapshot_map(20_000);

    group.bench_function("capture_base", |b| {
        b.iter(|| {
            let mut log = CheckpointLog::new();
            log.capture(&map, &channels, b"session-meta").unwrap()
        })
    });

    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &channels, b"session-meta").unwrap();
    group.bench_function("restore", |b| b.iter(|| log.restore().unwrap()));
    group.finish();
}

/// Snapshot subsystem, incremental path: the cost of a dirty-shards-only
/// delta after sparse churn versus recapturing a full snapshot of the same
/// state, plus folding an 8-delta chain back into a base.
fn bench_snapshot_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_delta");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let (mut map, channels) = churned_snapshot_map(20_000);

    // ~0.5% of the map mutates between checkpoints — a keyframe-scale
    // update touching a handful of shards.
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &channels, b"m").unwrap();
    let mut tick = 0u32;
    group.bench_function("delta_after_sparse_churn", |b| {
        b.iter(|| {
            for k in 0..100u32 {
                let id = (tick.wrapping_mul(97).wrapping_add(k * 193)) % map.capacity() as u32;
                if map.is_live(id) {
                    map.gaussian_mut(id).opacity += 1e-4;
                }
            }
            tick = tick.wrapping_add(1);
            log.capture(&map, &channels, b"m").unwrap()
        })
    });

    group.bench_function("full_recapture_same_state", |b| {
        b.iter(|| {
            let mut fresh = CheckpointLog::new();
            fresh.capture(&map, &channels, b"m").unwrap()
        })
    });

    // An 8-delta chain folded into a new base.
    let mut chain = CheckpointLog::new();
    let _ = chain.capture(&map, &channels, b"m").unwrap();
    for round in 0..8u32 {
        for k in 0..100u32 {
            let id = (round.wrapping_mul(41).wrapping_add(k * 137)) % map.capacity() as u32;
            if map.is_live(id) {
                map.gaussian_mut(id).opacity += 1e-4;
            }
        }
        let _ = chain.capture(&map, &channels, b"m").unwrap();
    }
    group.bench_function("compact_chain_8", |b| {
        b.iter(|| {
            let mut log = chain.clone();
            log.compact().unwrap();
            log
        })
    });
    group.finish();
}

/// Replication subsystem: the steady-state cost of streaming one delta
/// record — capture + seal + send + follower validate/replay/ack — over
/// the in-process transport, against the capture-only baseline (the cost
/// a non-replicated checkpointing session already pays). Informational:
/// no gate keys on this group.
fn bench_replication_stream(c: &mut Criterion) {
    use rtgs_replicate::{duplex_pair, FaultPlan, Follower, ReplicationPolicy, Replicator};

    let mut group = c.benchmark_group("replication_stream");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let (mut map, channels) = churned_snapshot_map(20_000);

    let (a, b) = duplex_pair();
    let mut primary = Replicator::new(a, 7, ReplicationPolicy::new(), FaultPlan::lossless(1));
    let mut follower = Follower::new(b, 7);
    let mut frame = 0u64;
    primary
        .on_frame(frame, |log| log.capture(&map, &channels, b"m"))
        .unwrap();
    primary.pump().unwrap();
    follower.pump().unwrap();

    group.bench_function("delta_record_roundtrip", |b| {
        b.iter(|| {
            frame += 1;
            for k in 0..100u32 {
                let id =
                    (frame as u32).wrapping_mul(97).wrapping_add(k * 193) % map.capacity() as u32;
                if map.is_live(id) {
                    map.gaussian_mut(id).opacity += 1e-4;
                }
            }
            primary
                .on_frame(frame, |log| log.capture(&map, &channels, b"m"))
                .unwrap();
            primary.pump().unwrap();
            follower.pump().unwrap();
            primary.pump().unwrap(); // consume the ack
        })
    });

    let mut baseline = CheckpointLog::new();
    let _ = baseline.capture(&map, &channels, b"m").unwrap();
    let mut tick = 0u32;
    group.bench_function("capture_only_baseline", |b| {
        b.iter(|| {
            tick = tick.wrapping_add(1);
            for k in 0..100u32 {
                let id = tick.wrapping_mul(97).wrapping_add(k * 193) % map.capacity() as u32;
                if map.is_live(id) {
                    map.gaussian_mut(id).opacity += 1e-4;
                }
            }
            baseline.capture(&map, &channels, b"m").unwrap()
        })
    });
    group.finish();
}

/// Flight-recorder overhead: the per-frame costs the tracing/journal layer
/// adds to the instrumented hot path. `journal_append` and
/// `trace_ctx_stamp` price the two primitive probes; the `frame_probes_*`
/// pair measures the full per-frame probe sequence (mint a trace context,
/// record one journal event, emit one flow span) with recording on vs off
/// — the off cost is what every frame pays when the recorder is disabled,
/// and must stay negligible. Informational: no gate keys on this group.
fn bench_flight_recorder(c: &mut Criterion) {
    use rtgs_telemetry::{self as telemetry, EventKind, TraceCtx};
    use std::hint::black_box;

    let mut group = c.benchmark_group("flight_recorder");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1));

    telemetry::set_journal_enabled(true);
    telemetry::warm_journal();
    telemetry::set_tracing_enabled(true);
    telemetry::warm_thread_ring();

    let mut seq = 0u64;
    group.bench_function("journal_append", |b| {
        b.iter(|| {
            seq += 1;
            telemetry::journal_record(EventKind::ShedDegrade, 0, black_box(seq | 1), seq, 2);
        })
    });

    group.bench_function("trace_ctx_stamp", |b| {
        b.iter(|| black_box(TraceCtx::fresh()))
    });

    // The per-frame probe sequence of the traced ingest/track path.
    let frame_probes = |frame: u64| {
        let trace = TraceCtx::fresh();
        telemetry::journal_record(EventKind::ShedDegrade, 0, trace.trace_id, frame, 2);
        telemetry::emit_flow_span(
            "bench.flight.frame",
            "flight",
            frame,
            1_000,
            frame,
            trace.trace_id,
            0,
        );
        black_box(trace.trace_id)
    };
    let mut frame = 0u64;
    group.bench_function("frame_probes_recording_on", |b| {
        b.iter(|| {
            frame += 1;
            frame_probes(frame)
        })
    });

    telemetry::set_journal_enabled(false);
    telemetry::set_tracing_enabled(false);
    group.bench_function("frame_probes_recording_off", |b| {
        b.iter(|| {
            frame += 1;
            frame_probes(frame)
        })
    });
    telemetry::clear_journal();
    telemetry::clear_spans();
    group.finish();
}

/// A mid-size sharded map grown through insert/tombstone/recycle churn,
/// with pipeline-shaped ID-keyed channels.
fn churned_snapshot_map(n: usize) -> (rtgs_render::ShardedScene, Vec<Channel>) {
    let mut map = rtgs_render::ShardedScene::new(0.5);
    for i in 0..n {
        let x = (i % 251) as f32 * 0.11 - 13.0;
        let y = ((i / 251) % 17) as f32 * 0.3 - 2.5;
        let z = 1.5 + ((i * 7) % 113) as f32 * 0.09;
        map.insert(rtgs_render::Gaussian3d::from_activated(
            rtgs_math::Vec3::new(x, y, z),
            rtgs_math::Vec3::splat(0.04),
            rtgs_math::Quat::IDENTITY,
            0.7,
            rtgs_math::Vec3::new(0.5, 0.4, 0.8),
        ));
    }
    for i in (0..n).step_by(9) {
        map.tombstone(i as u32);
    }
    for i in 0..n / 20 {
        map.insert(rtgs_render::Gaussian3d::from_activated(
            rtgs_math::Vec3::new(i as f32 * 0.2 - 10.0, 0.0, 2.0),
            rtgs_math::Vec3::splat(0.05),
            rtgs_math::Quat::IDENTITY,
            0.6,
            rtgs_math::Vec3::new(0.9, 0.3, 0.2),
        ));
    }
    let capacity = map.capacity();
    let channels = vec![
        Channel::zeroed("adam.m", 14, capacity),
        Channel::zeroed("adam.v", 14, capacity),
        Channel::zeroed("mask", 1, capacity),
    ];
    (map, channels)
}

criterion_group!(
    benches,
    bench_render_kernels,
    bench_soa_vs_aos,
    bench_fused_tile_pass,
    bench_table2_baseline_slams,
    bench_table6_rtgs_algorithm,
    bench_fig15_hardware_models,
    bench_fig17_ablation,
    bench_pruning_overhead,
    bench_config_layer,
    bench_tile_sort,
    bench_tracking_iteration,
    bench_tracking_iteration_steady_state,
    bench_large_scene_scaling,
    bench_runtime_scaling,
    bench_session_serving,
    bench_loadgen,
    bench_snapshot_full,
    bench_snapshot_delta,
    bench_replication_stream,
    bench_flight_recorder,
);
criterion_main!(benches);
