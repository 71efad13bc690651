//! Criterion benchmarks: the rows only a microbenchmark can measure.
//!
//! The paper's artifacts (Tab. 2/6, Fig. 15/17) are printed by
//! `experiments` and asserted by `accel/tests/calibrate.rs`, and whole
//! sessions are timed end to end by the repository benchmark
//! (`benchmark/`). What is left here is the kernels at the size a session
//! runs them, each production path against the oracle it replaced, the
//! map's scaling, snapshot / replication, and the flight recorder's
//! probes. Run with:
//!
//! ```bash
//! cargo bench --workspace
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rtgs_math::Se3;
use rtgs_render::reference;
use rtgs_render::{FrameArena, GaussianScene, LossConfig, ShardedScene, DEFAULT_CELL_SIZE};
use rtgs_runtime::{Backend, BackendChoice, Serial};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
use rtgs_snapshot::{Channel, CheckpointLog};
use std::sync::OnceLock;
use std::time::Duration;

/// Untimed warm-up of the rows that run on more than one thread (the
/// `parallel` pair of `runtime_scaling`). A sample is one call, so the ten
/// samples of a millisecond routine are over in tens of milliseconds, and
/// on the bench host a pool thread that was just woken shares its waker's
/// vCPU until the kernel's periodic balancer has moved it — about a second
/// (`.claude/skills/verify/SKILL.md`, gotchas). Without the warm-up such a
/// row reads as its serial twin whatever the code does.
const THREADED_WARM_UP: Duration = Duration::from_millis(1500);

/// The size a repository-benchmark session runs the kernels at: a 75×42
/// `replica_analog` frame (partial edge tiles included) over the
/// ~1 k-Gaussian map a MonoGS session holds after its first keyframe — a
/// SLAM map's splats are far larger than the reference scene's (~170 per
/// tile, ~560 k fragments inspected per pass).
struct SessionSize {
    ds: SyntheticDataset,
    /// The session's sharded map.
    map: ShardedScene,
    /// World-to-camera pose of frame 1.
    w2c: Se3,
}

/// The one two-frame SLAM session every session-size group shares. It runs
/// on `Serial` — the same map bit for bit (parallel == serial) — so no pool
/// thread exists beside the serial rows until `runtime_scaling` makes one.
fn session_size() -> &'static SessionSize {
    static SESSION: OnceLock<SessionSize> = OnceLock::new();
    SESSION.get_or_init(|| {
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), 2);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs)
            .with_frames(2)
            .with_backend(BackendChoice::Serial);
        cfg.tracking.iterations = 4;
        cfg.mapping_iterations = 4;
        let mut session = SlamPipeline::new(cfg, &ds);
        session.run();
        let map = session.scene().clone();
        let w2c = ds.poses_c2w[1].inverse();
        SessionSize { ds, map, w2c }
    })
}

/// Steps ❶ and ❸ one at a time at session size. Step ❶ is the
/// per-Gaussian lane kernel, its scalar libm activations and the scatter;
/// the recording pass is the one a session's tracking and mapping
/// iterations run (the blend plus the R&B records Step ❹ consumes). The
/// whole forward and the backward are `runtime_scaling`'s `serial` pair.
fn bench_render_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("render_kernels");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let SessionSize { ds, map, w2c } = session_size();

    // Untimed: the cull, and the projection and tile lists both rows run
    // over. Re-projecting the same working set at the same pose leaves them
    // as they are.
    let mut arena = FrameArena::new();
    arena.forward(map, w2c, &ds.camera, &Serial);
    group.bench_function("project_session_size", |b| {
        b.iter(|| {
            arena.project_visible(w2c, &ds.camera, &Serial);
            arena.projection().visible_count()
        })
    });
    group.bench_function("forward_fused_session_size", |b| {
        b.iter(|| {
            arena.render_fused(&ds.camera, &Serial);
            arena.output().stats
        })
    });
    group.finish();
}

/// Fused tile pass at session size: one render+backward iteration with the
/// forward pass recording fragment sequences (backward consumes them)
/// versus the unfused pair (backward re-walks every pixel's splat list).
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
    let SessionSize { ds, map, w2c } = session_size();
    let backend = Serial;

    // Dense upstream gradients, identical for both variants: the loss of
    // this pose's render against the other frame's observation.
    let target = &ds.frames[0];
    let prepared = || {
        let mut arena = FrameArena::new();
        arena.forward(map, w2c, &ds.camera, &backend);
        arena.compute_loss(&target.color, target.depth.as_ref(), &LossConfig::default());
        arena
    };
    let (mut unfused, mut fused) = (prepared(), prepared());
    let pixel_grads = unfused.loss().pixel_grads.clone();
    // The re-walk takes the scene the projection was built from: the cull's
    // working set.
    let gathered = unfused.visible().scene.clone();
    let mut rewalk = reference::RewalkScratch::default();

    group.bench_function("render_backward/unfused", |b| {
        b.iter(|| {
            unfused.render(&ds.camera, &backend);
            reference::backward_rewalk(
                &mut unfused,
                &gathered,
                &ds.camera,
                w2c,
                &pixel_grads,
                &backend,
                &mut rewalk,
            );
            unfused.backward().pose
        })
    });
    group.bench_function("render_backward/fused", |b| {
        b.iter(|| {
            fused.render_fused(&ds.camera, &backend);
            fused.backward_visible_fused(&ds.camera, w2c, &backend);
            fused.backward().pose
        })
    });
    group.finish();
}

/// Step ❷ in isolation on a dense overlap scene (hundreds of splats per
/// tile, sort-dominated): the CSR tile assignment (per-chunk count and
/// scatter, then a per-tile key sort) against the legacy per-tile `Vec` +
/// comparison `sort_by` it replaced (both produce identical depth ordering
/// — property-tested in `crates/render/tests/equivalence.rs`). The row
/// names keep the `csr_radix` of the radix sort the CSR path first used,
/// so the gate's baseline still names them.
/// `csr_radix_reused` is the production path: rebuild into arena-owned
/// storage, zero steady-state allocations; `csr_radix_fresh` builds into a
/// new arena each time and pays the allocations (its cull and projection
/// happen in the untimed setup).
fn bench_tile_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("tile_sort");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    let camera = rtgs_render::PinholeCamera::from_fov(128, 96, 1.2);
    let scene: GaussianScene = (0..4000)
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
    let map = ShardedScene::from_scene(&scene, DEFAULT_CELL_SIZE);
    let projected = || {
        let mut arena = FrameArena::new();
        arena.cull(&map, &Se3::IDENTITY, &camera, None, &Serial);
        arena.project_visible(&Se3::IDENTITY, &camera, &Serial);
        arena
    };

    let mut arena = projected();
    group.bench_function("legacy_per_tile_sort_by/dense", |b| {
        b.iter(|| reference::build_tile_lists_legacy(arena.projection(), &camera))
    });
    group.bench_function("csr_radix_fresh/dense", |b| {
        b.iter_batched(
            projected,
            |mut fresh| {
                fresh.assign_tiles(&camera, &Serial);
                fresh
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("csr_radix_reused/dense", |b| {
        b.iter(|| {
            arena.assign_tiles(&camera, &Serial);
            arena.tiles().entries.len()
        })
    });
    group.finish();
}

/// One full steady-state tracking iteration at session size — frustum cull
/// → project → tile assign → fused forward → loss → fused backward —
/// through a warm [`FrameArena`] (the production zero-allocation path)
/// versus the same stages through a new arena per iteration. The delta is
/// exactly the heap churn arena reuse removes. `arena_reuse_x4` is the warm
/// iteration at the 18×10 frame (2 tiles) RTGS tracks at factor 4, with
/// cull and projection in a trial scope ([`FrameArena::trials`]) as
/// tracking runs them.
fn bench_tracking_iteration_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracking_iteration_steady_state");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    let SessionSize { ds, map, w2c, .. } = session_size();
    let mask = vec![true; map.capacity()];
    let frame = &ds.frames[1];
    let cfg = LossConfig::default();
    let backend = Serial;

    let iteration = |arena: &mut FrameArena| {
        arena.cull(map, w2c, &ds.camera, Some(&mask), &backend);
        arena.project_visible(w2c, &ds.camera, &backend);
        arena.assign_tiles(&ds.camera, &backend);
        arena.render_fused(&ds.camera, &backend);
        let loss = arena.compute_loss(&frame.color, frame.depth.as_ref(), &cfg);
        arena.backward_visible_fused(&ds.camera, w2c, &backend);
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

    let camera = ds.camera.downsampled(4);
    let color = frame.color.downsampled(4);
    let depth = frame.depth.as_ref().map(|d| d.downsampled(4));
    let mut trials = arena.trials(map);
    let mut downsampled = || {
        trials.cull(w2c, &camera, Some(&mask), &backend);
        trials.project_visible(w2c, &camera, &backend);
        trials.assign_tiles(&camera, &backend);
        trials.render_fused(&camera, &backend);
        let loss = trials.compute_loss(&color, depth.as_ref(), &cfg);
        trials.backward_visible_fused(&camera, w2c, &backend);
        (loss, trials.backward().pose)
    };
    for _ in 0..2 {
        downsampled();
    }
    group.bench_function("arena_reuse_x4", |b| b.iter(&mut downsampled));
    group.finish();
}

/// Runtime subsystem: the whole forward and the fused backward at session
/// size on `Serial` and on the default backend — the machine,
/// `available_parallelism() − 1` workers beside the benching thread: the
/// rows a second core has to show up in, which is why the `parallel` pair
/// is warmed up for [`THREADED_WARM_UP`] first.
fn bench_runtime_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let SessionSize { ds, map, w2c } = session_size();
    let machine = BackendChoice::default().instantiate();
    for (label, backend, warm_up) in [
        ("serial", &Serial as &dyn Backend, Duration::ZERO),
        ("parallel", &*machine, THREADED_WARM_UP),
    ] {
        group.warm_up_time(warm_up);
        let mut arena = FrameArena::new();
        group.bench_function(BenchmarkId::new("forward_session_size", label), |b| {
            b.iter(|| arena.forward(map, w2c, &ds.camera, backend).stats)
        });
        arena.render_fused(&ds.camera, backend);
        arena.compute_loss(
            &ds.frames[0].color,
            ds.frames[0].depth.as_ref(),
            &LossConfig::default(),
        );
        group.bench_function(BenchmarkId::new("backward_session_size", label), |b| {
            b.iter(|| {
                arena.backward_visible_fused(&ds.camera, w2c, backend);
                arena.backward().pose
            })
        });
    }
    group.finish();
}

/// Large-scene scaling: per-frame cull + projection + render cost as the
/// *total* map size grows from 60k to 500k Gaussians while the frustum's
/// contents stay fixed (the camera sees the same slab of a long lateral
/// strip; the rest of the map extends outside the field of view).
///
/// `sharded/N` runs the production path — shard frustum cull, gather,
/// chunked projection, tile build, render — whose cost should stay
/// near-flat in N.
fn bench_large_scene_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_scene_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let cam = rtgs_render::PinholeCamera::from_fov(96, 64, 1.2);
    let w2c = Se3::IDENTITY;

    for &n in &[60_000usize, 160_000, 500_000] {
        // A long strip along +x at viewing depth: fixed Gaussian density,
        // so the camera (looking down +z from the origin) always has the
        // same ~frustum occupancy while the strip — and the map — grows.
        let mut map = ShardedScene::new(1.0);
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
    }
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
/// a non-replicated checkpointing session already pays).
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
/// and must stay negligible.
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
fn churned_snapshot_map(n: usize) -> (ShardedScene, Vec<Channel>) {
    let mut map = ShardedScene::new(0.5);
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
    ];
    (map, channels)
}

criterion_group!(
    benches,
    bench_render_kernels,
    bench_fused_tile_pass,
    bench_tile_sort,
    bench_tracking_iteration_steady_state,
    bench_runtime_scaling,
    bench_large_scene_scaling,
    bench_snapshot_full,
    bench_snapshot_delta,
    bench_replication_stream,
    bench_flight_recorder,
);
criterion_main!(benches);
