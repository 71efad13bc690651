//! The equivalence matrix: every production spelling of the frame pipeline
//! is bitwise-identical to one serial oracle.
//!
//! One generated case (a churned sharded map, a pose, a camera resolution
//! and an optional active mask) is rendered and back-propagated once by
//! the oracle — the seed's array-of-structs pipeline
//! (`rtgs_render::reference::*_aos`) over the flattened map — and then by
//! the full cross product of
//!
//! * **backend**: `Serial`, `Parallel` pools of size 1–8, and two test
//!   backends that run every loop's chunks on the caller out of index
//!   order — last first ([`Reversed`]) and in a seeded permutation
//!   ([`Shuffled`]) — because claiming may change who runs a chunk and
//!   when, never its index, its range or the fold;
//! * **arena**: a fresh [`FrameArena`], and one arena reused across an
//!   interleaving of cases and resolutions (stale capacities and stale
//!   contents from an unrelated frame must never leak into results);
//! * **fusion**: fused forward + fused backward, unfused forward +
//!   backward re-walk (`reference::backward_rewalk`);
//! * **scope**: [`FrameArena::cull`] + [`FrameArena::project_visible`] on
//!   the arena — what mapping, evaluation and dataset generation run — and
//!   the same through a trial scope ([`FrameArena::trials`]) after a trial
//!   at a nearby pose, so the cell reuses that trial's gather and Step ❶
//!   activations wherever the cull allows — the spelling tracking runs. The
//!   scoped cell is fused only.
//!
//! The map is the renderer's one input, so every cell culls it; the flat
//! side of "sharded == flat" is the oracle itself.
//!
//! Every cell asserts, bit for bit: tile lists (against the oracle's in
//! stable-ID space and against the legacy per-tile sort in slot space),
//! image, depth, transmittance, render stats, the
//! loss and its pixel gradients (computed on the cell's backend, against
//! `Serial`'s), per-Gaussian gradients (in stable-ID
//! space), the pose tangent and the backward counters. The fused cells —
//! what tracking runs — also derive a [`WorkloadTrace`] from their R&B
//! records and assert its per-pixel workloads and blended count against
//! the oracle's pixel-outer counts, and run the [`GradSet::PoseOnly`]
//! backward and assert that it leaves `gaussians` empty and equals the
//! full pass's pose and counters.
//!
//! One documented limit: the pose tangent is a sum over Gaussians whose
//! reduction tree is chunked over the pass's *own* index space
//! ([`BP_GAUSS_CHUNK`] Gaussians per partial). Production indexes the gathered
//! working set, the oracle the whole flattened map, so their trees — and
//! the last bits of the sum — agree only while the flattened map fits one
//! chunk or the cull gathers all of it. Per-Gaussian gradients have no
//! cross-Gaussian reduction and match at any size.
//!
//! Beside the matrix, the many-pose loop ([`render_poses`]) is held to a
//! plain loop over one arena on the same backends.

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::reference;
use rtgs_render::{
    render_poses, BackwardOutput, DepthImage, FrameArena, Gaussian3d, GaussianGrad, GradSet, Image,
    LossConfig, LossKind, LossOutput, PinholeCamera, RenderOutput, RenderStats, ShardedScene,
    WorkloadTrace, POSE_CHUNK,
};
use rtgs_runtime::{Backend, Parallel, Serial};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Gaussians per pose-tangent partial sum in Preprocessing BP (the
/// kernel's `BP_GAUSS_CHUNK`).
const BP_GAUSS_CHUNK: usize = 256;

/// The range of chunk `index` of a loop, as every backend must give it.
fn chunk_range(index: usize, len: usize, chunk_size: usize) -> Range<usize> {
    index * chunk_size..((index + 1) * chunk_size).min(len)
}

/// Runs a loop's chunks on the caller, last index first.
struct Reversed;

impl Backend for Reversed {
    fn name(&self) -> &'static str {
        "reversed"
    }

    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        let chunk_size = chunk_size.max(1);
        for index in (0..len.div_ceil(chunk_size)).rev() {
            body(index, chunk_range(index, len, chunk_size));
        }
    }
}

/// Runs a loop's chunks on the caller in a permutation drawn from a seeded
/// LCG, a fresh one per loop.
struct Shuffled {
    state: AtomicU64,
}

impl Shuffled {
    fn new(seed: u64) -> Self {
        Self {
            state: AtomicU64::new(seed),
        }
    }
}

impl Backend for Shuffled {
    fn name(&self) -> &'static str {
        "shuffled"
    }

    fn for_each_chunk(
        &self,
        len: usize,
        chunk_size: usize,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        let chunk_size = chunk_size.max(1);
        let mut order: Vec<usize> = (0..len.div_ceil(chunk_size)).collect();
        let mut state = self.state.fetch_add(1, Ordering::Relaxed);
        // Fisher–Yates.
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for index in order {
            body(index, chunk_range(index, len, chunk_size));
        }
    }
}

/// One pipeline case.
#[derive(Debug, Clone)]
struct Case {
    /// The map, bounds fresh; stable IDs are non-contiguous after churn.
    map: ShardedScene,
    pose: Se3,
    camera: PinholeCamera,
    /// Active mask over stable IDs (`map.capacity()` long, dead IDs off).
    mask: Option<Vec<bool>>,
    /// Pixels `(x, y)` whose loss targets reproduce the render exactly, so
    /// that they carry no upstream gradient at all (`None`: every pixel gets
    /// the dense targets of [`targets`]).
    quiet: Option<PixelPattern>,
}

/// A predicate over pixel coordinates `(x, y)`.
type PixelPattern = fn(usize, usize) -> bool;

/// A Gaussian in unit coordinates; [`arb_case`] scales the position into
/// the case's world extent.
fn arb_unit_gaussian() -> impl Strategy<Value = Gaussian3d> {
    (
        (-1.0f32..1.0, -1.0f32..1.0, 0.0f32..1.0),
        (0.02f32..0.6),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -2.0f32..2.0),
        0.05f32..0.98,
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    )
        .prop_map(|((x, y, z), s, (ax, ay, az, angle), o, (r, g, b))| {
            Gaussian3d::from_activated(
                Vec3::new(x, y, z),
                Vec3::splat(s),
                Quat::from_axis_angle(Vec3::new(ax, ay, az + 0.1), angle),
                o,
                Vec3::new(r, g, b),
            )
        })
}

/// Resolutions [`arb_case`] picks from. The last five are not multiples of
/// the 4-pixel subtile: 75×42 is what every benchmark session renders
/// (3-pixel-wide and 2-row edge subtiles, partial edge tiles), 19×13 adds
/// 1-row subtiles, and 37×21, 25×14 and 18×10 are 75×42 downsampled by 2, 3
/// and 4 — the frames RTGS tracks at, grids of 6, 2 and 2 tiles with bands
/// below the image, partial bands, and an 18×10 tile of 2 pixel columns.
const CAMERAS: [(usize, usize); 9] = [
    (48, 36),
    (32, 32),
    (64, 48),
    (16, 16),
    (75, 42),
    (19, 13),
    (37, 21),
    (25, 14),
    (18, 10),
];

/// Random cases in one of two world regimes — a narrow one where nearly
/// every Gaussian lands in the frustum (blending, sorting and tie order
/// carry the load) and a `wide` one where the shard cull has real work —
/// grown through insert/tombstone/recycle churn, at six resolutions,
/// unmasked or under two mask patterns.
fn arb_case(wide: bool) -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(arb_unit_gaussian(), 1..if wide { 60 } else { 40 }),
        prop::collection::vec(0u16..u16::MAX, 0..12),
        prop::collection::vec(arb_unit_gaussian(), 0..10),
        0.3f32..1.8,
        prop::array::uniform3(-1.0f32..1.0),
        (0usize..CAMERAS.len(), 0usize..3, 0u64..u64::MAX),
    )
        .prop_map(
            move |(initial, tombstones, reinserts, cell_size, t, (cam_pick, mask_kind, seed))| {
                let place = |g: &Gaussian3d| {
                    let mut g = *g;
                    let u = g.position;
                    g.position = if wide {
                        Vec3::new(u.x * 6.0, u.y * 3.0, u.z * 13.0 - 4.0)
                    } else {
                        Vec3::new(u.x * 0.9, u.y * 0.7, u.z * 4.6 + 0.4)
                    };
                    g
                };
                let mut map = ShardedScene::new(cell_size);
                for g in &initial {
                    map.insert(place(g));
                }
                for &victim in &tombstones {
                    map.tombstone((victim as usize % initial.len()) as u32); // repeats are no-ops
                }
                for g in &reinserts {
                    map.insert(place(g)); // recycles freed IDs first
                }
                map.refresh_bounds();

                let reach = if wide { 1.5 } else { 0.2 };
                let (w, h) = CAMERAS[cam_pick];
                let mut state = seed | 1;
                let mask = (mask_kind > 0).then(|| {
                    let mut mask = map.live_flags().to_vec();
                    for (id, m) in mask.iter_mut().enumerate() {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let off = if mask_kind == 1 {
                            id % 3 == (seed % 3) as usize
                        } else {
                            (state >> 33) & 0x7 == 0
                        };
                        *m &= !off;
                    }
                    mask
                });
                Case {
                    map,
                    pose: Se3::from_translation(Vec3::new(t[0], t[1], t[2]) * reach),
                    camera: PinholeCamera::from_fov(w, h, 1.2),
                    mask,
                    quiet: None,
                }
            },
        )
        .prop_filter("need a non-empty map", |c| !c.map.is_empty())
}

/// Loss targets: a black image plus a constant-depth map, so the color,
/// depth and transmittance gradient channels are all exercised — except at
/// the case's `quiet` pixels, whose color target is the rendered color
/// itself (an L1 residual of exactly zero has gradient zero) and whose
/// depth target is "no measurement".
fn targets(case: &Case, rendered: &RenderOutput) -> (Image, DepthImage) {
    let (w, h) = (case.camera.width, case.camera.height);
    let mut color = Image::new(w, h);
    let mut depth = vec![2.0; w * h];
    if let Some(quiet) = case.quiet {
        for (y, x) in (0..h).flat_map(|y| (0..w).map(move |x| (y, x))) {
            if quiet(x, y) {
                color.set_pixel(x, y, rendered.image.pixel(x, y));
                depth[y * w + x] = 0.0;
            }
        }
    }
    (color, DepthImage::from_data(w, h, depth))
}

/// The serial AoS ground truth for one case.
struct Oracle {
    /// Live Gaussians in the map (the flattened map's length).
    live: usize,
    visible: usize,
    /// Per-tile depth-sorted stable-ID lists.
    tiles: Vec<Vec<u32>>,
    out: RenderOutput,
    /// Tile-list positions each pixel's walk consumed (row-major).
    pixel_workloads: Vec<u32>,
    /// Fragments the walk blended.
    fragments_blended: u64,
    /// Loss targets (see [`targets`]) and the loss of `out` against them.
    gt: Image,
    gt_depth: DepthImage,
    loss: LossOutput,
    /// Per-Gaussian gradients in stable-ID space (`capacity()` long).
    grads_by_id: Vec<GaussianGrad>,
    pose_grad: [f32; 6],
    grad_events: u64,
}

impl Oracle {
    fn of(case: &Case) -> Self {
        let Case {
            map,
            pose,
            camera,
            mask,
            quiet: _,
        } = case;
        let (flat, flat_ids) = map.flatten();
        let flat_mask: Option<Vec<bool>> = mask
            .as_ref()
            .map(|m| flat_ids.iter().map(|&id| m[id as usize]).collect());
        let (proj, tiles, rendered) =
            reference::render_frame_aos(&flat, pose, camera, flat_mask.as_deref());
        let reference::AosRender {
            output: out,
            pixel_workloads,
            fragments_blended,
        } = rendered;

        // The loss is a deterministic function of the rendered output, so
        // the upstream gradients come from any arena whose output the
        // matrix then proves equal to `out`.
        let (gt, gt_depth) = targets(case, &out);
        let mut seed = FrameArena::new();
        seed.cull(map, pose, camera, mask.as_deref(), &Serial);
        seed.project_visible(pose, camera, &Serial);
        seed.assign_tiles(camera, &Serial);
        seed.render(camera, &Serial);
        seed.compute_loss(&gt, Some(&gt_depth), &LossConfig::default());
        let loss = seed.loss().clone();

        let back = reference::backward_aos(&flat, &proj, &tiles, camera, pose, &loss.pixel_grads);
        Oracle {
            live: flat.len(),
            visible: proj.visible_count(),
            tiles: tiles
                .tile_lists
                .iter()
                .map(|l| l.iter().map(|&k| flat_ids[k as usize]).collect())
                .collect(),
            out,
            pixel_workloads,
            fragments_blended,
            gt,
            gt_depth,
            loss,
            grads_by_id: by_stable_id(&back.gaussians, &flat_ids, map.capacity()),
            pose_grad: back.pose,
            grad_events: back.stats.fragment_grad_events,
        }
    }
}

/// Scatters frame-local gradients into stable-ID space.
fn by_stable_id(local: &[GaussianGrad], ids: &[u32], capacity: usize) -> Vec<GaussianGrad> {
    assert_eq!(local.len(), ids.len(), "one gradient per gathered Gaussian");
    let mut out = vec![GaussianGrad::default(); capacity];
    for (g, &id) in local.iter().zip(ids) {
        out[id as usize] = *g;
    }
    out
}

/// One cell of the matrix: drives `arena` (and, in a re-walk cell, the
/// oracle's `rewalk` buffers kept beside it) through the selected spelling
/// and asserts every stage result against the oracle. A `scoped` cell culls
/// and projects through a trial scope ([`FrameArena::trials`]), as tracking
/// does, at the case's pose after a trial at a nearby pose: it reuses that
/// trial's gather and activations whenever the cull allows.
#[allow(clippy::too_many_arguments)]
fn check_cell(
    arena: &mut FrameArena,
    rewalk: &mut reference::RewalkScratch,
    case: &Case,
    oracle: &Oracle,
    backend: &dyn Backend,
    scoped: bool,
    fused: bool,
    cell: &str,
) {
    let Case {
        map,
        pose,
        camera,
        mask,
        quiet: _,
    } = case;

    // The cull, Step ❶, and the frame-local → stable-ID map of its index
    // space.
    if scoped {
        let nearby = Se3::from_translation(Vec3::new(0.01, -0.005, 0.02)).compose(pose);
        let mut trials = arena.trials(map);
        for w2c in [pose, &nearby, pose] {
            trials.cull(w2c, camera, mask.as_deref(), backend);
            trials.project_visible(w2c, camera, backend);
        }
    } else {
        arena.cull(map, pose, camera, mask.as_deref(), backend);
        arena.project_visible(pose, camera, backend);
    }
    let ids = arena.visible().ids.clone();
    assert_eq!(
        arena.projection().visible_count(),
        oracle.visible,
        "{cell}: visible splats"
    );

    // Step ❷: the chunked binning == legacy per-tile sort == the oracle's
    // lists.
    arena.assign_tiles(camera, backend);
    let legacy = reference::build_tile_lists_legacy(arena.projection(), camera);
    assert_eq!(legacy.len(), arena.tiles().tile_count());
    for (tile, list) in legacy.iter().enumerate() {
        assert_eq!(
            arena.tiles().tile(tile),
            list.as_slice(),
            "{cell}: tile {tile}"
        );
        let stable: Vec<u32> = arena
            .tiles()
            .tile_gaussian_id_iter(tile)
            .map(|k| ids[k as usize])
            .collect();
        assert_eq!(stable, oracle.tiles[tile], "{cell}: tile {tile} ids");
    }

    // Step ❸.
    if fused {
        arena.render_fused(camera, backend);
        let trace = WorkloadTrace::from_render(arena.output(), arena.tiles(), arena.fragments());
        assert_eq!(
            trace.fragments_blended, oracle.fragments_blended,
            "{cell}: every blended fragment is recorded"
        );
        assert_eq!(
            trace.pixel_workloads, oracle.pixel_workloads,
            "{cell}: workloads"
        );
    } else {
        arena.render(camera, backend);
    }
    let out = arena.output();
    assert_eq!(out.image, oracle.out.image, "{cell}: image");
    assert_eq!(out.depth, oracle.out.depth, "{cell}: depth");
    assert_eq!(
        out.final_transmittance, oracle.out.final_transmittance,
        "{cell}: transmittance"
    );
    assert_eq!(out.stats, oracle.out.stats, "{cell}: stats");

    // Loss, chunked over the cell's backend; the oracle's ran on `Serial`.
    let config = LossConfig::default();
    let loss = arena.compute_loss_with(&oracle.gt, Some(&oracle.gt_depth), &config, backend);
    assert_eq!(loss, oracle.loss.loss, "{cell}: loss");
    let (got, want) = (&arena.loss().pixel_grads, &oracle.loss.pixel_grads);
    assert_eq!(got.color, want.color, "{cell}: dL/dC");
    assert_eq!(got.depth, want.depth, "{cell}: dL/dD");
    assert_eq!(got.transmittance, want.transmittance, "{cell}: dL/dT");

    // Steps ❹–❺. The fused spelling is what tracking runs, so it runs the
    // pose-only pass first, on the same arena: no Gaussian rows, and the
    // full pass's pose and counters, bit for bit.
    let pose_and_counters =
        |back: &BackwardOutput| (back.pose.map(f32::to_bits), back.stats.fragment_grad_events);
    let mut pose_only = None;
    if fused {
        arena.backward_visible_grads(camera, pose, GradSet::PoseOnly, backend);
        let back = arena.backward();
        assert!(back.gaussians.is_empty(), "{cell}: pose-only rows");
        pose_only = Some(pose_and_counters(back));
        arena.backward_visible_fused(camera, pose, backend);
    } else {
        let gathered = arena.visible().scene.clone();
        reference::backward_rewalk(arena, &gathered, camera, pose, want, backend, rewalk);
    }
    let back = arena.backward();
    assert_eq!(
        by_stable_id(&back.gaussians, &ids, map.capacity()),
        oracle.grads_by_id,
        "{cell}: gradients"
    );
    if oracle.live <= BP_GAUSS_CHUNK || ids.len() == oracle.live {
        assert_eq!(back.pose, oracle.pose_grad, "{cell}: pose tangent");
    }
    assert_eq!(
        back.stats.fragment_grad_events, oracle.grad_events,
        "{cell}: grad events"
    );
    if let Some(pose_only) = pose_only {
        assert_eq!(
            pose_only,
            pose_and_counters(back),
            "{cell}: pose-only pose == full pose"
        );
    }
}

/// Runs the whole matrix over an interleaving of cases: per backend, one
/// arena is reused through a forward and a reverse sweep over the cases
/// (so every buffer starts each cell from the stale state of an unrelated
/// spelling, case or resolution), and each case is also run on fresh
/// arenas.
fn run_matrix(cases: &[Case]) {
    let oracles: Vec<Oracle> = cases.iter().map(Oracle::of).collect();
    let mut backends: Vec<(String, Box<dyn Backend>)> = vec![
        ("serial".into(), Box::new(Serial)),
        ("reversed".into(), Box::new(Reversed)),
        (
            "shuffled".into(),
            Box::new(Shuffled::new(cases.len() as u64)),
        ),
    ];
    for threads in 1..=8usize {
        backends.push((format!("pool-{threads}"), Box::new(Parallel::new(threads))));
    }
    // (scoped, fused)
    let spellings = [(false, true), (true, true), (false, false)];
    let name = |backend: &str, arena: &str, i: usize, (scoped, fused)| {
        format!(
            "{backend}/{arena}/case {i}/{}/{}",
            if scoped { "scoped" } else { "sharded" },
            if fused { "fused" } else { "re-walk" }
        )
    };

    for (backend_name, backend) in &backends {
        let mut reused = FrameArena::new();
        let mut reused_rewalk = reference::RewalkScratch::default();
        let n = cases.len();
        for i in (0..n).chain((0..n).rev()) {
            for spelling @ (scoped, fused) in spellings {
                let cell = name(backend_name, "reused", i, spelling);
                check_cell(
                    &mut reused,
                    &mut reused_rewalk,
                    &cases[i],
                    &oracles[i],
                    &**backend,
                    scoped,
                    fused,
                    &cell,
                );
            }
        }
        for (i, (case, oracle)) in cases.iter().zip(&oracles).enumerate() {
            for spelling @ (scoped, fused) in spellings {
                let cell = name(backend_name, "fresh", i, spelling);
                let mut fresh = FrameArena::new();
                let mut fresh_rewalk = reference::RewalkScratch::default();
                check_cell(
                    &mut fresh,
                    &mut fresh_rewalk,
                    case,
                    oracle,
                    &**backend,
                    scoped,
                    fused,
                    &cell,
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// {Serial, reversed, shuffled, pool 1–8} × {fresh, reused arena} ×
    /// {fused, re-walk, fused in a trial scope} (pose-only included where
    /// tracking runs) all reproduce the AoS oracle bitwise over random
    /// interleavings of random cases (two tests, one per world regime, so
    /// they run side by side).
    #[test]
    fn every_spelling_matches_the_oracle_in_narrow_worlds(
        cases in prop::collection::vec(arb_case(false), 2..4),
    ) {
        run_matrix(&cases);
    }

    #[test]
    fn every_spelling_matches_the_oracle_in_wide_worlds(
        cases in prop::collection::vec(arb_case(true), 2..4),
    ) {
        run_matrix(&cases);
    }
}

fn case_of(
    gaussians: impl IntoIterator<Item = Gaussian3d>,
    cell_size: f32,
    pose: Se3,
    (w, h): (usize, usize),
) -> Case {
    let mut map = ShardedScene::new(cell_size);
    for g in gaussians {
        map.insert(g);
    }
    map.refresh_bounds();
    Case {
        map,
        pose,
        camera: PinholeCamera::from_fov(w, h, 1.2),
        mask: None,
        quiet: None,
    }
}

fn ramp_scene() -> impl Iterator<Item = Gaussian3d> {
    (0..30).map(|i| {
        Gaussian3d::from_activated(
            Vec3::new(
                (i as f32 * 0.07) - 1.0,
                (i as f32 * 0.031) - 0.45,
                1.5 + i as f32 * 0.1,
            ),
            Vec3::splat(0.2),
            Quat::IDENTITY,
            0.7,
            Vec3::new(0.9, 0.4, 0.2),
        )
    })
}

/// Masked (pruned) scenes follow the same contract — on every backend,
/// including the parallel pools, where the mask is read inside chunks.
#[test]
fn masked_scene_matches_on_every_backend() {
    let mut case = case_of(ramp_scene(), 1.0, Se3::IDENTITY, (48, 36));
    case.mask = Some((0..case.map.capacity()).map(|i| i % 3 != 0).collect());
    let oracle = Oracle::of(&case);
    assert_eq!(oracle.visible, 20, "the mask must remove a third");
    run_matrix(&[case]);
}

/// A deep map seen down a corridor: most shards sit outside the frustum,
/// so the cull must actually fire — and the result must still match the
/// flat oracle bitwise. Guards against the cull silently passing
/// everything (a vacuous production == flat oracle equivalence).
#[test]
fn corridor_scene_culls_shards_and_stays_bitwise_identical() {
    let corridor = (0..400).map(|i| {
        let along = (i % 100) as f32 * 0.4;
        let lateral = ((i / 100) as f32 - 1.5) * 0.9;
        Gaussian3d::from_activated(
            Vec3::new(lateral, ((i * 13) % 7) as f32 * 0.2 - 0.6, along),
            Vec3::splat(0.08),
            Quat::IDENTITY,
            0.7,
            Vec3::new(0.2 + 0.002 * i as f32, 0.5, 0.9 - 0.002 * i as f32),
        )
    });
    // Camera mid-corridor looking forward (w2c adds -8 to world z): the
    // entire first half of the corridor sits behind the near plane — none
    // of it can contribute a fragment, but a flat render walks it.
    let pose = Se3::from_translation(Vec3::new(0.0, 0.0, -8.0));
    let case = case_of(corridor, 0.8, pose, (48, 36));
    assert!(
        case.map.len() > BP_GAUSS_CHUNK,
        "also covers the multi-chunk fold"
    );

    let mut arena = FrameArena::new();
    arena.cull(&case.map, &case.pose, &case.camera, None, &Serial);
    assert!(
        arena.visible().ids.len() < case.map.len(),
        "corridor test must cull whole shards"
    );
    run_matrix(&[case]);
}

/// Visible counts around the per-Gaussian kernels' boundaries — Steps ❶ and
/// ❺ run blocks of 8 lanes inside chunks of 256 Gaussians: one short of a
/// chunk (a 7-lane tail block), one past it and one past two (a second and
/// a third chunk holding a single 1-lane block), every one of them visible
/// and in the gradient's reach, on every backend and pool size.
#[test]
fn block_and_chunk_boundaries_match_on_every_backend() {
    for visible in [255usize, 257, 513] {
        let lattice = (0..visible).map(|i| {
            let (col, row, layer) = ((i % 19) as f32, ((i / 19) % 9) as f32, (i / 171) as f32);
            let z = 2.0 + 0.6 * layer;
            Gaussian3d::from_activated(
                Vec3::new((col / 18.0 - 0.5) * z, (row / 8.0 - 0.5) * 0.55 * z, z),
                Vec3::new(0.03 + 0.002 * col, 0.05, 0.04 + 0.003 * row),
                Quat::from_axis_angle(Vec3::new(0.3, 0.2, 0.9), 0.1 * i as f32),
                0.3 + 0.02 * row,
                Vec3::new(col / 18.0, row / 8.0, 0.5),
            )
        });
        let case = case_of(lattice, 1.0, Se3::IDENTITY, (75, 42));
        let oracle = Oracle::of(&case);
        assert_eq!(oracle.visible, visible, "every lattice point is in view");
        let grads = oracle.grads_by_id.iter();
        let touched = grads.filter(|g| **g != GaussianGrad::default()).count();
        assert!(
            touched > visible - 8,
            "{touched} of {visible} touched: the tail blocks must carry gradient"
        );
        run_matrix(&[case]);
    }
}

/// Every bit of a render: image, depth and final transmittance, then the
/// counters.
fn output_bits(out: &RenderOutput) -> (Vec<u32>, RenderStats) {
    let image = out.image.data().iter().flat_map(|c| [c.x, c.y, c.z]);
    let rest = out.depth.data().iter().chain(&out.final_transmittance);
    let bits = image.chain(rest.copied()).map(f32::to_bits).collect();
    (bits, out.stats)
}

/// The many-pose loop: nine poses — two full claims of [`POSE_CHUNK`]
/// frames and a partial third — return per frame exactly what one arena
/// rendering them in pose order returns, on `Serial`, a two-worker pool,
/// last claim first and in a shuffled claim order.
#[test]
fn many_pose_renders_equal_one_arena_in_pose_order() {
    let case = case_of(ramp_scene(), 0.5, Se3::IDENTITY, (75, 42));
    let poses: Vec<Se3> = (0..9)
        .map(|i| {
            let t = i as f32;
            Se3::from_translation(Vec3::new(0.15 * t - 0.6, 0.05 * t - 0.2, 0.1 * t - 0.4))
        })
        .collect();
    assert_ne!(poses.len() % POSE_CHUNK, 0, "a partial claim");
    let mut arena = FrameArena::new();
    let want: Vec<_> = poses
        .iter()
        .map(|w2c| output_bits(arena.forward(&case.map, w2c, &case.camera, &Serial)))
        .collect();
    assert!(
        want.windows(2).all(|pair| pair[0] != pair[1]),
        "every pose renders another frame"
    );
    let backends: [&dyn Backend; 4] = [
        &Serial,
        &Parallel::new(2),
        &Reversed,
        &Shuffled::new(0x5EED),
    ];
    for backend in backends {
        let got = render_poses(&case.map, &poses, &case.camera, backend, |i, out| {
            (i, output_bits(out))
        });
        let indices: Vec<usize> = got.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, (0..poses.len()).collect::<Vec<_>>(), "pose order");
        for (i, ((_, got), want)) in got.iter().zip(&want).enumerate() {
            assert!(got == want, "{}: frame {i}", backend.name());
        }
    }
}

/// RTGS's factor-4 tracking frame, 18×10: two tiles, ten pixel rows and a
/// few dozen splats, so the tile-bin's count and scatter loops are one chunk
/// each, which every backend runs inline — next to its 37×21 factor-2
/// frame, six tiles.
#[test]
fn downsampled_frames_match_on_every_backend() {
    let cases: Vec<Case> = [(18, 10), (37, 21)]
        .into_iter()
        .map(|res| case_of(ramp_scene(), 1.0, Se3::IDENTITY, res))
        .collect();
    run_matrix(&cases);
}

/// The loss outside the matrix's default configuration — L1 and L2, with
/// and without a depth target — is the same bits on every backend as on
/// `Serial`: the value, its two terms and every per-pixel gradient, at the
/// 18×10 frame (a pixel-row loop of two chunks) and at the 75×42 session
/// frame.
#[test]
fn every_loss_configuration_matches_on_every_backend() {
    let backends: Vec<Box<dyn Backend>> = vec![
        Box::new(Reversed),
        Box::new(Shuffled::new(7)),
        Box::new(Parallel::new(2)),
        Box::new(Parallel::new(3)),
    ];
    for res in [(18, 10), (75, 42)] {
        let case = case_of(ramp_scene(), 1.0, Se3::IDENTITY, res);
        let mut arena = FrameArena::new();
        let rendered = arena
            .forward(&case.map, &case.pose, &case.camera, &Serial)
            .clone();
        let (gt, gt_depth) = targets(&case, &rendered);
        for kind in [LossKind::L1, LossKind::L2] {
            for depth in [Some(&gt_depth), None] {
                let config = LossConfig {
                    kind,
                    ..LossConfig::default()
                };
                arena.compute_loss_with(&gt, depth, &config, &Serial);
                let want = arena.loss().clone();
                assert!(want.photometric > 0.0);
                for backend in &backends {
                    let cell = format!(
                        "{res:?}/{kind:?}/depth {}/{}",
                        depth.is_some(),
                        backend.name()
                    );
                    let loss = arena.compute_loss_with(&gt, depth, &config, &**backend);
                    let got = arena.loss();
                    assert_eq!(loss.to_bits(), want.loss.to_bits(), "{cell}: loss");
                    assert_eq!(
                        got.photometric.to_bits(),
                        want.photometric.to_bits(),
                        "{cell}"
                    );
                    assert_eq!(got.geometric.to_bits(), want.geometric.to_bits(), "{cell}");
                    let (got, want) = (&got.pixel_grads, &want.pixel_grads);
                    assert_eq!(got.color, want.color, "{cell}: dL/dC");
                    assert_eq!(got.depth, want.depth, "{cell}: dL/dD");
                    assert_eq!(got.transmittance, want.transmittance, "{cell}: dL/dT");
                }
            }
        }
    }
}

/// One arena driven through growing and shrinking resolutions of the same
/// scene — partial edge subtiles included, whatever the random matrix
/// happens to pick — reproduces the oracle at every step.
#[test]
fn arena_handles_resolution_changes() {
    let cases: Vec<Case> = [(32, 32), (75, 42), (64, 48), (16, 16), (19, 13), (48, 32)]
        .into_iter()
        .map(|res| case_of(ramp_scene(), 1.0, Se3::IDENTITY, res))
        .collect();
    run_matrix(&cases);
}

/// The quiet-pixel patterns of [`sparse_upstream_gradients_merge_like_the_oracle`],
/// in units the Step-❹ lane kernel cares about (4×4 subtiles, 4-lane rows).
const QUIET_PATTERNS: [(&str, PixelPattern); 5] = [
    // Whole 4-lane rows of every subtile carry nothing.
    ("rows", |_, y| y % 4 == 1 || y % 4 == 2),
    // One live lane per row, a different one from row to row.
    ("single lanes", |x, y| x % 4 != y % 4),
    // Whole subtiles, checkerboard.
    ("subtiles", |x, y| (x / 4 + y / 4) % 2 == 0),
    // Every tile but the first column of tiles, and an odd scatter there.
    ("tiles and a scatter", |x, y| {
        x >= 16 || (3 * x + 5 * y) % 7 < 4
    }),
    // Everything: no gradient anywhere.
    ("everything", |_, _| true),
];

/// Pixels without upstream gradient — single lanes, whole rows, whole
/// subtiles, a whole tile — are skipped by the lane-wide merge exactly as
/// the pixel-outer oracle skips them: same `hit` flags (hence the same
/// Gaussians touched), same event counts, same sums, at a whole-subtile
/// camera and at the two partial-subtile ones.
#[test]
fn sparse_upstream_gradients_merge_like_the_oracle() {
    for res in [(48, 36), (75, 42), (19, 13)] {
        let dense = Oracle::of(&case_of(ramp_scene(), 1.0, Se3::IDENTITY, res));
        assert!(dense.grad_events > 0);
        let cases: Vec<Case> = QUIET_PATTERNS
            .iter()
            .map(|&(name, quiet)| {
                let mut case = case_of(ramp_scene(), 1.0, Se3::IDENTITY, res);
                case.quiet = Some(quiet);
                let sparse = Oracle::of(&case);
                assert!(
                    sparse.grad_events < dense.grad_events,
                    "{name} at {res:?}: the pattern must silence fragments"
                );
                assert_eq!(
                    sparse.grad_events == 0,
                    name == "everything",
                    "{name} at {res:?}"
                );
                case
            })
            .collect();
        run_matrix(&cases);
    }
}

/// A near-opaque splat in front: its alpha sits at the `ALPHA_MAX` cap over
/// its core, where the opacity, mean and conic gradients are switched off
/// while color and depth still flow — lane by lane inside one record.
#[test]
fn splat_capped_at_alpha_max_matches_on_every_path() {
    let front = Gaussian3d::from_activated(
        Vec3::new(0.05, -0.02, 1.0),
        Vec3::splat(0.25),
        Quat::IDENTITY,
        0.9999,
        Vec3::new(0.3, 0.8, 0.5),
    );
    for res in [(48, 36), (75, 42)] {
        let case = case_of(ramp_scene().chain([front]), 1.0, Se3::IDENTITY, res);
        let oracle = Oracle::of(&case);
        // One fragment at the cap leaves `T = 1 − 0.99`; the core of the
        // front splat shows exactly that, its rim does not.
        let at_cap = 1.0 - rtgs_render::ALPHA_MAX;
        let capped = oracle
            .out
            .final_transmittance
            .iter()
            .filter(|&&t| t <= at_cap)
            .count();
        assert!(
            capped > 16 && capped < res.0 * res.1 / 2,
            "{capped} pixels at the cap"
        );
        run_matrix(&[case]);
    }
}
