//! The equivalence matrix: every production spelling of the frame pipeline
//! is bitwise-identical to one serial oracle.
//!
//! One generated case (a churned sharded map, a pose, a camera resolution
//! and an optional active mask) is rendered and back-propagated once by
//! the oracle — the seed's array-of-structs pipeline
//! (`rtgs_render::reference::*_aos`) over the flattened map — and then by
//! the full cross product of
//!
//! * **backend**: `Serial`, `Parallel` pools of size 1–8;
//! * **arena**: a fresh [`FrameArena`], and one arena reused across an
//!   interleaving of cases and resolutions (stale capacities and stale
//!   contents from an unrelated frame must never leak into results);
//! * **fusion**: fused forward + fused backward, unfused forward +
//!   backward re-walk (`reference::backward_rewalk`);
//! * **sharding**: flat [`FrameArena::project`] over the flattened map,
//!   sharded [`FrameArena::cull`] + [`FrameArena::project_visible`].
//!
//! Every cell asserts, bit for bit: tile lists (against the oracle's in
//! stable-ID space and against the legacy per-tile sort in slot space),
//! image, depth, transmittance, per-pixel workloads, render stats, the
//! loss and its pixel gradients, per-Gaussian gradients (in stable-ID
//! space), the pose tangent and the backward counters.
//!
//! One documented limit: the pose tangent is a sum over Gaussians whose
//! reduction tree is chunked over the pass's *own* index space
//! ([`POSE_CHUNK`] Gaussians per partial). A sharded pass indexes the
//! gathered working set, a flat pass the whole map, so their trees — and
//! the last bits of the sum — agree only while the flattened map fits one
//! chunk. Per-Gaussian gradients have no cross-Gaussian reduction and
//! match at any size.

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::reference;
use rtgs_render::{
    DepthImage, FrameArena, Gaussian3d, GaussianGrad, GaussianScene, Image, LossConfig, LossOutput,
    PinholeCamera, RenderOutput, ShardedScene,
};
use rtgs_runtime::{Backend, Parallel, Serial};

/// Gaussians per pose-tangent partial sum in Preprocessing BP (the
/// kernel's `BP_GAUSS_CHUNK`).
const POSE_CHUNK: usize = 256;

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

/// Resolutions [`arb_case`] picks from. The last two are not multiples of
/// the 4-pixel subtile: 75×42 is what every benchmark session renders
/// (3-pixel-wide and 2-row edge subtiles, partial edge tiles), 19×13 adds
/// 1-row subtiles.
const CAMERAS: [(usize, usize); 6] = [(48, 36), (32, 32), (64, 48), (16, 16), (75, 42), (19, 13)];

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
    /// The live Gaussians in ascending stable-ID order, and those IDs.
    flat: GaussianScene,
    flat_ids: Vec<u32>,
    /// The case's mask gathered into flat index space.
    flat_mask: Option<Vec<bool>>,
    visible: usize,
    /// Per-tile depth-sorted stable-ID lists.
    tiles: Vec<Vec<u32>>,
    out: RenderOutput,
    /// Loss targets (see [`targets`]) and the loss of `out` against them.
    gt: Image,
    gt_depth: DepthImage,
    loss: LossOutput,
    /// Per-Gaussian gradients in stable-ID space (`capacity()` long).
    grads_by_id: Vec<GaussianGrad>,
    pose_grad: [f32; 6],
    grad_events: u64,
    touched: usize,
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
        let (proj, tiles, out) =
            reference::render_frame_aos(&flat, pose, camera, flat_mask.as_deref());

        // The loss is a deterministic function of the rendered output, so
        // the upstream gradients come from any arena whose output the
        // matrix then proves equal to `out`.
        let (gt, gt_depth) = targets(case, &out);
        let mut seed = FrameArena::new();
        seed.forward(&flat, pose, camera, flat_mask.as_deref(), &Serial);
        seed.compute_loss(&gt, Some(&gt_depth), &LossConfig::default());
        let loss = seed.loss().clone();

        let back = reference::backward_aos(&flat, &proj, &tiles, camera, pose, &loss.pixel_grads);
        Oracle {
            visible: proj.visible_count(),
            tiles: tiles
                .tile_lists
                .iter()
                .map(|l| l.iter().map(|&k| flat_ids[k as usize]).collect())
                .collect(),
            out,
            gt,
            gt_depth,
            loss,
            grads_by_id: by_stable_id(&back.gaussians, &flat_ids, map.capacity()),
            pose_grad: back.pose,
            grad_events: back.stats.fragment_grad_events,
            touched: back.stats.gaussians_touched,
            flat,
            flat_ids,
            flat_mask,
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

/// One cell of the matrix: drives `arena` through the selected spelling
/// and asserts every stage result against the oracle.
fn check_cell(
    arena: &mut FrameArena,
    case: &Case,
    oracle: &Oracle,
    backend: &dyn Backend,
    sharded: bool,
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

    // Step ❶, and the frame-local → stable-ID map of its index space.
    let ids: Vec<u32> = if sharded {
        arena.cull(map, pose, camera, mask.as_deref(), backend);
        arena.project_visible(pose, camera, backend);
        arena.visible().ids.clone()
    } else {
        arena.project(
            &oracle.flat,
            pose,
            camera,
            oracle.flat_mask.as_deref(),
            backend,
        );
        oracle.flat_ids.clone()
    };
    assert_eq!(
        arena.projection().visible_count(),
        oracle.visible,
        "{cell}: visible splats"
    );

    // Step ❷: CSR + radix == legacy per-tile sort == the oracle's lists.
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
        assert_eq!(
            arena.fragments().total_fragments(),
            oracle.out.stats.fragments_blended,
            "{cell}: every blended fragment is recorded"
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
    assert_eq!(
        out.pixel_workloads, oracle.out.pixel_workloads,
        "{cell}: workloads"
    );
    assert_eq!(out.stats, oracle.out.stats, "{cell}: stats");

    // Loss.
    let loss = arena.compute_loss(&oracle.gt, Some(&oracle.gt_depth), &LossConfig::default());
    assert_eq!(loss, oracle.loss.loss, "{cell}: loss");
    let (got, want) = (&arena.loss().pixel_grads, &oracle.loss.pixel_grads);
    assert_eq!(got.color, want.color, "{cell}: dL/dC");
    assert_eq!(got.depth, want.depth, "{cell}: dL/dD");
    assert_eq!(got.transmittance, want.transmittance, "{cell}: dL/dT");

    // Steps ❹–❺.
    match (fused, sharded) {
        (true, true) => arena.backward_visible_fused(camera, pose, backend),
        (true, false) => arena.backward_fused(&oracle.flat, camera, pose, backend),
        (false, _) => {
            let gathered;
            let scene = if sharded {
                gathered = arena.visible().scene.clone();
                &gathered
            } else {
                &oracle.flat
            };
            reference::backward_rewalk(arena, scene, camera, pose, want, backend);
        }
    }
    let back = arena.backward();
    assert_eq!(
        by_stable_id(&back.gaussians, &ids, map.capacity()),
        oracle.grads_by_id,
        "{cell}: gradients"
    );
    if !sharded || oracle.flat.len() <= POSE_CHUNK {
        assert_eq!(back.pose, oracle.pose_grad, "{cell}: pose tangent");
    }
    assert_eq!(
        back.stats.fragment_grad_events, oracle.grad_events,
        "{cell}: grad events"
    );
    assert_eq!(
        back.stats.gaussians_touched, oracle.touched,
        "{cell}: touched"
    );
}

/// Runs the whole matrix over an interleaving of cases: per backend, one
/// arena is reused through a forward and a reverse sweep over the cases
/// (so every buffer starts each cell from the stale state of an unrelated
/// spelling, case or resolution), and each case is also run on fresh
/// arenas.
fn run_matrix(cases: &[Case]) {
    let oracles: Vec<Oracle> = cases.iter().map(Oracle::of).collect();
    let mut backends: Vec<(String, Box<dyn Backend>)> = vec![("serial".into(), Box::new(Serial))];
    for threads in 1..=8usize {
        backends.push((format!("pool-{threads}"), Box::new(Parallel::new(threads))));
    }
    let spellings = [(false, true), (true, true), (false, false), (true, false)];
    let name = |backend: &str, arena: &str, i: usize, sharded: bool, fused: bool| {
        format!(
            "{backend}/{arena}/case {i}/{}/{}",
            if sharded { "sharded" } else { "flat" },
            if fused { "fused" } else { "re-walk" }
        )
    };

    for (backend_name, backend) in &backends {
        let mut reused = FrameArena::new();
        let n = cases.len();
        for i in (0..n).chain((0..n).rev()) {
            for (sharded, fused) in spellings {
                let cell = name(backend_name, "reused", i, sharded, fused);
                check_cell(
                    &mut reused,
                    &cases[i],
                    &oracles[i],
                    &**backend,
                    sharded,
                    fused,
                    &cell,
                );
            }
        }
        for (i, (case, oracle)) in cases.iter().zip(&oracles).enumerate() {
            for (sharded, fused) in spellings {
                let cell = name(backend_name, "fresh", i, sharded, fused);
                let mut fresh = FrameArena::new();
                check_cell(&mut fresh, case, oracle, &**backend, sharded, fused, &cell);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// {Serial, pool 1–8} × {fresh, reused arena} × {fused, re-walk} ×
    /// {flat, sharded} all reproduce the AoS oracle bitwise over random
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
/// everything (vacuous sharded == flat equivalence).
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
        case.map.len() > POSE_CHUNK,
        "also covers the multi-chunk fold"
    );

    let mut arena = FrameArena::new();
    arena.cull(&case.map, &case.pose, &case.camera, None, &Serial);
    assert!(
        arena.visible().shard_culled > 0,
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
        assert!(
            oracle.touched > visible - 8,
            "{} of {visible} touched: the tail blocks must carry gradient",
            oracle.touched
        );
        run_matrix(&[case]);
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
