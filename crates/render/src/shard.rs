//! Sharded spatial map store with frustum-culled visible sets and stable
//! Gaussian IDs.
//!
//! [`ShardedScene`] keeps the map's Gaussians in an append-only arena whose
//! indices are **stable IDs**: densification appends (or recycles a
//! tombstoned slot from the free-list) and pruning tombstones in place, so
//! no mutation ever reindexes surviving Gaussians. Optimizer moments,
//! pruning scores, active masks and workload traces can therefore all be
//! keyed by ID across arbitrary densify/prune interleavings.
//!
//! On top of the arena, Gaussians are bucketed into spatial-hash *shards*
//! keyed by a world-grid cell. Each shard tracks the axis-aligned bounding
//! box of its live members, the largest activated scale among them and a
//! dirty flag; [`crate::FrameArena::cull`] runs a conservative
//! frustum test per shard (parallelized over shards through the
//! [`Backend`] seam, deterministic output) and gathers only the surviving
//! shards' members into a frame-local [`GaussianScene`] for the chunked
//! project → prefix-sum → scatter pipeline. Per-frame rendering cost then
//! scales with the frustum's contents, not the total map size.
//!
//! The shard cull is *conservative by construction*: a shard is culled only
//! when the padded camera-space bound proves every member would be culled
//! by [`crate::project::project_one`]'s near-plane or image-extent test, so
//! culled-sharded rendering is bitwise-identical to flat full-scene
//! rendering (property-tested in `tests/equivalence.rs`).

use crate::camera::PinholeCamera;
use crate::gaussian::{Gaussian3d, GaussianScene};
use crate::project::{COV2D_BLUR, FRUSTUM_CLAMP, NEAR_PLANE};
use rtgs_math::{Mat3, Se3, Vec3};
use rtgs_runtime::{Backend, Serial, SharedSlice};
use std::collections::HashMap;

/// Shards per chunk in the parallel frustum-cull pre-pass (fixed by the
/// algorithm, not the worker count, so the surviving set is deterministic).
pub(crate) const CULL_CHUNK: usize = 16;

/// Coarse-level grouping: each macro-cell spans `MACRO_FACTOR` grid cells
/// per axis. The cull pre-pass tests macro-cells first and descends into
/// the member shards of survivors only, so per-frame cull cost follows the
/// *coarse* structure of the map plus the frustum's neighborhood — not the
/// raw shard count.
pub(crate) const MACRO_FACTOR: i32 = 8;

/// Sentinel for a tombstoned member slot inside a shard.
const DEAD_MEMBER: u32 = u32::MAX;

/// Sentinel marking a tombstoned slot in [`ShardState::members`] — the
/// serialized form of a dead member slot.
pub const TOMBSTONED_SLOT: u32 = DEAD_MEMBER;

/// Canonical arena content of a tombstoned slot in an exported
/// [`SceneState`]. A dead slot's in-memory Gaussian is unobservable (every
/// read path skips non-live IDs and recycling overwrites the slot before
/// any read), so [`ShardedScene::export_state`] normalizes it to this value
/// — two stores with the same live contents always export byte-identical
/// state regardless of what garbage their dead slots hold. Serializers
/// that materialize dead slots (e.g. `rtgs-snapshot`'s delta replay) must
/// use this same value, or canonical-form byte identity breaks.
pub const TOMBSTONE_FILL: Gaussian3d = Gaussian3d {
    position: Vec3::new(0.0, 0.0, 0.0),
    log_scale: Vec3::new(0.0, 0.0, 0.0),
    rotation: rtgs_math::Quat::new(0.0, 0.0, 0.0, 0.0),
    opacity: 0.0,
    color: Vec3::new(0.0, 0.0, 0.0),
};

/// Default world-grid cell edge length in meters.
pub const DEFAULT_CELL_SIZE: f32 = 1.0;

/// Stable address of one Gaussian: the shard it lives in and its slot in
/// that shard's member table. Neither component ever changes while the
/// Gaussian is alive — pruning tombstones the slot and densification only
/// appends or recycles already-dead slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaussianHandle {
    /// Index of the shard in [`ShardedScene::shards`].
    pub shard: u32,
    /// Slot in the shard's member table.
    pub slot: u32,
}

/// Axis-aligned bounding box in world space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Componentwise minimum corner.
    pub min: Vec3,
    /// Componentwise maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box (grows from infinities).
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::new(f32::INFINITY, f32::INFINITY, f32::INFINITY),
        max: Vec3::new(f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY),
    };

    /// Grows the box to contain `p`.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// True when no point was ever added.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Box center (undefined for empty boxes).
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Componentwise half-extent (undefined for empty boxes).
    #[inline]
    pub fn half_extent(&self) -> Vec3 {
        (self.max - self.min) * 0.5
    }
}

/// One spatial-hash bucket of the map.
#[derive(Debug, Clone)]
pub struct Shard {
    /// World-grid cell key (`floor(position / cell_size)` per axis at
    /// insertion time).
    pub cell: [i32; 3],
    /// Slot → arena ID; [`DEAD_MEMBER`] marks tombstoned slots.
    members: Vec<u32>,
    /// Free-list of tombstoned member slots available for reuse.
    free_slots: Vec<u32>,
    /// Number of live members.
    live_count: usize,
    /// Bounding box of the live members' centers (world frame).
    aabb: Aabb,
    /// Largest activated scale component among live members — the padding
    /// radius the conservative frustum test needs.
    max_scale: f32,
    /// Whether `aabb`/`max_scale` are stale.
    dirty: bool,
    /// Index of the macro-cell this shard belongs to.
    macro_idx: u32,
    /// Value of [`ShardedScene::mutation_clock`] at this shard's most
    /// recent mutation (insert/tombstone/`gaussian_mut`). Unlike `dirty`
    /// it is never cleared, so incremental checkpointing can ask "did this
    /// shard change since clock value C?" regardless of how many bound
    /// refreshes happened in between.
    version: u64,
}

impl Shard {
    fn new(cell: [i32; 3], macro_idx: u32) -> Self {
        Self {
            cell,
            members: Vec::new(),
            free_slots: Vec::new(),
            live_count: 0,
            aabb: Aabb::EMPTY,
            max_scale: 0.0,
            dirty: false,
            macro_idx,
            version: 0,
        }
    }

    /// Number of live members.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Mutation-clock value of this shard's most recent mutation (see
    /// [`ShardedScene::mutation_clock`]).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Slot → arena ID member table; [`TOMBSTONED_SLOT`] marks tombstoned
    /// slots. Slot order is persistent state (free slots recycle in stack
    /// order), which is why serializers read it directly.
    #[inline]
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Free-list of tombstoned member slots, in recycle (stack) order.
    #[inline]
    pub fn free_slots(&self) -> &[u32] {
        &self.free_slots
    }

    /// Current bounding box of live member centers (valid when not dirty).
    #[inline]
    pub fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// Whether the cached bounds are stale.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Recomputes bounds and max scale from the arena.
    fn refresh(&mut self, arena: &[Gaussian3d], live: &[bool]) {
        let mut aabb = Aabb::EMPTY;
        let mut max_scale = 0.0f32;
        for &id in &self.members {
            if id == DEAD_MEMBER || !live[id as usize] {
                continue;
            }
            let g = &arena[id as usize];
            aabb.grow(g.position);
            let s = g.scale();
            max_scale = max_scale.max(s.x).max(s.y).max(s.z);
        }
        self.aabb = aabb;
        self.max_scale = max_scale;
        self.dirty = false;
    }
}

/// A coarse bucket of shards (`MACRO_FACTOR`³ grid cells): the first level
/// of the two-level frustum cull.
#[derive(Debug, Clone)]
struct MacroCell {
    /// Member shard indices, in creation order.
    shards: Vec<u32>,
    /// Union of the member shards' live AABBs.
    aabb: Aabb,
    /// Largest `max_scale` among member shards.
    max_scale: f32,
    /// Whether the cached union bounds are stale.
    dirty: bool,
}

/// Result of the frustum-cull pre-pass: the frame-local working set.
///
/// `scene` holds the surviving Gaussians gathered in ascending stable-ID
/// order, so frame-local index `k` corresponds to stable ID `ids[k]`. All
/// downstream per-Gaussian buffers of one iteration (projection slots,
/// gradients) are in this frame-local space and map back through `ids`.
#[derive(Debug, Clone, Default)]
pub struct VisibleFrame {
    /// Gathered surviving Gaussians (frame-local index space).
    pub scene: GaussianScene,
    /// Frame-local index → stable arena ID.
    pub ids: Vec<u32>,
    /// Shards whose AABB passed the conservative frustum test.
    pub shards_visible: usize,
    /// Shards individually tested by the cull — the level-2 candidates
    /// inside surviving macro-cells, not the total shard count (the
    /// macro-cell level spares the rest a test entirely).
    pub shards_tested: usize,
    /// Live Gaussians skipped because their whole shard was culled.
    pub shard_culled: usize,
}

/// Workspace of [`ShardedScene::visible_frame_into`]: the two-level cull's
/// flag and candidate buffers. One workspace reused across iterations makes
/// the steady-state frustum-cull pre-pass allocation-free (the
/// [`crate::FrameArena`] owns one).
#[derive(Debug, Clone, Default)]
pub(crate) struct CullScratch {
    /// Level-1 macro-cell visibility flags.
    macro_flags: Vec<bool>,
    /// Level-2 candidate shard indices (members of surviving macro-cells).
    candidates: Vec<u32>,
    /// Level-2 per-candidate visibility flags.
    cand_flags: Vec<bool>,
    /// Indices of shards surviving both levels.
    surviving: Vec<u32>,
}

/// Serialized form of one [`Shard`]: exactly the state that cannot be
/// derived from the rest of a [`SceneState`].
///
/// Bounds (`aabb`, `max_scale`), the dirty flag and the macro-cell
/// structure are all recomputed on import, so they are deliberately absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    /// World-grid cell key.
    pub cell: [i32; 3],
    /// Slot → arena ID; [`TOMBSTONED_SLOT`] marks tombstoned slots. Slot
    /// order is part of the state: future inserts recycle
    /// [`ShardState::free_slots`] in stack order.
    pub members: Vec<u32>,
    /// Free-list of tombstoned member slots, in recycle (stack) order.
    pub free_slots: Vec<u32>,
}

/// Plain-data image of a [`ShardedScene`]'s complete persistent state —
/// everything [`ShardedScene::import_state`] needs to rebuild a store that
/// renders bitwise-identically to the original *and* behaves identically
/// under continued densify/prune/recycle churn (stable IDs, free-list
/// orders and slot layouts are all preserved).
///
/// The state is **canonical**: tombstoned arena slots hold a fixed fill
/// value instead of whatever stale Gaussian the live store kept there, so
/// two stores with the same observable contents export equal states.
/// Derived structure (handles, macro-cells, shard bounds, the spatial-hash
/// indices) is rebuilt deterministically on import.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneState {
    /// World-grid cell edge length.
    pub cell_size: f32,
    /// Full arena in stable-ID order (`capacity()` entries); tombstoned
    /// slots hold the canonical fill value.
    pub gaussians: Vec<Gaussian3d>,
    /// Per-ID liveness flags (same length as `gaussians`).
    pub live: Vec<bool>,
    /// Free-list of tombstoned arena IDs, in recycle (stack) order.
    pub free_ids: Vec<u32>,
    /// Shard states in creation order.
    pub shards: Vec<ShardState>,
}

/// The sharded map store. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct ShardedScene {
    cell_size: f32,
    arena: Vec<Gaussian3d>,
    live: Vec<bool>,
    handle_of: Vec<GaussianHandle>,
    free_ids: Vec<u32>,
    shards: Vec<Shard>,
    cell_index: HashMap<[i32; 3], u32>,
    macros: Vec<MacroCell>,
    macro_index: HashMap<[i32; 3], u32>,
    live_len: usize,
    dirty_shards: usize,
    /// Monotone mutation counter: bumped on every insert, tombstone and
    /// `gaussian_mut`, and stamped onto the mutated shard's
    /// [`Shard::version`].
    clock: u64,
}

impl ShardedScene {
    /// An empty store with the given world-grid cell size (meters).
    ///
    /// # Panics
    ///
    /// Panics unless `cell_size` is positive and finite.
    pub fn new(cell_size: f32) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "cell size must be positive and finite"
        );
        Self {
            cell_size,
            arena: Vec::new(),
            live: Vec::new(),
            handle_of: Vec::new(),
            free_ids: Vec::new(),
            shards: Vec::new(),
            cell_index: HashMap::new(),
            macros: Vec::new(),
            macro_index: HashMap::new(),
            live_len: 0,
            dirty_shards: 0,
            clock: 0,
        }
    }

    /// Builds a store from a flat scene (insertion order = stable IDs),
    /// with bounds already refreshed.
    pub fn from_scene(scene: &GaussianScene, cell_size: f32) -> Self {
        let mut map = Self::new(cell_size);
        for g in &scene.gaussians {
            map.insert(*g);
        }
        map.refresh_bounds();
        map
    }

    /// World-grid cell edge length.
    #[inline]
    pub fn cell_size(&self) -> f32 {
        self.cell_size
    }

    /// Number of live Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_len
    }

    /// True when no Gaussian is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_len == 0
    }

    /// Arena capacity: stable IDs are `0..capacity()`, including tombstoned
    /// slots. Per-ID side buffers (masks, moments, scores) size to this.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.arena.len()
    }

    /// Number of shards (including ones whose members are all tombstoned).
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, for diagnostics and tests.
    #[inline]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards with stale bounds.
    #[inline]
    pub fn dirty_shard_count(&self) -> usize {
        self.dirty_shards
    }

    /// Whether stable ID `id` is live.
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        self.live.get(id as usize).copied().unwrap_or(false)
    }

    /// The per-ID liveness flags (`capacity()` long) — the natural initial
    /// value for an ID-space active mask.
    #[inline]
    pub fn live_flags(&self) -> &[bool] {
        &self.live
    }

    /// Free-list of tombstoned arena IDs, in recycle (stack) order —
    /// persistent state a serializer must preserve for bit-equivalent
    /// continued churn.
    #[inline]
    pub fn free_ids(&self) -> &[u32] {
        &self.free_ids
    }

    /// The stable `(shard, slot)` handle of a live Gaussian, `None` when
    /// the ID is tombstoned or out of range.
    pub fn handle(&self, id: u32) -> Option<GaussianHandle> {
        if self.is_live(id) {
            Some(self.handle_of[id as usize])
        } else {
            None
        }
    }

    /// The stable ID currently held by a handle's slot, `None` when the
    /// slot is tombstoned or the handle out of range.
    pub fn id_at(&self, handle: GaussianHandle) -> Option<u32> {
        let shard = self.shards.get(handle.shard as usize)?;
        match shard.members.get(handle.slot as usize) {
            Some(&id) if id != DEAD_MEMBER && self.is_live(id) => Some(id),
            _ => None,
        }
    }

    /// Borrows a live Gaussian.
    ///
    /// # Panics
    ///
    /// Panics when `id` is tombstoned or out of range.
    #[inline]
    pub fn gaussian(&self, id: u32) -> &Gaussian3d {
        assert!(self.is_live(id), "gaussian {id} is not live");
        &self.arena[id as usize]
    }

    /// Mutably borrows a live Gaussian, marking its shard's bounds dirty
    /// (the optimizer may move or rescale it).
    ///
    /// # Panics
    ///
    /// Panics when `id` is tombstoned or out of range.
    pub fn gaussian_mut(&mut self, id: u32) -> &mut Gaussian3d {
        assert!(self.is_live(id), "gaussian {id} is not live");
        let shard = self.handle_of[id as usize].shard as usize;
        self.mark_shard_dirty(shard);
        &mut self.arena[id as usize]
    }

    fn mark_shard_dirty(&mut self, shard: usize) {
        self.clock += 1;
        self.shards[shard].version = self.clock;
        if !self.shards[shard].dirty {
            self.shards[shard].dirty = true;
            self.dirty_shards += 1;
        }
        self.macros[self.shards[shard].macro_idx as usize].dirty = true;
    }

    /// Live stable IDs in ascending order.
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| if l { Some(i as u32) } else { None })
    }

    /// Inserts a Gaussian, recycling a tombstoned arena slot when one is
    /// free. Returns the stable ID — callers owning per-ID side state
    /// (optimizer moments, masks) must reset the slot for recycled IDs.
    pub fn insert(&mut self, g: Gaussian3d) -> u32 {
        let cell = self.cell_of(g.position);
        let shard_idx = match self.cell_index.get(&cell) {
            Some(&s) => s,
            None => {
                let s = self.shards.len() as u32;
                let mcell = [
                    cell[0].div_euclid(MACRO_FACTOR),
                    cell[1].div_euclid(MACRO_FACTOR),
                    cell[2].div_euclid(MACRO_FACTOR),
                ];
                let m = match self.macro_index.get(&mcell) {
                    Some(&m) => m,
                    None => {
                        let m = self.macros.len() as u32;
                        self.macros.push(MacroCell {
                            shards: Vec::new(),
                            aabb: Aabb::EMPTY,
                            max_scale: 0.0,
                            dirty: false,
                        });
                        self.macro_index.insert(mcell, m);
                        m
                    }
                };
                self.macros[m as usize].shards.push(s);
                self.shards.push(Shard::new(cell, m));
                self.cell_index.insert(cell, s);
                s
            }
        };

        let id = match self.free_ids.pop() {
            Some(id) => {
                self.arena[id as usize] = g;
                self.live[id as usize] = true;
                id
            }
            None => {
                let id = self.arena.len() as u32;
                self.arena.push(g);
                self.live.push(true);
                self.handle_of.push(GaussianHandle { shard: 0, slot: 0 });
                id
            }
        };

        let shard = &mut self.shards[shard_idx as usize];
        let slot = match shard.free_slots.pop() {
            Some(slot) => {
                shard.members[slot as usize] = id;
                slot
            }
            None => {
                let slot = shard.members.len() as u32;
                shard.members.push(id);
                slot
            }
        };
        shard.live_count += 1;
        self.mark_shard_dirty(shard_idx as usize);
        self.handle_of[id as usize] = GaussianHandle {
            shard: shard_idx,
            slot,
        };
        self.live_len += 1;
        id
    }

    /// Tombstones a Gaussian: its slot is recycled by later inserts, no
    /// surviving ID changes. Returns `false` when already dead.
    pub fn tombstone(&mut self, id: u32) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let handle = self.handle_of[id as usize];
        let shard = &mut self.shards[handle.shard as usize];
        shard.members[handle.slot as usize] = DEAD_MEMBER;
        shard.free_slots.push(handle.slot);
        shard.live_count -= 1;
        self.mark_shard_dirty(handle.shard as usize);
        self.live[id as usize] = false;
        self.free_ids.push(id);
        self.live_len -= 1;
        true
    }

    /// Flattens the live Gaussians in ascending stable-ID order. Returns
    /// the flat scene and the flat-index → stable-ID map. This is the
    /// reference enumeration the shard-equivalence property tests compare
    /// against.
    pub fn flatten(&self) -> (GaussianScene, Vec<u32>) {
        let mut gaussians = Vec::with_capacity(self.live_len);
        let mut ids = Vec::with_capacity(self.live_len);
        for id in self.live_ids() {
            gaussians.push(self.arena[id as usize]);
            ids.push(id);
        }
        (GaussianScene::from_gaussians(gaussians), ids)
    }

    /// Monotone mutation counter: bumped on every insert, tombstone and
    /// [`Self::gaussian_mut`]. Together with [`Shard::version`] it lets an
    /// incremental checkpointer find the shards that changed since a
    /// recorded clock value without relying on the (refresh-cleared) dirty
    /// flags. The clock is session-local bookkeeping, not persistent
    /// state: an imported store starts back at zero.
    #[inline]
    pub fn mutation_clock(&self) -> u64 {
        self.clock
    }

    /// Exports the complete persistent state in canonical form (see
    /// [`SceneState`]). The store itself is unchanged; stale bounds are
    /// fine (bounds are derived data and recomputed on import).
    pub fn export_state(&self) -> SceneState {
        let gaussians = self
            .arena
            .iter()
            .zip(self.live.iter())
            .map(|(g, &live)| if live { *g } else { TOMBSTONE_FILL })
            .collect();
        SceneState {
            cell_size: self.cell_size,
            gaussians,
            live: self.live.clone(),
            free_ids: self.free_ids.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardState {
                    cell: s.cell,
                    members: s.members.clone(),
                    free_slots: s.free_slots.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a store from an exported [`SceneState`], validating every
    /// cross-reference so corrupt snapshots fail loudly instead of
    /// producing a store that panics later. The rebuilt store is
    /// bitwise-equivalent to the exporter for rendering and for continued
    /// densify/prune/recycle churn; its bounds are freshly computed and its
    /// mutation clock restarts at zero.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found (length
    /// mismatches, out-of-range or duplicated IDs, liveness or free-list
    /// disagreements, duplicate shard cells, non-finite cell size).
    pub fn import_state(state: &SceneState) -> Result<Self, String> {
        if !(state.cell_size > 0.0 && state.cell_size.is_finite()) {
            return Err(format!("invalid cell size {}", state.cell_size));
        }
        let capacity = state.gaussians.len();
        if state.live.len() != capacity {
            return Err(format!(
                "live flags length {} != arena capacity {capacity}",
                state.live.len()
            ));
        }
        if capacity > u32::MAX as usize {
            return Err(format!("arena capacity {capacity} exceeds u32 ID space"));
        }

        let mut map = Self::new(state.cell_size);
        map.arena = state.gaussians.clone();
        map.live = state.live.clone();
        map.free_ids = state.free_ids.clone();
        map.handle_of = vec![GaussianHandle { shard: 0, slot: 0 }; capacity];

        // Shards, their macro-cells and the spatial-hash indices are
        // rebuilt in creation order — the same order the exporter built
        // them in, so macro grouping (and hence cull iteration order) is
        // reproduced exactly.
        let mut seen_live = vec![false; capacity];
        for (si, shard_state) in state.shards.iter().enumerate() {
            let si32 = si as u32;
            let mcell = [
                shard_state.cell[0].div_euclid(MACRO_FACTOR),
                shard_state.cell[1].div_euclid(MACRO_FACTOR),
                shard_state.cell[2].div_euclid(MACRO_FACTOR),
            ];
            let m = match map.macro_index.get(&mcell) {
                Some(&m) => m,
                None => {
                    let m = map.macros.len() as u32;
                    map.macros.push(MacroCell {
                        shards: Vec::new(),
                        aabb: Aabb::EMPTY,
                        max_scale: 0.0,
                        dirty: false,
                    });
                    map.macro_index.insert(mcell, m);
                    m
                }
            };
            map.macros[m as usize].shards.push(si32);
            if map.cell_index.insert(shard_state.cell, si32).is_some() {
                return Err(format!("duplicate shard cell {:?}", shard_state.cell));
            }

            let mut shard = Shard::new(shard_state.cell, m);
            shard.members = shard_state.members.clone();
            shard.free_slots = shard_state.free_slots.clone();
            let mut dead_slots = 0usize;
            for (slot, &id) in shard_state.members.iter().enumerate() {
                if id == DEAD_MEMBER {
                    dead_slots += 1;
                    continue;
                }
                let idx = id as usize;
                if idx >= capacity {
                    return Err(format!("shard {si} member ID {id} out of range"));
                }
                if !state.live[idx] {
                    return Err(format!("shard {si} member ID {id} is not live"));
                }
                if seen_live[idx] {
                    return Err(format!("ID {id} appears in more than one slot"));
                }
                seen_live[idx] = true;
                map.handle_of[idx] = GaussianHandle {
                    shard: si32,
                    slot: slot as u32,
                };
                shard.live_count += 1;
            }
            if shard_state.free_slots.len() != dead_slots {
                return Err(format!(
                    "shard {si} free-list has {} slots but {dead_slots} members are tombstoned",
                    shard_state.free_slots.len()
                ));
            }
            let mut free_seen = vec![false; shard_state.members.len()];
            for &slot in &shard_state.free_slots {
                match shard_state.members.get(slot as usize) {
                    Some(&DEAD_MEMBER) if !free_seen[slot as usize] => {
                        free_seen[slot as usize] = true;
                    }
                    Some(&DEAD_MEMBER) => {
                        return Err(format!("shard {si} free-list repeats slot {slot}"))
                    }
                    _ => {
                        return Err(format!(
                            "shard {si} free-list slot {slot} is not a tombstoned member"
                        ))
                    }
                }
            }
            map.shards.push(shard);
        }

        for (id, (&live, &seen)) in state.live.iter().zip(seen_live.iter()).enumerate() {
            if live && !seen {
                return Err(format!("live ID {id} is not a member of any shard"));
            }
        }
        let mut free_seen = vec![false; capacity];
        for &id in &state.free_ids {
            let idx = id as usize;
            if idx >= capacity || state.live[idx] {
                return Err(format!("free-list ID {id} is out of range or live"));
            }
            if free_seen[idx] {
                return Err(format!("free-list repeats ID {id}"));
            }
            free_seen[idx] = true;
        }
        let dead = state.live.iter().filter(|&&l| !l).count();
        if state.free_ids.len() != dead {
            return Err(format!(
                "free-list has {} IDs but {dead} arena slots are tombstoned",
                state.free_ids.len()
            ));
        }

        map.live_len = capacity - dead;
        // Bounds are derived data: recompute them all. The refresh is
        // deterministic (same members, same order, same float ops), so the
        // imported bounds match a refreshed exporter's bit for bit.
        for si in 0..map.shards.len() {
            map.shards[si].dirty = true;
            map.macros[map.shards[si].macro_idx as usize].dirty = true;
        }
        map.dirty_shards = map.shards.len();
        map.refresh_bounds();
        map.clock = 0;
        for shard in &mut map.shards {
            shard.version = 0;
        }
        Ok(map)
    }

    /// Recomputes bounds of dirty shards on the calling thread.
    pub fn refresh_bounds(&mut self) {
        self.refresh_bounds_with(&Serial);
    }

    /// [`Self::refresh_bounds`] with the dirty shards chunked over an
    /// execution backend. Each shard's bounds depend only on its own
    /// members, so the result is identical on every backend and pool size.
    pub fn refresh_bounds_with(&mut self, backend: &dyn Backend) {
        if self.dirty_shards == 0 {
            return;
        }
        let dirty: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| if s.dirty { Some(i) } else { None })
            .collect();
        let arena = &self.arena;
        let live = &self.live;
        {
            let shards = SharedSlice::new(&mut self.shards);
            let dirty_ref = &dirty;
            backend.for_each_chunk(dirty_ref.len(), CULL_CHUNK, &|_, range| {
                for k in range {
                    // SAFETY: dirty indices are unique, so each shard is
                    // refreshed by exactly one chunk.
                    let shard = unsafe { shards.get_mut(dirty_ref[k]) };
                    shard.refresh(arena, live);
                }
            });
        }
        self.dirty_shards = 0;

        // Second level: re-union the dirty macro-cells from their members.
        let dirty_macros: Vec<usize> = self
            .macros
            .iter()
            .enumerate()
            .filter_map(|(i, m)| if m.dirty { Some(i) } else { None })
            .collect();
        let shards_ref = &self.shards;
        {
            let macros = SharedSlice::new(&mut self.macros);
            let dirty_ref = &dirty_macros;
            backend.for_each_chunk(dirty_ref.len(), CULL_CHUNK, &|_, range| {
                for k in range {
                    // SAFETY: dirty macro indices are unique.
                    let mc = unsafe { macros.get_mut(dirty_ref[k]) };
                    let mut aabb = Aabb::EMPTY;
                    let mut max_scale = 0.0f32;
                    for &si in &mc.shards {
                        let shard = &shards_ref[si as usize];
                        if shard.live_count == 0 || shard.aabb.is_empty() {
                            continue;
                        }
                        aabb.grow(shard.aabb.min);
                        aabb.grow(shard.aabb.max);
                        max_scale = max_scale.max(shard.max_scale);
                    }
                    mc.aabb = aabb;
                    mc.max_scale = max_scale;
                    mc.dirty = false;
                }
            });
        }
    }

    /// The frustum-cull pre-pass behind [`crate::FrameArena::cull`]: tests
    /// every shard's padded bounding box against the camera frustum
    /// (chunked over shards on `backend`, deterministic) and gathers the
    /// surviving shards' live members — minus `active`-masked ones — into a
    /// frame-local scene in ascending stable-ID order.
    ///
    /// The test is conservative: every Gaussian that could produce a splat
    /// under the per-Gaussian projection is in the result, so rendering the
    /// gathered scene is bitwise-identical to rendering the full map.
    ///
    /// The workspace and the gathered frame buffers are cleared and
    /// refilled; once their capacities cover the frustum's contents, a
    /// steady-state cull + gather performs **no heap allocation**.
    ///
    /// # Panics
    ///
    /// Panics when bounds are stale (call [`Self::refresh_bounds_with`]
    /// after mutations) or `active` is not `capacity()` long.
    pub(crate) fn visible_frame_into(
        &self,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
        scratch: &mut CullScratch,
        out: &mut VisibleFrame,
    ) {
        assert_eq!(
            self.dirty_shards, 0,
            "shard bounds are stale; call refresh_bounds first"
        );
        if let Some(mask) = active {
            assert_eq!(
                mask.len(),
                self.capacity(),
                "active mask length must match the arena capacity"
            );
        }
        let shards_tested = self.surviving_shards_into(w2c, camera, backend, scratch);

        // Walk only the surviving shards; their visit order is irrelevant
        // because the frame-local order is fixed by the ID sort below.
        let ids = &mut out.ids;
        ids.clear();
        let mut gathered_live = 0usize;
        let mut shards_visible = 0usize;
        for &si in &scratch.surviving {
            let shard = &self.shards[si as usize];
            gathered_live += shard.live_count;
            if shard.live_count > 0 {
                shards_visible += 1;
            }
            for &id in &shard.members {
                if id == DEAD_MEMBER {
                    continue;
                }
                if let Some(mask) = active {
                    if !mask[id as usize] {
                        continue;
                    }
                }
                ids.push(id);
            }
        }
        let shard_culled = self.live_len - gathered_live;
        // Frame-local order is ascending stable ID: the same enumeration a
        // flat full-scene render walks, so depth-sort tie order (and hence
        // blending) matches bit for bit.
        ids.sort_unstable();

        out.scene.gaussians.clear();
        out.scene
            .gaussians
            .extend(ids.iter().map(|&id| self.arena[id as usize]));
        out.shards_visible = shards_visible;
        out.shards_tested = shards_tested;
        out.shard_culled = shard_culled;
    }

    /// Per-shard conservative frustum flags (`true` = may contribute).
    ///
    /// Two levels: macro-cells (unions of `MACRO_FACTOR`³ grid cells) are
    /// tested first, and only the member shards of surviving macro-cells
    /// are tested individually. Both tests use the same conservative
    /// padded bound with the level's own AABB and max scale, so a shard
    /// that would pass the direct test always lives in a macro-cell that
    /// passes too — the surviving shard set is exactly the single-level
    /// one, at a fraction of the tests.
    pub fn cull_shards_with(
        &self,
        w2c: &Se3,
        camera: &PinholeCamera,
        backend: &dyn Backend,
    ) -> Vec<bool> {
        let mut scratch = CullScratch::default();
        self.surviving_shards_into(w2c, camera, backend, &mut scratch);
        let mut flags = vec![false; self.shards.len()];
        for &si in &scratch.surviving {
            flags[si as usize] = true;
        }
        flags
    }

    /// Computes the indices of shards surviving the two-level cull into
    /// `scratch.surviving`, in macro order then creation order
    /// (deterministic; not sorted by index). Returns the number of level-2
    /// (per-shard) tests performed. Allocation-free once the scratch
    /// capacities cover the map's macro/shard counts.
    fn surviving_shards_into(
        &self,
        w2c: &Se3,
        camera: &PinholeCamera,
        backend: &dyn Backend,
        scratch: &mut CullScratch,
    ) -> usize {
        let rot = w2c.rotation_matrix();
        let frustum = FrustumBound::of(camera);

        // Level 1: macro-cells.
        scratch.macro_flags.clear();
        scratch.macro_flags.resize(self.macros.len(), false);
        {
            let flag_view = SharedSlice::new(&mut scratch.macro_flags);
            let macros = &self.macros;
            backend.for_each_chunk(macros.len(), CULL_CHUNK, &|_, range| {
                for i in range {
                    let m = &macros[i];
                    let visible = !m.aabb.is_empty()
                        && shard_may_contribute(&m.aabb, m.max_scale, &rot, w2c, &frustum);
                    // SAFETY: each macro index is written by exactly one
                    // chunk.
                    unsafe { flag_view.write(i, visible) };
                }
            });
        }

        // Level 2: member shards of surviving macro-cells.
        scratch.candidates.clear();
        scratch.candidates.extend(
            self.macros
                .iter()
                .zip(scratch.macro_flags.iter())
                .filter(|&(_, &f)| f)
                .flat_map(|(m, _)| m.shards.iter().copied()),
        );
        scratch.cand_flags.clear();
        scratch.cand_flags.resize(scratch.candidates.len(), false);
        {
            let flag_view = SharedSlice::new(&mut scratch.cand_flags);
            let shards = &self.shards;
            let cand_ref = &scratch.candidates;
            backend.for_each_chunk(cand_ref.len(), CULL_CHUNK, &|_, range| {
                for k in range {
                    let s = &shards[cand_ref[k] as usize];
                    let visible = s.live_count > 0
                        && !s.aabb.is_empty()
                        && shard_may_contribute(&s.aabb, s.max_scale, &rot, w2c, &frustum);
                    // SAFETY: each candidate position is written by exactly
                    // one chunk.
                    unsafe { flag_view.write(k, visible) };
                }
            });
        }
        let tested = scratch.candidates.len();
        scratch.surviving.clear();
        scratch.surviving.extend(
            scratch
                .candidates
                .iter()
                .zip(scratch.cand_flags.iter())
                .filter(|&(_, &f)| f)
                .map(|(&si, _)| si),
        );
        tested
    }

    fn cell_of(&self, p: Vec3) -> [i32; 3] {
        let f = |v: f32| -> i32 {
            let c = (v / self.cell_size).floor();
            c.clamp(i32::MIN as f32, i32::MAX as f32) as i32
        };
        [f(p.x), f(p.y), f(p.z)]
    }
}

/// Conservative test whether any Gaussian centered inside `aabb` with
/// activated scale components at most `max_scale` could survive
/// [`crate::project::project_one`] under `(w2c, camera)`.
///
/// In camera space a Gaussian at `(x, y, z)` survives only if
/// `z ≥ NEAR_PLANE` and its splat's 3σ bounding square touches the image.
/// The splat mean is `(cx + fx·x/z, cy + fy·y/z)` and its radius is
/// bounded by `3(‖J‖_F·σ_max + √blur)` with the clamped Jacobian's
/// Frobenius norm `‖J‖_F ≤ C_J / z`, `C_J = √(fx²(1+lim_x²) +
/// fy²(1+lim_y²))`. That confines survivors to a padded pyramid; a box
/// entirely outside it cannot contribute. Padding is evaluated at the
/// box's far depth (where it is widest) plus a small float-slack margin,
/// keeping the test conservative under f32 rounding.
/// Camera-dependent constants of the conservative cull test, computed once
/// per cull pass rather than per shard.
struct FrustumBound {
    width: f32,
    height: f32,
    fx: f32,
    fy: f32,
    cx: f32,
    cy: f32,
    /// `C_J = √(fx²(1+lim_x²) + fy²(1+lim_y²))` — the clamped-Jacobian
    /// Frobenius bound (see [`shard_may_contribute`]).
    c_j: f32,
}

impl FrustumBound {
    fn of(camera: &PinholeCamera) -> Self {
        let lim_x = FRUSTUM_CLAMP * (0.5 * camera.width as f32 / camera.fx);
        let lim_y = FRUSTUM_CLAMP * (0.5 * camera.height as f32 / camera.fy);
        let c_j = (camera.fx * camera.fx * (1.0 + lim_x * lim_x)
            + camera.fy * camera.fy * (1.0 + lim_y * lim_y))
            .sqrt();
        Self {
            width: camera.width as f32,
            height: camera.height as f32,
            fx: camera.fx,
            fy: camera.fy,
            cx: camera.cx,
            cy: camera.cy,
            c_j,
        }
    }
}

fn shard_may_contribute(
    aabb: &Aabb,
    max_scale: f32,
    rot: &Mat3,
    w2c: &Se3,
    frustum: &FrustumBound,
) -> bool {
    // Camera-space center/extent of the world-space box (|R| trick).
    let c = rot.mul_vec(aabb.center()) + w2c.translation;
    let e_world = aabb.half_extent();
    let abs_row =
        |r: Vec3| -> f32 { r.x.abs() * e_world.x + r.y.abs() * e_world.y + r.z.abs() * e_world.z };
    let e = Vec3::new(
        abs_row(rot.row(0)),
        abs_row(rot.row(1)),
        abs_row(rot.row(2)),
    );

    let z_hi = c.z + e.z;
    if z_hi < NEAR_PLANE {
        return false;
    }
    let z_lo = (c.z - e.z).max(NEAR_PLANE);

    // Clamped-Jacobian Frobenius bound (precomputed per cull pass).
    let pad_px = 3.0 * (frustum.c_j * max_scale + COV2D_BLUR.sqrt() * z_hi);
    // Float-slack margin: generous relative to the quantities involved.
    let slack = 1e-3 * (1.0 + z_hi + c.x.abs() + c.y.abs() + e.x + e.y);

    // x: survivors satisfy z·s_lo − pad ≤ x ≤ z·s_hi + pad for their own z;
    // bound over z ∈ [z_lo, z_hi] (pad grows with z, slopes can have either
    // sign, so take the extremes of both endpoints).
    let check_axis = |c_a: f32, e_a: f32, res: f32, f: f32, pp: f32| -> bool {
        let s_lo = -pp / f;
        let s_hi = (res - pp) / f;
        let pad = pad_px / f + slack;
        let hi = (z_lo * s_hi).max(z_hi * s_hi) + pad;
        let lo = (z_lo * s_lo).min(z_hi * s_lo) - pad;
        c_a - e_a <= hi && c_a + e_a >= lo
    };
    check_axis(c.x, e.x, frustum.width, frustum.fx, frustum.cx)
        && check_axis(c.y, e.y, frustum.height, frustum.fy, frustum.cy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameArena;
    use rtgs_math::Quat;

    /// The cull's visible frame through the production path.
    fn visible_frame(
        map: &ShardedScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
    ) -> VisibleFrame {
        let mut arena = FrameArena::new();
        arena.cull(map, w2c, camera, active, backend);
        arena.visible().clone()
    }

    fn g_at(p: Vec3) -> Gaussian3d {
        Gaussian3d::from_activated(p, Vec3::splat(0.05), Quat::IDENTITY, 0.8, Vec3::X)
    }

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 48, 1.2)
    }

    #[test]
    fn insert_assigns_stable_ids_and_handles() {
        let mut map = ShardedScene::new(1.0);
        let a = map.insert(g_at(Vec3::new(0.1, 0.1, 2.0)));
        let b = map.insert(g_at(Vec3::new(5.0, 0.0, 2.0)));
        assert_eq!((a, b), (0, 1));
        assert_eq!(map.len(), 2);
        assert_eq!(map.capacity(), 2);
        // Different cells → different shards.
        let ha = map.handle(a).unwrap();
        let hb = map.handle(b).unwrap();
        assert_ne!(ha.shard, hb.shard);
        assert_eq!(map.id_at(ha), Some(a));
        assert_eq!(map.id_at(hb), Some(b));
    }

    #[test]
    fn same_cell_gaussians_share_a_shard() {
        let mut map = ShardedScene::new(2.0);
        let a = map.insert(g_at(Vec3::new(0.1, 0.1, 0.1)));
        let b = map.insert(g_at(Vec3::new(0.9, 0.9, 0.9)));
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.handle(a).unwrap().shard, map.handle(b).unwrap().shard);
    }

    #[test]
    fn tombstone_keeps_other_ids_stable() {
        let mut map = ShardedScene::new(1.0);
        let ids: Vec<u32> = (0..5)
            .map(|i| map.insert(g_at(Vec3::new(i as f32 * 1.5, 0.0, 2.0))))
            .collect();
        let handles: Vec<GaussianHandle> = ids.iter().map(|&i| map.handle(i).unwrap()).collect();
        assert!(map.tombstone(ids[2]));
        assert!(!map.tombstone(ids[2]), "double tombstone is a no-op");
        assert_eq!(map.len(), 4);
        assert_eq!(map.capacity(), 5, "tombstoning never shrinks the arena");
        for (k, &id) in ids.iter().enumerate() {
            if k == 2 {
                assert!(!map.is_live(id));
                assert!(map.handle(id).is_none());
            } else {
                assert_eq!(map.handle(id), Some(handles[k]), "handle {k} moved");
            }
        }
    }

    #[test]
    fn insert_recycles_tombstoned_slots() {
        let mut map = ShardedScene::new(1.0);
        let a = map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        let _b = map.insert(g_at(Vec3::new(0.1, 0.0, 2.0)));
        map.tombstone(a);
        let c = map.insert(g_at(Vec3::new(3.0, 0.0, 2.0)));
        assert_eq!(c, a, "freed arena slot is recycled");
        assert_eq!(map.capacity(), 2);
        assert_eq!(map.len(), 2);
        // The recycled Gaussian lives in the shard matching its position.
        assert_eq!(map.gaussian(c).position.x, 3.0);
    }

    #[test]
    fn flatten_orders_by_stable_id() {
        let mut map = ShardedScene::new(1.0);
        let ids: Vec<u32> = (0..4)
            .map(|i| map.insert(g_at(Vec3::new(3.0 - i as f32, 0.0, 2.0))))
            .collect();
        map.tombstone(ids[1]);
        let (flat, order) = map.flatten();
        assert_eq!(order, vec![0, 2, 3]);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.gaussians[0].position.x, 3.0);
    }

    #[test]
    fn bounds_track_mutation() {
        let mut map = ShardedScene::new(10.0);
        let id = map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        map.refresh_bounds();
        assert_eq!(map.dirty_shard_count(), 0);
        map.gaussian_mut(id).position = Vec3::new(4.0, 0.0, 2.0);
        assert_eq!(map.dirty_shard_count(), 1);
        map.refresh_bounds();
        let aabb = map.shards()[0].aabb();
        assert_eq!(aabb.min.x, 4.0);
        assert_eq!(aabb.max.x, 4.0);
    }

    #[test]
    fn behind_camera_shard_is_culled() {
        let mut map = ShardedScene::new(1.0);
        map.insert(g_at(Vec3::new(0.0, 0.0, -5.0)));
        map.insert(g_at(Vec3::new(0.2, 0.0, -5.2)));
        map.refresh_bounds();
        let vf = visible_frame(&map, &Se3::IDENTITY, &camera(), None, &Serial);
        assert_eq!(vf.scene.len(), 0);
        assert_eq!(vf.shard_culled, 2);
    }

    #[test]
    fn far_lateral_shard_is_culled_but_central_survives() {
        let mut map = ShardedScene::new(1.0);
        map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        map.insert(g_at(Vec3::new(500.0, 0.0, 2.0)));
        map.refresh_bounds();
        let vf = visible_frame(&map, &Se3::IDENTITY, &camera(), None, &Serial);
        assert_eq!(vf.ids, vec![0]);
        assert_eq!(vf.shard_culled, 1);
    }

    #[test]
    fn cull_is_conservative_vs_projection() {
        // Every Gaussian the flat projector keeps must be in the visible
        // frame, for a pose that sees only part of the map.
        let mut map = ShardedScene::new(0.5);
        let mut k = 0u32;
        for ix in -6..6 {
            for iz in 0..8 {
                let p = Vec3::new(ix as f32 * 0.7, (k % 3) as f32 * 0.3 - 0.3, iz as f32 * 0.9);
                map.insert(g_at(p));
                k += 1;
            }
        }
        map.refresh_bounds();
        let cam = camera();
        let w2c = Se3::from_translation(Vec3::new(0.3, 0.0, 1.0));
        let (flat, flat_ids) = map.flatten();
        let mut arena = FrameArena::new();
        arena.project(&flat, &w2c, &cam, None, &Serial);
        let proj = arena.projection();
        let vf = visible_frame(&map, &w2c, &cam, None, &Serial);
        for (flat_idx, &id) in flat_ids.iter().enumerate() {
            if proj.splat_for_gaussian(flat_idx).is_some() {
                assert!(
                    vf.ids.contains(&id),
                    "gaussian {id} visible in flat projection but shard-culled"
                );
            }
        }
        assert!(vf.shard_culled > 0, "test should actually cull something");
    }

    #[test]
    fn active_mask_filters_visible_frame() {
        let mut map = ShardedScene::new(1.0);
        let a = map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        let b = map.insert(g_at(Vec3::new(0.2, 0.0, 2.0)));
        map.refresh_bounds();
        let mut mask = vec![true; map.capacity()];
        mask[a as usize] = false;
        let vf = visible_frame(&map, &Se3::IDENTITY, &camera(), Some(&mask), &Serial);
        assert_eq!(vf.ids, vec![b]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn visible_frame_requires_fresh_bounds() {
        let mut map = ShardedScene::new(1.0);
        map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        let _ = visible_frame(&map, &Se3::IDENTITY, &camera(), None, &Serial);
    }

    #[test]
    fn export_import_roundtrip_preserves_ids_and_churn() {
        let mut map = ShardedScene::new(0.8);
        let ids: Vec<u32> = (0..12)
            .map(|i| {
                map.insert(g_at(Vec3::new(
                    i as f32 * 0.5 - 3.0,
                    0.0,
                    2.0 + i as f32 * 0.2,
                )))
            })
            .collect();
        map.tombstone(ids[3]);
        map.tombstone(ids[7]);
        map.insert(g_at(Vec3::new(9.0, 0.0, 2.0))); // recycles ID 7
        let state = map.export_state();
        let mut restored = ShardedScene::import_state(&state).expect("state is consistent");

        assert_eq!(restored.len(), map.len());
        assert_eq!(restored.capacity(), map.capacity());
        for id in map.live_ids() {
            assert_eq!(restored.handle(id), map.handle(id), "handle of {id}");
            assert_eq!(restored.gaussian(id), map.gaussian(id));
        }
        // Continued churn is bitwise-equivalent: the same insert recycles
        // the same ID into the same slot on both stores.
        let a = map.insert(g_at(Vec3::new(-9.0, 0.0, 2.0)));
        let b = restored.insert(g_at(Vec3::new(-9.0, 0.0, 2.0)));
        assert_eq!(a, b);
        assert_eq!(map.handle(a), restored.handle(b));
        // Exported state is canonical, so re-export matches.
        assert_eq!(map.export_state(), restored.export_state());
    }

    #[test]
    fn export_is_canonical_in_dead_slots() {
        // Two stores with identical live contents but different dead-slot
        // garbage export equal states.
        let mut a = ShardedScene::new(1.0);
        a.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        a.insert(g_at(Vec3::new(0.2, 0.0, 2.0)));
        let mut b = a.clone();
        a.gaussian_mut(1).position = Vec3::new(7.0, 1.0, 2.0);
        a.tombstone(1);
        b.tombstone(1);
        assert_eq!(a.export_state(), b.export_state());
    }

    #[test]
    fn import_rejects_inconsistent_state() {
        let mut map = ShardedScene::new(1.0);
        map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        map.insert(g_at(Vec3::new(3.0, 0.0, 2.0)));
        map.tombstone(0);
        let good = map.export_state();
        assert!(ShardedScene::import_state(&good).is_ok());

        let mut bad = good.clone();
        bad.live[1] = false; // live flag contradicts shard membership
        assert!(ShardedScene::import_state(&bad).is_err());

        let mut bad = good.clone();
        bad.free_ids.clear(); // free-list missing the tombstoned ID
        assert!(ShardedScene::import_state(&bad).is_err());

        let mut bad = good.clone();
        bad.shards[0].members[0] = 9; // dangling member ID
        assert!(ShardedScene::import_state(&bad).is_err());

        let mut bad = good.clone();
        bad.cell_size = f32::NAN;
        assert!(ShardedScene::import_state(&bad).is_err());
    }

    #[test]
    fn mutation_clock_tracks_shard_versions() {
        let mut map = ShardedScene::new(1.0);
        let a = map.insert(g_at(Vec3::new(0.0, 0.0, 2.0)));
        let b = map.insert(g_at(Vec3::new(5.0, 0.0, 2.0)));
        let clock = map.mutation_clock();
        assert!(clock >= 2);
        let sa = map.handle(a).unwrap().shard as usize;
        let sb = map.handle(b).unwrap().shard as usize;

        // Refreshing bounds clears dirty flags but not versions.
        map.refresh_bounds();
        assert!(map.shards()[sa].version() > 0);

        // Mutating only `b` advances its shard's version past the
        // recorded clock; `a`'s shard stays at its old version.
        map.gaussian_mut(b).position.x = 5.1;
        assert!(map.shards()[sb].version() > clock);
        assert!(map.shards()[sa].version() <= clock);
        assert_eq!(map.mutation_clock(), map.shards()[sb].version());
    }

    #[test]
    fn parallel_cull_matches_serial() {
        let mut map = ShardedScene::new(0.4);
        for i in 0..200 {
            let p = Vec3::new(
                ((i * 37) % 23) as f32 * 0.5 - 5.0,
                ((i * 17) % 11) as f32 * 0.4 - 2.0,
                ((i * 29) % 19) as f32 * 0.6 - 3.0,
            );
            map.insert(g_at(p));
        }
        map.refresh_bounds();
        let cam = camera();
        let w2c = Se3::from_translation(Vec3::new(0.0, 0.0, 4.0));
        let serial = visible_frame(&map, &w2c, &cam, None, &Serial);
        for threads in [1usize, 2, 4, 8] {
            let backend = rtgs_runtime::Parallel::new(threads);
            let par = visible_frame(&map, &w2c, &cam, None, &backend);
            assert_eq!(serial.ids, par.ids, "pool size {threads}");
        }
    }
}
