//! Versioned map persistence for the RTGS serving runtime.
//!
//! Everything the in-memory stack evolves — the sharded map
//! ([`rtgs_render::ShardedScene`]), its ID-keyed side arrays (optimizer
//! moments, pruning scores, active masks) and whatever session state the
//! caller wants to ride along — can be written to a std-only, versioned,
//! checksummed binary container and brought back **bitwise-equivalent**:
//! a restored map renders identically to the live one and keeps behaving
//! identically under continued densify/prune/recycle churn, because
//! stable IDs, each shard's ascending member list and the ID free-list
//! order are part of the format.
//!
//! Three layers:
//!
//! 1. **Container** ([`mod@format`]) — magic + format version + section
//!    table, length-prefixed little-endian sections, per-section CRC-32.
//!    Loaders verify every checksum before interpreting a byte and reject
//!    unknown versions loudly ([`SnapshotError::UnsupportedVersion`]).
//! 2. **Full map snapshots** ([`scene`]) — the canonical
//!    [`ShardedScene`](rtgs_render::ShardedScene) encoding
//!    ([`encode_scene`] / [`decode_scene`]): two stores with the same
//!    observable state always encode byte-identically, the property delta
//!    compaction is verified against.
//! 3. **Incremental checkpoints** ([`checkpoint`]) — a [`CheckpointLog`]
//!    consumes per-shard mutation versions to append delta records
//!    carrying only changed shards (plus their members' ID-keyed
//!    [`Channel`] rows and the small ID free-list); restore is base +
//!    replay, and [`CheckpointLog::compact`] folds a chain back into a
//!    base byte-identical to a fresh full snapshot. The replay is one
//!    type, [`ReplayState`] ([`stream`]): a log folds its chain through
//!    it, and a replication follower keeps one warm, a delta at a time.
//!
//! The SLAM layer builds session checkpoint/restore on top of this crate
//! (`rtgs_slam::SlamPipeline::checkpoint_into` / `restore_from`).
//!
//! # Example
//!
//! ```
//! use rtgs_math::{Quat, Vec3};
//! use rtgs_render::{Gaussian3d, ShardedScene};
//! use rtgs_snapshot::{decode_scene, encode_scene, CheckpointLog};
//!
//! let mut map = ShardedScene::new(1.0);
//! map.insert(Gaussian3d::from_activated(
//!     Vec3::new(0.0, 0.0, 2.0),
//!     Vec3::splat(0.1),
//!     Quat::IDENTITY,
//!     0.8,
//!     Vec3::X,
//! ));
//!
//! // Full snapshot: save -> load is bitwise-equivalent.
//! let bytes = encode_scene(&map);
//! let restored = decode_scene(&bytes).unwrap();
//! assert_eq!(restored.export_state(), map.export_state());
//!
//! // Incremental: the second capture writes only changed shards.
//! let mut log = CheckpointLog::new();
//! let _ = log.capture(&map, &[], b"frame 0").unwrap();
//! map.gaussian_mut(0).position.x = 0.5;
//! let stats = log.capture(&map, &[], b"frame 1").unwrap();
//! assert_eq!(stats.shards_written, 1);
//! ```

pub mod checkpoint;
pub mod error;
pub mod format;
pub mod scene;
pub mod stream;

pub use checkpoint::{CaptureStats, Channel, CheckpointLog};
pub use error::SnapshotError;
pub use format::{crc32, Cursor, SectionBuilder, Sections, FORMAT_VERSION, MAGIC};
pub use scene::{decode_scene, decode_scene_sections, encode_scene, encode_scene_into};
pub use stream::ReplayState;
