//! Parallel execution & multi-session serving runtime for the RTGS stack.
//!
//! Three layers, bottom to top:
//!
//! 1. **[`ThreadPool`]** — a std-only thread pool with one unit of work
//!    and one mechanism: an allocation-free parallel-for whose chunks the
//!    caller and the pool's idle threads claim one index at a time. A
//!    chunk may start a loop of its own, and a thread waiting for a round
//!    of steps helps with the loops inside them, so loops nest without
//!    deadlock.
//! 2. **[`Backend`]** — the execution seam algorithm code programs against:
//!    chunked index-range loops that run on [`Serial`] (reference) or
//!    [`Parallel`] (pool) backends. Chunk geometry is fixed by the caller,
//!    never by the worker count, so deterministic reductions over chunk
//!    results are bitwise-identical across backends and pool sizes.
//!    [`BackendChoice`] is the `Copy` selector configuration structs embed;
//!    its default is the machine.
//! 3. **[`SessionScheduler`]** — multi-tenant serving: N concurrent
//!    [`Session`]s advance in round-robin rounds over one pool — a round
//!    is a parallel-for over the ready sessions — with per-session stats
//!    and graceful shutdown. Configure a run through the
//!    single front door, [`Serve::builder`].
//! 4. **[`ingest`]** — the open-loop front-end: tenants stream timestamped
//!    frames into bounded per-session inboxes behind a session cap, and a
//!    full inbox drops its oldest frame; the scheduler parks sessions whose
//!    inbox is empty and sheds load when a session falls behind its SLO.
//!
//! The hot paths of the differentiable rasterizer (`rtgs-render`) and the
//! SLAM pipeline (`rtgs-slam`) are expressed against layer 2; whole
//! pipelines are served through layers 3–4.
//!
//! # Example
//!
//! ```
//! use rtgs_runtime::{Backend, BackendChoice, Parallel, Serial};
//!
//! // A chunked map with disjoint writes, identical on any backend.
//! fn squares(backend: &dyn Backend, n: usize) -> Vec<u64> {
//!     let mut out = vec![0u64; n];
//!     let view = rtgs_runtime::SharedSlice::new(&mut out);
//!     backend.for_each_chunk(n, 32, &|_, range| {
//!         for i in range {
//!             // SAFETY: chunks cover disjoint index ranges.
//!             unsafe { view.write(i, (i as u64) * (i as u64)) };
//!         }
//!     });
//!     out
//! }
//!
//! let serial = squares(&Serial, 100);
//! let parallel = squares(&Parallel::new(4), 100);
//! assert_eq!(serial, parallel);
//! // The default is the machine; it only decides how many cores work.
//! assert_eq!(BackendChoice::default(), BackendChoice::Parallel { threads: 0 });
//! ```

mod backend;
pub mod ingest;
mod pool;
mod scheduler;
mod serve;

pub use backend::{
    exclusive_prefix_sum_into, shared_pool, shared_pool_sizes, Backend, BackendChoice, Parallel,
    Serial, SharedSlice,
};
pub use ingest::{
    AdmissionError, FrameInbox, FrameProducer, IngestConfig, IngestFrame, IngestHub, IngestStats,
    LatePolicy, PushOutcome, WorkSignal,
};
pub use pool::{PoolStats, ThreadPool};
pub use rtgs_telemetry::{HealthReport, HealthVerdict};
pub use scheduler::{
    fleet_latency, ReplicationStats, Session, SessionIoError, SessionOutcome, SessionScheduler,
    SessionStats, SessionStatus, ShutdownHandle,
};
pub use serve::{Serve, ServeBuilder};
