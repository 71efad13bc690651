//! One front door for serving: [`Serve::builder`] is the only public way to
//! construct and configure a [`SessionScheduler`] — "run these sessions
//! with this configuration" has one spelling, a [`ServeBuilder`] chain:
//!
//! ```
//! use rtgs_runtime::{Serve, Session, SessionStatus};
//!
//! struct Two(usize);
//! impl Session for Two {
//!     type Report = usize;
//!     fn step(&mut self) -> SessionStatus {
//!         self.0 += 1;
//!         if self.0 >= 2 { SessionStatus::Finished } else { SessionStatus::Running }
//!     }
//!     fn finish(self) -> usize { self.0 }
//! }
//!
//! let outcomes = Serve::builder()
//!     .threads(2)
//!     .run(vec![("a".to_string(), Two(0)), ("b".to_string(), Two(0))]);
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|o| o.report == 2));
//! ```
//!
//! Open-loop ingestion is an opt-in rung on the same chain: `.ingest(&hub)`.

use crate::ingest::IngestHub;
use crate::pool::ThreadPool;
use crate::scheduler::{Session, SessionOutcome, SessionScheduler};
use std::sync::Arc;

/// Namespace for the serving entry point; see [`Serve::builder`].
#[derive(Debug)]
pub struct Serve;

impl Serve {
    /// Starts a serving configuration chain.
    pub fn builder() -> ServeBuilder {
        ServeBuilder::new()
    }
}

/// Builder for a serving run: threads/pool, ingestion — finished
/// with [`build`](ServeBuilder::build) (a configured
/// [`SessionScheduler`]) or [`run`](ServeBuilder::run) (add sessions and
/// serve to completion).
///
/// `#[non_exhaustive]`: construct via [`Serve::builder`], so future serving
/// knobs are non-breaking.
#[must_use = "a ServeBuilder does nothing until .run() or .build()"]
#[non_exhaustive]
#[derive(Default)]
pub struct ServeBuilder {
    threads: usize,
    pool: Option<Arc<ThreadPool>>,
    ingest: Option<IngestHub>,
}

impl ServeBuilder {
    fn new() -> Self {
        Self::default()
    }

    /// Serves over the shared pool with `threads` workers. The thread that
    /// calls [`run`](Self::run) steps sessions too, so `threads(n)` is
    /// `n + 1` executors; `0`, the default, is the machine counted that
    /// way (`available_parallelism() − 1` workers, at least one — see
    /// [`shared_pool`](crate::shared_pool)). Ignored when an explicit
    /// [`pool`](Self::pool) is set.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Serves over an explicit pool (takes precedence over
    /// [`threads`](Self::threads)).
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches an open-loop [`IngestHub`]: the scheduler parks on the
    /// hub's work signal when no session has a frame queued. The hub's
    /// session cap is enforced where sessions get their inboxes,
    /// [`IngestHub::channel`].
    pub fn ingest(mut self, hub: &IngestHub) -> Self {
        self.ingest = Some(hub.clone());
        self
    }

    /// Finishes the chain into a configured [`SessionScheduler`] with no
    /// sessions yet — the escape hatch when the caller needs a
    /// [`shutdown_handle`](SessionScheduler::shutdown_handle) or staged
    /// session registration before serving.
    pub fn build<S: Session>(self) -> SessionScheduler<S> {
        let mut scheduler = match self.pool {
            Some(pool) => SessionScheduler::with_pool(pool),
            None => SessionScheduler::new(self.threads),
        };
        if let Some(hub) = &self.ingest {
            scheduler.set_ingest(hub);
        }
        scheduler
    }

    /// Registers the labelled sessions and serves them to completion,
    /// returning one outcome per session in input order.
    pub fn run<S: Session>(self, sessions: Vec<(String, S)>) -> Vec<SessionOutcome<S::Report>> {
        let mut scheduler = self.build();
        for (label, session) in sessions {
            scheduler.add_session(label, session);
        }
        scheduler.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::IngestConfig;
    use crate::scheduler::SessionStatus;

    struct Three(usize);

    impl Session for Three {
        type Report = usize;

        fn step(&mut self) -> SessionStatus {
            self.0 += 1;
            if self.0 >= 3 {
                SessionStatus::Finished
            } else {
                SessionStatus::Running
            }
        }

        fn finish(self) -> usize {
            self.0
        }
    }

    #[test]
    fn builder_runs_sessions_like_a_bare_scheduler() {
        let outcomes = Serve::builder().threads(2).run(vec![
            ("a".to_string(), Three(0)),
            ("b".to_string(), Three(0)),
        ]);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.stats.completed);
            assert_eq!(o.stats.steps, 3);
            assert_eq!(o.report, 3);
            assert!(o.stats.ingest.is_none(), "closed-loop session");
        }
    }

    #[test]
    fn build_exposes_admission_and_shutdown() {
        let hub = IngestHub::new(IngestConfig::new().with_max_sessions(1));
        let mut scheduler = Serve::builder().threads(1).ingest(&hub).build::<Three>();
        let _handle = scheduler.shutdown_handle();
        // The hub is the one admission gate: the second channel is refused.
        let _admitted = hub.channel::<()>().unwrap();
        scheduler.add_session("one", Three(0));
        assert!(matches!(
            hub.channel::<()>(),
            Err(crate::ingest::AdmissionError::SessionLimit { limit: 1, .. })
        ));
        assert_eq!(scheduler.session_count(), 1);
        let outcomes = scheduler.run();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].report, 3);
    }

    #[test]
    fn explicit_pool_takes_precedence() {
        let pool = crate::backend::shared_pool(2);
        let outcomes = Serve::builder()
            .pool(std::sync::Arc::clone(&pool))
            .threads(999) // ignored
            .run(vec![("p".to_string(), Three(0))]);
        assert_eq!(outcomes[0].report, 3);
    }
}
