//! Hibernate-to-disk eviction: the residency budget, who is spilled when it
//! is exceeded, and how a spilled session comes back.
//!
//! With an [`EvictionPolicy`] attached, the scheduler keeps at most
//! `max_resident_sessions` sessions (and at most `max_resident_bytes` of
//! reported session memory) resident: when the budget is exceeded, the
//! **coldest** session — least-recently stepped, ties broken by insertion
//! order — is asked to [`Session::hibernate`] to a spill file. A
//! hibernated session is transparently [`Session::rehydrate`]d right
//! before its next step (its steps run one at a time, after the resident
//! round, so the budget holds throughout the round, not just between
//! rounds). Sessions whose `hibernate` reports unsupported are never
//! evicted. Hibernation must not change results: a session that was
//! evicted and rehydrated produces the same report as one that stayed
//! resident (asserted end-to-end in `rtgs-slam`'s serving tests).

use super::{Session, SessionScheduler};
use crate::ingest::AdmissionError;
use rtgs_telemetry::{journal_record, EventKind, SpanGuard};
use std::path::PathBuf;
use std::time::Instant;

/// Residency budget driving hibernate-to-disk eviction.
///
/// `#[non_exhaustive]`: construct via [`EvictionPolicy::new`] plus the
/// `with_*` builders, so future budget knobs are non-breaking.
#[derive(Debug, Clone)]
#[must_use = "attach the policy with ServeBuilder::eviction"]
#[non_exhaustive]
pub struct EvictionPolicy {
    /// Maximum sessions resident at once (`None` = unlimited). Values
    /// below 1 are treated as 1 — something must be resident to step.
    pub max_resident_sessions: Option<usize>,
    /// Maximum summed [`Session::resident_bytes`] (`None` = unlimited).
    pub max_resident_bytes: Option<usize>,
    /// Directory spill files are written to (created on first use).
    pub spill_dir: PathBuf,
}

impl EvictionPolicy {
    /// An unlimited policy spilling into `spill_dir`; combine with the
    /// `with_*` builders to set budgets.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            max_resident_sessions: None,
            max_resident_bytes: None,
            spill_dir: spill_dir.into(),
        }
    }

    /// Caps the number of resident sessions.
    pub fn with_max_resident_sessions(mut self, n: usize) -> Self {
        self.max_resident_sessions = Some(n);
        self
    }

    /// Caps the summed resident bytes reported by the sessions.
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    fn spill_path(&self, session: usize) -> PathBuf {
        self.spill_dir.join(format!("session-{session}.snap"))
    }
}

impl<S: Session> SessionScheduler<S> {
    /// Creates the policy's spill directory, before the first round.
    pub(super) fn create_spill_dir(&self) {
        if let Some(policy) = &self.policy {
            std::fs::create_dir_all(&policy.spill_dir).unwrap_or_else(|e| {
                panic!(
                    "cannot create spill directory {}: {e}",
                    policy.spill_dir.display()
                )
            });
        }
    }

    /// Deletes every session's spill file, once all are resident again.
    pub(super) fn remove_spill_files(&self) {
        if let Some(policy) = &self.policy {
            for idx in 0..self.sessions.len() {
                std::fs::remove_file(policy.spill_path(idx)).ok();
            }
        }
    }

    /// The policy's byte budget, for the health roll-up.
    pub(super) fn budget_bytes(&self) -> Option<u64> {
        let policy = self.policy.as_ref()?;
        policy.max_resident_bytes.map(|bytes| bytes as u64)
    }

    /// Sessions currently resident (live and not hibernated).
    fn resident_count(&self) -> usize {
        self.sessions
            .iter()
            .filter(|e| !e.done && !e.hibernated)
            .count()
    }

    /// What the resident sessions occupy *now* — sessions grow past their
    /// at-admission estimates, so every budget check polls.
    fn resident_bytes(&self) -> usize {
        self.sessions
            .iter()
            .filter(|e| !e.done && !e.hibernated)
            .map(|e| e.session.resident_bytes())
            .sum()
    }

    /// The resident-byte half of [`try_admit`](Self::try_admit).
    pub(super) fn admit_bytes(&self, session: &S) -> Result<(), AdmissionError> {
        let Some(limit) = self.policy.as_ref().and_then(|p| p.max_resident_bytes) else {
            return Ok(());
        };
        let requested = session.resident_bytes();
        let resident = self.resident_bytes();
        // A session larger than the whole byte budget could never be made
        // resident — even alone — so it can never be stepped; and one that
        // does not fit beside the current residents would immediately blow
        // the budget the eviction policy enforces.
        if requested > limit || resident.saturating_add(requested) > limit {
            journal_record(
                EventKind::AdmissionReject,
                self.sessions.len() as u32,
                0,
                0,
                resident as u64,
            );
            return Err(AdmissionError::ResidentBytes {
                limit,
                requested,
                resident,
            });
        }
        Ok(())
    }

    /// Hibernates coldest-first until the policy's budgets hold, keeping
    /// `reserve_sessions` residency slots and `reserve_bytes` of memory
    /// headroom free for an imminent rehydration. Stops early when nothing
    /// evictable remains.
    pub(super) fn enforce_budget(&mut self, reserve_sessions: usize, reserve_bytes: usize) {
        let Some(policy) = &self.policy else {
            return;
        };
        // With a rehydration imminent (a non-zero reserve) residency may
        // drop to zero — the incoming session fills the slot. Otherwise
        // keep at least one session resident so the round can make
        // progress.
        let min_keep = usize::from(reserve_sessions == 0 && reserve_bytes == 0);
        loop {
            let resident = self.resident_count();
            let over_sessions = policy
                .max_resident_sessions
                .is_some_and(|m| resident + reserve_sessions > m.max(1));
            let bytes = self.resident_bytes();
            let over_bytes = policy
                .max_resident_bytes
                .is_some_and(|m| bytes.saturating_add(reserve_bytes) > m);
            if !(over_sessions || over_bytes) || resident <= min_keep {
                return;
            }
            // Coldest evictable resident session: least-recently stepped,
            // ties broken by insertion index.
            let Some(coldest) = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.done && !e.hibernated && e.evictable)
                .min_by_key(|(i, e)| (e.last_stepped_round, *i))
                .map(|(i, _)| i)
            else {
                return;
            };
            let path = policy.spill_path(coldest);
            let entry = &mut self.sessions[coldest];
            let bytes_before = entry.session.resident_bytes();
            let _span = SpanGuard::new("serve.hibernate", "io", coldest as u64);
            let t0 = Instant::now();
            match entry.session.hibernate(&path) {
                Ok(()) => {
                    let elapsed = t0.elapsed();
                    entry.hibernated = true;
                    entry.parked_bytes = bytes_before;
                    entry.hibernations += 1;
                    entry.hibernate_wall += elapsed;
                    self.metrics.hibernations.incr();
                    self.metrics.hibernate_ns.add(elapsed.as_nanos() as u64);
                    // Budget-forced eviction and its successful spill: two
                    // journal entries so the bundle shows cause and effect.
                    journal_record(EventKind::Evict, coldest as u32, 0, 0, bytes as u64);
                    journal_record(
                        EventKind::Hibernate,
                        coldest as u32,
                        0,
                        0,
                        bytes_before as u64,
                    );
                }
                Err(_) => {
                    // Unsupported (or failed) — permanently exempt so the
                    // loop converges instead of retrying every round.
                    entry.evictable = false;
                }
            }
        }
    }

    /// Brings hibernated session `idx` back from its spill file.
    ///
    /// # Panics
    ///
    /// When the file cannot be read back: it is the only copy of the
    /// session's state, so the run cannot continue.
    pub(super) fn rehydrate(&mut self, idx: usize) {
        let path = self
            .policy
            .as_ref()
            .expect("hibernated sessions only exist under a policy")
            .spill_path(idx);
        let entry = &mut self.sessions[idx];
        let _span = SpanGuard::new("serve.rehydrate", "io", idx as u64);
        let t0 = Instant::now();
        if let Err(e) = entry.session.rehydrate(&path) {
            panic!(
                "failed to rehydrate session {idx} ('{}') from {}: {e}",
                entry.label,
                path.display()
            );
        }
        let elapsed = t0.elapsed();
        entry.hibernated = false;
        entry.rehydrations += 1;
        entry.rehydrate_wall += elapsed;
        self.metrics.rehydrations.incr();
        self.metrics.rehydrate_ns.add(elapsed.as_nanos() as u64);
        journal_record(
            EventKind::Rehydrate,
            idx as u32,
            0,
            0,
            elapsed.as_nanos() as u64,
        );
    }
}
