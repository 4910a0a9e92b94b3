//! Cross-thread solver progress heartbeats.
//!
//! A long CDCL search is opaque from the outside: a caller holding only a
//! [`CancelToken`](crate::CancelToken) can stop it but cannot tell a
//! stuck search from a slow one. A [`ProgressHandle`] fixes that: the
//! caller clones one into the solver (see
//! [`Solver::set_progress_handle`](crate::Solver::set_progress_handle))
//! and reads [`ProgressSnapshot`]s from any thread while the search runs.
//!
//! Publication piggybacks on the search loop's existing deadline credit
//! counter — the same amortization that bounds timeout polling bounds
//! heartbeat cost, so an installed handle adds a handful of relaxed
//! atomic stores every ~256 cycles and nothing per propagation. When
//! tracing is enabled the solver additionally emits `sat.progress` events
//! at most every 100 ms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time copy of a running search's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Conflicts since this solve started.
    pub conflicts: u64,
    /// Decisions since this solve started.
    pub decisions: u64,
    /// Propagations since this solve started.
    pub propagations: u64,
    /// Restarts since this solve started.
    pub restarts: u64,
    /// Current assignment trail depth.
    pub trail_depth: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Clause arena footprint in bytes (live + tombstoned).
    pub arena_bytes: u64,
    /// Wall-clock microseconds since this solve started.
    pub elapsed_us: u64,
    /// Recent conflict rate (conflicts per second over the last
    /// heartbeat window).
    pub conflicts_per_s: u64,
    /// Publication sequence number: 0 means "never published", and each
    /// publication increments it, so readers can detect liveness.
    pub seq: u64,
}

#[derive(Default)]
struct Inner {
    conflicts: AtomicU64,
    decisions: AtomicU64,
    propagations: AtomicU64,
    restarts: AtomicU64,
    trail_depth: AtomicU64,
    learnt_clauses: AtomicU64,
    arena_bytes: AtomicU64,
    elapsed_us: AtomicU64,
    conflicts_per_s: AtomicU64,
    seq: AtomicU64,
}

/// A shared, cloneable view onto a solver's live search counters.
///
/// Clone one side into the solver; read the other from any thread. Reads
/// and writes are individually atomic but not mutually consistent — a
/// snapshot taken mid-publication may mix fields from two heartbeats,
/// which is fine for the monitoring use this exists for.
#[derive(Clone, Default)]
pub struct ProgressHandle {
    inner: Arc<Inner>,
}

impl ProgressHandle {
    /// A fresh handle with all counters zero.
    pub fn new() -> ProgressHandle {
        ProgressHandle::default()
    }

    /// Publishes a snapshot. Called by the solver from inside the search
    /// loop; also usable directly (e.g. to clear stale data between jobs
    /// by publishing `ProgressSnapshot::default()`).
    pub fn publish(&self, snap: ProgressSnapshot) {
        let i = &*self.inner;
        i.conflicts.store(snap.conflicts, Ordering::Relaxed);
        i.decisions.store(snap.decisions, Ordering::Relaxed);
        i.propagations.store(snap.propagations, Ordering::Relaxed);
        i.restarts.store(snap.restarts, Ordering::Relaxed);
        i.trail_depth.store(snap.trail_depth, Ordering::Relaxed);
        i.learnt_clauses
            .store(snap.learnt_clauses, Ordering::Relaxed);
        i.arena_bytes.store(snap.arena_bytes, Ordering::Relaxed);
        i.elapsed_us.store(snap.elapsed_us, Ordering::Relaxed);
        i.conflicts_per_s
            .store(snap.conflicts_per_s, Ordering::Relaxed);
        i.seq.fetch_add(1, Ordering::Release);
    }

    /// The most recently published snapshot (all-zero with `seq == 0`
    /// when the solver has not published yet).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let i = &*self.inner;
        let seq = i.seq.load(Ordering::Acquire);
        ProgressSnapshot {
            conflicts: i.conflicts.load(Ordering::Relaxed),
            decisions: i.decisions.load(Ordering::Relaxed),
            propagations: i.propagations.load(Ordering::Relaxed),
            restarts: i.restarts.load(Ordering::Relaxed),
            trail_depth: i.trail_depth.load(Ordering::Relaxed),
            learnt_clauses: i.learnt_clauses.load(Ordering::Relaxed),
            arena_bytes: i.arena_bytes.load(Ordering::Relaxed),
            elapsed_us: i.elapsed_us.load(Ordering::Relaxed),
            conflicts_per_s: i.conflicts_per_s.load(Ordering::Relaxed),
            seq,
        }
    }

    /// Resets every counter to zero (bumping `seq`), so a reused handle
    /// does not show the previous job's final state as current progress.
    pub fn clear(&self) {
        self.publish(ProgressSnapshot::default());
    }
}

/// Identity equality: two handles are equal iff they share state (clones
/// of one handle), mirroring [`CancelToken`](crate::CancelToken) so a
/// handle can ride inside `PartialEq` option structs.
impl PartialEq for ProgressHandle {
    fn eq(&self, other: &ProgressHandle) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for ProgressHandle {}

impl std::fmt::Debug for ProgressHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHandle")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_snapshot_round_trips() {
        let h = ProgressHandle::new();
        assert_eq!(h.snapshot().seq, 0);
        let snap = ProgressSnapshot {
            conflicts: 10,
            decisions: 20,
            propagations: 30,
            restarts: 1,
            trail_depth: 7,
            learnt_clauses: 5,
            arena_bytes: 4096,
            elapsed_us: 1234,
            conflicts_per_s: 8100,
            seq: 0, // ignored on publish
        };
        h.publish(snap);
        let read = h.snapshot();
        assert_eq!(read.seq, 1);
        assert_eq!(read.conflicts, 10);
        assert_eq!(read.arena_bytes, 4096);
        // Clones share state.
        let h2 = h.clone();
        h2.clear();
        let read = h.snapshot();
        assert_eq!(read.seq, 2);
        assert_eq!(read.conflicts, 0);
    }
}
