//! Opt-in result caching for [`decide`](crate::decide).
//!
//! A [`CacheHandle`] on [`DecideOptions`] makes `decide` consult a
//! [`ResultCache`] before running the pipeline and populate it
//! afterwards. The cache key is the *canonical form* of the formula
//! (`sufsat-cache`), so α-renamed and trivially-reordered spellings of
//! the same query hit the same entry. Concurrent identical decides
//! coalesce onto one solve (single-flight): the first becomes the
//! leader, the rest wait for its verdict, each at most its own
//! `timeout`.
//!
//! Three rules keep this sound and honest:
//!
//! * only definitive verdicts (`Valid` / `Invalid`) are cached — a
//!   timeout or budget stop describes one run, not the formula;
//! * certifying runs (`options.certify`) bypass the cache entirely: a
//!   certificate attests to a solve that actually happened;
//! * a cancelled leader that learned nothing abandons its flight, so a
//!   waiting follower is promoted and solves instead.
//!
//! Cached counterexamples are stored over canonical symbol indices and
//! remapped to the querying formula's own symbols on a hit. They are
//! restricted to the original formula's variables (auxiliary constants
//! introduced by function elimination are dropped), so they are a
//! best-effort witness; the verdict is the contract.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sufsat_cache::{
    CacheValue, CachedVerdict, Canonical, Joined, LoadReport, ResultCache, StatsDigest,
};
use sufsat_seplog::SepAssignment;
use sufsat_suf::{TermId, TermManager};

use crate::decide::{cancel_requested, decide_inner, DecideStats, Decision, Outcome, StopReason};
use crate::DecideOptions;

/// A shared, cloneable reference to a [`ResultCache`], carried inside
/// [`DecideOptions`].
///
/// Equality is identity: two handles are equal iff they point at the
/// same cache, which is what option-comparison cares about.
#[derive(Clone)]
pub struct CacheHandle(Arc<ResultCache>);

impl CacheHandle {
    /// A fresh in-memory cache with the given byte budget.
    pub fn with_budget(byte_budget: usize) -> CacheHandle {
        CacheHandle(Arc::new(ResultCache::new(byte_budget)))
    }

    /// A fresh cache backed by the persistent log at `path` (loaded to
    /// warm the store). Returns the load report alongside the handle.
    pub fn with_persistence(
        byte_budget: usize,
        path: &Path,
    ) -> std::io::Result<(CacheHandle, LoadReport)> {
        let (cache, report) = ResultCache::with_persistence(byte_budget, path)?;
        Ok((CacheHandle(Arc::new(cache)), report))
    }

    /// The underlying cache.
    pub fn cache(&self) -> &ResultCache {
        &self.0
    }
}

impl std::fmt::Debug for CacheHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CacheHandle").field(&self.0).finish()
    }
}

impl PartialEq for CacheHandle {
    fn eq(&self, other: &CacheHandle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// How the result cache answered a [`decide`](crate::decide) call
/// ([`Decision::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Answered from the store.
    Hit,
    /// Answered by an identical decide that was in flight.
    Coalesced,
    /// Not answered by the cache: this call ran the pipeline, or its
    /// `timeout` expired while it waited on an identical decide.
    Miss,
}

impl CacheStatus {
    /// `hit`, `coalesced` or `miss` (the daemon's `cache` reply field).
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Coalesced => "coalesced",
            CacheStatus::Miss => "miss",
        }
    }
}

/// The cached path of [`decide`](crate::decide): a store hit, a wait on
/// an identical in-flight decide, or a solve whose definitive verdict is
/// stored and handed to the decides waiting on it.
pub(crate) fn decide_cached(
    handle: &CacheHandle,
    tm: &mut TermManager,
    phi: TermId,
    options: &DecideOptions,
    entered: Instant,
    dag_size: Option<usize>,
) -> Decision {
    let cache = handle.cache();
    let canonical = sufsat_cache::canonicalize(tm, phi);
    let fp = canonical.fingerprint;
    let solve = |tm: &mut TermManager| {
        let decision = Decision {
            cache: Some(CacheStatus::Miss),
            ..decide_inner(tm, phi, options, entered, dag_size)
        };
        let value = value_from_decision(&canonical, &decision);
        if let Some(value) = &value {
            cache.insert(fp, &canonical.bytes, value.clone());
        }
        (decision, value)
    };
    // Only a flight's leader looks in the store. A leader stores its
    // verdict before it completes the flight, so no decide solves a
    // formula an identical decide is solving or has just solved.
    match cache.join(fp, options.timeout.map(|t| entered + t)) {
        Joined::Leader(guard) => {
            if let Some(value) = cache.lookup(fp, &canonical.bytes) {
                let decision = decision_from_value(&canonical, &value, CacheStatus::Hit);
                guard.complete(Some(value));
                return decision;
            }
            let (decision, value) = solve(tm);
            // A cancelled run says nothing about the formula: drop the
            // guard so a waiting follower is promoted and solves it.
            if value.is_some() || !cancel_requested(options) {
                guard.complete(value);
            }
            decision
        }
        Joined::Done(Some(value)) => {
            decision_from_value(&canonical, &value, CacheStatus::Coalesced)
        }
        // The leader finished without a definitive verdict: solve here.
        Joined::Done(None) => solve(tm).0,
        Joined::TimedOut => Decision {
            outcome: Outcome::Unknown(StopReason::Timeout),
            stats: DecideStats::default(),
            certificate: None,
            cache: Some(CacheStatus::Miss),
        },
    }
}

/// Digest of the measurements worth replaying on a warm hit.
fn digest_from_stats(stats: &DecideStats) -> StatsDigest {
    StatsDigest {
        dag_size: stats.dag_size as u64,
        cnf_clauses: stats.cnf_clauses,
        conflict_clauses: stats.conflict_clauses,
        decisions: stats.decisions,
        propagations: stats.propagations,
        sep_predicates: stats.sep_predicates as u64,
        translate_time_us: stats.translate_time.as_micros() as u64,
        solve_time_us: stats.sat_time.as_micros() as u64,
    }
}

/// The cacheable projection of a decision, or `None` when the outcome
/// is not definitive.
fn value_from_decision(canonical: &Canonical, decision: &Decision) -> Option<CacheValue> {
    let digest = digest_from_stats(&decision.stats);
    match &decision.outcome {
        Outcome::Valid => Some(CacheValue {
            verdict: CachedVerdict::Valid,
            int_model: Vec::new(),
            bool_model: Vec::new(),
            digest,
        }),
        Outcome::Invalid(cex) => {
            let mut int_model: Vec<(u32, i64)> = cex
                .ints
                .iter()
                .filter_map(|(&var, &val)| canonical.int_var_index(var).map(|i| (i, val)))
                .collect();
            int_model.sort_unstable();
            let mut bool_model: Vec<(u32, bool)> = cex
                .bools
                .iter()
                .filter_map(|(&var, &val)| canonical.bool_var_index(var).map(|i| (i, val)))
                .collect();
            bool_model.sort_unstable();
            Some(CacheValue {
                verdict: CachedVerdict::Invalid,
                int_model,
                bool_model,
                digest,
            })
        }
        Outcome::Unknown(_) => None,
    }
}

/// Reconstructs a decision from a cached value, with the counterexample
/// remapped onto the querying formula's own symbols.
fn decision_from_value(canonical: &Canonical, value: &CacheValue, status: CacheStatus) -> Decision {
    let outcome = match value.verdict {
        CachedVerdict::Valid => Outcome::Valid,
        CachedVerdict::Invalid => {
            let mut cex = SepAssignment::default();
            for &(idx, val) in &value.int_model {
                if let Some(&var) = canonical.int_vars.get(idx as usize) {
                    cex.ints.insert(var, val);
                }
            }
            for &(idx, val) in &value.bool_model {
                if let Some(&var) = canonical.bool_vars.get(idx as usize) {
                    cex.bools.insert(var, val);
                }
            }
            Outcome::Invalid(cex)
        }
    };
    let digest = &value.digest;
    let stats = DecideStats {
        dag_size: digest.dag_size as usize,
        cnf_clauses: digest.cnf_clauses,
        conflict_clauses: digest.conflict_clauses,
        decisions: digest.decisions,
        propagations: digest.propagations,
        sep_predicates: digest.sep_predicates as usize,
        translate_time: Duration::from_micros(digest.translate_time_us),
        sat_time: Duration::from_micros(digest.solve_time_us),
        ..DecideStats::default()
    };
    Decision {
        outcome,
        stats,
        certificate: None,
        cache: Some(status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide;
    use sufsat_cache::canonicalize;

    fn cached_options(handle: &CacheHandle) -> DecideOptions {
        DecideOptions {
            cache: Some(handle.clone()),
            ..DecideOptions::default()
        }
    }

    fn invalid_uf(tm: &mut TermManager, f_name: &str, x_name: &str, y_name: &str) -> TermId {
        // f(x) = f(y) ⇒ x = y — invalid.
        let f = tm.declare_fun(f_name, 1);
        let x = tm.int_var(x_name);
        let y = tm.int_var(y_name);
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let hyp = tm.mk_eq(fx, fy);
        let conc = tm.mk_eq(x, y);
        tm.mk_implies(hyp, conc)
    }

    fn valid_order(tm: &mut TermManager) -> TermId {
        // x < y ∨ x ≥ y — valid.
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let lt = tm.mk_lt(x, y);
        let ge = tm.mk_ge(x, y);
        tm.mk_or(lt, ge)
    }

    /// Holds the flight of `phi` in `handle`'s cache, as an identical
    /// decide in progress would.
    fn hold_flight(
        handle: &CacheHandle,
        tm: &TermManager,
        phi: TermId,
    ) -> (Canonical, sufsat_cache::LeaderGuard<Option<CacheValue>>) {
        let canonical = canonicalize(tm, phi);
        match handle.cache().join(canonical.fingerprint, None) {
            Joined::Leader(guard) => (canonical, guard),
            _ => panic!("the first joiner of a flight leads it"),
        }
    }

    #[test]
    fn repeat_decide_hits_the_cache_with_the_same_verdict() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = cached_options(&handle);
        let mut tm = TermManager::new();
        let phi = valid_order(&mut tm);

        let cold = decide(&mut tm, phi, &options);
        assert!(cold.outcome.is_valid());
        assert_eq!(cold.cache, Some(CacheStatus::Miss));
        let warm = decide(&mut tm, phi, &options);
        assert!(warm.outcome.is_valid());
        assert_eq!(warm.cache, Some(CacheStatus::Hit));
        let stats = handle.cache().stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.inserts, 1);
        // The digest replays the cold run's counters.
        assert_eq!(warm.stats.dag_size, cold.stats.dag_size);
        assert_eq!(warm.stats.cnf_clauses, cold.stats.cnf_clauses);
    }

    #[test]
    fn alpha_renamed_query_hits_and_its_model_falsifies() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = cached_options(&handle);

        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let cold = decide(&mut tm, phi, &options);
        assert!(matches!(cold.outcome, Outcome::Invalid(_)));
        assert_eq!(cold.cache, Some(CacheStatus::Miss));

        // An α-renamed spelling of the same query must hit the cache.
        let psi = invalid_uf(&mut tm, "g", "a", "b");
        assert_ne!(phi, psi);
        let warm = decide(&mut tm, psi, &options);
        assert_eq!(warm.cache, Some(CacheStatus::Hit));
        let Outcome::Invalid(cex) = warm.outcome else {
            panic!("warm verdict must match cold: {:?}", warm.outcome);
        };
        assert_eq!(handle.cache().stats().hits, 1);
        // The remapped model speaks the duplicate's own symbols and,
        // being over original variables only here, falsifies it.
        let a = tm.find_int_var("a").unwrap();
        let b = tm.find_int_var("b").unwrap();
        assert!(cex.ints.contains_key(&a) || cex.ints.contains_key(&b));
        assert!(!cex.ints.contains_key(&tm.find_int_var("x").unwrap()));
    }

    #[test]
    fn unknown_outcomes_are_never_cached() {
        let handle = CacheHandle::with_budget(1 << 20);
        let cancel = sufsat_sat::CancelToken::new();
        cancel.cancel();
        let mut options = DecideOptions {
            cancel: Some(cancel),
            ..cached_options(&handle)
        };

        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let d = decide(&mut tm, phi, &options);
        assert_eq!(d.outcome, Outcome::Unknown(StopReason::Cancelled));
        assert_eq!(d.cache, Some(CacheStatus::Miss));
        let stats = handle.cache().stats();
        assert_eq!(stats.inserts, 0);
        // A later uncancelled run decides for real and caches.
        options.cancel = None;
        let d = decide(&mut tm, phi, &options);
        assert!(matches!(d.outcome, Outcome::Invalid(_)));
        assert_eq!(d.cache, Some(CacheStatus::Miss));
        assert_eq!(handle.cache().stats().inserts, 1);
    }

    #[test]
    fn certifying_runs_bypass_the_cache() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = DecideOptions {
            certify: true,
            ..cached_options(&handle)
        };

        let mut tm = TermManager::new();
        let phi = valid_order(&mut tm);
        let d = decide(&mut tm, phi, &options);
        assert!(d.outcome.is_valid());
        assert!(d.certificate.is_some(), "certificate from a real solve");
        assert_eq!(d.cache, None);
        let stats = handle.cache().stats();
        assert_eq!(stats.hits + stats.misses + stats.inserts, 0, "{stats:?}");
        // A decide with no cache attached reports no status either.
        let d = decide(&mut tm, phi, &DecideOptions::default());
        assert_eq!(d.cache, None);
    }

    #[test]
    fn a_decide_during_an_identical_flight_does_not_solve_again() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = cached_options(&handle);
        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let (canonical, guard) = hold_flight(&handle, &tm, phi);
        // The flight's verdict, which no solve of this test produced.
        let value = CacheValue {
            verdict: CachedVerdict::Invalid,
            int_model: Vec::new(),
            bool_model: Vec::new(),
            digest: StatsDigest::default(),
        };
        std::thread::scope(|s| {
            let follower = s.spawn(|| decide(&mut tm.clone(), phi, &options));
            // Whether the follower joins before or after the flight ends,
            // it finds the verdict: on the flight, or in the store.
            handle
                .cache()
                .insert(canonical.fingerprint, &canonical.bytes, value.clone());
            guard.complete(Some(value));
            let d = follower.join().expect("follower decide");
            assert!(
                matches!(d.cache, Some(CacheStatus::Hit | CacheStatus::Coalesced)),
                "{:?}",
                d.cache
            );
            assert!(matches!(d.outcome, Outcome::Invalid(_)), "{:?}", d.outcome);
        });
        let inserts = handle.cache().stats().inserts;
        assert_eq!(inserts, 1, "the follower solved again");
    }

    #[test]
    fn a_follower_times_out_on_a_flight_that_never_completes() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = DecideOptions {
            timeout: Some(Duration::from_millis(50)),
            ..cached_options(&handle)
        };
        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let (_canonical, _guard) = hold_flight(&handle, &tm, phi);
        let d = decide(&mut tm, phi, &options);
        assert_eq!(d.outcome, Outcome::Unknown(StopReason::Timeout));
        assert_eq!(d.outcome.label(), "unknown:timeout");
        assert_eq!(d.cache, Some(CacheStatus::Miss));
        assert_eq!(handle.cache().stats().inserts, 0);
    }

    #[test]
    fn a_follower_solves_when_the_leader_drops_its_flight() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = cached_options(&handle);
        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let (_canonical, guard) = hold_flight(&handle, &tm, phi);
        std::thread::scope(|s| {
            let follower = s.spawn(|| decide(&mut tm.clone(), phi, &options));
            // Promoted if it was waiting, the flight's new leader if not:
            // either way it solves the formula itself.
            drop(guard);
            let d = follower.join().expect("follower decide");
            assert_eq!(d.cache, Some(CacheStatus::Miss));
            assert!(matches!(d.outcome, Outcome::Invalid(_)), "{:?}", d.outcome);
        });
        assert_eq!(handle.cache().stats().inserts, 1);
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = CacheHandle::with_budget(1024);
        let b = CacheHandle::with_budget(1024);
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        // DecideOptions stays comparable with a handle attached.
        let opts_a = cached_options(&a);
        assert_eq!(opts_a, opts_a.clone());
    }
}
