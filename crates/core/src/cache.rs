//! Opt-in result caching for [`decide`](crate::decide).
//!
//! A [`CacheHandle`] on [`DecideOptions`](crate::DecideOptions) makes
//! `decide` consult a [`ResultCache`] before running the pipeline and
//! populate it afterwards. The cache key is the *canonical form* of the
//! formula (`sufsat-cache`), so α-renamed and trivially-reordered
//! spellings of the same query hit the same entry.
//!
//! Two rules keep this sound and honest:
//!
//! * only definitive verdicts (`Valid` / `Invalid`) are cached — a
//!   timeout or budget stop describes one run, not the formula;
//! * certifying runs (`options.certify`) bypass the cache entirely: a
//!   certificate attests to a solve that actually happened.
//!
//! Cached counterexamples are stored over canonical symbol indices and
//! remapped to the querying formula's own symbols on a hit. They are
//! restricted to the original formula's variables (auxiliary constants
//! introduced by function elimination are dropped), so they are a
//! best-effort witness; the verdict is the contract.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use sufsat_cache::{CacheValue, CachedVerdict, Canonical, LoadReport, ResultCache, StatsDigest};
use sufsat_seplog::SepAssignment;

use crate::decide::{DecideStats, Decision, Outcome};

/// A shared, cloneable reference to a [`ResultCache`], carried inside
/// [`DecideOptions`](crate::DecideOptions).
///
/// Equality is identity: two handles are equal iff they point at the
/// same cache, which is what option-comparison cares about.
#[derive(Clone)]
pub struct CacheHandle(Arc<ResultCache>);

impl CacheHandle {
    /// Wraps an existing cache.
    pub fn new(cache: Arc<ResultCache>) -> CacheHandle {
        CacheHandle(cache)
    }

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

    /// The underlying shared pointer (e.g. to hand to a server).
    pub fn arc(&self) -> &Arc<ResultCache> {
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

/// Digest of the measurements worth replaying on a warm hit.
pub(crate) fn digest_from_stats(stats: &DecideStats) -> StatsDigest {
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
pub(crate) fn value_from_decision(
    canonical: &Canonical,
    decision: &Decision,
) -> Option<CacheValue> {
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

/// Reconstructs a decision from a cache hit, with the counterexample
/// remapped onto the querying formula's own symbols.
pub(crate) fn decision_from_value(canonical: &Canonical, value: &CacheValue) -> Decision {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decide, DecideOptions, StopReason};
    use sufsat_suf::TermManager;

    fn invalid_uf(tm: &mut TermManager, f_name: &str, x_name: &str, y_name: &str) -> sufsat_suf::TermId {
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

    #[test]
    fn repeat_decide_hits_the_cache_with_the_same_verdict() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = DecideOptions {
            cache: Some(handle.clone()),
            ..DecideOptions::default()
        };

        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let lt = tm.mk_lt(x, y);
        let ge = tm.mk_ge(x, y);
        let phi = tm.mk_or(lt, ge); // valid

        let cold = decide(&mut tm, phi, &options);
        assert!(cold.outcome.is_valid());
        let warm = decide(&mut tm, phi, &options);
        assert!(warm.outcome.is_valid());
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
        let options = DecideOptions {
            cache: Some(handle.clone()),
            ..DecideOptions::default()
        };

        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let cold = decide(&mut tm, phi, &options);
        assert!(matches!(cold.outcome, Outcome::Invalid(_)));

        // An α-renamed spelling of the same query must hit the cache.
        let psi = invalid_uf(&mut tm, "g", "a", "b");
        assert_ne!(phi, psi);
        let warm = decide(&mut tm, psi, &options);
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
            cache: Some(handle.clone()),
            cancel: Some(cancel),
            ..DecideOptions::default()
        };

        let mut tm = TermManager::new();
        let phi = invalid_uf(&mut tm, "f", "x", "y");
        let d = decide(&mut tm, phi, &options);
        assert_eq!(d.outcome, Outcome::Unknown(StopReason::Cancelled));
        let stats = handle.cache().stats();
        assert_eq!(stats.inserts, 0);
        // A later uncancelled run decides for real and caches.
        options.cancel = None;
        let d = decide(&mut tm, phi, &options);
        assert!(matches!(d.outcome, Outcome::Invalid(_)));
        assert_eq!(handle.cache().stats().inserts, 1);
    }

    #[test]
    fn certifying_runs_bypass_the_cache() {
        let handle = CacheHandle::with_budget(1 << 20);
        let options = DecideOptions {
            cache: Some(handle.clone()),
            certify: true,
            ..DecideOptions::default()
        };

        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let lt = tm.mk_lt(x, y);
        let ge = tm.mk_ge(x, y);
        let phi = tm.mk_or(lt, ge);
        let d = decide(&mut tm, phi, &options);
        assert!(d.outcome.is_valid());
        assert!(d.certificate.is_some(), "certificate from a real solve");
        let stats = handle.cache().stats();
        assert_eq!(stats.hits + stats.misses + stats.inserts, 0, "{stats:?}");
    }

    #[test]
    fn handle_equality_is_identity() {
        let a = CacheHandle::with_budget(1024);
        let b = CacheHandle::with_budget(1024);
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        // DecideOptions stays comparable with a handle attached.
        let opts_a = DecideOptions {
            cache: Some(a.clone()),
            ..DecideOptions::default()
        };
        assert_eq!(opts_a, opts_a.clone());
    }
}
