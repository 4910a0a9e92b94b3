//! Incremental bounded model checking on one persistent session.
//!
//! [`sufsat_core::check_bounded`] discharges every depth's obligation
//! `init(s₀) ⇒ property(sₖ)` with an independent [`sufsat_core::decide`]
//! call, rebuilding encoder and solver each time although consecutive
//! obligations share the initial-state constraint and most of the
//! unrolled datapath. The incremental mode here asserts `init` once,
//! then per depth pushes `¬property(sₖ)` in its own scope, checks, and
//! pops — so the session's committed encodings, transitivity clauses and
//! the solver's learnt clauses carry across depths. The per-depth
//! verdicts are the same ([`Outcome::Valid`] ⇔ `init ∧ ¬propₖ` unsat ⇔
//! the obligation is valid), and the obligations themselves are built by
//! the *same* [`TransitionSystem::at_step`] and
//! [`TransitionSystem::advance`] unrolling the from-scratch path uses.

use std::collections::HashMap;
use std::time::Duration;

use sufsat_core::{BmcResult, DecideOptions, Outcome, TransitionSystem};
use sufsat_suf::{substitute, TermId, TermManager};

use crate::session::Session;

/// Measurements of one incremental BMC run.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct IncrementalBmcReport {
    /// Depth checks performed (≤ bound + 1).
    pub checks: u64,
    /// Total SAT conflicts across all depths, including any solvers
    /// discarded by re-encoding fallbacks.
    pub conflicts: u64,
    /// Total SAT decisions across all depths.
    pub decisions: u64,
    /// Total SAT propagations across all depths.
    pub propagations: u64,
    /// Re-encoding fallbacks taken.
    pub reencodes: u64,
    /// Assertion encodings reused from earlier depths.
    pub reused_roots: u64,
    /// Assertion encodings built fresh.
    pub fresh_roots: u64,
    /// Total translation time (elimination, analysis, encoding, loading).
    pub translate_time: Duration,
    /// Total SAT time.
    pub sat_time: Duration,
    /// CNF clauses in the persistent solver after the last depth.
    pub cnf_clauses: u64,
}

/// [`sufsat_core::check_bounded`] on a persistent session (see the module
/// docs). Verdict-equivalent to the from-scratch path.
///
/// # Panics
///
/// Panics under the same conditions as [`sufsat_core::check_bounded`]
/// (misaligned or mis-sorted system components).
pub fn check_bounded_incremental(
    tm: &mut TermManager,
    system: &TransitionSystem,
    bound: usize,
    options: &DecideOptions,
) -> BmcResult {
    check_bounded_incremental_report(tm, system, bound, options).0
}

/// [`check_bounded_incremental`], additionally reporting the run's cost
/// counters for comparison against
/// [`sufsat_core::check_bounded_with_stats`].
pub fn check_bounded_incremental_report(
    tm: &mut TermManager,
    system: &TransitionSystem,
    bound: usize,
    options: &DecideOptions,
) -> (BmcResult, IncrementalBmcReport) {
    system.assert_well_formed(tm);

    let span = sufsat_obs::span_with!("bmc.incremental", bound = bound);
    let owned = std::mem::replace(tm, TermManager::new());
    let mut session = Session::with_term_manager(owned, options.clone());
    session.assert(system.init);

    let mut current: HashMap<TermId, TermId> =
        system.state.iter().map(|&s| (s, s)).collect();
    let mut report = IncrementalBmcReport::default();
    let mut result = BmcResult::Bounded(bound);

    for step in 0..=bound {
        // Obligation init(s₀) ⇒ property(s_step), refuted as
        // init ∧ ¬property(s_step) in a scope of its own.
        let tm = session.term_manager_mut();
        let at_step = system.at_step(tm, &current, step);
        let prop_now = substitute(tm, system.property, &at_step);
        let neg_prop = tm.mk_not(prop_now);
        session.push();
        session.assert(neg_prop);
        let check = session.check();
        session.pop();

        report.checks += 1;
        report.translate_time += check.stats.translate_time;
        report.sat_time += check.stats.sat_time;
        report.cnf_clauses = check.stats.cnf_clauses;
        sufsat_obs::event!(
            "bmc.incremental.depth",
            step = step,
            conflicts = check.stats.conflict_clauses,
            reencoded = check.reencoded.is_some(),
        );
        match check.outcome {
            Outcome::Valid => {}
            Outcome::Invalid(assignment) => {
                result = BmcResult::CounterexampleAt { step, assignment };
                break;
            }
            Outcome::Unknown(reason) => {
                result = BmcResult::Unknown { step, reason };
                break;
            }
        }
        if step == bound {
            break;
        }
        current = system.advance(session.term_manager_mut(), &at_step);
    }

    let stats = session.stats();
    report.conflicts = stats.conflicts;
    report.decisions = stats.decisions;
    report.propagations = stats.propagations;
    report.reencodes = stats.reencodes;
    report.reused_roots = stats.reused_roots;
    report.fresh_roots = stats.fresh_roots;
    if span.is_recording() {
        sufsat_obs::event!(
            "bmc.incremental.done",
            checks = report.checks,
            conflicts = report.conflicts,
            reencodes = report.reencodes,
            reused_roots = report.reused_roots,
            fresh_roots = report.fresh_roots,
        );
    }
    *tm = session.into_term_manager();
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_core::check_bounded;

    fn verdicts_match(a: &BmcResult, b: &BmcResult) -> bool {
        match (a, b) {
            (BmcResult::Bounded(x), BmcResult::Bounded(y)) => x == y,
            (
                BmcResult::CounterexampleAt { step: x, .. },
                BmcResult::CounterexampleAt { step: y, .. },
            ) => x == y,
            (BmcResult::Unknown { step: x, .. }, BmcResult::Unknown { step: y, .. }) => x == y,
            _ => false,
        }
    }

    #[test]
    fn matches_from_scratch_on_a_safe_system() {
        // Saturating toggle between lo and hi: property holds at every
        // depth; verdicts must match check_bounded exactly.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let lo = tm.int_var("lo");
        let hi = tm.int_var("hi");
        let at_lo = tm.mk_eq(x, lo);
        let next = tm.mk_ite_int(at_lo, hi, lo);
        let at_hi = tm.mk_eq(x, hi);
        let property = tm.mk_or(at_lo, at_hi);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![],
            init: at_lo,
            property,
        };
        let options = DecideOptions::default();
        let reference = check_bounded(&mut tm.clone(), &system, 5, &options);
        let (incremental, report) =
            check_bounded_incremental_report(&mut tm, &system, 5, &options);
        assert!(verdicts_match(&reference, &incremental));
        assert_eq!(report.checks, 6);
    }

    #[test]
    fn counterexample_depth_matches_from_scratch() {
        // x' = x + 1 from x = base; x < base + 3 fails exactly at step 3.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let base = tm.int_var("base");
        let next = tm.mk_succ(x);
        let init = tm.mk_eq(x, base);
        let limit = tm.mk_offset(base, 3);
        let property = tm.mk_lt(x, limit);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![],
            init,
            property,
        };
        let options = DecideOptions::default();
        let reference = check_bounded(&mut tm.clone(), &system, 10, &options);
        let incremental = check_bounded_incremental(&mut tm, &system, 10, &options);
        assert!(verdicts_match(&reference, &incremental));
        assert!(matches!(
            incremental,
            BmcResult::CounterexampleAt { step: 3, .. }
        ));
    }

    #[test]
    fn uf_datapath_matches_from_scratch() {
        // State through an uninterpreted ALU; the unsound property is
        // refuted at step 1 on both paths.
        let mut tm = TermManager::new();
        let alu = tm.declare_fun("alu", 1);
        let x = tm.int_var("x");
        let seed = tm.int_var("seed");
        let next = tm.mk_app(alu, vec![x]);
        let init = tm.mk_eq(x, seed);
        let property = tm.mk_eq(x, seed);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![],
            init,
            property,
        };
        let options = DecideOptions::default();
        let reference = check_bounded(&mut tm.clone(), &system, 4, &options);
        let incremental = check_bounded_incremental(&mut tm, &system, 4, &options);
        assert!(verdicts_match(&reference, &incremental));
    }

    #[test]
    fn registers_reading_one_input_see_one_value_per_step() {
        // x' = ITE(0 < go, x+1, x), y' = ITE(0 < go, y+1, y) from x = y:
        // both registers step together, so x = y holds at every depth.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let zero = tm.int_var("zero");
        let go = tm.int_var("go");
        let grow = tm.mk_lt(zero, go);
        let x_inc = tm.mk_succ(x);
        let y_inc = tm.mk_succ(y);
        let next_x = tm.mk_ite_int(grow, x_inc, x);
        let next_y = tm.mk_ite_int(grow, y_inc, y);
        let equal = tm.mk_eq(x, y);
        let system = TransitionSystem {
            state: vec![x, y],
            next: vec![next_x, next_y],
            inputs: vec![go],
            init: equal,
            property: equal,
        };
        let options = DecideOptions::default();
        let from_scratch = check_bounded(&mut tm.clone(), &system, 4, &options);
        assert_eq!(from_scratch, BmcResult::Bounded(4));
        let incremental = check_bounded_incremental(&mut tm, &system, 4, &options);
        assert_eq!(incremental, BmcResult::Bounded(4));
    }

    #[test]
    fn inputs_are_freshened_per_step() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let floor = tm.int_var("floor");
        let inp = tm.int_var("inp");
        let grow = tm.mk_lt(floor, inp);
        let inc = tm.mk_succ(x);
        let next = tm.mk_ite_int(grow, inc, x);
        let init = tm.mk_eq(x, floor);
        let property = tm.mk_le(floor, x);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![inp],
            init,
            property,
        };
        let options = DecideOptions::default();
        let (result, report) =
            check_bounded_incremental_report(&mut tm, &system, 5, &options);
        assert!(matches!(result, BmcResult::Bounded(5)));
        assert!(report.reused_roots > 0, "init must be reused across depths");
    }
}
