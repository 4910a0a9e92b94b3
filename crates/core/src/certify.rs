//! Two-sided answer certification.
//!
//! A decision procedure for validity answers in two directions, and the
//! two are certified to different depths:
//!
//! * **Invalid** comes with a decoded counterexample. The certifier
//!   replays it through the reference evaluator [`sufsat_suf::eval`] —
//!   against the post-elimination separation formula *and* against the
//!   original SUF formula, with function/predicate tables reconstructed
//!   from the elimination's instance lists. This trusts neither the
//!   encoder nor the SAT solver.
//! * **Valid** means the SAT solver refuted `¬F_bool`. With proof logging
//!   enabled the recorded DRAT proof is replayed through the built-in
//!   watched-literal forward RUP checker ([`sufsat_sat::check_refutation`],
//!   the forward pass of DRAT-trim) against the solver's own recorded input
//!   clauses. The replay costs the same order of time as the search, so
//!   every Valid answer can be certified. It checks the CDCL search only.
//!   Every layer that produced those clauses stays trusted: function
//!   elimination, the SD small-model ranges, EIJ transitivity generation
//!   and the CNF conversion. An over-constraining bug in any of them
//!   yields a wrong Valid answer with a refutation that checks.
//!
//! Certification is requested with [`DecideOptions::certify`]
//! (`crate::DecideOptions::certify`); the verdict-plus-evidence lands in
//! [`Decision::certificate`] (`crate::Decision::certificate`). The
//! differential fuzzing harness (`sufsat-fuzz`) turns a non-holding
//! certificate into a shrunk reproducer.

use std::collections::HashMap;

use sufsat_seplog::SepAssignment;
use sufsat_suf::{
    eval, ElimResult, FunSym, MapInterpretation, PredSym, TermId, TermManager, Value,
};

/// Machine-checked evidence for one [`decide`](crate::decide) answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// Evidence for an `Invalid` answer: the decoded assignment was
    /// replayed through the reference evaluator.
    Counterexample {
        /// Whether the SAT model decoded into an integer assignment at all
        /// (an inconsistent EIJ class makes this `false`).
        decoded: bool,
        /// Whether the assignment falsifies the post-elimination
        /// separation formula.
        falsifies_separation: bool,
        /// Whether the assignment, extended to function/predicate tables
        /// via the elimination's instance lists, falsifies the original
        /// SUF formula.
        falsifies_original: bool,
    },
    /// Evidence for a `Valid` answer: the DRAT proof of `¬F_bool`'s
    /// unsatisfiability was replayed through the forward RUP checker.
    Refutation {
        /// Number of recorded proof steps.
        steps: usize,
        /// Whether the replay succeeded.
        checked: bool,
    },
}

impl Certificate {
    /// Whether the certificate actually certifies the answer.
    pub fn holds(&self) -> bool {
        match self {
            Certificate::Counterexample {
                decoded,
                falsifies_separation,
                falsifies_original,
            } => *decoded && *falsifies_separation && *falsifies_original,
            Certificate::Refutation { checked, .. } => *checked,
        }
    }
}

/// Extends a decoded counterexample to a total interpretation of the
/// *original* formula's symbols.
///
/// The assignment speaks about the separation formula: symbolic constants
/// plus the fresh `vf!…`/`vp!…` instance constants. Function and predicate
/// applications of the original formula are interpreted by tables built
/// from the elimination's instance lists — instance arguments are
/// evaluated under the assignment and mapped to the instance constant's
/// value, first instance wins, exactly mirroring the nested-ITE chains.
/// Under the returned interpretation the original formula evaluates to the
/// same truth value as the separation formula under the plain assignment.
pub fn counterexample_interpretation(
    tm: &TermManager,
    elim: &ElimResult,
    cex: &SepAssignment,
) -> MapInterpretation {
    interpretation_from_instances(tm, &elim.fun_instances, &elim.pred_instances, cex)
}

/// [`counterexample_interpretation`] over bare instance tables — the form
/// incremental sessions use, where the tables live in a persistent
/// [`sufsat_suf::IncrementalElim`] rather than a one-shot
/// [`ElimResult`].
pub fn interpretation_from_instances(
    tm: &TermManager,
    fun_instances: &HashMap<FunSym, Vec<(Vec<TermId>, TermId)>>,
    pred_instances: &HashMap<PredSym, Vec<(Vec<TermId>, TermId)>>,
    cex: &SepAssignment,
) -> MapInterpretation {
    // The same base the assignment's own `evaluate` uses: seed 0 and
    // fallback range 1, so symbols outside the assignment default to
    // 0/deterministic values consistently on both sides of the comparison.
    let mut interp = MapInterpretation::with_seed(0);
    interp.fallback_range = 1;
    for (&v, &val) in &cex.ints {
        interp.set_int(v, val);
    }
    for (&b, &val) in &cex.bools {
        interp.set_bool(b, val);
    }

    // Argument terms are application-free, so the base interpretation
    // evaluates them directly.
    let arg_value = |interp: &MapInterpretation, t: TermId| eval(tm, t, interp).as_int();

    for (&f, instances) in fun_instances {
        for (args, fresh) in instances {
            let vals: Vec<i64> = args.iter().map(|&a| arg_value(&interp, a)).collect();
            let out = eval(tm, *fresh, &interp).as_int();
            interp.fun_tables.entry((f, vals)).or_insert(out);
        }
    }
    for (&p, instances) in pred_instances {
        for (args, fresh) in instances {
            let vals: Vec<i64> = args.iter().map(|&a| arg_value(&interp, a)).collect();
            let out = eval(tm, *fresh, &interp).as_bool();
            interp.pred_tables.entry((p, vals)).or_insert(out);
        }
    }
    interp
}

/// Whether the decoded counterexample falsifies the original SUF formula
/// under the interpretation induced by the elimination instance lists.
pub fn counterexample_falsifies_original(
    tm: &TermManager,
    phi: TermId,
    elim: &ElimResult,
    cex: &SepAssignment,
) -> bool {
    let span = sufsat_obs::span_with!(
        "certify.replay_original",
        ints = cex.ints.len(),
        bools = cex.bools.len()
    );
    let interp = counterexample_interpretation(tm, elim, cex);
    let falsified = eval(tm, phi, &interp) == Value::Bool(false);
    if span.is_recording() {
        sufsat_obs::event!("certify.replay_original.result", falsified = falsified);
    }
    falsified
}

/// Whether model-replay certification was requested through the
/// environment (`SUFSAT_CERTIFY=1`).
pub(crate) fn certify_env() -> bool {
    std::env::var("SUFSAT_CERTIFY").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::eliminate;

    #[test]
    fn reconstructed_tables_agree_with_ite_chains() {
        // f(x) < f(y) is invalid; any falsifying assignment of the
        // eliminated formula must also falsify the original through the
        // reconstructed function table.
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let phi = tm.mk_lt(fx, fy);
        let elim = eliminate(&mut tm, phi);
        assert_eq!(elim.fun_instances[&f].len(), 2);

        // Build an explicit falsifying assignment: x = y forces, via the
        // ITE chain, f(x) = f(y), so f(x) < f(y) is false.
        let mut cex = SepAssignment::default();
        let xs = tm.find_int_var("x").unwrap();
        let ys = tm.find_int_var("y").unwrap();
        cex.ints.insert(xs, 3);
        cex.ints.insert(ys, 3);
        assert!(!cex.evaluate(&tm, elim.formula));
        assert!(counterexample_falsifies_original(&tm, phi, &elim, &cex));
    }

    #[test]
    fn nested_applications_resolve_through_tables() {
        // g(f(x)) = g(f(y)) with x = y: valid, so under ANY assignment the
        // original evaluates exactly like the eliminated formula (true).
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", 1);
        let g = tm.declare_fun("g", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let gfx = tm.mk_app(g, vec![fx]);
        let gfy = tm.mk_app(g, vec![fy]);
        let hyp = tm.mk_eq(x, y);
        let conc = tm.mk_eq(gfx, gfy);
        let phi = tm.mk_implies(hyp, conc);
        let elim = eliminate(&mut tm, phi);
        for (xv, yv) in [(0, 0), (1, 2), (5, 5), (-3, 4)] {
            let mut cex = SepAssignment::default();
            cex.ints.insert(tm.find_int_var("x").unwrap(), xv);
            cex.ints.insert(tm.find_int_var("y").unwrap(), yv);
            let interp = counterexample_interpretation(&tm, &elim, &cex);
            let orig = eval(&tm, phi, &interp).as_bool();
            let sep = cex.evaluate(&tm, elim.formula);
            assert_eq!(orig, sep, "x={xv} y={yv}");
        }
    }
}
