//! Eager Boolean encodings of separation logic: small-domain (SD),
//! per-constraint (EIJ) and the paper's class-wise HYBRID.
//!
//! This crate lowers application-free separation formulas into a shared
//! Boolean [`Circuit`], chooses per equivalence class between the
//! bit-vector small-domain encoding and the predicate-variable
//! per-constraint encoding (with full transitivity-constraint generation),
//! converts the result to CNF (Tseitin or Plaisted–Greenbaum), and decodes
//! SAT models back into integer counterexamples.
//!
//! The decision procedure that drives it lives in `sufsat-core`.
//!
//! # Examples
//!
//! ```
//! use std::collections::HashSet;
//! use sufsat_encode::{encode, EncodeOptions, EncodingMode};
//! use sufsat_seplog::SepAnalysis;
//! use sufsat_suf::TermManager;
//!
//! let mut tm = TermManager::new();
//! let x = tm.int_var("x");
//! let y = tm.int_var("y");
//! let phi = tm.mk_lt(x, y);
//! let analysis = SepAnalysis::new(&tm, phi, &HashSet::new());
//! let opts = EncodeOptions { mode: EncodingMode::Eij, ..EncodeOptions::default() };
//! let encoded = encode(&tm, phi, &analysis, &opts)?;
//! assert_eq!(encoded.stats.pred_vars, 1, "one predicate variable for x < y");
//! # Ok::<(), sufsat_encode::TransBudgetExceeded>(())
//! ```

#![warn(missing_docs)]

mod circuit;
mod cnf;
mod decode;
mod encoder;
mod hash;
mod incremental;
mod lower;
mod trans;

pub use circuit::{Circuit, GateNode, Signal};
pub use cnf::{load_into_solver, CnfMode, IncrementalLoader, SignalMap};
pub use decode::{decode_model, try_decode_model, try_decode_model_parts, DecodeFailure};
pub use incremental::{
    Delta, DeltaStats, IncrementalEncoder, ReencodeReason, VAR_BITS_HEADROOM,
};
pub use encoder::{
    encode, ClassMethod, DecodeInfo, EncodeOptions, EncodeStats, Encoded, EncodingMode,
};
pub use trans::{
    generate_equality_transitivity, generate_equality_transitivity_ordered, generate_transitivity,
    generate_transitivity_ordered, BoundTable, ElimOrder, EqTable, TransBudgetExceeded,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use sufsat_sat::{SolveResult, Solver};
    use sufsat_seplog::{brute_force_validity, OracleResult, SepAnalysis};
    use sufsat_suf::{TermId, TermManager, VarSym};

    /// Full eager pipeline for tests: encode, load, solve ¬formula.
    fn decide(
        tm: &TermManager,
        phi: TermId,
        p_vars: &HashSet<VarSym>,
        mode: EncodingMode,
        cnf: CnfMode,
    ) -> (bool, Option<sufsat_seplog::SepAssignment>) {
        let analysis = SepAnalysis::new(tm, phi, p_vars);
        let opts = EncodeOptions {
            mode,
            cnf,
            ..EncodeOptions::default()
        };
        let encoded = encode(tm, phi, &analysis, &opts).expect("within budget");
        let mut solver = Solver::new();
        let map = load_into_solver(
            &encoded.circuit,
            &[!encoded.formula],
            &encoded.trans_clauses,
            cnf,
            &mut solver,
        );
        match solver.solve() {
            SolveResult::Unsat => (true, None),
            SolveResult::Sat => {
                let cex = decode_model(&encoded, &map, &solver);
                (false, Some(cex))
            }
            SolveResult::Unknown(_) => panic!("no budget was set"),
        }
    }

    fn all_modes() -> Vec<EncodingMode> {
        vec![
            EncodingMode::Sd,
            EncodingMode::Eij,
            EncodingMode::Hybrid(0),
            EncodingMode::Hybrid(1),
            EncodingMode::Hybrid(700),
            EncodingMode::FixedHybrid,
        ]
    }

    #[test]
    fn paper_example_is_valid_under_all_modes() {
        // ¬(x >= y ∧ y >= z ∧ z >= succ(x)) is valid.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let c1 = tm.mk_ge(x, y);
        let c2 = tm.mk_ge(y, z);
        let sx = tm.mk_succ(x);
        let c3 = tm.mk_ge(z, sx);
        let conj = tm.mk_and_many(&[c1, c2, c3]);
        let phi = tm.mk_not(conj);
        for mode in all_modes() {
            for cnf in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
                let (valid, _) = decide(&tm, phi, &HashSet::new(), mode, cnf);
                assert!(valid, "{mode:?} {cnf:?}");
            }
        }
    }

    #[test]
    fn invalid_formulas_yield_true_counterexamples() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let xy = tm.mk_lt(x, y);
        let yz = tm.mk_le(y, z);
        let phi = tm.mk_implies(xy, yz); // not valid
        for mode in all_modes() {
            let (valid, cex) = decide(&tm, phi, &HashSet::new(), mode, CnfMode::Tseitin);
            assert!(!valid, "{mode:?}");
            let cex = cex.expect("counterexample");
            assert!(!cex.evaluate(&tm, phi), "{mode:?}: cex must falsify");
        }
    }

    #[test]
    fn ite_formulas_agree_across_modes() {
        // max(x, y) >= x is valid.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let c = tm.mk_lt(x, y);
        let max = tm.mk_ite_int(c, y, x);
        let phi = tm.mk_ge(max, x);
        for mode in all_modes() {
            let (valid, _) = decide(&tm, phi, &HashSet::new(), mode, CnfMode::Tseitin);
            assert!(valid, "{mode:?}");
        }
    }

    #[test]
    fn p_var_diversity_is_respected() {
        // With x, y in V_p, the positive equality x = y is falsifiable
        // (diverse values), so the formula x = y is invalid.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let phi = tm.mk_eq(x, y);
        let mut p_vars = HashSet::new();
        p_vars.insert(tm.find_int_var("x").unwrap());
        p_vars.insert(tm.find_int_var("y").unwrap());
        for mode in all_modes() {
            let (valid, cex) = decide(&tm, phi, &p_vars, mode, CnfMode::Tseitin);
            assert!(!valid, "{mode:?}");
            let cex = cex.expect("counterexample");
            assert!(!cex.evaluate(&tm, phi), "{mode:?}");
        }
    }

    #[test]
    fn mixed_p_g_equalities_encode_false() {
        // p-var vs g-var positive equality is falsifiable; the implication
        // (x < y) => (x = p) must be invalid.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let p = tm.int_var("p");
        let mut p_vars = HashSet::new();
        p_vars.insert(tm.find_int_var("p").unwrap());
        let hyp = tm.mk_lt(x, y);
        let conc = tm.mk_eq(x, p);
        let phi = tm.mk_implies(hyp, conc);
        for mode in all_modes() {
            let (valid, cex) = decide(&tm, phi, &p_vars, mode, CnfMode::Tseitin);
            assert!(!valid, "{mode:?}");
            assert!(!cex.unwrap().evaluate(&tm, phi), "{mode:?}");
        }
    }

    #[test]
    fn agreement_with_oracle_on_fixed_suite() {
        // A battery of formulas with known status, every mode and cnf.
        let cases: Vec<(&str, &str)> = vec![
            ("(vars a b c)", "(=> (and (< a b) (< b c)) (< a c))"),
            ("(vars a b)", "(or (< a b) (or (= a b) (< b a)))"),
            ("(vars a b)", "(=> (< a b) (< a (succ b)))"),
            ("(vars a b)", "(=> (< a (succ b)) (< a b))"),
            (
                "(vars a b c)",
                "(=> (= a b) (= (ite (< a c) a b) (ite (< b c) b a)))",
            ),
            ("(vars a)", "(< a (succ (succ a)))"),
            ("(vars a)", "(< (succ a) a)"),
            ("(vars a b) (bvars q)", "(=> q (= (ite q a b) a))"),
            ("(vars a b c d)", "(=> (and (<= a b) (<= c d)) (<= a d))"),
        ];
        for (decls, f) in cases {
            let mut tm = TermManager::new();
            let phi = sufsat_suf::parse_problem(&mut tm, &format!("{decls} (formula {f})"))
                .expect("parses");
            let analysis = SepAnalysis::new(&tm, phi, &HashSet::new());
            let expected = match brute_force_validity(&tm, phi, &analysis, 1, 2_000_000) {
                OracleResult::Valid => true,
                OracleResult::Invalid(_) => false,
                OracleResult::TooLarge => panic!("oracle budget too small for {f}"),
            };
            for mode in all_modes() {
                for cnf in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
                    let (valid, cex) = decide(&tm, phi, &HashSet::new(), mode, cnf);
                    assert_eq!(valid, expected, "{f} under {mode:?} {cnf:?}");
                    if let Some(cex) = cex {
                        assert!(!cex.evaluate(&tm, phi), "{f} {mode:?}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use std::collections::HashSet;
    use sufsat_prng::Prng;
    use sufsat_sat::{SolveResult, Solver};
    use sufsat_seplog::{brute_force_validity, OracleResult, SepAnalysis};
    use sufsat_suf::{TermId, TermManager};

    /// Random separation formulas (same recipe scheme as sufsat-seplog).
    fn build_random_sep(tm: &mut TermManager, recipe: &[(u8, u8, u8)], n_vars: usize) -> TermId {
        let vars: Vec<TermId> = (0..n_vars).map(|i| tm.int_var(&format!("x{i}"))).collect();
        let mut ints: Vec<TermId> = vars;
        let mut bools: Vec<TermId> = Vec::new();
        for &(op, i, j) in recipe {
            let (i, j) = (i as usize, j as usize);
            match op % 8 {
                0 => {
                    let a = ints[i % ints.len()];
                    let b = ints[j % ints.len()];
                    let t = tm.mk_eq(a, b);
                    bools.push(t);
                }
                1 => {
                    let a = ints[i % ints.len()];
                    let b = ints[j % ints.len()];
                    let t = tm.mk_lt(a, b);
                    bools.push(t);
                }
                2 if !bools.is_empty() => {
                    let a = bools[i % bools.len()];
                    let t = tm.mk_not(a);
                    bools.push(t);
                }
                3 if bools.len() >= 2 => {
                    let a = bools[i % bools.len()];
                    let b = bools[j % bools.len()];
                    let t = tm.mk_and(a, b);
                    bools.push(t);
                }
                4 if bools.len() >= 2 => {
                    let a = bools[i % bools.len()];
                    let b = bools[j % bools.len()];
                    let t = tm.mk_or(a, b);
                    bools.push(t);
                }
                5 => {
                    let a = ints[i % ints.len()];
                    let t = if j % 2 == 0 {
                        tm.mk_succ(a)
                    } else {
                        tm.mk_pred(a)
                    };
                    ints.push(t);
                }
                6 if !bools.is_empty() => {
                    let c = bools[i % bools.len()];
                    let a = ints[i % ints.len()];
                    let b = ints[j % ints.len()];
                    let t = tm.mk_ite_int(c, a, b);
                    ints.push(t);
                }
                _ => {
                    let a = ints[i % ints.len()];
                    let b = ints[j % ints.len()];
                    let t = tm.mk_le(a, b);
                    bools.push(t);
                }
            }
        }
        match bools.last() {
            Some(&t) => t,
            None => tm.mk_true(),
        }
    }

    fn decide(tm: &TermManager, phi: TermId, mode: EncodingMode) -> Option<bool> {
        let analysis = SepAnalysis::new(tm, phi, &HashSet::new());
        let opts = EncodeOptions {
            mode,
            ..EncodeOptions::default()
        };
        let encoded = encode(tm, phi, &analysis, &opts).ok()?;
        let mut solver = Solver::new();
        let map = load_into_solver(
            &encoded.circuit,
            &[!encoded.formula],
            &encoded.trans_clauses,
            CnfMode::Tseitin,
            &mut solver,
        );
        match solver.solve() {
            SolveResult::Unsat => Some(true),
            SolveResult::Sat => {
                // Counterexamples must falsify.
                let cex = decode_model(&encoded, &map, &solver);
                assert!(!cex.evaluate(tm, phi), "bad counterexample under {mode:?}");
                Some(false)
            }
            SolveResult::Unknown(_) => None,
        }
    }

    fn random_recipe(rng: &mut Prng) -> Vec<(u8, u8, u8)> {
        let len = rng.random_range(2usize..18);
        (0..len)
            .map(|_| (rng.random_u8(), rng.random_u8(), rng.random_u8()))
            .collect()
    }

    /// SD, EIJ, HYBRID and FixedHybrid agree with the brute-force
    /// oracle on random separation formulas — the central correctness
    /// property of the whole encoding stack.
    #[test]
    fn all_encodings_agree_with_oracle() {
        let mut rng = Prng::seed_from_u64(0xe4c_0001);
        for _case in 0..40 {
            let recipe = random_recipe(&mut rng);
            let mut tm = TermManager::new();
            let phi = build_random_sep(&mut tm, &recipe, 3);
            let analysis = SepAnalysis::new(&tm, phi, &HashSet::new());
            let expected = match brute_force_validity(&tm, phi, &analysis, 1, 500_000) {
                OracleResult::Valid => true,
                OracleResult::Invalid(_) => false,
                OracleResult::TooLarge => continue,
            };
            for mode in [
                EncodingMode::Sd,
                EncodingMode::Eij,
                EncodingMode::Hybrid(1),
                EncodingMode::FixedHybrid,
            ] {
                let got = decide(&tm, phi, mode);
                assert_eq!(got, Some(expected), "mode {mode:?}, recipe {recipe:?}");
            }
        }
    }
}
