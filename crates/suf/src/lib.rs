//! The logic of Separation predicates and Uninterpreted Functions (SUF).
//!
//! This crate implements the term layer of the `sufsat` reproduction of
//! *"A Hybrid SAT-Based Decision Procedure for Separation Logic with
//! Uninterpreted Functions"* (Seshia, Lahiri, Bryant — DAC 2003):
//!
//! * a hash-consed term DAG with a sort-checked builder ([`TermManager`]),
//! * an s-expression parser and printer ([`parse_problem`], [`print_term`]),
//! * polarity analysis with positive-equality classification
//!   ([`analyze_polarity`], paper §2.1.1),
//! * elimination of function and predicate applications by the
//!   Bryant–German–Velev nested-ITE method ([`eliminate`]),
//! * a reference evaluator used as semantic ground truth ([`eval`]).
//!
//! # Examples
//!
//! Deciding formulas happens in `sufsat-core`; this crate builds and
//! transforms them:
//!
//! ```
//! use sufsat_suf::{eliminate, contains_applications, TermManager};
//!
//! let mut tm = TermManager::new();
//! let f = tm.declare_fun("f", 1);
//! let x = tm.int_var("x");
//! let y = tm.int_var("y");
//! let fx = tm.mk_app(f, vec![x]);
//! let fy = tm.mk_app(f, vec![y]);
//! // Functional consistency: x = y => f(x) = f(y).
//! let hyp = tm.mk_eq(x, y);
//! let conc = tm.mk_eq(fx, fy);
//! let phi = tm.mk_implies(hyp, conc);
//! let elim = eliminate(&mut tm, phi);
//! assert!(!contains_applications(&tm, elim.formula));
//! ```

#![warn(missing_docs)]

mod elim;
mod eval;
mod incremental_elim;
mod memory;
mod parse;
mod polarity;
mod print;
mod subst;
mod term;

pub use elim::{contains_applications, eliminate, ElimResult};
pub use incremental_elim::IncrementalElim;
pub use eval::{eval, Interpretation, MapInterpretation, Value};
pub use memory::Memory;
pub use parse::{parse_formula, parse_problem, ParseSufError};
pub use polarity::{analyze_polarity, PolarityInfo, NEG, POS};
pub use print::{print_problem, print_term};
pub use subst::substitute;
pub use term::{BoolSym, FunSym, PredSym, Sort, Term, TermId, TermManager, VarSym};

#[cfg(test)]
mod prop_tests {
    use super::*;
    use sufsat_prng::Prng;

    /// A small random SUF formula builder driven by a recipe of opcodes.
    fn build_random(tm: &mut TermManager, recipe: &[u8], n_vars: usize, with_funs: bool) -> TermId {
        let vars: Vec<TermId> = (0..n_vars).map(|i| tm.int_var(&format!("x{i}"))).collect();
        let f = if with_funs {
            Some(tm.declare_fun("f", 1))
        } else {
            None
        };
        let mut ints: Vec<TermId> = vars.clone();
        let mut bools: Vec<TermId> = vec![tm.mk_true()];
        for (i, &op) in recipe.iter().enumerate() {
            let pick_int = |k: usize, ints: &[TermId]| ints[k % ints.len()];
            let pick_bool = |k: usize, bools: &[TermId]| bools[k % bools.len()];
            match op % 8 {
                0 => {
                    let a = pick_int(i, &ints);
                    let b = pick_int(i / 2 + 1, &ints);
                    let t = tm.mk_eq(a, b);
                    bools.push(t);
                }
                1 => {
                    let a = pick_int(i, &ints);
                    let b = pick_int(i / 3 + 2, &ints);
                    let t = tm.mk_lt(a, b);
                    bools.push(t);
                }
                2 => {
                    let a = pick_bool(i, &bools);
                    let t = tm.mk_not(a);
                    bools.push(t);
                }
                3 => {
                    let a = pick_bool(i, &bools);
                    let b = pick_bool(i + 1, &bools);
                    let t = tm.mk_and(a, b);
                    bools.push(t);
                }
                4 => {
                    let a = pick_bool(i, &bools);
                    let b = pick_bool(i + 1, &bools);
                    let t = tm.mk_or(a, b);
                    bools.push(t);
                }
                5 => {
                    let a = pick_int(i, &ints);
                    let t = tm.mk_succ(a);
                    ints.push(t);
                }
                6 => {
                    let c = pick_bool(i, &bools);
                    let a = pick_int(i, &ints);
                    let b = pick_int(i + 1, &ints);
                    let t = tm.mk_ite_int(c, a, b);
                    ints.push(t);
                }
                _ => {
                    if let Some(f) = f {
                        let a = pick_int(i, &ints);
                        let t = tm.mk_app(f, vec![a]);
                        ints.push(t);
                    }
                }
            }
        }
        *bools.last().expect("at least true")
    }

    fn random_recipe(rng: &mut Prng, max_len: usize) -> Vec<u8> {
        let len = rng.random_range(1..max_len);
        rng.bytes(len)
    }

    #[test]
    fn print_parse_round_trip() {
        let mut rng = Prng::seed_from_u64(0x050f_0001);
        for _case in 0..64 {
            let recipe = random_recipe(&mut rng, 40);
            let mut tm = TermManager::new();
            let phi = build_random(&mut tm, &recipe, 4, true);
            let text = print_term(&tm, phi);
            let reparsed = parse_formula(&mut tm, &text).expect("printer output parses");
            assert_eq!(phi, reparsed, "recipe: {recipe:?}");
        }
    }

    #[test]
    fn elimination_removes_all_applications() {
        let mut rng = Prng::seed_from_u64(0x050f_0002);
        for _case in 0..64 {
            let recipe = random_recipe(&mut rng, 60);
            let mut tm = TermManager::new();
            let phi = build_random(&mut tm, &recipe, 3, true);
            let elim = eliminate(&mut tm, phi);
            assert!(
                !contains_applications(&tm, elim.formula),
                "recipe: {recipe:?}"
            );
        }
    }

    #[test]
    fn elimination_is_identity_without_applications() {
        let mut rng = Prng::seed_from_u64(0x050f_0003);
        for _case in 0..64 {
            let recipe = random_recipe(&mut rng, 60);
            let mut tm = TermManager::new();
            let phi = build_random(&mut tm, &recipe, 3, false);
            let elim = eliminate(&mut tm, phi);
            assert_eq!(elim.formula, phi, "recipe: {recipe:?}");
        }
    }

    #[test]
    fn eval_is_deterministic() {
        let mut rng = Prng::seed_from_u64(0x050f_0004);
        for _case in 0..64 {
            let recipe = random_recipe(&mut rng, 40);
            let seed = rng.next_u64();
            let mut tm = TermManager::new();
            let phi = build_random(&mut tm, &recipe, 3, true);
            let interp = MapInterpretation::with_seed(seed);
            let v1 = eval(&tm, phi, &interp);
            let v2 = eval(&tm, phi, &interp);
            assert_eq!(v1, v2, "recipe: {recipe:?}, seed: {seed}");
        }
    }

    #[test]
    fn soundness_spot_check_on_functional_consistency() {
        let mut rng = Prng::seed_from_u64(0x050f_0005);
        for _case in 0..64 {
            let seed = rng.next_u64();
            // ITE-chain elimination of a valid formula stays valid under
            // every interpretation of the remaining symbols.
            let mut tm = TermManager::new();
            let f = tm.declare_fun("f", 2);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let z = tm.int_var("z");
            let fxy = tm.mk_app(f, vec![x, y]);
            let fxz = tm.mk_app(f, vec![x, z]);
            let hyp = tm.mk_eq(y, z);
            let conc = tm.mk_eq(fxy, fxz);
            let phi = tm.mk_implies(hyp, conc);
            let elim = eliminate(&mut tm, phi);
            // After elimination the formula contains only the ITE chain; it
            // must evaluate true under all interpretations (it is valid).
            let interp = MapInterpretation::with_seed(seed);
            assert_eq!(
                eval(&tm, elim.formula, &interp),
                Value::Bool(true),
                "seed: {seed}"
            );
        }
    }
}
