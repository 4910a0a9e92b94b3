//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! This crate is the Boolean-satisfiability substrate of the `sufsat`
//! reproduction of *"A Hybrid SAT-Based Decision Procedure for Separation
//! Logic with Uninterpreted Functions"* (Seshia, Lahiri, Bryant — DAC 2003).
//! The paper's experiments used the zChaff solver; this crate provides a
//! from-scratch solver in the same lineage: two-watched-literal propagation,
//! VSIDS decisions with phase saving, first-UIP conflict learning with clause
//! minimization, Luby restarts, and learnt-database reduction.
//!
//! The statistics it exposes ([`Stats`]) mirror the columns of the paper's
//! Figure 2: number of CNF clauses, number of conflict clauses, and SAT time.
//!
//! # Examples
//!
//! ```
//! use sufsat_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! // (x | y) & (!x | y) & (!y | !x)
//! solver.add_clause([x.positive(), y.positive()]);
//! solver.add_clause([x.negative(), y.positive()]);
//! solver.add_clause([y.negative(), x.negative()]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(y), Some(true));
//! assert_eq!(solver.model_value(x), Some(false));
//! ```

#![warn(missing_docs)]

mod assume;
mod cancel;
mod clause;
mod heap;
mod lit;
mod preprocess;
mod progress;
mod solver;
mod stats;

pub mod proof;

pub mod dimacs;

pub use assume::{minimize_assumptions, MinimizeStats};
pub use cancel::CancelToken;
pub use lit::{LBool, Lit, Var};
pub use progress::{ProgressHandle, ProgressSnapshot};
pub use proof::{check_refutation, Proof, ProofStep};
pub use solver::{Config, Interrupt, SolveResult, Solver};
pub use stats::Stats;

#[cfg(test)]
mod prop_tests {
    use super::*;
    use sufsat_prng::Prng;

    /// Brute-force satisfiability over up to 16 variables.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        assert!(num_vars <= 16);
        'outer: for m in 0u32..(1 << num_vars) {
            for c in clauses {
                if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn random_clause(rng: &mut Prng, num_vars: usize) -> Vec<(usize, bool)> {
        let len = rng.random_range(1usize..5);
        (0..len)
            .map(|_| (rng.random_range(0..num_vars), rng.random_bool(0.5)))
            .collect()
    }

    fn random_clauses(
        rng: &mut Prng,
        num_vars: usize,
        max_clauses: usize,
    ) -> Vec<Vec<(usize, bool)>> {
        let n = rng.random_range(0..max_clauses);
        (0..n).map(|_| random_clause(rng, num_vars)).collect()
    }

    #[test]
    fn solver_agrees_with_brute_force() {
        let mut rng = Prng::seed_from_u64(0x5a7_0001);
        for _case in 0..128 {
            let num_vars = rng.random_range(1usize..9);
            let clauses = random_clauses(&mut rng, num_vars, 24);
            let expected = brute_force_sat(num_vars, &clauses);
            let mut solver = Solver::new();
            solver.reserve_vars(num_vars);
            for c in &clauses {
                solver.add_clause(c.iter().map(|&(v, p)| Lit::new(Var::from_index(v), p)));
            }
            let result = solver.solve();
            assert_eq!(result == SolveResult::Sat, expected, "clauses: {clauses:?}");
            if result == SolveResult::Sat {
                // The model must satisfy every clause.
                for c in &clauses {
                    let satisfied = c
                        .iter()
                        .any(|&(v, p)| solver.model_value(Var::from_index(v)) == Some(p));
                    assert!(satisfied, "model violates clause {c:?}");
                }
            }
        }
    }

    /// Solving under assumptions matches solving with the assumptions
    /// added as unit clauses.
    #[test]
    fn assumptions_match_unit_clauses() {
        let mut rng = Prng::seed_from_u64(0x5a7_0002);
        for _case in 0..128 {
            let num_vars = rng.random_range(1usize..7);
            let clauses = random_clauses(&mut rng, num_vars, 16);
            let n_assumptions = rng.random_range(0usize..4);
            let mut assumptions: Vec<(usize, bool)> = (0..n_assumptions)
                .map(|_| (rng.random_range(0..num_vars), rng.random_bool(0.5)))
                .collect();
            // Contradictory assumption pairs are legal; keep them.
            assumptions.dedup();
            let as_lit = |&(v, p): &(usize, bool)| Lit::new(Var::from_index(v), p);

            let mut s1 = Solver::new();
            s1.reserve_vars(num_vars);
            for c in &clauses {
                s1.add_clause(c.iter().map(as_lit));
            }
            let lits: Vec<Lit> = assumptions.iter().map(as_lit).collect();
            let under_assumptions = s1.solve_with_assumptions(&lits);

            let mut s2 = Solver::new();
            s2.reserve_vars(num_vars);
            for c in &clauses {
                s2.add_clause(c.iter().map(as_lit));
            }
            let mut consistent = true;
            for l in &lits {
                consistent &= s2.add_clause([*l]);
            }
            let with_units = if consistent {
                s2.solve()
            } else {
                SolveResult::Unsat
            };
            assert_eq!(
                under_assumptions == SolveResult::Sat,
                with_units == SolveResult::Sat,
                "clauses: {clauses:?}, assumptions: {assumptions:?}"
            );
        }
    }

    /// Every UNSAT answer carries a DRAT proof that the built-in
    /// forward RUP checker accepts.
    #[test]
    fn unsat_proofs_check() {
        let mut rng = Prng::seed_from_u64(0x5a7_0003);
        for _case in 0..128 {
            let num_vars = rng.random_range(1usize..7);
            let n = rng.random_range(1usize..22);
            let clauses: Vec<Vec<(usize, bool)>> =
                (0..n).map(|_| random_clause(&mut rng, num_vars)).collect();
            let mut solver = Solver::new();
            solver.enable_proof();
            solver.reserve_vars(num_vars);
            let as_lits = |c: &Vec<(usize, bool)>| -> Vec<Lit> {
                c.iter()
                    .map(|&(v, p)| Lit::new(Var::from_index(v), p))
                    .collect()
            };
            for c in &clauses {
                solver.add_clause(as_lits(c));
            }
            if solver.solve() == SolveResult::Unsat {
                let proof = solver.proof().expect("logging enabled");
                assert!(proof.is_refutation());
                let original: Vec<Vec<Lit>> = clauses.iter().map(as_lits).collect();
                assert!(
                    check_refutation(&original, proof),
                    "DRAT proof failed forward checking on {clauses:?}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_monolithic() {
        let mut rng = Prng::seed_from_u64(0x5a7_0004);
        for _case in 0..128 {
            let num_vars = rng.random_range(1usize..7);
            let batch1 = random_clauses(&mut rng, num_vars, 10);
            let batch2 = random_clauses(&mut rng, num_vars, 10);
            let all: Vec<_> = batch1.iter().chain(batch2.iter()).cloned().collect();
            let expected = brute_force_sat(num_vars, &all);

            let mut solver = Solver::new();
            solver.reserve_vars(num_vars);
            for c in &batch1 {
                solver.add_clause(c.iter().map(|&(v, p)| Lit::new(Var::from_index(v), p)));
            }
            let _ = solver.solve();
            for c in &batch2 {
                solver.add_clause(c.iter().map(|&(v, p)| Lit::new(Var::from_index(v), p)));
            }
            assert_eq!(
                solver.solve() == SolveResult::Sat,
                expected,
                "batches: {batch1:?} + {batch2:?}"
            );
        }
    }
}
