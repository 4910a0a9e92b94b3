//! Failure-injection tests: budgets, timeouts, malformed input, and the
//! error paths a downstream user can hit.

use std::time::Duration;

use sufsat::sat::dimacs::Cnf;
use sufsat::{decide, DecideOptions, EncodingMode, Outcome, StopReason, TermManager};

#[test]
fn sat_timeout_surfaces_as_unknown() {
    // A hard pigeonhole-flavored separation problem with a microscopic
    // timeout must report Unknown, not hang or lie.
    let mut tm = TermManager::new();
    let vars: Vec<_> = (0..9).map(|i| tm.int_var(&format!("v{i}"))).collect();
    let zero = tm.int_var("zero");
    let mut conj = Vec::new();
    // All nine variables within [zero, zero+7], pairwise distinct:
    // unsatisfiable, so the negation is valid but needs real search.
    for &v in &vars {
        conj.push(tm.mk_ge(v, zero));
        let hi = tm.mk_offset(zero, 7);
        conj.push(tm.mk_le(v, hi));
    }
    for i in 0..vars.len() {
        for j in i + 1..vars.len() {
            conj.push(tm.mk_ne(vars[i], vars[j]));
        }
    }
    let all = tm.mk_and_many(&conj);
    let phi = tm.mk_not(all);

    let mut options = DecideOptions::with_mode(EncodingMode::Sd);
    options.timeout = Some(Duration::from_millis(1));
    let d = decide(&mut tm, phi, &options);
    match d.outcome {
        Outcome::Unknown(StopReason::Timeout) | Outcome::Valid => {}
        other => panic!("unexpected outcome {other:?}"),
    }

    // Without the timeout the answer is Valid. EIJ proves it in a fifth
    // of the conflicts SD needs.
    let d = decide(&mut tm, phi, &DecideOptions::with_mode(EncodingMode::Eij));
    assert!(d.outcome.is_valid());
}

#[test]
fn conflict_budget_is_honored_and_recoverable() {
    let mut tm = TermManager::new();
    let vars: Vec<_> = (0..8).map(|i| tm.int_var(&format!("w{i}"))).collect();
    let zero = tm.int_var("zero");
    let mut conj = Vec::new();
    for &v in &vars {
        conj.push(tm.mk_ge(v, zero));
        let hi = tm.mk_offset(zero, 6);
        conj.push(tm.mk_le(v, hi));
    }
    for i in 0..vars.len() {
        for j in i + 1..vars.len() {
            conj.push(tm.mk_ne(vars[i], vars[j]));
        }
    }
    let all = tm.mk_and_many(&conj);
    let phi = tm.mk_not(all);
    let mut options = DecideOptions::with_mode(EncodingMode::Sd);
    options.conflict_budget = Some(2);
    let d = decide(&mut tm, phi, &options);
    match d.outcome {
        Outcome::Unknown(StopReason::ConflictBudget) | Outcome::Valid => {}
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn translation_budget_is_reported_with_stats() {
    let mut tm = TermManager::new();
    let vars: Vec<_> = (0..10).map(|i| tm.int_var(&format!("u{i}"))).collect();
    let mut atoms = Vec::new();
    for i in 0..vars.len() {
        for j in 0..vars.len() {
            if i != j {
                let off = tm.mk_offset(vars[j], (i % 4) as i64 - 2);
                atoms.push(tm.mk_lt(vars[i], off));
            }
        }
    }
    let phi = tm.mk_or_many(&atoms);
    let mut options = DecideOptions::with_mode(EncodingMode::Eij);
    options.trans_budget = 10;
    let d = decide(&mut tm, phi, &options);
    assert_eq!(d.outcome, Outcome::Unknown(StopReason::TranslationBudget));
    assert!(d.stats.sep_predicates > 0, "stats survive the failure");
    assert!(d.stats.classes > 0);
}

#[test]
fn dimacs_errors_are_reported_not_panicked() {
    for bad in [
        "",                 // missing problem line
        "p cnf x 1\n1 0\n", // bad count
        "p cnf 1 1\n1\n",   // unterminated clause
        "p cnf 1 1\n2 0\n", // out-of-range var
        "p cnf 1 2\n1 0\n", // clause-count mismatch
    ] {
        assert!(Cnf::parse(bad.as_bytes()).is_err(), "{bad:?}");
    }
}

#[test]
fn parser_errors_are_reported_not_panicked() {
    let mut tm = TermManager::new();
    for bad in [
        "(formula (= x y))",                    // undeclared vars
        "(vars x) (formula (= x))",             // arity
        "(vars x) (bvars x2) (formula x)",      // sort error (int in bool position)
        "(vars x) (formula (= x y)",            // unbalanced
        "(vars x) (funs (f 0)) (formula true)", // zero arity
        "(vars x)",                             // no formula
    ] {
        assert!(sufsat::parse_problem(&mut tm, bad).is_err(), "{bad:?}");
    }
}

#[test]
fn threshold_selection_handles_degenerate_samples() {
    use sufsat::{select_threshold, ThresholdSample};
    assert_eq!(select_threshold(&[]), sufsat::DEFAULT_SEP_THOLD);
    let one = [ThresholdSample {
        normalized_time: 1.0,
        sep_predicates: 5,
    }];
    assert_eq!(select_threshold(&one), sufsat::DEFAULT_SEP_THOLD);
    // Identical times still produce a threshold.
    let same: Vec<ThresholdSample> = (0..4)
        .map(|i| ThresholdSample {
            normalized_time: 2.0,
            sep_predicates: 100 * (i + 1),
        })
        .collect();
    let t = select_threshold(&same);
    assert!(t >= 100);
}
