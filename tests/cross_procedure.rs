//! Cross-procedure agreement: every decision procedure in the workspace —
//! the four eager modes, the lazy CVC-style baseline and the SVC-style
//! case splitter — must agree on validity, and all counterexamples must
//! actually falsify the formula.

use std::collections::HashSet;
use std::time::Duration;
use sufsat_prng::Prng;
use sufsat::baselines::{decide_lazy, decide_svc, LazyOptions, SvcOptions};
use sufsat::seplog::{brute_force_validity, OracleResult, SepAnalysis};
use sufsat::workloads::Benchmark;
use sufsat::{decide, Certificate, DecideOptions, EncodingMode, Outcome, TermId, TermManager};

fn eager_modes() -> Vec<EncodingMode> {
    vec![
        EncodingMode::Sd,
        EncodingMode::Eij,
        EncodingMode::Hybrid(0),
        EncodingMode::Hybrid(3),
        EncodingMode::Hybrid(700),
        EncodingMode::FixedHybrid,
    ]
}

/// Decides with every procedure and asserts agreement; returns the verdict.
fn decide_all_ways(tm: &mut TermManager, phi: TermId) -> bool {
    let mut verdicts: Vec<(String, bool)> = Vec::new();
    for mode in eager_modes() {
        let d = decide(tm, phi, &DecideOptions::with_mode(mode));
        match d.outcome {
            Outcome::Valid => verdicts.push((format!("{mode:?}"), true)),
            Outcome::Invalid(_) => verdicts.push((format!("{mode:?}"), false)),
            Outcome::Unknown(r) => panic!("{mode:?} gave up: {r:?}"),
        }
    }
    let (lazy, _) = decide_lazy(tm, phi, &LazyOptions::default());
    verdicts.push(("lazy".into(), lazy.is_valid()));
    let (svc, _) = decide_svc(tm, phi, &SvcOptions::default());
    verdicts.push(("svc".into(), svc.is_valid()));

    let first = verdicts[0].1;
    for (name, v) in &verdicts {
        assert_eq!(*v, first, "{name} disagrees: {verdicts:?}");
    }
    first
}

#[test]
fn agreement_on_paper_background_example() {
    // The paper's running example: x >= y ∧ y >= z ∧ z >= succ(x) is
    // unsatisfiable, so its negation is valid.
    let mut tm = TermManager::new();
    let phi = sufsat::parse_problem(
        &mut tm,
        "(vars x y z)
         (formula (not (and (>= x y) (>= y z) (>= z (succ x)))))",
    )
    .expect("parses");
    assert!(decide_all_ways(&mut tm, phi));
}

#[test]
fn agreement_on_uf_formulas() {
    let cases = [
        // Valid: congruence through two levels.
        (
            "(vars x y) (funs (f 1) (g 1))
             (formula (=> (= x y) (= (g (f x)) (g (f y)))))",
            true,
        ),
        // Invalid: injectivity may not be assumed.
        (
            "(vars x y) (funs (f 1))
             (formula (=> (= (f x) (f y)) (= x y)))",
            false,
        ),
        // Valid: ITE distributes over function application semantics.
        (
            "(vars x y) (bvars c) (funs (f 1))
             (formula (= (f (ite c x y)) (ite c (f x) (f y))))",
            true,
        ),
        // Valid: predicate congruence.
        (
            "(vars x y) (preds (p 1))
             (formula (=> (= x y) (iff (p x) (p y))))",
            true,
        ),
        // Invalid: predicates are not constant.
        (
            "(vars x y) (preds (p 1)) (formula (iff (p x) (p y)))",
            false,
        ),
        // Valid: arithmetic over orderings.
        (
            "(vars a b c)
             (formula (=> (and (< a b) (< b c)) (< (succ a) (succ c))))",
            true,
        ),
        // Invalid: off-by-one.
        ("(vars a b) (formula (=> (< a (succ b)) (< a b)))", false),
    ];
    for (text, expected) in cases {
        let mut tm = TermManager::new();
        let phi = sufsat::parse_problem(&mut tm, text).expect("parses");
        assert_eq!(decide_all_ways(&mut tm, phi), expected, "{text}");
    }
}

#[test]
fn counterexamples_falsify_after_elimination() {
    let mut tm = TermManager::new();
    let phi = sufsat::parse_problem(&mut tm, "(vars x y) (funs (f 1)) (formula (< (f x) (f y)))")
        .expect("parses");
    for mode in eager_modes() {
        let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
        let Outcome::Invalid(cex) = d.outcome else {
            panic!("{mode:?} must find the formula invalid");
        };
        // The counterexample speaks about the eliminated formula.
        let elim = sufsat::suf::eliminate(&mut tm, phi);
        assert!(!cex.evaluate(&tm, elim.formula), "{mode:?}");
    }
}

/// Random separation formulas (no UFs) against the exhaustive oracle.
fn build_random_sep(tm: &mut TermManager, recipe: &[(u8, u8, u8)], n_vars: usize) -> TermId {
    let vars: Vec<TermId> = (0..n_vars).map(|i| tm.int_var(&format!("x{i}"))).collect();
    let mut ints: Vec<TermId> = vars;
    let mut bools: Vec<TermId> = Vec::new();
    for &(op, i, j) in recipe {
        let (i, j) = (i as usize, j as usize);
        match op % 7 {
            0 => {
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_eq(a, b);
                bools.push(t);
            }
            1 => {
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_lt(a, b);
                bools.push(t);
            }
            2 if !bools.is_empty() => {
                let a = bools[i % bools.len()];
                let t = tm.mk_not(a);
                bools.push(t);
            }
            3 if bools.len() >= 2 => {
                let (a, b) = (bools[i % bools.len()], bools[j % bools.len()]);
                let t = tm.mk_and(a, b);
                bools.push(t);
            }
            4 if bools.len() >= 2 => {
                let (a, b) = (bools[i % bools.len()], bools[j % bools.len()]);
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
            _ if !bools.is_empty() => {
                let c = bools[i % bools.len()];
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_ite_int(c, a, b);
                ints.push(t);
            }
            _ => {}
        }
    }
    bools.last().copied().unwrap_or_else(|| tm.mk_true())
}

/// Random SUF formulas *with* uninterpreted functions: no exhaustive oracle
/// exists, but the seven procedures take very different paths (eager
/// SD bit vectors, eager EIJ transitivity, lazy refinement, case
/// splitting), so mutual agreement is a strong end-to-end check.
fn build_random_suf(tm: &mut TermManager, recipe: &[(u8, u8, u8)], n_vars: usize) -> TermId {
    let f = tm.declare_fun("f", 1);
    let g = tm.declare_fun("g", 2);
    let vars: Vec<TermId> = (0..n_vars).map(|i| tm.int_var(&format!("x{i}"))).collect();
    let mut ints: Vec<TermId> = vars;
    let mut bools: Vec<TermId> = Vec::new();
    for &(op, i, j) in recipe {
        let (i, j) = (i as usize, j as usize);
        match op % 9 {
            0 => {
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_eq(a, b);
                bools.push(t);
            }
            1 => {
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_lt(a, b);
                bools.push(t);
            }
            2 if !bools.is_empty() => {
                let a = bools[i % bools.len()];
                let t = tm.mk_not(a);
                bools.push(t);
            }
            3 if bools.len() >= 2 => {
                let (a, b) = (bools[i % bools.len()], bools[j % bools.len()]);
                let t = tm.mk_and(a, b);
                bools.push(t);
            }
            4 if bools.len() >= 2 => {
                let (a, b) = (bools[i % bools.len()], bools[j % bools.len()]);
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
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_ite_int(c, a, b);
                ints.push(t);
            }
            7 => {
                let a = ints[i % ints.len()];
                let t = tm.mk_app(f, vec![a]);
                ints.push(t);
            }
            _ => {
                let (a, b) = (ints[i % ints.len()], ints[j % ints.len()]);
                let t = tm.mk_app(g, vec![a, b]);
                ints.push(t);
            }
        }
    }
    bools.last().copied().unwrap_or_else(|| tm.mk_true())
}

fn random_recipe(rng: &mut Prng, max_len: usize) -> Vec<(u8, u8, u8)> {
    let len = rng.random_range(2..max_len);
    (0..len)
        .map(|_| (rng.random_u8(), rng.random_u8(), rng.random_u8()))
        .collect()
}

/// Whether `SUFSAT_CERTIFY_FULL=1` asks for the whole suite.
fn certify_full() -> bool {
    std::env::var("SUFSAT_CERTIFY_FULL").as_deref() == Ok("1")
}

/// The benchmarks certification runs on: the eight lightest by formula
/// size, or the full 49-benchmark suite under [`certify_full`].
fn certification_suite() -> Vec<Benchmark> {
    let mut suite = sufsat::workloads::suite();
    if !certify_full() {
        suite.sort_by_key(|b| b.tm.dag_size(b.formula));
        suite.truncate(8);
    }
    suite
}

#[test]
fn benchmark_answers_carry_checked_certificates() {
    // The eight lightest are bounded by conflicts rather than time, so the
    // count they certify is the same on every host: all 48 but tv-30 under
    // SD, HYBRID(0) and HYBRID(3), which needs 12,628 conflicts where no
    // other answer needs more than 1,497. The full suite is bounded by time.
    let full = certify_full();
    let mut certified = 0usize;
    for mut bench in certification_suite() {
        for mode in eager_modes() {
            let options = DecideOptions {
                timeout: full.then_some(Duration::from_millis(1500)),
                conflict_budget: (!full).then_some(4_000),
                certify: true,
                ..DecideOptions::with_mode(mode)
            };
            let d = decide(&mut bench.tm, bench.formula, &options);
            match (&d.outcome, &d.certificate) {
                (Outcome::Unknown(_), _) => {}
                // Valid ⇒ the encoding of ¬φ is UNSAT ⇒ the logged DRAT
                // proof must replay through the RUP checker.
                (Outcome::Valid, Some(cert @ Certificate::Refutation { steps, checked })) => {
                    assert!(
                        *checked && cert.holds(),
                        "{} [{mode:?}]: refutation must check ({steps} steps)",
                        bench.name
                    );
                    certified += 1;
                }
                // Invalid ⇒ the decoded model must falsify both the
                // eliminated and the original formula under replay.
                (Outcome::Invalid(_), Some(cert @ Certificate::Counterexample { .. })) => {
                    assert!(cert.holds(), "{} [{mode:?}]: {cert:?}", bench.name);
                    certified += 1;
                }
                (outcome, certificate) => panic!(
                    "{} [{mode:?}]: definitive answer with wrong certificate: \
                     {outcome:?} / {certificate:?}",
                    bench.name
                ),
            }
        }
    }
    assert!(
        certified >= 45,
        "only {certified} benchmark answers were certified"
    );
}

#[test]
fn all_procedures_agree_with_exhaustive_oracle() {
    let mut rng = Prng::seed_from_u64(0xc405_0001);
    for _case in 0..24 {
        let recipe = random_recipe(&mut rng, 14);
        let mut tm = TermManager::new();
        let phi = build_random_sep(&mut tm, &recipe, 3);
        let analysis = SepAnalysis::new(&tm, phi, &HashSet::new());
        let expected = match brute_force_validity(&tm, phi, &analysis, 1, 200_000) {
            OracleResult::Valid => true,
            OracleResult::Invalid(_) => false,
            OracleResult::TooLarge => continue,
        };
        assert_eq!(
            decide_all_ways(&mut tm, phi),
            expected,
            "recipe: {recipe:?}"
        );
    }
}

#[test]
fn all_procedures_agree_on_uf_formulas() {
    let mut rng = Prng::seed_from_u64(0xc405_0002);
    for _case in 0..24 {
        let recipe = random_recipe(&mut rng, 12);
        let mut tm = TermManager::new();
        let phi = build_random_suf(&mut tm, &recipe, 3);
        // Agreement is the property; the return value is incidental.
        let _ = decide_all_ways(&mut tm, phi);
    }
}
