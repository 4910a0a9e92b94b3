//! Push/pop state-machine equivalence for the incremental session.
//!
//! A session is a stateful machine over `push`/`assert`/`check`/`pop`;
//! its only specification is the stateless one: at *every* point, `check`
//! must answer exactly like a fresh `core::decide(¬(A₁ ∧ … ∧ Aₙ))` over
//! the live assertions. This test drives interleaved operation sequences
//! — scripted retraction scenarios, PRNG-driven random walks (some through
//! the in-place re-encode, some with preprocessing), the checked-in fuzz
//! corpus, and the lightest synthetic benchmark families — comparing
//! against the from-scratch reference after every step. A last test
//! checks that a check's transitivity work follows its live assertions,
//! not the session's history.

use std::collections::HashMap;

use sufsat_core::{decide, DecideOptions, EncodingMode, Outcome};
use sufsat_fuzz::{generate, GenConfig};
use sufsat_incremental::{conjuncts_of, Session};
use sufsat_prng::Prng;
use sufsat_suf::{parse_problem, substitute, TermId, TermManager};
use sufsat_workloads::{counter_system, random_suf, ring_system, translation_validation};

/// Mirror of the session's live assertion stack, for reference checks.
#[derive(Default)]
struct Reference {
    frames: Vec<usize>,
    live: Vec<TermId>,
}

impl Reference {
    fn push(&mut self) {
        self.frames.push(self.live.len());
    }

    fn pop(&mut self) {
        let mark = self.frames.pop().expect("reference stack underflow");
        self.live.truncate(mark);
    }

    fn assert(&mut self, t: TermId) {
        self.live.push(t);
    }

    /// Decides the live conjunction from scratch on a cloned manager.
    fn verdict(&self, tm: &TermManager, options: &DecideOptions) -> &'static str {
        let mut tm = tm.clone();
        let conj = tm.mk_and_many(&self.live);
        let query = tm.mk_not(conj);
        label(&decide(&mut tm, query, options).outcome)
    }
}

fn label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Valid => "unsat",
        Outcome::Invalid(_) => "sat",
        Outcome::Unknown(_) => "unknown",
    }
}

/// One lockstep comparison: the session's check against the reference.
fn check_agrees(session: &mut Session, reference: &Reference, options: &DecideOptions, at: &str) {
    let expected = reference.verdict(session.term_manager(), options);
    let result = session.check();
    assert_eq!(
        label(&result.outcome),
        expected,
        "session diverged from from-scratch decide {at}"
    );
    if let Some(core) = &result.unsat_core {
        assert!(!core.is_empty(), "unsat answers must carry a core {at}");
    }
}

fn modes() -> Vec<EncodingMode> {
    vec![
        EncodingMode::Sd,
        EncodingMode::Eij,
        EncodingMode::Hybrid(0),
        EncodingMode::Hybrid(700),
        EncodingMode::FixedHybrid,
    ]
}

/// The acceptance scenario: a satisfiable base, an unsatisfiable push,
/// and the pop provably retracting back to the pre-push verdict — in
/// every encoding mode.
#[test]
fn pop_retracts_unsat_to_the_pre_push_verdict() {
    for mode in modes() {
        let options = DecideOptions::with_mode(mode);
        let mut session = Session::new(options.clone());
        let mut reference = Reference::default();
        let (xy, yz, zx) = {
            let tm = session.term_manager_mut();
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let z = tm.int_var("z");
            (tm.mk_lt(x, y), tm.mk_lt(y, z), tm.mk_lt(z, x))
        };
        session.assert(xy);
        reference.assert(xy);
        session.assert(yz);
        reference.assert(yz);
        check_agrees(
            &mut session,
            &reference,
            &options,
            &format!("at the base ({mode:?})"),
        );
        session.push();
        reference.push();
        session.assert(zx);
        reference.assert(zx);
        let under_push = session.check();
        assert!(
            matches!(under_push.outcome, Outcome::Valid),
            "cycle must be unsat under the push ({mode:?})"
        );
        session.pop();
        reference.pop();
        let after_pop = session.check();
        assert!(
            matches!(after_pop.outcome, Outcome::Invalid(_)),
            "pop must retract to the satisfiable pre-push verdict ({mode:?})"
        );
        check_agrees(&mut session, &reference, &options, "after the pop");
    }
}

/// PRNG-driven random walks: interleaved push/assert/check/pop over
/// generated separation formulas, checked against the reference after
/// every mutation.
#[test]
fn random_interleavings_agree_with_decide_at_every_step() {
    let cfg = GenConfig {
        int_vars: 3,
        bool_vars: 1,
        ops: 8,
        ..GenConfig::separation_only()
    };
    for seed in 0..12u64 {
        let options = DecideOptions::default();
        let mut session = Session::new(options.clone());
        let mut reference = Reference::default();
        let mut rng = Prng::seed_from_u64(0xa11ce ^ seed);
        for step in 0..14 {
            let at = format!("(seed {seed}, step {step})");
            match rng.random_range(0..4u32) {
                0 => {
                    session.push();
                    reference.push();
                }
                1 if session.depth() > 0 => {
                    session.pop();
                    reference.pop();
                }
                _ => {
                    let phi = generate(session.term_manager_mut(), &mut rng, &cfg);
                    session.assert(phi);
                    reference.assert(phi);
                }
            }
            check_agrees(&mut session, &reference, &options, &at);
        }
    }
}

/// One PRNG-driven walk of `steps` push/assert/check/pop operations over
/// generated formulas, checked against the reference after every step.
/// Returns the session's re-encode count.
fn uf_walk(options: &DecideOptions, cfg: &GenConfig, seed: u64, steps: usize) -> u64 {
    let mut session = Session::new(options.clone());
    let mut reference = Reference::default();
    let mut rng = Prng::seed_from_u64(0xf00d ^ (seed << 8));
    for step in 0..steps {
        let at = format!(
            "({:?}, preprocess {}, seed {seed}, step {step})",
            options.mode, options.preprocess
        );
        match rng.random_range(0..4u32) {
            0 => {
                session.push();
                reference.push();
            }
            1 if session.depth() > 0 => {
                session.pop();
                reference.pop();
            }
            _ => {
                let phi = generate(session.term_manager_mut(), &mut rng, cfg);
                session.assert(phi);
                reference.assert(phi);
            }
        }
        check_agrees(&mut session, &reference, options, &at);
    }
    session.stats().reencodes
}

fn uf_config() -> GenConfig {
    GenConfig {
        int_vars: 3,
        bool_vars: 1,
        ops: 7,
        app_density: 0.4,
        ..GenConfig::default()
    }
}

/// Uninterpreted-function walks exercise the persistent elimination
/// tables and the in-place re-encode (polarity flips, domain merges), in
/// every encoding mode: after a re-encode the session keeps its solver,
/// learnt clauses and circuit, and must still agree with `decide`.
#[test]
fn random_uf_interleavings_agree_with_decide() {
    let cfg = uf_config();
    for mode in modes() {
        let options = DecideOptions::with_mode(mode);
        let reencodes: u64 = (0..8u64).map(|seed| uf_walk(&options, &cfg, seed, 10)).sum();
        assert!(
            reencodes >= 3,
            "{mode:?}: the walks re-encoded only {reencodes} times"
        );
    }
}

/// The same walks with preprocessing on: a kept solver carries bounded
/// variable elimination across re-encodes, so restored clauses and model
/// reconstruction meet re-encoded roots.
#[test]
fn random_uf_interleavings_with_preprocessing_agree_with_decide() {
    let options = DecideOptions {
        preprocess: true,
        ..DecideOptions::default()
    };
    let reencodes: u64 = (0..8u64)
        .map(|seed| uf_walk(&options, &uf_config(), seed, 10))
        .sum();
    assert!(reencodes >= 3, "the walks re-encoded only {reencodes} times");
}

/// Every corpus formula, replayed as NNF-split conjuncts of its negation
/// pushed one frame at a time, checking after each push and each pop.
#[test]
fn corpus_replays_identically_through_a_session() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sexp"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 12, "corpus shrank: {paths:?}");
    let options = DecideOptions::default();
    for path in paths {
        let at = format!("({})", path.display());
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let mut tm = TermManager::new();
        let phi = parse_problem(&mut tm, &text).unwrap_or_else(|e| {
            panic!("corpus file {} must parse: {e}", path.display());
        });
        let neg = tm.mk_not(phi);
        let conjuncts = conjuncts_of(&mut tm, neg);
        let mut session = Session::with_term_manager(tm, options.clone());
        let mut reference = Reference::default();
        for c in &conjuncts {
            session.push();
            reference.push();
            session.assert(*c);
            reference.assert(*c);
            check_agrees(&mut session, &reference, &options, &at);
        }
        for _ in 0..conjuncts.len() {
            session.pop();
            reference.pop();
            check_agrees(&mut session, &reference, &options, &at);
        }
    }
}

/// The lightest benchmark-family instances, replayed through a session
/// and compared against their known validity.
#[test]
fn light_benchmark_families_replay_through_a_session() {
    let benches = [
        translation_validation(2, 2, 7),
        translation_validation(3, 2, 8),
        random_suf(12, 3, 9),
        random_suf(16, 3, 10),
    ];
    let options = DecideOptions::default();
    for bench in benches {
        let mut tm = bench.tm.clone();
        let neg = tm.mk_not(bench.formula);
        let conjuncts = conjuncts_of(&mut tm, neg);
        let mut session = Session::with_term_manager(tm, options.clone());
        let mut reference = Reference::default();
        for c in conjuncts {
            session.push();
            reference.push();
            session.assert(c);
            reference.assert(c);
        }
        check_agrees(
            &mut session,
            &reference,
            &options,
            &format!("({})", bench.name),
        );
        if let Some(valid) = bench.expected {
            let verdict = session.check();
            assert_eq!(
                matches!(verdict.outcome, Outcome::Valid),
                valid,
                "{}: session disagrees with the planted validity",
                bench.name
            );
        }
    }
}

/// A long unrolling must not make a check pay for the depths before it:
/// the transitivity clauses the last check generates for its live cone
/// (new ones plus those earlier checks already handed out) stay within
/// what a one-shot `decide` of the same live conjunction generates.
#[test]
fn last_bmc_check_generates_no_more_transitivity_than_one_shot() {
    for (bench, bound) in [(counter_system(128), 130), (ring_system(64), 64)] {
        let options = DecideOptions::default();
        let system = &bench.system;
        let mut session = Session::with_term_manager(bench.tm.clone(), options.clone());
        session.assert(system.init);
        let mut current: HashMap<TermId, TermId> = system.state.iter().map(|&s| (s, s)).collect();
        for step in 0..=bound {
            let tm = session.term_manager_mut();
            let at_step = system.at_step(tm, &current, step);
            let prop = substitute(tm, system.property, &at_step);
            let neg_prop = tm.mk_not(prop);
            session.push();
            session.assert(neg_prop);
            let check = session.check();
            let last = step == bound || !check.outcome.is_valid();
            if last {
                let tm = session.term_manager_mut();
                let live = tm.mk_and(system.init, neg_prop);
                let query = tm.mk_not(live);
                let one_shot = decide(&mut tm.clone(), query, &options);
                assert!(
                    check.stats.trans_clauses <= one_shot.stats.trans_clauses,
                    "{} at step {step}: the session generated {} transitivity clauses, \
                     a one-shot decide {}",
                    bench.name,
                    check.stats.trans_clauses,
                    one_shot.stats.trans_clauses
                );
                assert!(one_shot.stats.trans_clauses > 0, "{}: no EIJ class", bench.name);
                break;
            }
            session.pop();
            current = system.advance(session.term_manager_mut(), &at_step);
        }
    }
}
