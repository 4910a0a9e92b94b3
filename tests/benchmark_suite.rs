//! Integration tests over the synthetic benchmark suite: the hybrid
//! procedure must prove every valid-by-construction benchmark of moderate
//! size, and the suite must exhibit the structural features the paper's
//! experiments rely on.

use std::time::Duration;

use sufsat::workloads::{
    cache_coherence, device_driver, load_store_unit, ooo_invariant, pipeline, random_suf, suite,
    training_sample, translation_validation, Benchmark,
};
use sufsat::{decide, DecideOptions, EncodingMode, Outcome};

fn hybrid_decides_valid(mut bench: Benchmark) {
    let mut options = DecideOptions::with_mode(EncodingMode::Hybrid(50));
    options.timeout = Some(Duration::from_secs(60));
    let d = decide(&mut bench.tm, bench.formula, &options);
    assert!(
        d.outcome.is_valid(),
        "{}: expected valid, got {:?}",
        bench.name,
        d.outcome
    );
}

#[test]
fn hybrid_proves_small_members_of_every_family() {
    hybrid_decides_valid(pipeline(2, 3, 5));
    hybrid_decides_valid(ooo_invariant(5, 2));
    hybrid_decides_valid(cache_coherence(3, 4));
    hybrid_decides_valid(load_store_unit(4, 5));
    hybrid_decides_valid(device_driver(10, 5));
    hybrid_decides_valid(translation_validation(10, 3, 5));
}

#[test]
fn sd_handles_the_invariant_family_where_eij_blows_up() {
    let mut bench = ooo_invariant(12, 1);
    // EIJ: translation blow-up under a tight budget.
    let mut eij = DecideOptions::with_mode(EncodingMode::Eij);
    eij.trans_budget = 50_000;
    let d_eij = decide(&mut bench.tm, bench.formula, &eij);
    assert_eq!(
        d_eij.outcome,
        Outcome::Unknown(sufsat::StopReason::TranslationBudget),
        "EIJ should exceed the transitivity budget on a dense class"
    );
    // SD: completes.
    let mut sd = DecideOptions::with_mode(EncodingMode::Sd);
    sd.timeout = Some(Duration::from_secs(60));
    let d_sd = decide(&mut bench.tm, bench.formula, &sd);
    assert!(d_sd.outcome.is_valid());
}

#[test]
fn hybrid_threshold_picks_sd_for_dense_classes() {
    let mut bench = ooo_invariant(10, 1);
    let mut options = DecideOptions::with_mode(EncodingMode::Hybrid(100));
    options.timeout = Some(Duration::from_secs(60));
    let d = decide(&mut bench.tm, bench.formula, &options);
    assert!(d.outcome.is_valid());
    assert!(
        d.stats.sd_classes >= 1,
        "the dense tag class must fall back to SD: {:?}",
        d.stats
    );
}

#[test]
fn default_hybrid_matches_the_planted_verdict_on_the_whole_suite() {
    // Short per-run timeout: the heavyweight suite members time out, which
    // proves nothing either way; every definitive answer must equal the
    // verdict the construction planted.
    let options = DecideOptions {
        timeout: Some(Duration::from_millis(1500)),
        ..DecideOptions::default()
    };
    let mut answered = 0usize;
    for mut bench in suite() {
        let d = decide(&mut bench.tm, bench.formula, &options);
        if matches!(d.outcome, Outcome::Unknown(_)) {
            continue;
        }
        answered += 1;
        assert_eq!(
            Some(d.outcome.is_valid()),
            bench.expected,
            "{}: HYBRID(700) contradicts the planted verdict",
            bench.name
        );
    }
    // The suite must actually exercise the check, not time out whole.
    assert!(answered >= 20, "only {answered} of 49 benchmarks answered");
}

#[test]
fn suite_structure_matches_the_paper() {
    let s = suite();
    assert_eq!(s.len(), 49);
    assert_eq!(s.iter().filter(|b| b.invariant_checking).count(), 10);
    assert_eq!(training_sample().len(), 16);
}

#[test]
fn random_formulas_decide_consistently() {
    for seed in 0..6 {
        let mut bench = random_suf(25, 3, seed);
        let d_sd = decide(
            &mut bench.tm,
            bench.formula,
            &DecideOptions::with_mode(EncodingMode::Sd),
        );
        let d_eij = decide(
            &mut bench.tm,
            bench.formula,
            &DecideOptions::with_mode(EncodingMode::Eij),
        );
        assert_eq!(
            d_sd.outcome.is_valid(),
            d_eij.outcome.is_valid(),
            "seed {seed}"
        );
    }
}

#[test]
fn suite_round_trips_through_the_text_format() {
    // Dump each benchmark as a problem file (with let-extraction of shared
    // nodes) and parse it back: the DAG must reconstruct exactly.
    for bench in suite().into_iter().take(12) {
        let text = sufsat::suf::print_problem(&bench.tm, bench.formula);
        let mut tm2 = sufsat::TermManager::new();
        let phi2 = sufsat::parse_problem(&mut tm2, &text)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(
            bench.tm.dag_size(bench.formula),
            tm2.dag_size(phi2),
            "{} round trip changed the DAG",
            bench.name
        );
    }
}

#[test]
fn tv_family_is_equality_only() {
    // Translation validation produces no strict inequalities, so the
    // fixed hybrid should put every class under EIJ.
    let mut bench = translation_validation(12, 3, 3);
    let d = decide(
        &mut bench.tm,
        bench.formula,
        &DecideOptions::with_mode(EncodingMode::FixedHybrid),
    );
    assert!(d.outcome.is_valid());
    assert_eq!(d.stats.sd_classes, 0, "{:?}", d.stats);
}
