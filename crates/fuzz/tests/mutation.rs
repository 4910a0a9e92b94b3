//! Mutation test: the harness must catch a deliberately injected bug.
//!
//! The injected "encoder bug" is a wrapper around the SD pipeline that
//! flips every definitive verdict on formulas containing a `succ` node —
//! the kind of off-by-one an encoding change could plausibly introduce.
//! The differential oracle must flag the disagreement, and the shrinker
//! must reduce the reproducer to a handful of atoms.

use sufsat_core::{decide, DecideOptions, EncodingMode};
use sufsat_fuzz::{
    default_procedures, run_campaign_with, CampaignConfig, OracleOptions, Procedure,
    ProcedureAnswer, Verdict,
};
use sufsat_suf::{Term, TermManager, TermId};

fn contains_succ(tm: &TermManager, root: TermId) -> bool {
    tm.postorder(root)
        .into_iter()
        .any(|id| matches!(tm.term(id), Term::Succ(_)))
}

/// SD pipeline with the injected verdict-flip bug.
fn buggy_sd() -> Procedure {
    let opts = DecideOptions {
        mode: EncodingMode::Sd,
        ..DecideOptions::default()
    };
    Procedure {
        name: "eager:sd-mutated".to_string(),
        run: Box::new(move |tm, phi| {
            let mut tm2 = tm.clone();
            let decision = decide(&mut tm2, phi, &opts);
            let verdict = Verdict::from(&decision.outcome);
            let verdict = if contains_succ(tm, phi) {
                match verdict {
                    Verdict::Valid => Verdict::Invalid,
                    Verdict::Invalid => Verdict::Valid,
                    Verdict::Unknown => Verdict::Unknown,
                }
            } else {
                verdict
            };
            Ok(ProcedureAnswer {
                verdict,
                certified: false,
            })
        }),
    }
}

#[test]
fn injected_verdict_flip_is_caught_and_shrunk() {
    let oracle = OracleOptions {
        certify: false,
        include_baselines: false,
        ..OracleOptions::default()
    };
    let mut procs = default_procedures(&oracle);
    procs.truncate(1); // keep only the honest eager:sd lane
    procs.push(buggy_sd());

    let config = CampaignConfig {
        seed: 7,
        cases: 60,
        oracle,
        metamorphic: false,
        max_failures: 1,
        ..CampaignConfig::default()
    };
    let summary = run_campaign_with(&config, &procs);

    assert!(
        !summary.failures.is_empty(),
        "the injected bug must be caught within {} cases",
        config.cases
    );
    let failure = &summary.failures[0];
    assert_eq!(failure.kind, "disagreement", "{failure:?}");
    assert!(
        failure.detail.contains("eager:sd-mutated"),
        "{failure:?}"
    );
    assert!(
        failure.atoms <= 5,
        "shrunk reproducer must have at most 5 atoms, got {}: {}",
        failure.atoms,
        failure.shrunk_text
    );
    // The shrunk formula still reproduces the mutated behaviour: it must
    // keep the `succ` node the bug keys on.
    let mut tm = TermManager::new();
    let shrunk =
        sufsat_suf::parse_problem(&mut tm, &failure.shrunk_text).expect("shrunk text parses");
    assert!(contains_succ(&tm, shrunk), "{}", failure.shrunk_text);
}
