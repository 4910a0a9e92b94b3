//! Fixed-seed differential fuzzing smoke test: a small campaign over the
//! full procedure panel must come back clean, with every definitive
//! eager and session answer carrying a checked certificate. The CI script
//! runs a larger campaign through the `sufsat-fuzz` binary; this keeps a
//! floor of coverage inside `cargo test` itself.

use sufsat_fuzz::{run_campaign, CampaignConfig, OracleOptions};

#[test]
fn fixed_seed_campaign_is_clean() {
    let config = CampaignConfig {
        seed: 0x5eed_2026,
        cases: 20,
        metamorphic: true,
        oracle: OracleOptions {
            // The lazy/SVC baselines run in the CI campaign and the fuzz
            // crate's own tests; the smoke test leaves them out to stay
            // fast in debug builds.
            include_baselines: false,
            ..OracleOptions::default()
        },
        ..CampaignConfig::default()
    };
    let summary = run_campaign(&config);
    assert!(summary.clean(), "failures: {:#?}", summary.failures);
    assert_eq!(summary.cases_run, 20);
    assert!(summary.definitive_cases >= 15, "{summary:?}");
    assert!(summary.meta_checks >= 30, "{summary:?}");
    // Every definitive answer is certified except those of the
    // `eager:preprocess` lens (uncertified so bounded variable
    // elimination is actually exercised) and the `cached` lens (its
    // warm answers replay a stored verdict, which has no certificate) —
    // at most one uncertified answer each per case.
    assert!(summary.certified_answers > 0);
    assert!(
        summary.certified_answers >= summary.definitive_answers - 2 * summary.definitive_cases,
        "at most two uncertified definitive answers per case: {summary:?}"
    );
}
