//! Regression corpus replay: every checked-in seed file must keep the
//! whole panel in agreement, with certificates checking out.

use std::path::PathBuf;

use sufsat_fuzz::{default_procedures, read_reproducer, run_oracle, OracleOptions, Verdict};
use sufsat_suf::TermManager;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

#[test]
fn checked_in_corpus_replays_cleanly() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "suf"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 3,
        "at least three corpus seeds must be checked in, found {files:?}"
    );

    let procs = default_procedures(&OracleOptions::default());
    for path in &files {
        let mut tm = TermManager::new();
        let phi = read_reproducer(&mut tm, path).expect("corpus file parses");
        let report = run_oracle(&tm, phi, &procs)
            .unwrap_or_else(|err| panic!("{}: oracle failure: {err}", path.display()));
        assert!(
            report.consensus.is_some(),
            "{}: panel must reach a definitive verdict",
            path.display()
        );
        assert_ne!(report.consensus, Some(Verdict::Unknown));
        assert!(
            report.certified_count() >= 7,
            "{}: eager + session answers must be certified, got {}",
            path.display(),
            report.certified_count()
        );
    }
}
