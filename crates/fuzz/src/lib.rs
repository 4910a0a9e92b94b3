//! # sufsat-fuzz
//!
//! Differential fuzzing and self-checking oracle harness for the sufsat
//! decision procedures.
//!
//! A campaign generates seeded random SUF formulas ([`generate`]), runs
//! each through a panel of independent procedures — the six eager
//! encoding modes, the preprocessing and result-cache lenses, the lazy
//! and SVC baselines and the incremental session
//! ([`default_procedures`]) — and cross-checks the verdicts
//! ([`run_oracle`]). Answers are certified two-sidedly: SAT verdicts by
//! decoding the model and re-evaluating the *original* formula through
//! the reference evaluator, UNSAT verdicts by replaying the logged DRAT
//! proof through the RUP checker. Metamorphic transforms ([`meta`])
//! multiply every case: α-renaming and constant shifts must preserve the
//! verdict, and a valid formula's negation must be invalid.
//!
//! On any failure a delta-debugging shrinker ([`mod@shrink`]) reduces the
//! formula while the failure reproduces, and a self-contained reproducer
//! (seed + printed formula) lands in the corpus directory ([`corpus`]).
//!
//! Everything is driven by the in-tree PRNG: a `(seed, case)` pair
//! reproduces the exact formula on any machine, fully offline.
//!
//! A second target ([`serve_target`], CLI `--target serve`) fuzzes the
//! `sufsat-serve` wire protocol instead: seeded malformed frames against
//! a live in-process server, with `.hex` reproducers.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use sufsat_prng::Prng;
use sufsat_suf::{TermId, TermManager};

pub mod corpus;
pub mod gen;
pub mod meta;
pub mod oracle;
pub mod serve_target;
pub mod shrink;

pub use corpus::{read_reproducer, reproducer_text, write_reproducer, ReproducerInfo};
pub use gen::{case_seed, generate, GenConfig};
pub use meta::{alpha_rename, shift_ints};
pub use oracle::{
    default_procedures, run_oracle, OracleFailure, OracleOptions, OracleReport, Procedure,
    ProcedureAnswer, Verdict,
};
pub use serve_target::{
    malformed_bytes, read_hex_reproducer, replay_hex, run_serve_fuzz, write_hex_reproducer,
    ServeFuzzConfig, ServeFuzzFailure, ServeFuzzSummary,
};
pub use shrink::{count_atoms, shrink};

/// Which metamorphic relation a failure came from.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum MetaKind {
    /// α-renaming every symbol must preserve the verdict.
    Rename,
    /// Shifting every integer constant by `k` must preserve the verdict.
    Shift(i64),
    /// A valid formula's negation must be invalid.
    Negate,
}

impl MetaKind {
    fn describe(self) -> String {
        match self {
            MetaKind::Rename => "alpha-rename".to_string(),
            MetaKind::Shift(k) => format!("shift({k})"),
            MetaKind::Negate => "negate".to_string(),
        }
    }
}

/// Checks one metamorphic relation on `phi`; `Some(detail)` on violation.
///
/// Relations are only checked between *definitive* consensus verdicts;
/// if either side timed out, nothing can be concluded.
pub fn meta_check(
    tm: &TermManager,
    phi: TermId,
    procs: &[Procedure],
    kind: MetaKind,
) -> Result<Option<String>, OracleFailure> {
    let base = run_oracle(tm, phi, procs)?;
    let Some(base_verdict) = base.consensus else {
        return Ok(None);
    };
    let mut tm = tm.clone();
    let (transformed, expected) = match kind {
        MetaKind::Rename => (alpha_rename(&mut tm, phi), base_verdict),
        MetaKind::Shift(k) => (shift_ints(&mut tm, phi, k), base_verdict),
        MetaKind::Negate => {
            if base_verdict != Verdict::Valid {
                // φ invalid says nothing definitive about ¬φ.
                return Ok(None);
            }
            (tm.mk_not(phi), Verdict::Invalid)
        }
    };
    let report = run_oracle(&tm, transformed, procs)?;
    match report.consensus {
        Some(v) if v != expected => Ok(Some(format!(
            "{}: base verdict {base_verdict}, transformed verdict {v} (expected {expected})",
            kind.describe()
        ))),
        _ => Ok(None),
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; case `i` uses [`case_seed`]`(seed, i)`.
    pub seed: u64,
    /// Number of generated cases.
    pub cases: usize,
    /// Generator shape shared by all cases.
    pub gen: GenConfig,
    /// Panel configuration.
    pub oracle: OracleOptions,
    /// Also check the metamorphic relations on every agreeing case.
    pub metamorphic: bool,
    /// Shrink failing formulas before reporting them.
    pub shrink: bool,
    /// Candidate-evaluation budget per shrink.
    pub shrink_steps: usize,
    /// Where reproducers are written; `None` keeps them in memory only.
    pub corpus_dir: Option<PathBuf>,
    /// Stop the campaign after this many failures.
    pub max_failures: usize,
    /// Print progress to stderr every this many cases (0 = silent).
    pub log_every: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0,
            cases: 100,
            gen: GenConfig::default(),
            oracle: OracleOptions::default(),
            metamorphic: true,
            shrink: true,
            shrink_steps: 400,
            corpus_dir: None,
            max_failures: 10,
            log_every: 0,
        }
    }
}

/// One recorded failure, fully reproducible from this struct alone.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    /// Case index within the campaign.
    pub case_index: usize,
    /// The derived per-case seed.
    pub case_seed: u64,
    /// Stable failure kind (`disagreement`/`certificate`/`panic`/`metamorphic`).
    pub kind: String,
    /// Human-readable description.
    pub detail: String,
    /// The generated formula, printed.
    pub original_text: String,
    /// The shrunk formula, printed (equals `original_text` if unshrunk).
    pub shrunk_text: String,
    /// Atom count of the shrunk formula.
    pub atoms: usize,
    /// Reproducer file, when a corpus directory was configured.
    pub path: Option<PathBuf>,
}

/// Campaign tallies.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Cases generated and pushed through the panel.
    pub cases_run: usize,
    /// Cases on which at least one procedure answered definitively.
    pub definitive_cases: usize,
    /// Total definitive answers across all procedures and cases.
    pub definitive_answers: usize,
    /// Definitive answers that carried a checked certificate.
    pub certified_answers: usize,
    /// Definitive answers *without* a certificate, tallied per procedure
    /// name. On a panel without baselines, only the deliberately
    /// uncertified `eager:preprocess` and `cached` lenses may appear here —
    /// a regression that silently drops certification from any other
    /// procedure shows up as a new key.
    pub uncertified_by_procedure: BTreeMap<String, usize>,
    /// Metamorphic relation checks performed.
    pub meta_checks: usize,
    /// All failures, in discovery order.
    pub failures: Vec<FailureRecord>,
}

impl CampaignSummary {
    /// Whether the campaign finished without a single failure.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The generator shape the campaign uses for case `case_index`: every
/// fourth case is pure separation logic, so the separation-specific
/// paths get direct coverage too.
pub fn case_gen_config(base: &GenConfig, case_index: usize) -> GenConfig {
    if case_index % 4 == 3 {
        GenConfig {
            fun_arities: Vec::new(),
            pred_arities: Vec::new(),
            ..base.clone()
        }
    } else {
        base.clone()
    }
}

/// Runs a campaign with the standard panel from
/// [`default_procedures`]`(&config.oracle)`.
pub fn run_campaign(config: &CampaignConfig) -> CampaignSummary {
    let procs = default_procedures(&config.oracle);
    run_campaign_with(config, &procs)
}

/// Runs a campaign against a caller-supplied panel — the hook the
/// mutation tests use to inject a deliberately buggy procedure.
pub fn run_campaign_with(config: &CampaignConfig, procs: &[Procedure]) -> CampaignSummary {
    let mut summary = CampaignSummary::default();
    for case_index in 0..config.cases {
        let seed = case_seed(config.seed, case_index);
        let cfg = case_gen_config(&config.gen, case_index);
        let mut tm = TermManager::new();
        let mut rng = Prng::seed_from_u64(seed);
        let phi = generate(&mut tm, &mut rng, &cfg);
        summary.cases_run += 1;

        let failure: Option<(String, String)> = match run_oracle(&tm, phi, procs) {
            Err(err) => Some((err.kind().to_string(), err.to_string())),
            Ok(report) => {
                if report.consensus.is_some() {
                    summary.definitive_cases += 1;
                }
                for (name, a) in &report.answers {
                    if a.verdict == Verdict::Unknown {
                        continue;
                    }
                    summary.definitive_answers += 1;
                    if a.certified {
                        summary.certified_answers += 1;
                    } else {
                        *summary
                            .uncertified_by_procedure
                            .entry(name.clone())
                            .or_insert(0) += 1;
                    }
                }
                if config.metamorphic && report.consensus.is_some() {
                    let shift = rng.random_range(1i64..5);
                    let kinds = [MetaKind::Rename, MetaKind::Shift(shift), MetaKind::Negate];
                    let mut found = None;
                    for kind in kinds {
                        summary.meta_checks += 1;
                        match meta_check(&tm, phi, procs, kind) {
                            Ok(None) => {}
                            Ok(Some(detail)) => {
                                found = Some(("metamorphic".to_string(), detail));
                                break;
                            }
                            Err(err) => {
                                found = Some((err.kind().to_string(), err.to_string()));
                                break;
                            }
                        }
                    }
                    found
                } else {
                    None
                }
            }
        };

        if let Some((kind, detail)) = failure {
            let record =
                handle_failure(config, procs, &mut tm, phi, case_index, seed, kind, detail);
            summary.failures.push(record);
            if summary.failures.len() >= config.max_failures {
                eprintln!(
                    "sufsat-fuzz: stopping after {} failures",
                    summary.failures.len()
                );
                return summary;
            }
        }

        if config.log_every > 0 && (case_index + 1) % config.log_every == 0 {
            eprintln!(
                "sufsat-fuzz: {}/{} cases, {} definitive answers ({} certified), {} failures",
                case_index + 1,
                config.cases,
                summary.definitive_answers,
                summary.certified_answers,
                summary.failures.len()
            );
        }
    }
    summary
}

#[allow(clippy::too_many_arguments)]
fn handle_failure(
    config: &CampaignConfig,
    procs: &[Procedure],
    tm: &mut TermManager,
    phi: TermId,
    case_index: usize,
    seed: u64,
    kind: String,
    detail: String,
) -> FailureRecord {
    let original_text = sufsat_suf::print_problem(tm, phi);
    let shrunk = if config.shrink {
        let expect_kind = kind.clone();
        let mut still_fails = |tm: &TermManager, t: TermId| {
            failure_kind_of(tm, t, procs, config.metamorphic).as_deref() == Some(&expect_kind)
        };
        shrink::shrink(tm, phi, &mut still_fails, config.shrink_steps)
    } else {
        phi
    };
    let shrunk_text = sufsat_suf::print_problem(tm, shrunk);
    let atoms = count_atoms(tm, shrunk);
    let info = ReproducerInfo {
        campaign_seed: config.seed,
        case_index,
        kind: kind.clone(),
        detail: detail.clone(),
    };
    let path = config.corpus_dir.as_ref().and_then(|dir| {
        match write_reproducer(dir, &info, tm, shrunk, phi) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("sufsat-fuzz: could not write reproducer: {e}");
                None
            }
        }
    });
    FailureRecord {
        case_index,
        case_seed: seed,
        kind,
        detail,
        original_text,
        shrunk_text,
        atoms,
        path,
    }
}

/// Classifies the failure (if any) that `phi` triggers — the predicate
/// the shrinker preserves. Checks the plain oracle first, then (when
/// enabled) the metamorphic relations, mirroring campaign order.
pub fn failure_kind_of(
    tm: &TermManager,
    phi: TermId,
    procs: &[Procedure],
    metamorphic: bool,
) -> Option<String> {
    match run_oracle(tm, phi, procs) {
        Err(err) => Some(err.kind().to_string()),
        Ok(report) => {
            if !metamorphic || report.consensus.is_none() {
                return None;
            }
            for kind in [MetaKind::Rename, MetaKind::Shift(3), MetaKind::Negate] {
                match meta_check(tm, phi, procs, kind) {
                    Ok(None) => {}
                    Ok(Some(_)) => return Some("metamorphic".to_string()),
                    Err(err) => return Some(err.kind().to_string()),
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            cases: 8,
            oracle: OracleOptions {
                include_baselines: false,
                ..OracleOptions::default()
            },
            metamorphic: false,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn small_clean_campaign_certifies_every_definitive_answer() {
        let summary = run_campaign(&tiny_config());
        assert!(summary.clean(), "failures: {:#?}", summary.failures);
        assert_eq!(summary.cases_run, 8);
        assert!(summary.definitive_cases >= 6, "{summary:?}");
        // Every definitive answer carries a checked certificate except the
        // `eager:preprocess` lens (deliberately uncertified so bounded
        // variable elimination is actually exercised) and the `cached`
        // lens (certification bypasses the cache by design). Any other
        // procedure showing up uncertified is a regression.
        assert!(summary.certified_answers > 0);
        let uncertified: usize = summary.uncertified_by_procedure.values().sum();
        assert_eq!(
            summary.certified_answers + uncertified,
            summary.definitive_answers,
            "{summary:?}"
        );
        assert!(
            summary
                .uncertified_by_procedure
                .keys()
                .all(|name| name == "eager:preprocess" || name == "cached"),
            "only the preprocess and cached lenses may answer uncertified: {summary:?}"
        );
    }

    #[test]
    fn metamorphic_campaign_is_clean_too() {
        let config = CampaignConfig {
            cases: 4,
            metamorphic: true,
            ..tiny_config()
        };
        let summary = run_campaign(&config);
        assert!(summary.clean(), "failures: {:#?}", summary.failures);
        assert!(summary.meta_checks > 0);
    }
}
