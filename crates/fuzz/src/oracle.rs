//! The differential, self-checking oracle.
//!
//! Every formula is pushed through a panel of independent procedures —
//! the six eager encoding modes, the preprocessing and result-cache
//! lenses, the lazy and case-splitting baselines and the incremental
//! session (the negated formula NNF-split into pushed conjuncts) — and
//! the verdicts are compared. With certification enabled, each eager and
//! session answer additionally carries a [`Certificate`]: SAT answers are
//! replayed through the reference evaluator, UNSAT answers through the
//! DRAT/RUP proof checker. Any disagreement, failed certificate or panic
//! is an oracle failure carrying everything needed to reproduce it.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use sufsat_baselines::{decide_lazy, decide_svc, LazyOptions, SvcOptions};
use sufsat_core::{decide, CacheHandle, DecideOptions, EncodingMode, Outcome};
use sufsat_incremental::{conjuncts_of, Session};
use sufsat_suf::{TermId, TermManager};

/// A procedure's answer, stripped to what the oracle compares.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The formula is valid.
    Valid,
    /// The formula is falsifiable.
    Invalid,
    /// The procedure gave up (budget/timeout) — excluded from agreement.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Valid => write!(f, "valid"),
            Verdict::Invalid => write!(f, "invalid"),
            Verdict::Unknown => write!(f, "unknown"),
        }
    }
}

impl From<&Outcome> for Verdict {
    fn from(o: &Outcome) -> Verdict {
        match o {
            Outcome::Valid => Verdict::Valid,
            Outcome::Invalid(_) => Verdict::Invalid,
            Outcome::Unknown(_) => Verdict::Unknown,
        }
    }
}

/// One procedure's result for one formula.
#[derive(Debug, Copy, Clone)]
pub struct ProcedureAnswer {
    /// The verdict.
    pub verdict: Verdict,
    /// Whether a machine-checked certificate accompanied the verdict.
    pub certified: bool,
}

/// A named decision procedure the oracle can run.
///
/// The closure receives a read-only term manager and clones it
/// internally, so procedures cannot contaminate each other through
/// shared interning state.
pub struct Procedure {
    /// Display name, e.g. `eager:hybrid(0)`.
    pub name: String,
    /// Runs the procedure. `Err` reports a failed certificate check.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(&TermManager, TermId) -> Result<ProcedureAnswer, String>>,
}

/// Panel configuration.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Per-procedure wall-clock timeout.
    pub timeout: Duration,
    /// Transitivity-constraint budget for the eager encodings.
    pub trans_budget: usize,
    /// Certify eager and session answers (model replay + RUP check).
    pub certify: bool,
    /// Include the lazy and SVC baseline procedures.
    pub include_baselines: bool,
}

impl Default for OracleOptions {
    fn default() -> OracleOptions {
        OracleOptions {
            timeout: Duration::from_millis(2_000),
            trans_budget: 2_000_000,
            certify: true,
            include_baselines: true,
        }
    }
}

fn eager_procedure(mode: EncodingMode, options: &OracleOptions) -> Procedure {
    let name = match mode {
        EncodingMode::Sd => "eager:sd".to_string(),
        EncodingMode::Eij => "eager:eij".to_string(),
        EncodingMode::Hybrid(t) => format!("eager:hybrid({t})"),
        EncodingMode::FixedHybrid => "eager:fixed-hybrid".to_string(),
    };
    let opts = DecideOptions {
        mode,
        trans_budget: options.trans_budget,
        timeout: Some(options.timeout),
        certify: options.certify,
        ..DecideOptions::default()
    };
    Procedure {
        name,
        run: Box::new(move |tm, phi| {
            let mut tm = tm.clone();
            let decision = decide(&mut tm, phi, &opts);
            let verdict = Verdict::from(&decision.outcome);
            match decision.certificate {
                Some(cert) if !cert.holds() => {
                    Err(format!("certificate check failed: {cert:?}"))
                }
                Some(_) => Ok(ProcedureAnswer {
                    verdict,
                    certified: true,
                }),
                None => Ok(ProcedureAnswer {
                    verdict,
                    certified: false,
                }),
            }
        }),
    }
}

/// Builds the standard panel for `options`.
pub fn default_procedures(options: &OracleOptions) -> Vec<Procedure> {
    let mut procs: Vec<Procedure> = [
        EncodingMode::Sd,
        EncodingMode::Eij,
        EncodingMode::Hybrid(0),
        EncodingMode::Hybrid(2),
        EncodingMode::Hybrid(700),
        EncodingMode::FixedHybrid,
    ]
    .into_iter()
    .map(|mode| eager_procedure(mode, options))
    .collect();

    {
        // The preprocessing lens: the default hybrid with SatELite-style
        // CNF preprocessing (subsumption, self-subsuming resolution, bounded
        // variable elimination with model reconstruction). Certification
        // is left off so elimination actually runs — under proof logging
        // the solver restricts itself to the RUP-replayable subset — and
        // wrong reconstructed models still abort via the counterexample
        // replay assertions inside `decide`.
        let opts = DecideOptions {
            trans_budget: options.trans_budget,
            timeout: Some(options.timeout),
            certify: false,
            preprocess: true,
            ..DecideOptions::default()
        };
        procs.push(Procedure {
            name: "eager:preprocess".to_string(),
            run: Box::new(move |tm, phi| {
                let mut tm = tm.clone();
                let decision = decide(&mut tm, phi, &opts);
                Ok(ProcedureAnswer {
                    verdict: Verdict::from(&decision.outcome),
                    certified: false,
                })
            }),
        });
    }

    {
        // The result-cache lens: the cached decide every daemon
        // `decide` request runs. One cache is shared across the
        // panel's whole lifetime — a campaign reuses the panel, so
        // α-equivalent cases collide across iterations, exercising the
        // canonicalizer on unrelated-looking formulas. Each formula is
        // decided cold (populating or hitting the shared cache), warm
        // (a guaranteed hit when cold was definitive) and fresh (a
        // cache-free reference); any definitive-verdict mismatch among
        // the three is a hard oracle failure, not a mere disagreement.
        let cached_opts = DecideOptions {
            trans_budget: options.trans_budget,
            timeout: Some(options.timeout),
            certify: false,
            cache: Some(CacheHandle::with_budget(16 << 20)),
            ..DecideOptions::default()
        };
        let fresh_opts = DecideOptions {
            trans_budget: options.trans_budget,
            timeout: Some(options.timeout),
            certify: false,
            ..DecideOptions::default()
        };
        procs.push(Procedure {
            name: "cached".to_string(),
            run: Box::new(move |tm, phi| {
                let cold = decide(&mut tm.clone(), phi, &cached_opts);
                let warm = decide(&mut tm.clone(), phi, &cached_opts);
                let fresh = decide(&mut tm.clone(), phi, &fresh_opts);
                let cold_v = Verdict::from(&cold.outcome);
                let warm_v = Verdict::from(&warm.outcome);
                let fresh_v = Verdict::from(&fresh.outcome);
                let definitive: Vec<Verdict> = [cold_v, warm_v, fresh_v]
                    .into_iter()
                    .filter(|v| *v != Verdict::Unknown)
                    .collect();
                if definitive.windows(2).any(|w| w[0] != w[1]) {
                    return Err(format!(
                        "cache verdict mismatch: cold={cold_v} warm={warm_v} fresh={fresh_v}"
                    ));
                }
                Ok(ProcedureAnswer {
                    verdict: definitive.first().copied().unwrap_or(Verdict::Unknown),
                    certified: false,
                })
            }),
        });
    }

    if options.include_baselines {
        let lazy_opts = LazyOptions {
            timeout: Some(options.timeout),
            ..LazyOptions::default()
        };
        procs.push(Procedure {
            name: "baseline:lazy".to_string(),
            run: Box::new(move |tm, phi| {
                let mut tm = tm.clone();
                let (outcome, _) = decide_lazy(&mut tm, phi, &lazy_opts);
                Ok(ProcedureAnswer {
                    verdict: Verdict::from(&outcome),
                    certified: false,
                })
            }),
        });
        let svc_opts = SvcOptions {
            timeout: Some(options.timeout),
            ..SvcOptions::default()
        };
        procs.push(Procedure {
            name: "baseline:svc".to_string(),
            run: Box::new(move |tm, phi| {
                let mut tm = tm.clone();
                let (outcome, _) = decide_svc(&mut tm, phi, &svc_opts);
                Ok(ProcedureAnswer {
                    verdict: Verdict::from(&outcome),
                    certified: false,
                })
            }),
        });
    }

    {
        // The incremental session answers the same validity question by
        // refutation: ¬φ is NNF-split into conjuncts, each pushed in its
        // own scope, and one check decides their joint satisfiability.
        // This exercises activation-literal scoping, the monotone encoder
        // and session certification against every other panel member.
        let sess_opts = DecideOptions {
            trans_budget: options.trans_budget,
            timeout: Some(options.timeout),
            certify: options.certify,
            ..DecideOptions::default()
        };
        procs.push(Procedure {
            name: "session".to_string(),
            run: Box::new(move |tm, phi| {
                let mut tm = tm.clone();
                let neg = tm.mk_not(phi);
                let conjuncts = conjuncts_of(&mut tm, neg);
                let mut session = Session::with_term_manager(tm, sess_opts.clone());
                for c in conjuncts {
                    session.push();
                    session.assert(c);
                }
                let result = session.check();
                let verdict = Verdict::from(&result.outcome);
                match result.certificate {
                    Some(cert) if !cert.holds() => {
                        Err(format!("certificate check failed: {cert:?}"))
                    }
                    Some(_) => Ok(ProcedureAnswer {
                        verdict,
                        certified: true,
                    }),
                    None => Ok(ProcedureAnswer {
                        verdict,
                        certified: false,
                    }),
                }
            }),
        });
    }

    procs
}

/// Everything the panel produced for one formula, when it agreed.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// `(procedure name, answer)` in panel order.
    pub answers: Vec<(String, ProcedureAnswer)>,
    /// The consensus among definitive answers, if any procedure answered.
    pub consensus: Option<Verdict>,
}

impl OracleReport {
    /// How many answers carried a checked certificate.
    pub fn certified_count(&self) -> usize {
        self.answers.iter().filter(|(_, a)| a.certified).count()
    }
}

/// Why the oracle rejected a formula.
#[derive(Debug, Clone)]
pub enum OracleFailure {
    /// Two procedures returned different definitive verdicts.
    Disagreement {
        /// All `(name, verdict)` pairs observed.
        answers: Vec<(String, Verdict)>,
    },
    /// A verdict's certificate did not check out.
    Certificate {
        /// The offending procedure.
        name: String,
        /// The certificate checker's complaint.
        detail: String,
    },
    /// A procedure panicked (a reference-replay assertion, typically).
    Panic {
        /// The offending procedure.
        name: String,
        /// The panic payload, if it was a string.
        detail: String,
    },
}

impl OracleFailure {
    /// Stable one-word classifier, used in reproducer headers and for
    /// shrinking (the shrinker preserves the failure kind, not the exact
    /// message).
    pub fn kind(&self) -> &'static str {
        match self {
            OracleFailure::Disagreement { .. } => "disagreement",
            OracleFailure::Certificate { .. } => "certificate",
            OracleFailure::Panic { .. } => "panic",
        }
    }
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleFailure::Disagreement { answers } => {
                write!(f, "procedures disagree:")?;
                for (name, v) in answers {
                    write!(f, " {name}={v}")?;
                }
                Ok(())
            }
            OracleFailure::Certificate { name, detail } => {
                write!(f, "certificate failure in {name}: {detail}")
            }
            OracleFailure::Panic { name, detail } => {
                write!(f, "panic in {name}: {detail}")
            }
        }
    }
}

/// Runs the whole panel on `phi` and cross-checks the verdicts.
///
/// `Unknown` answers never fail the oracle (a budget running out is not a
/// bug), but at least two definitive answers must exist for a formula to
/// count as covered — the campaign tracks that separately.
pub fn run_oracle(
    tm: &TermManager,
    phi: TermId,
    procs: &[Procedure],
) -> Result<OracleReport, OracleFailure> {
    let span = sufsat_obs::span_with!("fuzz.oracle", procedures = procs.len());
    let mut answers: Vec<(String, ProcedureAnswer)> = Vec::with_capacity(procs.len());
    for proc in procs {
        let outcome = catch_unwind(AssertUnwindSafe(|| (proc.run)(tm, phi)));
        match outcome {
            Ok(Ok(answer)) => {
                if span.is_recording() {
                    sufsat_obs::event!(
                        "fuzz.procedure",
                        name = proc.name.as_str(),
                        verdict = match answer.verdict {
                            Verdict::Valid => "valid",
                            Verdict::Invalid => "invalid",
                            Verdict::Unknown => "unknown",
                        },
                        certified = answer.certified,
                        panicked = false
                    );
                }
                answers.push((proc.name.clone(), answer));
            }
            Ok(Err(detail)) => {
                let failure = OracleFailure::Certificate {
                    name: proc.name.clone(),
                    detail,
                };
                trace_failure(&span, &failure);
                return Err(failure);
            }
            Err(payload) => {
                if span.is_recording() {
                    sufsat_obs::event!(
                        "fuzz.procedure",
                        name = proc.name.as_str(),
                        verdict = "panic",
                        certified = false,
                        panicked = true
                    );
                }
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let failure = OracleFailure::Panic {
                    name: proc.name.clone(),
                    detail,
                };
                trace_failure(&span, &failure);
                return Err(failure);
            }
        }
    }

    let definitive: Vec<Verdict> = answers
        .iter()
        .map(|(_, a)| a.verdict)
        .filter(|v| *v != Verdict::Unknown)
        .collect();
    let consensus = definitive.first().copied();
    if let Some(first) = consensus {
        if definitive.iter().any(|v| *v != first) {
            let failure = OracleFailure::Disagreement {
                answers: answers
                    .iter()
                    .map(|(name, a)| (name.clone(), a.verdict))
                    .collect(),
            };
            trace_failure(&span, &failure);
            return Err(failure);
        }
    }
    if span.is_recording() {
        static ORACLE_RUNS: sufsat_obs::Counter = sufsat_obs::Counter::new("fuzz.oracle.runs");
        ORACLE_RUNS.incr();
        sufsat_obs::event!(
            "fuzz.oracle.done",
            procedures = procs.len(),
            definitive = definitive.len(),
            consensus = consensus.map_or("none", |v| match v {
                Verdict::Valid => "valid",
                Verdict::Invalid => "invalid",
                Verdict::Unknown => "unknown",
            })
        );
    }
    Ok(OracleReport { answers, consensus })
}

fn trace_failure(span: &sufsat_obs::Span, failure: &OracleFailure) {
    if !span.is_recording() {
        return;
    }
    static ORACLE_FAILURES: sufsat_obs::Counter = sufsat_obs::Counter::new("fuzz.oracle.failures");
    ORACLE_FAILURES.incr();
    let name = match failure {
        OracleFailure::Certificate { name, .. } | OracleFailure::Panic { name, .. } => {
            name.as_str()
        }
        OracleFailure::Disagreement { .. } => "<panel>",
    };
    sufsat_obs::event!("fuzz.failure", kind = failure.kind(), name = name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::parse_problem;

    #[test]
    fn panel_agrees_on_simple_formulas() {
        let options = OracleOptions::default();
        let procs = default_procedures(&options);
        assert_eq!(procs.len(), 11);
        assert!(
            procs.iter().any(|p| p.name == "eager:preprocess"),
            "the preprocessing lens must be on the panel"
        );
        assert!(
            procs.iter().any(|p| p.name == "cached"),
            "the result-cache lens must be on the panel"
        );
        let cases = [
            ("(vars x y) (funs (f 1)) (formula (=> (= x y) (= (f x) (f y))))", Verdict::Valid),
            ("(vars x y) (funs (f 1)) (formula (=> (= (f x) (f y)) (= x y)))", Verdict::Invalid),
            ("(vars x) (formula (< x (succ x)))", Verdict::Valid),
        ];
        for (text, expected) in cases {
            let mut tm = TermManager::new();
            let phi = parse_problem(&mut tm, text).expect("parses");
            let report = run_oracle(&tm, phi, &procs).expect("oracle accepts");
            assert_eq!(report.consensus, Some(expected), "{text}");
            // All six eager lanes and the session certified their answers.
            assert!(report.certified_count() >= 7, "{text}");
        }
    }

    #[test]
    fn disagreement_is_reported() {
        let mut tm = TermManager::new();
        let phi = parse_problem(&mut tm, "(vars x) (formula (< x (succ x)))").expect("parses");
        let truthful = eager_procedure(EncodingMode::Sd, &OracleOptions::default());
        let liar = Procedure {
            name: "liar".to_string(),
            run: Box::new(|_, _| {
                Ok(ProcedureAnswer {
                    verdict: Verdict::Invalid,
                    certified: false,
                })
            }),
        };
        let err = run_oracle(&tm, phi, &[truthful, liar]).expect_err("must disagree");
        assert_eq!(err.kind(), "disagreement");
    }

    #[test]
    fn panics_are_contained() {
        let mut tm = TermManager::new();
        let phi = parse_problem(&mut tm, "(vars x) (formula (< x (succ x)))").expect("parses");
        let bomb = Procedure {
            name: "bomb".to_string(),
            run: Box::new(|_, _| panic!("boom")),
        };
        let err = run_oracle(&tm, phi, &[bomb]).expect_err("must fail");
        assert_eq!(err.kind(), "panic");
        match err {
            OracleFailure::Panic { detail, .. } => assert!(detail.contains("boom")),
            other => panic!("wrong failure: {other:?}"),
        }
    }
}
