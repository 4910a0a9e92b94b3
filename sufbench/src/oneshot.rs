//! The `oneshot` and `certify` workloads: closed loop, one caller, each
//! operation parses a problem text and decides it in the default
//! HYBRID(700) mode (with `certify: true` for `certify`).
//!
//! The untraced run calls only `parse_problem` and `decide`. The traced run
//! instead calls the stage functions `decide` is made of, in the order it
//! calls them, with a span around each.

use sufsat_core::{
    counterexample_falsifies_original, decide, Certificate, DecideOptions, Outcome, StopReason,
};
use sufsat_encode::{encode, load_into_solver, try_decode_model, EncodeOptions};
use sufsat_prng::Prng;
use sufsat_sat::{SolveResult, Solver};
use sufsat_seplog::SepAnalysis;
use sufsat_suf::{eliminate, parse_problem, TermManager};

use crate::check::{self, Failure, Tally};
use crate::inputs::{self, Item};
use crate::trace::Tracer;
use crate::{end_to_end, host, per_layer, repeated_setup, Args, Report, Samples, Usage};

/// Tail percentiles. For `certify` (seven or eight rounds of 24 in a
/// 20-second run on the reference host) it is the highest whole percentile
/// with at least ten samples beyond it. For `oneshot` (two rounds of 90)
/// that percentile, p94, falls at the lower edge of the fourteen samples of
/// the seven heaviest formulas and read 0.94–1.51 s over four runs of one
/// commit, so p90 (18 beyond, 0.48–0.54 s over the same runs) is used.
const ONESHOT_TAIL_PCT: f64 = 90.0;
const CERTIFY_TAIL_PCT: f64 = 93.0;

pub fn run(args: &Args, certify: bool) -> Result<Report, String> {
    let (items, setup_s) = repeated_setup(|| {
        let items = if certify {
            inputs::certify(args.seed)
        } else {
            inputs::oneshot(args.seed)
        };
        Ok((items, 0.0))
    })?;
    let options = DecideOptions {
        certify,
        ..DecideOptions::default()
    };
    let mut order_rng = Prng::seed_from_u64(args.seed.wrapping_add(0x9e37_79b9));
    let indices: Vec<usize> = (0..items.len()).collect();
    let mut tracer = args.trace.then(Tracer::new);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut rounds = 0u32;

    let usage = Usage::start();
    while usage.another_round(rounds, args.seconds) {
        for i in inputs::shuffled(&indices, &mut order_rng) {
            let item = &items[i];
            let op = tally.attempted;
            let result = samples.measure(None, || match &mut tracer {
                None => decide_op(item, &options),
                Some(tracer) => traced_op(tracer, op, i, item, certify),
            });
            tally.record(&item.name, result);
        }
        rounds += 1;
    }

    let mut record = usage.record();
    record.push(("rounds", rounds.to_string()));
    let metrics = match &tracer {
        None => {
            let peak = host::peak_rss_mb(None).ok_or("cannot read VmHWM")?;
            let tail_pct = if certify {
                CERTIFY_TAIL_PCT
            } else {
                ONESHOT_TAIL_PCT
            };
            let (metrics, tail) = end_to_end(setup_s, peak, &samples, tail_pct)?;
            record.extend(tail);
            metrics
        }
        Some(tracer) => {
            record.extend(crate::write_trace(tracer, args)?);
            layer_metrics(tracer, tally.attempted as f64)
        }
    };
    Ok(Report {
        tally,
        metrics,
        record,
    })
}

/// One untraced operation: what a library user calls.
fn decide_op(item: &Item, options: &DecideOptions) -> Result<(), Failure> {
    let mut tm = TermManager::new();
    let phi = parse_problem(&mut tm, &item.text)
        .map_err(|e| Failure::Missing(format!("parse error: {e}")))?;
    let decision = decide(&mut tm, phi, options);
    if options.certify {
        check::certified(item.valid, &decision.outcome, decision.certificate.as_ref())
    } else {
        check::outcome(item.valid, &decision.outcome)
    }
}

/// One traced operation: the stages of `decide` (without a cache, budget
/// or preprocessing, as the default options run it), each in a span. The
/// operation's span records which input it decided.
fn traced_op(
    tracer: &mut Tracer,
    op: u64,
    index: usize,
    item: &Item,
    certify: bool,
) -> Result<(), Failure> {
    let root = tracer.open(op, None, "op");
    let result = traced_decide(tracer, op, root, item, certify);
    tracer.close(root, &[("input", index as f64)]);
    let (outcome, certificate) = result?;
    if certify {
        check::certified(item.valid, &outcome, certificate.as_ref())
    } else {
        check::outcome(item.valid, &outcome)
    }
}

fn traced_decide(
    tracer: &mut Tracer,
    op: u64,
    root: usize,
    item: &Item,
    certify: bool,
) -> Result<(Outcome, Option<Certificate>), Failure> {
    let parent = Some(root);
    let options = DecideOptions::default();
    let mut tm = TermManager::new();
    let phi = tracer
        .time(op, parent, "suf.parse", || {
            parse_problem(&mut tm, &item.text)
        })
        .map_err(|e| Failure::Missing(format!("parse error: {e}")))?;
    let elim = tracer.time(op, parent, "suf.eliminate", || eliminate(&mut tm, phi));
    let analysis = tracer.time(op, parent, "seplog.analyze", || {
        SepAnalysis::new(&tm, elim.formula, &elim.p_vars)
    });

    let encode_options = EncodeOptions {
        mode: options.mode,
        cnf: options.cnf,
        trans_budget: options.trans_budget,
        deadline: None,
        cancel: None,
    };
    let span = tracer.open(op, parent, "encode.encode");
    let encoded = encode(&tm, elim.formula, &analysis, &encode_options);
    let trans = encoded.as_ref().map_or(0, |e| e.stats.trans_clauses);
    tracer.close(span, &[("trans_clauses", trans as f64)]);
    let Ok(encoded) = encoded else {
        return Ok((Outcome::Unknown(StopReason::TranslationBudget), None));
    };

    let mut solver = Solver::new();
    if certify {
        solver.enable_proof();
    }
    let span = tracer.open(op, parent, "encode.load");
    let map = load_into_solver(
        &encoded.circuit,
        &[!encoded.formula],
        &encoded.trans_clauses,
        options.cnf,
        &mut solver,
    );
    tracer.close(
        span,
        &[("cnf_clauses", solver.stats().original_clauses as f64)],
    );

    let span = tracer.open(op, parent, "sat.solve");
    let result = solver.solve();
    let stats = solver.stats();
    tracer.close(
        span,
        &[
            ("conflicts", stats.conflicts as f64),
            ("propagations", stats.propagations as f64),
        ],
    );

    match result {
        SolveResult::Unsat => {
            let certificate = certify.then(|| {
                let span = tracer.open(op, parent, "sat.check_proof");
                let checked = solver.check_proof().unwrap_or(false);
                let steps = solver.proof().map_or(0, |p| p.steps().len());
                tracer.close(span, &[("proof_steps", steps as f64)]);
                Certificate::Refutation { steps, checked }
            });
            Ok((Outcome::Valid, certificate))
        }
        SolveResult::Sat => {
            let cex = tracer
                .time(op, parent, "core.decode", || {
                    try_decode_model(&encoded, &map, &solver)
                })
                .map_err(|e| Failure::Wrong(format!("model does not decode: {e}")))?;
            let falsifies_separation = !cex.evaluate(&tm, elim.formula);
            let certificate = certify.then(|| Certificate::Counterexample {
                decoded: true,
                falsifies_separation,
                falsifies_original: counterexample_falsifies_original(&tm, phi, &elim, &cex),
            });
            if !falsifies_separation {
                return Err(Failure::Wrong(
                    "counterexample does not falsify the separation formula".to_owned(),
                ));
            }
            Ok((Outcome::Invalid(cex), certificate))
        }
        SolveResult::Unknown(interrupt) => Err(Failure::Missing(format!("{interrupt:?}"))),
    }
}

/// Per-layer metrics of a traced run, per operation.
fn layer_metrics(tracer: &Tracer, ops: f64) -> Vec<crate::Metric> {
    let per_op = |name: &str| tracer.total_ms(name) / ops;
    let solve_s = tracer.total_ms("sat.solve") / 1000.0;
    per_layer(&[
        ("suf.parse_ms", per_op("suf.parse")),
        ("suf.eliminate_ms", per_op("suf.eliminate")),
        ("seplog.analyze_ms", per_op("seplog.analyze")),
        ("encode.encode_ms", per_op("encode.encode")),
        ("encode.load_ms", per_op("encode.load")),
        (
            "encode.trans_clauses",
            tracer.field_sum("encode.encode", "trans_clauses") / ops,
        ),
        (
            "encode.cnf_clauses",
            tracer.field_sum("encode.load", "cnf_clauses") / ops,
        ),
        ("sat.solve_ms", per_op("sat.solve")),
        (
            "sat.conflicts",
            tracer.field_sum("sat.solve", "conflicts") / ops,
        ),
        (
            "sat.props_per_s",
            tracer.field_sum("sat.solve", "propagations") / solve_s,
        ),
        ("sat.check_proof_ms", per_op("sat.check_proof")),
        (
            "sat.proof_steps",
            tracer.field_sum("sat.check_proof", "proof_steps") / ops,
        ),
        ("core.decode_ms", per_op("core.decode")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::print_problem;

    #[test]
    fn a_flipped_expected_answer_fails_the_run() {
        let b = sufsat_workloads::pipeline(3, 2, 1);
        let mut item = Item {
            name: "dlx".to_owned(),
            text: print_problem(&b.tm, b.formula),
            valid: true,
        };
        let options = DecideOptions::default();
        assert!(decide_op(&item, &options).is_ok());
        item.valid = false;
        let mut tally = Tally::default();
        tally.record("untraced", decide_op(&item, &options));
        tally.record("traced", traced_op(&mut Tracer::new(), 0, 0, &item, false));
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (2, 2, 2));
        assert!(!tally.correct());
    }

    #[test]
    fn traced_and_untraced_certified_runs_agree() {
        let b = sufsat_workloads::pipeline(3, 2, 1);
        let mut tm = b.tm.clone();
        let negated = tm.mk_not(b.formula);
        let options = DecideOptions {
            certify: true,
            ..DecideOptions::default()
        };
        for (text, valid) in [
            (print_problem(&b.tm, b.formula), true),
            (print_problem(&tm, negated), false),
        ] {
            let item = Item {
                name: "dlx".to_owned(),
                text,
                valid,
            };
            assert!(decide_op(&item, &options).is_ok());
            let mut tracer = Tracer::new();
            assert!(traced_op(&mut tracer, 0, 0, &item, true).is_ok());
            let stage = if valid {
                "sat.check_proof"
            } else {
                "core.decode"
            };
            assert_eq!(tracer.durations_ms(stage).len(), 1);
        }
    }
}
