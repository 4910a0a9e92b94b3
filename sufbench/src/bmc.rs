//! The `bmc` workload: closed loop, one caller, each operation checks one
//! transition system to its bound with `check_bounded_incremental_report`.
//! The traced run wraps each call in a span and splits its time by the
//! report the call returns.

use sufsat_core::DecideOptions;
use sufsat_incremental::check_bounded_incremental_report;
use sufsat_prng::Prng;

use crate::check::{self, Tally};
use crate::inputs;
use crate::trace::{Span, Tracer};
use crate::{end_to_end, host, per_layer, repeated_setup, Args, Report, Samples, Usage};

/// Tail percentile: the highest whole percentile with at least ten samples
/// beyond it at the sample count of a slow 20-second run on the reference
/// host (13 rounds of 4, when other guests slowed it).
const TAIL_PCT: f64 = 80.0;

pub fn run(args: &Args) -> Result<Report, String> {
    let (systems, setup_s) = repeated_setup(|| Ok((inputs::bmc_systems(), 0.0)))?;
    let options = DecideOptions::default();
    let mut order_rng = Prng::seed_from_u64(args.seed.wrapping_add(0x9e37_79b9));
    let indices: Vec<usize> = (0..systems.len()).collect();
    let mut tracer = args.trace.then(Tracer::new);
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut rounds = 0u32;

    let usage = Usage::start();
    while usage.another_round(rounds, args.seconds) {
        for i in inputs::shuffled(&indices, &mut order_rng) {
            let system = &systems[i];
            // The session takes the term manager over, so every check
            // starts from its own copy, made outside the timed interval.
            let mut tm = system.tm.clone();
            let op = tally.attempted;
            let span = tracer.as_mut().map(|t| t.open(op, None, "op"));
            let (result, report) = samples.measure(None, || {
                check_bounded_incremental_report(&mut tm, &system.system, system.bound, &options)
            });
            if let (Some(tracer), Some(span)) = (tracer.as_mut(), span) {
                tracer.close(
                    span,
                    &[
                        ("system", i as f64),
                        ("reencodes", report.reencodes as f64),
                        ("reused_roots", report.reused_roots as f64),
                        ("fresh_roots", report.fresh_roots as f64),
                        ("conflicts", report.conflicts as f64),
                        ("propagations", report.propagations as f64),
                        ("cnf_clauses", report.cnf_clauses as f64),
                    ],
                );
                let start_us = tracer.spans()[span].start_us;
                let translate_us = report.translate_time.as_secs_f64() * 1e6;
                for (name, from, dur) in [
                    ("incremental.translate", 0.0, translate_us),
                    (
                        "incremental.solve",
                        translate_us,
                        report.sat_time.as_secs_f64() * 1e6,
                    ),
                ] {
                    tracer.record(Span {
                        op,
                        parent: Some(span),
                        name,
                        start_us: start_us + from,
                        dur_us: dur,
                        fields: Vec::new(),
                    });
                }
            }
            tally.record(
                &system.name,
                check::bmc(system.bound, system.cex_at, &result),
            );
        }
        rounds += 1;
    }

    let mut record = usage.record();
    record.push(("rounds", rounds.to_string()));
    let metrics = match &tracer {
        None => {
            let peak = host::peak_rss_mb(None).ok_or("cannot read VmHWM")?;
            let (metrics, tail) = end_to_end(setup_s, peak, &samples, TAIL_PCT)?;
            record.extend(tail);
            metrics
        }
        Some(tracer) => {
            record.extend(crate::write_trace(tracer, args)?);
            let ops = tally.attempted as f64;
            let field = |f: &str| tracer.field_sum("op", f);
            let solve_ms = tracer.total_ms("incremental.solve");
            per_layer(&[
                (
                    "incremental.translate_ms",
                    tracer.total_ms("incremental.translate") / ops,
                ),
                ("incremental.solve_ms", solve_ms / ops),
                ("incremental.reencodes", field("reencodes") / ops),
                (
                    "incremental.reuse_ratio",
                    field("reused_roots") / (field("reused_roots") + field("fresh_roots")),
                ),
                ("encode.cnf_clauses", field("cnf_clauses") / ops),
                ("sat.conflicts", field("conflicts") / ops),
                (
                    "sat.props_per_s",
                    field("propagations") / (solve_ms / 1000.0),
                ),
            ])
        }
    };
    Ok(Report {
        tally,
        metrics,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Failure;

    #[test]
    fn a_wrong_bmc_step_fails_the_run() {
        let system = sufsat_workloads::counter_system(3);
        let mut tm = system.tm.clone();
        let (result, _) = check_bounded_incremental_report(
            &mut tm,
            &system.system,
            system.bound,
            &DecideOptions::default(),
        );
        assert!(check::bmc(system.bound, system.cex_at, &result).is_ok());
        let mut tally = Tally::default();
        tally.record("shifted", check::bmc(system.bound, Some(4), &result));
        tally.record("safe", check::bmc(system.bound, None, &result));
        assert_eq!(tally.wrong, 2);
        assert!(!tally.correct());
        assert!(matches!(
            check::bmc(system.bound, Some(2), &result),
            Err(Failure::Wrong(_))
        ));
    }
}
