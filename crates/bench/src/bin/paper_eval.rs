//! Regenerates every table and figure of the paper's evaluation (§3–§5).
//!
//! ```text
//! paper-eval [--timeout SECS] [--septhold N] [--csv DIR] [--jobs N]
//!            [--trace FILE|stderr] [--preprocess]
//!            [fig2|fig3|fig4|fig5|fig6|fig-incremental|threshold|all|dump DIR]
//! paper-eval report <TRACE> [--stages FILE]
//! paper-eval check-trace <TRACE>
//! ```
//!
//! `--csv DIR` additionally writes machine-readable result tables
//! (`threshold.csv`, `fig2.csv`, …) under DIR. `--jobs N` fans independent
//! (benchmark, method) runs across N worker threads; results and printed
//! tables are identical to `--jobs 1` runs up to timing noise, because the
//! harness reassembles them in input order. Use `--jobs 1` (the default)
//! when wall-clock numbers must not contend for cores.
//!
//! `--trace` (or `SUFSAT_TRACE=<path|stderr>`) records the whole run as a
//! structured JSON-lines trace. `report` rebuilds the Figure-2-style
//! benchmark × method table from such a trace — the counts come from the
//! live `DecideStats`, so the reconstruction matches the run exactly —
//! and `--stages` additionally writes the aggregated per-stage timing
//! document (`BENCH_stages.json`, schema `sufsat-stages-v1`).
//! `check-trace` validates the wire schema and span nesting, exiting
//! non-zero on any drift.
//!
//! `--preprocess` turns on SatELite-style CNF preprocessing (subsumption,
//! self-subsuming resolution, bounded variable elimination) in the eager
//! procedures before SAT search; verdicts must be identical with and
//! without it (`ci.sh` enforces this on fig2).
//!
//! * `threshold` — §4.1: EIJ runtimes on the 16-benchmark training sample,
//!   variance-minimizing split, automatic `SEP_THOLD` (paper value: 700).
//! * `fig2` — SD vs EIJ effect on the SAT solver: CNF clauses, conflict
//!   clauses, SAT time, on the five largest non-invariant benchmarks.
//! * `fig3` — normalized total time vs separation-predicate count for SD
//!   and EIJ on the training sample (log–log series in the paper).
//! * `fig4` — HYBRID (auto threshold) vs SD and EIJ on the 39
//!   non-invariant benchmarks.
//! * `fig5` — the 10 invariant-checking benchmarks with `SEP_THOLD = 100`.
//! * `fig6` — HYBRID vs the SVC- and CVC-style baselines on the 39
//!   non-invariant benchmarks.
//! * `fig-incremental` — incremental BMC on one persistent session vs
//!   the from-scratch engine over the transition-system suite.
//!
//! Absolute numbers differ from a 2003 Pentium-IV with zChaff; the *shape*
//! (who wins, by what factor, where the crossover sits) is the
//! reproduction target — see EXPERIMENTS.md.

use std::time::Duration;

use sufsat_bench::{fmt_time, parallel_map, run_with, Method, RunConfig, RunResult};
use sufsat_core::{select_threshold, ThresholdSample};
use sufsat_workloads::{suite, training_sample, Benchmark};

struct Config {
    timeout: Duration,
    septhold: Option<usize>,
    csv_dir: Option<std::path::PathBuf>,
    jobs: usize,
    preprocess: bool,
}

impl Config {
    /// Per-run harness knobs derived from the CLI flags.
    fn run_config(&self) -> RunConfig {
        RunConfig {
            preprocess: self.preprocess,
            ..RunConfig::new(self.timeout)
        }
    }

    /// Appends `rows` (with a header) to `<csv_dir>/<name>.csv` when CSV
    /// output is enabled.
    fn write_csv(&self, name: &str, header: &str, rows: &[String]) {
        let Some(dir) = &self.csv_dir else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("paper-eval: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.csv"));
        let mut text = String::from(header);
        text.push('\n');
        for row in rows {
            text.push_str(row);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("paper-eval: cannot write {}: {e}", path.display());
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut config = Config {
        timeout: Duration::from_secs(10),
        septhold: None,
        csv_dir: None,
        jobs: 1,
        preprocess: false,
    };
    let mut command = "all".to_owned();
    let mut args_rest: Option<String> = None;
    let mut stages_path: Option<String> = None;
    let mut trace_target: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--timeout" => {
                let v = args.next().expect("--timeout needs a value");
                config.timeout =
                    Duration::from_secs_f64(v.parse().expect("--timeout must be seconds"));
            }
            "--septhold" => {
                let v = args.next().expect("--septhold needs a value");
                config.septhold = Some(v.parse().expect("--septhold must be an integer"));
            }
            "--csv" => {
                let v = args.next().expect("--csv needs a directory");
                config.csv_dir = Some(v.into());
            }
            "--jobs" => {
                let v = args.next().expect("--jobs needs a value");
                config.jobs = v.parse().expect("--jobs must be an integer");
            }
            "--preprocess" => {
                config.preprocess = true;
            }
            "--trace" => {
                let v = args.next().expect("--trace needs a path or `stderr`");
                trace_target = Some(v);
            }
            "--stages" => {
                let v = args.next().expect("--stages needs a path");
                stages_path = Some(v);
            }
            other => {
                if command != "all" && args_rest.is_none() {
                    args_rest = Some(other.to_owned());
                } else {
                    command = other.to_owned();
                }
            }
        }
    }

    // Offline trace analysis needs no benchmark run (and no tracing).
    match command.as_str() {
        "report" => {
            let path = args_rest.expect("report needs a trace file");
            report_command(&path, stages_path.as_deref());
            return;
        }
        "check-trace" => {
            let path = args_rest.expect("check-trace needs a trace file");
            check_trace_command(&path);
            return;
        }
        _ => {}
    }

    match trace_target.as_deref() {
        Some(target) => {
            if let Err(e) = sufsat_obs::init_to(target) {
                eprintln!("paper-eval: cannot open trace target {target}: {e}");
                std::process::exit(2);
            }
        }
        None => {
            sufsat_obs::init_from_env();
        }
    }

    match command.as_str() {
        "threshold" => {
            let _ = threshold_experiment(&config, true);
        }
        "fig2" => fig2(&config),
        "dump" => {
            let dir = args_rest.unwrap_or_else(|| "benchmarks".to_owned());
            dump(&dir);
        }
        "fig3" => fig3(&config),
        "fig4" => fig4(&config),
        "fig5" => fig5(&config),
        "fig6" => fig6(&config),
        "fig-incremental" => fig_incremental(&config),
        "all" => {
            let t = threshold_experiment(&config, true);
            let c = Config {
                timeout: config.timeout,
                septhold: Some(config.septhold.unwrap_or(t)),
                csv_dir: config.csv_dir.clone(),
                jobs: config.jobs,
                preprocess: config.preprocess,
            };
            fig2(&c);
            fig3(&c);
            fig4(&c);
            fig5(&c);
            fig6(&c);
            fig_incremental(&c);
        }
        other => {
            eprintln!("unknown command `{other}`");
            std::process::exit(2);
        }
    }

    sufsat_obs::emit_counter_records();
    sufsat_obs::shutdown();
}

/// `report <TRACE> [--stages FILE]`: rebuilds the Figure-2-style table
/// from a recorded trace, optionally writing the aggregated stage timing
/// document.
fn report_command(path: &str, stages_path: Option<&str>) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("paper-eval: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let rows = match sufsat_bench::trace::report_rows(&text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("paper-eval: malformed trace {path}: {e}");
            std::process::exit(1);
        }
    };
    if rows.is_empty() {
        println!("no bench.result events in {path} (was the run traced?)");
    } else {
        print!("{}", sufsat_bench::trace::render_report(&rows));
    }
    if let Some(stages) = stages_path {
        match sufsat_bench::trace::stage_summary(&text) {
            Ok(doc) => {
                if let Err(e) = std::fs::write(stages, doc) {
                    eprintln!("paper-eval: cannot write {stages}: {e}");
                    std::process::exit(2);
                }
                println!("wrote stage aggregation to {stages}");
            }
            Err(e) => {
                eprintln!("paper-eval: malformed trace {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `check-trace <TRACE>`: validates the JSON-lines schema and span
/// nesting; exits 1 on any violation.
fn check_trace_command(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("paper-eval: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match sufsat_bench::trace::check_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: ok — {} records ({} spans, {} events, {} counters)",
                check.records, check.spans, check.events, check.counters
            );
        }
        Err(errors) => {
            eprintln!("{path}: {} schema violation(s)", errors.len());
            for e in errors.iter().take(20) {
                eprintln!("  {e}");
            }
            if errors.len() > 20 {
                eprintln!("  … and {} more", errors.len() - 20);
            }
            std::process::exit(1);
        }
    }
}

/// Writes every suite benchmark as a parseable problem file under `dir`.
fn dump(dir: &str) {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).expect("create benchmark directory");
    let mut index = String::from(
        "# sufsat benchmark suite\n\nGenerated with `paper-eval dump`; 49 synthetic\n\
         benchmarks mirroring the paper's suite (see DESIGN.md Section 3.7).\n\n\
         | file | domain | invariant-checking | DAG nodes |\n|---|---|---|---|\n",
    );
    for bench in suite() {
        let text = sufsat_suf::print_problem(&bench.tm, bench.formula);
        let file = format!("{}.suf", bench.name);
        std::fs::write(dir.join(&file), text).expect("write benchmark");
        index.push_str(&format!(
            "| {file} | {} | {} | {} |\n",
            bench.domain.label(),
            bench.invariant_checking,
            bench.dag_size()
        ));
    }
    std::fs::write(dir.join("README.md"), index).expect("write index");
    println!("wrote 49 benchmarks to {}", dir.display());
}

fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

fn non_invariant() -> Vec<Benchmark> {
    suite()
        .into_iter()
        .filter(|b| !b.invariant_checking)
        .collect()
}

fn invariant() -> Vec<Benchmark> {
    suite()
        .into_iter()
        .filter(|b| b.invariant_checking)
        .collect()
}

/// §4.1: automatic SEP_THOLD selection from EIJ runs on the training sample.
fn threshold_experiment(config: &Config, verbose: bool) -> usize {
    banner("Threshold selection (paper Section 4.1; paper derives 700)");
    let mut samples: Vec<ThresholdSample> = Vec::new();
    println!(
        "{:>14} {:>7} {:>10} {:>12}  status",
        "benchmark", "nodes", "sep-preds", "EIJ norm"
    );
    let results = parallel_map(training_sample(), config.jobs, |_, mut bench| {
        run_with(&mut bench, Method::Eij, config.run_config())
    });
    for r in results {
        let norm = r.normalized_time();
        samples.push(ThresholdSample {
            normalized_time: norm,
            sep_predicates: r.sep_predicates,
        });
        if verbose {
            println!(
                "{:>14} {:>7} {:>10} {:>12.3}  {}",
                r.name,
                r.dag_size,
                r.sep_predicates,
                norm,
                if r.completed { "ok" } else { "T/O" }
            );
        }
    }
    let threshold = select_threshold(&samples);
    println!("selected SEP_THOLD = {threshold}");
    let rows: Vec<String> = samples
        .iter()
        .map(|s| format!("{},{:.6}", s.sep_predicates, s.normalized_time))
        .collect();
    config.write_csv("threshold", "sep_predicates,eij_normalized_time", &rows);
    threshold
}

/// Figure 2: effect of the encoding on the SAT solver, five larger
/// non-invariant benchmarks.
fn fig2(config: &Config) {
    banner("Figure 2: SD vs EIJ effect on the SAT solver");
    println!(
        "{:>14} | {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9}",
        "benchmark", "CNF(SD)", "CNF(EIJ)", "confl(SD)", "confl(EIJ)", "sat(SD)", "sat(EIJ)"
    );
    // Like the paper's five "larger benchmarks", pick one large member of
    // five different problem domains (including an invariant-checking one
    // that both methods can still finish).
    let mut benches: Vec<Benchmark> = Vec::new();
    for domain in [
        sufsat_workloads::Domain::CacheCoherence,
        sufsat_workloads::Domain::DeviceDriver,
        sufsat_workloads::Domain::OooInvariant,
        sufsat_workloads::Domain::Pipeline,
        sufsat_workloads::Domain::TranslationValidation,
    ] {
        let picked = suite()
            .into_iter()
            .filter(|b| b.domain == domain)
            .filter(|b| {
                // For the invariant family take a mid-size member both
                // methods complete (the blow-up cases belong to Figure 5).
                domain != sufsat_workloads::Domain::OooInvariant || b.dag_size() < 260
            })
            .max_by_key(Benchmark::dag_size);
        if let Some(b) = picked {
            benches.push(b);
        }
    }
    let mut rows: Vec<String> = Vec::new();
    let pairs = parallel_map(benches, config.jobs, |_, mut bench| {
        let sd = run_with(&mut bench, Method::Sd, config.run_config());
        let eij = run_with(&mut bench, Method::Eij, config.run_config());
        (sd, eij)
    });
    for (sd, eij) in &pairs {
        println!(
            "{:>14} | {:>10} {:>10} | {:>9} {:>9} | {:>8.2}s {:>8.2}s",
            sd.name,
            sd.cnf_clauses,
            eij.cnf_clauses,
            sd.conflict_clauses,
            eij.conflict_clauses,
            sd.sat_time.as_secs_f64(),
            eij.sat_time.as_secs_f64(),
        );
        rows.push(format!(
            "{},{},{},{},{},{:.4},{:.4}",
            sd.name,
            sd.cnf_clauses,
            eij.cnf_clauses,
            sd.conflict_clauses,
            eij.conflict_clauses,
            sd.sat_time.as_secs_f64(),
            eij.sat_time.as_secs_f64()
        ));
    }
    config.write_csv(
        "fig2",
        "benchmark,cnf_sd,cnf_eij,conflicts_sd,conflicts_eij,sat_sd_s,sat_eij_s",
        &rows,
    );
    println!(
        "shape check: EIJ should have MORE CNF clauses but FEWER conflict \
         clauses and lower SAT time"
    );
}

/// Figure 3: normalized time vs separation-predicate count.
fn fig3(config: &Config) {
    banner("Figure 3: effect of #separation predicates on SD and EIJ");
    println!(
        "{:>14} {:>10} {:>14} {:>14}",
        "benchmark", "sep-preds", "SD s/Knodes", "EIJ s/Knodes"
    );
    let mut rows: Vec<(usize, String, RunResult, RunResult)> =
        parallel_map(training_sample(), config.jobs, |_, mut bench| {
            let sd = run_with(&mut bench, Method::Sd, config.run_config());
            let eij = run_with(&mut bench, Method::Eij, config.run_config());
            (sd.sep_predicates, sd.name.clone(), sd, eij)
        });
    rows.sort_by_key(|r| r.0);
    let csv_rows: Vec<String> = rows
        .iter()
        .map(|(preds, name, sd, eij)| {
            format!(
                "{name},{preds},{:.6},{},{:.6},{}",
                sd.normalized_time(),
                sd.completed,
                eij.normalized_time(),
                eij.completed
            )
        })
        .collect();
    config.write_csv(
        "fig3",
        "benchmark,sep_predicates,sd_norm_s_per_knode,sd_completed,eij_norm_s_per_knode,eij_completed",
        &csv_rows,
    );
    for (preds, name, sd, eij) in &rows {
        let fmt_norm = |r: &RunResult| {
            if r.completed {
                format!("{:14.3}", r.normalized_time())
            } else {
                format!("{:>11}>{:.1}", "T/O", r.normalized_time())
            }
        };
        println!(
            "{:>14} {:>10} {} {}",
            name,
            preds,
            fmt_norm(sd),
            fmt_norm(eij)
        );
    }
    println!(
        "shape check: EIJ normalized time should grow with sep-preds and \
         fall off a cliff (translation blow-up) at the high end"
    );
}

/// Figures 4 and 6 share the 39 non-invariant benchmarks.
///
/// One benchmark (all its methods) is one unit of parallel work; rows come
/// back in benchmark order whatever the completion order.
fn run_table(
    benches: Vec<Benchmark>,
    methods: &[Method],
    run_config: RunConfig,
    jobs: usize,
) -> Vec<Vec<RunResult>> {
    parallel_map(benches, jobs, |_, mut bench| {
        methods
            .iter()
            .map(|&m| run_with(&mut bench, m, run_config))
            .collect()
    })
}

fn print_table(methods: &[Method], table: &[Vec<RunResult>]) {
    print!("{:>14} {:>7}", "benchmark", "nodes");
    for m in methods {
        print!(" {:>12}", m.label());
    }
    println!();
    for row in table {
        print!("{:>14} {:>7}", row[0].name, row[0].dag_size);
        for r in row {
            print!("     {}", fmt_time(r));
        }
        println!();
    }
    // Aggregates: completions and wins.
    print!("{:>22}", "completed:");
    for (i, m) in methods.iter().enumerate() {
        let _ = m;
        let n = table.iter().filter(|row| row[i].completed).count();
        print!(" {:>12}", format!("{n}/{}", table.len()));
    }
    println!();
    print!("{:>22}", "fastest on:");
    for (i, _) in methods.iter().enumerate() {
        let wins = table
            .iter()
            .filter(|row| {
                row[i].completed
                    && row
                        .iter()
                        .enumerate()
                        .all(|(j, r)| j == i || !r.completed || row[i].total_time <= r.total_time)
            })
            .count();
        print!(" {:>12}", wins);
    }
    println!();
}

fn fig4(config: &Config) {
    let threshold = config.septhold.unwrap_or(sufsat_core::DEFAULT_SEP_THOLD);
    banner(&format!(
        "Figure 4: HYBRID({threshold}) vs SD and EIJ (39 non-invariant benchmarks)"
    ));
    let methods = [Method::Hybrid(threshold), Method::Sd, Method::Eij];
    let table = run_table(non_invariant(), &methods, config.run_config(), config.jobs);
    print_table(&methods, &table);
    write_table_csv(config, "fig4", &methods, &table);
    println!("shape check: HYBRID should complete everywhere and dominate overall");
}

fn write_table_csv(config: &Config, name: &str, methods: &[Method], table: &[Vec<RunResult>]) {
    let mut header = String::from("benchmark,nodes");
    for m in methods {
        header.push_str(&format!(",{0}_s,{0}_completed", m.label()));
    }
    let rows: Vec<String> = table
        .iter()
        .map(|row| {
            let mut line = format!("{},{}", row[0].name, row[0].dag_size);
            for r in row {
                line.push_str(&format!(
                    ",{:.4},{}",
                    r.total_time.as_secs_f64(),
                    r.completed
                ));
            }
            line
        })
        .collect();
    config.write_csv(name, &header, &rows);
}

fn fig5(config: &Config) {
    banner("Figure 5: invariant-checking benchmarks (SEP_THOLD = 100)");
    let methods = [Method::Hybrid(100), Method::Sd, Method::Eij];
    let table = run_table(invariant(), &methods, config.run_config(), config.jobs);
    print_table(&methods, &table);
    write_table_csv(config, "fig5", &methods, &table);
    println!("shape check: SD should win here; EIJ should time out on the large ones");
}

fn fig6(config: &Config) {
    let threshold = config.septhold.unwrap_or(sufsat_core::DEFAULT_SEP_THOLD);
    banner(&format!(
        "Figure 6: HYBRID({threshold}) vs SVC* and CVC* (39 non-invariant benchmarks)"
    ));
    let methods = [Method::Hybrid(threshold), Method::Svc, Method::Lazy];
    let table = run_table(non_invariant(), &methods, config.run_config(), config.jobs);
    print_table(&methods, &table);
    write_table_csv(config, "fig6", &methods, &table);
    println!(
        "shape check: baselines may win tiny conjunctive formulas; HYBRID \
         should scale to the large disjunctive ones"
    );
}

/// `fig-incremental`: incremental BMC (one persistent session across
/// depths) vs the from-scratch engine on the transition-system suite —
/// wall-clock, total SAT conflicts, and the session's reuse counters.
/// Verdicts must agree exactly; disagreement is a hard error.
fn fig_incremental(config: &Config) {
    use sufsat_core::{check_bounded_with_stats, BmcResult, DecideOptions};
    use sufsat_incremental::check_bounded_incremental_report;
    use sufsat_workloads::system_suite;

    banner("Incremental BMC: persistent session vs from-scratch, per system");
    let options = DecideOptions {
        timeout: Some(config.timeout),
        ..DecideOptions::default()
    };

    fn verdict_label(r: &BmcResult) -> String {
        match r {
            BmcResult::Bounded(b) => format!("safe@{b}"),
            BmcResult::CounterexampleAt { step, .. } => format!("cex@{step}"),
            BmcResult::Unknown { step, .. } => format!("unknown@{step}"),
        }
    }

    println!(
        "{:>12} {:>6} {:>9} | {:>10} {:>10} | {:>10} {:>10} {:>7} {:>7}",
        "system",
        "bound",
        "verdict",
        "scratch",
        "conflicts",
        "incr",
        "conflicts",
        "reused",
        "reenc",
    );
    let mut rows: Vec<String> = Vec::new();
    for bench in system_suite() {
        let mut tm_scratch = bench.tm.clone();
        let scratch_start = std::time::Instant::now();
        let (scratch, scratch_stats) =
            check_bounded_with_stats(&mut tm_scratch, &bench.system, bench.bound, &options);
        let scratch_time = scratch_start.elapsed();

        let mut tm_incr = bench.tm.clone();
        let incr_start = std::time::Instant::now();
        let (incr, report) =
            check_bounded_incremental_report(&mut tm_incr, &bench.system, bench.bound, &options);
        let incr_time = incr_start.elapsed();

        let agree = match (&scratch, &incr) {
            (BmcResult::Bounded(a), BmcResult::Bounded(b)) => a == b,
            (
                BmcResult::CounterexampleAt { step: a, .. },
                BmcResult::CounterexampleAt { step: b, .. },
            ) => a == b,
            (BmcResult::Unknown { .. }, BmcResult::Unknown { .. }) => true,
            _ => false,
        };
        assert!(
            agree,
            "{}: incremental verdict {} disagrees with from-scratch {}",
            bench.name,
            verdict_label(&incr),
            verdict_label(&scratch)
        );

        println!(
            "{:>12} {:>6} {:>9} | {:>10} {:>10} | {:>10} {:>10} {:>7} {:>7}",
            bench.name,
            bench.bound,
            verdict_label(&scratch),
            format!("{:.3}s", scratch_time.as_secs_f64()),
            scratch_stats.conflict_clauses,
            format!("{:.3}s", incr_time.as_secs_f64()),
            report.conflicts,
            report.reused_roots,
            report.reencodes,
        );
        rows.push(format!(
            "{},{},{},{:.6},{},{:.6},{},{},{},{}",
            bench.name,
            bench.bound,
            verdict_label(&scratch),
            scratch_time.as_secs_f64(),
            scratch_stats.conflict_clauses,
            incr_time.as_secs_f64(),
            report.conflicts,
            report.reused_roots,
            report.fresh_roots,
            report.reencodes,
        ));
    }
    config.write_csv(
        "fig-incremental",
        "system,bound,verdict,scratch_s,scratch_conflicts,incr_s,incr_conflicts,\
         reused_roots,fresh_roots,reencodes",
        &rows,
    );
    println!(
        "shape check: verdicts agree everywhere; the session should spend \
         fewer total conflicts than from-scratch once depth ≥ 3 (learnt \
         clauses and encodings carry across depths)"
    );
}
