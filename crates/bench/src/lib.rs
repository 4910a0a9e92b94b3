//! Shared experiment runner for the paper-reproduction harness.
//!
//! The `paper-eval` binary and the micro-benches both drive decision
//! procedures through [`run`], which applies a wall-clock timeout (standing
//! in for the paper's 30-minute limit, scaled down) and collects the
//! measurements each figure reports. [`parallel_map`] fans independent
//! runs across a bounded worker pool (the harness's `--jobs` flag) while
//! keeping result order deterministic.

#![warn(missing_docs)]

pub mod microbench;
pub mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sufsat_baselines::{decide_lazy, decide_svc, LazyOptions, SvcOptions};
use sufsat_core::{decide, DecideOptions, EncodingMode, Outcome, StopReason};
use sufsat_workloads::Benchmark;

/// Procedures compared in the paper's figures.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Method {
    /// Small-domain eager encoding.
    Sd,
    /// Per-constraint eager encoding.
    Eij,
    /// The hybrid with an explicit `SEP_THOLD`.
    Hybrid(usize),
    /// The earlier fixed hybrid rule.
    FixedHybrid,
    /// Lazy SAT-based procedure (CVC stand-in).
    Lazy,
    /// Case-splitting checker (SVC stand-in).
    Svc,
}

impl Method {
    /// Short column label.
    pub fn label(self) -> String {
        match self {
            Method::Sd => "SD".to_owned(),
            Method::Eij => "EIJ".to_owned(),
            Method::Hybrid(t) => format!("HYBRID({t})"),
            Method::FixedHybrid => "FIXED-HYB".to_owned(),
            Method::Lazy => "CVC*".to_owned(),
            Method::Svc => "SVC*".to_owned(),
        }
    }
}

/// Measurements of one (benchmark, method) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub name: String,
    /// Procedure used.
    pub method: Method,
    /// Whether the run answered within the timeout.
    pub completed: bool,
    /// Whether the answer was "valid".
    pub valid: Option<bool>,
    /// Total wall time (capped near the timeout when incomplete).
    pub total_time: Duration,
    /// Translation time (eager methods only).
    pub translate_time: Duration,
    /// SAT time (eager methods only).
    pub sat_time: Duration,
    /// CNF clause count (eager methods only; Figure 2).
    pub cnf_clauses: u64,
    /// Conflict clauses learnt (eager methods only; Figure 2).
    pub conflict_clauses: u64,
    /// Separation-predicate count of the formula (Figure 3's x-axis).
    pub sep_predicates: usize,
    /// DAG size of the input formula.
    pub dag_size: usize,
}

impl RunResult {
    /// Seconds per thousand DAG nodes (Figure 3's y-axis).
    pub fn normalized_time(&self) -> f64 {
        self.total_time.as_secs_f64() / (self.dag_size.max(1) as f64 / 1000.0)
    }
}

/// Harness knobs shared by every method in a run (see [`run_with`]).
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Wall-clock budget per (benchmark, method) pair.
    pub timeout: Duration,
    /// Enable SatELite-style CNF preprocessing in the eager procedures
    /// ([`DecideOptions::preprocess`]); ignored by the lazy/SVC baselines.
    pub preprocess: bool,
}

impl RunConfig {
    /// A config with the given timeout and everything else off.
    pub fn new(timeout: Duration) -> RunConfig {
        RunConfig {
            timeout,
            preprocess: false,
        }
    }
}

/// Runs `method` on `bench` under `timeout`, checking the answer against
/// the benchmark's expected validity.
///
/// # Panics
///
/// Panics if the procedure answers and the answer contradicts the
/// benchmark's known validity — a soundness bug would invalidate every
/// measurement, so the harness refuses to continue past one.
pub fn run(bench: &mut Benchmark, method: Method, timeout: Duration) -> RunResult {
    run_with(bench, method, RunConfig::new(timeout))
}

/// [`run`] with explicit harness knobs.
///
/// # Panics
///
/// Like [`run`], panics on a soundness violation against the benchmark's
/// known validity.
pub fn run_with(bench: &mut Benchmark, method: Method, config: RunConfig) -> RunResult {
    let timeout = config.timeout;
    let label = method.label();
    let span = sufsat_obs::span_with!(
        "bench.run",
        bench = bench.name.as_str(),
        method = label.as_str(),
        preprocess = config.preprocess,
    );
    let start = Instant::now();
    let dag_size = bench.dag_size();
    let mut result = RunResult {
        name: bench.name.clone(),
        method,
        completed: false,
        valid: None,
        total_time: Duration::ZERO,
        translate_time: Duration::ZERO,
        sat_time: Duration::ZERO,
        cnf_clauses: 0,
        conflict_clauses: 0,
        sep_predicates: 0,
        dag_size,
    };
    let outcome = match method {
        Method::Sd | Method::Eij | Method::Hybrid(_) | Method::FixedHybrid => {
            let mode = match method {
                Method::Sd => EncodingMode::Sd,
                Method::Eij => EncodingMode::Eij,
                Method::Hybrid(t) => EncodingMode::Hybrid(t),
                Method::FixedHybrid => EncodingMode::FixedHybrid,
                _ => unreachable!(),
            };
            let mut options = DecideOptions::with_mode(mode);
            options.timeout = Some(timeout);
            options.preprocess = config.preprocess;
            // The translation-budget proxy for the paper's EIJ
            // translation-stage timeouts.
            options.trans_budget = 3_000_000;
            let d = decide(&mut bench.tm, bench.formula, &options);
            result.translate_time = d.stats.translate_time;
            result.sat_time = d.stats.sat_time;
            result.cnf_clauses = d.stats.cnf_clauses;
            result.conflict_clauses = d.stats.conflict_clauses;
            result.sep_predicates = d.stats.sep_predicates;
            d.outcome
        }
        Method::Lazy => {
            let options = LazyOptions {
                timeout: Some(timeout),
                ..LazyOptions::default()
            };
            let (outcome, _) = decide_lazy(&mut bench.tm, bench.formula, &options);
            outcome
        }
        Method::Svc => {
            let options = SvcOptions {
                timeout: Some(timeout),
                ..SvcOptions::default()
            };
            let (outcome, _) = decide_svc(&mut bench.tm, bench.formula, &options);
            outcome
        }
    };
    result.total_time = start.elapsed();
    match outcome {
        Outcome::Valid => {
            result.completed = true;
            result.valid = Some(true);
        }
        Outcome::Invalid(_) => {
            result.completed = true;
            result.valid = Some(false);
        }
        Outcome::Unknown(reason) => {
            result.completed = false;
            // Translation blow-up counts as a timeout, like the paper's
            // EIJ runs that "fail to go beyond the formula translation
            // stage".
            let _ = reason;
            result.total_time = result.total_time.max(timeout);
        }
    }
    if let (Some(expected), Some(got)) = (bench.expected, result.valid) {
        assert_eq!(
            got, expected,
            "soundness violation on benchmark {} with {:?}",
            bench.name, method
        );
    }
    if span.is_recording() {
        // The figure reconstruction (`paper-eval report`) reads exactly
        // this event; the counts are copied from `DecideStats` above, so
        // the reconstructed table matches the live run field-for-field.
        sufsat_obs::event!(
            "bench.result",
            bench = result.name.as_str(),
            method = label.as_str(),
            verdict = match result.valid {
                Some(true) => "valid",
                Some(false) => "invalid",
                None => "unknown",
            },
            completed = result.completed,
            total_us = result.total_time.as_micros() as u64,
            translate_us = result.translate_time.as_micros() as u64,
            sat_us = result.sat_time.as_micros() as u64,
            cnf_clauses = result.cnf_clauses,
            conflict_clauses = result.conflict_clauses,
            sep_predicates = result.sep_predicates,
            dag_size = result.dag_size,
        );
    }
    result
}

/// Formats a run's total time as seconds with two decimals, or `T/O`.
pub fn fmt_time(r: &RunResult) -> String {
    if r.completed {
        format!("{:8.2}", r.total_time.as_secs_f64())
    } else {
        "     T/O".to_owned()
    }
}

/// Human-readable stop reason.
pub fn stop_label(reason: StopReason) -> &'static str {
    match reason {
        StopReason::TranslationBudget => "translation budget",
        StopReason::ConflictBudget => "conflict budget",
        StopReason::Timeout => "timeout",
        StopReason::Cancelled => "cancelled",
    }
}

/// Maps `items` through `f` on a bounded pool of `jobs` worker threads,
/// returning results in input order regardless of completion order.
///
/// `f` receives the item's input index alongside the item. With
/// `jobs <= 1` (or a single item) the map runs on the calling thread, so
/// `--jobs 1` harness runs measure exactly what a sequential harness
/// would.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Hand out items by index from a shared dispenser; each slot is taken
    // exactly once.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("slot taken once");
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_workloads::pipeline;

    #[test]
    fn runner_reports_measurements() {
        let mut bench = pipeline(2, 2, 1);
        let r = run(&mut bench, Method::Sd, Duration::from_secs(30));
        assert!(r.completed);
        assert_eq!(r.valid, Some(true));
        assert!(r.cnf_clauses > 0);
        assert!(r.dag_size > 10);
        assert!(r.normalized_time() >= 0.0);
    }

    #[test]
    fn all_methods_answer_small_benchmarks() {
        for method in [
            Method::Sd,
            Method::Eij,
            Method::Hybrid(700),
            Method::FixedHybrid,
            Method::Lazy,
            Method::Svc,
        ] {
            let mut bench = pipeline(1, 2, 2);
            let r = run(&mut bench, method, Duration::from_secs(30));
            assert!(r.completed, "{method:?}");
            assert_eq!(r.valid, Some(true), "{method:?}");
        }
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Method::Hybrid(700).label(), "HYBRID(700)");
        assert_eq!(Method::Lazy.label(), "CVC*");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [1, 3, 8, 64] {
            let out = parallel_map(items.clone(), jobs, |i, x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "jobs {jobs}");
        }
        assert!(parallel_map(Vec::<usize>::new(), 4, |_, x| x).is_empty());
    }
}
