//! `sufbench` — the end-to-end and per-layer benchmark of sufsat.
//!
//! ```text
//! sufbench --workload oneshot|certify|bmc|serve --seed N --seconds S
//!          --trace 0|1 [--sufsat PATH] [--repeat N]
//! ```
//!
//! One run builds the workload's inputs from the seed, measures for `S`
//! seconds in whole rounds of the same operations, checks every answer and
//! prints a `record` line followed by one JSON object as the last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from
//! spans around each layer's calls with `--trace 1`. Set-up and operation
//! costs are CPU time of the process doing the work (this one, or the
//! `serve` daemon), which on a shared virtual machine does not grow when
//! the hypervisor lends the processor to other guests; wall-time figures
//! go to the `record` line. `--repeat R` runs the
//! workload R times, each in a fresh process with seeds `N..N+R-1`, and
//! prints each run's result and each metric's median and quartiles. See
//! `README.md`.

mod bmc;
mod check;
mod host;
mod inputs;
mod oneshot;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use check::Tally;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sufsat: PathBuf,
    pub repeat: Option<usize>,
}

const USAGE: &str = "usage: sufbench --workload oneshot|certify|bmc|serve --seed N \
                     --seconds S --trace 0|1 [--sufsat PATH] [--repeat N]";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            sufsat: PathBuf::from("target/release/sufsat"),
            repeat: None,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag} value `{value}`");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--sufsat" => out.sufsat = PathBuf::from(&value),
                "--repeat" => out.repeat = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if !["oneshot", "certify", "bmc", "serve"].contains(&out.workload.as_str()) {
            return Err(format!("unknown workload `{}`", out.workload));
        }
        if out.seconds.is_nan() || out.seconds <= 0.0 {
            return Err("--seconds must be positive".to_owned());
        }
        if out.repeat == Some(0) {
            return Err("--repeat must be at least 1".to_owned());
        }
        Ok(out)
    }
}

/// One metric of the final line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Extra facts for the `record` line, as `(key, JSON value)`.
pub type Record = Vec<(&'static str, String)>;

/// The outcome of one run.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub record: Record,
}

impl Report {
    fn print(&self, args: &Args) {
        let mut record = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
             \"attempted\":{},\"failed\":{},\"wrong\":{}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::nproc(),
            self.tally.attempted,
            self.tally.failed,
            self.tally.wrong,
        );
        if let Some(first) = &self.tally.first_failure {
            record.push_str(",\"first_failure\":");
            sufsat_obs::json::escape_into(&mut record, first);
        }
        for (k, v) in &self.record {
            let _ = write!(record, ",\"{k}\":{v}");
        }
        record.push('}');
        println!("record {record}");

        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// Repetitions of a workload's set-up; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// This process's CPU time in seconds.
fn own_cpu_s() -> Result<f64, String> {
    host::cpu_s(None).ok_or_else(|| "cannot read this process's CPU time".to_owned())
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last value with the
/// median CPU time of one repetition in seconds. `setup` returns its value
/// and the CPU seconds spent by the processes it started (the `serve`
/// daemon's start-up), which count with this process's own. The first
/// repetition also carries all this process did since it started.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let mut cpu = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { 0.0 } else { own_cpu_s()? };
        let (value, children_s) = setup()?;
        cpu.push(own_cpu_s()? - start + children_s);
        last = Some(value);
    }
    let value = last.expect("at least one set-up repetition");
    Ok((value, stats::median(&cpu)))
}

/// Fewest whole rounds a run measures, however long they take. One
/// `oneshot` round takes most of a 20-second run, so without a floor a
/// slightly slower host would halve the run; two rounds also decide every
/// formula twice, so that its call-to-call variation partly averages out.
const MIN_ROUNDS: u32 = 2;

/// Wall, process CPU and host steal time over the timed phase.
pub struct Usage {
    start: Instant,
    cpu_s: Option<f64>,
    steal_s: Option<f64>,
}

impl Usage {
    pub fn start() -> Usage {
        Usage {
            start: Instant::now(),
            cpu_s: host::cpu_s(None),
            steal_s: host::steal_s(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether a run that has measured `rounds` whole rounds starts
    /// another: until it has [`MIN_ROUNDS`] and `seconds` have passed.
    pub fn another_round(&self, rounds: u32, seconds: f64) -> bool {
        rounds < MIN_ROUNDS || self.elapsed_s() < seconds
    }

    /// Record entries for the timed phase so far.
    pub fn record(&self) -> Record {
        let delta = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => format!("{:.2}", b - a),
            _ => "null".to_owned(),
        };
        vec![
            ("wall_s", format!("{:.3}", self.elapsed_s())),
            ("cpu_s", delta(self.cpu_s, host::cpu_s(None))),
            ("steal_s", delta(self.steal_s, host::steal_s())),
        ]
    }
}

/// The CPU and wall time of each operation of a timed phase.
#[derive(Default)]
pub struct Samples {
    pub cpu_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
}

impl Samples {
    /// Runs one operation and records its wall time and the CPU time the
    /// process doing the work spent meanwhile: this one when `pid` is
    /// `None`, else the daemon with that pid.
    pub fn measure<T>(&mut self, pid: Option<u32>, op: impl FnOnce() -> T) -> T {
        let cpu = host::cpu_s(pid);
        let start = Instant::now();
        let out = op();
        self.wall_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        let cost = match (cpu, host::cpu_s(pid)) {
            (Some(a), Some(b)) => (b - a) * 1000.0,
            _ => f64::NAN,
        };
        self.cpu_ms.push(cost);
        out
    }
}

/// The five end-to-end metrics, from the set-up CPU time, the peak
/// resident set and the per-operation samples of a timed phase.
/// `tail_pct` is the workload's tail percentile. The per-operation metrics
/// are CPU time; the record line carries the wall-time figures beside them.
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: f64,
    samples: &Samples,
    tail_pct: f64,
) -> Result<(Vec<Metric>, Record), String> {
    let cpu = &samples.cpu_ms;
    if cpu.is_empty() || cpu.iter().any(|c| !c.is_finite()) {
        return Err("no operation, or an operation whose CPU time could not be read".to_owned());
    }
    let (tail, beyond) = stats::percentile(cpu, tail_pct);
    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
        },
        Metric {
            name: "ops_per_cpu_s",
            unit: "1/s",
            value: cpu.len() as f64 / (cpu.iter().sum::<f64>() / 1000.0),
        },
        Metric {
            name: "p50_cpu_ms",
            unit: "ms",
            value: stats::median(cpu),
        },
        Metric {
            name: "tail_cpu_ms",
            unit: "ms",
            value: tail,
        },
    ];
    let record = vec![
        (
            "tail",
            format!(
                "{{\"percentile\":{tail_pct},\"samples\":{},\"beyond\":{beyond}}}",
                cpu.len()
            ),
        ),
        (
            "wall",
            format!(
                "{{\"p50_ms\":{:.3},\"tail_ms\":{:.3}}}",
                stats::median(&samples.wall_ms),
                stats::percentile(&samples.wall_ms, tail_pct).0
            ),
        ),
    ];
    Ok((metrics, record))
}

/// Every per-layer metric, with its unit. The layers are the crates.
const PER_LAYER: [(&str, &str); 24] = [
    ("suf.parse_ms", "ms"),
    ("suf.eliminate_ms", "ms"),
    ("seplog.analyze_ms", "ms"),
    ("encode.encode_ms", "ms"),
    ("encode.load_ms", "ms"),
    ("encode.trans_clauses", "count"),
    ("encode.cnf_clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.check_proof_ms", "ms"),
    ("sat.proof_steps", "count"),
    ("core.decode_ms", "ms"),
    ("cache.canonicalize_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_p50_ms", "ms"),
    ("cache.miss_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("incremental.translate_ms", "ms"),
    ("incremental.solve_ms", "ms"),
    ("incremental.reencodes", "count"),
    ("incremental.reuse_ratio", "ratio"),
];

/// The per-layer metrics of a traced run: `measured` for the layers the
/// workload exercises, 0 for the layers it never calls.
pub fn per_layer(measured: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in measured {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// Writes a traced run's spans to `.bench_trace/` and returns the record
/// entries describing them.
pub fn write_trace(tracer: &trace::Tracer, args: &Args) -> Result<Record, String> {
    let path =
        PathBuf::from(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let ops = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .count()
        .max(1);
    Ok(vec![
        ("trace_file", format!("\"{}\"", path.display())),
        ("spans", tracer.spans().len().to_string()),
        (
            "traced_op_ms",
            format!("{:.4}", tracer.total_ms("op") / ops as f64),
        ),
        (
            "span_coverage",
            format!("{:.4}", tracer.child_coverage("op")),
        ),
    ])
}

/// Runs the workload `args.repeat` times, each in a fresh process with
/// consecutive seeds, and prints every metric's median and quartiles.
fn repeat(args: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_shares = Vec::new();
    for i in 0..runs {
        let seed = args.seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--sufsat")
            .arg(&args.sufsat)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "run with seed {seed} failed: {}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim_end()
            ));
        }
        for line in stdout.lines().filter(|l| l.starts_with("record ")) {
            println!("{line}");
        }
        let last = stdout.lines().last().unwrap_or_default();
        println!("result {last}");
        let result = sufsat_obs::json::parse(last).map_err(|e| format!("seed {seed}: {e}"))?;
        let attempted = result
            .get("attempted")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let failed = result.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0);
        failed_shares.push(failed / attempted.max(1.0));
        if let Some(sufsat_obs::json::Json::Obj(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(|v| v.as_str())
                    .unwrap_or("")
                    .to_owned();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name.clone(), unit, vec![value])),
                }
            }
        }
    }
    println!(
        "{} × {} (seeds {}..{}, {} s, trace {}), failed share per run {:?}",
        runs,
        args.workload,
        args.seed,
        args.seed + runs as u64 - 1,
        args.seconds,
        u8::from(args.trace),
        failed_shares
    );
    println!(
        "{:<24} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "metric", "unit", "q1", "median", "q3", "iqr/med"
    );
    for (name, unit, v) in &values {
        if v.len() < 2 {
            continue;
        }
        let [q1, med, q3] = stats::quartiles(v);
        println!(
            "{name:<24} {unit:>6} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>8.3}",
            (q3 - q1) / med.abs()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sufbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return match repeat(&args, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sufbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match args.workload.as_str() {
        "oneshot" => oneshot::run(&args, false),
        "certify" => oneshot::run(&args, true),
        "bmc" => bmc::run(&args),
        _ => serve::run(&args),
    };
    match report {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sufbench: {e}");
            ExitCode::FAILURE
        }
    }
}
