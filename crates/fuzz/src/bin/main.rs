//! `sufsat-fuzz` — differential fuzzing CLI.
//!
//! Typical runs:
//!
//! ```text
//! sufsat-fuzz --seed 1 --cases 1000 --corpus fuzz-corpus
//! sufsat-fuzz --replay fuzz-corpus/case-…-disagreement.suf
//! ```
//!
//! Exit status is 0 when every case passed, 1 when any failure was
//! found (reproducers are written to the corpus directory), 2 on usage
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sufsat_fuzz::{
    default_procedures, read_reproducer, run_oracle, CampaignConfig, OracleOptions,
};
use sufsat_suf::TermManager;

const USAGE: &str = "\
sufsat-fuzz — differential fuzzing and self-checking oracle harness

USAGE:
    sufsat-fuzz [OPTIONS]
    sufsat-fuzz --replay <FILE>...

OPTIONS:
    --target <NAME>     what to fuzz: `oracle` (default) cross-checks the
                        decision procedures; `serve` throws malformed
                        frames at the sufsat-serve protocol parser
    --replay-hex <FILE> re-send a serve-protocol .hex reproducer (repeatable)
    --seed <N>          campaign seed (default 0)
    --cases <N>         number of generated cases (default 200)
    --ops <N>           construction steps per formula (default 18)
    --max-offset <N>    largest succ/pred offset magnitude (default 2)
    --timeout-ms <N>    per-procedure timeout (default 2000)
    --trans-budget <N>  transitivity-constraint budget (default 2000000)
    --corpus <DIR>      write reproducers here (default fuzz-corpus)
    --max-failures <N>  stop after N failures (default 10)
    --replay <FILE>     re-run the panel on a reproducer file (repeatable)
    --print-case <N>    print the generated problem for case N and exit
    --no-metamorphic    skip the metamorphic relation checks
    --no-baselines      drop the lazy/SVC baselines from the panel
    --no-certify        skip model replay and DRAT/RUP proof checking
    --no-shrink         report failures without minimizing them
    --only <NAMES>      keep only the named procedures on the panel
                        (comma-separated, e.g. `--only cached` or
                        `--only eager:sd,cached`)
    --list-procedures   print the panel for these options and exit
    --quiet             no progress output
    -h, --help          this text
";

struct Cli {
    config: CampaignConfig,
    target: String,
    replay: Vec<PathBuf>,
    replay_hex: Vec<PathBuf>,
    print_case: Option<usize>,
    list_procedures: bool,
    only: Option<Vec<String>>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut config = CampaignConfig {
        cases: 200,
        corpus_dir: Some(PathBuf::from("fuzz-corpus")),
        log_every: 50,
        ..CampaignConfig::default()
    };
    let mut target = "oracle".to_owned();
    let mut replay = Vec::new();
    let mut replay_hex = Vec::new();
    let mut print_case = None;
    let mut list_procedures = false;
    let mut only = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--target" => {
                target = value("--target")?.clone();
                if target != "oracle" && target != "serve" {
                    return Err(format!("unknown target: {target}"));
                }
            }
            "--replay-hex" => replay_hex.push(PathBuf::from(value("--replay-hex")?)),
            "--seed" => config.seed = parse_num(value("--seed")?)?,
            "--cases" => config.cases = parse_num(value("--cases")?)?,
            "--ops" => config.gen.ops = parse_num(value("--ops")?)?,
            "--max-offset" => config.gen.max_offset = parse_num(value("--max-offset")?)?,
            "--timeout-ms" => {
                config.oracle.timeout = Duration::from_millis(parse_num(value("--timeout-ms")?)?)
            }
            "--trans-budget" => {
                config.oracle.trans_budget = parse_num(value("--trans-budget")?)?
            }
            "--corpus" => config.corpus_dir = Some(PathBuf::from(value("--corpus")?)),
            "--max-failures" => config.max_failures = parse_num(value("--max-failures")?)?,
            "--replay" => replay.push(PathBuf::from(value("--replay")?)),
            "--print-case" => print_case = Some(parse_num(value("--print-case")?)?),
            "--no-metamorphic" => config.metamorphic = false,
            "--no-baselines" => config.oracle.include_baselines = false,
            "--no-certify" => config.oracle.certify = false,
            "--no-shrink" => config.shrink = false,
            "--only" => {
                only = Some(
                    value("--only")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .filter(|s| !s.is_empty())
                        .collect::<Vec<_>>(),
                );
            }
            "--list-procedures" => list_procedures = true,
            "--quiet" => config.log_every = 0,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Cli {
        config,
        target,
        replay,
        replay_hex,
        print_case,
        list_procedures,
        only,
    })
}

/// Builds the panel for `oracle` and applies the `--only` filter.
fn build_panel(
    oracle: &OracleOptions,
    only: Option<&[String]>,
) -> Result<Vec<sufsat_fuzz::Procedure>, String> {
    let mut procs = default_procedures(oracle);
    if let Some(names) = only {
        for name in names {
            if !procs.iter().any(|p| &p.name == name) {
                let panel: Vec<&str> = procs.iter().map(|p| p.name.as_str()).collect();
                return Err(format!(
                    "--only: no procedure named `{name}` (panel: {})",
                    panel.join(", ")
                ));
            }
        }
        procs.retain(|p| names.iter().any(|n| n == &p.name));
    }
    Ok(procs)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: {s}"))
}

fn replay_files(files: &[PathBuf], procs: &[sufsat_fuzz::Procedure]) -> ExitCode {
    let mut failed = false;
    for path in files {
        let mut tm = TermManager::new();
        let phi = match read_reproducer(&mut tm, path) {
            Ok(phi) => phi,
            Err(e) => {
                eprintln!("sufsat-fuzz: {e}");
                return ExitCode::from(2);
            }
        };
        match run_oracle(&tm, phi, procs) {
            Ok(report) => {
                let verdict = report
                    .consensus
                    .map_or("unknown".to_string(), |v| v.to_string());
                println!(
                    "{}: agreed ({verdict}, {} certified answers)",
                    path.display(),
                    report.certified_count()
                );
            }
            Err(err) => {
                failed = true;
                println!("{}: STILL FAILING — {err}", path.display());
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    sufsat_obs::init_from_env();
    let code = run();
    sufsat_obs::emit_counter_records();
    sufsat_obs::shutdown();
    code
}

fn run() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("sufsat-fuzz: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let procs = match build_panel(&cli.config.oracle, cli.only.as_deref()) {
        Ok(procs) => procs,
        Err(msg) => {
            eprintln!("sufsat-fuzz: {msg}");
            return ExitCode::from(2);
        }
    };

    if cli.list_procedures {
        for p in &procs {
            println!("{}", p.name);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(case_index) = cli.print_case {
        let seed = sufsat_fuzz::case_seed(cli.config.seed, case_index);
        let cfg = sufsat_fuzz::case_gen_config(&cli.config.gen, case_index);
        let mut tm = TermManager::new();
        let mut rng = sufsat_prng::Prng::seed_from_u64(seed);
        let phi = sufsat_fuzz::generate(&mut tm, &mut rng, &cfg);
        println!("; seed: {} case: {case_index}", cli.config.seed);
        println!("{}", sufsat_suf::print_problem(&tm, phi));
        return ExitCode::SUCCESS;
    }

    if !cli.replay_hex.is_empty() {
        let mut failed = false;
        for path in &cli.replay_hex {
            match sufsat_fuzz::replay_hex(path) {
                Ok(label) => println!("{}: ok ({label})", path.display()),
                Err(e) => {
                    failed = true;
                    println!("{}: STILL FAILING — {e}", path.display());
                }
            }
        }
        return if failed { ExitCode::from(1) } else { ExitCode::SUCCESS };
    }

    if !cli.replay.is_empty() {
        return replay_files(&cli.replay, &procs);
    }

    if cli.target == "serve" {
        let summary = sufsat_fuzz::run_serve_fuzz(&sufsat_fuzz::ServeFuzzConfig {
            seed: cli.config.seed,
            cases: cli.config.cases,
            corpus_dir: cli.config.corpus_dir.clone(),
            log_every: cli.config.log_every,
        });
        println!(
            "sufsat-fuzz[serve]: {} cases ({} error replies, {} hang-ups), {} probes ok, {} failures",
            summary.cases_run,
            summary.error_replies,
            summary.closed,
            summary.probes_ok,
            summary.failures.len()
        );
        for f in &summary.failures {
            println!("  case {}: {}", f.case_index, f.detail);
            if let Some(path) = &f.path {
                println!("    reproducer: {}", path.display());
            }
        }
        return if summary.clean() { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }

    let summary = sufsat_fuzz::run_campaign_with(&cli.config, &procs);
    println!(
        "sufsat-fuzz: {} cases ({} definitive), {} definitive answers, {} certified, \
         {} metamorphic checks, {} failures",
        summary.cases_run,
        summary.definitive_cases,
        summary.definitive_answers,
        summary.certified_answers,
        summary.meta_checks,
        summary.failures.len()
    );
    for f in &summary.failures {
        println!(
            "  case {} (seed {:#018x}) [{}]: {}",
            f.case_index, f.case_seed, f.kind, f.detail
        );
        println!("    shrunk ({} atoms): {}", f.atoms, f.shrunk_text);
        if let Some(path) = &f.path {
            println!("    reproducer: {}", path.display());
        }
    }
    if summary.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
