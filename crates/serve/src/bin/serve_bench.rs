//! `serve-bench` — load generator for the `sufsat-serve` daemon.
//!
//! Replays benchmark-suite `.suf` files against a server at configurable
//! concurrency and reports latency percentiles, throughput and the
//! admission-control overload rate.
//!
//! ```text
//! serve-bench [OPTIONS]
//!
//!     --addr HOST:PORT   drive an external daemon (default: spin an
//!                        in-process server and drive that)
//!     --workers N        in-process server worker threads (default 4)
//!     --queue-cap N      in-process server queue bound (default 64)
//!     --clients N        concurrent client connections (default 8)
//!     --requests N       requests per client (default: until --duration)
//!     --duration SECS    wall-clock budget per client (default 10)
//!     --timeout-ms N     per-request deadline (default 2000)
//!     --dir PATH         directory of .suf files (default benchmarks)
//!     --max-bytes N      skip files larger than N bytes (default 256k)
//!     --out PATH         write the JSON report here (default
//!                        BENCH_serve.json)
//!     --trace PATH       record a structured trace (in-process server
//!                        spans land in it too)
//!     --metrics-addr A   in-process server Prometheus listener address
//!                        (e.g. 127.0.0.1:9099); scrape GET /metrics
//!                        while the bench runs
//!     --zipf S           duplicate-heavy mode: draw workload files from
//!                        a Zipf(S) distribution instead of round-robin,
//!                        split latencies into cold (cache miss) and warm
//!                        (hit/coalesced) by the reply's `cache` field,
//!                        and hard-fail on any verdict flip for a file.
//!                        The report switches to `sufsat-cache-bench-v1`.
//!     --seed N           per-client PRNG seed base for --zipf (default 0)
//!     --check            with --zipf: exit 1 unless hit rate >= 0.5 and
//!                        warm p50 is at least 10x below cold p50
//! ```
//!
//! Exit code: 0 on success, 1 on a failed --check or a verdict flip,
//! 2 on usage/setup errors.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sufsat_obs::json::Json;
use sufsat_obs::HistogramBins;
use sufsat_serve::{render_json, reply_status, reply_verdict, Client, ServeOptions, Server};

struct Config {
    addr: Option<String>,
    workers: usize,
    queue_cap: usize,
    clients: usize,
    requests: Option<usize>,
    duration: Duration,
    timeout_ms: u64,
    dir: PathBuf,
    max_bytes: u64,
    out: PathBuf,
    trace: Option<String>,
    metrics_addr: Option<String>,
    zipf: Option<f64>,
    seed: u64,
    check: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            addr: None,
            workers: 4,
            queue_cap: 64,
            clients: 8,
            requests: None,
            duration: Duration::from_secs(10),
            timeout_ms: 2000,
            dir: PathBuf::from("benchmarks"),
            max_bytes: 256 * 1024,
            out: PathBuf::from("BENCH_serve.json"),
            trace: None,
            metrics_addr: None,
            zipf: None,
            seed: 0,
            check: false,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("serve-bench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| die(&format!("{name} needs a value")));
        match arg.as_str() {
            "--addr" => config.addr = Some(value("--addr")),
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| die("bad --workers")),
            "--queue-cap" => config.queue_cap = value("--queue-cap").parse().unwrap_or_else(|_| die("bad --queue-cap")),
            "--clients" => config.clients = value("--clients").parse().unwrap_or_else(|_| die("bad --clients")),
            "--requests" => config.requests = Some(value("--requests").parse().unwrap_or_else(|_| die("bad --requests"))),
            "--duration" => {
                let secs: f64 = value("--duration").parse().unwrap_or_else(|_| die("bad --duration"));
                config.duration = Duration::from_secs_f64(secs);
            }
            "--timeout-ms" => config.timeout_ms = value("--timeout-ms").parse().unwrap_or_else(|_| die("bad --timeout-ms")),
            "--dir" => config.dir = PathBuf::from(value("--dir")),
            "--max-bytes" => config.max_bytes = value("--max-bytes").parse().unwrap_or_else(|_| die("bad --max-bytes")),
            "--out" => config.out = PathBuf::from(value("--out")),
            "--trace" => config.trace = Some(value("--trace")),
            "--metrics-addr" => config.metrics_addr = Some(value("--metrics-addr")),
            "--zipf" => {
                let s: f64 = value("--zipf").parse().unwrap_or_else(|_| die("bad --zipf"));
                if !(s.is_finite() && s >= 0.0) {
                    die("bad --zipf: exponent must be finite and non-negative");
                }
                config.zipf = Some(s);
            }
            "--seed" => config.seed = value("--seed").parse().unwrap_or_else(|_| die("bad --seed")),
            "--check" => config.check = true,
            "--help" | "-h" => {
                println!("usage: serve-bench [--addr HOST:PORT] [--workers N] [--queue-cap N]");
                println!("                   [--clients N] [--requests N] [--duration SECS]");
                println!("                   [--timeout-ms N] [--dir PATH] [--max-bytes N]");
                println!("                   [--out PATH] [--trace PATH|stderr] [--metrics-addr HOST:PORT]");
                println!("                   [--zipf S] [--seed N] [--check]");
                std::process::exit(0);
            }
            other => die(&format!("unknown option `{other}`")),
        }
    }
    config
}

#[derive(Default)]
struct ClientTally {
    ok: u64,
    valid: u64,
    invalid: u64,
    unknown: u64,
    overloaded: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_coalesced: u64,
}

/// Zipf(s) sampler over ranks `0..n`: rank `r` has weight
/// `1/(r+1)^s`, drawn by binary search on the cumulative table.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut sufsat_prng::Prng) -> usize {
        let total = *self.cumulative.last().expect("non-empty workload");
        // 53 uniform mantissa bits are plenty for a workload-sized table.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative.partition_point(|&c| c <= u).min(self.cumulative.len() - 1)
    }
}

fn main() {
    let config = parse_args();
    match &config.trace {
        Some(target) => {
            if let Err(e) = sufsat_obs::init_to(target) {
                die(&format!("cannot open trace target {target}: {e}"));
            }
        }
        None => {
            sufsat_obs::init_from_env();
        }
    }

    // Workload: every .suf file in the directory, size-capped, sorted by
    // name so runs are reproducible.
    let mut files: Vec<(String, String)> = Vec::new();
    let entries = std::fs::read_dir(&config.dir)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", config.dir.display())));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "suf"))
        .collect();
    paths.sort();
    for path in paths {
        let meta = std::fs::metadata(&path);
        if meta.map(|m| m.len() > config.max_bytes).unwrap_or(true) {
            continue;
        }
        if let Ok(text) = std::fs::read_to_string(&path) {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.push((name, text));
        }
    }
    if files.is_empty() {
        die(&format!("no usable .suf files under {}", config.dir.display()));
    }
    let files = Arc::new(files);

    // The server: external, or an in-process one we own.
    let handle = if config.addr.is_some() {
        None
    } else {
        let opts = ServeOptions {
            workers: config.workers,
            queue_cap: config.queue_cap,
            metrics_addr: config.metrics_addr.clone(),
            ..ServeOptions::default()
        };
        Some(Server::bind("127.0.0.1:0", opts).unwrap_or_else(|e| die(&format!("bind: {e}"))))
    };
    let addr = config
        .addr
        .clone()
        .unwrap_or_else(|| handle.as_ref().unwrap().local_addr().to_string());
    if let Some(metrics) = handle.as_ref().and_then(|h| h.metrics_addr()) {
        eprintln!("serve-bench: Prometheus exposition on http://{metrics}/metrics");
    }

    eprintln!(
        "serve-bench: {} clients x {} against {} ({} workload files, timeout {} ms)",
        config.clients,
        config
            .requests
            .map(|n| format!("{n} requests"))
            .unwrap_or_else(|| format!("{:.1}s", config.duration.as_secs_f64())),
        addr,
        files.len(),
        config.timeout_ms,
    );

    let stop = Arc::new(AtomicBool::new(false));
    // Log-linear histograms shared by every client thread: recording is
    // a few relaxed atomics, so the load generator no longer pays a
    // per-request Vec push nor a final O(n log n) sort.
    let latency_hist = Arc::new(HistogramBins::new());
    let queue_wait_hist = Arc::new(HistogramBins::new());
    // Duplicate-heavy mode: cold (miss) and warm (hit/coalesced)
    // latencies land in separate histograms, and the first definitive
    // verdict per workload file is pinned — a later flip is a bug in the
    // cache, not noise, and fails the whole run.
    let cold_hist = Arc::new(HistogramBins::new());
    let warm_hist = Arc::new(HistogramBins::new());
    let first_verdicts = Arc::new(std::sync::Mutex::new(
        std::collections::HashMap::<usize, String>::new(),
    ));
    let verdict_flip = Arc::new(std::sync::Mutex::new(None::<String>));
    let zipf = config
        .zipf
        .map(|s| Arc::new(Zipf::new(files.len(), s)));
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for client_idx in 0..config.clients {
            let files = Arc::clone(&files);
            let stop = Arc::clone(&stop);
            let latency_hist = Arc::clone(&latency_hist);
            let queue_wait_hist = Arc::clone(&queue_wait_hist);
            let cold_hist = Arc::clone(&cold_hist);
            let warm_hist = Arc::clone(&warm_hist);
            let first_verdicts = Arc::clone(&first_verdicts);
            let verdict_flip = Arc::clone(&verdict_flip);
            let zipf = zipf.clone();
            let addr = addr.clone();
            let requests = config.requests;
            let duration = config.duration;
            let timeout_ms = config.timeout_ms;
            let seed = config.seed;
            joins.push(s.spawn(move || {
                let mut tally = ClientTally::default();
                let mut client = match Client::connect(&*addr) {
                    Ok(c) => c,
                    Err(_) => return tally,
                };
                let mut rng = sufsat_prng::Prng::seed_from_u64(seed + client_idx as u64);
                let deadline = Instant::now() + duration;
                let mut sent = 0usize;
                // Stagger clients across the workload.
                let mut next_file = client_idx % files.len();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match requests {
                        Some(n) if sent >= n => break,
                        None if Instant::now() >= deadline => break,
                        _ => {}
                    }
                    let file_idx = match &zipf {
                        Some(z) => z.sample(&mut rng),
                        None => {
                            let idx = next_file;
                            next_file = (next_file + 1) % files.len();
                            idx
                        }
                    };
                    let (name, problem) = &files[file_idx];
                    let t0 = Instant::now();
                    let reply = client.decide(problem, Some(Duration::from_millis(timeout_ms)));
                    let lat = t0.elapsed().as_micros() as u64;
                    sent += 1;
                    match reply {
                        Ok(reply) => match reply_status(&reply) {
                            "ok" => {
                                tally.ok += 1;
                                latency_hist.record(lat);
                                if let Some(q) = reply.get("queue_us").and_then(Json::as_u64) {
                                    queue_wait_hist.record(q);
                                }
                                let verdict = reply_verdict(&reply);
                                match verdict {
                                    "valid" => tally.valid += 1,
                                    "invalid" => tally.invalid += 1,
                                    _ => tally.unknown += 1,
                                }
                                match reply.get("cache").and_then(Json::as_str) {
                                    Some("hit") => {
                                        tally.cache_hits += 1;
                                        warm_hist.record(lat);
                                    }
                                    Some("coalesced") => {
                                        tally.cache_coalesced += 1;
                                        warm_hist.record(lat);
                                    }
                                    _ => {
                                        tally.cache_misses += 1;
                                        cold_hist.record(lat);
                                    }
                                }
                                if verdict == "valid" || verdict == "invalid" {
                                    let mut seen =
                                        first_verdicts.lock().unwrap_or_else(|e| e.into_inner());
                                    let prior = seen
                                        .entry(file_idx)
                                        .or_insert_with(|| verdict.to_owned());
                                    if prior != verdict {
                                        *verdict_flip
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner()) = Some(format!(
                                            "{name}: verdict flipped from {prior} to {verdict}"
                                        ));
                                        stop.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                            "overloaded" => tally.overloaded += 1,
                            _ => tally.errors += 1,
                        },
                        Err(_) => {
                            tally.errors += 1;
                            break;
                        }
                    }
                }
                tally
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let wall = started.elapsed();
    stop.store(true, Ordering::Relaxed);

    let mut ok = 0u64;
    let mut valid = 0u64;
    let mut invalid = 0u64;
    let mut unknown = 0u64;
    let mut overloaded = 0u64;
    let mut errors = 0u64;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut cache_coalesced = 0u64;
    for t in &tallies {
        ok += t.ok;
        valid += t.valid;
        invalid += t.invalid;
        unknown += t.unknown;
        overloaded += t.overloaded;
        errors += t.errors;
        cache_hits += t.cache_hits;
        cache_misses += t.cache_misses;
        cache_coalesced += t.cache_coalesced;
    }

    if let Some(detail) = verdict_flip.lock().unwrap_or_else(|e| e.into_inner()).take() {
        eprintln!("serve-bench: FAIL — cached verdict not equivalent to first solve: {detail}");
        std::process::exit(1);
    }
    let latency = latency_hist.snapshot();
    let queue_wait = queue_wait_hist.snapshot();
    let pct = |p: f64| latency.quantile(p);
    let total = ok + overloaded + errors;
    let throughput = if wall.as_secs_f64() > 0.0 {
        total as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    let overload_rate = if total > 0 {
        overloaded as f64 / total as f64
    } else {
        0.0
    };

    // Ask the daemon for its own view before draining it.
    let server_counters = Client::connect(&*addr)
        .ok()
        .and_then(|mut c| c.stats().ok())
        .and_then(|reply| reply.get("counters").map(render_json));
    let report = handle.map(|h| h.shutdown());

    let schema = if config.zipf.is_some() {
        "sufsat-cache-bench-v1"
    } else {
        "sufsat-serve-bench-v2"
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str(&format!(
        "  \"config\": {{\"clients\": {}, \"workers\": {}, \"queue_cap\": {}, \"timeout_ms\": {}, \"duration_s\": {:.3}, \"workload_files\": {}, \"external_addr\": {}, \"zipf\": {}, \"seed\": {}}},\n",
        config.clients,
        config.workers,
        config.queue_cap,
        config.timeout_ms,
        config.duration.as_secs_f64(),
        files.len(),
        config.addr.is_some(),
        config.zipf.map_or("null".to_owned(), |s| format!("{s}")),
        config.seed,
    ));
    out.push_str(&format!(
        "  \"totals\": {{\"requests\": {total}, \"ok\": {ok}, \"valid\": {valid}, \"invalid\": {invalid}, \"unknown\": {unknown}, \"overloaded\": {overloaded}, \"errors\": {errors}}},\n"
    ));
    out.push_str(&format!(
        "  \"latency_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}},\n",
        latency.count(),
        pct(0.50),
        pct(0.95),
        pct(0.99),
        latency.max(),
        latency.mean(),
    ));
    out.push_str(&format!(
        "  \"queue_wait_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}},\n",
        queue_wait.count(),
        queue_wait.quantile(0.50),
        queue_wait.quantile(0.95),
        queue_wait.quantile(0.99),
        queue_wait.max(),
        queue_wait.mean(),
    ));
    let cold = cold_hist.snapshot();
    let warm = warm_hist.snapshot();
    let warm_total = cache_hits + cache_coalesced;
    let hit_rate = if ok > 0 { warm_total as f64 / ok as f64 } else { 0.0 };
    if let Some(zipf) = config.zipf {
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {cache_hits}, \"misses\": {cache_misses}, \"coalesced\": {cache_coalesced}, \"hit_rate\": {hit_rate:.4}}},\n"
        ));
        out.push_str(&format!(
            "  \"cold_latency_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}},\n",
            cold.count(),
            cold.quantile(0.50),
            cold.quantile(0.95),
            cold.quantile(0.99),
            cold.max(),
            cold.mean(),
        ));
        out.push_str(&format!(
            "  \"warm_latency_us\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"mean\": {}}},\n",
            warm.count(),
            warm.quantile(0.50),
            warm.quantile(0.95),
            warm.quantile(0.99),
            warm.max(),
            warm.mean(),
        ));
        out.push_str(&format!(
            "  \"regenerate\": \"cargo run --release -p sufsat-serve --bin serve-bench -- --zipf {} --seed {} --clients {} --workers {} --duration {} --dir {} --out {}\",\n",
            zipf,
            config.seed,
            config.clients,
            config.workers,
            config.duration.as_secs_f64(),
            config.dir.display(),
            config.out.display(),
        ));
    }
    out.push_str(&format!(
        "  \"throughput_rps\": {throughput:.2},\n  \"overload_rate\": {overload_rate:.4},\n  \"wall_s\": {:.3}",
        wall.as_secs_f64()
    ));
    if let Some(counters) = server_counters {
        out.push_str(&format!(",\n  \"server_counters\": {counters}"));
    }
    if let Some(report) = &report {
        out.push_str(&format!(
            ",\n  \"drained\": {{\"inflight\": {}, \"queued\": {}, \"open_sessions\": {}}}",
            report.inflight, report.queued, report.open_sessions
        ));
    }
    out.push_str("\n}\n");

    let mut f = std::fs::File::create(&config.out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", config.out.display())));
    f.write_all(out.as_bytes())
        .unwrap_or_else(|e| die(&format!("write failed: {e}")));
    eprintln!(
        "serve-bench: {} requests in {:.2}s ({:.1} req/s) | p50 {} us, p95 {} us | {} overloaded, {} errors -> {}",
        total,
        wall.as_secs_f64(),
        throughput,
        pct(0.50),
        pct(0.95),
        overloaded,
        errors,
        config.out.display(),
    );
    if config.zipf.is_some() {
        eprintln!(
            "serve-bench: cache hit rate {:.1}% ({cache_hits} hits, {cache_coalesced} coalesced, {cache_misses} misses) | cold p50 {} us, warm p50 {} us",
            hit_rate * 100.0,
            cold.quantile(0.50),
            warm.quantile(0.50),
        );
        if config.check {
            let mut bad = Vec::new();
            if hit_rate < 0.5 {
                bad.push(format!("hit rate {hit_rate:.4} < 0.5"));
            }
            if warm.quantile(0.50).saturating_mul(10) > cold.quantile(0.50) {
                bad.push(format!(
                    "warm p50 {} us not >=10x below cold p50 {} us",
                    warm.quantile(0.50),
                    cold.quantile(0.50),
                ));
            }
            if !bad.is_empty() {
                eprintln!("serve-bench: FAIL --check: {}", bad.join("; "));
                sufsat_obs::emit_counter_records();
                sufsat_obs::shutdown();
                std::process::exit(1);
            }
            eprintln!("serve-bench: --check passed");
        }
    }
    sufsat_obs::emit_counter_records();
    sufsat_obs::shutdown();
}

