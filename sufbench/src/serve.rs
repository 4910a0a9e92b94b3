//! The `serve` workload: closed loop, one caller, against `sufsat serve
//! --workers 2`, which runs as its own process with its default result
//! cache. Each operation sends one `decide` request on one connection and
//! waits for the reply. Its cost is the CPU time the daemon spent
//! meanwhile, read from the daemon's CPU-time clock; with one request in
//! flight nothing else runs in the daemon, so that time is the request's.
//!
//! The traced run sends the same requests; each becomes a span split by
//! the reply's `queue_us` and `time_us` fields, and `parse_problem` and
//! `canonicalize` are timed in-process on the same texts after the run.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sufsat_obs::json::{self, Json};
use sufsat_serve::Client;
use sufsat_suf::{parse_problem, TermManager};

use crate::check::{self, Failure, Tally};
use crate::inputs::{self, Request};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::{end_to_end, host, per_layer, repeated_setup, Args, Report, Samples, Usage};

/// Tail percentile: the highest whole percentile with at least ten samples
/// beyond it at the sample count of a 20-second run on the reference host
/// (13–22 rounds of 100). It falls among the cache misses, which are a
/// tenth of the requests.
const TAIL_PCT: f64 = 99.0;

/// A `sufsat serve` child process, killed if it is still running when
/// dropped.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start(sufsat: &Path) -> Result<Daemon, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot find a free port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let child = Command::new(sufsat)
            .args(["serve", "--workers", "2", "--addr", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sufsat.display()))?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        while TcpStream::connect(addr).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("sufsat serve exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("sufsat serve did not listen within 10 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut client =
            sufsat_serve::Client::connect(self.addr).map_err(|e| format!("shutdown: {e}"))?;
        // The daemon may close the connection before its `ok` reply is
        // written: its stop path force-closes client connections as soon
        // as the drain completes. The exit status below is the real check.
        match client.shutdown_server() {
            Ok(_) | Err(sufsat_serve::ClientError::Closed) => {}
            Err(e) => return Err(format!("shutdown: {e:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("sufsat serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("sufsat serve did not drain within 20 s".to_owned()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What came back for one request.
struct Reply {
    status: String,
    verdict: String,
    cache: String,
    queue_us: f64,
    time_us: f64,
}

impl Reply {
    fn of(json: &Json) -> Reply {
        let text = |k: &str| json.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();
        let num = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        Reply {
            status: text("status"),
            verdict: text("verdict"),
            cache: text("cache"),
            queue_us: num("queue_us"),
            time_us: num("time_us"),
        }
    }
}

/// The frame payload of a `decide` request for `problem`.
fn decide_payload(id: usize, problem: &str) -> Vec<u8> {
    let mut body = format!("{{\"id\":{id},\"op\":\"decide\",\"problem\":");
    json::escape_into(&mut body, problem);
    body.push('}');
    body.into_bytes()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ((first_round, daemon), setup_s) = repeated_setup(|| {
        let round = inputs::serve_round(args.seed, 0);
        let daemon = Daemon::start(&args.sufsat)?;
        let daemon_cpu =
            host::cpu_s(Some(daemon.pid())).ok_or("cannot read the daemon's CPU time")?;
        Ok(((round, daemon), daemon_cpu))
    })?;
    let pid = daemon.pid();
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;

    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let mut requests: Vec<Request> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    let mut first_verdict: BTreeMap<usize, String> = BTreeMap::new();
    let mut next_round = Some(first_round);
    let mut rounds = 0u32;
    let mut broken = None;

    let daemon_cpu_start = host::cpu_s(Some(pid));
    let usage = Usage::start();
    while broken.is_none() && usage.another_round(rounds, args.seconds) {
        let round = next_round
            .take()
            .unwrap_or_else(|| inputs::serve_round(args.seed, rounds));
        let payloads: Vec<Vec<u8>> = round
            .iter()
            .enumerate()
            .map(|(k, r)| decide_payload(requests.len() + k, &r.text))
            .collect();
        for (request, payload) in round.into_iter().zip(payloads) {
            let name = format!("request {} (formula {})", requests.len(), request.formula);
            let answer = samples.measure(Some(pid), || {
                client
                    .send_raw(&payload)
                    .map_err(sufsat_serve::ClientError::from)
                    .and_then(|()| client.read_reply())
            });
            let reply = match answer {
                Ok(json) => Reply::of(&json),
                Err(e) => {
                    tally.record(&name, Err(Failure::Missing(format!("no reply: {e}"))));
                    broken = Some(e);
                    break;
                }
            };
            // The planted verdict, and the first occurrence's verdict for
            // every repeat, renamed or not.
            let mut result = check::verdict(request.valid, &reply.status, &reply.verdict);
            if result.is_ok() {
                let first = first_verdict
                    .entry(request.formula)
                    .or_insert_with(|| reply.verdict.clone());
                if *first != reply.verdict {
                    result = Err(Failure::Wrong(format!(
                        "repeat answered {}, first occurrence {first}",
                        reply.verdict
                    )));
                }
            }
            tally.record(&name, result);
            requests.push(request);
            replies.push(reply);
        }
        rounds += 1;
    }
    let peak_rss = host::peak_rss_mb(Some(pid));
    let daemon_cpu = match (daemon_cpu_start, host::cpu_s(Some(pid))) {
        (Some(a), Some(b)) => format!("{:.2}", b - a),
        _ => "null".to_owned(),
    };
    let mut record = usage.record();
    drop(client);
    daemon.stop()?;
    if let Some(e) = broken {
        return Err(format!("the connection to the daemon failed: {e}"));
    }

    let count = |status: &str| replies.iter().filter(|r| r.cache == status).count();
    let repeats = requests.iter().filter(|r| !r.first).count();
    record.extend([
        ("rounds", rounds.to_string()),
        ("daemon_cpu_s", daemon_cpu),
        (
            "hit_share",
            format!("{:.4}", count("hit") as f64 / replies.len() as f64),
        ),
        (
            "planted_repeat_share",
            format!("{:.4}", repeats as f64 / requests.len() as f64),
        ),
        (
            "renamed_repeats",
            requests.iter().filter(|r| r.renamed).count().to_string(),
        ),
    ]);

    let metrics = if args.trace {
        let tracer = trace_requests(&requests, &replies, &samples.wall_ms);
        record.extend(crate::write_trace(&tracer, args)?);
        layer_metrics(&tracer, &replies, requests.len() as f64)
    } else {
        let peak = peak_rss.ok_or("cannot read the daemon's VmHWM")?;
        let (metrics, tail) = end_to_end(setup_s, peak, &samples, TAIL_PCT)?;
        record.extend(tail);
        metrics
    };
    Ok(Report {
        tally,
        metrics,
        record,
    })
}

/// One span per request, laid end to end as the closed loop sent them and
/// split into queue wait and service time from the reply and transport
/// (the rest); then `parse_problem` and `canonicalize` timed in-process on
/// every request text.
fn trace_requests(requests: &[Request], replies: &[Reply], wall_ms: &[f64]) -> Tracer {
    let mut tracer = Tracer::new();
    let mut start_us = 0.0;
    for (i, (reply, wall)) in replies.iter().zip(wall_ms).enumerate() {
        let op = i as u64;
        let latency_us = wall * 1000.0;
        let root = tracer.record(Span {
            op,
            parent: None,
            name: "op",
            start_us,
            dur_us: latency_us,
            fields: vec![
                ("hit", f64::from(u8::from(reply.cache == "hit"))),
                ("miss", f64::from(u8::from(reply.cache == "miss"))),
            ],
        });
        let transport_us = latency_us - reply.queue_us - reply.time_us;
        for (name, dur_us) in [
            ("serve.queue", reply.queue_us),
            ("serve.service", reply.time_us),
            ("serve.transport", transport_us),
        ] {
            tracer.record(Span {
                op,
                parent: Some(root),
                name,
                start_us,
                dur_us,
                fields: Vec::new(),
            });
        }
        start_us += latency_us;
    }
    for (i, request) in requests.iter().enumerate() {
        let op = i as u64;
        let mut tm = TermManager::new();
        let phi = tracer.time(op, None, "suf.parse", || {
            parse_problem(&mut tm, &request.text)
        });
        if let Ok(phi) = phi {
            tracer.time(op, None, "cache.canonicalize", || {
                std::hint::black_box(sufsat_cache::canonicalize(&tm, phi));
            });
        }
    }
    tracer
}

fn layer_metrics(tracer: &Tracer, answered: &[Reply], requests: f64) -> Vec<crate::Metric> {
    let ms = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    let service_of = |cache: &str| -> Vec<f64> {
        answered
            .iter()
            .filter(|r| r.cache == cache)
            .map(|r| r.time_us / 1000.0)
            .collect()
    };
    let lookups = answered
        .iter()
        .filter(|r| ["hit", "miss", "coalesced"].contains(&r.cache.as_str()))
        .count();
    let hits = service_of("hit");
    let queue: Vec<f64> = answered.iter().map(|r| r.queue_us / 1000.0).collect();
    per_layer(&[
        ("suf.parse_ms", tracer.total_ms("suf.parse") / requests),
        (
            "cache.canonicalize_ms",
            tracer.total_ms("cache.canonicalize") / requests,
        ),
        ("cache.hit_ratio", hits.len() as f64 / lookups.max(1) as f64),
        ("cache.hit_p50_ms", ms(hits)),
        ("cache.miss_p50_ms", ms(service_of("miss"))),
        ("serve.queue_p99_ms", percentile(&queue, 99.0).0),
        (
            "serve.service_p50_ms",
            ms(tracer.durations_ms("serve.service")),
        ),
        (
            "serve.transport_p50_ms",
            ms(tracer.durations_ms("serve.transport")),
        ),
    ])
}
