//! Runtime introspection: the `metrics`/`health`/`debug` protocol
//! replies and the zero-dependency plain-HTTP listener that exposes the
//! same data as Prometheus text (`GET /metrics`) and a JSON health probe
//! (`GET /health`).
//!
//! The HTTP side is deliberately minimal: one listener thread, one
//! request per connection, `Connection: close` semantics, a read budget
//! instead of a real parser. That is all a scraper or `curl` needs, and
//! it keeps the workspace dependency-free. The listener keeps answering
//! during a drain (that is when an operator most wants to look) and
//! exits once the server reaches its stopped state.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sufsat_obs::HistogramSnapshot;
use sufsat_sat::ProgressSnapshot;

use crate::protocol::ReplyBuilder;
use crate::server::Shared;

// ---- protocol replies --------------------------------------------------

/// A `{count, p50, p95, p99, max, mean}` JSON object for one histogram.
fn quantile_json(snap: &HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{},\"mean\":{}}}",
        snap.count(),
        snap.quantile(0.50),
        snap.quantile(0.95),
        snap.quantile(0.99),
        snap.max(),
        snap.mean(),
    )
}

fn progress_json(state: &str, p: &ProgressSnapshot) -> String {
    format!(
        "{{\"state\":\"{state}\",\"live\":{},\"conflicts\":{},\"decisions\":{},\
         \"propagations\":{},\"restarts\":{},\"trail_depth\":{},\"learnt_clauses\":{},\
         \"arena_bytes\":{},\"conflicts_per_s\":{},\"elapsed_us\":{}}}",
        (p.seq > 0) as u8,
        p.conflicts,
        p.decisions,
        p.propagations,
        p.restarts,
        p.trail_depth,
        p.learnt_clauses,
        p.arena_bytes,
        p.conflicts_per_s,
        p.elapsed_us,
    )
}

/// `"name":value` members of a JSON object, comma-separated.
fn json_members(fields: impl IntoIterator<Item = (&'static str, u64)>) -> String {
    let members: Vec<String> = fields
        .into_iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    members.join(",")
}

/// `N` named figures, in reply order.
type Figures<const N: usize> = [(&'static str, u64); N];

/// The result cache's counters and its gauges: the one list behind the
/// `metrics` reply's `cache` block and the `sufsat_cache_*` families.
/// Store figures read zero with the cache disabled.
fn cache_figures(shared: &Shared) -> (Figures<5>, Figures<2>) {
    let s = shared.cache_stats();
    (
        [
            ("hits", s.hits),
            ("misses", s.misses),
            ("coalesced", shared.cache_coalesced_now()),
            ("inserts", s.inserts),
            ("evictions", s.evictions),
        ],
        [("entries", s.entries), ("bytes", s.bytes)],
    )
}

/// The result-cache block of the `metrics` reply: store counters,
/// coalesced waits and the hit-latency distribution.
fn cache_json(shared: &Shared) -> String {
    let (counters, gauges) = cache_figures(shared);
    format!(
        "{{\"enabled\":{},{},\"hit_latency_us\":{}}}",
        shared.cache_enabled(),
        json_members(counters.into_iter().chain(gauges)),
        quantile_json(&shared.cache_hit_latency_snapshot()),
    )
}

/// The `metrics` op (and its alias `stats`): latency and queue-wait
/// distributions (since start and over the rolling window), counters,
/// gauges, result-cache state and per-worker solver progress, all in one
/// reply.
pub(crate) fn metrics_reply(shared: &Arc<Shared>, id: Option<u64>) -> Vec<u8> {
    let workers: Vec<String> = shared
        .worker_info()
        .iter()
        .map(|(state, p)| progress_json(state, p))
        .collect();
    ReplyBuilder::new(id, "ok")
        .u64_field("uptime_us", shared.uptime_us())
        .str_field("state", if shared.draining() { "draining" } else { "running" })
        .raw_field("latency_us", &quantile_json(&shared.latency_snapshot()))
        .raw_field("window_latency_us", &quantile_json(&shared.window_snapshot()))
        .raw_field("queue_wait_us", &quantile_json(&shared.queue_wait_snapshot()))
        .u64_field("queue_depth", shared.queue_depth() as u64)
        .i64_field("inflight", shared.inflight_now())
        .i64_field("open_sessions", shared.open_sessions_now())
        .i64_field("connections", shared.connections_now())
        .raw_field("counters", &format!("{{{}}}", json_members(shared.counters().fields())))
        .raw_field("cache", &cache_json(shared))
        .raw_field("workers", &format!("[{}]", workers.join(",")))
        .finish()
}

/// The `health` op: RUNNING/DRAINING plus worker liveness — the cheap
/// probe a load balancer or init system polls.
pub(crate) fn health_reply(shared: &Arc<Shared>, id: Option<u64>) -> Vec<u8> {
    let busy = shared
        .worker_info()
        .iter()
        .filter(|(state, _)| *state == "busy")
        .count();
    ReplyBuilder::new(id, "ok")
        .str_field("state", if shared.draining() { "draining" } else { "running" })
        .u64_field("workers", shared.workers_configured() as u64)
        .i64_field("workers_alive", shared.workers_alive_now())
        .u64_field("workers_busy", busy as u64)
        .i64_field("inflight", shared.inflight_now())
        .u64_field("uptime_us", shared.uptime_us())
        .finish()
}

/// The `debug` op (`"what": "slow_requests"`): the worst requests seen,
/// each with the solver progress snapshot captured when it finished.
pub(crate) fn debug_reply(shared: &Arc<Shared>, id: Option<u64>) -> Vec<u8> {
    let entries: Vec<String> = shared
        .slow_entries()
        .iter()
        .map(|e| {
            format!(
                "{{\"op\":\"{}\",\"conn\":{},\"status\":\"{}\",\"latency_us\":{},\
                 \"queue_wait_us\":{},\"finished_at_us\":{},\"progress\":{}}}",
                e.op,
                e.conn,
                e.status,
                e.latency_us,
                e.queue_wait_us,
                e.finished_at_us,
                progress_json("done", &e.progress),
            )
        })
        .collect();
    ReplyBuilder::new(id, "ok")
        .raw_field("slow_requests", &format!("[{}]", entries.join(",")))
        .finish()
}

// ---- Prometheus text exposition ---------------------------------------

fn push_histogram(out: &mut String, family: &str, snap: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {family} histogram\n"));
    let mut cumulative = 0u64;
    for (_, upper, count) in snap.nonzero_buckets() {
        cumulative += count;
        out.push_str(&format!("{family}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{family}_bucket{{le=\"+Inf\"}} {}\n", snap.count()));
    out.push_str(&format!("{family}_sum {}\n", snap.sum()));
    out.push_str(&format!("{family}_count {}\n", snap.count()));
}

fn push_gauge(out: &mut String, family: &str, value: i64) {
    out.push_str(&format!("# TYPE {family} gauge\n{family} {value}\n"));
}

fn push_counter(out: &mut String, family: &str, value: u64) {
    out.push_str(&format!("# TYPE {family} counter\n{family} {value}\n"));
}

/// Renders the whole introspection surface in the Prometheus text
/// format (version 0.0.4): server counters as `_total` counters, queue
/// and worker state as gauges, the latency/queue-wait distributions as
/// native histograms, and per-worker `sat.progress`-derived gauges.
pub(crate) fn render_prometheus(shared: &Shared) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in shared.counters().fields() {
        push_counter(&mut out, &format!("sufsat_{name}_total"), value);
    }

    push_gauge(&mut out, "sufsat_up", 1);
    push_gauge(&mut out, "sufsat_draining", i64::from(shared.draining()));
    push_gauge(&mut out, "sufsat_queue_depth", shared.queue_depth() as i64);
    push_gauge(&mut out, "sufsat_inflight", shared.inflight_now());
    push_gauge(&mut out, "sufsat_open_sessions", shared.open_sessions_now());
    push_gauge(&mut out, "sufsat_connections", shared.connections_now());
    push_gauge(&mut out, "sufsat_workers", shared.workers_configured() as i64);
    push_gauge(&mut out, "sufsat_workers_alive", shared.workers_alive_now());
    out.push_str(&format!(
        "# TYPE sufsat_uptime_seconds gauge\nsufsat_uptime_seconds {}\n",
        shared.uptime_us() / 1_000_000
    ));

    // Result-cache families are rendered unconditionally (all zeros with
    // the cache disabled) so scrapers can rely on their presence.
    let (counters, gauges) = cache_figures(shared);
    for (name, value) in counters {
        push_counter(&mut out, &format!("sufsat_cache_{name}_total"), value);
    }
    for (name, value) in gauges {
        push_gauge(&mut out, &format!("sufsat_cache_{name}"), value as i64);
    }
    push_gauge(&mut out, "sufsat_cache_enabled", i64::from(shared.cache_enabled()));

    push_histogram(&mut out, "sufsat_request_latency_us", &shared.latency_snapshot());
    push_histogram(&mut out, "sufsat_queue_wait_us", &shared.queue_wait_snapshot());
    push_histogram(&mut out, "sufsat_cache_hit_latency_us", &shared.cache_hit_latency_snapshot());

    // Per-worker solver progress, one labeled sample per worker. These
    // are gauges (not counters): they reset with every job.
    let info = shared.worker_info();
    for (family, pick) in [
        ("sufsat_worker_busy", None),
        ("sufsat_sat_conflicts", Some(0usize)),
        ("sufsat_sat_conflicts_per_s", Some(1)),
        ("sufsat_sat_trail_depth", Some(2)),
        ("sufsat_sat_learnt_clauses", Some(3)),
        ("sufsat_sat_arena_bytes", Some(4)),
    ] {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (i, (state, p)) in info.iter().enumerate() {
            let value = match pick {
                None => u64::from(*state == "busy"),
                Some(0) => p.conflicts,
                Some(1) => p.conflicts_per_s,
                Some(2) => p.trail_depth,
                Some(3) => p.learnt_clauses,
                _ => p.arena_bytes,
            };
            out.push_str(&format!("{family}{{worker=\"{i}\"}} {value}\n"));
        }
    }
    out
}

// ---- the HTTP listener -------------------------------------------------

/// Binds `addr` and spawns the listener thread. Returns the bound
/// address (for `addr` with port 0) and the thread handle; the thread
/// exits once the server is stopped and it receives one more connection
/// (the finalizer sends a throwaway one, mirroring the main acceptor).
pub(crate) fn spawn_metrics_listener(
    shared: Arc<Shared>,
    addr: &str,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("sufsat-metrics".to_owned())
        .spawn(move || metrics_listener_loop(&shared, &listener))?;
    sufsat_obs::event!("serve.metrics.listen", port = local.port() as u64);
    Ok((local, thread))
}

fn metrics_listener_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stopped() {
                    return;
                }
                continue;
            }
        };
        if shared.stopped() {
            return;
        }
        // One slow or hung scraper must not wedge the listener forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = answer_http(shared, stream);
    }
}

/// Reads one request head (bounded) and writes one response.
fn answer_http(shared: &Arc<Shared>, mut stream: TcpStream) -> io::Result<()> {
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head, EOF, or the buffer limit;
    // the paths served here never carry a body worth waiting for.
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        ("405 Method Not Allowed", "text/plain", "only GET is supported\n".to_owned())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus(shared),
            ),
            "/health" => {
                let state = if shared.draining() { "draining" } else { "running" };
                (
                    "200 OK",
                    "application/json",
                    format!(
                        "{{\"state\":\"{state}\",\"workers_alive\":{},\"inflight\":{}}}\n",
                        shared.workers_alive_now(),
                        shared.inflight_now(),
                    ),
                )
            }
            _ => ("404 Not Found", "text/plain", "try /metrics or /health\n".to_owned()),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}
