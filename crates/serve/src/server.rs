//! The resident daemon: acceptor, connection readers/writers, the
//! worker pool, admission control, deadline propagation and graceful
//! drain-then-stop shutdown.
//!
//! # Threads
//!
//! * one **acceptor** blocks in `TcpListener::accept` and spawns a
//!   reader/writer thread pair per connection;
//! * each connection **reader** parses frames and *admits* jobs — it
//!   never executes a solve itself, so it stays responsive and notices
//!   disconnects promptly even while this client's solve is running;
//! * each connection **writer** drains a channel of reply frames, so
//!   workers never block on a slow client socket;
//! * `workers` **solver threads** pull jobs from the bounded
//!   [`JobQueue`] and run them against the `sufsat-core` /
//!   `sufsat-incremental` stack.
//!
//! # Admission control
//!
//! The queue is bounded ([`ServeOptions::queue_cap`]). A request that
//! does not fit is answered `overloaded` *immediately* — the reader
//! thread never blocks on the queue, so under overload clients get fast
//! rejections instead of unbounded latency.
//!
//! # Deadlines and cancellation
//!
//! A request's `timeout_ms` starts at admission. The worker propagates
//! whatever remains into [`Solver::set_timeout`]-backed options and a
//! per-job [`CancelToken`]. A client that disconnects mid-solve has all
//! of its in-flight tokens cancelled by the reader's cleanup, so its
//! lane frees up within the solver's cancellation-poll latency.
//!
//! # Session ownership
//!
//! Incremental sessions belong to the connection that opened them. Ops
//! on one session execute in request order (a scheduled-slot pattern:
//! the session's op queue is drained by one worker at a time), and a
//! dropped connection reclaims every session it owned.
//!
//! [`Solver::set_timeout`]: sufsat_sat::Solver::set_timeout
//! [`CancelToken`]: sufsat_sat::CancelToken

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sufsat_cache::{
    canonicalize, CacheValue, CachedVerdict, Joined, ResultCache, StatsDigest, StoreStats,
};
use sufsat_core::{decide, DecideOptions, DecideStats, Outcome, SepAssignment, StopReason};
use sufsat_incremental::Session;
use sufsat_obs::{HistogramBins, RollingWindow};
use sufsat_sat::{CancelToken, ProgressHandle, ProgressSnapshot};
use sufsat_suf::{parse_problem, Sort, TermManager};

use crate::metrics::{
    debug_reply, health_reply, metrics_reply, spawn_metrics_listener,
};
use crate::protocol::{
    error_reply, overloaded_reply, parse_request, read_frame, write_frame, FrameError, Op,
    ReplyBuilder, Request, DEFAULT_MAX_FRAME,
};
use crate::queue::{JobQueue, PushError};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker (solver) threads. Default: available parallelism, capped
    /// at 8.
    pub workers: usize,
    /// Bound on queued jobs; the admission-control knob. Also bounds
    /// each session's private op backlog.
    pub queue_cap: usize,
    /// Cap on one frame's payload bytes.
    pub max_frame: usize,
    /// Deadline applied to requests that do not carry `timeout_ms`.
    /// `None` means such requests run unbounded.
    pub default_deadline: Option<Duration>,
    /// Cap on concurrently open sessions per connection.
    pub session_limit: usize,
    /// Optional address for the plain-HTTP introspection listener
    /// (`GET /metrics` in Prometheus text format, `GET /health`). `None`
    /// disables it; metrics stay reachable through the protocol's
    /// `metrics` op either way.
    pub metrics_addr: Option<String>,
    /// Byte budget of the canonicalizing result cache consulted by plain
    /// `decide` requests. `0` disables caching (and single-flight dedup)
    /// entirely.
    pub cache_bytes: usize,
    /// Optional path of the cache's append-only persistent log. Loaded
    /// (torn tail tolerated) at startup so a restarted daemon answers
    /// previously-seen queries warm; ignored when `cache_bytes == 0`.
    pub cache_path: Option<std::path::PathBuf>,
}

/// Default byte budget of the serve-side result cache (64 MiB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4);
        ServeOptions {
            workers,
            queue_cap: 64,
            max_frame: DEFAULT_MAX_FRAME,
            default_deadline: None,
            session_limit: 64,
            metrics_addr: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
            cache_path: None,
        }
    }
}

/// Monotonically increasing counters, snapshotted by the `stats` op and
/// by [`ServeReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames received that were answered with a reply: every parsed
    /// request plus malformed frames answered with an error. Once the
    /// server drains, `requests == ok + errors + overloaded` — every
    /// received frame settles into exactly one terminal bucket (the soak
    /// battery asserts this).
    pub requests: u64,
    /// `ok` replies sent.
    pub ok: u64,
    /// `error` replies sent.
    pub errors: u64,
    /// `overloaded` rejections.
    pub overloaded: u64,
    /// Solves whose verdict was `unknown:timeout` (including deadlines
    /// that expired while the job was still queued).
    pub timeouts: u64,
    /// Deadlines that expired before the worker even started the job.
    pub deadline_expired: u64,
    /// Jobs retired because their connection vanished mid-flight.
    pub cancelled: u64,
    /// Jobs that panicked (contained; the worker survives).
    pub panics: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
}

/// Final state handed back by [`ServerHandle::shutdown`] /
/// [`ServerHandle::wait`]; the soak tests assert the drain invariants on
/// it.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Jobs admitted but not completed at stop. Zero after a clean drain.
    pub inflight: i64,
    /// Jobs still queued at stop. Zero after a clean drain.
    pub queued: usize,
    /// Sessions still owned by some connection at stop. Zero once every
    /// connection was reaped.
    pub open_sessions: i64,
    /// The counters at stop.
    pub counters: CounterSnapshot,
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

const WORKER_IDLE: u8 = 0;
const WORKER_BUSY: u8 = 1;

/// Worst requests kept in the slow-request ring.
const SLOW_LOG_CAP: usize = 8;

/// Span of the rolling latency window the `metrics` op reports next to
/// the since-start histogram.
const LATENCY_WINDOW: Duration = Duration::from_secs(10);

/// How long the stop lets connection writers flush the replies queued
/// before it, after which the sockets of clients that stopped reading
/// are closed outright.
const CLOSE_LINGER: Duration = Duration::from_secs(2);

/// One slow-request record: what ran, how long it waited and executed,
/// and the solver's last progress heartbeat when it finished.
#[derive(Clone)]
pub(crate) struct SlowEntry {
    pub(crate) op: &'static str,
    pub(crate) conn: u64,
    pub(crate) latency_us: u64,
    pub(crate) queue_wait_us: u64,
    pub(crate) status: &'static str,
    pub(crate) progress: ProgressSnapshot,
    /// Microseconds since server start when the request finished.
    pub(crate) finished_at_us: u64,
}

pub(crate) struct Shared {
    opts: ServeOptions,
    queue: JobQueue<Work>,
    state: AtomicU8,
    inflight: AtomicI64,
    open_sessions: AtomicI64,
    connections: AtomicI64,
    next_session: AtomicU64,
    next_job: AtomicU64,
    started: Instant,
    done: Mutex<bool>,
    done_cv: Condvar,
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled whenever a connection thread removes its stream from
    /// `conn_streams` on the way out.
    conn_closed: Condvar,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
    c_requests: AtomicU64,
    c_ok: AtomicU64,
    c_errors: AtomicU64,
    c_overloaded: AtomicU64,
    c_timeouts: AtomicU64,
    c_deadline_expired: AtomicU64,
    c_cancelled: AtomicU64,
    c_panics: AtomicU64,
    c_sessions_opened: AtomicU64,
    /// Worker-executed request latency (admission → reply), since start.
    latency_hist: HistogramBins,
    /// Time between admission and a worker starting the job.
    queue_wait_hist: HistogramBins,
    /// Same latency stream over the last [`LATENCY_WINDOW`] only.
    latency_window: RollingWindow,
    /// Per-worker busy/idle flags, indexed by worker number.
    worker_states: Box<[AtomicU8]>,
    /// Per-worker solver heartbeats; cleared between jobs so a snapshot
    /// reflects the job the worker is running *now*.
    worker_progress: Box<[ProgressHandle]>,
    /// Workers whose loop is currently alive (liveness for `health`).
    workers_alive: AtomicI64,
    /// The [`SLOW_LOG_CAP`] worst requests by latency.
    slow_log: Mutex<Vec<SlowEntry>>,
    /// Canonicalizing result cache for plain `decide` requests; `None`
    /// when `cache_bytes == 0`.
    cache: Option<Arc<ResultCache>>,
    /// Requests answered from another request's in-flight computation
    /// (single-flight followers). Counted as hits in the hit rate.
    c_cache_coalesced: AtomicU64,
    /// Execution latency of store hits only (admission wait excluded) —
    /// the warm-path number the cache bench gates on.
    cache_hit_latency: HistogramBins,
}

impl Shared {
    pub(crate) fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            requests: self.c_requests.load(Ordering::Relaxed),
            ok: self.c_ok.load(Ordering::Relaxed),
            errors: self.c_errors.load(Ordering::Relaxed),
            overloaded: self.c_overloaded.load(Ordering::Relaxed),
            timeouts: self.c_timeouts.load(Ordering::Relaxed),
            deadline_expired: self.c_deadline_expired.load(Ordering::Relaxed),
            cancelled: self.c_cancelled.load(Ordering::Relaxed),
            panics: self.c_panics.load(Ordering::Relaxed),
            sessions_opened: self.c_sessions_opened.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_RUNNING
    }

    pub(crate) fn stopped(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_STOPPED
    }

    fn begin_drain(&self) {
        let flipped = self
            .state
            .compare_exchange(
                STATE_RUNNING,
                STATE_DRAINING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if flipped {
            sufsat_obs::event!("serve.drain", queued = self.queue.len() as u64);
            self.queue.begin_drain();
            self.maybe_signal_drained();
        }
    }

    fn maybe_signal_drained(&self) {
        if self.draining()
            && self.inflight.load(Ordering::Acquire) == 0
            && self.queue.is_empty()
        {
            let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn gauges(&self) {
        static QUEUE_DEPTH: sufsat_obs::Gauge = sufsat_obs::Gauge::new("serve.queue_depth");
        static INFLIGHT: sufsat_obs::Gauge = sufsat_obs::Gauge::new("serve.inflight");
        static SESSIONS: sufsat_obs::Gauge = sufsat_obs::Gauge::new("serve.open_sessions");
        static CONNS: sufsat_obs::Gauge = sufsat_obs::Gauge::new("serve.connections");
        QUEUE_DEPTH.set(self.queue.len() as i64);
        INFLIGHT.set(self.inflight.load(Ordering::Relaxed));
        SESSIONS.set(self.open_sessions.load(Ordering::Relaxed));
        CONNS.set(self.connections.load(Ordering::Relaxed));
    }

    // ---- introspection surface (metrics/health/debug, /metrics) -------

    pub(crate) fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn inflight_now(&self) -> i64 {
        self.inflight.load(Ordering::Acquire)
    }

    pub(crate) fn open_sessions_now(&self) -> i64 {
        self.open_sessions.load(Ordering::Acquire)
    }

    pub(crate) fn connections_now(&self) -> i64 {
        self.connections.load(Ordering::Acquire)
    }

    pub(crate) fn workers_configured(&self) -> usize {
        self.worker_states.len()
    }

    pub(crate) fn workers_alive_now(&self) -> i64 {
        self.workers_alive.load(Ordering::Acquire)
    }

    pub(crate) fn latency_snapshot(&self) -> sufsat_obs::HistogramSnapshot {
        self.latency_hist.snapshot()
    }

    pub(crate) fn queue_wait_snapshot(&self) -> sufsat_obs::HistogramSnapshot {
        self.queue_wait_hist.snapshot()
    }

    pub(crate) fn window_snapshot(&self) -> sufsat_obs::HistogramSnapshot {
        self.latency_window.snapshot()
    }

    /// Whether the result cache is enabled.
    pub(crate) fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The result cache's store counters (all-zero when disabled, so the
    /// `/metrics` families render unconditionally).
    pub(crate) fn cache_stats(&self) -> StoreStats {
        self.cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Requests answered by coalescing onto another request's solve.
    pub(crate) fn cache_coalesced_now(&self) -> u64 {
        self.c_cache_coalesced.load(Ordering::Relaxed)
    }

    /// Execution-latency snapshot of cache hits.
    pub(crate) fn cache_hit_latency_snapshot(&self) -> sufsat_obs::HistogramSnapshot {
        self.cache_hit_latency.snapshot()
    }

    /// Per-worker `(state, progress)` pairs, indexed by worker number.
    pub(crate) fn worker_info(&self) -> Vec<(&'static str, ProgressSnapshot)> {
        self.worker_states
            .iter()
            .zip(self.worker_progress.iter())
            .map(|(state, progress)| {
                let label = if state.load(Ordering::Relaxed) == WORKER_BUSY {
                    "busy"
                } else {
                    "idle"
                };
                (label, progress.snapshot())
            })
            .collect()
    }

    /// The slow-request log, worst first.
    pub(crate) fn slow_entries(&self) -> Vec<SlowEntry> {
        let mut entries = self
            .slow_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        entries
    }

    /// Accounts a finished worker-executed request into the latency and
    /// queue-wait histograms, the rolling window, and — when it ranks
    /// among the worst seen — the slow-request log.
    fn record_request(
        &self,
        op: &'static str,
        conn: u64,
        status: &'static str,
        queue_wait: Duration,
        admitted_at: Instant,
        progress: ProgressSnapshot,
    ) {
        static LATENCY: sufsat_obs::Histogram = sufsat_obs::Histogram::new("serve.latency_us");
        static QUEUE_WAIT: sufsat_obs::Histogram =
            sufsat_obs::Histogram::new("serve.queue_wait_us");
        let latency_us = admitted_at.elapsed().as_micros() as u64;
        let queue_wait_us = queue_wait.as_micros() as u64;
        self.latency_hist.record(latency_us);
        self.queue_wait_hist.record(queue_wait_us);
        self.latency_window.record(latency_us);
        LATENCY.record(latency_us);
        QUEUE_WAIT.record(queue_wait_us);

        let entry = SlowEntry {
            op,
            conn,
            latency_us,
            queue_wait_us,
            status,
            progress,
            finished_at_us: self.uptime_us(),
        };
        let inserted = {
            let mut log = self.slow_log.lock().unwrap_or_else(|e| e.into_inner());
            if log.len() < SLOW_LOG_CAP {
                log.push(entry);
                true
            } else {
                // Displace the mildest entry if this one is worse.
                let (mildest, min_latency) = log
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (i, e.latency_us))
                    .min_by_key(|&(_, l)| l)
                    .expect("log is non-empty at cap");
                if latency_us > min_latency {
                    log[mildest] = entry;
                    true
                } else {
                    false
                }
            }
        };
        if inserted {
            sufsat_obs::event!(
                "serve.slow_request",
                op = op,
                conn = conn,
                status = status,
                latency_us = latency_us,
                queue_wait_us = queue_wait_us,
                conflicts = progress.conflicts,
            );
        }
    }
}

/// Per-connection state shared between the reader, the workers running
/// this connection's jobs, and cleanup.
struct ConnShared {
    conn_id: u64,
    /// Cancel tokens of this connection's in-flight jobs, keyed by job
    /// id. Cleanup cancels them all so a disconnect retires its lanes.
    live: Mutex<HashMap<u64, CancelToken>>,
    dead: std::sync::atomic::AtomicBool,
}

impl ConnShared {
    fn new(conn_id: u64) -> ConnShared {
        ConnShared {
            conn_id,
            live: Mutex::new(HashMap::new()),
            dead: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

enum SlotState {
    Idle(Box<Session>),
    Busy,
    Closed,
}

struct SlotInner {
    state: SlotState,
    pending: std::collections::VecDeque<SessionOpJob>,
    scheduled: bool,
}

/// One incremental session plus its serialization machinery.
struct SessionSlot {
    session_id: u64,
    inner: Mutex<SlotInner>,
}

enum SessionOpKind {
    Assert(String),
    Push,
    Pop,
    Check,
    Close,
}

impl SessionOpKind {
    fn label(&self) -> &'static str {
        match self {
            SessionOpKind::Assert(_) => "session-assert",
            SessionOpKind::Push => "session-push",
            SessionOpKind::Pop => "session-pop",
            SessionOpKind::Check => "session-check",
            SessionOpKind::Close => "session-close",
        }
    }
}

struct SessionOpJob {
    id: Option<u64>,
    kind: SessionOpKind,
    deadline: Option<Instant>,
    cancel: CancelToken,
    job_key: u64,
    admitted_at: Instant,
    reply: Sender<Vec<u8>>,
    conn: Arc<ConnShared>,
}

struct DecideJob {
    id: Option<u64>,
    problem: String,
    options: DecideOptions,
    deadline: Option<Instant>,
    cancel: CancelToken,
    job_key: u64,
    admitted_at: Instant,
    reply: Sender<Vec<u8>>,
    conn: Arc<ConnShared>,
}

enum Work {
    Decide(Box<DecideJob>),
    Session(Arc<SessionSlot>),
}

/// Factory for a running server. See the module docs for the design.
pub struct Server;

impl Server {
    /// Binds `addr` and starts the acceptor plus the worker pool.
    pub fn bind(addr: impl ToSocketAddrs, opts: ServeOptions) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = opts.workers.max(1);
        let cache = if opts.cache_bytes == 0 {
            None
        } else if let Some(path) = &opts.cache_path {
            let (cache, report) = ResultCache::with_persistence(opts.cache_bytes, path)?;
            sufsat_obs::event!(
                "serve.cache_loaded",
                records = report.unique as u64,
                truncated_bytes = report.truncated_bytes,
            );
            Some(Arc::new(cache))
        } else {
            Some(Arc::new(ResultCache::new(opts.cache_bytes)))
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(opts.queue_cap),
            opts,
            state: AtomicU8::new(STATE_RUNNING),
            inflight: AtomicI64::new(0),
            open_sessions: AtomicI64::new(0),
            connections: AtomicI64::new(0),
            next_session: AtomicU64::new(1),
            next_job: AtomicU64::new(1),
            started: Instant::now(),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            conn_streams: Mutex::new(HashMap::new()),
            conn_closed: Condvar::new(),
            conn_handles: Mutex::new(Vec::new()),
            c_requests: AtomicU64::new(0),
            c_ok: AtomicU64::new(0),
            c_errors: AtomicU64::new(0),
            c_overloaded: AtomicU64::new(0),
            c_timeouts: AtomicU64::new(0),
            c_deadline_expired: AtomicU64::new(0),
            c_cancelled: AtomicU64::new(0),
            c_panics: AtomicU64::new(0),
            c_sessions_opened: AtomicU64::new(0),
            latency_hist: HistogramBins::new(),
            queue_wait_hist: HistogramBins::new(),
            latency_window: RollingWindow::new(LATENCY_WINDOW),
            worker_states: (0..workers).map(|_| AtomicU8::new(WORKER_IDLE)).collect(),
            worker_progress: (0..workers).map(|_| ProgressHandle::new()).collect(),
            workers_alive: AtomicI64::new(0),
            slow_log: Mutex::new(Vec::new()),
            cache,
            c_cache_coalesced: AtomicU64::new(0),
            cache_hit_latency: HistogramBins::new(),
        });
        let metrics = match shared.opts.metrics_addr.clone() {
            Some(addr) => Some(spawn_metrics_listener(Arc::clone(&shared), &addr)?),
            None => None,
        };
        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sufsat-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sufsat-acceptor".to_owned())
                .spawn(move || acceptor_loop(&shared, listener))
                .expect("spawn acceptor")
        };
        sufsat_obs::event!(
            "serve.start",
            workers = workers as u64,
            queue_cap = shared.opts.queue_cap as u64,
            port = local_addr.port() as u64,
        );
        let (metrics_addr, metrics_thread) = match metrics {
            Some((addr, thread)) => (Some(addr), Some(thread)),
            None => (None, None),
        };
        Ok(ServerHandle {
            shared,
            local_addr,
            metrics_addr,
            acceptor: Some(acceptor),
            metrics_thread,
            workers: worker_handles,
        })
    }
}

/// Owner handle of a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    acceptor: Option<JoinHandle<()>>,
    metrics_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// A cloneable trigger that starts the graceful drain from any thread —
/// the SIGTERM hook of the `sufsat serve` binary uses one.
#[derive(Clone)]
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Starts the drain: admission stops, queued and running jobs
    /// complete, then the server stops.
    pub fn begin(&self) {
        self.shared.begin_drain();
    }

    /// Whether the drain has already started (via any trigger, a
    /// protocol `shutdown` request, or [`ServerHandle::shutdown`]).
    pub fn draining(&self) -> bool {
        self.shared.draining()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound address of the HTTP introspection listener, when
    /// [`ServeOptions::metrics_addr`] enabled one (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A trigger other threads can use to start the drain.
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Starts the drain and blocks until the server stopped.
    pub fn shutdown(self) -> ServeReport {
        self.shared.begin_drain();
        self.finalize()
    }

    /// Blocks until a `shutdown` request (or a [`ShutdownTrigger`])
    /// drains the server, then stops it.
    pub fn wait(self) -> ServeReport {
        self.finalize()
    }

    fn finalize(mut self) -> ServeReport {
        {
            let mut done = self
                .shared
                .done
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while !*done {
                done = self
                    .shared
                    .done_cv
                    .wait(done)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        self.shared.state.store(STATE_STOPPED, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Same trick for the HTTP introspection listener: it serves
        // through the drain and exits once it observes STATE_STOPPED.
        if let Some(metrics_thread) = self.metrics_thread.take() {
            if let Some(addr) = self.metrics_addr {
                let _ = TcpStream::connect(addr);
            }
            let _ = metrics_thread.join();
        }
        // Half-close the client connections: each reader sees EOF and
        // exits, and each writer then flushes every reply queued so far —
        // the `shutdown` op's own `ok` among them — before its socket
        // closes. A writer blocked on a client that stopped reading is
        // cut off by the full close after the linger.
        {
            let streams = self
                .shared
                .conn_streams
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for stream in streams.values() {
                let _ = stream.shutdown(std::net::Shutdown::Read);
            }
            let (streams, _) = self
                .shared
                .conn_closed
                .wait_timeout_while(streams, CLOSE_LINGER, |s| !s.is_empty())
                .unwrap_or_else(|e| e.into_inner());
            for stream in streams.values() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let conn_handles = std::mem::take(
            &mut *self
                .shared
                .conn_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in conn_handles {
            let _ = h.join();
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        let report = ServeReport {
            inflight: self.shared.inflight.load(Ordering::Acquire),
            queued: self.shared.queue.len(),
            open_sessions: self.shared.open_sessions.load(Ordering::Acquire),
            counters: self.shared.counters(),
        };
        sufsat_obs::event!(
            "serve.stop",
            inflight = report.inflight,
            open_sessions = report.open_sessions,
            requests = report.counters.requests,
        );
        report
    }
}

// ---- acceptor & connections -------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.state.load(Ordering::Acquire) == STATE_STOPPED {
                    return;
                }
                continue;
            }
        };
        if shared.state.load(Ordering::Acquire) == STATE_STOPPED {
            return;
        }
        if shared.draining() {
            // Drain phase: no new conversations.
            let mut s = stream;
            let _ = write_frame(&mut s, &error_reply(None, "server is shutting down"));
            continue;
        }
        let conn_id = shared.next_job.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conn_streams
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(conn_id, clone);
        }
        shared.connections.fetch_add(1, Ordering::AcqRel);
        shared.gauges();
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("sufsat-conn-{conn_id}"))
            .spawn(move || serve_connection(&shared2, conn_id, stream))
            .expect("spawn connection thread");
        let mut handles = shared
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // A finished connection's handle would keep its thread's stack
        // mapped until shutdown; dropping it releases the thread now.
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }
}

fn serve_connection(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(ConnShared::new(conn_id));
    let mut sessions: HashMap<u64, Arc<SessionSlot>> = HashMap::new();
    let (tx, rx) = mpsc::channel::<Vec<u8>>();
    let writer = match stream.try_clone() {
        Ok(write_half) => Some(
            std::thread::Builder::new()
                .name(format!("sufsat-conn-{conn_id}-w"))
                .spawn(move || writer_loop(write_half, rx))
                .expect("spawn connection writer"),
        ),
        Err(_) => None,
    };
    if writer.is_some() {
        let mut reader = BufReader::new(stream);
        let result = catch_unwind(AssertUnwindSafe(|| {
            read_loop(shared, &conn, &mut sessions, &mut reader, &tx)
        }));
        if result.is_err() {
            shared.c_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
    cleanup_connection(shared, &conn, &mut sessions);
    drop(tx);
    if let Some(w) = writer {
        let _ = w.join();
    }
    shared
        .conn_streams
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
    shared.conn_closed.notify_all();
    shared.connections.fetch_sub(1, Ordering::AcqRel);
    shared.gauges();
}

fn writer_loop(stream: TcpStream, rx: Receiver<Vec<u8>>) {
    let mut w = io::BufWriter::new(stream);
    while let Ok(payload) = rx.recv() {
        if write_frame(&mut w, &payload).is_err() {
            return;
        }
    }
    let _ = w.flush();
}

fn send(reply: &Sender<Vec<u8>>, payload: Vec<u8>) {
    let _ = reply.send(payload);
}

/// Cancels the connection's in-flight jobs and reclaims its sessions.
/// Idempotent; runs when the reader finishes for any reason.
fn cleanup_connection(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
) {
    if conn.dead.swap(true, Ordering::AcqRel) {
        return;
    }
    let live = conn.live.lock().unwrap_or_else(|e| e.into_inner());
    let retired = live.len() as u64;
    for token in live.values() {
        token.cancel();
    }
    drop(live);
    for (_, slot) in sessions.drain() {
        let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Queued-but-unstarted ops die with the connection: account
        // their in-flight slots back. A Busy op stays counted; its
        // cancelled worker completes it. Each dropped op settles as an
        // error so `requests == ok + errors + overloaded` still holds at
        // drain (nobody is left to read a reply, so none is built).
        let dropped = inner.pending.len() as i64;
        inner.pending.clear();
        if dropped > 0 {
            shared.c_errors.fetch_add(dropped as u64, Ordering::Relaxed);
        }
        match std::mem::replace(&mut inner.state, SlotState::Closed) {
            SlotState::Idle(session) => {
                drop(session);
                shared.open_sessions.fetch_sub(1, Ordering::AcqRel);
            }
            // Busy: the worker observes `Closed` when it tries to put
            // the session back and drops it then.
            SlotState::Busy | SlotState::Closed => {}
        }
        drop(inner);
        if dropped > 0 {
            shared.inflight.fetch_sub(dropped, Ordering::AcqRel);
        }
    }
    if retired > 0 {
        shared.c_cancelled.fetch_add(retired, Ordering::Relaxed);
        sufsat_obs::event!("serve.conn.reaped", conn = conn.conn_id, cancelled = retired);
    }
    shared.gauges();
    shared.maybe_signal_drained();
}

fn read_loop(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
    reader: &mut impl Read,
    tx: &Sender<Vec<u8>>,
) {
    loop {
        match read_frame(reader, shared.opts.max_frame) {
            Ok(payload) => {
                if !handle_payload(shared, conn, sessions, &payload, tx) {
                    return;
                }
            }
            Err(e @ FrameError::Empty) => {
                // A malformed frame still counts as a received request:
                // `requests` tracks every answered frame so it reconciles
                // against `ok + errors + overloaded` at drain.
                shared.c_requests.fetch_add(1, Ordering::Relaxed);
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(tx, error_reply(None, &e.to_string()));
            }
            Err(FrameError::Closed) => return,
            Err(e @ FrameError::TooLarge(_)) => {
                // The stream is out of sync past this point: one last
                // diagnostic, then hang up.
                shared.c_requests.fetch_add(1, Ordering::Relaxed);
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(tx, error_reply(None, &e.to_string()));
                return;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
        }
    }
}

/// Handles one parsed frame. Returns `false` when the connection should
/// close.
fn handle_payload(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
    payload: &[u8],
    tx: &Sender<Vec<u8>>,
) -> bool {
    static REQUESTS: sufsat_obs::Counter = sufsat_obs::Counter::new("serve.requests");
    shared.c_requests.fetch_add(1, Ordering::Relaxed);
    REQUESTS.incr();
    let req = match parse_request(payload) {
        Ok(req) => req,
        Err((id, message)) => {
            shared.c_errors.fetch_add(1, Ordering::Relaxed);
            send(tx, error_reply(id, &message));
            return true;
        }
    };
    let id = req.id;
    match req.op {
        Op::Stats => {
            send(tx, stats_reply(shared, id));
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            true
        }
        // Introspection ops are answered inline by the reader thread, so
        // they keep working while the worker pool is saturated or the
        // server is draining.
        Op::Metrics => {
            send(tx, metrics_reply(shared, id));
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            true
        }
        Op::Health => {
            send(tx, health_reply(shared, id));
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            true
        }
        Op::Debug => {
            match req.what.as_deref() {
                Some("slow_requests") => {
                    send(tx, debug_reply(shared, id));
                    shared.c_ok.fetch_add(1, Ordering::Relaxed);
                }
                Some(what) => {
                    shared.c_errors.fetch_add(1, Ordering::Relaxed);
                    send(
                        tx,
                        error_reply(id, &format!("unknown debug dump \"{what}\"")),
                    );
                }
                None => {
                    shared.c_errors.fetch_add(1, Ordering::Relaxed);
                    send(tx, error_reply(id, "debug requires a \"what\" field"));
                }
            }
            true
        }
        Op::Shutdown => {
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            send(
                tx,
                ReplyBuilder::new(id, "ok").str_field("draining", "true").finish(),
            );
            shared.begin_drain();
            true
        }
        Op::SessionOpen => {
            if shared.draining() {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(tx, error_reply(id, "server is shutting down"));
                return true;
            }
            if sessions.len() >= shared.opts.session_limit {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(
                    tx,
                    error_reply(id, "session limit reached for this connection"),
                );
                return true;
            }
            let mut options = DecideOptions::default();
            if let Some(mode) = req.mode {
                options.mode = mode;
            }
            if let Some(cnf) = req.cnf {
                options.cnf = cnf;
            }
            options.preprocess = req.preprocess;
            let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::new(SessionSlot {
                session_id,
                inner: Mutex::new(SlotInner {
                    state: SlotState::Idle(Box::new(Session::new(options))),
                    pending: std::collections::VecDeque::new(),
                    scheduled: false,
                }),
            });
            sessions.insert(session_id, slot);
            shared.open_sessions.fetch_add(1, Ordering::AcqRel);
            shared.c_sessions_opened.fetch_add(1, Ordering::Relaxed);
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            shared.gauges();
            sufsat_obs::event!("serve.session.open", conn = conn.conn_id, session = session_id);
            send(
                tx,
                ReplyBuilder::new(id, "ok").u64_field("session", session_id).finish(),
            );
            true
        }
        Op::SessionAssert | Op::SessionPush | Op::SessionPop | Op::SessionCheck
        | Op::SessionClose => {
            let session_id = req.session.expect("validated by parse_request");
            let Some(slot) = sessions.get(&session_id).cloned() else {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(tx, error_reply(id, &format!("unknown session {session_id}")));
                return true;
            };
            let kind = match req.op {
                Op::SessionAssert => {
                    SessionOpKind::Assert(req.problem.clone().expect("validated"))
                }
                Op::SessionPush => SessionOpKind::Push,
                Op::SessionPop => SessionOpKind::Pop,
                Op::SessionCheck => SessionOpKind::Check,
                Op::SessionClose => SessionOpKind::Close,
                _ => unreachable!(),
            };
            let close = matches!(kind, SessionOpKind::Close);
            let admitted = enqueue_session_op(shared, conn, &slot, &req, kind, tx);
            if close && admitted {
                // The queued close op retires the slot; stop tracking it
                // so cleanup does not race it. A rejected close keeps the
                // session alive (and tracked).
                sessions.remove(&session_id);
            }
            true
        }
        Op::Decide => {
            if shared.draining() {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                send(tx, error_reply(id, "server is shutting down"));
                return true;
            }
            let mut options = DecideOptions::default();
            if let Some(mode) = req.mode {
                options.mode = mode;
            }
            if let Some(cnf) = req.cnf {
                options.cnf = cnf;
            }
            options.preprocess = req.preprocess;
            let cancel = CancelToken::new();
            let job_key = shared.next_job.fetch_add(1, Ordering::Relaxed);
            let job = Box::new(DecideJob {
                id,
                problem: req.problem.clone().expect("validated"),
                options,
                deadline: deadline_of(shared, &req),
                cancel: cancel.clone(),
                job_key,
                admitted_at: Instant::now(),
                reply: tx.clone(),
                conn: Arc::clone(conn),
            });
            admit(shared, conn, job_key, cancel, id, Work::Decide(job), tx);
            true
        }
    }
}

fn deadline_of(shared: &Shared, req: &Request) -> Option<Instant> {
    req.timeout_ms
        .map(Duration::from_millis)
        .or(shared.opts.default_deadline)
        .map(|d| Instant::now() + d)
}

/// Registers the job as in-flight and pushes it; on rejection, rolls the
/// registration back and replies immediately.
fn admit(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    job_key: u64,
    cancel: CancelToken,
    id: Option<u64>,
    work: Work,
    tx: &Sender<Vec<u8>>,
) -> bool {
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    conn.live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job_key, cancel);
    match shared.queue.try_push(work) {
        Ok(()) => {
            shared.gauges();
            true
        }
        Err(PushError::Full(_)) => {
            rollback_admission(shared, conn, job_key);
            shared.c_overloaded.fetch_add(1, Ordering::Relaxed);
            static OVERLOADED: sufsat_obs::Counter = sufsat_obs::Counter::new("serve.overloaded");
            OVERLOADED.incr();
            sufsat_obs::event!("serve.overloaded", conn = conn.conn_id);
            send(tx, overloaded_reply(id));
            false
        }
        Err(PushError::Draining(_)) => {
            rollback_admission(shared, conn, job_key);
            shared.c_errors.fetch_add(1, Ordering::Relaxed);
            send(tx, error_reply(id, "server is shutting down"));
            false
        }
    }
}

fn rollback_admission(shared: &Arc<Shared>, conn: &Arc<ConnShared>, job_key: u64) {
    conn.live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&job_key);
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
}

/// Returns whether the op was admitted (a reply was sent either way).
fn enqueue_session_op(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    slot: &Arc<SessionSlot>,
    req: &Request,
    kind: SessionOpKind,
    tx: &Sender<Vec<u8>>,
) -> bool {
    let id = req.id;
    if shared.draining() {
        shared.c_errors.fetch_add(1, Ordering::Relaxed);
        send(tx, error_reply(id, "server is shutting down"));
        return false;
    }
    let cancel = CancelToken::new();
    let job_key = shared.next_job.fetch_add(1, Ordering::Relaxed);
    let job = SessionOpJob {
        id,
        kind,
        deadline: deadline_of(shared, req),
        cancel: cancel.clone(),
        job_key,
        admitted_at: Instant::now(),
        reply: tx.clone(),
        conn: Arc::clone(conn),
    };
    let must_schedule = {
        let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(inner.state, SlotState::Closed) {
            drop(inner);
            shared.c_errors.fetch_add(1, Ordering::Relaxed);
            send(tx, error_reply(id, "session already closed"));
            return false;
        }
        if inner.pending.len() >= shared.opts.queue_cap {
            drop(inner);
            shared.c_overloaded.fetch_add(1, Ordering::Relaxed);
            send(tx, overloaded_reply(id));
            return false;
        }
        inner.pending.push_back(job);
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        conn.live
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(job_key, cancel);
        if inner.scheduled {
            false
        } else {
            inner.scheduled = true;
            true
        }
    };
    if !must_schedule {
        shared.gauges();
        return true;
    }
    match shared.queue.try_push(Work::Session(Arc::clone(slot))) {
        Ok(()) => {
            shared.gauges();
            true
        }
        Err(err) => {
            // Roll the op (and the schedule) back and reply.
            let job = {
                let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
                inner.scheduled = false;
                inner.pending.pop_back()
            };
            if let Some(job) = job {
                rollback_admission(shared, conn, job.job_key);
                match err {
                    PushError::Full(_) => {
                        shared.c_overloaded.fetch_add(1, Ordering::Relaxed);
                        send(tx, overloaded_reply(job.id));
                    }
                    PushError::Draining(_) => {
                        shared.c_errors.fetch_add(1, Ordering::Relaxed);
                        send(tx, error_reply(job.id, "server is shutting down"));
                    }
                }
            }
            false
        }
    }
}

fn stats_reply(shared: &Arc<Shared>, id: Option<u64>) -> Vec<u8> {
    let c = shared.counters();
    let counters = format!(
        "{{\"requests\":{},\"ok\":{},\"errors\":{},\"overloaded\":{},\"timeouts\":{},\
         \"deadline_expired\":{},\"cancelled\":{},\"panics\":{},\"sessions_opened\":{}}}",
        c.requests,
        c.ok,
        c.errors,
        c.overloaded,
        c.timeouts,
        c.deadline_expired,
        c.cancelled,
        c.panics,
        c.sessions_opened,
    );
    ReplyBuilder::new(id, "ok")
        .u64_field("uptime_us", shared.started.elapsed().as_micros() as u64)
        .i64_field("inflight", shared.inflight.load(Ordering::Acquire))
        .u64_field("queue_depth", shared.queue.len() as u64)
        .i64_field("open_sessions", shared.open_sessions.load(Ordering::Acquire))
        .i64_field("connections", shared.connections.load(Ordering::Acquire))
        .str_field("state", if shared.draining() { "draining" } else { "running" })
        .raw_field("counters", &counters)
        .finish()
}

// ---- workers ----------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    shared.workers_alive.fetch_add(1, Ordering::AcqRel);
    let progress = shared.worker_progress[worker].clone();
    while let Some(work) = shared.queue.pop() {
        shared.worker_states[worker].store(WORKER_BUSY, Ordering::Relaxed);
        match work {
            Work::Decide(job) => run_decide_job(shared, *job, &progress),
            Work::Session(slot) => run_session_slot(shared, &slot, &progress),
        }
        // Clear the heartbeat so a snapshot never attributes the finished
        // job's final counters to an idle worker.
        progress.clear();
        shared.worker_states[worker].store(WORKER_IDLE, Ordering::Relaxed);
        shared.gauges();
        shared.maybe_signal_drained();
    }
    shared.workers_alive.fetch_sub(1, Ordering::AcqRel);
}

fn complete_job(shared: &Arc<Shared>, conn: &ConnShared, job_key: u64) {
    conn.live
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&job_key);
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
}

fn outcome_verdict(outcome: &Outcome) -> (&'static str, Option<&'static str>) {
    match outcome {
        Outcome::Valid => ("valid", None),
        Outcome::Invalid(_) => ("invalid", None),
        Outcome::Unknown(StopReason::TranslationBudget) => ("unknown", Some("translation_budget")),
        Outcome::Unknown(StopReason::ConflictBudget) => ("unknown", Some("conflict_budget")),
        Outcome::Unknown(StopReason::Timeout) => ("unknown", Some("timeout")),
        Outcome::Unknown(StopReason::Cancelled) => ("unknown", Some("cancelled")),
    }
}

fn verdict_reply(
    id: Option<u64>,
    outcome: &Outcome,
    time_us: u64,
    extra: &[(&str, u64)],
    cache_status: Option<&str>,
) -> Vec<u8> {
    let (verdict, reason) = outcome_verdict(outcome);
    let mut b = ReplyBuilder::new(id, "ok").str_field("verdict", verdict);
    if let Some(reason) = reason {
        b = b.str_field("reason", reason);
    }
    if let Some(cache_status) = cache_status {
        b = b.str_field("cache", cache_status);
    }
    b = b.u64_field("time_us", time_us);
    for &(k, v) in extra {
        b = b.u64_field(k, v);
    }
    b.finish()
}

/// Accounts a finished solve in the counters and returns the reply.
fn settle_outcome(shared: &Arc<Shared>, outcome: &Outcome) {
    match outcome {
        Outcome::Unknown(StopReason::Timeout) => {
            shared.c_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Unknown(StopReason::Cancelled) => {
            shared.c_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    shared.c_ok.fetch_add(1, Ordering::Relaxed);
}

/// Deadline bookkeeping at job start: `Ok(remaining)` to run with that
/// budget (`None` = unbounded), `Err(reply)` when the deadline already
/// expired in the queue.
fn deadline_budget(
    shared: &Arc<Shared>,
    id: Option<u64>,
    deadline: Option<Instant>,
) -> Result<Option<Duration>, Vec<u8>> {
    match deadline {
        None => Ok(None),
        Some(deadline) => {
            let now = Instant::now();
            if now >= deadline {
                shared.c_deadline_expired.fetch_add(1, Ordering::Relaxed);
                shared.c_timeouts.fetch_add(1, Ordering::Relaxed);
                shared.c_ok.fetch_add(1, Ordering::Relaxed);
                Err(verdict_reply(
                    id,
                    &Outcome::Unknown(StopReason::Timeout),
                    0,
                    &[("queue_expired", 1)],
                    None,
                ))
            } else {
                Ok(Some(deadline - now))
            }
        }
    }
}

fn run_decide_job(shared: &Arc<Shared>, mut job: DecideJob, progress: &ProgressHandle) {
    let span = sufsat_obs::span_with!("serve.request", op = "decide", conn = job.conn.conn_id);
    let started = Instant::now();
    let queue_wait = started.saturating_duration_since(job.admitted_at);
    let mut status = "ok";
    let reply_payload = if job.cancel.is_cancelled() {
        // The client is gone: the request settles as an error (keeping
        // `requests == ok + errors + overloaded`), with `cancelled`
        // recording the detail.
        shared.c_cancelled.fetch_add(1, Ordering::Relaxed);
        shared.c_errors.fetch_add(1, Ordering::Relaxed);
        status = "cancelled";
        error_reply(job.id, "cancelled: client disconnected")
    } else {
        match deadline_budget(shared, job.id, job.deadline) {
            Err(expired) => {
                status = "queue_expired";
                expired
            }
            Ok(budget) => {
                job.options.timeout = budget;
                job.options.cancel = Some(job.cancel.clone());
                job.options.progress = Some(progress.clone());
                type DecideRun = Result<(Outcome, DecideStats, Option<&'static str>), String>;
                let outcome = catch_unwind(AssertUnwindSafe(|| -> DecideRun {
                    let mut tm = TermManager::new();
                    let phi = parse_problem(&mut tm, &job.problem)
                        .map_err(|e| format!("parse error: {e}"))?;
                    if let Some(cache) = &shared.cache {
                        let (outcome, stats, cache_status) =
                            decide_through_cache(cache, &mut tm, phi, &job);
                        Ok((outcome, stats, Some(cache_status)))
                    } else {
                        let d = decide(&mut tm, phi, &job.options);
                        Ok((d.outcome, d.stats, None))
                    }
                }));
                match outcome {
                    Ok(Ok((outcome, stats, cache_status))) => {
                        settle_outcome(shared, &outcome);
                        if cache_status == Some("hit") {
                            shared
                                .cache_hit_latency
                                .record(started.elapsed().as_micros() as u64);
                        } else if cache_status == Some("coalesced") {
                            shared.c_cache_coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                        verdict_reply(
                            job.id,
                            &outcome,
                            started.elapsed().as_micros() as u64,
                            &[
                                ("conflict_clauses", stats.conflict_clauses),
                                ("cnf_clauses", stats.cnf_clauses),
                                ("queue_us", queue_wait.as_micros() as u64),
                            ],
                            cache_status,
                        )
                    }
                    Ok(Err(message)) => {
                        shared.c_errors.fetch_add(1, Ordering::Relaxed);
                        status = "error";
                        error_reply(job.id, &message)
                    }
                    Err(_) => {
                        shared.c_panics.fetch_add(1, Ordering::Relaxed);
                        shared.c_errors.fetch_add(1, Ordering::Relaxed);
                        status = "panic";
                        error_reply(job.id, "internal error: solver panicked")
                    }
                }
            }
        }
    };
    // Record and complete before the reply goes out: a client that
    // reacts to its reply with a `metrics`/`debug` request is guaranteed
    // to find this request in the histograms and the slow log, and no
    // longer counted in `inflight`. The heartbeat is captured here,
    // before the worker loop clears it, so a slow-log entry carries the
    // search's final published counters. A drain that completes in
    // between cannot lose the reply: the connection's writer runs until
    // `job.reply`, its last sender, is dropped after the send.
    shared.record_request(
        "decide",
        job.conn.conn_id,
        status,
        queue_wait,
        job.admitted_at,
        progress.snapshot(),
    );
    complete_job(shared, &job.conn, job.job_key);
    send(&job.reply, reply_payload);
    drop(span);
}

/// Runs a decide through the daemon's result cache with single-flight
/// dedup on the canonical fingerprint.
///
/// Returns the outcome, the stats the reply should report (a hit replays
/// the original solve's counters), and the reply's `cache` field:
/// `"hit"` (answered from the store), `"coalesced"` (waited on an
/// identical in-flight solve) or `"miss"` (solved here).
fn decide_through_cache(
    cache: &Arc<ResultCache>,
    tm: &mut TermManager,
    phi: sufsat_suf::TermId,
    job: &DecideJob,
) -> (Outcome, DecideStats, &'static str) {
    let canonical = canonicalize(tm, phi);
    let fp = canonical.fingerprint;
    if let Some(value) = cache.lookup(fp, &canonical.bytes) {
        return (cached_outcome(&value), stats_from_digest(&value.digest), "hit");
    }
    match cache.join(fp, job.deadline) {
        Joined::Leader(guard) => {
            let d = decide(tm, phi, &job.options);
            // A cancelled run says nothing about the formula and this
            // request is being torn down: hand the flight to a waiting
            // follower (promotion) instead of publishing a non-answer.
            if matches!(d.outcome, Outcome::Unknown(_)) && job.cancel.is_cancelled() {
                drop(guard);
                return (d.outcome, d.stats, "miss");
            }
            let value = light_value(&d.outcome, &d.stats);
            if let Some(value) = &value {
                cache.insert(fp, &canonical.bytes, value.clone());
            }
            guard.complete(value);
            (d.outcome, d.stats, "miss")
        }
        Joined::Done(Some(value)) => (
            cached_outcome(&value),
            stats_from_digest(&value.digest),
            "coalesced",
        ),
        Joined::Done(None) => {
            // The leader finished without a definitive verdict; solve it
            // ourselves and cache the result if we do better.
            let d = decide(tm, phi, &job.options);
            if let Some(value) = light_value(&d.outcome, &d.stats) {
                cache.insert(fp, &canonical.bytes, value);
            }
            (d.outcome, d.stats, "miss")
        }
        Joined::TimedOut => (
            Outcome::Unknown(StopReason::Timeout),
            DecideStats::default(),
            "miss",
        ),
    }
}

/// Rebuilds the reply-relevant outcome from a cached value. The daemon
/// stores verdict-only entries — replies never carry models — so an
/// `Invalid` hit surfaces an empty assignment.
fn cached_outcome(value: &CacheValue) -> Outcome {
    match value.verdict {
        CachedVerdict::Valid => Outcome::Valid,
        CachedVerdict::Invalid => Outcome::Invalid(SepAssignment::default()),
    }
}

/// Replays the original solve's counters so reply extras stay truthful.
fn stats_from_digest(digest: &StatsDigest) -> DecideStats {
    let mut stats = DecideStats::default();
    stats.dag_size = digest.dag_size as usize;
    stats.cnf_clauses = digest.cnf_clauses;
    stats.conflict_clauses = digest.conflict_clauses;
    stats.decisions = digest.decisions;
    stats.propagations = digest.propagations;
    stats.sep_predicates = digest.sep_predicates as usize;
    stats.translate_time = std::time::Duration::from_micros(digest.translate_time_us);
    stats.sat_time = std::time::Duration::from_micros(digest.solve_time_us);
    stats
}

/// The verdict-only cacheable projection of a finished solve, or `None`
/// when the outcome is not definitive.
fn light_value(outcome: &Outcome, stats: &DecideStats) -> Option<CacheValue> {
    let verdict = match outcome {
        Outcome::Valid => CachedVerdict::Valid,
        Outcome::Invalid(_) => CachedVerdict::Invalid,
        Outcome::Unknown(_) => return None,
    };
    Some(CacheValue {
        verdict,
        int_model: Vec::new(),
        bool_model: Vec::new(),
        digest: StatsDigest {
            dag_size: stats.dag_size as u64,
            cnf_clauses: stats.cnf_clauses,
            conflict_clauses: stats.conflict_clauses,
            decisions: stats.decisions,
            propagations: stats.propagations,
            sep_predicates: stats.sep_predicates as u64,
            translate_time_us: stats.translate_time.as_micros() as u64,
            solve_time_us: stats.sat_time.as_micros() as u64,
        },
    })
}

fn run_session_slot(shared: &Arc<Shared>, slot: &Arc<SessionSlot>, progress: &ProgressHandle) {
    loop {
        // Claim the next op and the session, or unschedule and leave.
        let (job, session) = {
            let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
            let Some(job) = inner.pending.pop_front() else {
                inner.scheduled = false;
                return;
            };
            match std::mem::replace(&mut inner.state, SlotState::Busy) {
                SlotState::Idle(session) => (job, Some(session)),
                SlotState::Closed => {
                    inner.state = SlotState::Closed;
                    (job, None)
                }
                // `scheduled` guarantees a single worker per slot.
                SlotState::Busy => unreachable!("two workers drained one session slot"),
            }
        };
        let queue_wait = Instant::now().saturating_duration_since(job.admitted_at);
        let span = sufsat_obs::span_with!(
            "serve.request",
            op = job.kind.label(),
            conn = job.conn.conn_id,
            session = slot.session_id,
        );
        // How the claimed session leaves this iteration. Exactly the
        // paths that drop a live `Session` decrement `open_sessions`.
        enum Fate {
            /// Healthy and not closed: goes back into the slot.
            Keep(Box<Session>),
            /// A `close` op retires it.
            Retire(Box<Session>),
            /// There was no session (slot closed before the claim), or a
            /// panic destroyed it (`dropped` says which).
            Gone { dropped: bool },
        }
        let closing = matches!(job.kind, SessionOpKind::Close);
        let mut status = "ok";
        let (payload, fate) = match session {
            None => {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                status = "error";
                (
                    error_reply(job.id, "session already closed"),
                    Fate::Gone { dropped: false },
                )
            }
            Some(mut session) => {
                if job.cancel.is_cancelled() {
                    // Same settlement as a cancelled decide job: the
                    // error reply is the terminal counter, `cancelled`
                    // is the detail.
                    shared.c_cancelled.fetch_add(1, Ordering::Relaxed);
                    shared.c_errors.fetch_add(1, Ordering::Relaxed);
                    status = "cancelled";
                    (
                        error_reply(job.id, "cancelled: client disconnected"),
                        Fate::Keep(session),
                    )
                } else {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        execute_session_op(shared, slot.session_id, &job, &mut session, progress)
                    }));
                    match result {
                        Ok(payload) if closing => (payload, Fate::Retire(session)),
                        Ok(payload) => (payload, Fate::Keep(session)),
                        Err(_) => {
                            status = "panic";
                            // The session's internal state can no longer
                            // be trusted: poison it.
                            drop(session);
                            shared.c_panics.fetch_add(1, Ordering::Relaxed);
                            shared.c_errors.fetch_add(1, Ordering::Relaxed);
                            (
                                error_reply(
                                    job.id,
                                    "internal error: session op panicked; session closed",
                                ),
                                Fate::Gone { dropped: true },
                            )
                        }
                    }
                }
            }
        };
        // Put the session back (or retire it). Connection cleanup may
        // have marked the slot `Closed` while we were busy — it skips
        // the decrement for busy slots, so the drop here accounts it.
        {
            let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
            let closed_while_busy = matches!(inner.state, SlotState::Closed);
            match fate {
                Fate::Keep(session) if !closed_while_busy => {
                    inner.state = SlotState::Idle(session);
                }
                Fate::Keep(session) | Fate::Retire(session) => {
                    drop(session);
                    inner.state = SlotState::Closed;
                    shared.open_sessions.fetch_sub(1, Ordering::AcqRel);
                }
                Fate::Gone { dropped } => {
                    inner.state = SlotState::Closed;
                    if dropped {
                        shared.open_sessions.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
        }
        // Record and complete before the reply goes out so a client
        // reacting to its reply with `metrics`/`debug` already sees this
        // op accounted and out of `inflight` (see `run_decide_job`).
        shared.record_request(
            job.kind.label(),
            job.conn.conn_id,
            status,
            queue_wait,
            job.admitted_at,
            progress.snapshot(),
        );
        complete_job(shared, &job.conn, job.job_key);
        send(&job.reply, payload);
        // One slot drain can run many ops; reset the heartbeat so the
        // next op starts from a clean snapshot.
        progress.clear();
        drop(span);
    }
}

fn execute_session_op(
    shared: &Arc<Shared>,
    session_id: u64,
    job: &SessionOpJob,
    session: &mut Session,
    progress: &ProgressHandle,
) -> Vec<u8> {
    match &job.kind {
        SessionOpKind::Assert(problem) => {
            let t = match parse_problem(session.term_manager_mut(), problem) {
                Ok(t) => t,
                Err(e) => {
                    shared.c_errors.fetch_add(1, Ordering::Relaxed);
                    return error_reply(job.id, &format!("parse error: {e}"));
                }
            };
            if session.term_manager().sort(t) != Sort::Bool {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                return error_reply(job.id, "assertions must be Boolean-sorted");
            }
            let aid = session.assert(t);
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            ReplyBuilder::new(job.id, "ok")
                .u64_field("assertion", aid.index() as u64)
                .u64_field("live", session.num_assertions() as u64)
                .finish()
        }
        SessionOpKind::Push => {
            session.push();
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            ReplyBuilder::new(job.id, "ok")
                .u64_field("depth", session.depth() as u64)
                .finish()
        }
        SessionOpKind::Pop => {
            if session.depth() == 0 {
                shared.c_errors.fetch_add(1, Ordering::Relaxed);
                return error_reply(job.id, "pop without a matching push");
            }
            session.pop();
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            ReplyBuilder::new(job.id, "ok")
                .u64_field("depth", session.depth() as u64)
                .finish()
        }
        SessionOpKind::Check => {
            let budget = match deadline_budget(shared, job.id, job.deadline) {
                Err(expired) => return expired,
                Ok(budget) => budget,
            };
            let started = Instant::now();
            session.set_timeout(budget);
            session.set_cancel_token(Some(job.cancel.clone()));
            session.set_progress_handle(Some(progress.clone()));
            let result = session.check();
            session.set_timeout(None);
            session.set_cancel_token(None);
            session.set_progress_handle(None);
            settle_outcome(shared, &result.outcome);
            verdict_reply(
                job.id,
                &result.outcome,
                started.elapsed().as_micros() as u64,
                &[
                    ("live", session.num_assertions() as u64),
                    ("depth", session.depth() as u64),
                ],
                None,
            )
        }
        SessionOpKind::Close => {
            shared.c_ok.fetch_add(1, Ordering::Relaxed);
            sufsat_obs::event!("serve.session.close", session = session_id);
            ReplyBuilder::new(job.id, "ok").finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// Connection threads whose handles the acceptor holds.
    fn retained_handles(server: &ServerHandle) -> usize {
        server
            .shared
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    #[test]
    fn finished_connections_do_not_keep_their_thread_handles() {
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("bind");
        let addr = server.local_addr();
        let cycle = || {
            let mut client = Client::connect(addr).expect("connect");
            client.health().expect("health reply");
        };
        for _ in 0..1000 {
            cycle();
        }
        // The acceptor drops finished handles when it accepts; a thread
        // still exiting at that moment keeps its handle one more cycle.
        // Keep cycling (no clock involved) until the stragglers are gone:
        // handles kept for every connection would never get there.
        let mut extra = 0;
        while retained_handles(&server) > 4 {
            assert!(
                extra < 10_000,
                "{} handles retained after {} connections",
                retained_handles(&server),
                1000 + extra
            );
            cycle();
            extra += 1;
        }
        server.shutdown();
    }
}
