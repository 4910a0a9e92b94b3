//! The resident daemon: acceptor, connection threads, the worker pool,
//! admission control, deadline propagation and graceful drain-then-stop
//! shutdown.
//!
//! # Threads
//!
//! * one **acceptor** blocks in `TcpListener::accept` and spawns one
//!   thread per connection;
//! * each connection's thread is its **reader**: it parses frames,
//!   *admits* jobs and writes every reply of the connection — it never
//!   executes a solve itself, so it stays responsive and notices
//!   disconnects promptly even while this client's solve is running;
//! * `workers` **solver threads** pull jobs from the bounded
//!   [`JobQueue`] and run them against the `sufsat-core` /
//!   `sufsat-incremental` stack.
//!
//! A worker never touches a client's socket. It leaves its reply in the
//! connection's outbox and wakes the reader through a socket pair; the
//! reader waits in `poll(2)` on that pair and on the client's socket at
//! once, and writes whatever the outbox holds before it waits or reads
//! again. A client that stops reading pushes back through TCP instead of
//! growing a queue: it holds up only its own reader, and a write of the
//! outbox that has not finished within the 2 s write timeout ends the
//! connection.
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
//! whatever remains into [`Solver::set_timeout`]-backed options. Each
//! connection has one [`CancelToken`], carried by every decide and
//! session it opens. The reader's cleanup raises it when the client
//! disconnects, so the connection's running solves stop within the
//! solver's cancellation-poll latency and its queued jobs are retired
//! when a worker reaches them.
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
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sufsat_cache::StoreStats;
use sufsat_core::{decide, CacheHandle, CacheStatus, DecideOptions, Decision, Outcome, StopReason};
use sufsat_incremental::Session;
use sufsat_obs::{HistogramBins, RollingWindow};
use sufsat_sat::{CancelToken, ProgressHandle, ProgressSnapshot};
use sufsat_suf::{parse_problem, Sort, TermManager};

use crate::metrics::{
    debug_reply, health_reply, metrics_reply, spawn_metrics_listener,
};
use crate::protocol::{
    error_reply, overloaded_reply, parse_request, payload_status, read_frame, write_frame,
    FrameError, Op, ReplyBuilder, Request, DEFAULT_MAX_FRAME,
};
use crate::poll::wait_readable;
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

/// Monotonically increasing counters, snapshotted by the `metrics` op
/// and by [`ServeReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Frames received that were answered with a reply: every parsed
    /// request plus malformed frames answered with an error. Each reply
    /// is counted by its status where it is sent, so once the server
    /// drains, `requests == ok + errors + overloaded` — every received
    /// frame settles into exactly one terminal bucket (the soak battery
    /// asserts this).
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

impl CounterSnapshot {
    /// Every counter as a `(name, value)` pair, in declaration order: the
    /// one list behind the `metrics` reply's `counters` object, the
    /// `sufsat_<name>_total` Prometheus families and the `serve.stop`
    /// event.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("requests", self.requests),
            ("ok", self.ok),
            ("errors", self.errors),
            ("overloaded", self.overloaded),
            ("timeouts", self.timeouts),
            ("deadline_expired", self.deadline_expired),
            ("cancelled", self.cancelled),
            ("panics", self.panics),
            ("sessions_opened", self.sessions_opened),
        ]
    }
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

/// How long the reader may take to write the replies it holds before it
/// cuts a client that stopped reading off.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

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
    next_conn: AtomicU64,
    started: Instant,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// When the stop began half-closing connections: no reply is written
    /// later than [`WRITE_TIMEOUT`] after it.
    stopped_at: OnceLock<Instant>,
    /// A handle on every open connection's socket, for the stop to
    /// half-close.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
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
    cache: Option<CacheHandle>,
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

    /// When a write of replies that starts now gives up: one write
    /// timeout from now, or from the stop if that came first, so that the
    /// stop never waits on a client for longer.
    fn write_deadline(&self) -> Instant {
        let now = Instant::now();
        self.stopped_at.get().map_or(now, |&t| t.min(now)) + WRITE_TIMEOUT
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
            .map(|c| c.cache().stats())
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
    /// Raised when the connection is lost. Every decide and session of
    /// the connection carries it, so one raise retires all their work.
    cancel: CancelToken,
    /// Reply frames not yet written, in the order they were sent. Only
    /// the reader writes them to the socket.
    outbox: Mutex<Vec<u8>>,
    /// A connected pair, both ends non-blocking: a worker that leaves a
    /// reply in an empty outbox writes a byte to the first, and the
    /// reader polls the second next to the client's socket.
    wake: (UnixStream, UnixStream),
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
    admitted_at: Instant,
    conn: Arc<ConnShared>,
}

struct DecideJob {
    id: Option<u64>,
    problem: String,
    options: DecideOptions,
    deadline: Option<Instant>,
    admitted_at: Instant,
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
            let (cache, report) = CacheHandle::with_persistence(opts.cache_bytes, path)?;
            sufsat_obs::event!(
                "serve.cache_loaded",
                records = report.unique as u64,
                truncated_bytes = report.truncated_bytes,
            );
            Some(cache)
        } else {
            Some(CacheHandle::with_budget(opts.cache_bytes))
        };
        let shared = Arc::new(Shared {
            queue: JobQueue::new(opts.queue_cap),
            opts,
            state: AtomicU8::new(STATE_RUNNING),
            inflight: AtomicI64::new(0),
            open_sessions: AtomicI64::new(0),
            connections: AtomicI64::new(0),
            next_session: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            started: Instant::now(),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            stopped_at: OnceLock::new(),
            conn_streams: Mutex::new(HashMap::new()),
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
        // Every admitted job is complete, but its reply may still be on
        // the way to an outbox: join the workers, which the drained queue
        // releases and no client can hold, before any reader sees EOF.
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        // Half-close the client connections: each reader sees EOF, writes
        // the replies it holds — the `shutdown` op's own `ok` among them —
        // and exits. One whose client stopped reading gives up one write
        // timeout from now at the latest.
        let _ = self.shared.stopped_at.set(Instant::now());
        for stream in self
            .shared
            .conn_streams
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            let _ = stream.shutdown(Shutdown::Read);
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
        let report = ServeReport {
            inflight: self.shared.inflight.load(Ordering::Acquire),
            queued: self.shared.queue.len(),
            open_sessions: self.shared.open_sessions.load(Ordering::Acquire),
            counters: self.shared.counters(),
        };
        let mut fields = vec![
            ("inflight", sufsat_obs::Value::from(report.inflight)),
            ("open_sessions", sufsat_obs::Value::from(report.open_sessions)),
        ];
        fields.extend(report.counters.fields().map(|(k, v)| (k, v.into())));
        sufsat_obs::event("serve.stop", &fields);
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
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conn_streams
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(conn_id, clone);
        }
        shared.connections.fetch_add(1, Ordering::AcqRel);
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
    let wake = UnixStream::pair().and_then(|(tx, rx)| {
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    });
    if let Ok(wake) = wake {
        let conn = Arc::new(ConnShared {
            conn_id,
            cancel: CancelToken::new(),
            outbox: Mutex::new(Vec::new()),
            wake,
        });
        let mut sessions: HashMap<u64, Arc<SessionSlot>> = HashMap::new();
        let mut reader = BufReader::new(stream);
        let result = catch_unwind(AssertUnwindSafe(|| {
            read_loop(shared, &conn, &mut sessions, &mut reader)
        }));
        if result.is_err() {
            shared.c_panics.fetch_add(1, Ordering::Relaxed);
        }
        cleanup_connection(shared, &conn, &mut sessions);
    }
    shared
        .conn_streams
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&conn_id);
    shared.connections.fetch_sub(1, Ordering::AcqRel);
}

/// Counts one reply by its status and appends its frame to the outbox;
/// returns whether the outbox was empty. Every reply to a received frame
/// goes through here, so once the server drains, `requests == ok +
/// errors + overloaded`.
fn post(shared: &Shared, conn: &ConnShared, payload: &[u8]) -> bool {
    let counter = match payload_status(payload) {
        b"ok" => &shared.c_ok,
        b"overloaded" => &shared.c_overloaded,
        _ => &shared.c_errors,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    let mut outbox = conn.outbox.lock().unwrap_or_else(|e| e.into_inner());
    let was_empty = outbox.is_empty();
    write_frame(&mut *outbox, payload).expect("a reply fits in a frame");
    was_empty
}

/// The reader's reply: it writes the outbox before it next waits.
fn send(shared: &Shared, conn: &ConnShared, payload: Vec<u8>) {
    post(shared, conn, &payload);
}

/// A worker's reply: the reader may be waiting, so it is woken when the
/// outbox was empty. A fuller outbox has a wake-up pending already, or
/// the reader is about to write it.
fn deliver(shared: &Shared, conn: &ConnShared, payload: Vec<u8>) {
    if post(shared, conn, &payload) {
        // Never blocks: a full pair holds a wake-up already.
        let _ = (&conn.wake.0).write(&[1]);
    }
}

/// Writes every reply the outbox holds, in one write when the client
/// keeps up. Returns false when the client has not taken them by the
/// deadline ([`Shared::write_deadline`]) or the write failed: the
/// connection is then cut off. `buf` is the reader's spare buffer,
/// swapped with the outbox so that neither allocates again.
fn flush(shared: &Shared, conn: &ConnShared, stream: &TcpStream, buf: &mut Vec<u8>) -> bool {
    std::mem::swap(
        buf,
        &mut *conn.outbox.lock().unwrap_or_else(|e| e.into_inner()),
    );
    if buf.is_empty() {
        return true;
    }
    let written = write_by(stream, buf, shared.write_deadline());
    buf.clear();
    written.is_ok()
}

/// `write_all` that gives up at `deadline`. The socket's write timeout
/// bounds each call, and is set to the time left before every call, so
/// a client that frees buffer space in dribs cannot stretch it.
fn write_by(mut stream: &TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Raises the connection's token, which retires its running and queued
/// jobs, and reclaims its sessions. Runs once, when the reader finishes
/// for any reason.
fn cleanup_connection(
    shared: &Shared,
    conn: &ConnShared,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
) {
    conn.cancel.cancel();
    for (_, slot) in sessions.drain() {
        let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Queued-but-unstarted ops die with the connection and never
        // reach a worker, so they are accounted here: each gives its
        // in-flight slot back, counts as cancelled, and settles as an
        // error so `requests == ok + errors + overloaded` still holds at
        // drain (nobody is left to read a reply, so none is built). A
        // Busy op stays counted; its worker completes it.
        let dropped = inner.pending.len();
        inner.pending.clear();
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
            shared.c_errors.fetch_add(dropped as u64, Ordering::Relaxed);
            shared.c_cancelled.fetch_add(dropped as u64, Ordering::Relaxed);
            shared.inflight.fetch_sub(dropped as i64, Ordering::AcqRel);
        }
    }
    sufsat_obs::event!("serve.conn.reaped", conn = conn.conn_id);
    shared.maybe_signal_drained();
}

fn read_loop(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
    reader: &mut BufReader<TcpStream>,
) {
    let mut spare = Vec::new();
    let mut hung_up = false;
    // The outbox is written before the reader waits or reads again, and
    // once more before it exits. No frame is answered once the stop has
    // half-closed the connections: a half-closed socket still yields
    // what the client keeps sending.
    while flush(shared, conn, reader.get_ref(), &mut spare)
        && !hung_up
        && shared.stopped_at.get().is_none()
    {
        if reader.buffer().is_empty() {
            // Nothing buffered: wait for the client's next bytes or a
            // worker's wake-up, whichever comes first.
            let Ok([client, woken]) = wait_readable(reader.get_ref(), &conn.wake.1) else {
                return;
            };
            if woken {
                let _ = (&conn.wake.1).read(&mut [0; 64]);
            }
            if !client {
                continue;
            }
        }
        let frame = read_frame(reader, shared.opts.max_frame);
        if let Err(FrameError::Closed | FrameError::Truncated | FrameError::Io(_)) = frame {
            hung_up = true;
            continue;
        }
        // Every other frame, malformed ones included, is a request that
        // gets exactly one reply.
        shared.c_requests.fetch_add(1, Ordering::Relaxed);
        match frame {
            Ok(payload) => handle_payload(shared, conn, sessions, &payload),
            Err(e) => {
                send(shared, conn, error_reply(None, &e.to_string()));
                // Past an oversized frame the stream is out of sync: hang up.
                hung_up = !e.recoverable();
            }
        }
    }
}

/// Handles one well-framed request.
fn handle_payload(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    sessions: &mut HashMap<u64, Arc<SessionSlot>>,
    payload: &[u8],
) {
    let req = match parse_request(payload) {
        Ok(req) => req,
        Err((id, message)) => {
            send(shared, conn, error_reply(id, &message));
            return;
        }
    };
    let id = req.id;
    match req.op {
        // Introspection ops are answered inline by the reader thread, so
        // they keep working while the worker pool is saturated or the
        // server is draining.
        Op::Metrics => send(shared, conn, metrics_reply(shared, id)),
        Op::Health => send(shared, conn, health_reply(shared, id)),
        Op::Debug => {
            let reply = match req.what.as_deref() {
                Some("slow_requests") => debug_reply(shared, id),
                Some(what) => error_reply(id, &format!("unknown debug dump \"{what}\"")),
                None => error_reply(id, "debug requires a \"what\" field"),
            };
            send(shared, conn, reply);
        }
        Op::Shutdown => {
            // Drain first, so a client that reads this reply finds the
            // daemon draining. The stop cannot overtake the reply: it
            // joins this thread, which writes the reply before it exits.
            shared.begin_drain();
            send(
                shared,
                conn,
                ReplyBuilder::new(id, "ok").str_field("draining", "true").finish(),
            );
        }
        Op::SessionOpen => {
            if shared.draining() {
                send(shared, conn, error_reply(id, "server is shutting down"));
                return;
            }
            if sessions.len() >= shared.opts.session_limit {
                send(
                    shared,
                    conn,
                    error_reply(id, "session limit reached for this connection"),
                );
                return;
            }
            let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::new(SessionSlot {
                session_id,
                inner: Mutex::new(SlotInner {
                    state: SlotState::Idle(Box::new(Session::new(request_options(&req, conn)))),
                    pending: std::collections::VecDeque::new(),
                    scheduled: false,
                }),
            });
            sessions.insert(session_id, slot);
            shared.open_sessions.fetch_add(1, Ordering::AcqRel);
            shared.c_sessions_opened.fetch_add(1, Ordering::Relaxed);
            sufsat_obs::event!("serve.session.open", conn = conn.conn_id, session = session_id);
            send(
                shared,
                conn,
                ReplyBuilder::new(id, "ok").u64_field("session", session_id).finish(),
            );
        }
        Op::SessionAssert | Op::SessionPush | Op::SessionPop | Op::SessionCheck
        | Op::SessionClose => {
            let session_id = req.session.expect("validated by parse_request");
            let Some(slot) = sessions.get(&session_id).cloned() else {
                send(shared, conn, error_reply(id, &format!("unknown session {session_id}")));
                return;
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
            let admitted = enqueue_session_op(shared, conn, &slot, &req, kind);
            if close && admitted {
                // The queued close op retires the slot; stop tracking it
                // so cleanup does not race it. A rejected close keeps the
                // session alive (and tracked).
                sessions.remove(&session_id);
            }
        }
        Op::Decide => {
            if shared.draining() {
                send(shared, conn, error_reply(id, "server is shutting down"));
                return;
            }
            let job = Box::new(DecideJob {
                id,
                problem: req.problem.clone().expect("validated"),
                options: DecideOptions {
                    cache: shared.cache.clone(),
                    ..request_options(&req, conn)
                },
                deadline: deadline_of(shared, &req),
                admitted_at: Instant::now(),
                conn: Arc::clone(conn),
            });
            admit(shared, conn, id, Work::Decide(job));
        }
    }
}

/// The decide options a `decide` or `session-open` request asks for,
/// cancelled with the connection.
fn request_options(req: &Request, conn: &ConnShared) -> DecideOptions {
    let defaults = DecideOptions::default();
    DecideOptions {
        mode: req.mode.unwrap_or(defaults.mode),
        cnf: req.cnf.unwrap_or(defaults.cnf),
        preprocess: req.preprocess,
        cancel: Some(conn.cancel.clone()),
        ..defaults
    }
}

fn deadline_of(shared: &Shared, req: &Request) -> Option<Instant> {
    req.timeout_ms
        .map(Duration::from_millis)
        .or(shared.opts.default_deadline)
        .map(|d| Instant::now() + d)
}

/// Answers a request that the job queue or its session's backlog has no
/// room for: the one place an `overloaded` reply is made.
fn reject_overloaded(shared: &Shared, conn: &ConnShared, id: Option<u64>) {
    sufsat_obs::event!("serve.overloaded", conn = conn.conn_id);
    send(shared, conn, overloaded_reply(id));
}

/// Answers a request the job queue refused.
fn reject_push<T>(shared: &Shared, conn: &ConnShared, id: Option<u64>, err: &PushError<T>) {
    match err {
        PushError::Full(_) => reject_overloaded(shared, conn, id),
        PushError::Draining(_) => send(shared, conn, error_reply(id, "server is shutting down")),
    }
}

/// Counts the job in flight and pushes it; on rejection, takes the count
/// back and replies immediately.
fn admit(shared: &Shared, conn: &ConnShared, id: Option<u64>, work: Work) {
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    if let Err(err) = shared.queue.try_push(work) {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        reject_push(shared, conn, id, &err);
    }
}

/// Returns whether the op was admitted (a reply was sent either way).
fn enqueue_session_op(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    slot: &Arc<SessionSlot>,
    req: &Request,
    kind: SessionOpKind,
) -> bool {
    let id = req.id;
    if shared.draining() {
        send(shared, conn, error_reply(id, "server is shutting down"));
        return false;
    }
    let job = SessionOpJob {
        id,
        kind,
        deadline: deadline_of(shared, req),
        admitted_at: Instant::now(),
        conn: Arc::clone(conn),
    };
    let must_schedule = {
        let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(inner.state, SlotState::Closed) {
            drop(inner);
            send(shared, conn, error_reply(id, "session already closed"));
            return false;
        }
        if inner.pending.len() >= shared.opts.queue_cap {
            drop(inner);
            reject_overloaded(shared, conn, id);
            return false;
        }
        inner.pending.push_back(job);
        shared.inflight.fetch_add(1, Ordering::AcqRel);
        if inner.scheduled {
            false
        } else {
            inner.scheduled = true;
            true
        }
    };
    if !must_schedule {
        return true;
    }
    let Err(err) = shared.queue.try_push(Work::Session(Arc::clone(slot))) else {
        return true;
    };
    // Roll the op (and the schedule) back and reply.
    let job = {
        let mut inner = slot.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.scheduled = false;
        inner.pending.pop_back()
    };
    if let Some(job) = job {
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        reject_push(shared, conn, job.id, &err);
    }
    false
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
        shared.maybe_signal_drained();
    }
    shared.workers_alive.fetch_sub(1, Ordering::AcqRel);
}

fn verdict_reply(
    id: Option<u64>,
    outcome: &Outcome,
    time_us: u64,
    extra: &[(&str, u64)],
    cache_status: Option<CacheStatus>,
) -> Vec<u8> {
    let mut b = ReplyBuilder::new(id, "ok").str_field("verdict", outcome.verdict());
    if let Outcome::Unknown(reason) = outcome {
        b = b.str_field("reason", reason.name());
    }
    if let Some(cache_status) = cache_status {
        b = b.str_field("cache", cache_status.label());
    }
    b = b.u64_field("time_us", time_us);
    for &(k, v) in extra {
        b = b.u64_field(k, v);
    }
    b.finish()
}

/// Accounts a finished solve's outcome in the detail counters.
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
    let reply_payload = if job.conn.cancel.is_cancelled() {
        // The client is gone: the request settles as an error (keeping
        // `requests == ok + errors + overloaded`), with `cancelled`
        // recording the detail.
        shared.c_cancelled.fetch_add(1, Ordering::Relaxed);
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
                job.options.progress = Some(progress.clone());
                let decision = catch_unwind(AssertUnwindSafe(|| -> Result<Decision, String> {
                    let mut tm = TermManager::new();
                    let phi = parse_problem(&mut tm, &job.problem)
                        .map_err(|e| format!("parse error: {e}"))?;
                    Ok(decide(&mut tm, phi, &job.options))
                }));
                match decision {
                    Ok(Ok(d)) => {
                        settle_outcome(shared, &d.outcome);
                        match d.cache {
                            Some(CacheStatus::Hit) => shared
                                .cache_hit_latency
                                .record(started.elapsed().as_micros() as u64),
                            Some(CacheStatus::Coalesced) => {
                                shared.c_cache_coalesced.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {}
                        }
                        verdict_reply(
                            job.id,
                            &d.outcome,
                            started.elapsed().as_micros() as u64,
                            &[
                                ("conflict_clauses", d.stats.conflict_clauses),
                                ("cnf_clauses", d.stats.cnf_clauses),
                                ("queue_us", queue_wait.as_micros() as u64),
                            ],
                            d.cache,
                        )
                    }
                    Ok(Err(message)) => {
                        status = "error";
                        error_reply(job.id, &message)
                    }
                    Err(_) => {
                        shared.c_panics.fetch_add(1, Ordering::Relaxed);
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
    // between cannot lose the reply: the stop joins the workers before
    // it closes any connection.
    shared.record_request(
        "decide",
        job.conn.conn_id,
        status,
        queue_wait,
        job.admitted_at,
        progress.snapshot(),
    );
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
    deliver(shared, &job.conn, reply_payload);
    drop(span);
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
                status = "error";
                (
                    error_reply(job.id, "session already closed"),
                    Fate::Gone { dropped: false },
                )
            }
            Some(mut session) => {
                if job.conn.cancel.is_cancelled() {
                    // Same settlement as a cancelled decide job: the
                    // error reply is the terminal counter, `cancelled`
                    // is the detail.
                    shared.c_cancelled.fetch_add(1, Ordering::Relaxed);
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
        shared.inflight.fetch_sub(1, Ordering::AcqRel);
        deliver(shared, &job.conn, payload);
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
                Err(e) => return error_reply(job.id, &format!("parse error: {e}")),
            };
            if session.term_manager().sort(t) != Sort::Bool {
                return error_reply(job.id, "assertions must be Boolean-sorted");
            }
            let aid = session.assert(t);
            ReplyBuilder::new(job.id, "ok")
                .u64_field("assertion", aid.index() as u64)
                .u64_field("live", session.num_assertions() as u64)
                .finish()
        }
        SessionOpKind::Push => {
            session.push();
            ReplyBuilder::new(job.id, "ok")
                .u64_field("depth", session.depth() as u64)
                .finish()
        }
        SessionOpKind::Pop => {
            if session.depth() == 0 {
                return error_reply(job.id, "pop without a matching push");
            }
            session.pop();
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
            session.set_progress_handle(Some(progress.clone()));
            let result = session.check();
            session.set_timeout(None);
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
            sufsat_obs::event!("serve.session.close", session = session_id);
            ReplyBuilder::new(job.id, "ok").finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{reply_status, Client};
    use sufsat_obs::json::{self, Json};

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

    /// `decide` of the pigeonhole formula with `pigeons` pigeons, whose
    /// search keeps a worker busy far longer than a test runs.
    fn php_decide(pigeons: usize) -> String {
        let p = |i| format!("p{i}");
        let h = |j| format!("h{j}");
        let vars: Vec<String> = (0..pigeons).map(p).chain((1..pigeons).map(h)).collect();
        let mut conj = String::new();
        for i in 0..pigeons {
            let alt: String = (1..pigeons).map(|j| format!(" (= {} {})", p(i), h(j))).collect();
            conj.push_str(&format!(" (or{alt})"));
            for k in i + 1..pigeons {
                conj.push_str(&format!(" (not (= {} {}))", p(i), p(k)));
            }
        }
        let problem = format!("(vars {}) (formula (not (and{conj})))", vars.join(" "));
        let mut msg = String::from("{\"op\":\"decide\",\"timeout_ms\":60000,\"problem\":");
        json::escape_into(&mut msg, &problem);
        msg.push('}');
        msg
    }

    #[test]
    fn every_overload_path_is_counted_and_traced() {
        // Sized so that no record of this binary's tests is evicted.
        let ring = Arc::new(sufsat_obs::RingSink::new(1 << 20));
        sufsat_obs::install(ring.clone());
        let opts = ServeOptions {
            workers: 1,
            queue_cap: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("bind");
        let addr = server.local_addr();
        let mut holder = Client::connect(addr).expect("connect");
        holder.send_raw(php_decide(12).as_bytes()).expect("send");
        while server.shared.worker_info()[0].0 != "busy" {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut client = Client::connect(addr).expect("connect");
        let mut open = || {
            let reply = client.call(r#"{"op":"session-open"}"#).expect("session-open");
            reply.get("session").and_then(Json::as_u64).expect("session id")
        };
        let (a, b) = (open(), open());
        // A's first op takes the free queue slot, so its second finds A's
        // backlog full; B's op and the decide then find the queue full.
        for request in [
            format!(r#"{{"op":"session-push","session":{a}}}"#),
            format!(r#"{{"op":"session-push","session":{a}}}"#),
            format!(r#"{{"op":"session-push","session":{b}}}"#),
            r#"{"op":"decide","problem":"(vars x) (formula (= x x))"}"#.to_owned(),
        ] {
            client.send_raw(request.as_bytes()).expect("send");
        }
        for _ in 0..3 {
            let reply = client.read_reply().expect("reply");
            assert_eq!(reply_status(&reply), "overloaded", "{reply:?}");
        }
        drop(holder);
        drop(client);
        let report = server.shutdown();
        let events = ring
            .lines()
            .iter()
            .filter(|line| line.contains(r#""name":"serve.overloaded""#))
            .count();
        sufsat_obs::shutdown();
        assert_eq!(events, 3);
        assert_eq!(report.counters.overloaded, 3);
        let c = &report.counters;
        assert_eq!(c.requests, c.ok + c.errors + c.overloaded, "{c:?}");
    }

    #[test]
    fn a_disconnect_counts_each_retired_job_once() {
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.send_raw(php_decide(12).as_bytes()).expect("send");
        while server.shared.worker_info()[0].0 != "busy" {
            std::thread::sleep(Duration::from_millis(1));
        }
        client.send_raw(php_decide(12).as_bytes()).expect("send");
        while server.shared.queue_depth() != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // One job running, one queued: the disconnect retires both.
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.counters.cancelled, 2, "{:?}", report.counters);
        assert_eq!(report.inflight, 0);
        let c = &report.counters;
        assert_eq!(c.requests, c.ok + c.errors + c.overloaded, "{c:?}");
    }

    #[test]
    fn every_json_counter_has_a_prometheus_family() {
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind("127.0.0.1:0", opts).expect("bind");
        let reply = crate::metrics::metrics_reply(&server.shared, None);
        let reply = json::parse(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON");
        let scrape = crate::metrics::render_prometheus(&server.shared);
        let families: Vec<&str> = scrape
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|line| line.split(' ').next())
            .collect();
        let keys = |block: &str| match reply.get(block) {
            Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("`{block}` is not an object: {other:?}"),
        };
        let counters: Vec<String> = keys("counters");
        assert_eq!(counters.len(), 9);
        for k in counters {
            let family = format!("sufsat_{k}_total");
            assert!(families.contains(&family.as_str()), "no {family}:\n{scrape}");
        }
        // A cache figure is a `_total` counter or a gauge of its own name.
        for k in keys("cache") {
            let (counter, gauge) = (format!("sufsat_cache_{k}_total"), format!("sufsat_cache_{k}"));
            assert!(
                families.contains(&counter.as_str()) || families.contains(&gauge.as_str()),
                "no family for cache figure {k}:\n{scrape}"
            );
        }
        server.shutdown();
    }
}
