//! `sufsat-obs` — zero-dependency structured tracing and metrics for the
//! whole decision pipeline.
//!
//! The paper's entire evaluation is an observability exercise: per-run CNF
//! clause counts, conflict-clause counts, encode-vs-SAT time splits, and
//! the separation-predicate counts that drive `SEP_THOLD` selection. This
//! crate gives every layer a single cheap way to report those quantities:
//!
//! * **Hierarchical spans** with wall-clock timing ([`span`]) — one per
//!   pipeline stage (`suf.eliminate`, `encode`, `sat.solve`,
//!   `core.decide`, `serve.request`, …), nested via a per-thread stack.
//! * **Point events** with typed fields ([`event()`] / [`event!`]) — class
//!   method decisions, solver results, cache hits, oracle verdicts.
//! * **Named atomic counters** ([`Counter`]) and **histograms**
//!   ([`Histogram`]) — e.g. cumulative SAT conflicts across a whole
//!   evaluation run.
//! * **Pluggable sinks** ([`Sink`]) — JSON-lines to a file or stderr, or
//!   an in-memory ring buffer.
//!
//! # The disabled fast path
//!
//! Tracing is **off by default** and every entry point begins with one
//! relaxed atomic load. While disabled, [`span`] returns an inert guard,
//! [`event()`] returns immediately, and counters skip registration — no
//! allocation, no locks, no syscalls (asserted by the crate's
//! `disabled_fastpath` test under a counting allocator). The pipeline is
//! therefore instrumented unconditionally; the < 2 % overhead budget of a
//! disabled run is spent on predictable branch-not-taken checks.
//!
//! # Enabling
//!
//! Set `SUFSAT_TRACE=<path|stderr>` and call [`init_from_env`] (the
//! binaries all do), or [`install`] a sink programmatically. Call
//! [`shutdown`] before process exit to flush buffered output.
//!
//! ```
//! use std::sync::Arc;
//!
//! let ring = Arc::new(sufsat_obs::RingSink::new(256));
//! sufsat_obs::install(ring.clone());
//! {
//!     let _span = sufsat_obs::span("example.stage");
//!     sufsat_obs::event!("example.step", items = 3usize, ok = true);
//! }
//! sufsat_obs::shutdown();
//! assert_eq!(ring.lines().len(), 3); // open, event, close
//! ```

#![warn(missing_docs)]

mod histogram;
pub mod json;
mod metrics;
mod record;
mod sink;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

pub use histogram::{Histogram, HistogramBins, HistogramSnapshot, RollingWindow, NUM_BUCKETS};
pub use metrics::{emit_counter_records, metrics_snapshot, Counter};
pub use record::{Kind, Record, Value};
pub use sink::{render_json, JsonLinesSink, NoopSink, RingSink, Sink};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether tracing is enabled. One relaxed atomic load — the guard every
/// instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `sink` as the active sink and enables tracing. The trace epoch
/// (timestamp zero) is fixed by the first install of the process.
pub fn install(sink: Arc<dyn Sink>) {
    let _ = EPOCH.set(Instant::now());
    if let Ok(mut slot) = SINK.write() {
        *slot = Some(sink);
    }
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables tracing, flushes and removes the active sink. Spans still open
/// keep their guards; their close records are dropped, so call this only
/// once per-run instrumentation has unwound.
pub fn shutdown() {
    ENABLED.store(false, Ordering::SeqCst);
    let sink = SINK.write().ok().and_then(|mut slot| slot.take());
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Flushes the active sink without disabling tracing.
pub fn flush() {
    if let Some(sink) = sink_handle() {
        sink.flush();
    }
}

/// Installs a JSON-lines sink according to `SUFSAT_TRACE`:
/// `stderr` (or `-`) traces to stderr, any other non-empty value is
/// treated as a file path (created/truncated). Returns whether tracing
/// was enabled. Unset or empty leaves tracing disabled.
pub fn init_from_env() -> bool {
    match std::env::var("SUFSAT_TRACE") {
        Ok(value) if !value.is_empty() => init_to(&value).is_ok(),
        _ => false,
    }
}

/// Installs a JSON-lines sink writing to `target` (`stderr`/`-` or a file
/// path). Used by the binaries' `--trace` flags.
pub fn init_to(target: &str) -> std::io::Result<()> {
    let sink: Arc<dyn Sink> = if target == "stderr" || target == "-" {
        Arc::new(JsonLinesSink::stderr())
    } else {
        Arc::new(JsonLinesSink::create(target)?)
    };
    install(sink);
    Ok(())
}

fn sink_handle() -> Option<Arc<dyn Sink>> {
    SINK.read().ok()?.as_ref().map(Arc::clone)
}

fn now_us() -> u64 {
    EPOCH
        .get()
        .map_or(0, |epoch| epoch.elapsed().as_micros() as u64)
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

fn emit(record: &Record<'_>) {
    if let Some(sink) = sink_handle() {
        sink.record(record);
    }
}

/// A span guard: emits `span_close` with the wall-clock duration when
/// dropped. Inert (field-free, allocation-free) when tracing was disabled
/// at open time.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.start.is_some()
    }

    /// The span id (0 when not recording).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Defensive: pop to (and including) our own id, tolerating a
            // sibling guard leaked across an unwind.
            while let Some(top) = stack.pop() {
                if top == self.id {
                    break;
                }
            }
        });
        let record = Record {
            ts_us: now_us(),
            kind: Kind::SpanClose,
            name: self.name,
            span: self.id,
            parent: self.parent,
            thread: thread_id(),
            dur_us: Some(start.elapsed().as_micros() as u64),
            fields: &[],
        };
        emit(&record);
    }
}

/// Opens a span named `name` nested under the current thread's innermost
/// open span. Returns an inert guard when tracing is disabled.
pub fn span(name: &'static str) -> Span {
    span_with(name, &[])
}

/// Opens a span with fields attached to its `span_open` record.
pub fn span_with(name: &'static str, fields: &[(&str, Value<'_>)]) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            start: None,
        };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let record = Record {
        ts_us: now_us(),
        kind: Kind::SpanOpen,
        name,
        span: id,
        parent,
        thread: thread_id(),
        dur_us: None,
        fields,
    };
    emit(&record);
    Span {
        id,
        parent,
        name,
        start: Some(Instant::now()),
    }
}

/// Emits a point event inside the current thread's innermost open span.
/// Returns immediately when tracing is disabled.
pub fn event(name: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled() {
        return;
    }
    let span = SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0));
    let record = Record {
        ts_us: now_us(),
        kind: Kind::Event,
        name,
        span,
        parent: 0,
        thread: thread_id(),
        dur_us: None,
        fields,
    };
    emit(&record);
}

/// Emits one `counter` record (used by [`emit_counter_records`]).
pub(crate) fn counter_record(name: &str, value: i64) {
    let fields = [("value", Value::I64(value))];
    let record = Record {
        ts_us: now_us(),
        kind: Kind::Counter,
        name,
        span: 0,
        parent: 0,
        thread: thread_id(),
        dur_us: None,
        fields: &fields,
    };
    emit(&record);
}

/// Emits an event with `key = value` field syntax. Values go through
/// [`Value::from`], so integers, floats, bools and `&str` all work:
///
/// ```
/// sufsat_obs::event!("encode.class", class = 0usize, method = "sd", bits = 4u32);
/// ```
///
/// Field expressions are evaluated before the enabled check, so keep them
/// to cheap borrows on hot paths (or guard with [`enabled`]).
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::event($name, &[$((stringify!($key), $crate::Value::from($value))),*])
    };
}

/// Opens a span with `key = value` fields (see [`event!`]).
#[macro_export]
macro_rules! span_with {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span_with($name, &[$((stringify!($key), $crate::Value::from($value))),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global tracing state is process-wide, so every test that installs a
    // sink runs under this lock (the remaining obs tests live in separate
    // integration-test processes).
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_nest_and_balance() {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(RingSink::new(64));
        install(ring.clone());
        {
            let outer = span("outer");
            assert!(outer.is_recording());
            {
                let _inner = span_with!("inner", depth = 2u64);
                event!("tick", n = 1u64);
            }
        }
        shutdown();
        let lines = ring.lines();
        assert_eq!(lines.len(), 5, "{lines:#?}");
        let parsed: Vec<json::Json> = lines
            .iter()
            .map(|l| json::parse(l).expect("valid json"))
            .collect();
        let kind = |i: usize| parsed[i].get("kind").and_then(json::Json::as_str).unwrap().to_owned();
        assert_eq!(kind(0), "span_open");
        assert_eq!(kind(1), "span_open");
        assert_eq!(kind(2), "event");
        assert_eq!(kind(3), "span_close");
        assert_eq!(kind(4), "span_close");
        // inner's parent is outer; the event is attributed to inner.
        let outer_id = parsed[0].get("span").and_then(json::Json::as_u64).unwrap();
        let inner_id = parsed[1].get("span").and_then(json::Json::as_u64).unwrap();
        assert_eq!(
            parsed[1].get("parent").and_then(json::Json::as_u64),
            Some(outer_id)
        );
        assert_eq!(
            parsed[2].get("span").and_then(json::Json::as_u64),
            Some(inner_id)
        );
        assert!(parsed[3].get("dur_us").and_then(json::Json::as_u64).is_some());
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        shutdown();
        let s = span("nobody.listens");
        assert!(!s.is_recording());
        assert_eq!(s.id(), 0);
        event!("dropped", n = 1u64);
        drop(s);
    }

    #[test]
    fn counters_register_lazily_and_accumulate() {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        static UNIT_TEST_COUNTER: Counter = Counter::new("obs.unit_test_counter");
        UNIT_TEST_COUNTER.add(100); // disabled: ignored
        assert_eq!(UNIT_TEST_COUNTER.value(), 0);
        let ring = Arc::new(RingSink::new(64));
        install(ring.clone());
        UNIT_TEST_COUNTER.add(2);
        UNIT_TEST_COUNTER.incr();
        assert_eq!(UNIT_TEST_COUNTER.value(), 3);
        let snapshot = metrics_snapshot();
        let find = |name: &str| {
            snapshot
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(find("obs.unit_test_counter"), Some(3));
        emit_counter_records();
        shutdown();
        assert!(ring
            .lines()
            .iter()
            .any(|l| l.contains("obs.unit_test_counter") && l.contains("\"kind\":\"counter\"")));
    }

    #[test]
    fn init_to_rejects_bad_paths() {
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        shutdown();
        assert!(init_to("/nonexistent-dir-xyz/trace.jsonl").is_err());
        assert!(!enabled());
    }
}
