//! Named atomic counters.
//!
//! A [`Counter`] is declared as a `static` at the use site;
//! the first update while tracing is enabled registers it in the global
//! registry (one short-lived lock, once per site), after which every
//! update is a single relaxed atomic RMW. While tracing is disabled,
//! updates return after one relaxed atomic load — no lock, no allocation,
//! no registration.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::HistogramBins;

enum Metric {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistogramBins>),
}

static REGISTRY: Mutex<Vec<(&'static str, Metric)>> = Mutex::new(Vec::new());

fn register_counter(name: &'static str) -> Arc<AtomicU64> {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for (existing, metric) in registry.iter() {
        if *existing == name {
            if let Metric::Counter(cell) = metric {
                return Arc::clone(cell);
            }
        }
    }
    let cell = Arc::new(AtomicU64::new(0));
    registry.push((name, Metric::Counter(Arc::clone(&cell))));
    cell
}

pub(crate) fn register_histogram(name: &'static str) -> Arc<HistogramBins> {
    let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for (existing, metric) in registry.iter() {
        if *existing == name {
            if let Metric::Histogram(cell) = metric {
                return Arc::clone(cell);
            }
        }
    }
    let cell = Arc::new(HistogramBins::new());
    registry.push((name, Metric::Histogram(Arc::clone(&cell))));
    cell
}

/// A monotonically increasing named counter.
///
/// ```
/// static CONFLICTS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.conflicts");
/// CONFLICTS.add(3); // no-op unless tracing is enabled
/// ```
pub struct Counter {
    name: &'static str,
    slot: OnceLock<Arc<AtomicU64>>,
}

impl Counter {
    /// Declares a counter. Registration is deferred to the first update
    /// with tracing enabled.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Adds `delta`. A no-op (one atomic load) while tracing is disabled.
    pub fn add(&self, delta: u64) {
        if !crate::enabled() {
            return;
        }
        self.slot
            .get_or_init(|| register_counter(self.name))
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 if never registered).
    pub fn value(&self) -> u64 {
        self.slot
            .get()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A point-in-time copy of every registered metric, sorted by name.
/// A histogram contributes derived entries: `<name>.count`, `<name>.p50`,
/// `<name>.p95`, `<name>.p99` and `<name>.max`.
pub fn metrics_snapshot() -> Vec<(String, i64)> {
    let registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut out: Vec<(String, i64)> = Vec::with_capacity(registry.len());
    for (name, metric) in registry.iter() {
        match metric {
            Metric::Counter(c) => out.push(((*name).to_owned(), c.load(Ordering::Relaxed) as i64)),
            Metric::Histogram(h) => {
                let snap = h.snapshot();
                out.push((format!("{name}.count"), snap.count() as i64));
                out.push((format!("{name}.p50"), snap.quantile(0.50) as i64));
                out.push((format!("{name}.p95"), snap.quantile(0.95) as i64));
                out.push((format!("{name}.p99"), snap.quantile(0.99) as i64));
                out.push((format!("{name}.max"), snap.max() as i64));
            }
        }
    }
    out.sort();
    out
}

/// Emits one `counter` record per registered metric to the active sink.
/// Typically called right before [`shutdown`](crate::shutdown) so traces
/// end with a metrics summary.
pub fn emit_counter_records() {
    if !crate::enabled() {
        return;
    }
    for (name, value) in metrics_snapshot() {
        crate::counter_record(&name, value);
    }
}
