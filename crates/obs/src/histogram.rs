//! Lock-free log-linear histograms and rolling-window aggregation.
//!
//! A [`HistogramBins`] is a fixed array of atomic buckets laid out in the
//! HDR style: values below 16 are counted exactly, and every power-of-two
//! octave above that is split into 16 linear sub-buckets, bounding the
//! relative quantile error at 1/16 (~6.25 %). Recording is a handful of
//! relaxed atomic RMWs — no locks, no allocation — so it is safe on the
//! hottest serve/solver paths. A [`Histogram`] wraps a set of bins behind
//! the same `static`-declaration / lazy-registration pattern as
//! [`Counter`](crate::Counter); a [`RollingWindow`] keeps several bins
//! rotating over time so a scraper can ask for "the last N seconds".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Linear sub-buckets per power-of-two octave. 16 bounds the relative
/// error of a reported quantile at 1/16 of the true value.
const SUB_BUCKETS: u64 = 16;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 4;
/// Bucket count: 16 exact low values plus 60 octaves × 16 sub-buckets
/// covering the rest of the `u64` range.
pub const NUM_BUCKETS: usize = 976;

/// Maps a value to its bucket index. Total order preserving: a larger
/// value never lands in a smaller bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // highest set bit, >= SUB_BITS
    let shift = h - SUB_BITS;
    ((h - SUB_BITS + 1) as u64 * SUB_BUCKETS + (v >> shift) - SUB_BUCKETS) as usize
}

/// The smallest value that maps to bucket `i`.
#[inline]
fn bucket_lower(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUB_BUCKETS {
        return i;
    }
    (SUB_BUCKETS + i % SUB_BUCKETS) << (i / SUB_BUCKETS - 1)
}

/// The largest value that maps to bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_lower(i + 1) - 1
}

/// A fixed-size set of atomic histogram buckets.
///
/// This is the always-on recording surface: unlike [`Histogram`] it is not
/// gated on [`enabled`](crate::enabled), so a server can feed its latency
/// distribution regardless of whether tracing is installed. `record` is
/// wait-free (relaxed atomic adds plus a `fetch_max`) and never allocates.
pub struct HistogramBins {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramBins {
    /// An empty set of bins. `const`, so usable in `static` position.
    pub const fn new() -> HistogramBins {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HistogramBins {
            buckets: [ZERO; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets every bucket to zero. Concurrent `record` calls may be
    /// partially lost around a reset; acceptable for monitoring use.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// A point-in-time plain copy of the bins. Concurrent recording makes
    /// the copy approximate (bucket totals may straddle in-flight
    /// updates), never torn per bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Adds every bucket of `self` into `snap`.
    fn merge_into(&self, snap: &mut HistogramSnapshot) {
        for (dst, src) in snap.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst += src.load(Ordering::Relaxed);
        }
        snap.count += self.count.load(Ordering::Relaxed);
        snap.sum += self.sum.load(Ordering::Relaxed);
        snap.max = snap.max.max(self.max.load(Ordering::Relaxed));
    }
}

impl Default for HistogramBins {
    fn default() -> HistogramBins {
        HistogramBins::new()
    }
}

/// A plain (non-atomic) copy of histogram state: quantiles, merging and
/// rendering happen here, off the hot path.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot (useful as a merge accumulator).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sum of recorded observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest recorded observation (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The mean of recorded observations, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the containing
    /// bucket's upper bound (capped at the exact max), so the estimate
    /// never under-reports and over-reports by at most 1/16 of the true
    /// value. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` into `self` bucket-wise. Associative and
    /// commutative: merge order never changes any reported quantile.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, inclusive_upper_bound, count)`
    /// triples in increasing value order — the raw material for
    /// Prometheus-style cumulative bucket exposition.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_lower(i), bucket_upper(i), n))
            .collect()
    }
}

/// A named histogram declared as a `static`, mirroring
/// [`Counter`](crate::Counter): the first `record` while tracing is
/// enabled registers it (one short-lived lock), after which every record
/// is a few relaxed atomic RMWs. While tracing is disabled, `record`
/// returns after one relaxed atomic load.
///
/// ```
/// static LATENCY: sufsat_obs::Histogram = sufsat_obs::Histogram::new("serve.latency_us");
/// LATENCY.record(1234); // no-op unless tracing is enabled
/// ```
pub struct Histogram {
    name: &'static str,
    slot: OnceLock<Arc<HistogramBins>>,
}

impl Histogram {
    /// Declares a histogram. Registration is deferred to the first record
    /// with tracing enabled.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            slot: OnceLock::new(),
        }
    }

    /// Records one observation. A no-op (one atomic load) while tracing
    /// is disabled; allocation-free once registered.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.slot
            .get_or_init(|| crate::metrics::register_histogram(self.name))
            .record(v);
    }

    /// A snapshot of the current state (empty if never registered).
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.slot
            .get()
            .map_or_else(HistogramSnapshot::empty, |bins| bins.snapshot())
    }
}

/// How many time slots a [`RollingWindow`] rotates through.
const WINDOW_SLOTS: usize = 6;

/// A time-windowed histogram: recent observations only, so a dashboard
/// can show "p99 over the last minute" instead of since-process-start.
///
/// The window is divided into [`WINDOW_SLOTS`] equal slots, each backed by
/// its own [`HistogramBins`] and stamped with the slot number it currently
/// holds. Recording writes to the current slot, lazily reclaiming it (one
/// short mutex section per slot period, not per record) when the stamp is
/// stale; a snapshot merges every slot still inside the window. The
/// effective span of a snapshot therefore varies between
/// `window - window/SLOTS` and `window`.
pub struct RollingWindow {
    slots: Box<[WindowSlot]>,
    slot_millis: u64,
    epoch: Instant,
    rotate: Mutex<()>,
}

struct WindowSlot {
    id: AtomicU64,
    bins: HistogramBins,
}

impl RollingWindow {
    /// A window covering roughly `window` of recent time. Sub-second
    /// windows are rounded up so each slot spans at least 1 ms.
    pub fn new(window: Duration) -> RollingWindow {
        let slot_millis = (window.as_millis() as u64 / WINDOW_SLOTS as u64).max(1);
        let slots = (0..WINDOW_SLOTS)
            .map(|_| WindowSlot {
                // u64::MAX marks "never used": no real slot number matches.
                id: AtomicU64::new(u64::MAX),
                bins: HistogramBins::new(),
            })
            .collect();
        RollingWindow {
            slots,
            slot_millis,
            epoch: Instant::now(),
            rotate: Mutex::new(()),
        }
    }

    /// Records one observation at the current time.
    pub fn record(&self, v: u64) {
        self.record_at(v, self.epoch.elapsed());
    }

    /// Records one observation at an explicit offset from the window's
    /// creation. Exposed so tests can drive rotation deterministically.
    pub fn record_at(&self, v: u64, elapsed: Duration) {
        let slot_no = elapsed.as_millis() as u64 / self.slot_millis;
        let slot = &self.slots[(slot_no % WINDOW_SLOTS as u64) as usize];
        if slot.id.load(Ordering::Acquire) != slot_no {
            let _guard = self.rotate.lock().unwrap_or_else(|e| e.into_inner());
            if slot.id.load(Ordering::Acquire) != slot_no {
                slot.bins.clear();
                slot.id.store(slot_no, Ordering::Release);
            }
        }
        slot.bins.record(v);
    }

    /// Merged snapshot of every slot still inside the window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.snapshot_at(self.epoch.elapsed())
    }

    /// Merged snapshot at an explicit offset from the window's creation.
    pub fn snapshot_at(&self, elapsed: Duration) -> HistogramSnapshot {
        let now_slot = elapsed.as_millis() as u64 / self.slot_millis;
        let oldest = now_slot.saturating_sub(WINDOW_SLOTS as u64 - 1);
        let mut snap = HistogramSnapshot::empty();
        for slot in self.slots.iter() {
            let id = slot.id.load(Ordering::Acquire);
            if id != u64::MAX && id >= oldest && id <= now_slot {
                slot.bins.merge_into(&mut snap);
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_round_trips() {
        let mut prev = 0usize;
        let probes: Vec<u64> = (0..2048)
            .chain((11..63).flat_map(|h| {
                let base = 1u64 << h;
                [base - 1, base, base + base / 3, base + base / 2]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(i >= prev || v < bucket_lower(prev), "non-monotone at {v}");
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v <= bucket_upper(i), "upper({i}) < {v}");
            prev = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        for i in 1..NUM_BUCKETS {
            assert_eq!(
                bucket_upper(i - 1),
                bucket_lower(i) - 1,
                "gap between buckets {} and {}",
                i - 1,
                i
            );
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_on_small_exact_values() {
        let bins = HistogramBins::new();
        for v in 0..10u64 {
            bins.record(v);
        }
        let snap = bins.snapshot();
        assert_eq!(snap.count(), 10);
        assert_eq!(snap.sum(), 45);
        assert_eq!(snap.max(), 9);
        // Values < 16 live in exact buckets: quantiles are exact.
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(0.5), 4);
        assert_eq!(snap.quantile(1.0), 9);
    }

    #[test]
    fn rolling_window_expires_old_slots() {
        let w = RollingWindow::new(Duration::from_millis(600)); // 100 ms slots
        let at = Duration::from_millis;
        w.record_at(5, at(0));
        w.record_at(7, at(50));
        assert_eq!(w.snapshot_at(at(60)).count(), 2);
        // 650 ms later the slot-0 observations have aged out.
        w.record_at(9, at(650));
        let snap = w.snapshot_at(at(660));
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.max(), 9);
        // A slot number that wraps onto the same backing slot reclaims it,
        // dropping the expired observation recorded at 650 ms.
        w.record_at(11, at(1250));
        let snap = w.snapshot_at(at(1250));
        assert_eq!(snap.count(), 1);
        assert_eq!(snap.max(), 11);
    }
}
