//! `sufsat-cache`: canonicalizing result cache for SUF decision results.
//!
//! The eager decision procedure is a pure function of formula structure:
//! the same SUF formula always yields the same verdict. That makes
//! results perfectly memoizable — *if* trivially-different spellings of
//! the same query can be made to collide. This crate provides the four
//! layers that turn that observation into a cache:
//!
//! * [`canon`] — a deterministic normal form over `suf` formulas plus a
//!   128-bit fingerprint, so α-renamed and reordered queries share a key;
//! * [`store`] — a sharded, byte-budgeted LRU map from fingerprint to
//!   cached verdict;
//! * [`singleflight`] — dedup of concurrent identical requests, with
//!   leader-cancellation handoff;
//! * [`log`] — an append-only checksummed on-disk log so a restarted
//!   daemon starts warm.
//!
//! [`ResultCache`] is the façade gluing them together. `core` consults
//! it through an opt-in handle on `DecideOptions`, which is the one
//! cached decide: the store lookup, single-flight and the rules for what
//! a flight's leader publishes all live there, and `sufsat-serve` sets
//! that handle on every `decide` request.
//!
//! # What is (and is not) cached
//!
//! Only definitive verdicts are stored: `valid` and `invalid`. Timeouts,
//! budget exhaustion and cancellations are circumstances of one run, not
//! properties of the formula, and are never cached. For `invalid`
//! results the store keeps a best-effort counterexample restricted to
//! the *original* formula's symbols (auxiliary constants introduced by
//! elimination are dropped), remapped through the canonical symbol
//! numbering so an α-renamed cache hit gets a model over its own names.
//! The verdict is the contract; the model is a convenience witness.

pub mod canon;
pub mod log;
pub mod singleflight;
pub mod store;

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

pub use canon::{canonicalize, Canonical, Fingerprint};
pub use log::{scan, CacheLog, LoadReport, LogRecord};
pub use singleflight::{Joined, LeaderGuard, SingleFlight};
pub use store::{Store, StoreStats, NUM_SHARDS};

/// The definitive verdicts a cache entry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The formula is valid (its negation is unsatisfiable).
    Valid,
    /// The formula is invalid; a counterexample may accompany it.
    Invalid,
}

impl CachedVerdict {
    /// Stable lowercase name, used in trace events and `cache inspect`.
    pub fn name(self) -> &'static str {
        match self {
            CachedVerdict::Valid => "valid",
            CachedVerdict::Invalid => "invalid",
        }
    }
}

/// A fixed-width digest of the solve that produced a cached entry,
/// preserved so warm hits can still report how expensive the original
/// computation was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsDigest {
    /// Term-DAG nodes in the original formula.
    pub dag_size: u64,
    /// CNF clauses after encoding.
    pub cnf_clauses: u64,
    /// Conflict clauses the solver derived.
    pub conflict_clauses: u64,
    /// CDCL decisions.
    pub decisions: u64,
    /// Unit propagations.
    pub propagations: u64,
    /// Total separation predicates across classes.
    pub sep_predicates: u64,
    /// Microseconds spent translating (eliminate + encode).
    pub translate_time_us: u64,
    /// Microseconds spent in SAT search.
    pub solve_time_us: u64,
}

impl StatsDigest {
    /// Number of `u64` fields in the on-disk encoding. Bump the log
    /// magic if this ever changes.
    pub const FIELDS: usize = 8;

    /// The fields in on-disk order.
    pub fn as_fields(&self) -> [u64; StatsDigest::FIELDS] {
        [
            self.dag_size,
            self.cnf_clauses,
            self.conflict_clauses,
            self.decisions,
            self.propagations,
            self.sep_predicates,
            self.translate_time_us,
            self.solve_time_us,
        ]
    }

    /// Inverse of [`as_fields`](StatsDigest::as_fields).
    pub fn from_fields(fields: [u64; StatsDigest::FIELDS]) -> StatsDigest {
        StatsDigest {
            dag_size: fields[0],
            cnf_clauses: fields[1],
            conflict_clauses: fields[2],
            decisions: fields[3],
            propagations: fields[4],
            sep_predicates: fields[5],
            translate_time_us: fields[6],
            solve_time_us: fields[7],
        }
    }
}

/// One cached result: the verdict, a best-effort counterexample over
/// canonical symbol indices, and the original solve's stats digest.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheValue {
    /// The definitive verdict.
    pub verdict: CachedVerdict,
    /// `(canonical int-var index, value)` pairs of the counterexample
    /// (empty for `Valid`, possibly partial for `Invalid`).
    pub int_model: Vec<(u32, i64)>,
    /// `(canonical bool-var index, value)` pairs of the counterexample.
    pub bool_model: Vec<(u32, bool)>,
    /// Cost of the solve that produced this entry.
    pub digest: StatsDigest,
}

/// The assembled cache: store + single-flight + optional persistence.
///
/// Lookups and inserts are cheap and lock only one shard; the optional
/// log append serializes on its own mutex. All methods take `&self`, so
/// one `Arc<ResultCache>` serves any number of threads.
pub struct ResultCache {
    store: Store,
    flights: SingleFlight<Option<CacheValue>>,
    log: Option<Mutex<CacheLog>>,
    path: Option<PathBuf>,
}

impl ResultCache {
    /// An in-memory cache holding at most `byte_budget` accounted bytes.
    pub fn new(byte_budget: usize) -> ResultCache {
        ResultCache {
            store: Store::new(byte_budget),
            flights: SingleFlight::new(),
            log: None,
            path: None,
        }
    }

    /// A cache backed by the append-only log at `path`: existing records
    /// are loaded (warming the store), a torn tail is truncated away, and
    /// every future insert is appended. Returns the load report so
    /// callers can surface `records loaded / bytes recovered`.
    pub fn with_persistence(
        byte_budget: usize,
        path: &Path,
    ) -> std::io::Result<(ResultCache, LoadReport)> {
        let (log, records, report) = CacheLog::open(path)?;
        let cache = ResultCache {
            store: Store::new(byte_budget),
            flights: SingleFlight::new(),
            log: Some(Mutex::new(log)),
            path: Some(path.to_path_buf()),
        };
        for record in records {
            // Warming is not an insert event and must not re-append.
            cache
                .store
                .insert(record.fingerprint, &record.canon, record.value);
        }
        Ok((cache, report))
    }

    /// The persistence path, if any.
    pub fn persist_path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Looks up a canonicalized formula. Emits `cache.hit` / `cache.miss`
    /// trace events when tracing is enabled.
    pub fn lookup(&self, fp: Fingerprint, canon: &[u8]) -> Option<CacheValue> {
        let result = self.store.lookup(fp, canon);
        if sufsat_obs::enabled() {
            let hex = fp.to_hex();
            match &result {
                Some(_) => {
                    sufsat_obs::event!("cache.hit", fingerprint = &hex, bytes = canon.len())
                }
                None => sufsat_obs::event!("cache.miss", fingerprint = &hex),
            }
        }
        result
    }

    /// Inserts a definitive result, appending to the persistent log when
    /// one is attached. Emits `cache.insert` (and `cache.evict` when the
    /// insert pushed entries out) trace events.
    pub fn insert(&self, fp: Fingerprint, canon: &[u8], value: CacheValue) {
        if let Some(log) = &self.log {
            let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
            // A failed append degrades persistence, not correctness.
            let _ = log.append(fp, canon, &value);
        }
        let verdict = value.verdict;
        let evicted = self.store.insert(fp, canon, value);
        if sufsat_obs::enabled() {
            let hex = fp.to_hex();
            let stats = self.store.stats();
            sufsat_obs::event!(
                "cache.insert",
                fingerprint = &hex,
                verdict = verdict.name(),
                bytes = stats.bytes,
                entries = stats.entries,
            );
            if evicted > 0 {
                sufsat_obs::event!(
                    "cache.evict",
                    fingerprint = &hex,
                    bytes = stats.bytes,
                    entries = stats.entries,
                );
            }
        }
    }

    /// Joins the single-flight for `fp`: the first caller becomes the
    /// leader (solve, then [`LeaderGuard::complete`]); concurrent callers
    /// block until the leader publishes, their own `deadline` expires, or
    /// an abandoned flight promotes them. The flight value is `None` when
    /// the leader finished without a definitive verdict — followers then
    /// solve for themselves.
    pub fn join(
        &self,
        fp: Fingerprint,
        deadline: Option<Instant>,
    ) -> Joined<Option<CacheValue>> {
        self.flights.join(fp, deadline)
    }

    /// Flights currently in progress.
    pub fn in_flight(&self) -> usize {
        self.flights.in_flight()
    }

    /// Store counters and gauges.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Logically drops every entry (generation bump; lazy reclamation).
    pub fn invalidate_all(&self) {
        self.store.invalidate_all();
    }

    /// Every live entry, sorted by fingerprint.
    pub fn snapshot_entries(&self) -> Vec<(Fingerprint, Vec<u8>, CacheValue)> {
        self.store.snapshot_entries()
    }

    /// Compacts the persistent log down to the live store contents.
    /// Returns the compacted size, or `None` when no log is attached.
    pub fn compact_log(&self) -> std::io::Result<Option<u64>> {
        let Some(log) = &self.log else {
            return Ok(None);
        };
        let records: Vec<LogRecord> = self
            .snapshot_entries()
            .into_iter()
            .map(|(fingerprint, canon, value)| LogRecord {
                fingerprint,
                canon,
                value,
            })
            .collect();
        let mut log = log.lock().unwrap_or_else(|e| e.into_inner());
        log.compact(&records).map(Some)
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.store.stats();
        f.debug_struct("ResultCache")
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .field("persisted", &self.path.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(verdict: CachedVerdict) -> CacheValue {
        CacheValue {
            verdict,
            int_model: vec![(0, 3)],
            bool_model: vec![(1, true)],
            digest: StatsDigest {
                conflict_clauses: 12,
                solve_time_us: 340,
                ..StatsDigest::default()
            },
        }
    }

    #[test]
    fn persistent_cache_restarts_warm() {
        let dir = std::env::temp_dir().join(format!("sufsat-cache-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);

        let fp = Fingerprint(0xABCD, 0x1234);
        {
            let (cache, report) = ResultCache::with_persistence(1 << 20, &path).unwrap();
            assert_eq!(report.unique, 0);
            assert!(cache.lookup(fp, b"formula").is_none());
            cache.insert(fp, b"formula", value(CachedVerdict::Invalid));
            assert!(cache.lookup(fp, b"formula").is_some());
        }
        // "Restart": a fresh cache over the same path answers warm.
        let (cache, report) = ResultCache::with_persistence(1 << 20, &path).unwrap();
        assert_eq!(report.unique, 1);
        let hit = cache.lookup(fp, b"formula").expect("warm hit after restart");
        assert_eq!(hit, value(CachedVerdict::Invalid));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_log_drops_superseded_records() {
        let dir = std::env::temp_dir().join(format!("sufsat-cache-clib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.log");
        let _ = std::fs::remove_file(&path);

        let fp = Fingerprint(5, 6);
        let (cache, _) = ResultCache::with_persistence(1 << 20, &path).unwrap();
        for _ in 0..20 {
            cache.insert(fp, b"same", value(CachedVerdict::Valid));
        }
        let compacted = cache.compact_log().unwrap().unwrap();
        drop(cache);
        let (_, report) = log::scan(&path).unwrap();
        assert_eq!(report.records, 1);
        assert!(compacted > 8);
    }

    #[test]
    fn digest_fields_round_trip() {
        let digest = StatsDigest {
            dag_size: 1,
            cnf_clauses: 2,
            conflict_clauses: 3,
            decisions: 4,
            propagations: 5,
            sep_predicates: 6,
            translate_time_us: 7,
            solve_time_us: 8,
        };
        assert_eq!(StatsDigest::from_fields(digest.as_fields()), digest);
    }
}
