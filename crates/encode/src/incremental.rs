//! Resumable encoder state for incremental sessions.
//!
//! [`crate::encode`] lowers one snapshot of a separation formula in a
//! single shot. An incremental session instead asserts formulas one at a
//! time and wants each `check()` to encode only what is new, keeping the
//! circuit, the predicate-variable tables and the per-constant bit-vectors
//! of earlier checks alive so the SAT solver can keep its learnt clauses.
//! Both lower terms through the same shared lowering (`lower.rs`); this
//! encoder keeps one alive and adds only what sessions need on top of it.
//!
//! [`IncrementalEncoder`] makes that sound by *committing* encoding
//! decisions the first time they are taken and refusing to change them
//! afterwards:
//!
//! * every `V_g` constant is committed to a **domain** (a method — SD or
//!   EIJ — plus SD sizing parameters) the first time it is encoded; later
//!   assertions may only add members to a domain, never move a constant
//!   between domains or change a domain's method;
//! * the global offset shift, the `V_p` value lanes and each constant's
//!   p/g polarity classification are committed the same way;
//! * SD domains are sized with headroom ([`VAR_BITS_HEADROOM`] extra bits)
//!   so that growing equivalence classes keep fitting — a domain larger
//!   than the small-model bound requires is still sound *and* complete.
//!
//! When a new assertion cannot be hosted under the committed decisions
//! (classes straddling two domains, a polarity flip, a range overflow…)
//! [`IncrementalEncoder::check_compatible`] reports a [`ReencodeReason`]
//! and the session falls back to rebuilding encoder + solver from scratch
//! — the sound fallback, never a silent approximation.
//!
//! Transitivity constraints are regenerated per live EIJ class on every
//! extension (the generators in [`crate::trans`] are deterministic and
//! their tables idempotent), and a session-level dedup set ensures each
//! clause is handed to the caller exactly once. Stale clauses over
//! predicates of retracted assertions remain loaded: transitivity clauses
//! are universally valid, so they never affect satisfiability.

use std::collections::{HashMap, HashSet};

use sufsat_seplog::SepAnalysis;
use sufsat_suf::{TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::encoder::{ClassMethod, DecodeInfo, EncodeOptions};
use crate::lower::{bits_for, eq_only, Lowering};
use crate::trans::{clause_key, TransBudgetExceeded};

/// Extra genuine bits given to every SD domain beyond its creating class's
/// small-model requirement, so classes can grow (via later assertions)
/// without forcing a re-encode. Oversized domains remain sound and
/// complete; they only cost a few adder gates.
pub const VAR_BITS_HEADROOM: usize = 2;

/// Why a new assertion cannot be hosted by the committed encoder state and
/// the session must rebuild from scratch.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum ReencodeReason {
    /// A live equivalence class spans constants committed to two different
    /// domains — the committed methods/parameters cannot represent the
    /// merged class uniformly.
    DomainMerge,
    /// A domain committed with the equality-only predicate representation
    /// (one variable per equality) now sees an inequality, which needs the
    /// two-sided bound representation.
    EqOnlyLost,
    /// A live class's small-model range exceeds the bit-width its SD
    /// domain was committed with (even after headroom).
    RangeOverflow,
    /// A constant's positive-equality classification (p vs. g) changed —
    /// cached atom encodings for it are no longer valid.
    PolarityFlip,
    /// A leaf offset exceeds the committed global offset cap, invalidating
    /// the committed shift and `V_p` lane spacing.
    OffsetOverflow,
    /// More `V_p` constants than the committed value lanes can host.
    PLaneOverflow,
}

impl std::fmt::Display for ReencodeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReencodeReason::DomainMerge => "live class spans two committed domains",
            ReencodeReason::EqOnlyLost => "equality-only domain gained an inequality",
            ReencodeReason::RangeOverflow => "class range exceeds committed SD bit-width",
            ReencodeReason::PolarityFlip => "constant's p/g classification changed",
            ReencodeReason::OffsetOverflow => "leaf offset exceeds committed cap",
            ReencodeReason::PLaneOverflow => "V_p count exceeds committed value lanes",
        };
        f.write_str(s)
    }
}

/// What one [`IncrementalEncoder::extend`] call produced.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The signal of each requested root, in request order (cached or
    /// freshly encoded).
    pub roots: Vec<Signal>,
    /// Transitivity clauses not yet handed out by earlier extends; the
    /// caller must load them (unguarded — they are universally valid).
    pub new_trans: Vec<Vec<Signal>>,
    /// Decode metadata scoped to the *live* classes of this extension
    /// (predicates of retracted assertions are filtered out so decoding
    /// never trips over dead, unconstrained predicate variables).
    pub decode: DecodeInfo,
    /// Statistics of this extension.
    pub stats: DeltaStats,
}

/// Statistics of one [`IncrementalEncoder::extend`] call.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct DeltaStats {
    /// Gates added by this extension.
    pub new_gates: usize,
    /// Total gates in the shared circuit after it.
    pub total_gates: usize,
    /// Transitivity clauses newly handed out.
    pub new_trans: usize,
    /// Transitivity clauses regenerated but already handed out earlier
    /// (the reuse the incremental path exists for).
    pub dedup_trans: usize,
    /// Domains created by this extension.
    pub new_domains: usize,
    /// Live classes encoded with SD.
    pub sd_classes: usize,
    /// Live classes encoded with EIJ.
    pub eij_classes: usize,
    /// Canonical predicate variables allocated so far (original + derived).
    pub pred_vars: usize,
}

/// Monotone encoder state shared by every check of an incremental session.
#[derive(Debug, Default)]
pub struct IncrementalEncoder {
    /// Circuit, predicate tables, domains and per-term caches.
    low: Lowering,
    /// Committed domain of each `V_g` constant.
    var_domain: HashMap<VarSym, usize>,
    /// Committed p/g classification of every constant ever encoded.
    committed_pg: HashMap<VarSym, bool>,
    /// Committed global offset cap; fixed at the first extension.
    off_cap: Option<i64>,
    /// Committed `V_p` lane capacity; fixed at the first extension.
    p_lane_cap: usize,
    /// Transitivity clauses already handed out (sorted-signal keys).
    trans_seen: HashSet<Vec<Signal>>,
    trans_emitted: usize,
}

impl IncrementalEncoder {
    /// An empty encoder with nothing committed yet.
    pub fn new() -> IncrementalEncoder {
        IncrementalEncoder::default()
    }

    /// The shared circuit (for CNF loading and model decoding).
    pub fn circuit(&self) -> &Circuit {
        &self.low.circuit
    }

    /// Whether the cached signal of `root` exists (it was encoded by an
    /// earlier extension and can be re-guarded without new gates).
    pub fn cached_root(&self, root: TermId) -> Option<Signal> {
        self.low.bool_sig.get(&root).copied()
    }

    /// Checks whether the live conjunction described by `analysis` can be
    /// hosted under the committed encoding decisions.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReencodeReason`] making the committed state
    /// unusable; the caller must then rebuild encoder and solver from
    /// scratch (the sound fallback).
    pub fn check_compatible(&self, analysis: &SepAnalysis) -> Result<(), ReencodeReason> {
        let Some(off_cap) = self.off_cap else {
            // Nothing committed yet: the first extension fixes the globals.
            return Ok(());
        };
        if analysis.max_abs_offset > off_cap {
            return Err(ReencodeReason::OffsetOverflow);
        }
        // Polarity commitments: every constant of the live formula must
        // keep the classification it was first encoded under.
        for class in &analysis.classes {
            for &v in &class.vars {
                if self.committed_pg.get(&v).copied() == Some(true) {
                    return Err(ReencodeReason::PolarityFlip);
                }
            }
        }
        let mut p_new = 0usize;
        for &v in &analysis.p_vars {
            match self.committed_pg.get(&v) {
                Some(false) => return Err(ReencodeReason::PolarityFlip),
                Some(true) => {}
                None => p_new += 1,
            }
        }
        if self.low.p_index.len() + p_new > self.p_lane_cap {
            return Err(ReencodeReason::PLaneOverflow);
        }
        for class in &analysis.classes {
            let mut domain: Option<usize> = None;
            for &v in &class.vars {
                let Some(&d) = self.var_domain.get(&v) else {
                    continue;
                };
                match domain {
                    None => domain = Some(d),
                    Some(prev) if prev != d => return Err(ReencodeReason::DomainMerge),
                    Some(_) => {}
                }
            }
            let Some(d) = domain else {
                continue; // all-new class: a fresh domain will host it
            };
            let dom = &self.low.domains[d];
            match dom.method {
                ClassMethod::Sd => {
                    if class.range > 1u64 << dom.var_bits {
                        return Err(ReencodeReason::RangeOverflow);
                    }
                }
                ClassMethod::Eij => {
                    if dom.eq_only && !eq_only(class) {
                        return Err(ReencodeReason::EqOnlyLost);
                    }
                }
            }
        }
        Ok(())
    }

    /// Encodes the given roots against the live `analysis`, extending the
    /// committed state monotonically. The caller must have verified
    /// [`Self::check_compatible`] first (violations panic here).
    ///
    /// # Errors
    ///
    /// Returns [`TransBudgetExceeded`] when transitivity regeneration
    /// blows past `options.trans_budget`. The committed state stays
    /// consistent (tables and circuit are monotone); a later extension
    /// with a larger budget can pick up where this one stopped.
    ///
    /// # Panics
    ///
    /// Panics if a root contains uninterpreted applications, if a `V_p`
    /// constant occurs under an inequality, or if the analysis is
    /// incompatible with the committed state.
    pub fn extend(
        &mut self,
        tm: &TermManager,
        analysis: &SepAnalysis,
        roots: &[TermId],
        options: &EncodeOptions,
    ) -> Result<Delta, TransBudgetExceeded> {
        let gates_before = self.low.circuit.num_gates();
        let obs_span = sufsat_obs::span_with!(
            "encode.extend",
            roots = roots.len(),
            classes = analysis.classes.len(),
            committed_domains = self.low.domains.len(),
        );

        // First extension commits the globals: the offset cap (with
        // headroom), which fixes the shift and the V_p spacing, and the
        // V_p lane capacity.
        let off_cap = *self.off_cap.get_or_insert_with(|| {
            let off_cap = 4 * analysis.max_abs_offset + 8;
            self.p_lane_cap = 2 * analysis.p_vars.len() + 8;
            self.low.shift = off_cap as u64;
            self.low.stride = (2 * off_cap + 1) as u64;
            off_cap
        });

        // Commit p/g classifications and V_p lanes.
        self.low.add_p_lanes(&analysis.p_vars);
        assert!(
            self.low.p_index.len() <= self.p_lane_cap,
            "V_p lane overflow not caught"
        );
        for &v in &analysis.p_vars {
            self.committed_pg.insert(v, true);
        }

        // Map live classes to domains, creating domains for all-new
        // classes and absorbing new members into committed ones.
        let mut new_domains = 0usize;
        let mut class_domain: Vec<usize> = Vec::with_capacity(analysis.classes.len());
        for class in &analysis.classes {
            let mut domain: Option<usize> = None;
            for &v in &class.vars {
                if let Some(&d) = self.var_domain.get(&v) {
                    assert!(
                        domain.is_none() || domain == Some(d),
                        "class spans two committed domains"
                    );
                    domain = Some(d);
                }
            }
            let d = domain.unwrap_or_else(|| {
                new_domains += 1;
                let var_bits = bits_for(class.range.max(1)) + VAR_BITS_HEADROOM;
                let lanes = self.p_lane_cap as u64 + 2;
                self.low
                    .add_domain(class, options.mode, var_bits, off_cap as u64, lanes)
            });
            for &v in &class.vars {
                self.var_domain.insert(v, d);
                self.committed_pg.insert(v, false);
            }
            class_domain.push(d);
        }

        // Encode the new roots; cached terms short-circuit whole cones,
        // which is where incremental reuse happens.
        let root_sigs: Vec<Signal> = roots
            .iter()
            .map(|&r| self.low.lower(tm, analysis, &class_domain, r))
            .collect();

        // Regenerate transitivity for every live EIJ class and keep only
        // clauses not yet handed out. Regeneration over the *current* full
        // membership covers every historical predicate among the members,
        // so each check's clause set is complete for its live classes.
        let mut new_trans: Vec<Vec<Signal>> = Vec::new();
        let mut dedup_trans = 0usize;
        for (cid, class) in analysis.classes.iter().enumerate() {
            let d = class_domain[cid];
            if self.low.domains[d].method != ClassMethod::Eij {
                continue;
            }
            let budget = options
                .trans_budget
                .saturating_sub(self.trans_emitted + new_trans.len());
            let clauses = match self.low.transitivity(d, &class.vars, budget, options) {
                Ok(clauses) => clauses,
                Err(err) => {
                    sufsat_obs::event!(
                        "encode.extend.abort",
                        class = cid,
                        cancelled = err.cancelled,
                        timed_out = err.timed_out,
                        generated = new_trans.len(),
                    );
                    return Err(err);
                }
            };
            for clause in clauses {
                if self.trans_seen.insert(clause_key(&clause)) {
                    new_trans.push(clause);
                } else {
                    dedup_trans += 1;
                }
            }
        }
        self.trans_emitted += new_trans.len();

        let decode = self.live_decode_info(analysis, &class_domain, off_cap);
        let sd_classes = class_domain
            .iter()
            .filter(|&&d| self.low.domains[d].method == ClassMethod::Sd)
            .count();
        let stats = DeltaStats {
            new_gates: self.low.circuit.num_gates() - gates_before,
            total_gates: self.low.circuit.num_gates(),
            new_trans: new_trans.len(),
            dedup_trans,
            new_domains,
            sd_classes,
            eij_classes: class_domain.len() - sd_classes,
            pred_vars: self.low.pred_vars(),
        };
        if obs_span.is_recording() {
            sufsat_obs::event!(
                "encode.extend.done",
                new_gates = stats.new_gates,
                total_gates = stats.total_gates,
                new_trans = stats.new_trans,
                dedup_trans = stats.dedup_trans,
                new_domains = stats.new_domains,
                pred_vars = stats.pred_vars,
            );
        }
        Ok(Delta {
            roots: root_sigs,
            new_trans,
            decode,
            stats,
        })
    }

    /// Decode metadata restricted to the live classes: only canonical
    /// predicates whose *both* endpoints sit in the same live EIJ class
    /// are included, so predicates surviving from retracted assertions
    /// (unconstrained in the current model) cannot poison decoding.
    fn live_decode_info(
        &self,
        analysis: &SepAnalysis,
        class_domain: &[usize],
        off_cap: i64,
    ) -> DecodeInfo {
        let mut eij_class_of: HashMap<VarSym, usize> = HashMap::new();
        for (cid, class) in analysis.classes.iter().enumerate() {
            if self.low.domains[class_domain[cid]].method == ClassMethod::Eij {
                for &v in &class.vars {
                    eij_class_of.insert(v, cid);
                }
            }
        }
        self.low.decode_info(analysis, class_domain, off_cap, |x, y| {
            matches!((eij_class_of.get(&x), eij_class_of.get(&y)), (Some(a), Some(b)) if a == b)
        })
    }
}
