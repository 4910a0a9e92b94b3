//! The one-shot eager encoder: small-domain (SD), per-constraint (EIJ),
//! and the paper's class-wise HYBRID combination (paper §2.1.2 and §4
//! step 5), lowering one snapshot of a separation formula.
//!
//! [`encode`] gives every equivalence class a domain of its own, sized
//! exactly by the class's small-model range, and hands the per-term work
//! to the lowering shared with the incremental encoder (`lower.rs`).

use std::collections::HashMap;
use std::time::Instant;

use sufsat_sat::CancelToken;
use sufsat_seplog::SepAnalysis;
use sufsat_suf::{BoolSym, TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::cnf::CnfMode;
use crate::lower::{bits_for, Lowering};
use crate::trans::TransBudgetExceeded;

/// Which eager encoding drives each class.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum EncodingMode {
    /// Small-domain (finite instantiation) for every class.
    Sd,
    /// Per-constraint for every class.
    Eij,
    /// The paper's hybrid: EIJ unless `SepCnt(Vᵢ) > threshold`, then SD.
    Hybrid(usize),
    /// The earlier fixed rule the paper compares against: EIJ only for
    /// classes whose predicates are pure equalities without arithmetic.
    FixedHybrid,
}

/// The method chosen for one class.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum ClassMethod {
    /// Small-domain bit-vector encoding.
    Sd,
    /// Per-constraint predicate-variable encoding.
    Eij,
}

/// Options controlling the encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeOptions {
    /// Per-class method selection.
    pub mode: EncodingMode,
    /// CNF conversion style used downstream.
    pub cnf: CnfMode,
    /// Budget on generated transitivity constraints; exceeding it aborts
    /// the translation (the paper's EIJ translation-stage timeout).
    pub trans_budget: usize,
    /// Optional wall-clock deadline for transitivity generation.
    pub deadline: Option<Instant>,
    /// Optional cooperative cancellation token polled during transitivity
    /// generation, so a cancelled request can abandon a blowing-up EIJ
    /// translation, not just a running SAT search.
    pub cancel: Option<CancelToken>,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            mode: EncodingMode::Hybrid(700),
            cnf: CnfMode::default(),
            trans_budget: 2_000_000,
            deadline: None,
            cancel: None,
        }
    }
}

/// Statistics of one encoding run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncodeStats {
    /// Classes encoded with SD.
    pub sd_classes: usize,
    /// Classes encoded with EIJ.
    pub eij_classes: usize,
    /// Transitivity clauses generated.
    pub trans_clauses: usize,
    /// Canonical predicate variables allocated (original + derived).
    pub pred_vars: usize,
    /// Circuit gates built.
    pub gates: usize,
}

/// Decoding metadata mapping circuit inputs back to symbolic constants.
#[derive(Debug, Clone, Default)]
pub struct DecodeInfo {
    /// Little-endian genuine bit inputs per SD-encoded `V_g` constant.
    pub sd_bits: HashMap<VarSym, Vec<u32>>,
    /// Canonical EIJ bounds: `(x, y, c, input)` meaning input true ⇔
    /// `x − y ≤ c`.
    pub eij_bounds: Vec<(VarSym, VarSym, i64, u32)>,
    /// Canonical EIJ equalities (equality-only classes): `(x, y, c, input)`
    /// meaning input true ⇔ `x = y + c`.
    pub eij_eqs: Vec<(VarSym, VarSym, i64, u32)>,
    /// Input index of each Boolean symbolic constant.
    pub bool_inputs: HashMap<BoolSym, u32>,
    /// `V_p` constants, in symbol order.
    pub p_vars: Vec<VarSym>,
    /// Class members (for grouping EIJ bounds at decode time).
    pub class_vars: Vec<Vec<VarSym>>,
    /// Method per class.
    pub class_methods: Vec<ClassMethod>,
    /// Largest absolute leaf offset (for diverse `V_p` spacing).
    pub max_abs_offset: i64,
}

/// The result of encoding a separation formula.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The circuit both encoders share.
    pub circuit: Circuit,
    /// Signal computing the formula (`F_bvar` in the paper).
    pub formula: Signal,
    /// Transitivity clauses over circuit signals (`F_trans`).
    pub trans_clauses: Vec<Vec<Signal>>,
    /// Decoding metadata.
    pub decode: DecodeInfo,
    /// Statistics.
    pub stats: EncodeStats,
}

/// Encodes an application-free separation formula.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] when EIJ transitivity generation blows
/// past `options.trans_budget`.
///
/// # Panics
///
/// Panics if the formula contains uninterpreted applications, or if a `V_p`
/// constant occurs under an inequality (which the positive-equality
/// classification rules out).
pub fn encode(
    tm: &TermManager,
    root: TermId,
    analysis: &SepAnalysis,
    options: &EncodeOptions,
) -> Result<Encoded, TransBudgetExceeded> {
    let obs_span = sufsat_obs::span_with!(
        "encode",
        mode = match options.mode {
            EncodingMode::Sd => "sd",
            EncodingMode::Eij => "eij",
            EncodingMode::Hybrid(_) => "hybrid",
            EncodingMode::FixedHybrid => "fixed-hybrid",
        },
        classes = analysis.classes.len(),
    );

    // One exactly sized domain per class: the offsets seen, shifted to
    // start at 0, and one V_p lane per V_p constant.
    let (min_off, max_off) = analysis.ground.offset_bounds();
    let mut low = Lowering::new((-min_off).max(0) as u64, (max_off - min_off + 1) as u64);
    low.add_p_lanes(&analysis.p_vars);
    let lanes = analysis.p_vars.len() as u64 + 1;
    let class_domain: Vec<usize> = analysis
        .classes
        .iter()
        .map(|class| {
            let var_bits = bits_for(class.range.max(1));
            low.add_domain(class, options.mode, var_bits, max_off.max(0) as u64, lanes)
        })
        .collect();

    if obs_span.is_recording() {
        // One record per class: the method decision (for HYBRID, the
        // threshold it was judged against) and the SD bit-widths that size
        // the small-model domain.
        let threshold = match options.mode {
            EncodingMode::Hybrid(t) => t as i64,
            _ => -1,
        };
        for (i, (class, dom)) in analysis.classes.iter().zip(&low.domains).enumerate() {
            sufsat_obs::event!(
                "encode.class",
                class = i,
                method = match dom.method {
                    ClassMethod::Sd => "sd",
                    ClassMethod::Eij => "eij",
                },
                sep_cnt = class.sep_cnt,
                threshold = threshold,
                vars = class.vars.len(),
                range = class.range,
                var_bits = dom.var_bits,
                width = dom.width,
            );
        }
    }

    let formula = low.lower(tm, analysis, &class_domain, root);

    // Transitivity constraints per EIJ class.
    let mut trans_clauses: Vec<Vec<Signal>> = Vec::new();
    for (i, class) in analysis.classes.iter().enumerate() {
        if low.domains[i].method != ClassMethod::Eij {
            continue;
        }
        let budget = options.trans_budget.saturating_sub(trans_clauses.len());
        let clauses = match low.transitivity(i, &class.vars, None, budget, options) {
            Ok(clauses) => clauses,
            Err(err) => {
                sufsat_obs::event!(
                    "encode.abort",
                    class = i,
                    cancelled = err.cancelled,
                    timed_out = err.timed_out,
                    generated = trans_clauses.len(),
                );
                return Err(err);
            }
        };
        if obs_span.is_recording() {
            sufsat_obs::event!(
                "encode.trans",
                class = i,
                clauses = clauses.len(),
                equality_only = low.domains[i].eq_only,
            );
        }
        trans_clauses.extend(clauses);
    }

    let sd_classes = low
        .domains
        .iter()
        .filter(|d| d.method == ClassMethod::Sd)
        .count();
    let stats = EncodeStats {
        sd_classes,
        eij_classes: low.domains.len() - sd_classes,
        trans_clauses: trans_clauses.len(),
        pred_vars: low.pred_vars(),
        gates: low.circuit.num_gates(),
    };
    if obs_span.is_recording() {
        sufsat_obs::event!(
            "encode.done",
            sd_classes = stats.sd_classes,
            eij_classes = stats.eij_classes,
            trans_clauses = stats.trans_clauses,
            pred_vars = stats.pred_vars,
            gates = stats.gates,
        );
    }

    let decode = low.decode_info(analysis, &class_domain, analysis.max_abs_offset, None);
    Ok(Encoded {
        circuit: low.circuit,
        formula,
        trans_clauses,
        decode,
        stats,
    })
}
