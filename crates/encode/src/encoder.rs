//! The unified eager encoder: small-domain (SD), per-constraint (EIJ), and
//! the paper's class-wise HYBRID combination (paper §2.1.2 and §4 step 5).
//!
//! Every atom of the separation formula belongs to exactly one equivalence
//! class of `V_g` constants; the class's method decides how the atom is
//! lowered:
//!
//! * **SD** — symbolic constants become bit-vectors sized by the class's
//!   small-model range; `succ`/`pred` become ripple-carry constant adds,
//!   integer ITEs become muxes, atoms become comparators. `V_p` constants
//!   get fixed, well-spaced values above the class's value band (the
//!   maximal-diversity interpretation).
//! * **EIJ** — integer ITEs are eliminated by path enumeration and each
//!   separation predicate becomes one Boolean variable, with transitivity
//!   constraints generated per class (see [`crate::trans`]).

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use sufsat_sat::CancelToken;
use sufsat_seplog::{AtomOp, GroundTerm, SepAnalysis};
use sufsat_suf::{BoolSym, Term, TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::cnf::CnfMode;
use crate::trans::{
    generate_equality_transitivity, generate_transitivity, BoundTable, EqTable, TransBudgetExceeded,
};

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
    let methods: Vec<ClassMethod> = analysis
        .classes
        .iter()
        .map(|class| match options.mode {
            EncodingMode::Sd => ClassMethod::Sd,
            EncodingMode::Eij => ClassMethod::Eij,
            EncodingMode::Hybrid(threshold) => {
                if class.sep_cnt > threshold {
                    ClassMethod::Sd
                } else {
                    ClassMethod::Eij
                }
            }
            EncodingMode::FixedHybrid => {
                let pure_eq = class
                    .predicates
                    .iter()
                    .all(|p| matches!(p, sufsat_seplog::PredKey::Eq(_, _, 0)));
                if pure_eq {
                    ClassMethod::Eij
                } else {
                    ClassMethod::Sd
                }
            }
        })
        .collect();

    let (min_off, max_off) = analysis.ground.offset_bounds();
    let shift = (-min_off).max(0) as u64;
    let band = (max_off - min_off + 1) as u64;
    let mut p_sorted: Vec<VarSym> = analysis.p_vars.iter().copied().collect();
    p_sorted.sort_unstable();
    let p_index: HashMap<VarSym, usize> =
        p_sorted.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // Per-class SD parameters.
    let class_params: Vec<SdParams> = analysis
        .classes
        .iter()
        .map(|class| {
            let var_bits = bits_for(class.range.max(1));
            let g_max = (1u64 << var_bits) - 1 + shift + max_off.max(0) as u64;
            let p_base = g_max + 1;
            let max_value = p_base + (p_sorted.len() as u64 + 1) * band + shift + band;
            SdParams {
                var_bits,
                width: bits_for(max_value + 1),
                p_base,
                p_stride: band,
            }
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
        for (i, ((class, method), params)) in analysis
            .classes
            .iter()
            .zip(&methods)
            .zip(&class_params)
            .enumerate()
        {
            sufsat_obs::event!(
                "encode.class",
                class = i,
                method = match method {
                    ClassMethod::Sd => "sd",
                    ClassMethod::Eij => "eij",
                },
                sep_cnt = class.sep_cnt,
                threshold = threshold,
                vars = class.vars.len(),
                range = class.range,
                var_bits = params.var_bits,
                width = params.width,
            );
        }
    }

    let eq_only: Vec<bool> = analysis
        .classes
        .iter()
        .map(|c| {
            c.predicates
                .iter()
                .all(|p| matches!(p, sufsat_seplog::PredKey::Eq(..)))
        })
        .collect();

    let mut ctx = Ctx {
        tm,
        analysis,
        methods: &methods,
        class_params: &class_params,
        shift,
        p_index: &p_index,
        circuit: Circuit::new(),
        table: BoundTable::new(),
        eq_table: EqTable::new(),
        eq_only: eq_only.clone(),
        bool_sig: HashMap::new(),
        bool_inputs: HashMap::new(),
        sd_var_bits: HashMap::new(),
        sd_term_bits: HashMap::new(),
        paths: HashMap::new(),
        sd_bit_inputs: HashMap::new(),
    };

    // Single bottom-up pass: Boolean nodes (including the conditions of
    // integer ITEs) appear before the atoms that contain them.
    for id in tm.postorder(root) {
        if tm.sort(id) != sufsat_suf::Sort::Bool {
            continue;
        }
        let sig = match tm.term(id) {
            Term::True => Signal::TRUE,
            Term::False => Signal::FALSE,
            Term::Not(a) => !ctx.bool_sig[a],
            Term::And(a, b) => {
                let (x, y) = (ctx.bool_sig[a], ctx.bool_sig[b]);
                ctx.circuit.and(x, y)
            }
            Term::Or(a, b) => {
                let (x, y) = (ctx.bool_sig[a], ctx.bool_sig[b]);
                ctx.circuit.or(x, y)
            }
            Term::Implies(a, b) => {
                let (x, y) = (ctx.bool_sig[a], ctx.bool_sig[b]);
                ctx.circuit.implies(x, y)
            }
            Term::Iff(a, b) => {
                let (x, y) = (ctx.bool_sig[a], ctx.bool_sig[b]);
                ctx.circuit.xnor(x, y)
            }
            Term::IteBool(c, t, e) => {
                let (sc, st, se) = (ctx.bool_sig[c], ctx.bool_sig[t], ctx.bool_sig[e]);
                ctx.circuit.mux(sc, st, se)
            }
            Term::BoolVar(b) => ctx.bool_var(*b),
            Term::Eq(a, b) => ctx.atom(AtomOp::Eq, *a, *b),
            Term::Lt(a, b) => ctx.atom(AtomOp::Lt, *a, *b),
            Term::PApp(..) => panic!("encode requires an application-free formula"),
            _ => unreachable!("integer node filtered above"),
        };
        ctx.bool_sig.insert(id, sig);
    }
    let formula = ctx.bool_sig[&root];

    // Transitivity constraints per EIJ class.
    let mut trans_clauses: Vec<Vec<Signal>> = Vec::new();
    for (i, ((class, method), eq)) in analysis
        .classes
        .iter()
        .zip(&methods)
        .zip(&eq_only)
        .enumerate()
    {
        if *method == ClassMethod::Eij {
            let budget = options.trans_budget.saturating_sub(trans_clauses.len());
            let result = if *eq {
                generate_equality_transitivity(
                    &mut ctx.circuit,
                    &mut ctx.eq_table,
                    &class.vars,
                    budget,
                    options.deadline,
                    options.cancel.as_ref(),
                )
            } else {
                generate_transitivity(
                    &mut ctx.circuit,
                    &mut ctx.table,
                    &class.vars,
                    budget,
                    options.deadline,
                    options.cancel.as_ref(),
                )
            };
            let clauses = match result {
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
                    equality_only = *eq,
                );
            }
            trans_clauses.extend(clauses);
        }
    }

    let Ctx {
        circuit,
        table,
        eq_table,
        bool_inputs,
        sd_bit_inputs,
        ..
    } = ctx;

    let stats = EncodeStats {
        sd_classes: methods.iter().filter(|m| **m == ClassMethod::Sd).count(),
        eij_classes: methods.iter().filter(|m| **m == ClassMethod::Eij).count(),
        trans_clauses: trans_clauses.len(),
        pred_vars: table.len() + eq_table.len(),
        gates: circuit.num_gates(),
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

    let decode = DecodeInfo {
        sd_bits: sd_bit_inputs,
        eij_bounds: table
            .iter_original()
            .map(|(x, y, c, s)| {
                let input = circuit
                    .input_index(s)
                    .expect("canonical bounds are plain inputs");
                (x, y, c, input)
            })
            .collect(),
        eij_eqs: eq_table
            .iter_original()
            .map(|(x, y, c, s)| {
                let input = circuit
                    .input_index(s)
                    .expect("canonical equalities are plain inputs");
                (x, y, c, input)
            })
            .collect(),
        bool_inputs: bool_inputs
            .iter()
            .map(|(&b, &s)| {
                let input = circuit
                    .input_index(s)
                    .expect("bool constants are plain inputs");
                (b, input)
            })
            .collect(),
        p_vars: p_sorted,
        class_vars: analysis.classes.iter().map(|c| c.vars.clone()).collect(),
        class_methods: methods,
        max_abs_offset: analysis.max_abs_offset,
    };

    Ok(Encoded {
        circuit,
        formula,
        trans_clauses,
        decode,
        stats,
    })
}

#[derive(Debug, Copy, Clone)]
struct SdParams {
    /// Genuine input bits per constant.
    var_bits: usize,
    /// Full arithmetic width.
    width: usize,
    /// First value of the `V_p` band (pre-shift).
    p_base: u64,
    /// Spacing between consecutive `V_p` values.
    p_stride: u64,
}

struct Ctx<'a> {
    tm: &'a TermManager,
    analysis: &'a SepAnalysis,
    methods: &'a [ClassMethod],
    class_params: &'a [SdParams],
    shift: u64,
    p_index: &'a HashMap<VarSym, usize>,
    circuit: Circuit,
    table: BoundTable,
    eq_table: EqTable,
    /// Per class: every separation predicate is an equality (Bryant–Velev
    /// single-variable representation applies).
    eq_only: Vec<bool>,
    bool_sig: HashMap<TermId, Signal>,
    bool_inputs: HashMap<BoolSym, Signal>,
    /// Genuine (unextended) bits per SD-encoded constant.
    sd_var_bits: HashMap<VarSym, Vec<Signal>>,
    /// Encoded bit-vectors per (term, class) context.
    sd_term_bits: HashMap<(TermId, usize), Vec<Signal>>,
    /// EIJ path enumerations per integer term.
    paths: HashMap<TermId, Rc<Vec<(Signal, GroundTerm)>>>,
    /// Input indices of SD bits for decoding.
    sd_bit_inputs: HashMap<VarSym, Vec<u32>>,
}

impl Ctx<'_> {
    fn bool_var(&mut self, b: BoolSym) -> Signal {
        if let Some(&s) = self.bool_inputs.get(&b) {
            return s;
        }
        let s = self.circuit.input();
        self.bool_inputs.insert(b, s);
        s
    }

    /// The class an atom belongs to: the class of any of its `V_g` leaves.
    fn atom_class(&self, lhs: TermId, rhs: TermId) -> Option<usize> {
        for side in [lhs, rhs] {
            for g in self.analysis.ground.leaves(side) {
                if let Some(c) = self.analysis.class_of(g.var) {
                    return Some(c);
                }
            }
        }
        None
    }

    fn atom(&mut self, op: AtomOp, lhs: TermId, rhs: TermId) -> Signal {
        match self.atom_class(lhs, rhs) {
            // All-V_p atoms are decided structurally via path enumeration.
            None => self.atom_eij(op, lhs, rhs, false),
            Some(cid) => match self.methods[cid] {
                ClassMethod::Sd => self.atom_sd(op, lhs, rhs, cid),
                ClassMethod::Eij => self.atom_eij(op, lhs, rhs, self.eq_only[cid]),
            },
        }
    }

    // ---- SD --------------------------------------------------------------

    fn atom_sd(&mut self, op: AtomOp, lhs: TermId, rhs: TermId, cid: usize) -> Signal {
        let a = self.sd_bits(lhs, cid);
        let b = self.sd_bits(rhs, cid);
        match op {
            AtomOp::Eq => self.circuit.eq_bits(&a, &b),
            AtomOp::Lt => self.circuit.lt_bits(&a, &b),
        }
    }

    fn sd_bits(&mut self, t: TermId, cid: usize) -> Vec<Signal> {
        if let Some(bits) = self.sd_term_bits.get(&(t, cid)) {
            return bits.clone();
        }
        let params = self.class_params[cid];
        let out = match self.tm.term(t).clone() {
            Term::IntVar(v) => {
                if let Some(&pi) = self.p_index.get(&v) {
                    let value = params.p_base + (pi as u64 + 1) * params.p_stride + self.shift;
                    self.circuit.const_bits(value, params.width)
                } else {
                    let genuine = match self.sd_var_bits.get(&v) {
                        Some(bits) => bits.clone(),
                        None => {
                            let bits: Vec<Signal> =
                                (0..params.var_bits).map(|_| self.circuit.input()).collect();
                            let idxs: Vec<u32> = bits
                                .iter()
                                .map(|&s| {
                                    self.circuit
                                        .input_index(s)
                                        .expect("variable bits are inputs")
                                })
                                .collect();
                            self.sd_var_bits.insert(v, bits.clone());
                            self.sd_bit_inputs.insert(v, idxs);
                            bits
                        }
                    };
                    let mut bits = genuine;
                    bits.resize(params.width, Signal::FALSE);
                    self.circuit.add_const(&bits, self.shift as i64)
                }
            }
            Term::Succ(a) => {
                let bits = self.sd_bits(a, cid);
                self.circuit.add_const(&bits, 1)
            }
            Term::Pred(a) => {
                let bits = self.sd_bits(a, cid);
                self.circuit.add_const(&bits, -1)
            }
            Term::IteInt(c, th, el) => {
                let sc = self.bool_sig[&c];
                let tb = self.sd_bits(th, cid);
                let eb = self.sd_bits(el, cid);
                self.circuit.mux_bits(sc, &tb, &eb)
            }
            other => unreachable!("non-integer term in SD context: {other:?}"),
        };
        self.sd_term_bits.insert((t, cid), out.clone());
        out
    }

    // ---- EIJ ---------------------------------------------------------------

    fn atom_eij(&mut self, op: AtomOp, lhs: TermId, rhs: TermId, eq_class: bool) -> Signal {
        let lp = self.eij_paths(lhs);
        let rp = self.eij_paths(rhs);
        let mut disjuncts = Vec::with_capacity(lp.len() * rp.len());
        for &(c1, g1) in lp.iter() {
            for &(c2, g2) in rp.iter() {
                let e = self.pred_signal(op, g1, g2, eq_class);
                if e == Signal::FALSE {
                    continue;
                }
                let cond = self.circuit.and(c1, c2);
                let term = self.circuit.and(cond, e);
                disjuncts.push(term);
            }
        }
        self.circuit.or_many(&disjuncts)
    }

    fn eij_paths(&mut self, t: TermId) -> Rc<Vec<(Signal, GroundTerm)>> {
        if let Some(p) = self.paths.get(&t) {
            return Rc::clone(p);
        }
        let out: Vec<(Signal, GroundTerm)> = match self.tm.term(t).clone() {
            Term::IntVar(v) => vec![(Signal::TRUE, GroundTerm { var: v, offset: 0 })],
            Term::Succ(a) => self
                .eij_paths(a)
                .iter()
                .map(|&(c, g)| {
                    (
                        c,
                        GroundTerm {
                            var: g.var,
                            offset: g.offset + 1,
                        },
                    )
                })
                .collect(),
            Term::Pred(a) => self
                .eij_paths(a)
                .iter()
                .map(|&(c, g)| {
                    (
                        c,
                        GroundTerm {
                            var: g.var,
                            offset: g.offset - 1,
                        },
                    )
                })
                .collect(),
            Term::IteInt(c, th, el) => {
                let sc = self.bool_sig[&c];
                let tp = self.eij_paths(th);
                let ep = self.eij_paths(el);
                let mut merged: HashMap<GroundTerm, Signal> = HashMap::new();
                for &(pc, g) in tp.iter() {
                    let cond = self.circuit.and(sc, pc);
                    merge_path(&mut self.circuit, &mut merged, g, cond);
                }
                for &(pc, g) in ep.iter() {
                    let cond = self.circuit.and(!sc, pc);
                    merge_path(&mut self.circuit, &mut merged, g, cond);
                }
                let mut v: Vec<(Signal, GroundTerm)> =
                    merged.into_iter().map(|(g, c)| (c, g)).collect();
                v.sort_by_key(|&(_, g)| g);
                v
            }
            other => unreachable!("non-integer term in EIJ context: {other:?}"),
        };
        let rc = Rc::new(out);
        self.paths.insert(t, Rc::clone(&rc));
        rc
    }

    /// The predicate signal for `g1 ⋈ g2` (paper §4 step 5): constants for
    /// same-variable pairs, `false` for `V_p`-involving equalities between
    /// distinct constants, fresh predicate variables otherwise.
    fn pred_signal(
        &mut self,
        op: AtomOp,
        g1: GroundTerm,
        g2: GroundTerm,
        eq_class: bool,
    ) -> Signal {
        if g1.var == g2.var {
            let truth = match op {
                AtomOp::Eq => g1.offset == g2.offset,
                AtomOp::Lt => g1.offset < g2.offset,
            };
            return if truth { Signal::TRUE } else { Signal::FALSE };
        }
        let p1 = self.p_index.contains_key(&g1.var);
        let p2 = self.p_index.contains_key(&g2.var);
        if p1 || p2 {
            match op {
                // Maximal diversity: distinct V_p-involving terms differ.
                AtomOp::Eq => return Signal::FALSE,
                AtomOp::Lt => panic!(
                    "V_p constant under an inequality contradicts the \
                     positive-equality classification"
                ),
            }
        }
        match op {
            AtomOp::Eq if eq_class => {
                // Equality-only class: one variable per equality
                // (Bryant–Velev), x = y + (k2 - k1).
                self.eq_table
                    .equality(&mut self.circuit, g1.var, g2.var, g2.offset - g1.offset)
            }
            AtomOp::Eq => {
                // g1 = g2  <=>  (g1 - g2 <= d) & (g2 - g1 <= -d) for
                // d = offset difference.
                let d = g2.offset - g1.offset;
                let le1 = self.table.bound(&mut self.circuit, g1.var, g2.var, d);
                let le2 = self.table.bound(&mut self.circuit, g2.var, g1.var, -d);
                self.circuit.and(le1, le2)
            }
            AtomOp::Lt => {
                // g1 < g2  <=>  g1.var - g2.var <= g2.k - g1.k - 1.
                self.table
                    .bound(&mut self.circuit, g1.var, g2.var, g2.offset - g1.offset - 1)
            }
        }
    }
}

fn merge_path(
    circuit: &mut Circuit,
    merged: &mut HashMap<GroundTerm, Signal>,
    g: GroundTerm,
    cond: Signal,
) {
    match merged.get(&g).copied() {
        Some(prev) => {
            let or = circuit.or(prev, cond);
            merged.insert(g, or);
        }
        None => {
            merged.insert(g, cond);
        }
    }
}

fn bits_for(values: u64) -> usize {
    // Number of bits to represent values in [0, values).
    (64 - (values.saturating_sub(1)).leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_ranges() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }
}
