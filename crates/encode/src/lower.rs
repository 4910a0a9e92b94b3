//! The per-term lowering both eager encoders share: SD bit-vectors,
//! EIJ predicate variables and the class-wise choice between them (paper
//! §2.1.2 and §4 step 5).
//!
//! Every atom of the separation formula belongs to exactly one equivalence
//! class of `V_g` constants, and every class is hosted by one **domain**:
//! a method plus SD sizing. The domain's method decides how the atom is
//! lowered:
//!
//! * **SD** — symbolic constants become bit-vectors sized by the domain;
//!   `succ`/`pred` become ripple-carry constant adds, integer ITEs become
//!   muxes, atoms become comparators. `V_p` constants get fixed,
//!   well-spaced values above the domain's value band (the
//!   maximal-diversity interpretation).
//! * **EIJ** — integer ITEs are eliminated by path enumeration and each
//!   separation predicate becomes one Boolean variable, with transitivity
//!   constraints generated per class (see [`crate::trans`]).
//!
//! [`Lowering`] owns the circuit, the predicate tables and every per-term
//! cache. [`crate::encode`] builds a fresh one with one exactly sized
//! domain per class; [`crate::IncrementalEncoder`] keeps one alive across
//! checks and decides which domain hosts each class.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sufsat_seplog::{AtomOp, Class, GroundTerm, PredKey, SepAnalysis};
use sufsat_suf::{BoolSym, Sort, Term, TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::encoder::{ClassMethod, DecodeInfo, EncodeOptions, EncodingMode};
use crate::trans::{
    generate_equality_transitivity, generate_transitivity, BoundTable, EqTable, TransBudgetExceeded,
};

/// One encoding domain: the `V_g` constants of one or more classes,
/// sharing a method and (for SD) sizing parameters.
#[derive(Debug, Copy, Clone)]
pub(crate) struct Domain {
    pub(crate) method: ClassMethod,
    /// Every predicate is an equality, so EIJ uses one variable per
    /// equality (Bryant–Velev) instead of a pair of bounds.
    pub(crate) eq_only: bool,
    /// Genuine input bits per constant (SD domains).
    pub(crate) var_bits: usize,
    /// Full arithmetic width (SD domains).
    pub(crate) width: usize,
    /// First value of the `V_p` band, pre-shift (SD domains).
    pub(crate) p_base: u64,
}

/// Circuit, predicate tables and per-term caches of one lowering.
#[derive(Debug, Default)]
pub(crate) struct Lowering {
    pub(crate) circuit: Circuit,
    table: BoundTable,
    eq_table: EqTable,
    pub(crate) domains: Vec<Domain>,
    /// Added to every SD value so that negative offsets stay in range.
    pub(crate) shift: u64,
    /// Spacing between consecutive `V_p` values.
    pub(crate) stride: u64,
    /// Value lane of each `V_p` constant.
    pub(crate) p_index: HashMap<VarSym, usize>,
    /// Signal per Boolean term.
    pub(crate) bool_sig: HashMap<TermId, Signal>,
    bool_inputs: HashMap<BoolSym, Signal>,
    /// Genuine (unextended) bits per SD-encoded constant.
    sd_var_bits: HashMap<VarSym, Vec<Signal>>,
    /// Encoded bit-vectors per (term, domain) context.
    sd_term_bits: HashMap<(TermId, usize), Vec<Signal>>,
    /// EIJ path enumerations per integer term.
    paths: HashMap<TermId, Arc<Vec<(Signal, GroundTerm)>>>,
    /// Input indices of SD bits for decoding.
    sd_bit_inputs: HashMap<VarSym, Vec<u32>>,
}

impl Lowering {
    /// An empty lowering whose SD values are shifted up by `shift` and
    /// whose `V_p` values are `stride` apart.
    pub(crate) fn new(shift: u64, stride: u64) -> Lowering {
        Lowering {
            shift,
            stride,
            ..Lowering::default()
        }
    }

    /// Gives each `V_p` constant without a lane the next one, in symbol
    /// order.
    pub(crate) fn add_p_lanes(&mut self, p_vars: &HashSet<VarSym>) {
        let mut fresh: Vec<VarSym> = p_vars
            .iter()
            .copied()
            .filter(|v| !self.p_index.contains_key(v))
            .collect();
        fresh.sort_unstable();
        for v in fresh {
            let lane = self.p_index.len();
            self.p_index.insert(v, lane);
        }
    }

    /// Creates the domain hosting `class` and returns its index. The SD
    /// values of `var_bits`-bit constants, shifted and offset by up to
    /// `top_offset`, sit below `p_base`; `lanes` `V_p` values follow it.
    pub(crate) fn add_domain(
        &mut self,
        class: &Class,
        mode: EncodingMode,
        var_bits: usize,
        top_offset: u64,
        lanes: u64,
    ) -> usize {
        let p_base = (1u64 << var_bits) + self.shift + top_offset;
        let max_value = p_base + lanes * self.stride + self.shift + self.stride;
        self.domains.push(Domain {
            method: method_for(mode, class),
            eq_only: eq_only(class),
            var_bits,
            width: bits_for(max_value + 1),
            p_base,
        });
        self.domains.len() - 1
    }

    /// Canonical predicate variables allocated so far (original + derived).
    pub(crate) fn pred_vars(&self) -> usize {
        self.table.len() + self.eq_table.len()
    }

    /// Lowers the Boolean term `root`; class `c` of `analysis` is hosted
    /// by domain `class_domain[c]`. Cached terms are not lowered again.
    pub(crate) fn lower(
        &mut self,
        tm: &TermManager,
        analysis: &SepAnalysis,
        class_domain: &[usize],
        root: TermId,
    ) -> Signal {
        // The domain hosting an atom: the one of any of its V_g leaves.
        let domain_of = |lhs: TermId, rhs: TermId| {
            [lhs, rhs]
                .into_iter()
                .flat_map(|side| analysis.ground.leaves(side))
                .find_map(|g| analysis.class_of(g.var))
                .map(|c| class_domain[c])
        };
        // Bottom-up: Boolean nodes (including the conditions of integer
        // ITEs) appear before the atoms that contain them.
        for id in tm.postorder(root) {
            if tm.sort(id) != Sort::Bool || self.bool_sig.contains_key(&id) {
                continue;
            }
            let sig = match tm.term(id) {
                Term::True => Signal::TRUE,
                Term::False => Signal::FALSE,
                Term::Not(a) => !self.bool_sig[a],
                Term::And(a, b) => {
                    let (x, y) = (self.bool_sig[a], self.bool_sig[b]);
                    self.circuit.and(x, y)
                }
                Term::Or(a, b) => {
                    let (x, y) = (self.bool_sig[a], self.bool_sig[b]);
                    self.circuit.or(x, y)
                }
                Term::Implies(a, b) => {
                    let (x, y) = (self.bool_sig[a], self.bool_sig[b]);
                    self.circuit.implies(x, y)
                }
                Term::Iff(a, b) => {
                    let (x, y) = (self.bool_sig[a], self.bool_sig[b]);
                    self.circuit.xnor(x, y)
                }
                Term::IteBool(c, t, e) => {
                    let (sc, st, se) = (self.bool_sig[c], self.bool_sig[t], self.bool_sig[e]);
                    self.circuit.mux(sc, st, se)
                }
                Term::BoolVar(b) => self.bool_var(*b),
                Term::Eq(a, b) => self.atom(tm, domain_of(*a, *b), AtomOp::Eq, *a, *b),
                Term::Lt(a, b) => self.atom(tm, domain_of(*a, *b), AtomOp::Lt, *a, *b),
                Term::PApp(..) => panic!("encoding requires an application-free formula"),
                _ => unreachable!("integer node filtered above"),
            };
            self.bool_sig.insert(id, sig);
        }
        self.bool_sig[&root]
    }

    /// Transitivity constraints over `vars`, members of domain `d`.
    ///
    /// # Errors
    ///
    /// Returns [`TransBudgetExceeded`] past `budget` clauses, the deadline
    /// or a raised cancel token of `options`.
    pub(crate) fn transitivity(
        &mut self,
        d: usize,
        vars: &[VarSym],
        budget: usize,
        options: &EncodeOptions,
    ) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
        if self.domains[d].eq_only {
            generate_equality_transitivity(
                &mut self.circuit,
                &mut self.eq_table,
                vars,
                budget,
                options.deadline,
                options.cancel.as_ref(),
            )
        } else {
            generate_transitivity(
                &mut self.circuit,
                &mut self.table,
                vars,
                budget,
                options.deadline,
                options.cancel.as_ref(),
            )
        }
    }

    /// Decode metadata for the classes of `analysis`, keeping the
    /// canonical predicates between the constants that `keep` accepts.
    pub(crate) fn decode_info(
        &self,
        analysis: &SepAnalysis,
        class_domain: &[usize],
        max_abs_offset: i64,
        keep: impl Fn(VarSym, VarSym) -> bool,
    ) -> DecodeInfo {
        let input = |s: Signal| {
            self.circuit
                .input_index(s)
                .expect("canonical predicates and Boolean constants are plain inputs")
        };
        let mut p_vars: Vec<VarSym> = analysis.p_vars.iter().copied().collect();
        p_vars.sort_unstable();
        DecodeInfo {
            sd_bits: self.sd_bit_inputs.clone(),
            eij_bounds: self
                .table
                .iter_original()
                .filter(|&(x, y, _, _)| keep(x, y))
                .map(|(x, y, c, s)| (x, y, c, input(s)))
                .collect(),
            eij_eqs: self
                .eq_table
                .iter_original()
                .filter(|&(x, y, _, _)| keep(x, y))
                .map(|(x, y, c, s)| (x, y, c, input(s)))
                .collect(),
            bool_inputs: self
                .bool_inputs
                .iter()
                .map(|(&b, &s)| (b, input(s)))
                .collect(),
            p_vars,
            class_vars: analysis.classes.iter().map(|c| c.vars.clone()).collect(),
            class_methods: class_domain
                .iter()
                .map(|&d| self.domains[d].method)
                .collect(),
            max_abs_offset,
        }
    }

    fn bool_var(&mut self, b: BoolSym) -> Signal {
        if let Some(&s) = self.bool_inputs.get(&b) {
            return s;
        }
        let s = self.circuit.input();
        self.bool_inputs.insert(b, s);
        s
    }

    fn atom(
        &mut self,
        tm: &TermManager,
        domain: Option<usize>,
        op: AtomOp,
        lhs: TermId,
        rhs: TermId,
    ) -> Signal {
        match domain {
            // All-V_p atoms are decided structurally via path enumeration.
            None => self.atom_eij(tm, op, lhs, rhs, false),
            Some(d) => {
                let dom = self.domains[d];
                match dom.method {
                    ClassMethod::Sd => self.atom_sd(tm, op, lhs, rhs, d),
                    ClassMethod::Eij => self.atom_eij(tm, op, lhs, rhs, dom.eq_only),
                }
            }
        }
    }

    // ---- SD --------------------------------------------------------------

    fn atom_sd(
        &mut self,
        tm: &TermManager,
        op: AtomOp,
        lhs: TermId,
        rhs: TermId,
        d: usize,
    ) -> Signal {
        let a = self.sd_bits(tm, lhs, d);
        let b = self.sd_bits(tm, rhs, d);
        match op {
            AtomOp::Eq => self.circuit.eq_bits(&a, &b),
            AtomOp::Lt => self.circuit.lt_bits(&a, &b),
        }
    }

    fn sd_bits(&mut self, tm: &TermManager, t: TermId, d: usize) -> Vec<Signal> {
        if let Some(bits) = self.sd_term_bits.get(&(t, d)) {
            return bits.clone();
        }
        let dom = self.domains[d];
        let out = match tm.term(t).clone() {
            Term::IntVar(v) => {
                if let Some(&pi) = self.p_index.get(&v) {
                    let value = dom.p_base + (pi as u64 + 1) * self.stride + self.shift;
                    self.circuit.const_bits(value, dom.width)
                } else {
                    let genuine = match self.sd_var_bits.get(&v) {
                        Some(bits) => bits.clone(),
                        None => {
                            let bits: Vec<Signal> =
                                (0..dom.var_bits).map(|_| self.circuit.input()).collect();
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
                    bits.resize(dom.width, Signal::FALSE);
                    self.circuit.add_const(&bits, self.shift as i64)
                }
            }
            Term::Succ(a) => {
                let bits = self.sd_bits(tm, a, d);
                self.circuit.add_const(&bits, 1)
            }
            Term::Pred(a) => {
                let bits = self.sd_bits(tm, a, d);
                self.circuit.add_const(&bits, -1)
            }
            Term::IteInt(c, th, el) => {
                let sc = self.bool_sig[&c];
                let tb = self.sd_bits(tm, th, d);
                let eb = self.sd_bits(tm, el, d);
                self.circuit.mux_bits(sc, &tb, &eb)
            }
            other => unreachable!("non-integer term in SD context: {other:?}"),
        };
        self.sd_term_bits.insert((t, d), out.clone());
        out
    }

    // ---- EIJ -------------------------------------------------------------

    fn atom_eij(
        &mut self,
        tm: &TermManager,
        op: AtomOp,
        lhs: TermId,
        rhs: TermId,
        eq_class: bool,
    ) -> Signal {
        let lp = self.eij_paths(tm, lhs);
        let rp = self.eij_paths(tm, rhs);
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

    fn eij_paths(&mut self, tm: &TermManager, t: TermId) -> Arc<Vec<(Signal, GroundTerm)>> {
        if let Some(p) = self.paths.get(&t) {
            return Arc::clone(p);
        }
        let shifted = |paths: &[(Signal, GroundTerm)], k: i64| -> Vec<(Signal, GroundTerm)> {
            paths
                .iter()
                .map(|&(c, g)| {
                    let g = GroundTerm {
                        var: g.var,
                        offset: g.offset + k,
                    };
                    (c, g)
                })
                .collect()
        };
        let out: Vec<(Signal, GroundTerm)> = match tm.term(t).clone() {
            Term::IntVar(v) => vec![(Signal::TRUE, GroundTerm { var: v, offset: 0 })],
            Term::Succ(a) => shifted(&self.eij_paths(tm, a), 1),
            Term::Pred(a) => shifted(&self.eij_paths(tm, a), -1),
            Term::IteInt(c, th, el) => {
                let sc = self.bool_sig[&c];
                let tp = self.eij_paths(tm, th);
                let ep = self.eij_paths(tm, el);
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
        let shared = Arc::new(out);
        self.paths.insert(t, Arc::clone(&shared));
        shared
    }

    /// The predicate signal for `g1 ⋈ g2` (paper §4 step 5): constants for
    /// same-variable pairs, `false` for `V_p`-involving equalities between
    /// distinct constants, canonical predicate variables otherwise.
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

/// Whether every predicate of `class` is an equality.
pub(crate) fn eq_only(class: &Class) -> bool {
    class
        .predicates
        .iter()
        .all(|p| matches!(p, PredKey::Eq(..)))
}

/// The method `mode` picks for `class`.
fn method_for(mode: EncodingMode, class: &Class) -> ClassMethod {
    match mode {
        EncodingMode::Sd => ClassMethod::Sd,
        EncodingMode::Eij => ClassMethod::Eij,
        EncodingMode::Hybrid(threshold) if class.sep_cnt > threshold => ClassMethod::Sd,
        EncodingMode::Hybrid(_) => ClassMethod::Eij,
        EncodingMode::FixedHybrid => {
            let pure_eq = class
                .predicates
                .iter()
                .all(|p| matches!(p, PredKey::Eq(_, _, 0)));
            if pure_eq {
                ClassMethod::Eij
            } else {
                ClassMethod::Sd
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

/// Number of bits to represent values in `[0, values)`.
pub(crate) fn bits_for(values: u64) -> usize {
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
