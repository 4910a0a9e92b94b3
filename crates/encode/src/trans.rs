//! Per-constraint (EIJ) predicate variables and transitivity constraints
//! (paper §2.1.2 method 2 and §4 step 6).
//!
//! Every separation predicate `x − y ≤ c` over `V_g` constants is encoded
//! with one fresh Boolean variable. Assignments to those variables that
//! correspond to no integer model are ruled out by *transitivity
//! constraints*, generated here by variable elimination on the inequality
//! graph (Fourier–Motzkin over difference constraints):
//!
//! * each predicate variable `e(x,y,c)` contributes the edge `x→y` with
//!   weight `c` when true and the complement edge `y→x` with weight
//!   `−c−1` when false (integers: `¬(x−y≤c) ⇔ y−x ≤ −c−1`);
//! * eliminating a vertex `m` composes every in/out edge pair into a
//!   derived predicate with the clause `e₁ ∧ e₂ ⇒ e₃`, creating fresh
//!   predicate variables as needed (the paper notes this variable growth
//!   explicitly);
//! * a composition closing a negative self-loop yields a conflict clause.
//!
//! The number of generated constraints can grow exponentially — this is the
//! EIJ blow-up the paper's Figures 3 and 5 document, so the generator takes
//! a budget and reports overflow rather than running away.
//!
//! Bound and equality generation share one elimination graph ([`Graph`]):
//! dense per-class vertex ids, edges in a vector, adjacency as edge
//! indices, and a live-degree counter per vertex for the min-degree
//! choice. Eliminated vertices' edges are skipped lazily instead of being
//! removed. Every container iterates in insertion order, and the tables
//! hash with the crate's fixed-seed hasher, so the clauses, their order
//! and the numbering of derived predicate variables depend only on the
//! input.
//!
//! Bound generation never emits a clause twice, so it keeps no dedup set.
//! A literal names exactly one edge (`s` the edge `x→y`, `¬s` its
//! complement `y→x`), so a clause `{¬a, ¬b}` or `{¬a, ¬b, c}` names a
//! 2- or 3-cycle of edges, and any composition emitting it eliminates one
//! of the cycle's vertices while the others are live. Only the first of
//! them to be eliminated can do so, and there the two edges through it
//! are fixed. Equality generation emits each triangle in all three
//! rotations, whose literal sets repeat, so it dedups them by sorted
//! `[Signal; 3]` keys.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use sufsat_sat::CancelToken;
use sufsat_suf::VarSym;

use crate::circuit::{Circuit, Signal};
use crate::hash::{FxHashMap, FxHashSet};
use crate::lower::Pred;

/// Canonical predicate variables keyed by `(x, y, c)` with `x < y`: the
/// storage both [`BoundTable`] and [`EqTable`] wrap.
#[derive(Debug, Clone, Default)]
struct PredVars {
    /// Signal per canonical key, and whether the key is atom-original.
    vars: FxHashMap<(VarSym, VarSym, i64), (Signal, bool)>,
    /// Atom-original predicates, in the order they were first marked.
    original: Vec<Pred>,
}

impl PredVars {
    /// The signal of canonical key `key`, allocating a circuit input for
    /// it if needed.
    fn get_or_insert(&mut self, circuit: &mut Circuit, key: (VarSym, VarSym, i64)) -> Signal {
        self.vars
            .entry(key)
            .or_insert_with(|| (circuit.input(), false))
            .0
    }

    /// Marks the (allocated) canonical key `key` atom-original.
    fn mark_original(&mut self, key: (VarSym, VarSym, i64)) {
        let entry = self.vars.get_mut(&key).expect("allocated before marked");
        if !entry.1 {
            entry.1 = true;
            self.original.push((key.0, key.1, key.2, entry.0));
        }
    }

    fn is_original(&self, key: (VarSym, VarSym, i64)) -> bool {
        self.vars.get(&key).is_some_and(|&(_, original)| original)
    }

    fn iter(&self) -> impl Iterator<Item = Pred> + '_ {
        self.vars.iter().map(|(&(x, y, c), &(s, _))| (x, y, c, s))
    }
}

/// Canonical store of per-constraint predicate variables.
///
/// The canonical key of the bound `x − y ≤ c` is `(x, y, c)` with `x < y`
/// in symbol order; the opposite orientation is represented by the negated
/// signal of the complementary canonical bound.
#[derive(Debug, Clone, Default)]
pub struct BoundTable {
    /// Canonical bounds. Only the ones created by atom encoding (as
    /// opposed to derived predicates introduced during transitivity
    /// generation) are original: they carry two-sided semantics, their
    /// *negation* asserting the complement bound. Derived variables are
    /// one-sided helpers (`e₁ ∧ e₂ ⇒ e₃`) and are ignored when decoding
    /// models.
    preds: PredVars,
}

/// The canonical key of `x − y ≤ c`, and whether the bound is its negation.
fn bound_key(x: VarSym, y: VarSym, c: i64) -> ((VarSym, VarSym, i64), bool) {
    if x < y {
        ((x, y, c), false)
    } else {
        // x - y <= c  <=>  !(y - x <= -c-1)
        ((y, x, -c - 1), true)
    }
}

impl BoundTable {
    /// Creates an empty table.
    pub fn new() -> BoundTable {
        BoundTable::default()
    }

    /// The signal representing the *atom-level* bound `x − y ≤ c`,
    /// allocating a fresh circuit input for the canonical bound if needed
    /// and marking it original (two-sided).
    ///
    /// # Panics
    ///
    /// Panics if `x == y` (such comparisons are constants, not predicates).
    pub fn bound(&mut self, circuit: &mut Circuit, x: VarSym, y: VarSym, c: i64) -> Signal {
        let s = self.derived_bound(circuit, x, y, c);
        self.preds.mark_original(bound_key(x, y, c).0);
        s
    }

    /// The signal for a bound used as a one-sided derived predicate during
    /// transitivity generation (not marked original).
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn derived_bound(&mut self, circuit: &mut Circuit, x: VarSym, y: VarSym, c: i64) -> Signal {
        assert_ne!(x, y, "same-variable bounds are constants");
        let (key, negated) = bound_key(x, y, c);
        let s = self.preds.get_or_insert(circuit, key);
        if negated {
            !s
        } else {
            s
        }
    }

    /// Whether the canonical bound covering `(x, y, c)` is atom-original.
    pub fn is_original(&self, x: VarSym, y: VarSym, c: i64) -> bool {
        self.preds.is_original(bound_key(x, y, c).0)
    }

    /// Looks up a canonical bound without allocating.
    pub fn find(&self, x: VarSym, y: VarSym, c: i64) -> Option<Signal> {
        let (key, negated) = bound_key(x, y, c);
        let &(s, _) = self.preds.vars.get(&key)?;
        Some(if negated { !s } else { s })
    }

    /// Number of canonical predicate variables allocated.
    pub fn len(&self) -> usize {
        self.preds.vars.len()
    }

    /// Whether no predicate variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.preds.vars.is_empty()
    }

    /// Iterates over canonical bounds `(x, y, c, signal)` with `x < y`.
    pub fn iter(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.preds.iter()
    }

    /// Iterates over atom-original canonical bounds only — the ones whose
    /// truth value carries two-sided difference-constraint semantics (used
    /// by model decoding) — in the order they were first created.
    pub fn iter_original(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.preds.original.iter().copied()
    }
}

/// Error raised when transitivity generation exceeds its budget, mirroring
/// the paper's EIJ translation-stage timeouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransBudgetExceeded {
    /// Constraints generated before giving up.
    pub generated: usize,
    /// The configured budget.
    pub budget: usize,
    /// Whether the wall-clock deadline (rather than the clause budget)
    /// stopped generation.
    pub timed_out: bool,
    /// Whether a raised [`CancelToken`] stopped generation.
    pub cancelled: bool,
}

impl fmt::Display for TransBudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transitivity-constraint budget exceeded: {} constraints generated (budget {})",
            self.generated, self.budget
        )
    }
}

impl Error for TransBudgetExceeded {}

/// Vertex elimination order for transitivity generation — a design choice
/// DESIGN.md calls out for ablation. Min-degree approximates a good
/// chordalization (fewer fill-in edges); input order is the naive baseline.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default)]
pub enum ElimOrder {
    /// Greedy minimum-degree (default).
    #[default]
    MinDegree,
    /// Symbol-index order.
    InputOrder,
}

/// The dedup key of a transitivity clause (two or three literals): its
/// literals sorted, a two-literal clause padded with [`Signal::TRUE`],
/// which no transitivity clause contains.
pub(crate) fn clause_key(clause: &[Signal]) -> [Signal; 3] {
    let mut k = [Signal::TRUE; 3];
    k[3 - clause.len()..].copy_from_slice(clause);
    if k[1] > k[2] {
        k.swap(1, 2);
    }
    if k[0] > k[1] {
        k.swap(0, 1);
    }
    if k[1] > k[2] {
        k.swap(1, 2);
    }
    k
}

/// Canonical store of *equality* predicate variables for equality-only
/// classes (Bryant–Velev): one variable per predicate `x = y + c`, instead
/// of the two-sided bound pair — the representation behind the paper's
/// remark that equality-only transitivity grows only polynomially.
#[derive(Debug, Clone, Default)]
pub struct EqTable {
    preds: PredVars,
}

/// The canonical key of `x = y + c`: `y = x + (-c)` is the same predicate.
fn eq_key(x: VarSym, y: VarSym, c: i64) -> (VarSym, VarSym, i64) {
    if x < y {
        (x, y, c)
    } else {
        (y, x, -c)
    }
}

impl EqTable {
    /// Creates an empty table.
    pub fn new() -> EqTable {
        EqTable::default()
    }

    /// The signal for the atom-level equality `x = y + c` (marked
    /// original).
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn equality(&mut self, circuit: &mut Circuit, x: VarSym, y: VarSym, c: i64) -> Signal {
        let s = self.derived_equality(circuit, x, y, c);
        self.preds.mark_original(eq_key(x, y, c));
        s
    }

    /// The signal for an equality used as a one-sided derived predicate.
    ///
    /// # Panics
    ///
    /// Panics if `x == y`.
    pub fn derived_equality(
        &mut self,
        circuit: &mut Circuit,
        x: VarSym,
        y: VarSym,
        c: i64,
    ) -> Signal {
        assert_ne!(x, y, "same-variable equalities are constants");
        self.preds.get_or_insert(circuit, eq_key(x, y, c))
    }

    /// Number of canonical equality variables allocated.
    pub fn len(&self) -> usize {
        self.preds.vars.len()
    }

    /// Whether no equality variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.preds.vars.is_empty()
    }

    /// Iterates over all canonical equalities `(x, y, c, signal)`, meaning
    /// `x = y + c` with `x < y`.
    pub fn iter(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.preds.iter()
    }

    /// Iterates over atom-original canonical equalities only, in the order
    /// they were first created.
    pub fn iter_original(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.preds.original.iter().copied()
    }
}

/// Generates transitivity constraints for an equality-only class by
/// variable elimination over equality edges:
///
/// * `e(x,y,c₁) ∧ e(y,z,c₂) ⇒ e(x,z,c₁+c₂)` (derived equalities created on
///   demand, one-sided);
/// * a composition closing a loop with nonzero offset sum is a conflict.
///
/// A false equality is a disequality; it needs no graph edge because any
/// positive path forcing the same difference resolves to the *same*
/// canonical variable, contradicting it directly.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past `budget` clauses.
pub fn generate_equality_transitivity(
    circuit: &mut Circuit,
    table: &mut EqTable,
    class_vars: &[VarSym],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    generate_equality_transitivity_ordered(
        circuit,
        table,
        class_vars,
        budget,
        deadline,
        cancel,
        ElimOrder::MinDegree,
    )
}

/// [`generate_equality_transitivity`] with an explicit elimination order.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past `budget` clauses or the deadline.
pub fn generate_equality_transitivity_ordered(
    circuit: &mut Circuit,
    table: &mut EqTable,
    class_vars: &[VarSym],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let originals = originals_among(table.iter_original(), class_vars);
    let limits = Limits::new(budget, deadline, cancel);
    close_equalities(circuit, table, class_vars, &originals, limits, order)
}

/// The atom-level predicates of `originals` whose both constants are among
/// `class_vars`.
pub(crate) fn originals_among(
    originals: impl Iterator<Item = Pred>,
    class_vars: &[VarSym],
) -> Vec<Pred> {
    let members: FxHashSet<VarSym> = class_vars.iter().copied().collect();
    originals
        .filter(|&(x, y, _, _)| members.contains(&x) && members.contains(&y))
        .collect()
}

/// Equality transitivity for the class `class_vars` over exactly the
/// atom-level equalities `originals` (`(x, y, c, s)`: `s` ⇔ `x = y + c`),
/// which must all be members of `table`.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past the clause budget, the deadline or
/// a raised cancel token of `limits`.
pub(crate) fn close_equalities(
    circuit: &mut Circuit,
    table: &mut EqTable,
    class_vars: &[VarSym],
    originals: &[Pred],
    limits: Limits<'_>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let mut graph = Graph::new(class_vars);
    // Original equalities contribute both orientations (same literal).
    for &(x, y, c, s) in originals {
        let (u, v) = (graph.vertex(x), graph.vertex(y));
        graph.add_edge(u, v, c, s);
        graph.add_edge(v, u, -c, s);
    }
    let mut seen: FxHashSet<[Signal; 3]> = FxHashSet::default();
    let mut push = move |clauses: &mut Vec<Vec<Signal>>, clause: &[Signal]| {
        if seen.insert(clause_key(clause)) {
            clauses.push(clause.to_vec());
        }
    };
    graph.close(order, limits, |graph, clauses, ein, eout| {
        if ein.lit == eout.lit && ein.u == eout.v {
            // An edge composed with its own reverse: offset 0 loop.
            return false;
        }
        let w = ein.w + eout.w;
        if ein.u == eout.v {
            if w != 0 {
                // x = x + w with w != 0: contradiction.
                push(clauses, &[!ein.lit, !eout.lit]);
            }
            return false;
        }
        let (x, z) = (graph.syms[ein.u as usize], graph.syms[eout.v as usize]);
        let lit3 = table.derived_equality(circuit, x, z, w);
        // Bryant–Velev triangle constraints: all three rotations.
        // Unlike bound predicates, a false equality contributes no
        // graph edge, so each triangle must be constrained in every
        // direction for completeness.
        for (a, b, c) in [
            (ein.lit, eout.lit, lit3),
            (ein.lit, lit3, eout.lit),
            (eout.lit, lit3, ein.lit),
        ] {
            if c == a || c == b {
                continue; // e1 ∧ e2 ⇒ e1: tautology
            }
            push(clauses, &[!a, !b, c]);
        }
        // Derived equality: both orientations, same literal.
        graph.add_edge(ein.u, eout.v, w, lit3);
        graph.add_edge(eout.v, ein.u, -w, lit3);
        true
    })
}

/// Generates the transitivity constraints for one class of `V_g`
/// constants, given the predicate variables already allocated in `table`
/// for pairs within `class_vars`.
///
/// Returns clauses over circuit signals. New predicate variables created
/// for derived bounds are added to `table` (and to the circuit as inputs).
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] when more than `budget` clauses would be
/// generated.
pub fn generate_transitivity(
    circuit: &mut Circuit,
    table: &mut BoundTable,
    class_vars: &[VarSym],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    generate_transitivity_ordered(
        circuit,
        table,
        class_vars,
        budget,
        deadline,
        cancel,
        ElimOrder::MinDegree,
    )
}

/// [`generate_transitivity`] with an explicit elimination order.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past `budget` clauses or the deadline.
pub fn generate_transitivity_ordered(
    circuit: &mut Circuit,
    table: &mut BoundTable,
    class_vars: &[VarSym],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let originals = originals_among(table.iter_original(), class_vars);
    let limits = Limits::new(budget, deadline, cancel);
    close_bounds(circuit, table, class_vars, &originals, limits, order)
}

/// Bound transitivity for the class `class_vars` over exactly the
/// atom-level bounds `originals` (`(x, y, c, s)`: `s` ⇔ `x − y ≤ c`), which
/// must all be members of `table`.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past the clause budget, the deadline or
/// a raised cancel token of `limits`.
pub(crate) fn close_bounds(
    circuit: &mut Circuit,
    table: &mut BoundTable,
    class_vars: &[VarSym],
    originals: &[Pred],
    limits: Limits<'_>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let mut graph = Graph::new(class_vars);
    // Atom-original predicates carry two-sided semantics: `e` asserts the
    // bound, `¬e` asserts the complement. Derived predicates introduced
    // below are one-sided (`e₁ ∧ e₂ ⇒ e₃` only), which keeps the derived
    // constants bounded by path sums — in particular polynomial for
    // equality-only classes, matching Bryant–Velev.
    for &(x, y, c, s) in originals {
        let (u, v) = (graph.vertex(x), graph.vertex(y));
        graph.add_edge(u, v, c, s);
        graph.add_edge(v, u, -c - 1, !s);
    }
    graph.close(order, limits, |graph, clauses, ein, eout| {
        if ein.lit == !eout.lit {
            // An edge composed with its own complement: tautology.
            return false;
        }
        let w = ein.w + eout.w;
        if ein.u == eout.v {
            // Self-loop: a negative one is a contradiction.
            if w < 0 {
                clauses.push(vec![!ein.lit, !eout.lit]);
            }
            return false;
        }
        let (x, z) = (graph.syms[ein.u as usize], graph.syms[eout.v as usize]);
        let lit3 = table.derived_bound(circuit, x, z, w);
        if lit3 != ein.lit && lit3 != eout.lit {
            // Otherwise e1 ∧ e2 ⇒ e1: a tautology.
            clauses.push(vec![!ein.lit, !eout.lit, lit3]);
        }
        // Only the derived direction joins the graph, so later
        // eliminations can keep collapsing cycles through it;
        // re-adding existing edges is idempotent.
        graph.add_edge(ein.u, eout.v, w, lit3);
        true
    })
}

/// The clause budget, deadline and cancel token of one generator run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits<'a> {
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Limits<'a> {
    pub(crate) fn new(
        budget: usize,
        deadline: Option<Instant>,
        cancel: Option<&'a CancelToken>,
    ) -> Limits<'a> {
        Limits {
            budget,
            deadline,
            cancel,
        }
    }

    /// Fails past the budget, and every 4,096th step past the deadline or
    /// on a raised cancel token.
    fn check(&self, generated: usize, step: usize) -> Result<(), TransBudgetExceeded> {
        let exceeded = |timed_out, cancelled| TransBudgetExceeded {
            generated,
            budget: self.budget,
            timed_out,
            cancelled,
        };
        if generated > self.budget {
            return Err(exceeded(false, false));
        }
        if step.is_multiple_of(4096) {
            let timed_out = self.deadline.is_some_and(|d| Instant::now() >= d);
            let cancelled = self.cancel.is_some_and(CancelToken::is_cancelled);
            if timed_out || cancelled {
                return Err(exceeded(timed_out, cancelled));
            }
        }
        Ok(())
    }
}

/// A weighted edge `u → v` (dense vertex ids) and the literal implying it.
#[derive(Debug, Copy, Clone)]
struct Edge {
    u: u32,
    v: u32,
    w: i64,
    lit: Signal,
}

/// One class's edge graph under vertex elimination.
///
/// Vertices are dense ids, class members first in `class_vars` order; an
/// endpoint outside the class gets an id too but is never eliminated.
/// An edge is identified by `(u, v, w)` (its literal follows from them)
/// and is stored once; an eliminated vertex's edges stay in its
/// neighbours' adjacency lists and are skipped there, since no later edge
/// can touch an eliminated vertex.
struct Graph {
    id: FxHashMap<VarSym, u32>,
    syms: Vec<VarSym>,
    /// Number of class members: ids `0..members`.
    members: usize,
    edges: Vec<Edge>,
    seen: FxHashSet<(u32, u32, i64)>,
    /// Indices into `edges` of every edge incident to a vertex.
    adj: Vec<Vec<u32>>,
    /// Edges incident to a vertex whose other endpoint is live.
    degree: Vec<u32>,
    eliminated: Vec<bool>,
}

impl Graph {
    fn new(class_vars: &[VarSym]) -> Graph {
        let mut graph = Graph {
            id: FxHashMap::default(),
            syms: Vec::new(),
            members: 0,
            edges: Vec::new(),
            seen: FxHashSet::default(),
            adj: Vec::new(),
            degree: Vec::new(),
            eliminated: Vec::new(),
        };
        for &v in class_vars {
            graph.vertex(v);
        }
        graph.members = graph.syms.len();
        graph
    }

    /// The dense id of constant `v`, allocated on first sight.
    fn vertex(&mut self, v: VarSym) -> u32 {
        let next = self.syms.len() as u32;
        let id = *self.id.entry(v).or_insert(next);
        if id == next {
            self.syms.push(v);
            self.adj.push(Vec::new());
            self.degree.push(0);
            self.eliminated.push(false);
        }
        id
    }

    /// Adds the edge `u → v` of weight `w` unless it is already present.
    fn add_edge(&mut self, u: u32, v: u32, w: i64, lit: Signal) {
        if !self.seen.insert((u, v, w)) {
            return;
        }
        let index = self.edges.len() as u32;
        self.edges.push(Edge { u, v, w, lit });
        for end in [u, v] {
            self.adj[end as usize].push(index);
            self.degree[end as usize] += 1;
        }
    }

    /// The next member to eliminate: least (degree, symbol index) under
    /// min-degree, least symbol index under input order.
    fn pick(&self, order: ElimOrder) -> Option<u32> {
        (0..self.members)
            .filter(|&i| !self.eliminated[i])
            .min_by_key(|&i| {
                let degree = match order {
                    ElimOrder::MinDegree => self.degree[i],
                    ElimOrder::InputOrder => 0,
                };
                (degree, self.syms[i].index())
            })
            .map(|i| i as u32)
    }

    /// Eliminates member after member until one is left, handing every
    /// in-edge/out-edge pair through the eliminated vertex to `compose`.
    /// `compose` emits clauses and derived edges and returns whether the
    /// pair derived a predicate, which counts as a step against `limits`.
    fn close(
        mut self,
        order: ElimOrder,
        limits: Limits<'_>,
        mut compose: impl FnMut(&mut Graph, &mut Vec<Vec<Signal>>, Edge, Edge) -> bool,
    ) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
        let mut clauses = Vec::new();
        let mut steps = 0usize;
        let (mut ins, mut outs) = (Vec::new(), Vec::new());
        for _ in 1..self.members {
            let m = self.pick(order).expect("a member is left");
            self.eliminated[m as usize] = true;
            ins.clear();
            outs.clear();
            for &e in &std::mem::take(&mut self.adj[m as usize]) {
                let edge = self.edges[e as usize];
                let other = if edge.u == m { edge.v } else { edge.u };
                if self.eliminated[other as usize] {
                    continue;
                }
                self.degree[other as usize] -= 1;
                if edge.v == m {
                    ins.push(edge);
                } else {
                    outs.push(edge);
                }
            }
            for &ein in &ins {
                for &eout in &outs {
                    if compose(&mut self, &mut clauses, ein, eout) {
                        steps += 1;
                        limits.check(clauses.len(), steps)?;
                    }
                }
            }
        }
        Ok(clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::TermManager;

    fn vars(tm: &mut TermManager, n: usize) -> Vec<VarSym> {
        (0..n).map(|i| tm.int_var_sym(&format!("v{i}"))).collect()
    }

    /// Checks completeness and soundness of the generated constraints:
    ///
    /// * **completeness** — every assignment to all predicate variables
    ///   that satisfies the clauses gives an integer-feasible set of
    ///   *original* (two-sided) bounds;
    /// * **soundness** — every integer assignment, extended semantically to
    ///   all predicate variables (original and derived), satisfies the
    ///   clauses.
    fn check_complete_and_sound(n_vars: usize, bounds: &[(usize, usize, i64)]) {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, n_vars);
        let mut circuit = Circuit::new();
        let mut table = BoundTable::new();
        let sigs: Vec<Signal> = bounds
            .iter()
            .map(|&(x, y, c)| table.bound(&mut circuit, vs[x], vs[y], c))
            .collect();
        let clauses =
            generate_transitivity(&mut circuit, &mut table, &vs, 1_000_000, None, None).unwrap();
        let original: Vec<(VarSym, VarSym, i64, Signal)> = table.iter_original().collect();
        let all_bounds: Vec<(VarSym, VarSym, i64, Signal)> = table.iter().collect();
        let n_inputs = circuit.num_inputs();
        assert!(n_inputs <= 20, "test instance too large to enumerate");

        // Completeness over all Boolean assignments.
        for m in 0u64..(1 << n_inputs) {
            let inputs: Vec<bool> = (0..n_inputs).map(|i| m >> i & 1 == 1).collect();
            let clauses_ok = clauses
                .iter()
                .all(|cl| cl.iter().any(|&l| circuit.eval(l, &inputs)));
            if !clauses_ok {
                continue;
            }
            let mut diff: Vec<sufsat_seplog::Bound> = Vec::new();
            for (i, &(x, y, c, s)) in original.iter().enumerate() {
                if circuit.eval(s, &inputs) {
                    diff.push(sufsat_seplog::Bound { x, y, c, tag: i });
                } else {
                    diff.push(sufsat_seplog::Bound {
                        x: y,
                        y: x,
                        c: -c - 1,
                        tag: i,
                    });
                }
            }
            assert!(
                matches!(
                    sufsat_seplog::solve_bounds(&diff, &[]),
                    sufsat_seplog::DiffResult::Sat(_)
                ),
                "clauses satisfied but no integer model; assignment {m:b}"
            );
        }

        // Soundness over a grid of integer assignments.
        assert!(n_vars <= 4, "grid enumeration too large");
        let lo = -4i64;
        let hi = 4i64;
        let span = (hi - lo + 1) as u64;
        for point in 0..span.pow(n_vars as u32) {
            let mut vals = Vec::with_capacity(n_vars);
            let mut p = point;
            for _ in 0..n_vars {
                vals.push(lo + (p % span) as i64);
                p /= span;
            }
            // Semantic value of every canonical predicate variable.
            let mut inputs = vec![false; n_inputs];
            for &(x, y, c, s) in &all_bounds {
                let truth = vals[index_of(&vs, x)] - vals[index_of(&vs, y)] <= c;
                let gate_input = circuit.input_index(s).expect("canonical inputs");
                inputs[gate_input as usize] = truth;
            }
            for cl in &clauses {
                assert!(
                    cl.iter().any(|&l| circuit.eval(l, &inputs)),
                    "integer point {vals:?} violates a clause"
                );
            }
        }
        let _ = sigs;
    }

    fn index_of(vs: &[VarSym], v: VarSym) -> usize {
        vs.iter().position(|&x| x == v).expect("known var")
    }

    #[test]
    fn triangle_equalities() {
        // x = y, y = z, x = z as bound pairs is exercised via c = 0 bounds.
        check_complete_and_sound(3, &[(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0)]);
    }

    #[test]
    fn paper_example_three_cycle() {
        // x >= y, y >= z, z >= x+1: y-x<=0, z-y<=0, x-z<=-1.
        check_complete_and_sound(3, &[(1, 0, 0), (2, 1, 0), (0, 2, -1)]);
    }

    #[test]
    fn offsets_compose() {
        check_complete_and_sound(3, &[(0, 1, 2), (1, 2, -3), (2, 0, 1)]);
    }

    #[test]
    fn four_vertices_with_chords() {
        check_complete_and_sound(4, &[(0, 1, 0), (1, 2, 1), (2, 3, -1), (3, 0, 0)]);
    }

    #[test]
    fn same_pair_multiple_constants() {
        // x - y <= 0 and x - y <= 5: monotonicity must emerge.
        check_complete_and_sound(2, &[(0, 1, 0), (0, 1, 5)]);
    }

    #[test]
    fn complement_orientation_shares_variable() {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 2);
        let mut circuit = Circuit::new();
        let mut table = BoundTable::new();
        let a = table.bound(&mut circuit, vs[0], vs[1], 3);
        let b = table.bound(&mut circuit, vs[1], vs[0], -4);
        assert_eq!(b, !a, "y-x<=-4 is the complement of x-y<=3");
        assert_eq!(table.len(), 1);
    }

    /// Exhaustive check of the equality-only generator: completeness over
    /// all Boolean assignments and soundness over an integer grid.
    fn check_eq_complete_and_sound(n_vars: usize, eqs: &[(usize, usize, i64)]) {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, n_vars);
        let mut circuit = Circuit::new();
        let mut table = EqTable::new();
        for &(x, y, c) in eqs {
            table.equality(&mut circuit, vs[x], vs[y], c);
        }
        let clauses =
            generate_equality_transitivity(&mut circuit, &mut table, &vs, 1_000_000, None, None).unwrap();
        let original: Vec<(VarSym, VarSym, i64, Signal)> = table.iter_original().collect();
        let all: Vec<(VarSym, VarSym, i64, Signal)> = table.iter().collect();
        let n_inputs = circuit.num_inputs();
        assert!(n_inputs <= 18, "too large to enumerate");

        // Completeness: clause-satisfying assignments extend to integers
        // where true equalities hold and false ones fail.
        for m in 0u64..(1 << n_inputs) {
            let inputs: Vec<bool> = (0..n_inputs).map(|i| m >> i & 1 == 1).collect();
            if !clauses
                .iter()
                .all(|cl| cl.iter().any(|&l| circuit.eval(l, &inputs)))
            {
                continue;
            }
            let mut bounds = Vec::new();
            let mut diseqs = Vec::new();
            for (i, &(x, y, c, s)) in original.iter().enumerate() {
                if circuit.eval(s, &inputs) {
                    bounds.push(sufsat_seplog::Bound { x, y, c, tag: i });
                    bounds.push(sufsat_seplog::Bound {
                        x: y,
                        y: x,
                        c: -c,
                        tag: i,
                    });
                } else {
                    diseqs.push(sufsat_seplog::Disequality { x, y, c, tag: i });
                }
            }
            assert!(
                matches!(
                    sufsat_seplog::solve_with_disequalities(&bounds, &diseqs, &[]),
                    sufsat_seplog::DiffResult::Sat(_)
                ),
                "clauses satisfied but originals infeasible; assignment {m:b}"
            );
        }

        // Soundness over an integer grid.
        assert!(n_vars <= 4);
        let (lo, hi) = (-3i64, 3i64);
        let span = (hi - lo + 1) as u64;
        for point in 0..span.pow(n_vars as u32) {
            let mut vals = Vec::with_capacity(n_vars);
            let mut p = point;
            for _ in 0..n_vars {
                vals.push(lo + (p % span) as i64);
                p /= span;
            }
            let mut inputs = vec![false; n_inputs];
            for &(x, y, c, s) in &all {
                let truth = vals[index_of(&vs, x)] == vals[index_of(&vs, y)] + c;
                let input = circuit.input_index(s).expect("inputs");
                inputs[input as usize] = truth;
            }
            for cl in &clauses {
                assert!(
                    cl.iter().any(|&l| circuit.eval(l, &inputs)),
                    "integer point {vals:?} violates an equality clause"
                );
            }
        }
    }

    #[test]
    fn equality_triangle() {
        check_eq_complete_and_sound(3, &[(0, 1, 0), (1, 2, 0), (0, 2, 0)]);
    }

    #[test]
    fn equality_with_offsets() {
        check_eq_complete_and_sound(3, &[(0, 1, 2), (1, 2, -1), (0, 2, 1)]);
    }

    #[test]
    fn equality_four_vars_chain() {
        check_eq_complete_and_sound(4, &[(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1)]);
    }

    #[test]
    fn equality_same_pair_two_constants() {
        // x = y and x = y + 1 cannot both hold.
        check_eq_complete_and_sound(2, &[(0, 1, 0), (0, 1, 1)]);
    }

    #[test]
    fn equality_orientation_shares_variable() {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 2);
        let mut circuit = Circuit::new();
        let mut table = EqTable::new();
        let a = table.equality(&mut circuit, vs[0], vs[1], 3);
        let b = table.equality(&mut circuit, vs[1], vs[0], -3);
        assert_eq!(a, b, "x = y + 3 and y = x - 3 are the same predicate");
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn equality_generation_is_polynomial_on_cliques() {
        // A 12-variable equality clique: the single-variable representation
        // must stay small (this is the Bryant–Velev polynomial case the
        // paper contrasts with general separation predicates).
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 12);
        let mut circuit = Circuit::new();
        let mut table = EqTable::new();
        for i in 0..12 {
            for j in i + 1..12 {
                table.equality(&mut circuit, vs[i], vs[j], 0);
            }
        }
        let clauses =
            generate_equality_transitivity(&mut circuit, &mut table, &vs, 1_000_000, None, None).unwrap();
        assert!(
            clauses.len() < 2000,
            "equality transitivity should be cubic-ish, got {}",
            clauses.len()
        );
        assert!(
            table.len() < 200,
            "derived vars bounded, got {}",
            table.len()
        );
    }

    #[test]
    fn elimination_orders_are_both_complete() {
        // Same completeness battery under input-order elimination.
        for order in [ElimOrder::MinDegree, ElimOrder::InputOrder] {
            let mut tm = TermManager::new();
            let vs = vars(&mut tm, 4);
            let mut circuit = Circuit::new();
            let mut table = BoundTable::new();
            let raw = [(0usize, 1usize, 0i64), (1, 2, 1), (2, 3, -1), (3, 0, 0)];
            for &(x, y, c) in &raw {
                table.bound(&mut circuit, vs[x], vs[y], c);
            }
            let clauses = generate_transitivity_ordered(
                &mut circuit,
                &mut table,
                &vs,
                1_000_000,
                None,
                None,
                order,
            )
            .unwrap();
            let original: Vec<(VarSym, VarSym, i64, Signal)> = table.iter_original().collect();
            let n_inputs = circuit.num_inputs();
            assert!(n_inputs <= 18);
            for m in 0u64..(1 << n_inputs) {
                let inputs: Vec<bool> = (0..n_inputs).map(|i| m >> i & 1 == 1).collect();
                if !clauses
                    .iter()
                    .all(|cl| cl.iter().any(|&l| circuit.eval(l, &inputs)))
                {
                    continue;
                }
                let mut diff = Vec::new();
                for (i, &(x, y, c, s)) in original.iter().enumerate() {
                    if circuit.eval(s, &inputs) {
                        diff.push(sufsat_seplog::Bound { x, y, c, tag: i });
                    } else {
                        diff.push(sufsat_seplog::Bound {
                            x: y,
                            y: x,
                            c: -c - 1,
                            tag: i,
                        });
                    }
                }
                assert!(
                    matches!(
                        sufsat_seplog::solve_bounds(&diff, &[]),
                        sufsat_seplog::DiffResult::Sat(_)
                    ),
                    "{order:?}: assignment {m:b} satisfied clauses but is infeasible"
                );
            }
        }
    }

    #[test]
    fn budget_overflow_reports() {
        // A dense clique with many distinct constants forces many derived
        // constraints; a tiny budget must trip.
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 6);
        let mut circuit = Circuit::new();
        let mut table = BoundTable::new();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    for c in [-2i64, 0, 2] {
                        table.bound(&mut circuit, vs[i], vs[j], c + i as i64);
                    }
                }
            }
        }
        let r = generate_transitivity(&mut circuit, &mut table, &vs, 10, None, None);
        assert!(matches!(r, Err(TransBudgetExceeded { .. })));
    }

    #[test]
    fn bound_generation_emits_every_clause_once() {
        // Bound generation keeps no dedup set (see the module docs). Dense
        // classes with parallel edges of many weights are where a repeated
        // clause would show, under either elimination order.
        for order in [ElimOrder::MinDegree, ElimOrder::InputOrder] {
            let mut tm = TermManager::new();
            let vs = vars(&mut tm, 6);
            let mut circuit = Circuit::new();
            let mut table = BoundTable::new();
            for i in 0..6 {
                for j in 0..6 {
                    if i != j {
                        for c in [-2i64, 0, 2] {
                            table.bound(&mut circuit, vs[i], vs[j], c + (i * j) as i64 % 5);
                        }
                    }
                }
            }
            let clauses = generate_transitivity_ordered(
                &mut circuit,
                &mut table,
                &vs,
                1_000_000,
                None,
                None,
                order,
            )
            .unwrap();
            let distinct: std::collections::HashSet<[Signal; 3]> =
                clauses.iter().map(|c| clause_key(c)).collect();
            assert!(clauses.len() > 1000, "{order:?}: {} clauses", clauses.len());
            assert_eq!(distinct.len(), clauses.len(), "{order:?}");
        }
    }

    #[test]
    fn empty_class_generates_nothing() {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 3);
        let mut circuit = Circuit::new();
        let mut table = BoundTable::new();
        let clauses = generate_transitivity(&mut circuit, &mut table, &vs, 100, None, None).unwrap();
        assert!(clauses.is_empty());
    }
}
