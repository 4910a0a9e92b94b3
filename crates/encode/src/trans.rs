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

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::time::Instant;

use sufsat_sat::CancelToken;
use sufsat_suf::VarSym;

use crate::circuit::{Circuit, Signal};

/// Canonical store of per-constraint predicate variables.
///
/// The canonical key of the bound `x − y ≤ c` is `(x, y, c)` with `x < y`
/// in symbol order; the opposite orientation is represented by the negated
/// signal of the complementary canonical bound.
#[derive(Debug, Clone, Default)]
pub struct BoundTable {
    vars: HashMap<(VarSym, VarSym, i64), Signal>,
    /// Canonical keys created by atom encoding (as opposed to derived
    /// predicates introduced during transitivity generation). Only these
    /// carry two-sided semantics: their *negation* asserts the complement
    /// bound. Derived variables are one-sided helpers (`e₁ ∧ e₂ ⇒ e₃`)
    /// and are ignored when decoding models.
    original: HashSet<(VarSym, VarSym, i64)>,
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
        let key = if x < y { (x, y, c) } else { (y, x, -c - 1) };
        self.original.insert(key);
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
        if x < y {
            *self
                .vars
                .entry((x, y, c))
                .or_insert_with(|| circuit.input())
        } else {
            // x - y <= c  <=>  !(y - x <= -c-1)
            let s = *self
                .vars
                .entry((y, x, -c - 1))
                .or_insert_with(|| circuit.input());
            !s
        }
    }

    /// Whether the canonical bound covering `(x, y, c)` is atom-original.
    pub fn is_original(&self, x: VarSym, y: VarSym, c: i64) -> bool {
        let key = if x < y { (x, y, c) } else { (y, x, -c - 1) };
        self.original.contains(&key)
    }

    /// Looks up a canonical bound without allocating.
    pub fn find(&self, x: VarSym, y: VarSym, c: i64) -> Option<Signal> {
        if x < y {
            self.vars.get(&(x, y, c)).copied()
        } else {
            self.vars.get(&(y, x, -c - 1)).map(|&s| !s)
        }
    }

    /// Number of canonical predicate variables allocated.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no predicate variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over canonical bounds `(x, y, c, signal)` with `x < y`.
    pub fn iter(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.vars.iter().map(|(&(x, y, c), &s)| (x, y, c, s))
    }

    /// Iterates over atom-original canonical bounds only — the ones whose
    /// truth value carries two-sided difference-constraint semantics (used
    /// by model decoding).
    pub fn iter_original(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.original
            .iter()
            .map(|&(x, y, c)| (x, y, c, self.vars[&(x, y, c)]))
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

pub(crate) fn clause_key(clause: &[Signal]) -> Vec<Signal> {
    let mut k = clause.to_vec();
    k.sort_unstable();
    k
}

/// Canonical store of *equality* predicate variables for equality-only
/// classes (Bryant–Velev): one variable per predicate `x = y + c`, instead
/// of the two-sided bound pair — the representation behind the paper's
/// remark that equality-only transitivity grows only polynomially.
#[derive(Debug, Clone, Default)]
pub struct EqTable {
    vars: HashMap<(VarSym, VarSym, i64), Signal>,
    original: HashSet<(VarSym, VarSym, i64)>,
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
        let key = if x < y { (x, y, c) } else { (y, x, -c) };
        self.original.insert(key);
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
        // x = y + c  <=>  y = x + (-c); canonical orientation x < y.
        let key = if x < y { (x, y, c) } else { (y, x, -c) };
        *self.vars.entry(key).or_insert_with(|| circuit.input())
    }

    /// Number of canonical equality variables allocated.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether no equality variables have been allocated.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Iterates over all canonical equalities `(x, y, c, signal)`, meaning
    /// `x = y + c` with `x < y`.
    pub fn iter(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.vars.iter().map(|(&(x, y, c), &s)| (x, y, c, s))
    }

    /// Iterates over atom-original canonical equalities only.
    pub fn iter_original(&self) -> impl Iterator<Item = (VarSym, VarSym, i64, Signal)> + '_ {
        self.original
            .iter()
            .map(|&(x, y, c)| (x, y, c, self.vars[&(x, y, c)]))
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
    close_equalities(
        circuit, table, class_vars, &originals, budget, deadline, cancel, order,
    )
}

/// The atom-level predicates of `originals` whose both constants are among
/// `class_vars`.
pub(crate) fn originals_among(
    originals: impl Iterator<Item = (VarSym, VarSym, i64, Signal)>,
    class_vars: &[VarSym],
) -> Vec<(VarSym, VarSym, i64, Signal)> {
    let members: HashSet<VarSym> = class_vars.iter().copied().collect();
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
/// Returns [`TransBudgetExceeded`] past `budget` clauses, the deadline or a
/// raised cancel token.
#[allow(clippy::too_many_arguments)]
pub(crate) fn close_equalities(
    circuit: &mut Circuit,
    table: &mut EqTable,
    class_vars: &[VarSym],
    originals: &[(VarSym, VarSym, i64, Signal)],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let members: HashSet<VarSym> = class_vars.iter().copied().collect();
    let mut clauses: Vec<Vec<Signal>> = Vec::new();
    let mut seen_clauses: HashSet<Vec<Signal>> = HashSet::new();
    let mut edges: HashSet<Edge> = HashSet::new();
    let mut edges_of: HashMap<VarSym, HashSet<Edge>> = HashMap::new();
    let add_edge =
        |e: Edge, edges: &mut HashSet<Edge>, edges_of: &mut HashMap<VarSym, HashSet<Edge>>| {
            if edges.insert(e) {
                edges_of.entry(e.u).or_default().insert(e);
                edges_of.entry(e.v).or_default().insert(e);
            }
        };
    // Original equalities contribute both orientations (same literal).
    for &(x, y, c, s) in originals {
        add_edge(
            Edge {
                u: x,
                v: y,
                w: c,
                lit: s,
            },
            &mut edges,
            &mut edges_of,
        );
        add_edge(
            Edge {
                u: y,
                v: x,
                w: -c,
                lit: s,
            },
            &mut edges,
            &mut edges_of,
        );
    }

    let mut steps = 0usize;
    let mut remaining: HashSet<VarSym> = members.clone();
    while remaining.len() > 1 {
        let m = *remaining
            .iter()
            .min_by_key(|v| match order {
                ElimOrder::MinDegree => (edges_of.get(v).map_or(0, HashSet::len), v.index()),
                ElimOrder::InputOrder => (0, v.index()),
            })
            .expect("non-empty");
        let incident: Vec<Edge> = edges_of
            .get(&m)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let ins: Vec<Edge> = incident.iter().copied().filter(|e| e.v == m).collect();
        let outs: Vec<Edge> = incident.iter().copied().filter(|e| e.u == m).collect();
        for &ein in &ins {
            for &eout in &outs {
                if ein.lit == eout.lit && ein.u == eout.v {
                    // An edge composed with its own reverse: offset 0 loop.
                    continue;
                }
                let w = ein.w + eout.w;
                if ein.u == eout.v {
                    if w != 0 {
                        // x = x + w with w != 0: contradiction.
                        let clause = vec![!ein.lit, !eout.lit];
                        if seen_clauses.insert(clause_key(&clause)) {
                            clauses.push(clause);
                        }
                    }
                    continue;
                }
                let lit3 = table.derived_equality(circuit, ein.u, eout.v, w);
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
                    let clause = vec![!a, !b, c];
                    if seen_clauses.insert(clause_key(&clause)) {
                        clauses.push(clause);
                    }
                }
                // Derived equality: both orientations, same literal.
                add_edge(
                    Edge {
                        u: ein.u,
                        v: eout.v,
                        w,
                        lit: lit3,
                    },
                    &mut edges,
                    &mut edges_of,
                );
                add_edge(
                    Edge {
                        u: eout.v,
                        v: ein.u,
                        w: -w,
                        lit: lit3,
                    },
                    &mut edges,
                    &mut edges_of,
                );
                if clauses.len() > budget {
                    return Err(TransBudgetExceeded {
                        generated: clauses.len(),
                        budget,
                        timed_out: false,
                        cancelled: false,
                    });
                }
                steps += 1;
                if steps.is_multiple_of(4096) {
                    let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                    let cancelled = cancel.is_some_and(CancelToken::is_cancelled);
                    if timed_out || cancelled {
                        return Err(TransBudgetExceeded {
                            generated: clauses.len(),
                            budget,
                            timed_out,
                            cancelled,
                        });
                    }
                }
            }
        }
        remaining.remove(&m);
        for e in incident {
            edges.remove(&e);
            if let Some(set) = edges_of.get_mut(&e.u) {
                set.remove(&e);
            }
            if let Some(set) = edges_of.get_mut(&e.v) {
                set.remove(&e);
            }
        }
        edges_of.remove(&m);
    }
    Ok(clauses)
}

#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
struct Edge {
    u: VarSym,
    v: VarSym,
    w: i64,
    lit: Signal,
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
    close_bounds(
        circuit, table, class_vars, &originals, budget, deadline, cancel, order,
    )
}

/// Bound transitivity for the class `class_vars` over exactly the
/// atom-level bounds `originals` (`(x, y, c, s)`: `s` ⇔ `x − y ≤ c`), which
/// must all be members of `table`.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] past `budget` clauses, the deadline or a
/// raised cancel token.
#[allow(clippy::too_many_arguments)]
pub(crate) fn close_bounds(
    circuit: &mut Circuit,
    table: &mut BoundTable,
    class_vars: &[VarSym],
    originals: &[(VarSym, VarSym, i64, Signal)],
    budget: usize,
    deadline: Option<Instant>,
    cancel: Option<&CancelToken>,
    order: ElimOrder,
) -> Result<Vec<Vec<Signal>>, TransBudgetExceeded> {
    let members: HashSet<VarSym> = class_vars.iter().copied().collect();
    let mut clauses: Vec<Vec<Signal>> = Vec::new();
    let mut seen_clauses: HashSet<Vec<Signal>> = HashSet::new();
    let mut edges: HashSet<Edge> = HashSet::new();
    let mut edges_of: HashMap<VarSym, HashSet<Edge>> = HashMap::new();

    let add_edge =
        |e: Edge, edges: &mut HashSet<Edge>, edges_of: &mut HashMap<VarSym, HashSet<Edge>>| {
            if edges.insert(e) {
                edges_of.entry(e.u).or_default().insert(e);
                edges_of.entry(e.v).or_default().insert(e);
            }
        };

    // Atom-original predicates carry two-sided semantics: `e` asserts the
    // bound, `¬e` asserts the complement. Derived predicates introduced
    // below are one-sided (`e₁ ∧ e₂ ⇒ e₃` only), which keeps the derived
    // constants bounded by path sums — in particular polynomial for
    // equality-only classes, matching Bryant–Velev.
    for &(x, y, c, s) in originals {
        add_edge(
            Edge {
                u: x,
                v: y,
                w: c,
                lit: s,
            },
            &mut edges,
            &mut edges_of,
        );
        add_edge(
            Edge {
                u: y,
                v: x,
                w: -c - 1,
                lit: !s,
            },
            &mut edges,
            &mut edges_of,
        );
    }

    let mut steps = 0usize;
    let mut remaining: HashSet<VarSym> = members.clone();
    while remaining.len() > 1 {
        // Min-degree vertex among the remaining.
        let m = *remaining
            .iter()
            .min_by_key(|v| match order {
                ElimOrder::MinDegree => (edges_of.get(v).map_or(0, HashSet::len), v.index()),
                ElimOrder::InputOrder => (0, v.index()),
            })
            .expect("non-empty");
        let incident: Vec<Edge> = edges_of
            .get(&m)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        let ins: Vec<Edge> = incident.iter().copied().filter(|e| e.v == m).collect();
        let outs: Vec<Edge> = incident.iter().copied().filter(|e| e.u == m).collect();
        for &ein in &ins {
            for &eout in &outs {
                if ein.lit == !eout.lit {
                    // An edge composed with its own complement: tautology.
                    continue;
                }
                let w = ein.w + eout.w;
                if ein.u == eout.v {
                    // Self-loop: a negative one is a contradiction.
                    if w < 0 {
                        let clause = vec![!ein.lit, !eout.lit];
                        if seen_clauses.insert(clause_key(&clause)) {
                            clauses.push(clause);
                        }
                    }
                    continue;
                }
                let lit3 = table.derived_bound(circuit, ein.u, eout.v, w);
                if lit3 != ein.lit && lit3 != eout.lit {
                    // Otherwise e1 ∧ e2 ⇒ e1: a tautology.
                    let clause = vec![!ein.lit, !eout.lit, lit3];
                    if seen_clauses.insert(clause_key(&clause)) {
                        clauses.push(clause);
                    }
                }
                // Only the derived direction joins the graph, so later
                // eliminations can keep collapsing cycles through it;
                // re-adding existing edges is idempotent.
                add_edge(
                    Edge {
                        u: ein.u,
                        v: eout.v,
                        w,
                        lit: lit3,
                    },
                    &mut edges,
                    &mut edges_of,
                );
                if clauses.len() > budget {
                    return Err(TransBudgetExceeded {
                        generated: clauses.len(),
                        budget,
                        timed_out: false,
                        cancelled: false,
                    });
                }
                steps += 1;
                if steps.is_multiple_of(4096) {
                    let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
                    let cancelled = cancel.is_some_and(CancelToken::is_cancelled);
                    if timed_out || cancelled {
                        return Err(TransBudgetExceeded {
                            generated: clauses.len(),
                            budget,
                            timed_out,
                            cancelled,
                        });
                    }
                }
            }
        }
        // Remove m and its incident edges.
        remaining.remove(&m);
        for e in incident {
            edges.remove(&e);
            if let Some(set) = edges_of.get_mut(&e.u) {
                set.remove(&e);
            }
            if let Some(set) = edges_of.get_mut(&e.v) {
                set.remove(&e);
            }
        }
        edges_of.remove(&m);
    }
    Ok(clauses)
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
    fn empty_class_generates_nothing() {
        let mut tm = TermManager::new();
        let vs = vars(&mut tm, 3);
        let mut circuit = Circuit::new();
        let mut table = BoundTable::new();
        let clauses = generate_transitivity(&mut circuit, &mut table, &vs, 100, None, None).unwrap();
        assert!(clauses.is_empty());
    }
}
