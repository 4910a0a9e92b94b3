//! SatELite-style CNF preprocessing (Eén & Biere, SAT 2005).
//!
//! [`Solver::preprocess`] runs three classical simplifications over the
//! clause arena before search, driven by per-variable occurrence lists:
//!
//! 1. **Subsumption** — a clause `C ⊆ D` deletes `D`.
//! 2. **Self-subsuming resolution** — if `C \ {l} ⊆ D` and `¬l ∈ D`, the
//!    resolvent strengthens `D` by removing `¬l`.
//! 3. **Bounded variable elimination (BVE)** — a variable whose
//!    clause-distribution resolvents do not outnumber the clauses they
//!    replace is resolved away entirely.
//!
//! # Model reconstruction
//!
//! Elimination changes the formula to an equisatisfiable one that says
//! nothing about the eliminated variable, but callers (`model_value`,
//! counterexample decoding, certification replay) still expect a value for
//! every variable. Each elimination therefore pushes the removed clauses
//! onto a reconstruction stack ([`ElimRecord`]); after every `Sat` answer
//! the solver walks the stack backwards and patches the model so all saved
//! clauses are satisfied (`extend_model`).
//!
//! The same records make elimination safe for *incremental* use: when a
//! later `add_clause` or assumption mentions an eliminated variable, the
//! saved clauses are restored verbatim (`restore_mentioned`), which brings
//! the clause set back to one logically equivalent to the original — the
//! resolvents left behind are implied, so they can stay.
//!
//! # Certification compatibility
//!
//! Subsumption emits DRAT deletion lines and self-subsumption emits the
//! resolvent (an RUP-derivable clause) before deleting the fat original,
//! so both remain active under proof logging. BVE is *disabled* while a
//! proof is being logged: restored clauses and reconstruction have no DRAT
//! story, and refutation replay must see the eliminated clauses as inputs.
//! The restriction is reported with a traced `sat.preprocess.restricted`
//! event so benchmark runs can tell which flavour they measured.
//! Variables that must survive for external reasons (e.g. the incremental
//! session's activation literals) are protected with [`Solver::set_frozen`].

use std::collections::HashMap;

use crate::clause::{ClauseRef, NO_REASON};
use crate::lit::{LBool, Lit, Var};
use crate::solver::Solver;

/// Clauses removed when a variable was eliminated, in elimination order.
///
/// Used both for model reconstruction after `Sat` answers and for
/// restoring the variable when later additions mention it.
#[derive(Debug, Clone)]
pub(crate) struct ElimRecord {
    pub(crate) var: Var,
    pub(crate) clauses: Vec<Vec<Lit>>,
}

/// Skip BVE for variables occurring in more clauses than this.
const ELIM_OCC_LIMIT: usize = 40;
/// Abort the whole preprocessing pass after this many candidate checks;
/// stopping early is always sound.
const EFFORT_BUDGET: u64 = 4_000_000;
/// Elimination/subsumption alternation rounds.
const MAX_ROUNDS: usize = 4;

impl Solver {
    /// Protects `v` from (or re-exposes it to) preprocessing elimination.
    ///
    /// Freeze variables whose clauses arrive only after
    /// [`Solver::preprocess`] has run, or that must stay available as
    /// assumption literals — e.g. activation literals in incremental use.
    pub fn set_frozen(&mut self, v: Var, frozen: bool) {
        self.frozen[v.index()] = frozen;
    }

    /// Whether `v` is currently eliminated by preprocessing.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Number of currently eliminated variables.
    pub fn num_eliminated(&self) -> usize {
        self.elim_records.len()
    }

    /// Runs SatELite-style preprocessing: subsumption, self-subsuming
    /// resolution and bounded variable elimination (see the module docs).
    /// Sound to call between `solve` calls; under proof logging,
    /// elimination is skipped so refutation certificates stay checkable.
    ///
    /// Returns `false` iff the clause set is (or becomes) unsatisfiable.
    pub fn preprocess(&mut self) -> bool {
        static ELIMINATED: sufsat_obs::Counter =
            sufsat_obs::Counter::new("sat.preprocess.eliminated_vars");
        static SUBSUMED: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.preprocess.subsumed");
        static STRENGTHENED: sufsat_obs::Counter =
            sufsat_obs::Counter::new("sat.preprocess.strengthened");

        if !self.ok {
            return false;
        }
        let span = sufsat_obs::span_with!(
            "sat.preprocess",
            vars = self.num_vars(),
            clauses = self.db.len(),
        );
        let before_elim = self.stats.eliminated_vars;
        let before_sub = self.stats.subsumed_clauses;
        let before_str = self.stats.strengthened_clauses;

        // Level-0 propagation plus satisfied/falsified-literal cleanup
        // first, so occurrence lists are built over clean clauses.
        if !self.simplify() {
            return false;
        }
        let allow_elim = self.proof().is_none();
        if !allow_elim {
            sufsat_obs::event!("sat.preprocess.restricted", reason = "proof-logging");
        }

        let mut st = PreState::build(self);
        let mut ok = drain_subsumption(self, &mut st);
        let mut rounds = 0;
        while ok && allow_elim && rounds < MAX_ROUNDS && !st.exhausted() {
            if !eliminate_sweep(self, &mut st) {
                ok = self.ok;
                break;
            }
            ok = self.ok && drain_subsumption(self, &mut st);
            rounds += 1;
        }
        // Propagations above may have falsified literals inside surviving
        // clauses; a final simplify cleans them up and compacts the arena.
        if ok {
            ok = self.simplify();
        }

        let eliminated = self.stats.eliminated_vars - before_elim;
        let subsumed = self.stats.subsumed_clauses - before_sub;
        let strengthened = self.stats.strengthened_clauses - before_str;
        ELIMINATED.add(eliminated);
        SUBSUMED.add(subsumed);
        STRENGTHENED.add(strengthened);
        if span.is_recording() {
            sufsat_obs::event!(
                "sat.preprocess.result",
                ok = ok,
                eliminated_vars = eliminated,
                subsumed = subsumed,
                strengthened = strengthened,
                clauses = self.db.len(),
                exhausted = st.exhausted(),
            );
        }
        ok
    }

    /// Restores every eliminated variable mentioned by `lits` (and,
    /// transitively, eliminated variables mentioned by the restored
    /// clauses), re-adding the saved clauses so the clause set is again
    /// equivalent to the original over those variables.
    pub(crate) fn restore_mentioned(&mut self, lits: &[Lit]) {
        if self.elim_records.is_empty() {
            return;
        }
        let mut work: Vec<Var> = lits
            .iter()
            .map(|l| l.var())
            .filter(|v| self.eliminated[v.index()])
            .collect();
        while let Some(v) = work.pop() {
            if !self.eliminated[v.index()] {
                continue;
            }
            self.eliminated[v.index()] = false;
            self.stats.eliminated_vars = self.stats.eliminated_vars.saturating_sub(1);
            sufsat_obs::event!("sat.preprocess.restore", var = v.index());
            let idx = self
                .elim_records
                .iter()
                .position(|r| r.var == v)
                .expect("eliminated variable has a reconstruction record");
            let rec = self.elim_records.remove(idx);
            for clause in rec.clauses {
                // A saved clause may mention variables eliminated later;
                // they must come back too.
                work.extend(
                    clause
                        .iter()
                        .map(|l| l.var())
                        .filter(|w| self.eliminated[w.index()]),
                );
                // BVE never runs under proof logging, so restored clauses
                // need no DRAT bookkeeping (debug-checked here).
                debug_assert!(self.proof().is_none());
                self.add_clause_core(clause, false);
            }
        }
    }

    /// Extends the model over eliminated variables: walks the
    /// reconstruction stack backwards and gives each eliminated variable a
    /// value satisfying all of its saved clauses.
    pub(crate) fn extend_model(&mut self) {
        for i in (0..self.elim_records.len()).rev() {
            let rec = &self.elim_records[i];
            let mut forced: Option<bool> = None;
            for clause in &rec.clauses {
                let mut pol = true;
                let mut other_sat = false;
                for &l in clause {
                    if l.var() == rec.var {
                        pol = l.is_positive();
                    } else if self.model[l.var().index()] == l.is_positive() {
                        other_sat = true;
                        break;
                    }
                }
                if !other_sat {
                    // Two otherwise-unsatisfied clauses of opposite
                    // polarity would falsify their resolvent, which is in
                    // the formula the model satisfies — impossible.
                    debug_assert!(
                        forced.is_none() || forced == Some(pol),
                        "contradictory model reconstruction for {}",
                        rec.var
                    );
                    forced = Some(pol);
                }
            }
            if let Some(value) = forced {
                self.model[rec.var.index()] = value;
            }
        }
    }
}

/// Occurrence lists plus signatures for the clauses preprocessing may
/// touch (live, length >= 2, no top-level-assigned literal at build time).
struct PreState {
    /// Per-variable occurrence lists (both polarities, lazily cleaned).
    occ: Vec<Vec<ClauseRef>>,
    /// Variable-set signature per in-universe clause; doubles as the
    /// "still in the universe" marker.
    sig: HashMap<ClauseRef, u64>,
    /// Clauses pending a backward-subsumption pass.
    queue: Vec<ClauseRef>,
    /// Remaining candidate-check budget.
    budget: u64,
}

fn signature(lits: &[Lit]) -> u64 {
    lits.iter()
        .fold(0u64, |acc, l| acc | 1u64 << (l.var().index() % 64))
}

impl PreState {
    fn build(s: &Solver) -> PreState {
        let mut st = PreState {
            occ: vec![Vec::new(); s.num_vars()],
            sig: HashMap::new(),
            queue: Vec::new(),
            budget: EFFORT_BUDGET,
        };
        for cref in s.db.crefs() {
            if s.db.is_removed(cref) || s.db.size(cref) < 2 {
                continue;
            }
            let lits = s.db.lits_vec(cref);
            if lits.iter().any(|&l| s.value(l) != LBool::Undef) {
                // Post-simplify this is a satisfied clause locked as a
                // level-0 reason: permanently satisfied, never touched.
                continue;
            }
            st.register(cref, &lits);
        }
        st
    }

    fn register(&mut self, cref: ClauseRef, lits: &[Lit]) {
        for &l in lits {
            self.occ[l.var().index()].push(cref);
        }
        self.sig.insert(cref, signature(lits));
        self.queue.push(cref);
    }

    fn deregister(&mut self, cref: ClauseRef) {
        // Occurrence entries are cleaned lazily: scans skip refs without a
        // signature entry.
        self.sig.remove(&cref);
    }

    fn in_universe(&self, cref: ClauseRef) -> bool {
        self.sig.contains_key(&cref)
    }

    fn spend(&mut self, amount: u64) -> bool {
        self.budget = self.budget.saturating_sub(amount);
        self.budget > 0
    }

    fn exhausted(&self) -> bool {
        self.budget == 0
    }
}

enum Sub {
    Subsumes,
    /// `D` can be strengthened by removing this literal of `D`.
    Strengthen(Lit),
    None,
}

/// Does `c_lits` subsume `d`, possibly modulo one flipped literal
/// (self-subsuming resolution)?
fn subsumes(s: &Solver, c_lits: &[Lit], d: ClauseRef) -> Sub {
    let dn = s.db.size(d);
    if c_lits.len() > dn {
        return Sub::None;
    }
    let mut flipped: Option<Lit> = None;
    'outer: for &l in c_lits {
        for k in 0..dn {
            let dl = s.db.lit(d, k);
            if dl == l {
                continue 'outer;
            }
            if dl == !l && flipped.is_none() {
                flipped = Some(dl);
                continue 'outer;
            }
        }
        return Sub::None;
    }
    match flipped {
        None => Sub::Subsumes,
        Some(dl) => Sub::Strengthen(dl),
    }
}

/// Deletes a subsumed clause.
fn delete_clause(s: &mut Solver, st: &mut PreState, d: ClauseRef) {
    let lits = s.db.lits_vec(d);
    s.proof_delete(&lits);
    st.deregister(d);
    s.detach(d);
    s.db.remove(d);
    s.stats.subsumed_clauses += 1;
}

/// Strengthens `d` by removing `dl` (self-subsuming resolution). Returns
/// `false` iff the clause set became unsatisfiable.
fn strengthen_clause(s: &mut Solver, st: &mut PreState, d: ClauseRef, dl: Lit) -> bool {
    let old = s.db.lits_vec(d);
    let new: Vec<Lit> = old.iter().copied().filter(|&x| x != dl).collect();
    debug_assert!(!new.is_empty());
    // The resolvent is RUP against its two parents, so this order (add,
    // then delete the fat original) keeps DRAT replay happy.
    s.proof_add(&new);
    s.proof_delete(&old);
    st.deregister(d);
    s.detach(d);
    let learnt = s.db.learnt(d);
    let lbd = s.db.lbd(d);
    s.db.remove(d);
    s.stats.strengthened_clauses += 1;
    if new.len() == 1 {
        match s.value(new[0]) {
            LBool::True => {}
            LBool::False => {
                s.ok = false;
                s.proof_add(&[]);
                return false;
            }
            LBool::Undef => {
                s.enqueue(new[0], NO_REASON);
                if s.propagate().is_some() {
                    s.ok = false;
                    s.proof_add(&[]);
                    return false;
                }
            }
        }
    } else {
        let nref = s.db.alloc(&new, learnt, lbd);
        s.attach(nref);
        st.register(nref, &new);
    }
    true
}

/// Backward subsumption + self-subsumption to fixpoint over the queue.
/// Returns `false` iff the clause set became unsatisfiable.
fn drain_subsumption(s: &mut Solver, st: &mut PreState) -> bool {
    while let Some(c) = st.queue.pop() {
        if !st.in_universe(c) || s.db.is_removed(c) {
            continue;
        }
        if s.cancel_requested() || !st.spend(1) {
            return true;
        }
        let c_lits = s.db.lits_vec(c);
        let csig = st.sig[&c];
        let best = c_lits
            .iter()
            .map(|l| l.var())
            .min_by_key(|v| st.occ[v.index()].len())
            .expect("clauses in the universe are non-empty");
        let cands = st.occ[best.index()].clone();
        if !st.spend(cands.len() as u64) {
            return true;
        }
        for d in cands {
            if d == c || !st.in_universe(d) || s.db.is_removed(d) {
                continue;
            }
            let dsig = st.sig[&d];
            if csig & !dsig != 0 {
                continue;
            }
            match subsumes(s, &c_lits, d) {
                Sub::Subsumes => {
                    if !s.locked(d) {
                        // A learnt subsumer now justifies deleting an input
                        // clause: promote it to irredundant first, or a
                        // later reduce_db could drop it too and leave the
                        // clause set weaker than the input formula.
                        if s.db.learnt(c) && !s.db.learnt(d) {
                            s.db.make_irredundant(c);
                        }
                        delete_clause(s, st, d);
                    }
                }
                Sub::Strengthen(dl) => {
                    if !s.locked(d) && !strengthen_clause(s, st, d, dl) {
                        return false;
                    }
                }
                Sub::None => {}
            }
        }
    }
    true
}

/// The resolvent of `p` (containing `v`) and `n` (containing `¬v`), or
/// `None` when it is a tautology.
fn resolve(s: &Solver, p: ClauseRef, n: ClauseRef, v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(s.db.size(p) + s.db.size(n) - 2);
    for k in 0..s.db.size(p) {
        let l = s.db.lit(p, k);
        if l.var() != v {
            out.push(l);
        }
    }
    for k in 0..s.db.size(n) {
        let l = s.db.lit(n, k);
        if l.var() == v {
            continue;
        }
        if out.contains(&!l) {
            return None;
        }
        if !out.contains(&l) {
            out.push(l);
        }
    }
    Some(out)
}

/// One bounded-variable-elimination sweep over all candidate variables.
/// Returns whether any variable was eliminated; `Solver::ok` goes false if
/// a conflict is derived.
fn eliminate_sweep(s: &mut Solver, st: &mut PreState) -> bool {
    let mut order: Vec<Var> = (0..s.num_vars()).map(Var::from_index).collect();
    order.sort_by_key(|v| st.occ[v.index()].len());
    let mut changed = false;
    for v in order {
        if !s.ok || s.cancel_requested() || !st.spend(1) {
            break;
        }
        let vi = v.index();
        if s.frozen[vi] || s.eliminated[vi] || s.assigns[vi].is_assigned() {
            continue;
        }
        changed |= try_eliminate(s, st, v);
    }
    changed
}

/// Tries to eliminate `v` by clause distribution. Returns whether it was
/// eliminated.
fn try_eliminate(s: &mut Solver, st: &mut PreState, v: Var) -> bool {
    let occs: Vec<ClauseRef> = st.occ[v.index()]
        .iter()
        .copied()
        .filter(|&c| st.in_universe(c) && !s.db.is_removed(c))
        .collect();
    if occs.is_empty() || occs.len() > ELIM_OCC_LIMIT {
        return false;
    }
    // Reason clauses must never be deleted.
    if occs.iter().any(|&c| s.locked(c)) {
        return false;
    }
    let pos_lit = v.positive();
    let (pos, neg): (Vec<ClauseRef>, Vec<ClauseRef>) = occs
        .iter()
        .partition(|&&c| s.db.lits_vec(c).contains(&pos_lit));
    if !st.spend((pos.len() * neg.len()) as u64) {
        return false;
    }
    // Distribution: collect non-tautological resolvents, giving up as soon
    // as they would outnumber the clauses they replace.
    let mut resolvents: Vec<Vec<Lit>> = Vec::new();
    for &p in &pos {
        for &n in &neg {
            if let Some(r) = resolve(s, p, n, v) {
                resolvents.push(r);
                if resolvents.len() > occs.len() {
                    return false;
                }
            }
        }
    }
    // Commit: save and delete the originals, then add the resolvents.
    let mut record = ElimRecord {
        var: v,
        clauses: Vec::with_capacity(occs.len()),
    };
    for &c in &occs {
        let lits = s.db.lits_vec(c);
        s.proof_delete(&lits);
        record.clauses.push(lits);
        st.deregister(c);
        s.detach(c);
        s.db.remove(c);
    }
    s.eliminated[v.index()] = true;
    s.elim_records.push(record);
    s.stats.eliminated_vars += 1;
    for r in resolvents {
        s.proof_add(&r);
        match r.len() {
            0 => {
                s.ok = false;
                return true;
            }
            1 => match s.value(r[0]) {
                LBool::True => {}
                LBool::False => {
                    s.ok = false;
                    s.proof_add(&[]);
                    return true;
                }
                LBool::Undef => {
                    s.enqueue(r[0], NO_REASON);
                    if s.propagate().is_some() {
                        s.ok = false;
                        s.proof_add(&[]);
                        return true;
                    }
                }
            },
            _ => {
                let nref = s.db.alloc(&r, false, 0);
                s.attach(nref);
                st.register(nref, &r);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    fn nvars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn subsumption_deletes_superset_clauses() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[0].positive(), v[1].positive(), v[2].positive()]);
        assert_eq!(s.num_clauses(), 2);
        assert!(s.preprocess());
        assert_eq!(s.stats().subsumed_clauses, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn self_subsumption_strengthens() {
        // (a ∨ b) and (¬a ∨ b ∨ c): the second strengthens to (b ∨ c)?
        // No — (a ∨ b) self-subsumes (¬a ∨ b ∨ c) on a, giving (b ∨ c).
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[0].negative(), v[1].positive(), v[2].positive()]);
        assert!(s.preprocess());
        assert!(s.stats().strengthened_clauses >= 1);
        // Forcing ¬b now implies a (first clause) and c (strengthened one).
        s.add_clause([v[1].negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[2]), Some(true));
    }

    #[test]
    fn bve_eliminates_and_reconstructs_model() {
        // x is a pure connective: (¬x ∨ a), (¬x ∨ b), (x ∨ ¬a ∨ ¬b) — an
        // AND gate. Eliminating x must keep the formula satisfiable and
        // the reconstructed model must satisfy all original clauses.
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (x, a, b) = (v[0], v[1], v[2]);
        // Freeze the gate inputs so x is the elimination target (a and b
        // would otherwise go first — their resolvents are all tautologies).
        s.set_frozen(a, true);
        s.set_frozen(b, true);
        let original: Vec<Vec<Lit>> = vec![
            vec![x.negative(), a.positive()],
            vec![x.negative(), b.positive()],
            vec![x.positive(), a.negative(), b.negative()],
        ];
        for c in &original {
            s.add_clause(c.iter().copied());
        }
        assert!(s.preprocess());
        assert!(s.is_eliminated(x), "gate variable should be eliminated");
        assert_eq!(s.stats().eliminated_vars, 1);
        // Force a and b true; x must reconstruct to true.
        s.add_clause([a.positive()]);
        s.add_clause([b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &original {
            assert!(
                c.iter().any(|&l| s.model_lit_value(l) == Some(true)),
                "reconstructed model violates {c:?}"
            );
        }
        assert_eq!(s.model_value(x), Some(true));
    }

    #[test]
    fn bve_reconstruction_round_trips_many_seeds() {
        // Random small formulas: preprocess+solve and plain solve agree on
        // satisfiability, and reconstructed models satisfy every original
        // clause.
        for seed in 0..40u64 {
            let mut h = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut next = || {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                h
            };
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..14 {
                let len = 1 + (next() % 3) as usize;
                clauses.push(
                    (0..len)
                        .map(|_| ((next() % 6) as usize, next() & 1 == 1))
                        .collect(),
                );
            }
            let build = |pre: bool| -> (SolveResult, Option<Vec<bool>>) {
                let mut s = Solver::new();
                let vs = (0..6).map(|_| s.new_var()).collect::<Vec<_>>();
                for c in &clauses {
                    s.add_clause(c.iter().map(|&(v, pos)| Lit::new(vs[v], pos)));
                }
                if pre {
                    let _ = s.preprocess();
                }
                let r = s.solve();
                let model = (r == SolveResult::Sat).then(|| s.model().to_vec());
                (r, model)
            };
            let (plain, _) = build(false);
            let (pre, model) = build(true);
            assert_eq!(plain, pre, "seed {seed}");
            if let Some(model) = model {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&(v, pos)| model[v] == pos),
                        "seed {seed}: reconstructed model violates {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn learnt_subsumer_is_promoted_before_deleting_original() {
        // A learnt clause subsuming an original clause must become
        // irredundant when the original is deleted: if it stayed learnt, a
        // later reduce_db could drop it too, leaving the clause set weaker
        // than the input formula.
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (a, b, c) = (v[0], v[1], v[2]);
        // Freeze everything so BVE stays out of the picture.
        for &x in &v {
            s.set_frozen(x, true);
        }
        s.add_clause([a.positive(), b.positive(), c.positive()]);
        let lref = s.db.alloc(&[a.positive(), b.positive()], true, 2);
        s.attach(lref);
        assert_eq!(s.db.num_learnts(), 1);
        assert!(s.preprocess());
        assert_eq!(s.stats().subsumed_clauses, 1);
        // `lref` may have been relocated by arena GC inside preprocess;
        // assert over the whole live arena instead: the subsumer survives
        // promoted, so no learnt clause is left for reduce_db to drop.
        assert_eq!(s.db.num_learnts(), 0);
        assert!(
            s.db.learnts.is_empty(),
            "promoted clause leaves the learnt index"
        );
        let live: Vec<_> =
            s.db.crefs()
                .into_iter()
                .filter(|&c| !s.db.is_removed(c))
                .collect();
        assert_eq!(live.len(), 1);
        assert!(!s.db.learnt(live[0]), "subsumer must be promoted");
        assert_eq!(s.db.size(live[0]), 2);
        // The promoted clause now carries the deleted original's content:
        // ¬a ∧ ¬b must refute the formula.
        s.add_clause([a.negative()]);
        s.add_clause([b.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn preprocess_detects_unsat() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 2);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[0].positive(), v[1].negative()]);
        s.add_clause([v[0].negative(), v[1].positive()]);
        s.add_clause([v[0].negative(), v[1].negative()]);
        assert!(!s.preprocess() || s.solve() == SolveResult::Unsat);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn frozen_variables_survive() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        s.set_frozen(v[0], true);
        s.add_clause([v[0].negative(), v[1].positive()]);
        s.add_clause([v[0].positive(), v[1].negative(), v[2].positive()]);
        assert!(s.preprocess());
        assert!(!s.is_eliminated(v[0]));
        // A frozen variable still works as an assumption.
        assert_eq!(
            s.solve_with_assumptions(&[v[0].positive()]),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn adding_clause_on_eliminated_var_restores_it() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (x, a, b) = (v[0], v[1], v[2]);
        s.set_frozen(a, true);
        s.set_frozen(b, true);
        s.add_clause([x.negative(), a.positive()]);
        s.add_clause([x.negative(), b.positive()]);
        s.add_clause([x.positive(), a.negative(), b.negative()]);
        assert!(s.preprocess());
        assert!(s.is_eliminated(x));
        // New clauses force x true and b false: a must come back true via
        // the restored (¬x ∨ a), and (¬x ∨ b) must make this unsat once b
        // is false.
        s.add_clause([x.positive()]);
        assert!(!s.is_eliminated(x), "restore on add_clause");
        assert_eq!(s.num_eliminated(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(a), Some(true));
        assert_eq!(s.model_value(b), Some(true));
        s.add_clause([b.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assuming_an_eliminated_var_restores_it() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 3);
        let (x, a, b) = (v[0], v[1], v[2]);
        s.add_clause([x.negative(), a.positive()]);
        s.add_clause([x.negative(), b.positive()]);
        s.add_clause([x.positive(), a.negative(), b.negative()]);
        s.add_clause([b.negative()]);
        assert!(s.preprocess());
        if s.is_eliminated(x) {
            // Assuming x must now behave exactly like the original
            // formula: x ∧ ¬b is contradictory.
            assert_eq!(
                s.solve_with_assumptions(&[x.positive()]),
                SolveResult::Unsat
            );
            assert!(!s.is_eliminated(x));
            assert!(!s.failed_assumptions().is_empty());
        }
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn proof_logging_restricts_elimination_but_stays_checkable() {
        // Satisfiable formula with an obvious elimination candidate: BVE
        // must stay off while a proof is being logged.
        let mut s = Solver::new();
        s.enable_proof();
        let v = nvars(&mut s, 3);
        s.add_clause([v[0].negative(), v[1].positive()]);
        s.add_clause([v[0].negative(), v[2].positive()]);
        s.add_clause([v[0].positive(), v[1].negative(), v[2].negative()]);
        assert!(s.preprocess());
        assert_eq!(s.num_eliminated(), 0, "BVE must be off under proof logging");
        assert_eq!(s.solve(), SolveResult::Sat);

        // Unsat formula: subsumption + self-subsumption during
        // preprocessing (which here refutes the formula outright) must
        // leave a checkable DRAT refutation.
        let mut s = Solver::new();
        s.enable_proof();
        let v = nvars(&mut s, 4);
        s.add_clause([v[2].positive(), v[3].positive()]);
        s.add_clause([v[2].positive(), v[3].positive(), v[0].positive()]);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[0].positive(), v[1].negative()]);
        s.add_clause([v[0].negative(), v[1].positive()]);
        s.add_clause([v[0].negative(), v[1].negative()]);
        let pre_ok = s.preprocess();
        assert!(s.stats().subsumed_clauses + s.stats().strengthened_clauses >= 1);
        assert_eq!(s.num_eliminated(), 0);
        assert!(!pre_ok, "self-subsumption refutes this formula outright");
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.check_proof(), Some(true));
    }

    #[test]
    fn preprocess_twice_is_idempotent_enough() {
        let mut s = Solver::new();
        let v = nvars(&mut s, 4);
        s.add_clause([v[0].positive(), v[1].positive()]);
        s.add_clause([v[1].negative(), v[2].positive()]);
        s.add_clause([v[2].negative(), v[3].positive()]);
        assert!(s.preprocess());
        assert!(s.preprocess());
        assert_eq!(s.solve(), SolveResult::Sat);
    }
}
