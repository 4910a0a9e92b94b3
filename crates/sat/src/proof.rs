//! DRAT proof logging and checking.
//!
//! When enabled via [`Solver::enable_proof`](crate::Solver::enable_proof),
//! the solver records every derived clause (conflict clauses, simplified
//! input clauses, the final empty clause) and every clause deletion in
//! DRAT order. UNSAT answers can then be independently validated —
//! either with an external checker via [`Proof::write_drat`], or with the
//! built-in watched-literal forward RUP checker, [`check_refutation`].

use std::io::Write;

use crate::lit::Lit;

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A derived clause (reverse-unit-propagation redundant).
    Add(Vec<Lit>),
    /// A clause deletion.
    Delete(Vec<Lit>),
}

/// A recorded DRAT proof.
#[derive(Debug, Clone, Default)]
pub struct Proof {
    steps: Vec<ProofStep>,
}

impl Proof {
    pub(crate) fn new() -> Proof {
        Proof::default()
    }

    pub(crate) fn add(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Add(clause.to_vec()));
    }

    pub(crate) fn delete(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Delete(clause.to_vec()));
    }

    /// The recorded steps, in derivation order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Whether the proof ends in the empty clause (a refutation).
    pub fn is_refutation(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty()))
    }

    /// Writes the proof in the textual DRAT format (`d` lines for
    /// deletions, literals in DIMACS numbering, `0` terminated).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_drat<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        for step in &self.steps {
            let (prefix, clause) = match step {
                ProofStep::Add(c) => ("", c),
                ProofStep::Delete(c) => ("d ", c),
            };
            write!(writer, "{prefix}")?;
            for &l in clause {
                let v = l.var().index() as i64 + 1;
                write!(writer, "{} ", if l.is_positive() { v } else { -v })?;
            }
            writeln!(writer, "0")?;
        }
        Ok(())
    }
}

/// Forward RUP check of `proof` against the original clauses.
///
/// Returns `true` iff every added clause is reverse-unit-propagation (RUP)
/// redundant with respect to the clauses live at that point, and the proof
/// derives the empty clause; steps after the empty clause are not read.
/// RAT is not supported: a lemma that is RAT but not RUP fails the check.
///
/// This is the forward pass of DRAT-trim (Wetzler, Heule and Hunt,
/// SAT 2014). The clauses live in one flat arena with two watched literals
/// each. Everything unit propagation derives from the live clauses stays
/// assigned on a persistent top-level trail; each lemma's negation is
/// assigned on top of it, propagated and undone, so a lemma costs one
/// propagation rather than a scan of the clause database. A deleted clause
/// is found through a hash of its sorted literals. Nothing is shared with
/// [`Solver`](crate::Solver) beyond [`Lit`], so the check stays independent
/// of the search that produced the proof.
///
/// As in DRAT-trim's default mode, two kinds of deletion are ignored: the
/// deletion of a clause that is the reason for a top-level literal (honouring
/// it would mean retracting that literal and everything propagated from it),
/// and every deletion once the live clauses are inconsistent under unit
/// propagation. Both are sound. Every clause the checker holds is implied by
/// `original`: inputs trivially, lemmas because they are RUP against clauses
/// that are. So a lemma that is RUP against a superset of the live clauses is
/// still implied, and a refutation still refutes `original`; deletions matter
/// only to RAT checks, which are not made. The visible effect is that a proof
/// whose lemma is RUP only through such a kept clause is accepted, where a
/// checker that honours every deletion rejects it.
pub fn check_refutation(original: &[Vec<Lit>], proof: &Proof) -> bool {
    let mut checker = Checker::new(original, proof.steps());
    for clause in original {
        checker.add(clause);
    }
    for step in proof.steps() {
        match step {
            ProofStep::Add(lemma) => {
                if !checker.is_rup(lemma) {
                    return false;
                }
                if lemma.is_empty() {
                    return true;
                }
                checker.add(lemma);
            }
            ProofStep::Delete(clause) => {
                checker.delete(clause);
            }
        }
    }
    false
}

/// Ends a hash chain; the reason of a literal no clause implied.
const NONE: u32 = u32::MAX;

/// Literal values in [`Checker::values`].
const TRUE: i8 = 1;
const FALSE: i8 = -1;
const UNASSIGNED: i8 = 0;

/// Where a clause sits in the arena.
#[derive(Clone, Copy)]
struct ClauseMeta {
    start: u32,
    len: u32,
    /// Next clause in the same hash bucket, or [`NONE`].
    next: u32,
    deleted: bool,
}

/// A watch-list entry. `blocker` is another literal of the clause: while it
/// is true the clause is satisfied and need not be read.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

/// The clause database and assignment of [`check_refutation`].
struct Checker {
    /// The literals of every stored clause; a clause's watched literals are
    /// its first two.
    arena: Vec<Lit>,
    clauses: Vec<ClauseMeta>,
    /// Hash-chain heads, indexed by the low bits of a clause's hash.
    buckets: Vec<u32>,
    /// Per literal: the clauses watching it. A deleted clause leaves its
    /// watches behind; propagation drops them when it meets them.
    watches: Vec<Vec<Watch>>,
    /// Per literal: `TRUE`, `FALSE` or `UNASSIGNED`.
    values: Vec<i8>,
    /// Per variable: the clause that implied it, or [`NONE`].
    reasons: Vec<u32>,
    /// Assigned literals in order. Outside [`Checker::is_rup`] it holds
    /// only top-level literals, all propagated unless `inconsistent`.
    trail: Vec<Lit>,
    /// `trail[..head]` has been propagated.
    head: usize,
    /// The live clauses are inconsistent under unit propagation.
    inconsistent: bool,
    /// The clause being added or deleted, sorted and deduplicated.
    key: Vec<Lit>,
}

impl Checker {
    /// An empty checker with room for `original` and every lemma of `steps`.
    fn new(original: &[Vec<Lit>], steps: &[ProofStep]) -> Checker {
        let mut num_vars = 0;
        let (mut num_clauses, mut num_lits) = (0, 0);
        let steps = steps.iter().map(|step| match step {
            ProofStep::Add(c) => (c, true),
            ProofStep::Delete(c) => (c, false),
        });
        for (clause, stored) in original.iter().map(|c| (c, true)).chain(steps) {
            for l in clause {
                num_vars = num_vars.max(l.var().index() + 1);
            }
            if stored {
                num_clauses += 1;
                num_lits += clause.len();
            }
        }
        Checker {
            arena: Vec::with_capacity(num_lits),
            clauses: Vec::with_capacity(num_clauses),
            buckets: vec![NONE; usize::next_power_of_two(num_clauses)],
            watches: vec![Vec::new(); 2 * num_vars],
            values: vec![UNASSIGNED; 2 * num_vars],
            reasons: vec![NONE; num_vars],
            trail: Vec::with_capacity(num_vars),
            head: 0,
            inconsistent: false,
            key: Vec::new(),
        }
    }

    fn value(&self, lit: Lit) -> i8 {
        self.values[lit.index()]
    }

    fn assign(&mut self, lit: Lit, reason: u32) {
        self.values[lit.index()] = TRUE;
        self.values[(!lit).index()] = FALSE;
        self.reasons[lit.var().index()] = reason;
        self.trail.push(lit);
    }

    fn lits(&self, id: u32) -> &[Lit] {
        let meta = self.clauses[id as usize];
        let start = meta.start as usize;
        &self.arena[start..start + meta.len as usize]
    }

    /// Loads `clause` into `key`, sorted and deduplicated; `false` if it is
    /// a tautology.
    fn normalize(&mut self, clause: &[Lit]) -> bool {
        self.key.clear();
        self.key.extend_from_slice(clause);
        self.key.sort_unstable();
        self.key.dedup();
        // `l` and `!l` differ only in the low bit, so they sort adjacent.
        !self.key.windows(2).any(|w| w[0].var() == w[1].var())
    }

    /// The hash bucket of `key`: an FNV-1a-style hash of its literals.
    fn bucket(&self) -> usize {
        let hash = self.key.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, l| {
            (h ^ l.index() as u64).wrapping_mul(0x0100_0000_01b3)
        });
        hash as usize & (self.buckets.len() - 1)
    }

    /// Stores `clause` and propagates what it implies at the top level.
    /// Tautologies are not stored: they are never unit and never false.
    fn add(&mut self, clause: &[Lit]) {
        if self.inconsistent || !self.normalize(clause) {
            return;
        }
        let id = u32::try_from(self.clauses.len()).expect("too many clauses to check");
        let (start, len) = (self.arena.len(), self.key.len());
        let end = u32::try_from(start + len).expect("proof too large to check");
        let bucket = self.bucket();
        self.clauses.push(ClauseMeta {
            start: start as u32,
            len: end - start as u32,
            next: self.buckets[bucket],
            deleted: false,
        });
        self.buckets[bucket] = id;
        self.arena.extend_from_slice(&self.key);

        if len == 0 {
            self.inconsistent = true;
            return;
        }
        if len == 1 {
            match self.value(self.arena[start]) {
                TRUE => {}
                FALSE => self.inconsistent = true,
                _ => self.imply(self.arena[start], id),
            }
            return;
        }
        // Watch two literals that are not false, where there are two. A
        // clause left watching a false literal is then true or unit.
        for w in start..start + 2 {
            if let Some(k) = (w..start + len).find(|&k| self.value(self.arena[k]) != FALSE) {
                self.arena.swap(w, k);
            }
        }
        let (a, b) = (self.arena[start], self.arena[start + 1]);
        self.watches[a.index()].push(Watch {
            clause: id,
            blocker: b,
        });
        self.watches[b.index()].push(Watch {
            clause: id,
            blocker: a,
        });
        match (self.value(a), self.value(b)) {
            (FALSE, _) => self.inconsistent = true,
            (UNASSIGNED, FALSE) => self.imply(a, id),
            _ => {}
        }
    }

    /// Assigns `lit` at the top level and propagates it.
    fn imply(&mut self, lit: Lit, reason: u32) {
        self.assign(lit, reason);
        if self.propagate() {
            self.inconsistent = true;
        }
    }

    /// Deletes one live copy of `clause`, unless the live clauses are
    /// inconsistent or every live copy is the reason for a top-level literal
    /// (see [`check_refutation`]). Returns `false` when it ignores the
    /// deletion for one of those two reasons. Deleting a clause that is not
    /// live does nothing.
    fn delete(&mut self, clause: &[Lit]) -> bool {
        if self.inconsistent {
            return false;
        }
        if !self.normalize(clause) {
            return true;
        }
        let bucket = self.bucket();
        let (mut prev, mut ignored) = (NONE, false);
        let mut id = self.buckets[bucket];
        while id != NONE {
            let next = self.clauses[id as usize].next;
            if self.is_key(id) {
                if !self.is_reason(id) {
                    match prev {
                        NONE => self.buckets[bucket] = next,
                        _ => self.clauses[prev as usize].next = next,
                    }
                    self.clauses[id as usize].deleted = true;
                    return true;
                }
                ignored = true;
            }
            prev = id;
            id = next;
        }
        !ignored
    }

    /// Whether clause `id` has exactly the literals of `key`.
    fn is_key(&self, id: u32) -> bool {
        let lits = self.lits(id);
        lits.len() == self.key.len() && lits.iter().all(|l| self.key.binary_search(l).is_ok())
    }

    fn is_reason(&self, id: u32) -> bool {
        self.lits(id)
            .iter()
            .any(|&l| self.value(l) == TRUE && self.reasons[l.var().index()] == id)
    }

    /// Whether assigning the negation of `lemma` on top of the top-level
    /// assignment propagates to a conflict. Undoes what it assigned.
    fn is_rup(&mut self, lemma: &[Lit]) -> bool {
        if self.inconsistent {
            return true;
        }
        let top = self.trail.len();
        let mut conflict = false;
        for &lit in lemma {
            match self.value(lit) {
                TRUE => {
                    conflict = true;
                    break;
                }
                FALSE => {}
                _ => self.assign(!lit, NONE),
            }
        }
        let conflict = conflict || self.propagate();
        let Checker { trail, values, .. } = self;
        for lit in trail.drain(top..) {
            values[lit.index()] = UNASSIGNED;
            values[(!lit).index()] = UNASSIGNED;
        }
        self.head = top;
        conflict
    }

    /// Unit-propagates `trail[head..]`; `true` on a conflict.
    fn propagate(&mut self) -> bool {
        while self.head < self.trail.len() {
            let falsified = !self.trail[self.head];
            self.head += 1;
            let mut watches = std::mem::take(&mut self.watches[falsified.index()]);
            let (mut i, mut kept) = (0, 0);
            let mut conflict = false;
            while i < watches.len() {
                let Watch { clause, blocker } = watches[i];
                i += 1;
                if self.value(blocker) == TRUE {
                    watches[kept] = watches[i - 1];
                    kept += 1;
                    continue;
                }
                let meta = self.clauses[clause as usize];
                if meta.deleted {
                    continue;
                }
                let start = meta.start as usize;
                let end = start + meta.len as usize;
                if self.arena[start] == falsified {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                let watch = Watch {
                    clause,
                    blocker: first,
                };
                if self.value(first) == TRUE {
                    watches[kept] = watch;
                    kept += 1;
                    continue;
                }
                if let Some(k) = (start + 2..end).find(|&k| self.value(self.arena[k]) != FALSE) {
                    self.arena.swap(start + 1, k);
                    self.watches[self.arena[start + 1].index()].push(watch);
                    continue;
                }
                watches[kept] = watch;
                kept += 1;
                if self.value(first) == FALSE {
                    conflict = true;
                    break;
                }
                self.assign(first, clause);
            }
            let rest = watches.len() - i;
            watches.copy_within(i.., kept);
            watches.truncate(kept + rest);
            self.watches[falsified.index()] = watches;
            if conflict {
                return true;
            }
        }
        false
    }
}

/// The fixpoint-scan checker that [`check_refutation`] replaced, kept as a
/// test oracle: it honours every deletion and recomputes propagation from
/// scratch for each lemma, so it shares no state or shortcut with the
/// watched-literal checker.
#[cfg(test)]
mod reference {
    use super::{Proof, ProofStep};
    use crate::lit::Lit;
    use std::collections::HashMap;

    pub fn check_refutation(original: &[Vec<Lit>], proof: &Proof) -> bool {
        let mut db: Vec<Vec<Lit>> = original.iter().map(|c| normalize(c)).collect();
        for step in proof.steps() {
            match step {
                ProofStep::Add(clause) => {
                    if !rup(&db, clause) {
                        return false;
                    }
                    if clause.is_empty() {
                        return true;
                    }
                    db.push(normalize(clause));
                }
                ProofStep::Delete(clause) => delete(&mut db, clause),
            }
        }
        false
    }

    /// The clauses live after `steps`, applied to `original` without
    /// checking them.
    pub fn live(original: &[Vec<Lit>], steps: &[ProofStep]) -> Vec<Vec<Lit>> {
        let mut db: Vec<Vec<Lit>> = original.iter().map(|c| normalize(c)).collect();
        for step in steps {
            match step {
                ProofStep::Add(clause) => db.push(normalize(clause)),
                ProofStep::Delete(clause) => delete(&mut db, clause),
            }
        }
        db
    }

    fn delete(db: &mut Vec<Vec<Lit>>, clause: &[Lit]) {
        let key = normalize(clause);
        if let Some(pos) = db.iter().position(|c| *c == key) {
            db.swap_remove(pos);
        }
    }

    fn normalize(clause: &[Lit]) -> Vec<Lit> {
        let mut c = clause.to_vec();
        c.sort_unstable();
        c.dedup();
        c
    }

    /// Reverse unit propagation: asserting the negation of `clause` and
    /// unit propagating over `db` must yield a conflict.
    pub fn rup(db: &[Vec<Lit>], clause: &[Lit]) -> bool {
        let mut assigned: HashMap<Lit, bool> = HashMap::new();
        let set_true = |l: Lit, assigned: &mut HashMap<Lit, bool>| -> bool {
            if assigned.get(&!l).copied().unwrap_or(false) {
                return false; // conflict
            }
            assigned.insert(l, true);
            true
        };
        for &l in clause {
            if !set_true(!l, &mut assigned) {
                return true; // the negation is itself contradictory
            }
        }
        loop {
            let mut changed = false;
            for c in db {
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                let mut unit = true;
                for &l in c {
                    if assigned.get(&l).copied().unwrap_or(false) {
                        satisfied = true;
                        break;
                    }
                    if !assigned.get(&!l).copied().unwrap_or(false) {
                        if unassigned.is_some() {
                            unit = false;
                            break;
                        }
                        unassigned = Some(l);
                    }
                }
                if satisfied || !unit {
                    continue;
                }
                match unassigned {
                    None => return true, // conflict: all literals false
                    Some(l) => {
                        if !set_true(l, &mut assigned) {
                            return true;
                        }
                        changed = true;
                    }
                }
            }
            if !changed {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::{Config, SolveResult, Solver};
    use sufsat_prng::Prng;

    fn l(x: i32) -> Lit {
        Lit::new(Var::from_index(x.unsigned_abs() as usize - 1), x > 0)
    }

    fn cl(xs: &[i32]) -> Vec<Lit> {
        xs.iter().map(|&x| l(x)).collect()
    }

    fn proof(steps: &[(bool, &[i32])]) -> Proof {
        let steps = steps
            .iter()
            .map(|&(add, c)| match add {
                true => ProofStep::Add(cl(c)),
                false => ProofStep::Delete(cl(c)),
            })
            .collect();
        Proof { steps }
    }

    /// Both checkers' verdicts on `proof`.
    fn verdicts(original: &[Vec<Lit>], proof: &Proof) -> (bool, bool) {
        (
            check_refutation(original, proof),
            reference::check_refutation(original, proof),
        )
    }

    /// [`check_refutation`]'s verdict on `proof`, and `proof` without the
    /// deletions the checker ignored before reaching it.
    fn check_noting_ignored(original: &[Vec<Lit>], proof: &Proof) -> (bool, Proof) {
        let mut checker = Checker::new(original, proof.steps());
        for clause in original {
            checker.add(clause);
        }
        let mut verdict = None;
        let mut honoured = Vec::new();
        for step in proof.steps() {
            if verdict.is_none() {
                match step {
                    ProofStep::Add(lemma) if !checker.is_rup(lemma) => verdict = Some(false),
                    ProofStep::Add(lemma) if lemma.is_empty() => verdict = Some(true),
                    ProofStep::Add(lemma) => checker.add(lemma),
                    ProofStep::Delete(clause) => {
                        if !checker.delete(clause) {
                            continue;
                        }
                    }
                }
            }
            honoured.push(step.clone());
        }
        (verdict == Some(true), Proof { steps: honoured })
    }

    #[test]
    fn rup_detects_resolvents() {
        // (1 2), (-1 2) |= (2) by RUP.
        let db = vec![cl(&[1, 2]), cl(&[-1, 2])];
        let mut checker = Checker::new(&db, &[]);
        for c in &db {
            checker.add(c);
        }
        assert!(checker.is_rup(&cl(&[2])));
        assert!(!checker.is_rup(&cl(&[1])), "(1) is not implied");
        assert!(
            checker.is_rup(&cl(&[1, -1])),
            "a tautology is trivially RUP"
        );
        assert!(
            checker.trail.is_empty(),
            "a RUP check undoes its assignments"
        );
    }

    #[test]
    fn hand_built_refutation_checks() {
        // x1, -x1: the empty clause is directly RUP.
        let original = vec![cl(&[1]), cl(&[-1])];
        let mut proof = Proof::new();
        proof.add(&[]);
        assert!(check_refutation(&original, &proof));
    }

    #[test]
    fn missing_empty_clause_fails() {
        let original = vec![cl(&[1]), cl(&[-1])];
        let proof = Proof::new();
        assert!(!check_refutation(&original, &proof));
    }

    #[test]
    fn bogus_addition_fails() {
        let original = vec![cl(&[1, 2])];
        let mut proof = Proof::new();
        proof.add(&cl(&[-1])); // not RUP from (1 2)
        proof.add(&[]);
        assert!(!check_refutation(&original, &proof));
    }

    #[test]
    fn drat_text_round_trip_shape() {
        let mut proof = Proof::new();
        proof.add(&cl(&[1, -2]));
        proof.delete(&cl(&[1, -2]));
        proof.add(&[]);
        let mut out = Vec::new();
        proof.write_drat(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "1 -2 0\nd 1 -2 0\n0\n");
        assert!(proof.is_refutation());
    }

    /// Under 1 and 2, the last four clauses refute 3 and 4 only by case
    /// split, not by propagation.
    fn needs_a_case_split() -> Vec<Vec<Lit>> {
        [
            [1].as_slice(),
            &[-1, 2],
            &[-2, 3, 4],
            &[-2, 3, -4],
            &[-2, -3, 4],
            &[-2, -3, -4],
        ]
        .iter()
        .map(|c| cl(c))
        .collect()
    }

    #[test]
    fn deleting_the_reason_of_a_top_level_literal_is_ignored() {
        let original = needs_a_case_split();
        // (-1 2) implies 2 at the top level. Its deletion is ignored, so 2
        // stays assigned and (3) is still RUP; the fixpoint reference
        // honours the deletion and rejects (3).
        let reason_deleted = proof(&[(false, &[2, -1]), (true, &[3]), (true, &[])]);
        assert_eq!(verdicts(&original, &reason_deleted), (true, false));
        // A clause that implies nothing at the top level is deleted.
        let needed_deleted = proof(&[(false, &[4, 3, -2]), (true, &[3]), (true, &[])]);
        assert_eq!(verdicts(&original, &needed_deleted), (false, false));
        let full = proof(&[(true, &[3]), (true, &[])]);
        assert_eq!(verdicts(&original, &full), (true, true));
    }

    #[test]
    fn inputs_inconsistent_under_propagation_need_only_the_empty_clause() {
        let original = vec![cl(&[1]), cl(&[-1, 2]), cl(&[-2, -1])];
        assert_eq!(verdicts(&original, &proof(&[(true, &[])])), (true, true));
        assert_eq!(verdicts(&original, &Proof::new()), (false, false));
        // The solver refutes such inputs while loading them.
        let mut s = Solver::new();
        s.enable_proof();
        s.reserve_vars(2);
        for c in &original {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.check_proof(), Some(true));
    }

    #[test]
    fn one_copy_of_a_duplicated_clause_survives_its_deletion() {
        let original: Vec<Vec<Lit>> = [[1, 2], [1, 2], [-1, 2], [1, -2], [-1, -2]]
            .iter()
            .map(|c| cl(c))
            .collect();
        // Deletions match regardless of literal order.
        let once = proof(&[(false, &[2, 1]), (true, &[1]), (true, &[])]);
        assert_eq!(verdicts(&original, &once), (true, true));
        let twice = proof(&[
            (false, &[2, 1]),
            (false, &[1, 2, 1]),
            (true, &[1]),
            (true, &[]),
        ]);
        assert_eq!(verdicts(&original, &twice), (false, false));
    }

    #[test]
    fn tautological_inputs_and_lemmas_are_harmless() {
        let original: Vec<Vec<Lit>> = [
            [1, -1].as_slice(),
            &[2, -2, 1],
            &[1, 2],
            &[-1, 2],
            &[1, -2],
            &[-1, -2],
        ]
        .iter()
        .map(|c| cl(c))
        .collect();
        let steps = proof(&[
            (false, &[-1, 1]),
            (true, &[3, -3]),
            (true, &[2]),
            (true, &[]),
        ]);
        assert_eq!(verdicts(&original, &steps), (true, true));
        let mut s = Solver::new();
        s.enable_proof();
        s.reserve_vars(2);
        for c in &original {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.check_proof(), Some(true));
    }

    /// A random 3-CNF over `num_vars` variables, past the satisfiability
    /// threshold so that most instances are refutable, but only by search.
    fn random_cnf(rng: &mut Prng, num_vars: usize) -> Vec<Vec<Lit>> {
        (0..num_vars * 5)
            .map(|_| {
                let mut vars: Vec<usize> = Vec::new();
                while vars.len() < 3 {
                    let v = rng.random_range(0..num_vars);
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars.into_iter()
                    .map(|v| Lit::new(Var::from_index(v), rng.random_bool(0.5)))
                    .collect()
            })
            .collect()
    }

    /// The five mutations of `proof` the differential test compares on,
    /// each labelled.
    fn mutations(
        rng: &mut Prng,
        original: &[Vec<Lit>],
        proof: &Proof,
    ) -> Vec<(&'static str, Proof)> {
        let steps = proof.steps();
        let lemmas: Vec<usize> = (0..steps.len())
            .filter(|&i| matches!(&steps[i], ProofStep::Add(c) if !c.is_empty()))
            .collect();
        let with = |f: &dyn Fn(&mut Vec<ProofStep>)| {
            let mut steps = steps.to_vec();
            f(&mut steps);
            Proof { steps }
        };
        let mut out = Vec::new();
        if !lemmas.is_empty() {
            let at = lemmas[rng.random_range(0..lemmas.len())];
            let ProofStep::Add(lemma) = &steps[at] else {
                unreachable!()
            };
            let k = rng.random_range(0..lemma.len());
            out.push((
                "flip a lemma literal",
                with(&|s| {
                    if let ProofStep::Add(c) = &mut s[at] {
                        c[k] = !c[k];
                    }
                }),
            ));
            let at = lemmas[rng.random_range(0..lemmas.len())];
            out.push((
                "drop a lemma",
                with(&|s| {
                    s.remove(at);
                }),
            ));
        }
        out.push((
            "drop the empty clause",
            with(&|s| {
                s.retain(|step| !matches!(step, ProofStep::Add(c) if c.is_empty()));
            }),
        ));
        // A lemma over the inputs' variables that is not RUP where it goes.
        let num_vars = original
            .iter()
            .flatten()
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(1);
        for _ in 0..8 {
            let at = rng.random_range(0..steps.len() + 1);
            let lemma: Vec<Lit> = (0..rng.random_range(1usize..3))
                .map(|_| {
                    Lit::new(
                        Var::from_index(rng.random_range(0..num_vars)),
                        rng.random_bool(0.5),
                    )
                })
                .collect();
            if !reference::rup(&reference::live(original, &steps[..at]), &lemma) {
                out.push((
                    "insert a non-RUP lemma",
                    with(&|s| s.insert(at, ProofStep::Add(lemma.clone()))),
                ));
                break;
            }
        }
        // Delete, before the first step, an input clause that some lemma
        // needs. Only clauses none of whose literals the inputs imply by
        // propagation are candidates: such a clause is no literal's reason.
        let inputs = reference::live(original, &[]);
        for _ in 0..8 {
            let clause = &original[rng.random_range(0..original.len())];
            if clause.iter().any(|&l| reference::rup(&inputs, &[l])) {
                continue;
            }
            let mutant = with(&|s| s.insert(0, ProofStep::Delete(clause.clone())));
            if !reference::check_refutation(original, &mutant) {
                out.push(("delete a needed input clause", mutant));
                break;
            }
        }
        out
    }

    #[test]
    fn agrees_with_the_fixpoint_reference_on_solver_proofs_and_their_mutations() {
        let mut rng = Prng::seed_from_u64(0x5a7_d7a7);
        let mut refutations = 0;
        // Per mutation: accepted and rejected mutants.
        let mut mutants: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
        for case in 0..160 {
            let num_vars = rng.random_range(12usize..24);
            let original = random_cnf(&mut rng, num_vars);
            // A small learnt-clause budget makes the solver delete clauses
            // mid-proof; preprocessing on every other case adds strengthened
            // and subsumed-clause deletions.
            let mut s = Solver::with_config(Config {
                first_reduce: 4,
                reduce_increment: 4,
                ..Config::default()
            });
            s.enable_proof();
            s.reserve_vars(num_vars);
            for c in &original {
                s.add_clause(c.iter().copied());
            }
            if case % 2 == 1 {
                s.preprocess();
            }
            if s.solve() != SolveResult::Unsat {
                continue;
            }
            let proof = s.proof().expect("logging enabled").clone();
            assert_eq!(verdicts(&original, &proof), (true, true), "case {case}");
            refutations += 1;
            for (kind, mutant) in mutations(&mut rng, &original, &proof) {
                // Where the checker ignored a deletion (the rule documented
                // at `check_refutation`), the reference replays the proof
                // without it; elsewhere both see the same proof.
                let (new, honoured) = check_noting_ignored(&original, &mutant);
                assert_eq!(new, check_refutation(&original, &mutant));
                let old = reference::check_refutation(&original, &honoured);
                assert_eq!(new, old, "case {case}, {kind}: {:?}", mutant.steps());
                let counts = mutants.entry(kind).or_default();
                counts.0 += usize::from(new);
                counts.1 += usize::from(!new);
            }
        }
        assert!(refutations >= 50, "only {refutations} refutations");
        assert_eq!(mutants.len(), 5, "{mutants:?}");
        let (accepted, rejected) = mutants.values().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        assert!(accepted >= 20 && rejected >= 100, "{mutants:?}");
    }
}
