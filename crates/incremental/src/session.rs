//! The persistent solving session.
//!
//! A session decides *satisfiability of the asserted conjunction*, which
//! is the refutation dual of [`sufsat_core::decide`]'s validity question:
//! `check()` on assertions `A₁ … Aₙ` answers exactly like
//! `decide(¬(A₁ ∧ … ∧ Aₙ))` — [`Outcome::Valid`] means the conjunction is
//! unsatisfiable (its negation is valid), [`Outcome::Invalid`] carries an
//! assignment satisfying every live assertion. Keeping `decide`'s outcome
//! surface means every existing consumer (daemon, fuzz oracle, BMC) can
//! compare the two paths verbatim.
//!
//! Scoping is implemented with activation literals: each live assertion's
//! encoded top literal is guarded by one fresh solver variable asserted
//! only as a `solve_with_assumptions` assumption. [`Session::pop`] retires
//! the scope's activation literals with level-0 units; the solver drops
//! the clauses those units satisfy in its amortized top-level clean-up,
//! while every learnt clause (which can only resolve on *unguarded*
//! consequences plus `¬act` literals, all still valid) survives for later
//! checks.
//!
//! The session keeps one solver for its whole life. When the live
//! conjunction no longer fits the encoder's commitments, the check
//! re-encodes in place: it retires every live activation literal with a
//! unit, resets the encoder's commitments and per-term encodings, and
//! guards each live assertion afresh, keeping the solver, its learnt
//! clauses, the CNF loader and the shared circuit (see
//! [`IncrementalEncoder::reset_commitments`]).
//!
//! What a check costs follows its live assertions, not the session's
//! history: transitivity and decode metadata cover only the live cone,
//! [`Session::pop`] scans no clauses, the unsat core is the solver's raw
//! failed-assumption set (minimized only on request, by
//! [`Session::minimize_core`]), and no polarity pass runs over the
//! original assertions — [`DecideStats::p_fun_fraction`] is `NaN` on
//! session checks.

use std::collections::HashMap;
use std::time::Instant;

use sufsat_core::{
    decide, interpretation_from_instances, Certificate, DecideOptions, DecideStats, Outcome,
    StopReason,
};
use sufsat_encode::{
    try_decode_model_parts, EncodeOptions, IncrementalEncoder, IncrementalLoader, ReencodeReason,
};
use sufsat_sat::{minimize_assumptions, Interrupt, Lit, SolveResult, Solver};
use sufsat_seplog::{SepAnalysis, SepAssignment};
use sufsat_suf::{analyze_polarity, eval, IncrementalElim, Sort, Term, TermId, TermManager, Value};

/// Stable handle of one [`Session::assert`] call, usable to interpret the
/// unsat cores returned by [`Session::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AssertionId(usize);

impl AssertionId {
    /// The assertion's position in the session-global assert order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One live assertion of the stack.
#[derive(Debug)]
struct Assertion {
    id: AssertionId,
    original: TermId,
    eliminated: TermId,
    /// Activation literal guarding the encoded assertion; `None` until a
    /// check guards it, and again after a re-encode retires it.
    act: Option<Lit>,
}

/// Session-lifetime counters, cumulative across checks. The solver
/// counters come from the session's one solver.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SessionStats {
    /// `check()` calls answered.
    pub checks: u64,
    /// In-place re-encodes taken (commitments reset, live assertions
    /// guarded afresh).
    pub reencodes: u64,
    /// Assertions whose encoding and activation literal were reused from
    /// an earlier check.
    pub reused_roots: u64,
    /// Assertions encoded and guarded fresh at some check.
    pub fresh_roots: u64,
    /// `pop()` calls.
    pub pops: u64,
    /// Assertions retired by pops (activation literal permanently
    /// disabled).
    pub retired_assertions: u64,
    /// Conflicts across the session.
    pub conflicts: u64,
    /// Decisions across the session.
    pub decisions: u64,
    /// Propagations across the session.
    pub propagations: u64,
    /// Extra solves spent in [`Session::minimize_core`].
    pub core_solves: u64,
}

/// The answer of one [`Session::check`] call.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The verdict, with [`sufsat_core::decide`]'s meaning for the
    /// *negated* conjunction: `Valid` ⇔ the asserted conjunction is
    /// unsatisfiable; `Invalid` carries an assignment satisfying every
    /// live assertion.
    pub outcome: Outcome,
    /// Per-check measurements in [`DecideStats`] shape. Solver counters
    /// (`conflict_clauses`, `decisions`, `propagations`, `sat_time`) are
    /// this check's deltas; `cnf_clauses` counts every clause the
    /// session's solver has loaded since the session began; structural
    /// fields describe the live conjunction, `trans_clauses` included
    /// (the transitivity clauses generated for the live cone, whether
    /// this check or an earlier one loaded them). `p_fun_fraction` is `NaN`
    /// (`null` in [`DecideStats::to_json`]): a session analyzes only the
    /// eliminated live conjunction, never the original one.
    pub stats: DecideStats,
    /// Machine-checked evidence, present when
    /// [`DecideOptions::certify`] was set and the check produced a
    /// definitive answer. Unsat answers are certified by a one-shot
    /// certified replay of the core, so the evidence is independent of
    /// the incremental machinery.
    pub certificate: Option<Certificate>,
    /// For unsat answers: a sufficient subset of the live assertions, the
    /// solver's failed assumptions mapped back to assertions. Not
    /// minimized; [`Session::minimize_core`] shrinks it on request.
    pub unsat_core: Option<Vec<AssertionId>>,
    /// Whether this check had to re-encode the live assertions, and why.
    pub reencoded: Option<ReencodeReason>,
}

/// A persistent incremental solving session (see the crate docs).
#[derive(Debug)]
pub struct Session {
    tm: TermManager,
    options: DecideOptions,
    elim: IncrementalElim,
    solver: Solver,
    loader: IncrementalLoader,
    enc: IncrementalEncoder,
    assertions: Vec<Assertion>,
    /// Stack of `assertions.len()` marks, one per open `push`.
    frames: Vec<usize>,
    next_id: usize,
    /// `original_clauses` count after the last `preprocess()` run, so
    /// unchanged clause sets skip re-preprocessing.
    preprocessed_at: Option<u64>,
    stats: SessionStats,
}

impl Default for Session {
    fn default() -> Session {
        Session::new(DecideOptions::default())
    }
}

impl Session {
    /// A fresh session with its own term manager.
    pub fn new(options: DecideOptions) -> Session {
        Session::with_term_manager(TermManager::new(), options)
    }

    /// A fresh session taking ownership of an existing term manager (terms
    /// built in it beforehand stay assertable).
    pub fn with_term_manager(tm: TermManager, options: DecideOptions) -> Session {
        Session {
            tm,
            loader: IncrementalLoader::new(options.cnf),
            options,
            elim: IncrementalElim::new(),
            solver: Solver::new(),
            enc: IncrementalEncoder::new(),
            assertions: Vec::new(),
            frames: Vec::new(),
            next_id: 0,
            preprocessed_at: None,
            stats: SessionStats::default(),
        }
    }

    /// Releases the term manager (terms survive the session).
    pub fn into_term_manager(self) -> TermManager {
        self.tm
    }

    /// The session's term manager.
    pub fn term_manager(&self) -> &TermManager {
        &self.tm
    }

    /// Mutable access to the term manager, for building formulas to
    /// assert. Creating terms never disturbs session state.
    pub fn term_manager_mut(&mut self) -> &mut TermManager {
        &mut self.tm
    }

    /// Session-lifetime counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Sets (or clears) the wall-clock budget applied to each subsequent
    /// [`check`](Session::check). Lets a long-lived session vary the
    /// deadline per query instead of fixing it at construction.
    pub fn set_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.options.timeout = timeout;
    }

    /// Sets (or clears) the cancellation token polled by subsequent
    /// [`check`](Session::check) calls, so an external party (e.g. a
    /// server noticing a client disconnect) can abort a running solve.
    pub fn set_cancel_token(&mut self, cancel: Option<sufsat_sat::CancelToken>) {
        self.options.cancel = cancel;
    }

    /// Sets (or clears) the progress heartbeat handle installed into the
    /// solver by subsequent [`check`](Session::check) calls, so an
    /// external thread can watch a long search live (see
    /// [`sufsat_sat::ProgressHandle`]).
    pub fn set_progress_handle(&mut self, progress: Option<sufsat_sat::ProgressHandle>) {
        self.options.progress = progress;
    }

    /// Number of open scopes.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of live assertions across all scopes.
    pub fn num_assertions(&self) -> usize {
        self.assertions.len()
    }

    /// Opens a scope: assertions made until the matching [`Session::pop`]
    /// are retracted by it.
    pub fn push(&mut self) {
        self.frames.push(self.assertions.len());
    }

    /// Closes the innermost scope, retracting its assertions. Their
    /// activation literals are retired with level-0 units; no clause is
    /// scanned here — the solver's amortized top-level clean-up drops the
    /// clauses the units satisfy — and learnt clauses survive.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let mark = self.frames.pop().expect("pop without a matching push");
        let mut retired = 0usize;
        for assertion in self.assertions.drain(mark..) {
            if let Some(act) = assertion.act {
                self.solver.add_clause([!act]);
                retired += 1;
            }
        }
        self.stats.pops += 1;
        self.stats.retired_assertions += retired as u64;
        sufsat_obs::event!(
            "session.pop",
            retired = retired,
            live = self.assertions.len(),
            depth = self.frames.len(),
        );
    }

    /// Asserts a Boolean formula in the current scope. Uninterpreted
    /// applications are eliminated immediately against the session's
    /// persistent instance tables; encoding is deferred to the next
    /// [`Session::check`].
    ///
    /// # Panics
    ///
    /// Panics if `t` is not Boolean-sorted.
    pub fn assert(&mut self, t: TermId) -> AssertionId {
        assert_eq!(self.tm.sort(t), Sort::Bool, "assertions must be Boolean");
        let eliminated = self.elim.eliminate(&mut self.tm, t);
        let id = AssertionId(self.next_id);
        self.next_id += 1;
        self.assertions.push(Assertion {
            id,
            original: t,
            eliminated,
            act: None,
        });
        id
    }

    /// Re-encodes in place: retires every live activation literal with a
    /// unit and resets the encoder's commitments, so the check encodes
    /// and guards every live assertion afresh. The solver with its learnt
    /// clauses, the CNF loader, the circuit and the elimination tables
    /// stay (see the module docs).
    fn reencode(&mut self, reason: ReencodeReason) {
        for assertion in &mut self.assertions {
            if let Some(act) = assertion.act.take() {
                self.solver.add_clause([!act]);
            }
        }
        self.enc.reset_commitments();
        self.stats.reencodes += 1;
        sufsat_obs::event!(
            "session.reencode",
            reason = reencode_label(reason),
            reencodes = self.stats.reencodes,
            live = self.assertions.len(),
        );
    }

    /// Decides satisfiability of the live conjunction (see the module
    /// docs for the outcome mapping).
    ///
    /// # Panics
    ///
    /// Panics if a satisfying assignment fails replay against the live
    /// separation formulas (an internal soundness bug) and certification
    /// was not requested.
    pub fn check(&mut self) -> CheckResult {
        let translate_start = Instant::now();
        self.stats.checks += 1;
        let span = sufsat_obs::span_with!(
            "session.check",
            live = self.assertions.len(),
            depth = self.frames.len(),
            reencodes = self.stats.reencodes,
        );

        // The implicit validity query is ¬(A₁ ∧ … ∧ Aₙ); its eliminated,
        // application-free dual ¬(E₁ ∧ … ∧ Eₙ) is what gets analyzed and
        // encoded. The positive-equality classification is recomputed per
        // check on that dual: classifying the original query instead would
        // leave elimination-fresh constants from earlier checks
        // unclassified (they never occur in original terms), silently
        // carrying stale `V_p` memberships across polarity changes.
        let originals: Vec<TermId> = self.assertions.iter().map(|a| a.original).collect();
        let elim_roots: Vec<TermId> = self.assertions.iter().map(|a| a.eliminated).collect();
        let conj = self.tm.mk_and_many(&originals);
        let query = self.tm.mk_not(conj);
        let dag_size = self.tm.dag_size(query);
        let e_conj = self.tm.mk_and_many(&elim_roots);

        let mut stats = DecideStats::default();
        stats.dag_size = dag_size;
        stats.fresh_constants = self.elim.num_fresh_int() + self.elim.num_fresh_bool();
        stats.p_fun_fraction = f64::NAN;

        // The live conjunction can constant-fold to ⊥ outright (an
        // assertion pushed against its own negation): there is nothing to
        // encode, and the ground analysis below would not cover the
        // folded-away roots. Folding to ⊥ is the only `mk_and` rule that
        // drops a distinct subterm, so past this point every root is
        // covered by the analyzed dual.
        if e_conj == self.tm.mk_false() {
            stats.translate_time = translate_start.elapsed();
            let core: Vec<AssertionId> = self.assertions.iter().map(|a| a.id).collect();
            let certificate = if self.options.certify {
                Some(self.certify_unsat(&core))
            } else {
                None
            };
            if span.is_recording() {
                sufsat_obs::event!(
                    "session.check.done",
                    outcome = "valid",
                    live = self.assertions.len(),
                    folded = true,
                );
            }
            return CheckResult {
                outcome: Outcome::Valid,
                stats,
                certificate,
                unsat_core: Some(core),
                reencoded: None,
            };
        }

        let neg = self.tm.mk_not(e_conj);
        let polarity = analyze_polarity(&self.tm, neg);
        let analysis = SepAnalysis::new(&self.tm, neg, polarity.p_vars());
        stats.sep_predicates = analysis.total_sep_predicates();
        stats.classes = analysis.classes.len();
        stats.max_class_range = analysis.classes.iter().map(|c| c.range).max().unwrap_or(0);
        stats.total_class_range = analysis.classes.iter().map(|c| c.range).sum();

        // Sound fallback: live conjunction not hostable under the
        // committed encoding decisions → re-encode it in place.
        let mut reencoded = None;
        if let Err(reason) = self.enc.check_compatible(&analysis) {
            self.reencode(reason);
            reencoded = Some(reason);
        }

        let encode_options = EncodeOptions {
            mode: self.options.mode,
            cnf: self.options.cnf,
            trans_budget: self.options.trans_budget,
            deadline: self.options.timeout.map(|t| translate_start + t),
            cancel: self.options.cancel.clone(),
        };
        let delta = match self.enc.extend(&self.tm, &analysis, &elim_roots, &encode_options) {
            Ok(delta) => delta,
            Err(err) => {
                stats.translate_time = translate_start.elapsed();
                let reason = if err.cancelled {
                    StopReason::Cancelled
                } else if err.timed_out {
                    StopReason::Timeout
                } else {
                    StopReason::TranslationBudget
                };
                return CheckResult {
                    outcome: Outcome::Unknown(reason),
                    stats,
                    certificate: None,
                    unsat_core: None,
                    reencoded,
                };
            }
        };
        stats.sd_classes = delta.stats.sd_classes;
        stats.eij_classes = delta.stats.eij_classes;
        stats.pred_vars = delta.stats.pred_vars;
        // Generated for the live cone, whether handed out now or by an
        // earlier check: what a one-shot encode of the live conjunction
        // would generate under the same domains.
        stats.trans_clauses = delta.stats.new_trans + delta.stats.dedup_trans;

        // Transitivity clauses are universally valid: load them
        // permanently, unguarded, exactly once.
        self.loader
            .load(self.enc.circuit(), &[], &delta.new_trans, &mut self.solver);

        // Guard every live assertion not guarded yet.
        let mut acts: Vec<Lit> = Vec::with_capacity(self.assertions.len());
        let mut fresh_roots = 0usize;
        for (i, assertion) in self.assertions.iter_mut().enumerate() {
            let act = match assertion.act {
                Some(act) => {
                    self.stats.reused_roots += 1;
                    act
                }
                None => {
                    let act = self.solver.new_var().positive();
                    // Activation literals are assumed on every check and
                    // retired by a unit clause on pop or re-encode: they
                    // must survive preprocessing.
                    self.solver.set_frozen(act.var(), true);
                    self.loader
                        .load_guarded(self.enc.circuit(), act, delta.roots[i], &mut self.solver);
                    assertion.act = Some(act);
                    self.stats.fresh_roots += 1;
                    fresh_roots += 1;
                    act
                }
            };
            acts.push(act);
        }
        stats.cnf_clauses = self.solver.stats().original_clauses;

        // Preprocess only on the base frame: push/pop guards clauses with
        // activation literals whose eventual retirement would invalidate
        // elimination bookkeeping wholesale, so scoped sessions skip it.
        if self.options.preprocess && self.frames.is_empty() {
            // Re-running occurrence-list construction and subsumption over
            // an unchanged clause arena is pure overhead: only preprocess
            // when clauses were loaded since the last pass.
            let loaded = self.solver.stats().original_clauses;
            if self.preprocessed_at != Some(loaded) {
                self.solver.set_cancel_token(self.options.cancel.clone());
                let _ = self.solver.preprocess();
                self.preprocessed_at = Some(self.solver.stats().original_clauses);
            }
        }
        stats.translate_time = translate_start.elapsed();

        let before = self.solver.stats().clone();
        self.solver.set_conflict_budget(self.options.conflict_budget);
        self.solver.set_timeout(self.options.timeout);
        self.solver.set_cancel_token(self.options.cancel.clone());
        self.solver.set_progress_handle(self.options.progress.clone());
        let result = self.solver.solve_with_assumptions(&acts);
        let after = self.solver.stats().clone();
        stats.sat_time = after.solve_time - before.solve_time;
        stats.conflict_clauses = after.conflicts - before.conflicts;
        stats.decisions = after.decisions - before.decisions;
        stats.propagations = after.propagations - before.propagations;
        self.stats.conflicts = after.conflicts;
        self.stats.decisions = after.decisions;
        self.stats.propagations = after.propagations;

        let mut certificate = None;
        let mut unsat_core = None;
        let outcome = match result {
            SolveResult::Unsat => {
                let core = self.assertions_of(self.solver.failed_assumptions());
                if self.options.certify {
                    certificate = Some(self.certify_unsat(&core));
                }
                unsat_core = Some(core);
                Outcome::Valid
            }
            SolveResult::Sat => {
                match try_decode_model_parts(&delta.decode, self.loader.map(), &self.solver) {
                    Ok(cex) => self.confirm_model(cex, &originals, &elim_roots, &mut certificate),
                    Err(err) => {
                        if self.options.certify {
                            certificate = Some(Certificate::Counterexample {
                                decoded: false,
                                falsifies_separation: false,
                                falsifies_original: false,
                            });
                            Outcome::Invalid(SepAssignment::default())
                        } else {
                            panic!("{err}");
                        }
                    }
                }
            }
            SolveResult::Unknown(Interrupt::ConflictBudget) => {
                Outcome::Unknown(StopReason::ConflictBudget)
            }
            SolveResult::Unknown(Interrupt::Timeout) => Outcome::Unknown(StopReason::Timeout),
            SolveResult::Unknown(Interrupt::Cancelled) => Outcome::Unknown(StopReason::Cancelled),
        };
        // Budgets are per-check: clear them so core minimization and later
        // checks start fresh.
        self.solver.set_conflict_budget(None);
        self.solver.set_timeout(None);
        self.solver.set_cancel_token(None);

        if span.is_recording() {
            sufsat_obs::event!(
                "session.check.done",
                outcome = outcome_label(&outcome),
                live = self.assertions.len(),
                fresh_roots = fresh_roots,
                reused_roots = self.assertions.len() - fresh_roots,
                reencoded = reencoded.is_some(),
                new_trans = delta.stats.new_trans,
                dedup_trans = delta.stats.dedup_trans,
                conflicts = stats.conflict_clauses,
                core = unsat_core.as_ref().map_or(0, Vec::len),
            );
        }
        CheckResult {
            outcome,
            stats,
            certificate,
            unsat_core,
            reencoded,
        }
    }

    /// The live assertions whose activation literals are among `lits`, in
    /// id order.
    fn assertions_of(&self, lits: &[Lit]) -> Vec<AssertionId> {
        let by_act: HashMap<Lit, AssertionId> = self
            .assertions
            .iter()
            .filter_map(|a| Some((a.act?, a.id)))
            .collect();
        let mut ids: Vec<AssertionId> =
            lits.iter().filter_map(|l| by_act.get(l).copied()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Shrinks `core`, an unsat core of the last [`Session::check`], by
    /// deletion: re-solves without one assertion at a time and keeps only
    /// what the remaining conflict needs (`sat::minimize_assumptions`),
    /// spending at most `max_solves` extra solves. The result is a subset
    /// of `core` whose conjunction is still unsatisfiable, subset-minimal
    /// when the budget sufficed. A core of a check that answered without
    /// solving (the live conjunction folded to false) comes back
    /// unchanged. Call it before popping any of the core's assertions.
    ///
    /// # Panics
    ///
    /// Panics if an id of `core` is not a live assertion.
    pub fn minimize_core(&mut self, core: &[AssertionId], max_solves: u64) -> Vec<AssertionId> {
        let mut acts = Vec::with_capacity(core.len());
        for id in core {
            let assertion = self
                .assertions
                .iter()
                .find(|a| a.id == *id)
                .unwrap_or_else(|| panic!("{id:?} is not a live assertion"));
            match assertion.act {
                Some(act) => acts.push(act),
                None => return core.to_vec(),
            }
        }
        let (minimal, ms) = minimize_assumptions(&mut self.solver, &acts, max_solves);
        self.stats.core_solves += ms.solves;
        self.assertions_of(&minimal)
    }

    /// Certifies an unsat answer by a one-shot certified replay of the
    /// core: `decide(¬(core conjunction))` with proof logging. Evidence is
    /// thereby independent of the activation-literal machinery (and
    /// validates the extracted core as genuinely sufficient).
    fn certify_unsat(&mut self, core: &[AssertionId]) -> Certificate {
        let core_terms: Vec<TermId> = self
            .assertions
            .iter()
            .filter(|a| core.contains(&a.id))
            .map(|a| a.original)
            .collect();
        let core_conj = self.tm.mk_and_many(&core_terms);
        let replay_query = self.tm.mk_not(core_conj);
        let mut opts = self.options.clone();
        opts.certify = true;
        let replay = decide(&mut self.tm, replay_query, &opts);
        match replay.certificate {
            Some(cert) if replay.outcome.is_valid() => cert,
            // Replay disagreed or was inconclusive: report non-holding
            // evidence rather than panicking, so fuzzers can shrink it.
            _ => Certificate::Refutation {
                steps: 0,
                checked: false,
            },
        }
    }

    /// Replays a decoded model against the live assertions, mirroring
    /// `decide`'s soundness checks for the negated-conjunction query.
    fn confirm_model(
        &mut self,
        cex: SepAssignment,
        originals: &[TermId],
        elim_roots: &[TermId],
        certificate: &mut Option<Certificate>,
    ) -> Outcome {
        let satisfies_separation = elim_roots.iter().all(|&e| cex.evaluate(&self.tm, e));
        if self.options.certify {
            let interp = interpretation_from_instances(
                &self.tm,
                self.elim.fun_instances(),
                self.elim.pred_instances(),
                &cex,
            );
            let satisfies_original = originals
                .iter()
                .all(|&o| eval(&self.tm, o, &interp) == Value::Bool(true));
            // "Falsifies" speaks about the implicit query ¬conjunction:
            // satisfying every assertion falsifies its negation.
            *certificate = Some(Certificate::Counterexample {
                decoded: true,
                falsifies_separation: satisfies_separation,
                falsifies_original: satisfies_original,
            });
        } else {
            assert!(
                satisfies_separation,
                "internal soundness bug: decoded model does not satisfy every live \
                 separation formula: {cex:?}"
            );
            if cfg!(debug_assertions) {
                let interp = interpretation_from_instances(
                    &self.tm,
                    self.elim.fun_instances(),
                    self.elim.pred_instances(),
                    &cex,
                );
                assert!(
                    originals
                        .iter()
                        .all(|&o| eval(&self.tm, o, &interp) == Value::Bool(true)),
                    "internal soundness bug: decoded model does not satisfy every live \
                     original assertion: {cex:?}"
                );
            }
        }
        Outcome::Invalid(cex)
    }
}

/// Splits `t` into conjuncts by negation normal form at the Boolean top:
/// `a ∧ b` yields both sides, `¬(a ∨ b)` yields `¬a` and `¬b`, `¬(a ⇒ b)`
/// yields `a` and `¬b`, and double negations cancel. Everything else is a
/// single conjunct. Asserting the result set is equivalent to asserting
/// `t`; clients use this to feed one formula into a [`Session`] as
/// separately retractable (and separately core-attributable) assertions.
pub fn conjuncts_of(tm: &mut TermManager, t: TermId) -> Vec<TermId> {
    let mut out = Vec::new();
    let mut stack = vec![t];
    while let Some(cur) = stack.pop() {
        match tm.term(cur).clone() {
            Term::And(a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Term::Not(inner) => match tm.term(inner).clone() {
                Term::Or(a, b) => {
                    let (na, nb) = (tm.mk_not(a), tm.mk_not(b));
                    stack.push(nb);
                    stack.push(na);
                }
                Term::Implies(a, b) => {
                    let nb = tm.mk_not(b);
                    stack.push(nb);
                    stack.push(a);
                }
                Term::Not(x) => stack.push(x),
                _ => out.push(cur),
            },
            _ => out.push(cur),
        }
    }
    out
}

fn reencode_label(reason: ReencodeReason) -> &'static str {
    match reason {
        ReencodeReason::DomainMerge => "domain_merge",
        ReencodeReason::EqOnlyLost => "eq_only_lost",
        ReencodeReason::RangeOverflow => "range_overflow",
        ReencodeReason::PolarityFlip => "polarity_flip",
        ReencodeReason::OffsetOverflow => "offset_overflow",
        ReencodeReason::PLaneOverflow => "p_lane_overflow",
    }
}

fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Valid => "valid",
        Outcome::Invalid(_) => "invalid",
        Outcome::Unknown(StopReason::TranslationBudget) => "unknown:translation_budget",
        Outcome::Unknown(StopReason::ConflictBudget) => "unknown:conflict_budget",
        Outcome::Unknown(StopReason::Timeout) => "unknown:timeout",
        Outcome::Unknown(StopReason::Cancelled) => "unknown:cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_core::EncodingMode;

    fn modes() -> Vec<EncodingMode> {
        vec![
            EncodingMode::Sd,
            EncodingMode::Eij,
            EncodingMode::Hybrid(0),
            EncodingMode::Hybrid(700),
            EncodingMode::FixedHybrid,
        ]
    }

    /// The session's verdict on the conjunction must equal
    /// `decide(¬conjunction)` — the agreement the fuzz oracle enforces.
    fn agrees_with_decide(session: &mut Session, label: &str) {
        let originals: Vec<TermId> = session.assertions.iter().map(|a| a.original).collect();
        let conj = session.tm.mk_and_many(&originals);
        let query = session.tm.mk_not(conj);
        let reference = decide(&mut session.tm, query, &session.options.clone());
        let incremental = session.check();
        assert_eq!(
            incremental.outcome.is_valid(),
            reference.outcome.is_valid(),
            "{label}: session and decide disagree"
        );
        assert_eq!(
            matches!(incremental.outcome, Outcome::Invalid(_)),
            matches!(reference.outcome, Outcome::Invalid(_)),
            "{label}: session and decide disagree on satisfiability"
        );
    }

    #[test]
    fn empty_session_is_satisfiable() {
        let mut session = Session::default();
        assert!(matches!(session.check().outcome, Outcome::Invalid(_)));
    }

    #[test]
    fn push_pop_retracts_unsat_to_sat() {
        for mode in modes() {
            let mut session = Session::new(DecideOptions::with_mode(mode));
            let tm = session.term_manager_mut();
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let xy = tm.mk_lt(x, y);
            let yx = tm.mk_lt(y, x);
            session.assert(xy);
            assert!(
                matches!(session.check().outcome, Outcome::Invalid(_)),
                "{mode:?}"
            );
            session.push();
            session.assert(yx);
            let r = session.check();
            assert!(r.outcome.is_valid(), "{mode:?}");
            session.pop();
            assert!(
                matches!(session.check().outcome, Outcome::Invalid(_)),
                "{mode:?}: pop must retract the contradiction"
            );
        }
    }

    #[test]
    fn functional_consistency_across_assertions() {
        // f(x) ≠ f(y) in one frame, x = y in a later one: unsat only
        // because the elimination chains the instances across assertions.
        let mut session = Session::default();
        let tm = session.term_manager_mut();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let eq_f = tm.mk_eq(fx, fy);
        let neq_f = tm.mk_not(eq_f);
        let eq_xy = tm.mk_eq(x, y);
        session.assert(neq_f);
        assert!(matches!(session.check().outcome, Outcome::Invalid(_)));
        session.push();
        session.assert(eq_xy);
        assert!(session.check().outcome.is_valid());
        session.pop();
        assert!(matches!(session.check().outcome, Outcome::Invalid(_)));
    }

    #[test]
    fn unsat_core_names_the_contradiction() {
        let mut session = Session::default();
        let tm = session.term_manager_mut();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let xy = tm.mk_lt(x, y);
        let yx = tm.mk_lt(y, x);
        let zz = tm.mk_le(z, z);
        let a_irrelevant = session.assert(zz);
        let a_xy = session.assert(xy);
        let a_yx = session.assert(yx);
        let r = session.check();
        assert!(r.outcome.is_valid());
        let raw = r.unsat_core.expect("unsat answers carry a core");
        let core = session.minimize_core(&raw, 24);
        assert!(core.iter().all(|id| raw.contains(id)), "{core:?} ⊄ {raw:?}");
        assert!(core.contains(&a_xy) && core.contains(&a_yx), "{core:?}");
        assert!(!core.contains(&a_irrelevant), "minimized core: {core:?}");
    }

    #[test]
    fn certification_covers_both_directions() {
        let options = DecideOptions {
            certify: true,
            ..DecideOptions::default()
        };
        let mut session = Session::new(options);
        let tm = session.term_manager_mut();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let eq_xy = tm.mk_eq(x, y);
        let fneq = tm.mk_ne(fx, fy);
        session.assert(fneq);
        let sat = session.check();
        assert!(matches!(sat.outcome, Outcome::Invalid(_)));
        assert!(sat.certificate.expect("certify requested").holds());
        session.push();
        session.assert(eq_xy);
        let unsat = session.check();
        assert!(unsat.outcome.is_valid());
        assert!(unsat.certificate.expect("certify requested").holds());
    }

    #[test]
    fn repeated_checks_reuse_encodings() {
        let mut session = Session::default();
        let tm = session.term_manager_mut();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let xy = tm.mk_lt(x, y);
        let yz = tm.mk_lt(y, z);
        session.assert(xy);
        let first = session.check();
        assert!(matches!(first.outcome, Outcome::Invalid(_)));
        session.push();
        session.assert(yz);
        let second = session.check();
        assert!(matches!(second.outcome, Outcome::Invalid(_)));
        assert_eq!(session.stats().reencodes, 0, "no fallback needed");
        // Third check re-solves without any new roots.
        let third = session.check();
        assert!(matches!(third.outcome, Outcome::Invalid(_)));
        assert_eq!(session.stats().fresh_roots, 2);
        assert!(session.stats().reused_roots >= 2);
    }

    #[test]
    fn polarity_flip_falls_back_to_reencode_soundly() {
        // Asserting f(x) ≠ f(y) makes the equation *positive* in the
        // analyzed dual, so f's instances land in V_p on the first check;
        // the later inequality over f's instance flips the classification
        // and must force a re-encode, not a wrong answer.
        let mut session = Session::default();
        let tm = session.term_manager_mut();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let peq = tm.mk_eq(fx, fy);
        let pne = tm.mk_not(peq);
        session.assert(pne);
        assert!(matches!(session.check().outcome, Outcome::Invalid(_)));
        let tm = session.term_manager_mut();
        let flt = tm.mk_lt(fx, y);
        session.assert(flt);
        let r = session.check();
        assert!(matches!(r.outcome, Outcome::Invalid(_)));
        assert!(r.reencoded.is_some(), "polarity flip must trigger fallback");
        agrees_with_decide(&mut session, "after polarity flip");
    }

    #[test]
    fn mixed_interleavings_agree_with_decide() {
        for mode in modes() {
            let mut session = Session::new(DecideOptions::with_mode(mode));
            let tm = session.term_manager_mut();
            let p = tm.declare_pred("p", 1);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let z = tm.int_var("z");
            let px = tm.mk_papp(p, vec![x]);
            let py = tm.mk_papp(p, vec![y]);
            let eq_xy = tm.mk_eq(x, y);
            let not_iff = {
                let iff = tm.mk_iff(px, py);
                tm.mk_not(iff)
            };
            let yz = tm.mk_lt(y, z);
            session.assert(eq_xy);
            agrees_with_decide(&mut session, "eq only");
            session.push();
            session.assert(not_iff);
            agrees_with_decide(&mut session, "predicate inconsistency");
            session.pop();
            session.assert(yz);
            agrees_with_decide(&mut session, "after pop, new ordering");
        }
    }
}
