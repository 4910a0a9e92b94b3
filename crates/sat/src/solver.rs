//! The CDCL solver proper.

use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::clause::{ClauseDb, ClauseRef, Watcher, NO_REASON};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};
use crate::progress::{ProgressHandle, ProgressSnapshot};
use crate::proof::Proof;
use crate::stats::{luby, Stats};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::model_value`]
    /// or [`Solver::model`].
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// A resource budget (conflicts or wall clock) was exhausted first.
    Unknown(Interrupt),
}

/// Why a solve call stopped without an answer.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// The conflict budget set by [`Solver::set_conflict_budget`] ran out.
    ConflictBudget,
    /// The wall-clock timeout set by [`Solver::set_timeout`] elapsed.
    Timeout,
    /// Another thread raised the [`CancelToken`] installed with
    /// [`Solver::set_cancel_token`].
    Cancelled,
}

/// Tunable solver parameters. The defaults follow MiniSat/zChaff practice.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Multiplicative VSIDS activity decay per conflict.
    pub var_decay: f64,
    /// Multiplicative clause activity decay per conflict.
    pub clause_decay: f64,
    /// Base interval (in conflicts) scaled by the Luby sequence for restarts.
    pub restart_base: u64,
    /// Initial learnt-clause capacity before the first DB reduction.
    pub first_reduce: usize,
    /// Additional capacity granted after each reduction.
    pub reduce_increment: usize,
    /// Enable phase saving when picking decision polarity.
    pub phase_saving: bool,
    /// Enable restarts.
    pub restarts: bool,
    /// Enable learnt-clause DB reduction.
    pub reduce_db: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 100,
            first_reduce: 4000,
            reduce_increment: 1000,
            phase_saving: true,
            restarts: true,
            reduce_db: true,
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// Implements the techniques of the Chaff/MiniSat lineage that the paper's
/// experiments relied on (zChaff 2001.2.17): two-watched-literal propagation,
/// VSIDS decisions with phase saving, first-UIP learning with clause
/// minimization, Luby restarts and activity/LBD-based clause-database
/// reduction.
///
/// # Examples
///
/// ```
/// use sufsat_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause([a.positive(), b.positive()]);
/// solver.add_clause([a.negative()]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.model_value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    config: Config,
    pub(crate) db: ClauseDb,
    pub(crate) watches: Vec<Vec<Watcher>>,
    pub(crate) assigns: Vec<LBool>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<ClauseRef>,
    pub(crate) trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    heap: VarHeap,
    var_inc: f64,
    clause_inc: f64,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch for recursive minimization.
    analyze_stack: Vec<Lit>,
    analyze_clear: Vec<Var>,
    /// False once the clause set is known unsatisfiable at level 0.
    pub(crate) ok: bool,
    pub(crate) model: Vec<bool>,
    /// Variables protected from preprocessing elimination.
    pub(crate) frozen: Vec<bool>,
    /// Variables eliminated by preprocessing (no live clause mentions them).
    pub(crate) eliminated: Vec<bool>,
    /// Clauses removed by variable elimination, in elimination order; used
    /// for model reconstruction and for restoring a variable when later
    /// clauses or assumptions mention it again.
    pub(crate) elim_records: Vec<crate::preprocess::ElimRecord>,
    /// Assumptions of the current `solve_with_assumptions` call.
    assumptions: Vec<Lit>,
    /// Failed-assumption subset from the last assumption-UNSAT answer.
    conflict_assumptions: Vec<Lit>,
    proof: Option<Proof>,
    /// Verbatim input clauses, recorded while proof logging is enabled so
    /// UNSAT answers can be replayed through the RUP checker without the
    /// caller tracking clauses itself.
    input_clauses: Vec<Vec<Lit>>,
    pub(crate) stats: Stats,
    conflict_budget: Option<u64>,
    timeout: Option<Duration>,
    cancel: Option<CancelToken>,
    progress: Option<ProgressHandle>,
    max_learnts: usize,
    restarts_done: u64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

/// Per-solve heartbeat state: the conflict-rate window and trace-event
/// throttle (see [`Solver::heartbeat`]).
#[derive(Default)]
struct Heartbeat {
    window_start_us: u64,
    window_conflicts: u64,
    window_closed: bool,
    rate: u64,
    last_event_us: u64,
}

impl Solver {
    /// Creates an empty solver with default [`Config`].
    pub fn new() -> Solver {
        Solver::with_config(Config::default())
    }

    /// Creates an empty solver with an explicit configuration.
    pub fn with_config(config: Config) -> Solver {
        let max_learnts = config.first_reduce;
        Solver {
            config,
            db: ClauseDb::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            heap: VarHeap::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            phase: Vec::new(),
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_clear: Vec::new(),
            ok: true,
            model: Vec::new(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_records: Vec::new(),
            assumptions: Vec::new(),
            conflict_assumptions: Vec::new(),
            proof: None,
            input_clauses: Vec::new(),
            stats: Stats::default(),
            conflict_budget: None,
            timeout: None,
            cancel: None,
            progress: None,
            max_learnts,
            restarts_done: 0,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.grow_to(self.assigns.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Ensures at least `n` variables exist, returning the highest one.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.assigns.len() < n {
            self.new_var();
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live clauses (problem + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Enables DRAT proof logging. Call before adding clauses; derived
    /// clauses, deletions and the final empty clause are then recorded and
    /// can be retrieved with [`Solver::proof`] after an UNSAT answer.
    /// Input clauses are recorded verbatim as well, so
    /// [`Solver::check_proof`] can certify the answer without the caller
    /// keeping its own copy.
    pub fn enable_proof(&mut self) {
        if self.proof.is_none() {
            self.proof = Some(Proof::new());
        }
    }

    /// The recorded DRAT proof, if logging was enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// The input clauses recorded verbatim since proof logging was enabled
    /// (empty if [`Solver::enable_proof`] was never called).
    pub fn input_clauses(&self) -> &[Vec<Lit>] {
        &self.input_clauses
    }

    /// Replays the recorded DRAT proof through the built-in watched-literal
    /// forward RUP checker ([`check_refutation`](crate::check_refutation))
    /// against the recorded input clauses.
    ///
    /// Returns `None` when proof logging was never enabled, otherwise
    /// whether the proof is a valid refutation of the inputs. Only
    /// meaningful after an `Unsat` answer. A replay takes the same order of
    /// time as the search that logged the proof.
    pub fn check_proof(&self) -> Option<bool> {
        let proof = self.proof.as_ref()?;
        let _span = sufsat_obs::span_with!(
            "sat.check_proof",
            inputs = self.input_clauses.len(),
            steps = proof.steps().len(),
        );
        let ok = crate::proof::check_refutation(&self.input_clauses, proof);
        sufsat_obs::event!("sat.check_proof.result", ok = ok);
        Some(ok)
    }

    pub(crate) fn proof_add(&mut self, clause: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add(clause);
        }
    }

    pub(crate) fn proof_delete(&mut self, clause: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.delete(clause);
        }
    }

    /// Limits the next `solve` call to at most `budget` conflicts
    /// (`None` removes the limit).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Installs (or removes) a cooperative cancellation token.
    ///
    /// While `solve` runs, any thread holding a clone of the token can call
    /// [`CancelToken::cancel`] to make the search return
    /// [`SolveResult::Unknown`]`(`[`Interrupt::Cancelled`]`)` promptly. The
    /// solver remains valid after an interrupted call: reset the token (or
    /// install a fresh one) and solve again.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The currently installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    #[inline]
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Limits the next `solve` call to roughly `timeout` wall-clock time
    /// (`None` removes the limit). Checked every few hundred conflicts.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Installs (or removes) a progress heartbeat handle.
    ///
    /// While `solve` runs, the solver periodically publishes a
    /// [`ProgressSnapshot`] (conflicts, decisions, trail depth, learnt-db
    /// size, restarts, arena bytes, conflict rate) that any thread holding
    /// a clone of the handle can read with
    /// [`ProgressHandle::snapshot`]. Publication rides the same amortized
    /// credit counter as timeout polling, so an installed handle costs a
    /// handful of relaxed atomic stores every ~256 search cycles.
    pub fn set_progress_handle(&mut self, handle: Option<ProgressHandle>) {
        self.progress = handle;
    }

    /// Adds a clause, simplifying against the top-level assignment.
    ///
    /// Returns `false` iff the clause set became (or already was) trivially
    /// unsatisfiable; once that happens the solver stays unsatisfiable.
    /// Clauses may be added between `solve` calls (incremental use).
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        if !self.ok {
            return false;
        }
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(
                l.var().index() < self.assigns.len(),
                "literal {l} refers to an unknown variable; call new_var first"
            );
        }
        // Incremental additions may mention variables eliminated by
        // preprocessing; restoring their saved clauses first keeps the
        // clause set equivalent (see `preprocess` module docs).
        self.restore_mentioned(&clause);
        if self.proof.is_some() {
            self.input_clauses.push(clause.clone());
        }
        self.add_clause_core(clause, true)
    }

    /// Shared tail of [`Solver::add_clause`] and elimination restore:
    /// backtracks to level 0, simplifies the clause against the top-level
    /// assignment and stores it. `count_original` controls whether the
    /// clause counts toward the original-clause statistic (restored
    /// elimination clauses were already counted when first added).
    pub(crate) fn add_clause_core(&mut self, mut clause: Vec<Lit>, count_original: bool) -> bool {
        if !self.ok {
            return false;
        }
        // Adding clauses is only sound at decision level 0.
        self.backtrack_to(0);
        clause.sort_unstable();
        clause.dedup();
        // Drop tautologies and literals false at level 0.
        let mut i = 0;
        while i + 1 < clause.len() {
            if clause[i].var() == clause[i + 1].var() {
                return true; // contains l and !l: tautology
            }
            i += 1;
        }
        let before = clause.len();
        clause.retain(|&l| self.value(l) != LBool::False);
        if clause.iter().any(|&l| self.value(l) == LBool::True) {
            return true;
        }
        if clause.len() != before {
            // The stored clause is a simplification of the input; record
            // the derived version so DRAT checking sees it added.
            self.proof_add(&clause);
        }
        if count_original {
            self.stats.original_clauses += 1;
        }
        match clause.len() {
            0 => {
                if before == 0 {
                    // The input itself was empty; the simplification branch
                    // above did not run, so the refutation step is recorded
                    // here.
                    self.proof_add(&[]);
                }
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                    self.proof_add(&[]);
                }
                self.ok
            }
            _ => {
                let cref = self.db.alloc(&clause, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Top-level simplification: removes clauses satisfied at decision
    /// level 0 and strips literals falsified there, re-watching shrunk
    /// clauses. Sound to call between `solve` calls; DRAT lines are emitted
    /// for every strengthened clause and deletion.
    ///
    /// Returns `false` iff the clause set is (or becomes) unsatisfiable.
    pub fn simplify(&mut self) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            self.proof_add(&[]);
            return false;
        }
        let crefs: Vec<ClauseRef> = self
            .db
            .crefs()
            .into_iter()
            .filter(|&c| !self.db.is_removed(c) && self.db.size(c) >= 2)
            .collect();
        for cref in crefs {
            let lits = self.db.lits_vec(cref);
            if lits.iter().any(|&l| self.value(l) == LBool::True) {
                // Satisfied forever: drop it.
                if !self.locked(cref) {
                    self.proof_delete(&lits);
                    self.detach(cref);
                    self.db.remove(cref);
                }
                continue;
            }
            let kept: Vec<Lit> = lits
                .iter()
                .copied()
                .filter(|&l| self.value(l) != LBool::False)
                .collect();
            if kept.len() == lits.len() {
                continue;
            }
            // Strengthened: emit the new clause, replace the old one.
            self.proof_add(&kept);
            self.proof_delete(&lits);
            self.detach(cref);
            let learnt = self.db.learnt(cref);
            let lbd = self.db.lbd(cref);
            self.db.remove(cref);
            match kept.len() {
                0 => {
                    self.ok = false;
                    return false;
                }
                1 => {
                    if self.value(kept[0]) == LBool::Undef {
                        self.enqueue(kept[0], NO_REASON);
                        if self.propagate().is_some() {
                            self.ok = false;
                            self.proof_add(&[]);
                            return false;
                        }
                    }
                }
                _ => {
                    let new_ref = self.db.alloc(&kept, learnt, lbd);
                    self.attach(new_ref);
                }
            }
        }
        self.maybe_gc();
        true
    }

    /// Runs the CDCL search.
    ///
    /// Statistics accumulate across calls; after `Sat`, the model is available
    /// until clauses are added or `solve` is called again.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Runs the CDCL search under `assumptions`: literals treated as the
    /// first decisions of the search. `Unsat` then means "unsatisfiable
    /// under the assumptions"; [`Solver::failed_assumptions`] returns a
    /// subset of the assumptions sufficient for the conflict, and the
    /// solver remains usable with different assumptions afterwards.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        // An assumption over an eliminated variable forces its saved
        // clauses back in first, so the assumption actually constrains
        // the search (see the `preprocess` module).
        self.restore_mentioned(assumptions);
        let span = sufsat_obs::span_with!(
            "sat.solve",
            vars = self.num_vars(),
            clauses = self.stats.original_clauses,
            assumptions = assumptions.len(),
        );
        let before = self.stats.clone();
        let start = Instant::now();
        self.assumptions = assumptions.to_vec();
        self.conflict_assumptions.clear();
        let result = self.search(start);
        self.assumptions.clear();
        self.stats.solve_time += start.elapsed();
        if span.is_recording() {
            self.trace_solve(&before, &result);
        }
        result
    }

    /// Emits the per-solve event and bumps the cumulative counters
    /// (deltas against `before`, so stats accumulating across solve calls
    /// are not double-counted).
    fn trace_solve(&self, before: &Stats, result: &SolveResult) {
        static CONFLICTS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.conflicts");
        static DECISIONS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.decisions");
        static PROPAGATIONS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.propagations");
        static RESTARTS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.restarts");
        static SOLVES: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.solves");
        let s = &self.stats;
        CONFLICTS.add(s.conflicts - before.conflicts);
        DECISIONS.add(s.decisions - before.decisions);
        PROPAGATIONS.add(s.propagations - before.propagations);
        RESTARTS.add(s.restarts - before.restarts);
        SOLVES.incr();
        let verdict = match result {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown(Interrupt::ConflictBudget) => "conflict_budget",
            SolveResult::Unknown(Interrupt::Timeout) => "timeout",
            SolveResult::Unknown(Interrupt::Cancelled) => "cancelled",
        };
        sufsat_obs::event!(
            "sat.result",
            result = verdict,
            conflicts = s.conflicts - before.conflicts,
            decisions = s.decisions - before.decisions,
            propagations = s.propagations - before.propagations,
            restarts = s.restarts - before.restarts,
            learnt_clauses = s.learnt_clauses - before.learnt_clauses,
            reductions = s.reductions - before.reductions,
            cnf_clauses = s.original_clauses,
            proof_steps = self.proof.as_ref().map_or(0, |p| p.steps().len()),
        );
    }

    /// After `Unsat` from [`Solver::solve_with_assumptions`]: a subset of
    /// the assumptions sufficient to cause the conflict (empty when the
    /// clause set is unsatisfiable outright).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    fn search(&mut self, start: Instant) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            self.proof_add(&[]);
            return SolveResult::Unsat;
        }
        let budget_start = self.stats.conflicts;
        let mut conflicts_this_restart = 0u64;
        let mut restart_limit = self.restart_limit();
        // Deadline polling is amortized over a credit counter rather than
        // the conflict count: each cycle earns 1 credit and each conflict
        // 16 more, and the clock is read once 256 credits accrue. On
        // conflict-heavy search that is the old every-few-conflicts rate,
        // while conflict-free search (huge easy instances) still polls
        // every 256 cycles instead of never. Progress heartbeats ride the
        // same credit counter, so they share its amortization.
        let mut deadline_credit = 0u32;
        let mut heartbeat = Heartbeat::default();
        loop {
            // One relaxed atomic load per propagate/decide cycle — cheap
            // next to propagation, and prompt enough that cancellation
            // lands within milliseconds even on hard instances.
            if self.cancel_requested() {
                self.backtrack_to(0);
                return SolveResult::Unknown(Interrupt::Cancelled);
            }
            deadline_credit += 1;
            if deadline_credit >= 256 {
                deadline_credit = 0;
                // One clock read serves the deadline check, the progress
                // heartbeat and the throttled trace event; skipped
                // entirely when none of the three is active.
                if self.timeout.is_some() || self.progress.is_some() || sufsat_obs::enabled() {
                    let elapsed = start.elapsed();
                    if let Some(limit) = self.timeout {
                        if elapsed >= limit {
                            self.backtrack_to(0);
                            return SolveResult::Unknown(Interrupt::Timeout);
                        }
                    }
                    self.heartbeat(elapsed, &mut heartbeat);
                }
            }
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.proof_add(&[]);
                    return SolveResult::Unsat;
                }
                let (learnt, bt_level, lbd) = self.analyze(confl);
                self.backtrack_to(bt_level);
                self.learn(learnt, lbd);
                self.decay_activities();
                deadline_credit += 16;
                if let Some(budget) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= budget {
                        self.backtrack_to(0);
                        return SolveResult::Unknown(Interrupt::ConflictBudget);
                    }
                }
            } else {
                if self.config.restarts && conflicts_this_restart >= restart_limit {
                    self.stats.restarts += 1;
                    self.restarts_done += 1;
                    conflicts_this_restart = 0;
                    restart_limit = self.restart_limit();
                    self.backtrack_to(0);
                    continue;
                }
                if self.config.reduce_db && self.db.num_learnts() > self.max_learnts {
                    self.reduce_db();
                }
                // Assumption literals act as the first decisions.
                if (self.decision_level() as usize) < self.assumptions.len() {
                    let a = self.assumptions[self.decision_level() as usize];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied: open an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                        LBool::False => {
                            // Conflicting assumption: analyze which earlier
                            // assumptions force its negation. The conflicting
                            // assumption itself belongs in the core — the
                            // earlier ones only imply its negation.
                            let mut core = self.analyze_final(!a);
                            if !core.contains(&a) {
                                core.push(a);
                            }
                            self.conflict_assumptions = core;
                            self.backtrack_to(0);
                            return SolveResult::Unsat;
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        // All variables assigned: satisfying assignment.
                        self.model = self.assigns.iter().map(|&a| a == LBool::True).collect();
                        self.extend_model();
                        self.backtrack_to(0);
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let polarity = if self.config.phase_saving {
                            self.phase[v.index()]
                        } else {
                            false
                        };
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(Lit::new(v, polarity), NO_REASON);
                    }
                }
            }
        }
    }

    /// Publishes a progress snapshot to the installed handle and, when
    /// tracing is enabled, emits a throttled `sat.progress` event.
    /// Called from the search loop's amortized credit-poll block.
    fn heartbeat(&self, elapsed: Duration, beat: &mut Heartbeat) {
        let now_us = elapsed.as_micros() as u64;
        // Conflict rate over the last throttle window (>= 100 ms apart so
        // short windows don't produce noisy rates); until the first window
        // closes, fall back to the whole-solve average.
        if now_us.saturating_sub(beat.window_start_us) >= 100_000 {
            let dt = now_us - beat.window_start_us;
            let dc = self.stats.conflicts.saturating_sub(beat.window_conflicts);
            beat.rate = dc.saturating_mul(1_000_000) / dt;
            beat.window_start_us = now_us;
            beat.window_conflicts = self.stats.conflicts;
            beat.window_closed = true;
        }
        let rate = if beat.window_closed {
            beat.rate
        } else {
            self.stats
                .conflicts
                .saturating_mul(1_000_000)
                .checked_div(now_us)
                .unwrap_or(0)
        };
        let snap = ProgressSnapshot {
            conflicts: self.stats.conflicts,
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
            restarts: self.stats.restarts,
            trail_depth: self.trail.len() as u64,
            learnt_clauses: self.db.num_learnts() as u64,
            arena_bytes: (self.db.arena_words() * 4) as u64,
            elapsed_us: now_us,
            conflicts_per_s: rate,
            seq: 0, // assigned by publish
        };
        if let Some(handle) = self.progress.as_ref() {
            handle.publish(snap);
        }
        if sufsat_obs::enabled() && now_us.saturating_sub(beat.last_event_us) >= 100_000 {
            beat.last_event_us = now_us;
            sufsat_obs::event!(
                "sat.progress",
                conflicts = snap.conflicts,
                decisions = snap.decisions,
                propagations = snap.propagations,
                restarts = snap.restarts,
                trail_depth = snap.trail_depth,
                learnt_clauses = snap.learnt_clauses,
                arena_bytes = snap.arena_bytes,
                conflicts_per_s = snap.conflicts_per_s,
            );
        }
    }

    /// The satisfying value of `v` from the last `Sat` answer.
    ///
    /// Returns `None` if no model is available.
    pub fn model_value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied()
    }

    /// The satisfying value of a literal from the last `Sat` answer.
    pub fn model_lit_value(&self, l: Lit) -> Option<bool> {
        self.model_value(l.var()).map(|b| b == l.is_positive())
    }

    /// The full model from the last `Sat` answer (indexed by variable).
    pub fn model(&self) -> &[bool] {
        &self.model
    }

    // ---- internals -----------------------------------------------------

    fn restart_limit(&self) -> u64 {
        self.config.restart_base * luby(self.restarts_done)
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.index()] = LBool::from_bool(l.is_positive());
        self.level[v.index()] = self.decision_level();
        self.reason[v.index()] = reason;
        self.trail.push(l);
    }

    pub(crate) fn attach(&mut self, cref: ClauseRef) {
        debug_assert!(self.db.size(cref) >= 2);
        let w0 = self.db.lit(cref, 0);
        let w1 = self.db.lit(cref, 1);
        self.watches[(!w0).index()].push(Watcher { cref, blocker: w1 });
        self.watches[(!w1).index()].push(Watcher { cref, blocker: w0 });
    }

    pub(crate) fn detach(&mut self, cref: ClauseRef) {
        let w0 = self.db.lit(cref, 0);
        let w1 = self.db.lit(cref, 1);
        self.watches[(!w0).index()].retain(|w| w.cref != cref);
        self.watches[(!w1).index()].retain(|w| w.cref != cref);
    }

    /// Two-watched-literal Boolean constraint propagation.
    ///
    /// Returns the conflicting clause, if any.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching !p must be visited: p became true, so their
            // watched literal !p became false.
            let mut watchers = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                if self.value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let false_lit = !p;
                // Normalize so the false literal is at position 1.
                if self.db.lit(w.cref, 0) == false_lit {
                    self.db.swap_lits(w.cref, 0, 1);
                }
                debug_assert_eq!(self.db.lit(w.cref, 1), false_lit);
                let first = self.db.lit(w.cref, 0);
                let len = self.db.size(w.cref);
                if first != w.blocker && self.value(first) == LBool::True {
                    watchers[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..len {
                    let lk = self.db.lit(w.cref, k);
                    if self.value(lk) != LBool::False {
                        self.db.swap_lits(w.cref, 1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        watchers.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                watchers[i].blocker = first;
                if self.value(first) == LBool::False {
                    conflict = Some(w.cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, w.cref);
                i += 1;
            }
            // Put back any remaining watchers (including on conflict).
            let dest = &mut self.watches[p.index()];
            if dest.is_empty() {
                *dest = watchers;
            } else {
                // attach() during the loop may have pushed new entries here.
                watchers.append(dest);
                *dest = watchers;
            }
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis with recursive clause minimization.
    ///
    /// Returns the learnt clause (asserting literal first), the backtrack
    /// level, and the clause's LBD.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current_level = self.decision_level();

        loop {
            self.bump_clause(confl);
            let nlits = self.db.size(confl);
            let skip = usize::from(p.is_some());
            for k in skip..nlits {
                let q = self.db.lit(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[lit.var().index()];
            debug_assert_ne!(confl, NO_REASON);
        }
        let uip = p.expect("conflict at level > 0 has a UIP");
        learnt[0] = !uip;

        // Mark all learnt vars seen (UIP var was unmarked above).
        self.seen[uip.var().index()] = true;
        self.analyze_clear = learnt.iter().map(|l| l.var()).collect();

        // Recursive minimization: drop literals implied by the rest.
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| self.reason[l.var().index()] == NO_REASON || !self.lit_redundant(l))
            .collect();
        learnt.truncate(1);
        learnt.extend(keep);
        self.stats.learnt_literals += learnt.len() as u64;

        // LBD: number of distinct decision levels.
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        // Backtrack level: highest level among non-UIP literals.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        for v in std::mem::take(&mut self.analyze_clear) {
            self.seen[v.index()] = false;
        }
        (learnt, bt_level, lbd)
    }

    /// Collects the subset of assumptions that imply `p` (used when an
    /// assumption is found already false): walks reasons backwards from the
    /// trail, gathering decision literals.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = Vec::new();
        if self.decision_level() == 0 {
            return out;
        }
        let mut seen = vec![false; self.assigns.len()];
        seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let q = self.trail[i];
            if !seen[q.var().index()] {
                continue;
            }
            let reason = self.reason[q.var().index()];
            if reason == NO_REASON {
                out.push(q);
            } else {
                let n = self.db.size(reason);
                for k in 1..n {
                    let r = self.db.lit(reason, k);
                    if self.level[r.var().index()] > 0 {
                        seen[r.var().index()] = true;
                    }
                }
            }
        }
        out
    }

    /// Checks whether `l` is redundant in the learnt clause: every literal in
    /// its reason (transitively) is already marked seen or at level 0.
    fn lit_redundant(&mut self, l: Lit) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let mut newly_seen: Vec<Var> = Vec::new();
        while let Some(q) = self.analyze_stack.pop() {
            let reason = self.reason[q.var().index()];
            debug_assert_ne!(reason, NO_REASON);
            let nlits = self.db.size(reason);
            for k in 1..nlits {
                let r = self.db.lit(reason, k);
                let v = r.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                if self.reason[v.index()] == NO_REASON {
                    // Hit a decision not in the clause: not redundant.
                    for nv in newly_seen {
                        self.seen[nv.index()] = false;
                    }
                    return false;
                }
                self.seen[v.index()] = true;
                newly_seen.push(v);
                self.analyze_stack.push(r);
            }
        }
        // Keep the transitive marks so sibling checks can reuse them, but
        // remember to clear them at the end of analyze().
        self.analyze_clear.extend(newly_seen);
        true
    }

    fn learn(&mut self, learnt: Vec<Lit>, lbd: u32) {
        debug_assert!(!learnt.is_empty());
        self.proof_add(&learnt);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(asserting, NO_REASON);
        } else {
            self.stats.learnt_clauses += 1;
            let cref = self.db.alloc(&learnt, true, lbd);
            self.bump_clause(cref);
            self.attach(cref);
            self.enqueue(asserting, cref);
        }
    }

    pub(crate) fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.phase[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = NO_REASON;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.db.learnt(cref) {
            return;
        }
        let bumped = self.db.activity(cref) + self.clause_inc as f32;
        self.db.set_activity(cref, bumped);
        if bumped > 1e20 {
            self.clause_inc *= 1e-20;
            for lc in std::mem::take(&mut self.db.learnts) {
                if self.db.learnt(lc) && !self.db.is_removed(lc) {
                    let a = self.db.activity(lc);
                    self.db.set_activity(lc, a * 1e-20);
                }
                self.db.learnts.push(lc);
            }
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.clause_inc /= self.config.clause_decay;
    }

    /// Whether `cref` is the reason for its first literal's assignment.
    pub(crate) fn locked(&self, cref: ClauseRef) -> bool {
        if self.db.size(cref) == 0 {
            return false;
        }
        let v = self.db.lit(cref, 0).var();
        self.reason[v.index()] == cref && self.assigns[v.index()].is_assigned()
    }

    /// Removes the worst half of learnt clauses (by LBD then activity),
    /// keeping binary, glue (LBD <= 2) and locked clauses.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        self.max_learnts += self.config.reduce_increment;
        let mut live: Vec<ClauseRef> = self
            .db
            .learnts
            .iter()
            .copied()
            .filter(|&c| self.db.learnt(c) && !self.db.is_removed(c))
            .collect();
        live.sort_by(|&a, &b| {
            self.db.lbd(a).cmp(&self.db.lbd(b)).then(
                self.db
                    .activity(b)
                    .partial_cmp(&self.db.activity(a))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let keep_from = live.len() / 2;
        let mut kept: Vec<ClauseRef> = live[..keep_from].to_vec();
        for &cref in &live[keep_from..] {
            if self.db.size(cref) <= 2 || self.db.lbd(cref) <= 2 || self.locked(cref) {
                kept.push(cref);
                continue;
            }
            let lits = self.db.lits_vec(cref);
            self.proof_delete(&lits);
            self.detach(cref);
            self.db.remove(cref);
        }
        self.db.learnts = kept;
        self.maybe_gc();
    }

    /// Runs a compacting arena collection when enough of it is tombstoned.
    pub(crate) fn maybe_gc(&mut self) {
        if self.db.wants_gc() {
            self.garbage_collect();
        }
    }

    /// Compacts the clause arena: relocates every live clause into a fresh
    /// arena and rewrites all [`ClauseRef`] holders — watch lists, reason
    /// slots of assigned variables, and the learnt-clause list.
    fn garbage_collect(&mut self) {
        static GC_RUNS: sufsat_obs::Counter = sufsat_obs::Counter::new("sat.gc.runs");
        static GC_BYTES: sufsat_obs::Counter =
            sufsat_obs::Counter::new("sat.gc.bytes_reclaimed");
        let before_words = self.db.arena_words();
        let wasted_words = self.db.wasted_words();
        let mut to = ClauseDb::new();
        for wl in &mut self.watches {
            for w in wl.iter_mut() {
                w.cref = self.db.reloc(w.cref, &mut to);
            }
        }
        for vi in 0..self.reason.len() {
            let r = self.reason[vi];
            if r != NO_REASON {
                // Reason slots are reset on backtrack, so a non-sentinel
                // entry always points at a live (locked) clause.
                self.reason[vi] = self.db.reloc(r, &mut to);
            }
        }
        let old_learnts = std::mem::take(&mut self.db.learnts);
        let learnts: Vec<ClauseRef> = old_learnts
            .into_iter()
            .filter_map(|c| {
                if self.db.is_removed(c) {
                    None
                } else {
                    Some(self.db.reloc(c, &mut to))
                }
            })
            .collect();
        let reclaimed_bytes = (before_words - to.arena_words()) * 4;
        sufsat_obs::event!(
            "sat.gc",
            arena_words = before_words,
            wasted_words = wasted_words,
            reclaimed_bytes = reclaimed_bytes,
        );
        self.db.finish_gc(to, learnts);
        self.stats.gc_runs += 1;
        GC_RUNS.incr();
        GC_BYTES.add(reclaimed_bytes as u64);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn nvars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([v.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v), Some(true));
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([v.positive()]));
        assert!(!s.add_clause([v.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([v.positive(), v.negative()]));
        assert_eq!(s.stats().original_clauses, 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([v.positive(), v.positive()]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v), Some(true));
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 and (x_i -> x_{i+1}) forces all true.
        let mut s = Solver::new();
        let vs = nvars(&mut s, 30);
        s.add_clause([vs[0].positive()]);
        for w in vs.windows(2) {
            s.add_clause([w[0].negative(), w[1].positive()]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in vs {
            assert_eq!(s.model_value(v), Some(true));
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // Odd-length XOR cycle with odd parity is unsat.
        let mut s = Solver::new();
        let vs = nvars(&mut s, 3);
        // x0 xor x1, x1 xor x2, x2 xor x0: requires 3 pairwise-different
        // booleans in a cycle of odd length -> unsat.
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            s.add_clause([vs[a].positive(), vs[b].positive()]);
            s.add_clause([vs[a].negative(), vs[b].negative()]);
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n): unsat, exercises learning.
    fn pigeonhole(holes: usize) -> Solver {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let var = |s: &mut Solver, grid: &mut Vec<Vec<Var>>| {
            for _ in 0..pigeons {
                grid.push((0..holes).map(|_| s.new_var()).collect());
            }
        };
        let mut grid: Vec<Vec<Var>> = Vec::new();
        var(&mut s, &mut grid);
        // Each pigeon in some hole.
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| grid[p][h].positive()));
        }
        // No two pigeons share a hole.
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_is_unsat() {
        for holes in 2..=5 {
            let mut s = pigeonhole(holes);
            assert_eq!(s.solve(), SolveResult::Unsat, "php({holes}) must be unsat");
            assert!(s.stats().conflicts > 0);
        }
    }

    #[test]
    fn pigeonhole_proof_validates() {
        // PHP(4,3) with aggressive DB reduction: the proof includes both
        // learnt additions and deletions, and must still check.
        let mut config = Config::default();
        config.first_reduce = 8;
        config.reduce_increment = 8;
        let mut s = Solver::with_config(config);
        s.enable_proof();
        let holes = 3;
        let pigeons = holes + 1;
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        let mut original: Vec<Vec<Lit>> = Vec::new();
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| grid[p][h].positive()).collect();
            original.push(clause.clone());
            s.add_clause(clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    let clause = vec![grid[p1][h].negative(), grid[p2][h].negative()];
                    original.push(clause.clone());
                    s.add_clause(clause);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let proof = s.proof().expect("enabled");
        assert!(proof.is_refutation());
        assert!(crate::proof::check_refutation(&original, proof));
        // And the textual form is non-trivial.
        let mut text = Vec::new();
        proof.write_drat(&mut text).unwrap();
        assert!(text.ends_with(b"0\n"));
    }

    #[test]
    fn check_proof_certifies_unsat_from_recorded_inputs() {
        // Same property as `pigeonhole_proof_validates`, but through the
        // public solve-path capture: no caller-side clause tracking.
        let mut s = Solver::new();
        s.enable_proof();
        let holes = 3;
        let pigeons = holes + 1;
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| grid[p][h].positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.input_clauses().len(), pigeons + holes * pigeons * (pigeons - 1) / 2);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.check_proof(), Some(true));
    }

    #[test]
    fn check_proof_without_logging_is_none() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(s.check_proof(), None);
        assert!(s.input_clauses().is_empty());
    }

    #[test]
    fn conflict_budget_interrupts() {
        let mut s = pigeonhole(8);
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::ConflictBudget));
        // Removing the budget finds the answer.
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// Pigeonhole clauses guarded by a fresh literal `g`: assuming `g`
    /// makes the instance hard-UNSAT, assuming `!g` makes it trivial.
    fn guarded_pigeonhole(holes: usize) -> (Solver, Var) {
        let pigeons = holes + 1;
        let mut s = Solver::new();
        let g = s.new_var();
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            let mut clause = vec![g.negative()];
            clause.extend((0..holes).map(|h| grid[p][h].positive()));
            s.add_clause(clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([
                        g.negative(),
                        grid[p1][h].negative(),
                        grid[p2][h].negative(),
                    ]);
                }
            }
        }
        (s, g)
    }

    #[test]
    fn pre_cancelled_token_interrupts_immediately() {
        let mut s = pigeonhole(8);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token.clone()));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::Cancelled));
        // Resetting the token restores the solver's full behaviour.
        token.reset();
        s.set_conflict_budget(Some(5));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::ConflictBudget));
    }

    #[test]
    fn cancellation_mid_search_is_prompt_and_solver_stays_usable() {
        let (mut s, g) = guarded_pigeonhole(9);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        // Backstop so a broken cancellation path cannot hang the suite.
        s.set_timeout(Some(Duration::from_secs(60)));
        let handle = std::thread::spawn(move || {
            let result = s.solve_with_assumptions(&[g.positive()]);
            (result, s)
        });
        // Let the search sink into the hard instance, then pull the plug.
        std::thread::sleep(Duration::from_millis(100));
        let cancelled_at = Instant::now();
        token.cancel();
        let (result, mut s) = handle.join().expect("solver thread");
        let reaction = cancelled_at.elapsed();
        assert_eq!(result, SolveResult::Unknown(Interrupt::Cancelled));
        assert!(
            reaction < Duration::from_millis(50),
            "cancellation took {reaction:?}"
        );
        // The same solver answers a fresh query correctly afterwards.
        token.reset();
        assert_eq!(s.solve_with_assumptions(&[g.negative()]), SolveResult::Sat);
        assert_eq!(s.model_value(g), Some(false));
    }

    #[test]
    fn incremental_add_after_sat() {
        let mut s = Solver::new();
        let vs = nvars(&mut s, 4);
        s.add_clause([vs[0].positive(), vs[1].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([vs[0].negative()]);
        s.add_clause([vs[1].negative(), vs[2].positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vs[0]), Some(false));
        assert_eq!(s.model_value(vs[1]), Some(true));
        assert_eq!(s.model_value(vs[2]), Some(true));
        // Force unsat incrementally.
        s.add_clause([vs[1].negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Solver stays unsat.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simplify_removes_satisfied_and_strengthens() {
        let mut s = Solver::new();
        s.enable_proof();
        let vs = nvars(&mut s, 4);
        // Clauses first, then the unit: add_clause only pre-simplifies
        // against units already present, so these stay stored verbatim.
        s.add_clause([vs[0].positive(), vs[1].positive()]); // will be satisfied
        s.add_clause([vs[0].negative(), vs[2].positive(), vs[3].positive()]); // will strengthen
        s.add_clause([vs[0].positive()]); // unit: x0
        let before = s.num_clauses();
        assert_eq!(before, 2);
        assert!(s.simplify());
        assert!(s.num_clauses() < before, "satisfied clause dropped");
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vs[0]), Some(true));
        // The strengthened clause still constrains: force x2 false.
        s.add_clause([vs[2].negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vs[3]), Some(true));
    }

    #[test]
    fn simplify_detects_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        let w = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([w.positive()]);
        s.add_clause([v.negative(), w.negative()]);
        assert!(!s.simplify());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simplify_preserves_satisfiability() {
        // Randomized-ish check: simplify then solve equals solve.
        for seed in 0..20u64 {
            let mut h = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut next = || {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                h
            };
            let build = |simplify: bool| -> SolveResult {
                let mut s = Solver::new();
                let vs: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
                let mut hh = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                let mut nn = || {
                    hh ^= hh << 13;
                    hh ^= hh >> 7;
                    hh ^= hh << 17;
                    hh
                };
                for _ in 0..12 {
                    let len = 1 + (nn() % 3) as usize;
                    let lits: Vec<Lit> = (0..len)
                        .map(|_| Lit::new(vs[(nn() % 5) as usize], nn() & 1 == 1))
                        .collect();
                    s.add_clause(lits);
                }
                if simplify {
                    let _ = s.simplify();
                }
                s.solve()
            };
            let _ = next();
            let plain = build(false);
            let simplified = build(true);
            assert_eq!(
                plain == SolveResult::Sat,
                simplified == SolveResult::Sat,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn assumptions_restrict_and_release() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        // Under (!a, !b) the clause is unsatisfiable...
        assert_eq!(
            s.solve_with_assumptions(&[a.negative(), b.negative()]),
            SolveResult::Unsat
        );
        let failed = s.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        assert!(failed.iter().all(|l| *l == a.negative() || *l == b.negative()));
        // ...but the solver is still usable without them.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[a.negative()]), SolveResult::Sat);
        assert_eq!(s.model_value(b), Some(true));
    }

    #[test]
    fn failed_assumptions_are_a_relevant_subset() {
        let mut s = Solver::new();
        let vs = nvars(&mut s, 4);
        // x0 -> x1, x1 -> x2.
        s.add_clause([vs[0].negative(), vs[1].positive()]);
        s.add_clause([vs[1].negative(), vs[2].positive()]);
        // Assume x0, !x2 and an irrelevant x3.
        let assumptions = [vs[3].positive(), vs[0].positive(), vs[2].negative()];
        assert_eq!(s.solve_with_assumptions(&assumptions), SolveResult::Unsat);
        let failed = s.failed_assumptions().to_vec();
        assert!(
            !failed.contains(&vs[3].positive()),
            "irrelevant assumption must not appear: {failed:?}"
        );
        assert!(failed.contains(&vs[0].positive()) || failed.contains(&vs[2].negative()));
    }

    #[test]
    fn hard_unsat_reports_empty_failed_set() {
        let mut s = Solver::new();
        let v = s.new_var();
        let w = s.new_var();
        s.add_clause([v.positive()]);
        s.add_clause([v.negative()]);
        assert_eq!(
            s.solve_with_assumptions(&[w.positive()]),
            SolveResult::Unsat
        );
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn already_true_assumptions_are_harmless() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive()]);
        s.add_clause([a.negative(), b.positive()]);
        // `a` is implied at level 0; assuming it again must not break.
        assert_eq!(
            s.solve_with_assumptions(&[a.positive(), b.positive()]),
            SolveResult::Sat
        );
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // A formula with a unique model: x0=1, x1=0, x2=1.
        let mut s = Solver::new();
        let vs = nvars(&mut s, 3);
        let cls: Vec<Vec<Lit>> = vec![
            vec![vs[0].positive()],
            vec![vs[0].negative(), vs[1].negative()],
            vec![vs[1].positive(), vs[2].positive()],
            vec![vs[2].positive()],
        ];
        for c in &cls {
            s.add_clause(c.iter().copied());
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for c in &cls {
            assert!(c.iter().any(|&l| s.model_lit_value(l) == Some(true)));
        }
    }

    #[test]
    fn no_restart_no_reduce_configs_still_work() {
        let mut config = Config::default();
        config.restarts = false;
        config.reduce_db = false;
        config.phase_saving = false;
        let mut s = Solver::with_config(config);
        // Reuse pigeonhole structure at small size.
        let holes = 4;
        let pigeons = holes + 1;
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| grid[p][h].positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn db_reduction_triggers_on_long_runs() {
        let mut config = Config::default();
        config.first_reduce = 10;
        config.reduce_increment = 10;
        let mut s = Solver::with_config(config);
        let holes = 7;
        let pigeons = holes + 1;
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| grid[p][h].positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().reductions > 0, "reduction should have triggered");
    }

    #[test]
    fn reduce_db_gc_keeps_search_consistent() {
        // Aggressive reduction tombstones enough learnt clauses that the
        // arena compacts mid-run; watchers/reasons/learnts must survive.
        let mut config = Config::default();
        config.first_reduce = 10;
        config.reduce_increment = 10;
        let mut s = Solver::with_config(config);
        let holes = 7;
        let pigeons = holes + 1;
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for p in 0..pigeons {
            s.add_clause((0..holes).map(|h| grid[p][h].positive()));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    s.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().gc_runs > 0, "arena GC should have triggered");
    }

    #[test]
    fn simplify_gc_rewrites_watchers_and_solving_continues() {
        let mut s = Solver::new();
        let vs = nvars(&mut s, 20);
        let sat_lit = vs[0].positive();
        // Fat clauses that all become satisfied (tombstoned) at once.
        for i in 1..19 {
            s.add_clause([sat_lit, vs[i].positive(), vs[i + 1].negative()]);
        }
        // A live implication chain v1 -> v2 -> ... -> v5.
        for w in vs[1..6].windows(2) {
            s.add_clause([w[0].negative(), w[1].positive()]);
        }
        s.add_clause([sat_lit]);
        assert!(s.simplify());
        assert!(s.stats().gc_runs >= 1, "simplify should have compacted");
        // Watchers were rewritten to the compacted arena: propagation over
        // the chain and failed-assumption extraction still work.
        let r = s.solve_with_assumptions(&[vs[1].positive(), vs[5].negative()]);
        assert_eq!(r, SolveResult::Unsat);
        assert!(
            !s.failed_assumptions().is_empty(),
            "failed-assumption extraction over the compacted arena"
        );
        assert_eq!(s.solve_with_assumptions(&[vs[1].positive()]), SolveResult::Sat);
        assert_eq!(s.model_value(vs[5]), Some(true));
    }
}
