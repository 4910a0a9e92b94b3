//! CNF conversion of circuits into the SAT solver.
//!
//! Two conversion modes are provided: classic Tseitin (every used gate gets
//! both implication directions) and polarity-aware Plaisted–Greenbaum
//! (only the implications required by the gate's occurrence polarities) —
//! one of the design choices the benchmark harness ablates.
//!
//! Every table of the loader is indexed by gate (or input) number: the
//! variable of each gate and input, the polarities Plaisted–Greenbaum
//! needs and the polarities already emitted. Gates are numbered densely
//! from 0, so a table lookup is one array index, and the traversal
//! stacks are kept between calls, so loading allocates nothing per
//! literal. The solver's variables are numbered in the order the loader
//! first meets each gate, which depends only on the circuit and the order
//! of the assertions and clauses it is given.

use sufsat_sat::{Lit, Solver, Var};

use crate::circuit::{Circuit, GateNode, Signal};

/// CNF conversion style.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default)]
pub enum CnfMode {
    /// Full Tseitin encoding: three clauses per AND gate.
    #[default]
    Tseitin,
    /// Plaisted–Greenbaum: implications only for needed polarities.
    PlaistedGreenbaum,
}

/// Mapping from circuit inputs/gates to SAT variables, produced by
/// [`load_into_solver`]. Needed to decode SAT models back into circuit
/// input assignments.
#[derive(Debug, Clone, Default)]
pub struct SignalMap {
    /// Variable per gate index, where one was allocated.
    gate_var: Vec<Option<Var>>,
    /// Variable per input index, where one was allocated.
    input_var: Vec<Option<Var>>,
}

impl SignalMap {
    /// The SAT variable allocated for circuit input `index`, if any gate
    /// using it was loaded.
    pub fn input_var(&self, index: usize) -> Option<Var> {
        self.input_var.get(index).copied().flatten()
    }

    /// The SAT literal for a signal, if its gate was loaded.
    pub fn lit(&self, s: Signal) -> Option<Lit> {
        self.gate_var
            .get(s.gate())
            .copied()
            .flatten()
            .map(|v| Lit::new(v, !s.is_inverted()))
    }

    /// The model value of input `index` from a satisfied solver
    /// (`false` for inputs the encoding never constrained).
    pub fn input_value(&self, solver: &Solver, index: usize) -> bool {
        self.input_var(index)
            .and_then(|v| solver.model_value(v))
            .unwrap_or(false)
    }
}

/// Loads circuit constraints into `solver`:
///
/// * every signal in `assertions` is constrained to be true;
/// * every clause in `clauses` (a disjunction of signals) is asserted.
///
/// Returns the signal-to-variable mapping for model decoding.
pub fn load_into_solver(
    circuit: &Circuit,
    assertions: &[Signal],
    clauses: &[Vec<Signal>],
    mode: CnfMode,
    solver: &mut Solver,
) -> SignalMap {
    let mut loader = IncrementalLoader::new(mode);
    loader.load(circuit, assertions, clauses, solver);
    loader.into_map()
}

/// Resumable CNF loading state for an append-only circuit.
///
/// [`load_into_solver`] converts one snapshot of a circuit in a single
/// shot; an incremental session instead keeps growing its circuit and
/// needs later loads to reuse the gate-to-variable mapping and the
/// already-emitted gate definitions of earlier loads. This struct owns
/// exactly that state (the [`SignalMap`] plus per-gate polarity and
/// emission bookkeeping) while borrowing the circuit and solver only for
/// the duration of each call, so it can persist across checks.
#[derive(Debug, Default)]
pub struct IncrementalLoader {
    mode: CnfMode,
    map: SignalMap,
    /// Needed polarities per gate; Plaisted–Greenbaum only, 0 where a
    /// gate was never required.
    polarity: Vec<u8>,
    /// Polarities already emitted per gate.
    emitted: Vec<u8>,
    /// Scratch stack of [`Self::require`].
    require_stack: Vec<(Signal, u8)>,
    /// Scratch stack of [`Self::define`].
    define_stack: Vec<usize>,
}

impl IncrementalLoader {
    /// An empty loader for the given CNF conversion style.
    pub fn new(mode: CnfMode) -> IncrementalLoader {
        IncrementalLoader {
            mode,
            ..IncrementalLoader::default()
        }
    }

    /// The signal-to-variable mapping accumulated so far.
    pub fn map(&self) -> &SignalMap {
        &self.map
    }

    /// Consumes the loader, returning the accumulated mapping.
    pub fn into_map(self) -> SignalMap {
        self.map
    }

    /// Loads assertions and clauses permanently (unguarded), emitting
    /// gate definitions only for cones not already defined by earlier
    /// calls against the same (append-only) circuit.
    pub fn load(
        &mut self,
        circuit: &Circuit,
        assertions: &[Signal],
        clauses: &[Vec<Signal>],
        solver: &mut Solver,
    ) {
        self.grow(circuit);
        let signals = || assertions.iter().chain(clauses.iter().flatten()).copied();

        // Polarity seeding: only Plaisted–Greenbaum reads polarities.
        if self.mode == CnfMode::PlaistedGreenbaum {
            for s in signals() {
                self.require(circuit, s, POS);
            }
        }

        // Emit gate definitions bottom-up for everything reachable.
        for s in signals() {
            self.define(circuit, solver, s.gate());
        }

        // Assert top-level constraints.
        for &s in assertions {
            match self.literal(circuit, solver, s) {
                Ok(lit) => {
                    solver.add_clause([lit]);
                }
                Err(true) => {}
                Err(false) => {
                    solver.add_clause([]);
                }
            }
        }
        let mut lits = Vec::new();
        for clause in clauses {
            lits.clear();
            let mut satisfied = false;
            for &l in clause {
                match self.literal(circuit, solver, l) {
                    Ok(lit) => lits.push(lit),
                    Err(true) => {
                        satisfied = true;
                        break;
                    }
                    Err(false) => {}
                }
            }
            if !satisfied {
                solver.add_clause(lits.iter().copied());
            }
        }
    }

    /// Loads signal `s` guarded by activation literal `act`: emits the
    /// defining cone (shared, unguarded — gate definitions are universally
    /// valid) and the single guarded clause `¬act ∨ s`, so the assertion
    /// holds exactly when `act` is assumed. A constant-false signal
    /// becomes the unit `¬act` (checks assuming `act` then answer unsat
    /// with `act` in the failed-assumption core); a constant-true signal
    /// needs no clause.
    pub fn load_guarded(&mut self, circuit: &Circuit, act: Lit, s: Signal, solver: &mut Solver) {
        self.grow(circuit);
        if self.mode == CnfMode::PlaistedGreenbaum {
            self.require(circuit, s, POS);
        }
        self.define(circuit, solver, s.gate());
        match self.literal(circuit, solver, s) {
            Ok(lit) => {
                solver.add_clause([!act, lit]);
            }
            Err(true) => {}
            Err(false) => {
                solver.add_clause([!act]);
            }
        }
    }

    /// The SAT literal of a signal, allocating its variable (and emitting
    /// nothing); `Err(value)` for constants.
    pub fn literal_of(
        &mut self,
        circuit: &Circuit,
        s: Signal,
        solver: &mut Solver,
    ) -> Result<Lit, bool> {
        self.grow(circuit);
        self.literal(circuit, solver, s)
    }

    /// Extends the per-gate and per-input tables to the circuit's current
    /// size (the circuit only ever grows).
    fn grow(&mut self, circuit: &Circuit) {
        let gates = circuit.num_gates();
        self.map.gate_var.resize(gates, None);
        self.map.input_var.resize(circuit.num_inputs(), None);
        self.emitted.resize(gates, 0);
        if self.mode == CnfMode::PlaistedGreenbaum {
            self.polarity.resize(gates, 0);
        }
    }

    /// Records that signal `s` is needed with polarity `p`, propagating
    /// through the fan-in cone.
    fn require(&mut self, circuit: &Circuit, s: Signal, p: u8) {
        let mut stack = std::mem::take(&mut self.require_stack);
        stack.push((s, p));
        while let Some((s, p)) = stack.pop() {
            let gate = s.gate();
            let gp = if s.is_inverted() { flip(p) } else { p };
            let added = gp & !self.polarity[gate];
            if added == 0 {
                continue;
            }
            self.polarity[gate] |= gp;
            if let GateNode::And(a, b) = circuit.gate(gate) {
                stack.push((*a, added));
                stack.push((*b, added));
            }
        }
        self.require_stack = stack;
    }

    /// The polarities gate `gate` must have emitted: both under Tseitin,
    /// the required ones under Plaisted–Greenbaum (both for a gate never
    /// required).
    fn wanted(&self, gate: usize) -> u8 {
        match self.mode {
            CnfMode::Tseitin => POS | NEG,
            CnfMode::PlaistedGreenbaum => match self.polarity[gate] {
                0 => POS | NEG,
                p => p,
            },
        }
    }

    /// Allocates (if needed) the SAT variable of a gate.
    fn var_of(&mut self, circuit: &Circuit, solver: &mut Solver, gate: usize) -> Var {
        if let Some(v) = self.map.gate_var[gate] {
            return v;
        }
        let v = solver.new_var();
        self.map.gate_var[gate] = Some(v);
        if let GateNode::Input(i) = circuit.gate(gate) {
            self.map.input_var[*i as usize] = Some(v);
        }
        v
    }

    /// The SAT literal of a signal; `Err(value)` for constants.
    fn literal(&mut self, circuit: &Circuit, solver: &mut Solver, s: Signal) -> Result<Lit, bool> {
        if s.is_const() {
            return Err(s == Signal::TRUE);
        }
        let v = self.var_of(circuit, solver, s.gate());
        Ok(Lit::new(v, !s.is_inverted()))
    }

    /// Emits the defining clauses of the cone rooted at `gate`,
    /// iteratively (post-order).
    fn define(&mut self, circuit: &Circuit, solver: &mut Solver, root: usize) {
        if !matches!(circuit.gate(root), GateNode::And(..)) {
            // Inputs and the constant need no clauses.
            self.emitted[root] = POS | NEG;
            return;
        }
        let mut stack = std::mem::take(&mut self.define_stack);
        stack.push(root);
        while let Some(&gate) = stack.last() {
            let want = self.wanted(gate);
            let done = self.emitted[gate];
            if done & want == want {
                stack.pop();
                continue;
            }
            match circuit.gate(gate) {
                GateNode::ConstTrue | GateNode::Input(_) => {
                    self.emitted[gate] = POS | NEG;
                    stack.pop();
                }
                GateNode::And(a, b) => {
                    let (a, b) = (*a, *b);
                    // Ensure children are defined first.
                    let need_a = !self.defined_enough(circuit, a.gate(), want, a.is_inverted());
                    let need_b = !self.defined_enough(circuit, b.gate(), want, b.is_inverted());
                    if need_a || need_b {
                        if need_a {
                            stack.push(a.gate());
                        }
                        if need_b {
                            stack.push(b.gate());
                        }
                        continue;
                    }
                    let g = self.var_of(circuit, solver, gate);
                    let glit = Lit::new(g, true);
                    let la = self.literal(circuit, solver, a);
                    let lb = self.literal(circuit, solver, b);
                    let missing = want & !done;
                    if missing & POS != 0 {
                        // g -> a, g -> b.
                        for l in [la, lb] {
                            match l {
                                Ok(l) => {
                                    solver.add_clause([!glit, l]);
                                }
                                Err(true) => {}
                                Err(false) => {
                                    solver.add_clause([!glit]);
                                }
                            }
                        }
                    }
                    if missing & NEG != 0 {
                        // a & b -> g.
                        let mut clause = [glit; 3];
                        let mut len = 1;
                        let mut trivially_true = false;
                        for l in [la, lb] {
                            match l {
                                Ok(l) => {
                                    clause[len] = !l;
                                    len += 1;
                                }
                                Err(true) => {}
                                Err(false) => trivially_true = true,
                            }
                        }
                        if !trivially_true {
                            solver.add_clause(clause[..len].iter().copied());
                        }
                    }
                    self.emitted[gate] = done | want;
                    stack.pop();
                }
            }
        }
        self.define_stack = stack;
    }

    /// Whether `gate` already has the polarities it would need as a child
    /// occurring with inversion `inv` of a parent needing `parent_want`.
    fn defined_enough(&self, circuit: &Circuit, gate: usize, parent_want: u8, inv: bool) -> bool {
        let want = match self.mode {
            CnfMode::Tseitin => POS | NEG,
            CnfMode::PlaistedGreenbaum => {
                let w = if inv { flip(parent_want) } else { parent_want };
                w & self.wanted(gate)
            }
        };
        match circuit.gate(gate) {
            GateNode::ConstTrue | GateNode::Input(_) => true,
            GateNode::And(..) => self.emitted[gate] & want == want,
        }
    }
}

const POS: u8 = 0b01;
const NEG: u8 = 0b10;

fn flip(p: u8) -> u8 {
    ((p & POS) << 1) | ((p & NEG) >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_sat::SolveResult;

    fn check_equisat(mode: CnfMode) {
        // Build (a XOR b) AND (a OR c); assert it; enumerate SAT models and
        // compare against circuit evaluation.
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let x = c.input();
        let ab = c.xor(a, b);
        let ac = c.or(a, x);
        let out = c.and(ab, ac);

        let mut solver = Solver::new();
        let map = load_into_solver(&c, &[out], &[], mode, &mut solver);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let ins = [
            map.input_value(&solver, 0),
            map.input_value(&solver, 1),
            map.input_value(&solver, 2),
        ];
        assert!(c.eval(out, &ins), "decoded model satisfies the circuit");
    }

    #[test]
    fn tseitin_model_satisfies_circuit() {
        check_equisat(CnfMode::Tseitin);
    }

    #[test]
    fn plaisted_greenbaum_model_satisfies_circuit() {
        check_equisat(CnfMode::PlaistedGreenbaum);
    }

    #[test]
    fn unsat_circuits_are_unsat() {
        for mode in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
            let mut c = Circuit::new();
            let a = c.input();
            let b = c.input();
            let ab = c.and(a, b);
            let n = c.and(!a, b);
            let both = c.and(ab, n);
            let mut solver = Solver::new();
            load_into_solver(&c, &[both], &[], mode, &mut solver);
            assert_eq!(solver.solve(), SolveResult::Unsat, "{mode:?}");
        }
    }

    #[test]
    fn extra_clauses_constrain_inputs() {
        for mode in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
            let mut c = Circuit::new();
            let a = c.input();
            let b = c.input();
            let or = c.or(a, b);
            // Assert (a | b) plus clauses (!a) and (!b): unsat.
            let mut solver = Solver::new();
            load_into_solver(&c, &[or], &[vec![!a], vec![!b]], mode, &mut solver);
            assert_eq!(solver.solve(), SolveResult::Unsat, "{mode:?}");
        }
    }

    #[test]
    fn constant_assertions() {
        let mut solver = Solver::new();
        let c = Circuit::new();
        load_into_solver(&c, &[Signal::TRUE], &[], CnfMode::Tseitin, &mut solver);
        assert_eq!(solver.solve(), SolveResult::Sat);
        let mut solver2 = Solver::new();
        load_into_solver(&c, &[Signal::FALSE], &[], CnfMode::Tseitin, &mut solver2);
        assert_eq!(solver2.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pg_emits_fewer_clauses() {
        let mut c = Circuit::new();
        let inputs: Vec<Signal> = (0..8).map(|_| c.input()).collect();
        let mut acc = Signal::TRUE;
        for w in inputs.chunks(2) {
            let o = c.or(w[0], w[1]);
            acc = c.and(acc, o);
        }
        let mut s1 = Solver::new();
        load_into_solver(&c, &[acc], &[], CnfMode::Tseitin, &mut s1);
        let mut s2 = Solver::new();
        load_into_solver(&c, &[acc], &[], CnfMode::PlaistedGreenbaum, &mut s2);
        assert!(
            s2.stats().original_clauses < s1.stats().original_clauses,
            "pg={} tseitin={}",
            s2.stats().original_clauses,
            s1.stats().original_clauses
        );
        assert_eq!(s1.solve(), SolveResult::Sat);
        assert_eq!(s2.solve(), SolveResult::Sat);
    }

    #[test]
    fn guarded_assertions_toggle_with_assumptions() {
        for mode in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
            let mut c = Circuit::new();
            let a = c.input();
            let b = c.input();
            let ab = c.and(a, b);
            let contra = c.and(a, !a);

            let mut solver = Solver::new();
            let mut loader = IncrementalLoader::new(mode);
            let act1 = Lit::new(solver.new_var(), true);
            let act2 = Lit::new(solver.new_var(), true);
            loader.load_guarded(&c, act1, ab, &mut solver);
            loader.load_guarded(&c, act2, contra, &mut solver);

            // Unguarded solve: both assertions inactive, trivially sat.
            assert_eq!(solver.solve(), sufsat_sat::SolveResult::Sat);
            // Only the consistent assertion: sat, and the model satisfies it.
            assert_eq!(
                solver.solve_with_assumptions(&[act1]),
                sufsat_sat::SolveResult::Sat
            );
            let map = loader.map();
            assert!(map.input_value(&solver, 0) && map.input_value(&solver, 1));
            // The contradiction makes it unsat, with act2 in the core.
            assert_eq!(
                solver.solve_with_assumptions(&[act1, act2]),
                sufsat_sat::SolveResult::Unsat
            );
            assert!(solver.failed_assumptions().contains(&act2), "{mode:?}");
            // Retiring act2 restores satisfiability under act1.
            solver.add_clause([!act2]);
            assert!(solver.simplify());
            assert_eq!(
                solver.solve_with_assumptions(&[act1]),
                sufsat_sat::SolveResult::Sat
            );
        }
    }

    #[test]
    fn incremental_loader_reuses_gate_definitions() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let ab = c.and(a, b);

        let mut solver = Solver::new();
        let mut loader = IncrementalLoader::new(CnfMode::Tseitin);
        loader.load(&c, &[ab], &[], &mut solver);
        let clauses_once = solver.stats().original_clauses;
        // Growing the circuit and loading a cone that shares `ab` emits
        // only the new gates' definitions, not `ab`'s again.
        let x = c.input();
        let out = c.and(ab, x);
        loader.load(&c, &[out], &[], &mut solver);
        let clauses_twice = solver.stats().original_clauses;
        assert!(
            clauses_twice - clauses_once <= 4,
            "re-emitted shared cone: {clauses_once} -> {clauses_twice}"
        );
        assert_eq!(solver.solve(), sufsat_sat::SolveResult::Sat);
        assert!(loader.map().input_value(&solver, 2));
    }

    #[test]
    fn exhaustive_equivalence_small_circuits() {
        // For all assignments: circuit-sat iff cnf-sat, via enumeration with
        // unit clauses pinning the inputs.
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let d = c.input();
        let m = c.mux(a, b, d);
        let x = c.xor(m, b);
        let out = c.or(x, d);
        for mode in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
            for bits in 0..8u32 {
                let ins = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
                let expect = c.eval(out, &ins);
                let mut solver = Solver::new();
                let map = load_into_solver(&c, &[out], &[], mode, &mut solver);
                // Pin inputs that got SAT variables; unpinned inputs are
                // irrelevant to the output value.
                for (i, &v) in ins.iter().enumerate() {
                    if let Some(var) = map.input_var(i) {
                        solver.add_clause([sufsat_sat::Lit::new(var, v)]);
                    }
                }
                let got = solver.solve() == SolveResult::Sat;
                assert_eq!(got, expect, "mode {mode:?}, bits {bits:03b}");
            }
        }
    }
}
