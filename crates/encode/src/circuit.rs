//! A hash-consed Boolean circuit (AND-inverter graph) shared by both eager
//! encoders.
//!
//! Both the small-domain bit-vector encoder and the per-constraint encoder
//! lower the separation formula into this circuit; CNF conversion
//! (Tseitin or Plaisted–Greenbaum, see [`crate::cnf`]) then feeds the SAT
//! solver. Structural hashing keeps shared subformulas shared, mirroring
//! the DAG representation the paper measures formula sizes on.

use crate::hash::FxHashMap;

/// A signal: a gate output, possibly inverted. The two constants are
/// `Signal::TRUE` and `Signal::FALSE`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Signal(u32);

impl Signal {
    /// The constant-true signal.
    pub const TRUE: Signal = Signal(0);
    /// The constant-false signal.
    pub const FALSE: Signal = Signal(1);

    fn new(gate: u32, inverted: bool) -> Signal {
        Signal(gate << 1 | u32::from(inverted))
    }

    /// The gate index this signal reads.
    pub fn gate(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the signal inverts its gate's output.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this is one of the two constant signals.
    pub fn is_const(self) -> bool {
        self.gate() == 0
    }
}

impl std::ops::Not for Signal {
    type Output = Signal;

    fn not(self) -> Signal {
        Signal(self.0 ^ 1)
    }
}

/// One gate of the circuit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GateNode {
    /// Gate 0: the constant true.
    ConstTrue,
    /// A primary input, identified by a dense input index.
    Input(u32),
    /// Two-input AND of signals.
    And(Signal, Signal),
}

/// A mutable AND-inverter circuit with structural hashing.
///
/// # Examples
///
/// ```
/// use sufsat_encode::{Circuit, Signal};
///
/// let mut c = Circuit::new();
/// let a = c.input();
/// let b = c.input();
/// let ab = c.and(a, b);
/// assert_eq!(c.and(a, b), ab, "structural hashing shares gates");
/// assert_eq!(c.and(a, !a), Signal::FALSE);
/// assert_eq!(c.or(a, Signal::TRUE), Signal::TRUE);
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    gates: Vec<GateNode>,
    and_intern: FxHashMap<(Signal, Signal), Signal>,
    num_inputs: u32,
}

impl Default for Circuit {
    /// Same as [`Circuit::new`]: gate 0 must always be the constant gate,
    /// since `Signal::TRUE`/`Signal::FALSE` address it by index.
    fn default() -> Circuit {
        Circuit::new()
    }
}

impl Circuit {
    /// Creates a circuit containing only the constant gate.
    pub fn new() -> Circuit {
        Circuit {
            gates: vec![GateNode::ConstTrue],
            and_intern: FxHashMap::default(),
            num_inputs: 0,
        }
    }

    /// Number of gates (including the constant gate).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs as usize
    }

    /// The gate node at `index`.
    pub fn gate(&self, index: usize) -> &GateNode {
        &self.gates[index]
    }

    /// The primary-input index a signal reads, if it is a non-inverted
    /// input signal.
    pub fn input_index(&self, s: Signal) -> Option<u32> {
        if s.is_inverted() {
            return None;
        }
        match self.gates[s.gate()] {
            GateNode::Input(i) => Some(i),
            _ => None,
        }
    }

    /// The input signals in the fan-in cones of `roots`, each once, found
    /// in time proportional to the cones' size (plus one bit per gate).
    pub(crate) fn cone_inputs(&self, roots: &[Signal]) -> Vec<Signal> {
        let mut seen = vec![0u64; self.gates.len().div_ceil(64)];
        let mut stack: Vec<usize> = roots.iter().map(|s| s.gate()).collect();
        let mut inputs = Vec::new();
        while let Some(gate) = stack.pop() {
            let (word, bit) = (gate / 64, 1u64 << (gate % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            match self.gates[gate] {
                GateNode::ConstTrue => {}
                GateNode::Input(_) => inputs.push(Signal::new(gate as u32, false)),
                GateNode::And(a, b) => {
                    stack.push(a.gate());
                    stack.push(b.gate());
                }
            }
        }
        inputs
    }

    /// Creates a fresh primary input.
    pub fn input(&mut self) -> Signal {
        let idx = self.num_inputs;
        self.num_inputs += 1;
        let gate = self.gates.len() as u32;
        self.gates.push(GateNode::Input(idx));
        Signal::new(gate, false)
    }

    /// AND with constant folding, idempotence/complement rules and
    /// structural hashing (commutative arguments are canonicalized).
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        if a == Signal::FALSE || b == Signal::FALSE || a == !b {
            return Signal::FALSE;
        }
        if a == Signal::TRUE {
            return b;
        }
        if b == Signal::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&s) = self.and_intern.get(&(a, b)) {
            return s;
        }
        let gate = self.gates.len() as u32;
        self.gates.push(GateNode::And(a, b));
        let s = Signal::new(gate, false);
        self.and_intern.insert((a, b), s);
        s
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        let n = self.and(!a, !b);
        !n
    }

    /// XOR built from two ANDs.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let l = self.and(a, !b);
        let r = self.and(!a, b);
        self.or(l, r)
    }

    /// XNOR (equivalence).
    pub fn xnor(&mut self, a: Signal, b: Signal) -> Signal {
        let x = self.xor(a, b);
        !x
    }

    /// Multiplexer: `if c { t } else { e }`.
    pub fn mux(&mut self, c: Signal, t: Signal, e: Signal) -> Signal {
        if t == e {
            return t;
        }
        let l = self.and(c, t);
        let r = self.and(!c, e);
        self.or(l, r)
    }

    /// Implication `a → b`.
    pub fn implies(&mut self, a: Signal, b: Signal) -> Signal {
        let n = self.and(a, !b);
        !n
    }

    /// N-ary AND, folded as a balanced tree.
    pub fn and_many(&mut self, xs: &[Signal]) -> Signal {
        match xs.len() {
            0 => Signal::TRUE,
            1 => xs[0],
            n => {
                let (l, r) = xs.split_at(n / 2);
                let lt = self.and_many(l);
                let rt = self.and_many(r);
                self.and(lt, rt)
            }
        }
    }

    /// N-ary OR, folded as a balanced tree.
    pub fn or_many(&mut self, xs: &[Signal]) -> Signal {
        match xs.len() {
            0 => Signal::FALSE,
            1 => xs[0],
            n => {
                let (l, r) = xs.split_at(n / 2);
                let lt = self.or_many(l);
                let rt = self.or_many(r);
                self.or(lt, rt)
            }
        }
    }

    // ---- bit-vector helpers (for the SD encoder) ------------------------

    /// Constant bit-vector of `width` bits, little-endian.
    pub fn const_bits(&self, value: u64, width: usize) -> Vec<Signal> {
        (0..width)
            .map(|i| {
                if value >> i & 1 == 1 {
                    Signal::TRUE
                } else {
                    Signal::FALSE
                }
            })
            .collect()
    }

    /// Fresh input bit-vector, zero-extended to `width` from `var_bits`
    /// genuine inputs.
    pub fn input_bits(&mut self, var_bits: usize, width: usize) -> Vec<Signal> {
        let mut out: Vec<Signal> = (0..var_bits).map(|_| self.input()).collect();
        out.resize(width, Signal::FALSE);
        out
    }

    /// Adds the two's-complement constant `k` to a little-endian bit-vector,
    /// wrapping at its width. Callers guarantee no semantic under/overflow.
    pub fn add_const(&mut self, bits: &[Signal], k: i64) -> Vec<Signal> {
        let width = bits.len();
        let kbits = self.const_bits(k as u64 & mask(width), width);
        self.add(bits, &kbits)
    }

    /// Ripple-carry addition of equal-width little-endian vectors (wraps).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add(&mut self, a: &[Signal], b: &[Signal]) -> Vec<Signal> {
        assert_eq!(a.len(), b.len(), "bit-vector width mismatch");
        let mut out = Vec::with_capacity(a.len());
        let mut carry = Signal::FALSE;
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            let sum = self.xor(xy, carry);
            let c1 = self.and(x, y);
            let c2 = self.and(xy, carry);
            carry = self.or(c1, c2);
            out.push(sum);
        }
        out
    }

    /// Bitwise equality of equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn eq_bits(&mut self, a: &[Signal], b: &[Signal]) -> Signal {
        assert_eq!(a.len(), b.len(), "bit-vector width mismatch");
        let eqs: Vec<Signal> = a.iter().zip(b).map(|(&x, &y)| self.xnor(x, y)).collect();
        self.and_many(&eqs)
    }

    /// Unsigned `a < b` over equal-width little-endian vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn lt_bits(&mut self, a: &[Signal], b: &[Signal]) -> Signal {
        assert_eq!(a.len(), b.len(), "bit-vector width mismatch");
        // From LSB to MSB: lt = (!a & b) | (a==b & lt_below).
        let mut lt = Signal::FALSE;
        for (&x, &y) in a.iter().zip(b) {
            let strict = self.and(!x, y);
            let same = self.xnor(x, y);
            let keep = self.and(same, lt);
            lt = self.or(strict, keep);
        }
        lt
    }

    /// Per-bit multiplexer over equal-width vectors.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mux_bits(&mut self, c: Signal, t: &[Signal], e: &[Signal]) -> Vec<Signal> {
        assert_eq!(t.len(), e.len(), "bit-vector width mismatch");
        t.iter().zip(e).map(|(&x, &y)| self.mux(c, x, y)).collect()
    }

    /// Evaluates `s` under concrete input values (indexed by input number).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than the number of inputs used.
    pub fn eval(&self, s: Signal, inputs: &[bool]) -> bool {
        let mut values = vec![None::<bool>; self.gates.len()];
        values[0] = Some(true);
        // Iterative topological evaluation.
        let mut stack = vec![s.gate()];
        while let Some(&g) = stack.last() {
            if values[g].is_some() {
                stack.pop();
                continue;
            }
            match &self.gates[g] {
                GateNode::ConstTrue => {
                    values[g] = Some(true);
                    stack.pop();
                }
                GateNode::Input(i) => {
                    values[g] = Some(inputs[*i as usize]);
                    stack.pop();
                }
                GateNode::And(a, b) => {
                    let (ga, gb) = (a.gate(), b.gate());
                    match (values[ga], values[gb]) {
                        (Some(va), Some(vb)) => {
                            let va = va ^ a.is_inverted();
                            let vb = vb ^ b.is_inverted();
                            values[g] = Some(va && vb);
                            stack.pop();
                        }
                        _ => {
                            if values[ga].is_none() {
                                stack.push(ga);
                            }
                            if values[gb].is_none() {
                                stack.push(gb);
                            }
                        }
                    }
                }
            }
        }
        values[s.gate()].expect("evaluated") ^ s.is_inverted()
    }

    /// Evaluates a bit-vector to an integer under concrete inputs.
    pub fn eval_bits(&self, bits: &[Signal], inputs: &[bool]) -> u64 {
        bits.iter().enumerate().fold(0u64, |acc, (i, &b)| {
            acc | (u64::from(self.eval(b, inputs)) << i)
        })
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reserves_the_constant_gate() {
        // A derived Default once left `gates` empty, so the first input
        // landed on gate 0 and aliased Signal::TRUE — every clause built
        // from it silently vanished at CNF load.
        let mut c = Circuit::default();
        assert_eq!(c.num_gates(), 1);
        let a = c.input();
        assert!(!a.is_const());
        assert_ne!(a, Signal::TRUE);
    }

    #[test]
    fn constant_folding_rules() {
        let mut c = Circuit::new();
        let a = c.input();
        assert_eq!(c.and(a, Signal::TRUE), a);
        assert_eq!(c.and(a, Signal::FALSE), Signal::FALSE);
        assert_eq!(c.and(a, a), a);
        assert_eq!(c.and(a, !a), Signal::FALSE);
        assert_eq!(c.or(a, !a), Signal::TRUE);
        assert_eq!(c.mux(a, Signal::TRUE, Signal::FALSE), a);
    }

    #[test]
    fn gate_sharing() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let g1 = c.and(a, b);
        let g2 = c.and(b, a);
        assert_eq!(g1, g2);
        let n = c.num_gates();
        let _ = c.and(a, b);
        assert_eq!(c.num_gates(), n);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let x = c.xor(a, b);
        let m = c.mux(a, b, !b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let ins = [va, vb];
            assert_eq!(c.eval(x, &ins), va ^ vb);
            assert_eq!(c.eval(m, &ins), if va { vb } else { !vb });
        }
    }

    #[test]
    fn adder_adds() {
        let mut c = Circuit::new();
        let a = c.input_bits(4, 6);
        let val = |c: &Circuit, bits: &[Signal], x: u64| {
            let ins: Vec<bool> = (0..4).map(|i| x >> i & 1 == 1).collect();
            c.eval_bits(bits, &ins)
        };
        let plus5 = c.add_const(&a, 5);
        for x in 0..16u64 {
            assert_eq!(val(&c, &plus5, x), x + 5);
        }
        let minus3 = c.add_const(&a, -3);
        for x in 3..16u64 {
            assert_eq!(val(&c, &minus3, x), x - 3);
        }
    }

    #[test]
    fn comparators_compare() {
        let mut c = Circuit::new();
        let a = c.input_bits(3, 3);
        let b = c.input_bits(3, 3);
        let eq = c.eq_bits(&a, &b);
        let lt = c.lt_bits(&a, &b);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let ins: Vec<bool> = (0..3)
                    .map(|i| x >> i & 1 == 1)
                    .chain((0..3).map(|i| y >> i & 1 == 1))
                    .collect();
                assert_eq!(c.eval(eq, &ins), x == y, "{x} == {y}");
                assert_eq!(c.eval(lt, &ins), x < y, "{x} < {y}");
            }
        }
    }

    #[test]
    fn mux_bits_select() {
        let mut c = Circuit::new();
        let sel = c.input();
        let t = c.const_bits(5, 4);
        let e = c.const_bits(9, 4);
        let m = c.mux_bits(sel, &t, &e);
        assert_eq!(c.eval_bits(&m, &[true]), 5);
        assert_eq!(c.eval_bits(&m, &[false]), 9);
    }
}
