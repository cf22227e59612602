//! Gate-level circuits over the Fig. 2 cell library.
//!
//! A [`Circuit`] is a DAG of cell instances. It supports three-valued
//! functional evaluation (the workhorse of the `sinw-atpg` substrate),
//! benchmark construction (the TIG full adder = XOR3 + MAJ3 of the paper's
//! introduction), and *flattening* to a transistor-level [`Netlist`] so
//! that physical faults can be injected inside one cell of a larger design
//! and simulated with the switch-level engine.

use crate::cells::{Cell, CellKind};
use crate::netlist::{NetId, NetKind, Netlist, TransistorId};
use crate::value::Logic;

/// Index of a signal in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub usize);

/// Index of a gate (cell instance) in a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub usize);

/// Error raised by the fallible [`Circuit`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A gate was given the wrong number of inputs for its cell kind.
    ArityMismatch {
        /// The cell kind being instantiated.
        kind: CellKind,
        /// Inputs supplied.
        got: usize,
        /// Inputs the cell takes.
        expected: usize,
    },
    /// A gate input refers to a signal that does not exist (yet) — gates
    /// must be added in topological order.
    UnknownSignal(SignalId),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::ArityMismatch {
                kind,
                got,
                expected,
            } => write!(f, "{kind} takes {expected} inputs, got {got}"),
            CircuitError::UnknownSignal(s) => {
                write!(f, "gate input refers to unknown signal #{}", s.0)
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// One cell instance.
#[derive(Debug, Clone)]
pub struct GateInstance {
    /// Instance name.
    pub name: String,
    /// Which library cell.
    pub kind: CellKind,
    /// Input signals, in cell pin order.
    pub inputs: Vec<SignalId>,
    /// Output signal.
    pub output: SignalId,
}

/// A combinational gate-level circuit (gates stored in topological order).
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    signal_names: Vec<String>,
    primary_inputs: Vec<SignalId>,
    primary_outputs: Vec<SignalId>,
    gates: Vec<GateInstance>,
    /// driver[sig] = gate that produces the signal (None for PIs).
    driver: Vec<Option<GateId>>,
    /// fanout_adj[sig] = (gate, pin) pairs fed by the signal, maintained
    /// incrementally by [`Circuit::try_add_gate`] so [`Circuit::fanout`]
    /// is an O(1) slice borrow instead of an O(gates) scan-and-allocate.
    fanout_adj: Vec<Vec<(GateId, usize)>>,
}

impl Circuit {
    /// An empty circuit.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = SignalId(self.signal_names.len());
        self.signal_names.push(name.into());
        self.driver.push(None);
        self.fanout_adj.push(Vec::new());
        self.primary_inputs.push(id);
        id
    }

    /// Add a gate, rejecting arity mismatches and dangling inputs.
    ///
    /// Gate inputs must already exist — this keeps the gate list in
    /// topological order, which every simulator in the workspace relies on.
    /// Returns the new output signal.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ArityMismatch`] if the number of inputs does
    /// not match the cell kind, and [`CircuitError::UnknownSignal`] if an
    /// input id is out of range.
    pub fn try_add_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[SignalId],
    ) -> Result<SignalId, CircuitError> {
        if inputs.len() != kind.input_count() {
            return Err(CircuitError::ArityMismatch {
                kind,
                got: inputs.len(),
                expected: kind.input_count(),
            });
        }
        if let Some(bad) = inputs.iter().find(|s| s.0 >= self.signal_names.len()) {
            return Err(CircuitError::UnknownSignal(*bad));
        }
        let name = name.into();
        let output = SignalId(self.signal_names.len());
        let gid = GateId(self.gates.len());
        for (pin, s) in inputs.iter().enumerate() {
            self.fanout_adj[s.0].push((gid, pin));
        }
        self.signal_names.push(format!("{name}.out"));
        self.driver.push(Some(gid));
        self.fanout_adj.push(Vec::new());
        self.gates.push(GateInstance {
            name,
            kind,
            inputs: inputs.to_vec(),
            output,
        });
        Ok(output)
    }

    /// Add a gate; its inputs must already exist (keeps the gate list in
    /// topological order). Returns the new output signal.
    ///
    /// Panicking wrapper around [`Circuit::try_add_gate`] for hand-built
    /// circuits and the parametric generators, where a mismatch is a
    /// programming error.
    ///
    /// # Panics
    ///
    /// Panics if the input arity does not match the cell kind or an input
    /// signal does not exist.
    pub fn add_gate(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: &[SignalId],
    ) -> SignalId {
        match self.try_add_gate(kind, name, inputs) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Mark a signal as a primary output.
    pub fn mark_output(&mut self, sig: SignalId) {
        if !self.primary_outputs.contains(&sig) {
            self.primary_outputs.push(sig);
        }
    }

    /// Primary inputs, in creation order.
    #[must_use]
    pub fn primary_inputs(&self) -> &[SignalId] {
        &self.primary_inputs
    }

    /// Primary outputs, in marking order.
    #[must_use]
    pub fn primary_outputs(&self) -> &[SignalId] {
        &self.primary_outputs
    }

    /// All gates, topologically sorted.
    #[must_use]
    pub fn gates(&self) -> &[GateInstance] {
        &self.gates
    }

    /// Gate producing `sig`, if any.
    #[must_use]
    pub fn driver(&self, sig: SignalId) -> Option<GateId> {
        self.driver[sig.0]
    }

    /// Gates and pin positions fed by `sig`, in gate order.
    ///
    /// Backed by an incrementally maintained adjacency list, so this is an
    /// O(1) borrow — callers that need the whole index flat in memory
    /// (e.g. the event-driven fault-sim kernel) should build a
    /// [`FanoutCsr`] once instead of borrowing signal by signal.
    #[must_use]
    pub fn fanout(&self, sig: SignalId) -> &[(GateId, usize)] {
        &self.fanout_adj[sig.0]
    }

    /// Number of signals.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.signal_names.len()
    }

    /// Name of a signal.
    #[must_use]
    pub fn signal_name(&self, sig: SignalId) -> &str {
        &self.signal_names[sig.0]
    }

    /// Look a signal up by name (first match; names are labels, uniqueness
    /// is the builder's responsibility — the `.bench` frontend guarantees
    /// it for parsed circuits).
    #[must_use]
    pub fn find_signal(&self, name: &str) -> Option<SignalId> {
        self.signal_names
            .iter()
            .position(|n| n == name)
            .map(SignalId)
    }

    /// Rename a signal. Used by the `.bench` frontend so the cell driving a
    /// named benchmark net carries that net's name instead of the
    /// auto-generated `<instance>.out` label.
    pub fn set_signal_name(&mut self, sig: SignalId, name: impl Into<String>) {
        self.signal_names[sig.0] = name.into();
    }

    /// Three-valued functional simulation; `inputs` are the PI values in
    /// [`Circuit::primary_inputs`] order. Returns every signal's value.
    #[must_use]
    pub fn eval(&self, inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(inputs.len(), self.primary_inputs.len(), "PI arity");
        let mut values = vec![Logic::X; self.signal_count()];
        for (pi, v) in self.primary_inputs.iter().zip(inputs) {
            values[pi.0] = *v;
        }
        for gate in &self.gates {
            let in_vals: Vec<Logic> = gate.inputs.iter().map(|s| values[s.0]).collect();
            values[gate.output.0] = eval_cell(gate.kind, &in_vals);
        }
        values
    }

    /// Convenience: primary-output values for a boolean input vector.
    #[must_use]
    pub fn eval_outputs(&self, inputs: &[bool]) -> Vec<Logic> {
        let logic: Vec<Logic> = inputs.iter().map(|b| Logic::from_bool(*b)).collect();
        let values = self.eval(&logic);
        self.primary_outputs.iter().map(|o| values[o.0]).collect()
    }

    /// Flatten to a transistor-level netlist.
    ///
    /// Every cell instance is expanded to its Fig. 2 netlist; DP cells'
    /// complemented inputs are generated with automatically inserted SP
    /// inverters (dual-rail signals are assumed available at the cell
    /// boundary in the paper; the explicit inverters make the flat netlist
    /// self-contained).
    #[must_use]
    pub fn flatten(&self) -> FlatCircuit {
        let mut nl = Netlist::new();
        let vdd = nl.add_net("vdd", NetKind::Supply);
        let gnd = nl.add_net("gnd", NetKind::Ground);
        // One net per signal.
        let mut signal_net: Vec<NetId> = Vec::with_capacity(self.signal_count());
        for (i, name) in self.signal_names.iter().enumerate() {
            let sig = SignalId(i);
            let kind = if self.primary_inputs.contains(&sig) {
                NetKind::Input
            } else if self.primary_outputs.contains(&sig) {
                NetKind::Output
            } else {
                NetKind::Internal
            };
            signal_net.push(nl.add_net(format!("s_{name}"), kind));
        }
        // Complement nets, created on demand with an inverter.
        let mut complement: Vec<Option<NetId>> = vec![None; self.signal_count()];
        let mut gate_transistors: Vec<Vec<TransistorId>> = Vec::with_capacity(self.gates.len());
        let mut inverter_count = 0usize;

        let mut get_complement =
            |nl: &mut Netlist, complement: &mut Vec<Option<NetId>>, sig: SignalId| -> NetId {
                if let Some(n) = complement[sig.0] {
                    return n;
                }
                let name = format!("n_{}", self.signal_names[sig.0]);
                let cnet = nl.add_net(name, NetKind::Internal);
                inverter_count += 1;
                let inv = format!("cinv{inverter_count}");
                nl.add_tig(format!("{inv}.t1"), vdd, cnet, signal_net[sig.0], gnd);
                nl.add_tig(format!("{inv}.t3"), gnd, cnet, signal_net[sig.0], vdd);
                complement[sig.0] = Some(cnet);
                cnet
            };

        for gate in &self.gates {
            let cell = Cell::build(gate.kind);
            let mut tids = Vec::new();
            // Map the cell's local nets into the flat netlist.
            let mut local_map: Vec<Option<NetId>> = vec![None; cell.netlist.net_count()];
            for (k, local) in cell.inputs.iter().enumerate() {
                local_map[local.0] = Some(signal_net[gate.inputs[k].0]);
            }
            for (k, local) in cell.n_inputs.iter().enumerate() {
                let c = get_complement(&mut nl, &mut complement, gate.inputs[k]);
                local_map[local.0] = Some(c);
            }
            local_map[cell.output.0] = Some(signal_net[gate.output.0]);
            for (li, local) in cell.netlist.nets().iter().enumerate() {
                if local_map[li].is_none() {
                    local_map[li] = Some(match local.kind {
                        NetKind::Supply => vdd,
                        NetKind::Ground => gnd,
                        _ => nl.add_net(format!("{}.{}", gate.name, local.name), NetKind::Internal),
                    });
                }
            }
            for t in cell.netlist.transistors() {
                let tid = nl.add_transistor(
                    format!("{}.{}", gate.name, t.name),
                    local_map[t.source.0].expect("mapped"),
                    local_map[t.drain.0].expect("mapped"),
                    local_map[t.cg.0].expect("mapped"),
                    local_map[t.pgs.0].expect("mapped"),
                    local_map[t.pgd.0].expect("mapped"),
                );
                tids.push(tid);
            }
            gate_transistors.push(tids);
        }

        FlatCircuit {
            netlist: nl,
            signal_net,
            gate_transistors,
        }
    }

    // ------------------------------------------------------------------
    // Benchmark circuits
    // ------------------------------------------------------------------

    /// The TIG full adder the paper's compact-realisation argument implies:
    /// `sum = XOR3(a,b,cin)`, `cout = MAJ3(a,b,cin)` — two cells, eight
    /// transistors.
    #[must_use]
    pub fn full_adder() -> Self {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let cin = c.add_input("cin");
        let sum = c.add_gate(CellKind::Xor3, "fa_sum", &[a, b, cin]);
        let cout = c.add_gate(CellKind::Maj3, "fa_cout", &[a, b, cin]);
        c.mark_output(sum);
        c.mark_output(cout);
        c
    }

    /// An `n`-bit ripple-carry adder built from TIG full adders. Outputs
    /// are `sum[0..n]` followed by the final carry.
    #[must_use]
    pub fn ripple_adder(n: usize) -> Self {
        assert!(n >= 1, "adder needs at least one bit");
        let mut c = Circuit::new();
        let a: Vec<SignalId> = (0..n).map(|i| c.add_input(format!("a{i}"))).collect();
        let b: Vec<SignalId> = (0..n).map(|i| c.add_input(format!("b{i}"))).collect();
        let mut carry = c.add_input("cin");
        for i in 0..n {
            let sum = c.add_gate(CellKind::Xor3, format!("s{i}"), &[a[i], b[i], carry]);
            let cout = c.add_gate(CellKind::Maj3, format!("c{i}"), &[a[i], b[i], carry]);
            c.mark_output(sum);
            carry = cout;
        }
        c.mark_output(carry);
        c
    }

    /// An `n`-input parity tree of XOR2 cells.
    #[must_use]
    pub fn parity_tree(n: usize) -> Self {
        assert!(n >= 2, "parity needs at least two inputs");
        let mut c = Circuit::new();
        let mut layer: Vec<SignalId> = (0..n).map(|i| c.add_input(format!("i{i}"))).collect();
        let mut k = 0usize;
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    k += 1;
                    next.push(c.add_gate(CellKind::Xor2, format!("x{k}"), &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        c.mark_output(layer[0]);
        c
    }

    /// The ISCAS-85 c17 benchmark (six NAND2 gates), the smallest standard
    /// ATPG exercise.
    #[must_use]
    pub fn c17() -> Self {
        let mut c = Circuit::new();
        let i1 = c.add_input("1");
        let i2 = c.add_input("2");
        let i3 = c.add_input("3");
        let i6 = c.add_input("6");
        let i7 = c.add_input("7");
        let g10 = c.add_gate(CellKind::Nand2, "g10", &[i1, i3]);
        let g11 = c.add_gate(CellKind::Nand2, "g11", &[i3, i6]);
        let g16 = c.add_gate(CellKind::Nand2, "g16", &[i2, g11]);
        let g19 = c.add_gate(CellKind::Nand2, "g19", &[g11, i7]);
        let g22 = c.add_gate(CellKind::Nand2, "g22", &[g10, g16]);
        let g23 = c.add_gate(CellKind::Nand2, "g23", &[g16, g19]);
        c.mark_output(g22);
        c.mark_output(g23);
        c
    }
}

/// Compressed-sparse-row fanout index of a [`Circuit`]: every signal's
/// `(gate, pin)` consumers in one flat allocation.
///
/// [`Circuit::fanout`] already answers per-signal queries in O(1) from the
/// incrementally maintained adjacency; this index additionally lays the
/// whole fanout relation out contiguously (one offsets array, one entries
/// array), which is what level-ordered traversals such as the event-driven
/// fault-simulation kernel in `sinw-atpg` want: a cone walk touches many
/// signals' fanout lists in quick succession and should not pointer-chase
/// one heap allocation per signal.
#[derive(Debug, Clone)]
pub struct FanoutCsr {
    /// `offsets[sig]..offsets[sig + 1]` indexes `entries`; length is
    /// `signal_count + 1`.
    offsets: Vec<usize>,
    /// `(consumer gate, pin)` pairs, grouped by driven signal.
    entries: Vec<(GateId, usize)>,
}

impl FanoutCsr {
    /// Build the index in O(signals + pins).
    #[must_use]
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.signal_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::new();
        offsets.push(0);
        for s in 0..n {
            entries.extend_from_slice(circuit.fanout(SignalId(s)));
            offsets.push(entries.len());
        }
        FanoutCsr { offsets, entries }
    }

    /// `(gate, pin)` consumers of a signal, in gate order.
    #[must_use]
    pub fn fanout(&self, sig: SignalId) -> &[(GateId, usize)] {
        &self.entries[self.offsets[sig.0]..self.offsets[sig.0 + 1]]
    }

    /// Total number of fanout entries (= total gate input pins).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

/// A flattened circuit: transistor-level netlist plus the maps back to the
/// gate-level view.
#[derive(Debug, Clone)]
pub struct FlatCircuit {
    /// The flat transistor netlist (with auto-inserted complement
    /// inverters for DP cells).
    pub netlist: Netlist,
    /// Net of each gate-level signal.
    pub signal_net: Vec<NetId>,
    /// Transistors of each gate instance, in cell order (t1, t2, …).
    pub gate_transistors: Vec<Vec<TransistorId>>,
}

/// Evaluate a library cell on three-valued inputs: if every completion of
/// the X inputs agrees, the result is that value, otherwise X.
///
/// The completions are enumerated in place over a `[bool; 3]` scratch
/// (every cell has at most three inputs), so a call allocates nothing;
/// PODEM's implication calls this once per re-evaluated gate.
///
/// # Panics
///
/// Panics if `inputs` holds more than three values.
#[must_use]
pub fn eval_cell(kind: CellKind, inputs: &[Logic]) -> Logic {
    let n = inputs.len();
    let mut bools = [false; 3];
    let mut x_positions = [0usize; 3];
    let mut x_count = 0;
    for (i, v) in inputs.iter().enumerate() {
        match v {
            Logic::One => bools[i] = true,
            Logic::Zero => {}
            Logic::X => {
                x_positions[x_count] = i;
                x_count += 1;
            }
        }
    }
    if x_count == n && n > 0 {
        return Logic::X;
    }
    let mut result: Option<bool> = None;
    for fill in 0..(1u32 << x_count) {
        for (k, p) in x_positions[..x_count].iter().enumerate() {
            bools[*p] = (fill >> k) & 1 == 1;
        }
        let v = kind.function(&bools[..n]);
        match result {
            None => result = Some(v),
            Some(prev) if prev != v => return Logic::X,
            _ => {}
        }
    }
    Logic::from_bool(result.expect("at least one completion"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SwitchSim;

    #[test]
    fn eval_cell_handles_x_pessimistically_but_precisely() {
        use Logic::{One, Zero, X};
        // NAND with one controlling 0 is 1 regardless of the X.
        assert_eq!(eval_cell(CellKind::Nand2, &[Zero, X]), One);
        assert_eq!(eval_cell(CellKind::Nand2, &[One, X]), X);
        // XOR never has a controlling value.
        assert_eq!(eval_cell(CellKind::Xor2, &[Zero, X]), X);
        // MAJ with two equal knowns is decided.
        assert_eq!(eval_cell(CellKind::Maj3, &[One, One, X]), One);
        assert_eq!(eval_cell(CellKind::Maj3, &[One, Zero, X]), X);
    }

    #[test]
    fn eval_cell_matches_the_completion_definition_exhaustively() {
        // Every cell, every one of the 3^arity three-valued inputs: the
        // result is the common value of `function` over all boolean
        // completions of the X inputs, or X when two completions differ.
        const LEVELS: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];
        let mut cases = 0;
        for kind in CellKind::ALL {
            let n = kind.input_count();
            for code in 0..3usize.pow(n as u32) {
                let inputs: Vec<Logic> = (0..n)
                    .map(|i| LEVELS[code / 3usize.pow(i as u32) % 3])
                    .collect();
                let mut seen = [false; 2];
                for bits in 0..1u32 << n {
                    let completion: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                    let agrees = inputs
                        .iter()
                        .zip(&completion)
                        .all(|(v, b)| *v == Logic::X || *v == Logic::from_bool(*b));
                    if agrees {
                        seen[usize::from(kind.function(&completion))] = true;
                    }
                }
                let expect = match seen {
                    [true, false] => Logic::Zero,
                    [false, true] => Logic::One,
                    _ => Logic::X,
                };
                assert_eq!(eval_cell(kind, &inputs), expect, "{kind} on {inputs:?}");
                cases += 1;
            }
        }
        assert_eq!(cases, 84);
    }

    #[test]
    fn full_adder_truth_table() {
        let c = Circuit::full_adder();
        for bits in 0..8u32 {
            let v = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            let outs = c.eval_outputs(&v);
            let sum = v[0] ^ v[1] ^ v[2];
            let cout = (v[0] & v[1]) | (v[1] & v[2]) | (v[0] & v[2]);
            assert_eq!(outs[0], Logic::from_bool(sum), "sum at {v:?}");
            assert_eq!(outs[1], Logic::from_bool(cout), "cout at {v:?}");
        }
    }

    #[test]
    fn ripple_adder_adds() {
        let n = 4;
        let c = Circuit::ripple_adder(n);
        for a in 0..16u32 {
            for b in [0u32, 3, 9, 15] {
                let mut inputs = Vec::new();
                for i in 0..n {
                    inputs.push((a >> i) & 1 == 1);
                }
                for i in 0..n {
                    inputs.push((b >> i) & 1 == 1);
                }
                inputs.push(false); // cin
                                    // PI order is a0..a3, b0..b3, cin — matches creation order.
                let outs = c.eval_outputs(&inputs);
                let expect = a + b;
                for (i, o) in outs.iter().enumerate() {
                    let bit = (expect >> i) & 1 == 1;
                    assert_eq!(*o, Logic::from_bool(bit), "bit {i} of {a}+{b}");
                }
            }
        }
    }

    #[test]
    fn parity_tree_matches_xor_reduction() {
        let c = Circuit::parity_tree(5);
        for bits in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| (bits >> i) & 1 == 1).collect();
            let outs = c.eval_outputs(&v);
            let parity = v.iter().fold(false, |acc, b| acc ^ b);
            assert_eq!(outs[0], Logic::from_bool(parity), "vector {v:?}");
        }
    }

    #[test]
    fn c17_has_known_response() {
        let c = Circuit::c17();
        // All-ones input: g11 = nand(1,1)=0, g16 = nand(1,0)=1,
        // g10 = 0, g19 = nand(0,1)=1, g22 = nand(0,1)=1, g23 = nand(1,1)=0.
        let outs = c.eval_outputs(&[true, true, true, true, true]);
        assert_eq!(outs, vec![Logic::One, Logic::Zero]);
    }

    #[test]
    fn flattened_full_adder_matches_gate_level() {
        let c = Circuit::full_adder();
        let flat = c.flatten();
        for bits in 0..8u32 {
            let v = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            let mut sim = SwitchSim::new(&flat.netlist);
            let assignment: Vec<(NetId, Logic)> = c
                .primary_inputs()
                .iter()
                .zip(v.iter())
                .map(|(s, b)| (flat.signal_net[s.0], Logic::from_bool(*b)))
                .collect();
            let r = sim.apply(&assignment);
            let outs = c.eval_outputs(&v);
            for (k, o) in c.primary_outputs().iter().enumerate() {
                assert_eq!(
                    r.value(flat.signal_net[o.0]),
                    outs[k],
                    "output {k} at {v:?}"
                );
            }
            assert!(!r.rail_short, "healthy adder must not short at {v:?}");
        }
    }

    #[test]
    fn fanout_index_matches_a_direct_scan() {
        let c = Circuit::c17();
        let csr = FanoutCsr::build(&c);
        let mut total = 0usize;
        for s in 0..c.signal_count() {
            let sig = SignalId(s);
            // Reference: the O(gates) scan the incremental adjacency replaced.
            let mut scanned = Vec::new();
            for (gi, g) in c.gates().iter().enumerate() {
                for (pin, t) in g.inputs.iter().enumerate() {
                    if *t == sig {
                        scanned.push((GateId(gi), pin));
                    }
                }
            }
            assert_eq!(c.fanout(sig), scanned.as_slice(), "signal {s}");
            assert_eq!(csr.fanout(sig), scanned.as_slice(), "signal {s} (CSR)");
            total += scanned.len();
        }
        // c17: six NAND2 gates, two pins each.
        assert_eq!(csr.entry_count(), 12);
        assert_eq!(total, 12);
    }

    #[test]
    fn flatten_inserts_complement_inverters_once_per_signal() {
        // XOR2(a,b) needs complements of a and b: 4 cell transistors + 2
        // inverters of 2 transistors each.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let x1 = c.add_gate(CellKind::Xor2, "x1", &[a, b]);
        // A second XOR reusing `a` must not duplicate a's inverter.
        let x2 = c.add_gate(CellKind::Xor2, "x2", &[a, x1]);
        c.mark_output(x2);
        let flat = c.flatten();
        // 2 XOR cells (4 each) + complements for a, b, x1 (2 each) = 14.
        assert_eq!(flat.netlist.transistor_count(), 14);
    }
}
