//! Levelized simulation graph: the precompute layer behind the
//! event-driven fault-simulation kernel.
//!
//! A [`SimGraph`] is built once per `simulate_faults*` call (O(circuit))
//! and shared read-only by every fault, block and worker thread. It
//! carries everything the event-driven faulty pass needs to make work
//! proportional to the *disturbed* region of the circuit instead of the
//! whole netlist:
//!
//! * the gate list flattened into structure-of-arrays form (cell kinds,
//!   CSR input pins, output signals) so the inner loop walks contiguous
//!   memory instead of chasing one `Vec` per gate;
//! * a **levelization**: `level(gate) = 1 + max(level of input signals)`
//!   with primary inputs at level 0. Events propagate strictly from lower
//!   to higher levels, so a level-bucketed worklist evaluates every gate
//!   at most once per faulty pass, with all of its faulty inputs final;
//! * the consumers of every signal in CSR form (built from
//!   [`sinw_switch::gate::FanoutCsr`], deduplicated when a gate reads the
//!   same signal on two pins) — the event fan-out step;
//! * a per-signal **PO-reachability bitmask**: primary output `i` owns bit
//!   `i % 64`, and a signal's mask ORs the buckets of every PO in its
//!   transitive fanout. A zero mask proves a fault site (or a live event)
//!   can never be observed, so the kernel skips it outright;
//! * each signal's **stem**: a primary output or a signal whose pin
//!   fanout is not 1 is its own; any other feeds exactly one gate pin, so
//!   its flip has one path to its stem, where the kernel propagates it.

use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, FanoutCsr, GateId, SignalId};

/// Read-only precompute shared by every fault × pattern-block pass.
///
/// See the [module docs](self) for what each field buys the kernel.
#[derive(Debug, Clone)]
pub struct SimGraph {
    /// Cell kind per gate.
    kinds: Vec<CellKind>,
    /// CSR offsets into [`SimGraph::ins`]; length `gate_count + 1`.
    in_off: Vec<u32>,
    /// Flattened gate input signals, in pin order.
    ins: Vec<u32>,
    /// Output signal per gate.
    outs: Vec<u32>,
    /// Topological level per gate (PIs sit at level 0, so gates start at 1).
    level: Vec<u32>,
    /// Number of distinct gate levels (max level + 1).
    level_count: usize,
    /// CSR offsets into [`SimGraph::consumers`]; length `signal_count + 1`.
    cons_off: Vec<u32>,
    /// Consumer gates per signal, deduplicated.
    consumers: Vec<u32>,
    /// Per-signal PO membership mask (0 unless the signal is a PO).
    po_bit: Vec<u64>,
    /// Per-signal OR of the PO buckets reachable through its fanout cone
    /// (including its own [`SimGraph::po_bit`]).
    po_reach: Vec<u64>,
    /// Stem index per signal: a stem's own, else its sole consumer
    /// output's.
    stem_of: Vec<u32>,
    /// Stem signal per stem index, ascending.
    stems: Vec<u32>,
}

impl SimGraph {
    /// Precompute the graph for a circuit in O(signals + pins).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than `u32::MAX` signals or gates
    /// (far beyond any netlist this workspace handles).
    #[must_use]
    pub fn build(circuit: &Circuit) -> Self {
        let n_sig = circuit.signal_count();
        let n_gates = circuit.gates().len();
        assert!(
            n_sig <= u32::MAX as usize && n_gates <= u32::MAX as usize,
            "SimGraph indexes signals and gates with u32"
        );

        // Flatten the gate list and levelize. Gates are stored in
        // topological order (a `Circuit` invariant), so one forward pass
        // sees every input signal's level before it is read.
        let mut kinds = Vec::with_capacity(n_gates);
        let mut in_off = Vec::with_capacity(n_gates + 1);
        let mut ins = Vec::new();
        let mut outs = Vec::with_capacity(n_gates);
        let mut level = Vec::with_capacity(n_gates);
        let mut sig_level = vec![0u32; n_sig];
        in_off.push(0u32);
        for gate in circuit.gates() {
            kinds.push(gate.kind);
            let mut lvl = 0u32;
            for s in &gate.inputs {
                ins.push(s.0 as u32);
                lvl = lvl.max(sig_level[s.0]);
            }
            in_off.push(ins.len() as u32);
            outs.push(gate.output.0 as u32);
            level.push(lvl + 1);
            sig_level[gate.output.0] = lvl + 1;
        }
        let level_count = level.iter().max().map_or(1, |m| *m as usize + 1);

        // Consumers CSR from the switch-level fanout index, deduplicating
        // multi-pin reads (the event kernel re-reads every pin anyway).
        let fanout = FanoutCsr::build(circuit);
        let mut cons_off = Vec::with_capacity(n_sig + 1);
        let mut consumers = Vec::with_capacity(fanout.entry_count());
        cons_off.push(0u32);
        for s in 0..n_sig {
            let start = consumers.len();
            for &(g, _pin) in fanout.fanout(SignalId(s)) {
                if consumers[start..].last() != Some(&(g.0 as u32)) {
                    consumers.push(g.0 as u32);
                }
            }
            cons_off.push(consumers.len() as u32);
        }

        // PO buckets, then reachability by one reverse-topological sweep.
        let mut po_bit = vec![0u64; n_sig];
        for (i, o) in circuit.primary_outputs().iter().enumerate() {
            po_bit[o.0] |= 1u64 << (i % 64);
        }
        let mut po_reach = po_bit.clone();
        for gi in (0..n_gates).rev() {
            let reach = po_reach[outs[gi] as usize];
            if reach != 0 {
                for pin in in_off[gi]..in_off[gi + 1] {
                    po_reach[ins[pin as usize] as usize] |= reach;
                }
            }
        }

        // Stems. A signal that is no PO and feeds exactly one pin takes
        // its consumer output's stem, which a reverse (topological) sweep
        // resolves first; every other signal is one.
        let in_ffr = |s: usize| po_bit[s] == 0 && fanout.fanout(SignalId(s)).len() == 1;
        let stems: Vec<u32> = (0..n_sig as u32).filter(|&s| !in_ffr(s as usize)).collect();
        let mut stem_of = vec![0u32; n_sig];
        for (i, &s) in stems.iter().enumerate() {
            stem_of[s as usize] = i as u32;
        }
        for gi in (0..n_gates).rev() {
            for pin in in_off[gi]..in_off[gi + 1] {
                let s = ins[pin as usize] as usize;
                if in_ffr(s) {
                    stem_of[s] = stem_of[outs[gi] as usize];
                }
            }
        }

        SimGraph {
            kinds,
            in_off,
            ins,
            outs,
            level,
            level_count,
            cons_off,
            consumers,
            po_bit,
            po_reach,
            stem_of,
            stems,
        }
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of signals.
    #[must_use]
    pub fn signal_count(&self) -> usize {
        self.po_bit.len()
    }

    /// Number of distinct topological levels (PI level 0 included).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.level_count
    }

    /// Cell kind of a gate.
    #[must_use]
    pub fn kind(&self, gate: GateId) -> CellKind {
        self.kinds[gate.0]
    }

    /// Topological level of a gate (≥ 1; inputs sit at level 0).
    #[must_use]
    pub fn gate_level(&self, gate: GateId) -> usize {
        self.level[gate.0] as usize
    }

    /// Input signals of a gate, flattened, in pin order.
    #[must_use]
    pub fn gate_inputs(&self, gate: GateId) -> &[u32] {
        &self.ins[self.in_off[gate.0] as usize..self.in_off[gate.0 + 1] as usize]
    }

    /// Output signal of a gate.
    #[must_use]
    pub fn gate_output(&self, gate: GateId) -> SignalId {
        SignalId(self.outs[gate.0] as usize)
    }

    /// Gates that read a signal (each listed once, even if it reads the
    /// signal on several pins), in topological order.
    #[must_use]
    pub fn consumers(&self, sig: SignalId) -> &[u32] {
        &self.consumers[self.cons_off[sig.0] as usize..self.cons_off[sig.0 + 1] as usize]
    }

    /// PO-membership mask of a signal (0 unless it is a primary output;
    /// PO `i` owns bit `i % 64`).
    #[must_use]
    pub fn po_bit(&self, sig: SignalId) -> u64 {
        self.po_bit[sig.0]
    }

    /// OR of the PO buckets reachable from a signal, its own included.
    /// Zero proves nothing downstream (or the signal itself) is observable.
    #[must_use]
    pub fn po_reach(&self, sig: SignalId) -> u64 {
        self.po_reach[sig.0]
    }

    /// Number of stems.
    pub(crate) fn stem_count(&self) -> usize {
        self.stems.len()
    }

    /// Index of the stem a signal's fanout-free region drains into.
    pub(crate) fn stem_of(&self, sig: SignalId) -> usize {
        self.stem_of[sig.0] as usize
    }

    /// The signal of stem `stem`.
    pub(crate) fn stem_signal(&self, stem: usize) -> SignalId {
        SignalId(self.stems[stem] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_levels_and_reachability() {
        let c = Circuit::c17();
        let g = SimGraph::build(&c);
        assert_eq!(g.gate_count(), 6);
        assert_eq!(g.signal_count(), 11);
        // g10/g11 read only PIs (level 1); g16/g19 read g11 (level 2);
        // g22/g23 read level-2 outputs (level 3). Levels 0..=3 → 4.
        assert_eq!(g.level_count(), 4);
        assert_eq!(g.gate_level(GateId(0)), 1);
        assert_eq!(g.gate_level(GateId(2)), 2);
        assert_eq!(g.gate_level(GateId(5)), 3);
        // Every signal of c17 reaches a PO, and exactly the two marked
        // signals are POs.
        let pos = c.primary_outputs();
        for s in 0..c.signal_count() {
            let sig = SignalId(s);
            assert_ne!(g.po_reach(sig), 0, "signal {s} reaches a PO");
            assert_eq!(g.po_bit(sig) != 0, pos.contains(&sig), "signal {s}");
        }
    }

    #[test]
    fn dead_cone_has_zero_reachability() {
        use sinw_switch::cells::CellKind;
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let kept = c.add_gate(CellKind::Nand2, "kept", &[a, b]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[kept]);
        let dead2 = c.add_gate(CellKind::Inv, "dead2", &[dead]);
        c.mark_output(kept);
        let g = SimGraph::build(&c);
        assert_ne!(g.po_reach(a), 0);
        assert_ne!(g.po_reach(kept), 0);
        assert_eq!(g.po_reach(dead), 0, "unobserved chain");
        assert_eq!(g.po_reach(dead2), 0, "unobserved chain");
    }

    #[test]
    fn consumers_are_deduplicated() {
        use sinw_switch::cells::CellKind;
        let mut c = Circuit::new();
        let a = c.add_input("a");
        // XOR2(a, a) reads `a` on two pins of the same gate.
        let o = c.add_gate(CellKind::Xor2, "x", &[a, a]);
        c.mark_output(o);
        let g = SimGraph::build(&c);
        assert_eq!(g.consumers(a), &[0u32]);
        assert_eq!(g.gate_inputs(GateId(0)), &[a.0 as u32, a.0 as u32]);
        // Two pins of one gate make `a` a stem.
        assert_eq!(g.stem_signal(g.stem_of(a)), a);
    }

    #[test]
    fn stems_are_pos_and_multi_or_zero_fanout_signals() {
        use sinw_switch::cells::CellKind;
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let n = c.add_gate(CellKind::Nand2, "n", &[a, b]);
        let i = c.add_gate(CellKind::Inv, "i", &[n]);
        let x = c.add_gate(CellKind::Xor2, "x", &[i, b]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[x]);
        let y = c.add_gate(CellKind::Inv, "y", &[x]);
        c.mark_output(y);
        let g = SimGraph::build(&c);
        // b feeds two pins, x two gates, dead nothing, y is the PO.
        for s in [b, x, dead, y] {
            assert_eq!(g.stem_signal(g.stem_of(s)), s);
        }
        assert_eq!(g.stem_count(), 4);
        // a -> n -> i is one fanout-free chain into x.
        for s in [a, n, i] {
            assert_eq!(g.stem_signal(g.stem_of(s)), x, "signal {}", s.0);
        }
    }
}
