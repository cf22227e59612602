//! Static redundancy identification: proving stuck-at faults untestable
//! where PODEM's branch-and-bound cannot terminate.
//!
//! Branch-and-bound ATPG proves redundancy by exhausting a decision tree,
//! which explodes on structures like the carry-select mux: detecting the
//! select-pin fault of `bc16` in `csa16` needs the speculative
//! carry-in-0 branch high *and* the carry-in-1 branch low — impossible by
//! monotonicity, but PODEM only discovers the conflict after enumerating
//! the ~2²⁵-assignment select cone for every local refutation.
//!
//! [`RedundancyProver`] attacks the same faults statically, SOCRATES/
//! FIRE-style:
//!
//! 1. **Mandatory assignments** — values every detecting pattern must
//!    produce in the *good* machine: the fault site's stem at the
//!    complement of the stuck value (activation), non-controlling side
//!    inputs of the faulted NAND/NOR (effect creation), and
//!    non-controlling side inputs of every *dominator* gate on the
//!    single-fanout chain from the effect origin (the effect must pass
//!    each of them to reach an output).
//! 2. **Implication closure** — propagate the mandatory values forward
//!    and backward through the netlist to a fixpoint; a conflict proves
//!    the fault untestable outright.
//! 3. **Small-support exhaustive check** — every implied value is a
//!    function of its primary-input support alone. Greedily gather
//!    implied values whose combined support fits a budget (≤ 2^budget
//!    patterns) and enumerate it with the bit-parallel good simulator;
//!    an unsatisfiable subset proves the full mandatory set — and hence
//!    the fault — untestable. The `bc16` core `{c0 = 1, c1 = 0}` spans
//!    just 8 PIs: 256 patterns instead of 2³³.
//!
//! The prover is *sound, not complete*: `true` is a proof (property
//! suites cross-check it against exhaustive simulation), `false` just
//! means "no cheap proof found". `tpg::AtpgEngine` runs it ahead of
//! PODEM in the deterministic phase so structurally redundant faults
//! never burn a backtrack budget.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::faultsim::{good_sim_into, PatternBlock, PatternWords};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};

/// A required good-machine value.
type Constraint = (SignalId, bool);

/// Static untestability prover over one circuit (precomputes per-signal
/// PI-support bitsets once).
#[derive(Debug)]
pub struct RedundancyProver<'a> {
    circuit: &'a Circuit,
    /// Per-signal PI support, `ceil(n_pi / 64)` words each, bit = PI
    /// ordinal.
    support: Vec<Vec<u64>>,
    /// Popcount of each signal's support.
    support_size: Vec<u32>,
    /// Enumerate constraint subsets spanning at most this many PIs.
    budget: usize,
}

impl<'a> RedundancyProver<'a> {
    /// Default support budget: 16 PIs (≤ 65 536 patterns per check).
    pub const DEFAULT_BUDGET: usize = 16;

    /// Build a prover with the default budget.
    #[must_use]
    pub fn new(circuit: &'a Circuit) -> Self {
        Self::with_budget(circuit, Self::DEFAULT_BUDGET)
    }

    /// Build a prover that enumerates subsets of up to `budget` support
    /// PIs (cost ≤ 2^budget bit-parallel patterns per check).
    #[must_use]
    pub fn with_budget(circuit: &'a Circuit, budget: usize) -> Self {
        let n_pi = circuit.primary_inputs().len();
        let words = n_pi.div_ceil(64).max(1);
        let mut support = vec![vec![0u64; words]; circuit.signal_count()];
        for (k, pi) in circuit.primary_inputs().iter().enumerate() {
            support[pi.0][k / 64] |= 1u64 << (k % 64);
        }
        for gate in circuit.gates() {
            let mut acc = vec![0u64; words];
            for s in &gate.inputs {
                for (a, w) in acc.iter_mut().zip(&support[s.0]) {
                    *a |= *w;
                }
            }
            support[gate.output.0] = acc;
        }
        let support_size = support
            .iter()
            .map(|w| w.iter().map(|x| x.count_ones()).sum())
            .collect();
        RedundancyProver {
            circuit,
            support,
            support_size,
            budget: budget.min(24),
        }
    }

    /// Try to prove `fault` untestable. `true` is a proof; `false` means
    /// the prover found none (the fault may still be redundant).
    #[must_use]
    pub fn prove_untestable(&self, fault: StuckAtFault) -> bool {
        let Some(constraints) = self.mandatory(fault) else {
            // The effect origin cannot reach any primary output.
            return true;
        };
        let Some(values) = self.closure(&constraints) else {
            // The mandatory set is self-contradictory.
            return true;
        };
        self.small_support_unsat(&values)
    }

    /// The mandatory good-machine assignments of any detecting pattern,
    /// or `None` when the effect provably reaches no output.
    fn mandatory(&self, fault: StuckAtFault) -> Option<Vec<Constraint>> {
        let gates = self.circuit.gates();
        let mut constraints = Vec::new();
        // Activation: the stem feeding the site must read the complement
        // of the stuck value, or the two machines never differ. For a pin
        // fault the effect then originates at the faulted gate's output
        // and (for NAND/NOR) needs the side inputs non-controlling.
        let origin = match fault.site {
            FaultSite::Signal(s) => {
                constraints.push((s, !fault.value));
                s
            }
            FaultSite::GatePin(g, pin) => {
                let gate = &gates[g.0];
                constraints.push((gate.inputs[pin], !fault.value));
                if let Some(v) = side_pass_value(gate.kind) {
                    for (p, s) in gate.inputs.iter().enumerate() {
                        if p != pin {
                            constraints.push((*s, v));
                        }
                    }
                }
                gate.output
            }
        };
        // Dominator walk: while the effect signal feeds exactly one pin
        // (and is not observable as a PO itself), the effect must pass
        // that gate, so its side inputs must not mask it.
        let mut sig = origin;
        loop {
            if self.circuit.primary_outputs().contains(&sig) {
                break;
            }
            let fanout = self.circuit.fanout(sig);
            if fanout.is_empty() {
                return None; // dead cone: unobservable, hence untestable
            }
            if fanout.len() != 1 {
                break;
            }
            let (g, _) = fanout[0];
            let gate = &gates[g.0];
            if let Some(v) = side_pass_value(gate.kind) {
                for s in &gate.inputs {
                    if *s != sig {
                        constraints.push((*s, v));
                    }
                }
            }
            sig = gate.output;
        }
        Some(constraints)
    }

    /// Forward/backward three-valued implication to a fixpoint; `None`
    /// on conflict.
    #[allow(clippy::too_many_lines)]
    fn closure(&self, constraints: &[Constraint]) -> Option<Vec<Option<bool>>> {
        let mut val: Vec<Option<bool>> = vec![None; self.circuit.signal_count()];
        fn assign(
            val: &mut [Option<bool>],
            s: SignalId,
            v: bool,
            changed: &mut bool,
        ) -> Option<()> {
            match val[s.0] {
                Some(x) if x != v => None,
                Some(_) => Some(()),
                None => {
                    val[s.0] = Some(v);
                    *changed = true;
                    Some(())
                }
            }
        }
        let mut changed = true;
        for (s, v) in constraints {
            assign(&mut val, *s, *v, &mut changed)?;
        }
        while changed {
            changed = false;
            for gate in self.circuit.gates() {
                let o = gate.output;
                // Snapshot per gate; values assigned mid-gate are seen on
                // the next fixpoint pass.
                let ins: Vec<Option<bool>> = gate.inputs.iter().map(|s| val[s.0]).collect();
                let out_v = val[o.0];
                match gate.kind {
                    CellKind::Inv => {
                        if let Some(a) = ins[0] {
                            assign(&mut val, o, !a, &mut changed)?;
                        }
                        if let Some(q) = out_v {
                            assign(&mut val, gate.inputs[0], !q, &mut changed)?;
                        }
                    }
                    CellKind::Nand2 | CellKind::Nor2 => {
                        // Uniform treatment: `ctrl` is the controlling
                        // input value, `forced` the output it forces.
                        let (ctrl, forced) = match gate.kind {
                            CellKind::Nand2 => (false, true),
                            _ => (true, false),
                        };
                        if ins[0] == Some(ctrl) || ins[1] == Some(ctrl) {
                            assign(&mut val, o, forced, &mut changed)?;
                        } else if ins[0] == Some(!ctrl) && ins[1] == Some(!ctrl) {
                            assign(&mut val, o, !forced, &mut changed)?;
                        }
                        match out_v {
                            Some(q) if q != forced => {
                                // Only the all-non-controlling row gives it.
                                assign(&mut val, gate.inputs[0], !ctrl, &mut changed)?;
                                assign(&mut val, gate.inputs[1], !ctrl, &mut changed)?;
                            }
                            Some(_) => {
                                // Forced output + one non-controlling input
                                // pins the other input at the controlling
                                // value.
                                if ins[0] == Some(!ctrl) {
                                    assign(&mut val, gate.inputs[1], ctrl, &mut changed)?;
                                }
                                if ins[1] == Some(!ctrl) {
                                    assign(&mut val, gate.inputs[0], ctrl, &mut changed)?;
                                }
                            }
                            None => {}
                        }
                    }
                    CellKind::Xor2 | CellKind::Xor3 => {
                        let unknown = ins.iter().filter(|v| v.is_none()).count();
                        let parity = ins.iter().flatten().fold(false, |acc, b| acc ^ b);
                        if unknown == 0 {
                            assign(&mut val, o, parity, &mut changed)?;
                        } else if unknown == 1 {
                            if let Some(q) = out_v {
                                let p = ins
                                    .iter()
                                    .position(Option::is_none)
                                    .expect("one unknown input");
                                assign(&mut val, gate.inputs[p], q ^ parity, &mut changed)?;
                            }
                        }
                    }
                    CellKind::Maj3 => {
                        for v in [false, true] {
                            if ins.iter().filter(|x| **x == Some(v)).count() >= 2 {
                                assign(&mut val, o, v, &mut changed)?;
                            }
                        }
                        if let Some(q) = out_v {
                            // One input at the complement: the other two
                            // must both agree with the output.
                            if ins.iter().filter(|x| **x == Some(!q)).count() == 1 {
                                for (p, x) in ins.iter().enumerate() {
                                    if x.is_none() {
                                        assign(&mut val, gate.inputs[p], q, &mut changed)?;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Some(val)
    }

    /// Gather implied values whose combined PI support fits the budget
    /// and exhaust it bit-parallel; an unsatisfiable subset proves the
    /// superset (the mandatory closure) — and the fault — untestable.
    fn small_support_unsat(&self, values: &[Option<bool>]) -> bool {
        let words = self.support.first().map_or(1, Vec::len);
        let budget = self.budget as u32;
        let mut small: Vec<(SignalId, bool)> = values
            .iter()
            .enumerate()
            .filter_map(|(s, v)| v.map(|v| (SignalId(s), v)))
            .filter(|(s, _)| self.support_size[s.0] <= budget)
            .collect();
        small.sort_by_key(|(s, _)| self.support_size[s.0]);

        // Greedy superset: adding constraints only removes satisfying
        // assignments, so one big check subsumes all its subsets.
        let mut union = vec![0u64; words];
        let mut chosen: Vec<Constraint> = Vec::new();
        let mut in_greedy = vec![false; small.len()];
        for (idx, (s, v)) in small.iter().enumerate() {
            let mut trial = union.clone();
            for (t, w) in trial.iter_mut().zip(&self.support[s.0]) {
                *t |= *w;
            }
            if trial.iter().map(|x| x.count_ones()).sum::<u32>() <= budget {
                union = trial;
                chosen.push((*s, *v));
                in_greedy[idx] = true;
            }
        }
        if !chosen.is_empty() && !self.satisfiable(&chosen, &union) {
            return true;
        }
        // Pairs that did not both fit the greedy set.
        let mut checks = 0usize;
        for a in 0..small.len() {
            for b in (a + 1)..small.len() {
                if in_greedy[a] && in_greedy[b] {
                    continue;
                }
                let mut pair_union = self.support[small[a].0 .0].clone();
                for (t, w) in pair_union.iter_mut().zip(&self.support[small[b].0 .0]) {
                    *t |= *w;
                }
                if pair_union.iter().map(|x| x.count_ones()).sum::<u32>() > budget {
                    continue;
                }
                checks += 1;
                if checks > 128 {
                    return false;
                }
                if !self.satisfiable(&[small[a], small[b]], &pair_union) {
                    return true;
                }
            }
        }
        false
    }

    /// Exhaust all assignments of the PIs in `support_mask` (others held
    /// low — the constrained signals do not depend on them) and report
    /// whether some pattern meets every constraint.
    fn satisfiable(&self, constraints: &[Constraint], support_mask: &[u64]) -> bool {
        let pis = self.circuit.primary_inputs();
        let support_pis: Vec<usize> = (0..pis.len())
            .filter(|k| support_mask[k / 64] & (1u64 << (k % 64)) != 0)
            .collect();
        let total = 1usize << support_pis.len();
        let mut values: Vec<PatternWords> = vec![PatternWords::ZERO; self.circuit.signal_count()];
        let mut base = 0usize;
        while base < total {
            let count = (total - base).min(64);
            let mut block_words: Vec<PatternWords> = vec![PatternWords::ZERO; pis.len()];
            for j in 0..count {
                let p = base + j;
                for (bit, &k) in support_pis.iter().enumerate() {
                    if (p >> bit) & 1 == 1 {
                        block_words[k].set_bit(j);
                    }
                }
            }
            let block = PatternBlock {
                words: block_words,
                count,
            };
            good_sim_into(self.circuit, &block, &mut values);
            let mut sat = block.mask();
            for (s, v) in constraints {
                sat &= if *v { values[s.0] } else { !values[s.0] };
                if sat.is_zero() {
                    break;
                }
            }
            if sat.any() {
                return true;
            }
            base += count;
        }
        false
    }
}

/// The good-machine value a side input must hold for a fault effect to
/// pass the gate, when that requirement is a single value: non-controlling
/// for NAND/NOR; XOR always passes; MAJ needs a relation (the other two
/// inputs differing), not a value.
fn side_pass_value(kind: CellKind) -> Option<bool> {
    match kind {
        CellKind::Nand2 => Some(true),
        CellKind::Nor2 => Some(false),
        CellKind::Inv | CellKind::Xor2 | CellKind::Xor3 | CellKind::Maj3 => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use crate::faultsim::detect_mask;
    use sinw_switch::gate::GateId;

    /// Exhaustive ground truth for circuits with few PIs.
    fn truly_untestable(c: &Circuit, fault: StuckAtFault) -> bool {
        let n_pi = c.primary_inputs().len();
        assert!(n_pi <= 16, "exhaustive oracle needs a small circuit");
        (0..(1u32 << n_pi))
            .collect::<Vec<_>>()
            .chunks(64)
            .all(|chunk| {
                let patterns: Vec<Vec<bool>> = chunk
                    .iter()
                    .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
                    .collect();
                let block: PatternBlock = PatternBlock::pack(c, &patterns);
                detect_mask(c, fault, &block).is_zero()
            })
    }

    #[test]
    fn proves_the_tied_nand_branch_fault() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let prover = RedundancyProver::new(&c);
        // Activation needs a = 0, effect creation needs the side pin
        // (also a) at 1: the closure conflicts immediately.
        let redundant = StuckAtFault::sa1(FaultSite::GatePin(GateId(0), 0));
        assert!(prover.prove_untestable(redundant));
    }

    #[test]
    fn proves_the_carry_select_mux_redundancies() {
        use sinw_switch::generate::carry_select_adder;
        let c = carry_select_adder(16, 4);
        let faults = enumerate_stuck_at(&c);
        let prover = RedundancyProver::new(&c);
        let proven: Vec<_> = faults
            .iter()
            .filter(|f| prover.prove_untestable(**f))
            .collect();
        // One select-pin redundancy per speculative block (bits 4, 8, 12).
        assert!(
            proven.len() >= 3,
            "expected the three bc mux redundancies, proved {proven:?}"
        );
    }

    #[test]
    fn never_proves_a_testable_fault() {
        // Soundness on fully testable circuits: the prover must return
        // `false` for every fault (all are detectable).
        for c in [
            Circuit::c17(),
            Circuit::full_adder(),
            Circuit::ripple_adder(2),
            Circuit::parity_tree(4),
        ] {
            let prover = RedundancyProver::new(&c);
            for fault in enumerate_stuck_at(&c) {
                if prover.prove_untestable(fault) {
                    assert!(
                        truly_untestable(&c, fault),
                        "false redundancy proof for {}",
                        fault.describe(&c)
                    );
                }
            }
        }
    }

    #[test]
    fn proofs_agree_with_the_exhaustive_oracle_on_csa() {
        use sinw_switch::generate::carry_select_adder;
        // 6-bit, 2-bit blocks: 13 PIs, exhaustively checkable.
        let c = carry_select_adder(6, 2);
        let prover = RedundancyProver::new(&c);
        for fault in enumerate_stuck_at(&c) {
            if prover.prove_untestable(fault) {
                assert!(
                    truly_untestable(&c, fault),
                    "false proof for {}",
                    fault.describe(&c)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Direct unit tests of the prover internals (mandatory-assignment
    // extraction and implication closure) on hand-built cones — the
    // pieces the campaign goldens only exercise end to end.
    // ------------------------------------------------------------------

    /// `s1 = NAND(a, b)` feeds a single-fanout chain `s2 = NAND(s1, c)`,
    /// `s3 = NOR(s2, d)`: a stem fault on `s1` must collect the
    /// activation value plus the non-controlling side inputs of both
    /// dominators.
    #[test]
    fn mandatory_collects_activation_and_dominator_side_inputs() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let c = circuit.add_input("c");
        let d = circuit.add_input("d");
        let s1 = circuit.add_gate(CellKind::Nand2, "s1", &[a, b]);
        let s2 = circuit.add_gate(CellKind::Nand2, "s2", &[s1, c]);
        let s3 = circuit.add_gate(CellKind::Nor2, "s3", &[s2, d]);
        circuit.mark_output(s3);
        let prover = RedundancyProver::new(&circuit);
        let cons = prover
            .mandatory(StuckAtFault::sa0(FaultSite::Signal(s1)))
            .expect("observable cone");
        assert!(cons.contains(&(s1, true)), "activation at the complement");
        assert!(cons.contains(&(c, true)), "NAND dominator side input");
        assert!(cons.contains(&(d, false)), "NOR dominator side input");
        assert_eq!(cons.len(), 3, "nothing else is mandatory: {cons:?}");
    }

    /// The dominator walk stops at fanout stems: once the effect signal
    /// feeds two gates, no single gate dominates it.
    #[test]
    fn mandatory_walk_stops_at_fanout_stems() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let c = circuit.add_input("c");
        let s1 = circuit.add_gate(CellKind::Nand2, "s1", &[a, b]);
        let o1 = circuit.add_gate(CellKind::Nand2, "o1", &[s1, c]);
        let o2 = circuit.add_gate(CellKind::Inv, "o2", &[s1]);
        circuit.mark_output(o1);
        circuit.mark_output(o2);
        let prover = RedundancyProver::new(&circuit);
        let cons = prover
            .mandatory(StuckAtFault::sa1(FaultSite::Signal(s1)))
            .expect("observable cone");
        assert_eq!(cons, vec![(s1, false)], "activation only: {cons:?}");
    }

    /// An effect signal that is itself a primary output needs no
    /// propagation constraints even if it also feeds further logic.
    #[test]
    fn mandatory_walk_stops_at_observable_stems() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let s1 = circuit.add_gate(CellKind::Nand2, "s1", &[a, b]);
        let s2 = circuit.add_gate(CellKind::Nand2, "s2", &[s1, b]);
        circuit.mark_output(s1);
        circuit.mark_output(s2);
        let prover = RedundancyProver::new(&circuit);
        let cons = prover
            .mandatory(StuckAtFault::sa0(FaultSite::Signal(s1)))
            .expect("directly observable");
        assert_eq!(cons, vec![(s1, true)], "activation only: {cons:?}");
    }

    /// A pin fault adds the faulted gate's own side inputs (effect
    /// creation) before the dominator walk starts at its output.
    #[test]
    fn mandatory_pin_fault_requires_side_inputs_non_controlling() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let o = circuit.add_gate(CellKind::Nand2, "g", &[a, b]);
        let _other = circuit.add_gate(CellKind::Inv, "other", &[a]);
        circuit.mark_output(o);
        circuit.mark_output(_other);
        let prover = RedundancyProver::new(&circuit);
        let cons = prover
            .mandatory(StuckAtFault::sa1(FaultSite::GatePin(GateId(0), 0)))
            .expect("observable");
        assert!(cons.contains(&(a, false)), "activation on the stem");
        assert!(cons.contains(&(b, true)), "side pin non-controlling");
        assert_eq!(cons.len(), 2, "{cons:?}");
    }

    /// A fault whose effect origin has no fanout and is not a PO is
    /// unobservable: `mandatory` reports `None` (an immediate proof).
    #[test]
    fn mandatory_is_none_in_a_dead_cone() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let kept = circuit.add_gate(CellKind::Inv, "kept", &[a]);
        let dead = circuit.add_gate(CellKind::Inv, "dead", &[kept]);
        circuit.mark_output(kept);
        let prover = RedundancyProver::new(&circuit);
        assert!(prover
            .mandatory(StuckAtFault::sa1(FaultSite::Signal(dead)))
            .is_none());
    }

    /// Forward and backward implications reach their fixpoint: NAND
    /// output 0 pins both inputs high; a known XOR output with one
    /// unknown input solves it; a MAJ output with one dissenting input
    /// pins the remaining inputs to the output value; INV runs both ways.
    #[test]
    fn closure_implies_forward_and_backward() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let b = circuit.add_input("b");
        let c = circuit.add_input("c");
        let n = circuit.add_gate(CellKind::Nand2, "n", &[a, b]);
        let x = circuit.add_gate(CellKind::Xor2, "x", &[n, c]);
        let i = circuit.add_gate(CellKind::Inv, "i", &[x]);
        let m = circuit.add_gate(CellKind::Maj3, "m", &[a, b, c]);
        circuit.mark_output(i);
        circuit.mark_output(m);
        let prover = RedundancyProver::new(&circuit);
        // n = 0 (backward: a = b = 1) and i = 1 (backward: x = 0;
        // then x = XOR(n=0, c) = 0 forces c = 0; forward: m = MAJ(1,1,0)
        // = 1).
        let values = prover
            .closure(&[(n, false), (i, true)])
            .expect("consistent constraint set");
        assert_eq!(values[a.0], Some(true), "NAND backward");
        assert_eq!(values[b.0], Some(true), "NAND backward");
        assert_eq!(values[x.0], Some(false), "INV backward");
        assert_eq!(values[c.0], Some(false), "XOR solved for the unknown");
        assert_eq!(values[m.0], Some(true), "MAJ forward");
    }

    /// A contradictory mandatory set is detected as a conflict (`None`)
    /// rather than silently producing values.
    #[test]
    fn closure_detects_conflicts() {
        let mut circuit = Circuit::new();
        let a = circuit.add_input("a");
        let i = circuit.add_gate(CellKind::Inv, "i", &[a]);
        circuit.mark_output(i);
        let prover = RedundancyProver::new(&circuit);
        assert!(prover.closure(&[(a, true), (i, true)]).is_none());
        // And a consistent set on the same cone is fine.
        let values = prover.closure(&[(a, true)]).expect("consistent");
        assert_eq!(values[i.0], Some(false));
    }

    #[test]
    fn dead_cone_faults_are_proven_unobservable() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let kept = c.add_gate(CellKind::Nand2, "kept", &[a, b]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[kept]);
        c.mark_output(kept);
        let prover = RedundancyProver::new(&c);
        assert!(prover.prove_untestable(StuckAtFault::sa0(FaultSite::Signal(dead))));
        assert!(!prover.prove_untestable(StuckAtFault::sa0(FaultSite::Signal(kept))));
    }
}
