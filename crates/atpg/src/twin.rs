//! Twin-machine (good/faulty) three-valued simulation — the D-calculus
//! engine underneath PODEM.
//!
//! Instead of a literal five-valued algebra {0, 1, X, D, D̄}, each signal
//! carries a `(good, faulty)` pair of three-valued logics; `D` is the pair
//! `(1, 0)` and `D̄` is `(0, 1)`. This keeps the cell evaluation code shared
//! with `sinw-switch`.
//!
//! Implication is event-driven over one buffer: a [`TwinSim`] keeps a
//! `Twin` per signal and, when primary inputs change, re-evaluates only
//! the gates in their fanout cones. Gate ids are topological, so the
//! queued gates settle in gate-index order and each is evaluated at most
//! once per settle, on inputs that are already final. A PODEM search
//! keeps one simulator for its whole run and edits one input per
//! decision, flip or unassignment.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fault_list::{FaultSite, StuckAtFault};
use sinw_switch::gate::{eval_cell, Circuit, GateId, SignalId};
use sinw_switch::value::Logic;

/// A good/faulty value pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Twin {
    /// Value in the fault-free machine.
    pub good: Logic,
    /// Value in the faulty machine.
    pub faulty: Logic,
}

impl Twin {
    /// Both machines unknown.
    pub const X: Twin = Twin {
        good: Logic::X,
        faulty: Logic::X,
    };

    /// The fault effect `D` (good 1, faulty 0).
    #[must_use]
    pub fn is_d(&self) -> bool {
        self.good == Logic::One && self.faulty == Logic::Zero
    }

    /// The fault effect `D̄` (good 0, faulty 1).
    #[must_use]
    pub fn is_dbar(&self) -> bool {
        self.good == Logic::Zero && self.faulty == Logic::One
    }

    /// Whether the two machines differ with both values known.
    #[must_use]
    pub fn is_fault_effect(&self) -> bool {
        self.is_d() || self.is_dbar()
    }
}

/// Incremental twin simulation of one circuit under one fault (or none).
///
/// [`assign`](TwinSim::assign) edits a primary input and queues its
/// fanout; [`settle`](TwinSim::settle) propagates every queued change and
/// returns the twins. With fault `None` the faulty half mirrors the good
/// half everywhere. After any sequence of edits, the settled twins equal
/// those of a fresh simulator given only the final assignment.
#[derive(Debug)]
pub struct TwinSim<'c> {
    circuit: &'c Circuit,
    fault: Option<StuckAtFault>,
    twins: Vec<Twin>,
    /// Per gate: already waiting in `queue`.
    queued: Vec<bool>,
    /// Gates to re-evaluate, lowest (topologically first) id on top.
    queue: BinaryHeap<Reverse<usize>>,
}

impl<'c> TwinSim<'c> {
    /// A simulator with every primary input unassigned (X), settled by
    /// evaluating every gate once.
    #[must_use]
    pub fn new(circuit: &'c Circuit, fault: Option<StuckAtFault>) -> Self {
        let mut sim = TwinSim {
            circuit,
            fault,
            twins: vec![Twin::X; circuit.signal_count()],
            queued: vec![false; circuit.gates().len()],
            queue: BinaryHeap::new(),
        };
        for pi in circuit.primary_inputs() {
            sim.twins[pi.0] = sim.input_twin(*pi, Logic::X);
        }
        for gi in 0..circuit.gates().len() {
            let out = circuit.gates()[gi].output;
            sim.twins[out.0] = sim.eval_gate(gi);
        }
        sim
    }

    /// Set primary input `k` (in [`Circuit::primary_inputs`] order) to
    /// `value` (`None` = unassigned → X). The change propagates at the
    /// next [`settle`](TwinSim::settle).
    pub fn assign(&mut self, k: usize, value: Option<bool>) {
        let pi = self.circuit.primary_inputs()[k];
        let t = self.input_twin(pi, value.map_or(Logic::X, Logic::from_bool));
        if self.twins[pi.0] != t {
            self.twins[pi.0] = t;
            self.queue_fanout(pi);
        }
    }

    /// Propagate every pending input change through its fanout cone and
    /// return the twins, one per signal.
    pub fn settle(&mut self) -> &[Twin] {
        while let Some(Reverse(gi)) = self.queue.pop() {
            self.queued[gi] = false;
            let out = self.circuit.gates()[gi].output;
            let t = self.eval_gate(gi);
            if self.twins[out.0] != t {
                self.twins[out.0] = t;
                self.queue_fanout(out);
            }
        }
        &self.twins
    }

    fn queue_fanout(&mut self, sig: SignalId) {
        for (g, _) in self.circuit.fanout(sig) {
            if !self.queued[g.0] {
                self.queued[g.0] = true;
                self.queue.push(Reverse(g.0));
            }
        }
    }

    /// The stuck value when the fault sits at `site`.
    fn stuck_at(&self, site: FaultSite) -> Option<Logic> {
        self.fault
            .filter(|f| f.site == site)
            .map(|f| Logic::from_bool(f.value))
    }

    fn input_twin(&self, pi: SignalId, v: Logic) -> Twin {
        Twin {
            good: v,
            faulty: self.stuck_at(FaultSite::Signal(pi)).unwrap_or(v),
        }
    }

    /// Evaluate gate `gi` on the current twins of its inputs.
    fn eval_gate(&self, gi: usize) -> Twin {
        let gate = &self.circuit.gates()[gi];
        let n = gate.inputs.len();
        let mut good = [Logic::X; 3];
        let mut faulty = [Logic::X; 3];
        for (pin, s) in gate.inputs.iter().enumerate() {
            good[pin] = self.twins[s.0].good;
            faulty[pin] = self
                .stuck_at(FaultSite::GatePin(GateId(gi), pin))
                .unwrap_or(self.twins[s.0].faulty);
        }
        let good_out = eval_cell(gate.kind, &good[..n]);
        let faulty_out = if faulty == good {
            good_out
        } else {
            eval_cell(gate.kind, &faulty[..n])
        };
        Twin {
            good: good_out,
            faulty: self
                .stuck_at(FaultSite::Signal(gate.output))
                .unwrap_or(faulty_out),
        }
    }
}

/// Forward twin simulation of `circuit` under `fault`, given the PI
/// assignment (`None` = unassigned → X).
///
/// Returns a `Twin` per signal.
#[must_use]
pub fn simulate(
    circuit: &Circuit,
    fault: StuckAtFault,
    pi_assignment: &[Option<bool>],
) -> Vec<Twin> {
    assert_eq!(pi_assignment.len(), circuit.primary_inputs().len());
    let mut sim = TwinSim::new(circuit, Some(fault));
    for (k, v) in pi_assignment.iter().enumerate() {
        sim.assign(k, *v);
    }
    sim.settle().to_vec()
}

/// Whether the fault effect reaches any primary output.
#[must_use]
pub fn detected_at_po(circuit: &Circuit, twins: &[Twin]) -> bool {
    circuit
        .primary_outputs()
        .iter()
        .any(|o| twins[o.0].is_fault_effect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_switch::cells::CellKind;
    use sinw_switch::gate::SignalId;

    fn inv_chain() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let m = c.add_gate(CellKind::Inv, "g1", &[a]);
        let o = c.add_gate(CellKind::Inv, "g2", &[m]);
        c.mark_output(o);
        c
    }

    #[test]
    fn d_propagates_through_inverters() {
        let c = inv_chain();
        let fault = StuckAtFault::sa0(FaultSite::Signal(SignalId(0)));
        let twins = simulate(&c, fault, &[Some(true)]);
        assert!(twins[0].is_d(), "activated fault at the PI");
        assert!(twins[1].is_dbar(), "inverted once");
        assert!(twins[2].is_d(), "inverted twice");
        assert!(detected_at_po(&c, &twins));
    }

    #[test]
    fn unactivated_fault_shows_no_effect() {
        let c = inv_chain();
        let fault = StuckAtFault::sa0(FaultSite::Signal(SignalId(0)));
        let twins = simulate(&c, fault, &[Some(false)]);
        assert!(!detected_at_po(&c, &twins));
        assert_eq!(twins[0].good, twins[0].faulty);
    }

    #[test]
    fn unassigned_inputs_stay_x() {
        let c = inv_chain();
        let fault = StuckAtFault::sa1(FaultSite::Signal(SignalId(2)));
        let twins = simulate(&c, fault, &[None]);
        assert_eq!(twins[0].good, Logic::X);
        // Output stuck-at-1 shows in the faulty machine regardless.
        assert_eq!(twins[2].faulty, Logic::One);
        assert_eq!(twins[2].good, Logic::X);
    }

    #[test]
    fn branch_fault_hits_only_its_pin() {
        // a feeds both pins of a NAND; a branch s-a-0 on pin 0 with a=1
        // gives NAND(0,1)=1 in the faulty machine vs NAND(1,1)=0 good.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa0(FaultSite::GatePin(sinw_switch::gate::GateId(0), 0));
        let twins = simulate(&c, fault, &[Some(true)]);
        assert!(twins[o.0].is_dbar());
    }
}
