//! Sequential circuits: D flip-flops over the combinational CP cell
//! fabric, plus the cycle-accurate simulator that serves as the oracle
//! for scan insertion and time-frame expansion.
//!
//! The representation is the classic Huffman model: a [`SeqCircuit`] is
//! one combinational [`Circuit`] whose primary inputs include one
//! *pseudo-PI* per flip-flop (the `Q` output the state feeds back
//! through) and whose next-state functions are ordinary internal
//! signals (the `D` pins, *pseudo-POs*). Everything downstream — fault
//! enumeration, PPSFP, PODEM, diagnosis — already speaks combinational
//! `Circuit`, so the sequential layer is a pair of rewrites over this
//! model (scan insertion in [`crate::scan`], frame unrolling in
//! `sinw-atpg`) rather than a parallel engine stack.
//!
//! Clocking is implicit and single-phase: every flip-flop captures its
//! `D` value on the same edge. There is no set/reset and no enable —
//! the ISCAS-89 `.bench` subset this models has none either.

use crate::cells::CellKind;
use crate::gate::{Circuit, SignalId};
use crate::value::Logic;
use std::collections::HashSet;
use std::fmt;

/// One D flip-flop: `q` is the pseudo-PI its state drives, `d` the
/// combinational signal captured on each clock edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dff {
    /// Instance name (the `Q` net name in `.bench` terms).
    pub name: String,
    /// Next-state signal (the `D` pin); any signal of the combinational
    /// core, not necessarily a marked primary output.
    pub d: SignalId,
    /// Present-state signal (the `Q` pin); must be a primary input of
    /// the combinational core.
    pub q: SignalId,
}

/// Why a [`SeqCircuit`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// A flip-flop's `q` signal is not a primary input of the core.
    QNotInput(String),
    /// Two flip-flops claim the same `q` pseudo-PI.
    DuplicateQ(String),
    /// A flip-flop's `d` signal does not exist in the core.
    DanglingD(String),
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::QNotInput(n) => {
                write!(
                    f,
                    "flip-flop {n}: Q signal is not a primary input of the core"
                )
            }
            SeqError::DuplicateQ(n) => write!(
                f,
                "flip-flop {n}: Q signal already owned by another flip-flop"
            ),
            SeqError::DanglingD(n) => {
                write!(f, "flip-flop {n}: D signal does not exist in the core")
            }
        }
    }
}

/// A sequential circuit in the Huffman model: combinational core +
/// flip-flop bindings. See the module docs for the representation
/// contract.
#[derive(Debug, Clone)]
pub struct SeqCircuit {
    comb: Circuit,
    dffs: Vec<Dff>,
    /// Core PIs that are *not* flip-flop `Q` pins, in core PI order.
    functional_inputs: Vec<SignalId>,
}

impl SeqCircuit {
    /// Bind flip-flops onto a combinational core, validating the
    /// Huffman-model contract (each `q` a distinct core PI, each `d` an
    /// existing core signal).
    pub fn new(comb: Circuit, dffs: Vec<Dff>) -> Result<Self, SeqError> {
        let pi_set: HashSet<SignalId> = comb.primary_inputs().iter().copied().collect();
        let mut seen_q = HashSet::new();
        for ff in &dffs {
            if !pi_set.contains(&ff.q) {
                return Err(SeqError::QNotInput(ff.name.clone()));
            }
            if !seen_q.insert(ff.q) {
                return Err(SeqError::DuplicateQ(ff.name.clone()));
            }
            if ff.d.0 >= comb.signal_count() {
                return Err(SeqError::DanglingD(ff.name.clone()));
            }
        }
        let functional_inputs = comb
            .primary_inputs()
            .iter()
            .copied()
            .filter(|pi| !seen_q.contains(pi))
            .collect();
        Ok(SeqCircuit {
            comb,
            dffs,
            functional_inputs,
        })
    }

    /// The combinational core (state `Q`s appear as primary inputs).
    #[must_use]
    pub fn core(&self) -> &Circuit {
        &self.comb
    }

    /// Consume the wrapper, returning the bare combinational core.
    /// Panics if the machine still has flip-flops — callers use this to
    /// downcast a parse that was *required* to be combinational.
    #[must_use]
    pub fn into_core(self) -> Circuit {
        assert!(self.dffs.is_empty(), "into_core on a sequential machine");
        self.comb
    }

    /// The flip-flop bindings, in state-vector order.
    #[must_use]
    pub fn dffs(&self) -> &[Dff] {
        &self.dffs
    }

    /// Number of state bits.
    #[must_use]
    pub fn state_width(&self) -> usize {
        self.dffs.len()
    }

    /// Core primary inputs that are real circuit inputs (not flip-flop
    /// `Q` pins), in core PI order. `step` consumes input vectors in
    /// this order.
    #[must_use]
    pub fn functional_inputs(&self) -> &[SignalId] {
        &self.functional_inputs
    }

    /// Functional primary outputs (the core's marked POs).
    #[must_use]
    pub fn functional_outputs(&self) -> &[SignalId] {
        self.comb.primary_outputs()
    }

    /// Assemble the core's full PI vector from a state vector (in
    /// [`SeqCircuit::dffs`] order) and a functional input vector (in
    /// [`SeqCircuit::functional_inputs`] order).
    #[must_use]
    pub fn assemble_pi(&self, state: &[Logic], inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(state.len(), self.dffs.len(), "state arity");
        assert_eq!(inputs.len(), self.functional_inputs.len(), "input arity");
        let mut q_value: Vec<Option<Logic>> = vec![None; self.comb.signal_count()];
        for (ff, v) in self.dffs.iter().zip(state) {
            q_value[ff.q.0] = Some(*v);
        }
        let mut next_input = inputs.iter();
        self.comb
            .primary_inputs()
            .iter()
            .map(|pi| q_value[pi.0].unwrap_or_else(|| *next_input.next().expect("input arity")))
            .collect()
    }

    /// One clock cycle: evaluate the core under `(state, inputs)` and
    /// return `(outputs, next_state)`.
    #[must_use]
    pub fn step(&self, state: &[Logic], inputs: &[Logic]) -> (Vec<Logic>, Vec<Logic>) {
        let pi = self.assemble_pi(state, inputs);
        let values = self.comb.eval(&pi);
        let outputs = self
            .comb
            .primary_outputs()
            .iter()
            .map(|o| values[o.0])
            .collect();
        let next = self.dffs.iter().map(|ff| values[ff.d.0]).collect();
        (outputs, next)
    }

    /// Multi-cycle simulation from an explicit initial state: returns
    /// the per-cycle output vectors and the state *after* each cycle.
    ///
    /// This is the differential oracle the time-frame-expansion and
    /// scan property suites compare against — deliberately the dumbest
    /// possible implementation (one [`Circuit::eval`] per cycle).
    #[must_use]
    pub fn simulate(
        &self,
        initial: &[Logic],
        input_seq: &[Vec<Logic>],
    ) -> (Vec<Vec<Logic>>, Vec<Vec<Logic>>) {
        let mut state = initial.to_vec();
        let mut outputs = Vec::with_capacity(input_seq.len());
        let mut states = Vec::with_capacity(input_seq.len());
        for inputs in input_seq {
            let (out, next) = self.step(&state, inputs);
            outputs.push(out);
            states.push(next.clone());
            state = next;
        }
        (outputs, states)
    }
}

/// Insert a pipeline register boundary around a combinational core:
/// every primary input and every primary output of `core` gets a
/// flip-flop, producing a two-stage registered datapath (the classic
/// "registered variant" of a benchmark generator).
///
/// The rebuilt core's PI order is: one `Q` pseudo-PI per original PI
/// (input registers), then one `Q` pseudo-PI per original PO (output
/// registers) — so the functional inputs are the original PIs renamed
/// with a `_in` suffix and the functional outputs observe the output
/// registers' `Q` nets directly.
#[must_use]
pub fn pipeline(core: &Circuit) -> SeqCircuit {
    let mut c = Circuit::new();
    let mut map: Vec<Option<SignalId>> = vec![None; core.signal_count()];
    let mut dffs = Vec::new();

    // Input registers: the replayed logic reads the register Q nets.
    for pi in core.primary_inputs() {
        let q = c.add_input(format!("{}_q", core.signal_name(*pi)));
        map[pi.0] = Some(q);
    }
    // Output-register Q nets are also pseudo-PIs of the core; each is a
    // functional PO of the pipelined machine.
    let out_qs: Vec<SignalId> = core
        .primary_outputs()
        .iter()
        .map(|po| c.add_input(format!("{}_oq", core.signal_name(*po))))
        .collect();
    // The launch-side functional inputs feed the input registers' D pins
    // through a buffer pair so the D signal is a distinct net (the CP
    // library has no BUFF cell; two inverters keep polarity).
    let in_ds: Vec<SignalId> = core
        .primary_inputs()
        .iter()
        .map(|pi| {
            let name = core.signal_name(*pi);
            let raw = c.add_input(format!("{name}_in"));
            let n = c.add_gate(CellKind::Inv, format!("{name}_n"), &[raw]);
            c.add_gate(CellKind::Inv, format!("{name}_d"), &[n])
        })
        .collect();
    // Replay the combinational logic over the register Qs.
    for gate in core.gates() {
        let inputs: Vec<SignalId> = gate
            .inputs
            .iter()
            .map(|s| map[s.0].expect("topological order"))
            .collect();
        let out = c.add_gate(gate.kind, gate.name.clone(), &inputs);
        map[gate.output.0] = Some(out);
    }
    for (pi, d) in core.primary_inputs().iter().zip(&in_ds) {
        dffs.push(Dff {
            name: format!("{}_reg", core.signal_name(*pi)),
            d: *d,
            q: map[pi.0].expect("mapped PI"),
        });
    }
    for (po, q) in core.primary_outputs().iter().zip(&out_qs) {
        dffs.push(Dff {
            name: format!("{}_reg", core.signal_name(*po)),
            d: map[po.0].expect("mapped PO"),
            q: *q,
        });
        c.mark_output(*q);
    }
    SeqCircuit::new(c, dffs).expect("pipeline construction is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Circuit;

    fn l(b: bool) -> Logic {
        Logic::from_bool(b)
    }

    #[test]
    fn step_matches_hand_computed_toggle() {
        // A 1-bit toggle: q' = NOT q, output = q.
        let mut c = Circuit::new();
        let q = c.add_input("q");
        let d = c.add_gate(CellKind::Inv, "d", &[q]);
        c.mark_output(q);
        let seq = SeqCircuit::new(
            c,
            vec![Dff {
                name: "ff".into(),
                d,
                q,
            }],
        )
        .unwrap();
        assert_eq!(seq.state_width(), 1);
        assert!(seq.functional_inputs().is_empty());
        let (outs, states) = seq.simulate(&[Logic::Zero], &[vec![], vec![], vec![]]);
        assert_eq!(
            outs,
            vec![vec![Logic::Zero], vec![Logic::One], vec![Logic::Zero]]
        );
        assert_eq!(
            states,
            vec![vec![Logic::One], vec![Logic::Zero], vec![Logic::One]]
        );
    }

    #[test]
    fn validation_rejects_bad_bindings() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let g = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(g);
        let err = SeqCircuit::new(
            c.clone(),
            vec![Dff {
                name: "ff".into(),
                d: a,
                q: g,
            }],
        )
        .unwrap_err();
        assert_eq!(err, SeqError::QNotInput("ff".into()));
        let err = SeqCircuit::new(
            c.clone(),
            vec![Dff {
                name: "ff".into(),
                d: SignalId(99),
                q: a,
            }],
        )
        .unwrap_err();
        assert_eq!(err, SeqError::DanglingD("ff".into()));
        let err = SeqCircuit::new(
            c,
            vec![
                Dff {
                    name: "f0".into(),
                    d: g,
                    q: a,
                },
                Dff {
                    name: "f1".into(),
                    d: g,
                    q: a,
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, SeqError::DuplicateQ("f1".into()));
    }

    #[test]
    fn pipeline_delays_the_core_by_two_cycles() {
        let core = Circuit::full_adder();
        let seq = pipeline(&core);
        assert_eq!(
            seq.state_width(),
            core.primary_inputs().len() + core.primary_outputs().len()
        );
        assert_eq!(seq.functional_inputs().len(), core.primary_inputs().len());
        // Drive a=1,b=1,cin=0 for three cycles from an all-zero state:
        // cycle 0 loads the input regs, cycle 1 computes into the output
        // regs, cycle 2 exposes sum=0, cout=1.
        let inputs = vec![l(true), l(true), l(false)];
        let (outs, _) = seq.simulate(
            &vec![Logic::Zero; seq.state_width()],
            &[inputs.clone(), inputs.clone(), inputs.clone()],
        );
        let direct = core.eval_outputs(&[true, true, false]);
        assert_eq!(outs[2], direct);
    }
}
