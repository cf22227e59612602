//! Time-frame expansion: unroll a sequential machine over K clock
//! cycles into one combinational [`Circuit`], so every combinational
//! engine in the crate (PPSFP, PODEM, campaign, diagnosis) reasons
//! about multi-cycle behaviour without learning anything new.
//!
//! Frame `f`'s copy of the combinational core reads its flip-flop `Q`
//! values directly from frame `f-1`'s `D` signals — no boundary gates,
//! the unrolled netlist is exactly K replays of the core wired through
//! the state. Frame 0's state bits become fresh primary inputs (the
//! *free initial state*: under full scan this is precisely the
//! scan-load semantics, and the CP cell library has no constant drivers
//! to pin a fixed power-up state structurally).
//!
//! Unrolled PI order is `[state₀ per flip-flop] ++ [frame-major
//! functional inputs]`; PO order is the observed frames' functional POs
//! (frame-major) followed by the final next-state `D` signals when
//! observed ([`UnrollConfig`]). [`UnrolledCircuit`] keeps the maps —
//! per-frame signal, gate, and fault-site embeddings plus PO position
//! tables — so results on the unrolled circuit read back in terms of
//! the original machine.

use sinw_switch::gate::{Circuit, GateId, SignalId};
use sinw_switch::seq::SeqCircuit;
use sinw_switch::value::Logic;

use crate::fault_list::FaultSite;

/// How many frames to unroll and which signals to observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollConfig {
    /// Number of time frames (clock cycles) K ≥ 1.
    pub frames: usize,
    /// Mark every frame's functional POs as unrolled POs; when `false`
    /// only the last frame's POs are observable (launch frames are
    /// internal).
    pub observe_all_frames: bool,
    /// Mark the last frame's next-state `D` signals as POs (the
    /// scan-out view of the final state).
    pub observe_final_state: bool,
}

impl UnrollConfig {
    /// K frames with every frame's POs and the final state observable —
    /// the full-scan tester's view.
    #[must_use]
    pub fn full_observability(frames: usize) -> Self {
        UnrollConfig {
            frames,
            observe_all_frames: true,
            observe_final_state: true,
        }
    }
}

/// A K-frame unrolled machine: the combinational circuit plus the maps
/// back to the original [`SeqCircuit`].
#[derive(Debug, Clone)]
pub struct UnrolledCircuit {
    circuit: Circuit,
    frames: usize,
    observed_frames: Vec<usize>,
    /// `signal_map[f][s.0]` = frame `f`'s copy of core signal `s`.
    signal_map: Vec<Vec<SignalId>>,
    /// State₀ pseudo-PIs, one per flip-flop, in flip-flop order.
    state0: Vec<SignalId>,
    functional_in_count: usize,
    core_gate_count: usize,
    /// `po_pos[k]` for observed frame index `of` and PO `p`:
    /// `po_pos[of * n_po + p]` = position in the unrolled PO vector.
    po_pos: Vec<usize>,
    /// Positions of the final-state `D` observations (empty when not
    /// observed), one per flip-flop.
    final_state_pos: Vec<usize>,
}

/// Unroll `seq` into a K-frame combinational circuit.
///
/// # Panics
///
/// Panics if `config.frames == 0`.
#[must_use]
pub fn unroll(seq: &SeqCircuit, config: &UnrollConfig) -> UnrolledCircuit {
    assert!(config.frames >= 1, "at least one time frame");
    let core = seq.core();
    let k = config.frames;
    let mut c = Circuit::new();

    // State₀ pseudo-PIs first, then frame-major functional inputs.
    let state0: Vec<SignalId> = seq
        .dffs()
        .iter()
        .map(|ff| c.add_input(format!("{}@0", ff.name)))
        .collect();
    let frame_inputs: Vec<Vec<SignalId>> = (0..k)
        .map(|f| {
            seq.functional_inputs()
                .iter()
                .map(|pi| c.add_input(format!("{}@{f}", core.signal_name(*pi))))
                .collect()
        })
        .collect();

    let mut signal_map: Vec<Vec<SignalId>> = Vec::with_capacity(k);
    for f in 0..k {
        // Seed frame f's PI images: functional inputs from this frame's
        // fresh PIs, flip-flop Qs from state₀ (f = 0) or the previous
        // frame's D image (f > 0).
        let mut map: Vec<SignalId> = vec![SignalId(usize::MAX); core.signal_count()];
        for (pi, img) in seq.functional_inputs().iter().zip(&frame_inputs[f]) {
            map[pi.0] = *img;
        }
        for (i, ff) in seq.dffs().iter().enumerate() {
            map[ff.q.0] = if f == 0 {
                state0[i]
            } else {
                signal_map[f - 1][ff.d.0]
            };
        }
        for gate in core.gates() {
            let inputs: Vec<SignalId> = gate.inputs.iter().map(|s| map[s.0]).collect();
            let out = c.add_gate(gate.kind, format!("{}@{f}", gate.name), &inputs);
            map[gate.output.0] = out;
        }
        signal_map.push(map);
    }

    let observed_frames: Vec<usize> = if config.observe_all_frames {
        (0..k).collect()
    } else {
        vec![k - 1]
    };
    for &f in &observed_frames {
        for po in core.primary_outputs() {
            c.mark_output(signal_map[f][po.0]);
        }
    }
    if config.observe_final_state {
        for ff in seq.dffs() {
            c.mark_output(signal_map[k - 1][ff.d.0]);
        }
    }
    let position = |c: &Circuit, s: SignalId| -> usize {
        c.primary_outputs()
            .iter()
            .position(|po| *po == s)
            .expect("marked PO present")
    };
    let po_pos: Vec<usize> = observed_frames
        .iter()
        .flat_map(|&f| {
            core.primary_outputs()
                .iter()
                .map(|po| position(&c, signal_map[f][po.0]))
                .collect::<Vec<_>>()
        })
        .collect();
    let final_state_pos: Vec<usize> = if config.observe_final_state {
        seq.dffs()
            .iter()
            .map(|ff| position(&c, signal_map[k - 1][ff.d.0]))
            .collect()
    } else {
        Vec::new()
    };

    UnrolledCircuit {
        circuit: c,
        frames: k,
        observed_frames,
        signal_map,
        state0,
        functional_in_count: seq.functional_inputs().len(),
        core_gate_count: core.gates().len(),
        po_pos,
        final_state_pos,
    }
}

impl UnrolledCircuit {
    /// The unrolled combinational circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of time frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The frames whose functional POs are observable, ascending.
    #[must_use]
    pub fn observed_frames(&self) -> &[usize] {
        &self.observed_frames
    }

    /// Frame `frame`'s copy of core signal `sig`.
    #[must_use]
    pub fn signal_at(&self, frame: usize, sig: SignalId) -> SignalId {
        self.signal_map[frame][sig.0]
    }

    /// Embed a core fault site into frame `frame`.
    #[must_use]
    pub fn fault_at(&self, frame: usize, site: FaultSite) -> FaultSite {
        match site {
            FaultSite::Signal(s) => FaultSite::Signal(self.signal_at(frame, s)),
            FaultSite::GatePin(g, pin) => {
                FaultSite::GatePin(GateId(frame * self.core_gate_count + g.0), pin)
            }
        }
    }

    /// Flatten `(state₀, per-frame functional inputs)` into the unrolled
    /// circuit's PI order.
    #[must_use]
    pub fn assemble_inputs(&self, state0: &[Logic], inputs: &[Vec<Logic>]) -> Vec<Logic> {
        assert_eq!(state0.len(), self.state0.len(), "state arity");
        assert_eq!(inputs.len(), self.frames, "one input vector per frame");
        let mut v = state0.to_vec();
        for frame in inputs {
            assert_eq!(frame.len(), self.functional_in_count, "input arity");
            v.extend_from_slice(frame);
        }
        v
    }

    /// Position of observed frame `frame`'s PO `po_index` in the
    /// unrolled PO vector. Panics if the frame is not observed.
    #[must_use]
    pub fn po_position(&self, frame: usize, po_index: usize) -> usize {
        let of = self
            .observed_frames
            .iter()
            .position(|&f| f == frame)
            .expect("frame is observed");
        let n_po = self.po_pos.len() / self.observed_frames.len();
        self.po_pos[of * n_po + po_index]
    }

    /// Positions of the final-state `D` observations in the unrolled PO
    /// vector (empty when `observe_final_state` was off).
    #[must_use]
    pub fn final_state_positions(&self) -> &[usize] {
        &self.final_state_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_switch::cells::CellKind;
    use sinw_switch::seq::Dff;

    fn l(b: bool) -> Logic {
        Logic::from_bool(b)
    }

    /// q' = q XOR a, out = NAND(q, a).
    fn accum() -> SeqCircuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let q = c.add_input("q");
        let d = c.add_gate(CellKind::Xor2, "d", &[q, a]);
        let out = c.add_gate(CellKind::Nand2, "out", &[q, a]);
        c.mark_output(out);
        SeqCircuit::new(
            c,
            vec![Dff {
                name: "ff".into(),
                d,
                q,
            }],
        )
        .unwrap()
    }

    #[test]
    fn three_frames_match_the_cycle_accurate_oracle() {
        let seq = accum();
        let un = unroll(&seq, &UnrollConfig::full_observability(3));
        assert_eq!(un.circuit().primary_inputs().len(), 1 + 3);
        for stim in 0..16u8 {
            let state0 = vec![l(stim & 8 != 0)];
            let inputs: Vec<Vec<Logic>> = (0..3).map(|f| vec![l(stim & (1 << f) != 0)]).collect();
            let (outs, states) = seq.simulate(&state0, &inputs);
            let flat = un.assemble_inputs(&state0, &inputs);
            let values = un.circuit().eval(&flat);
            let pos = un.circuit().primary_outputs();
            for f in 0..3 {
                assert_eq!(values[pos[un.po_position(f, 0)].0], outs[f][0], "frame {f}");
            }
            assert_eq!(values[pos[un.final_state_positions()[0]].0], states[2][0]);
        }
    }

    #[test]
    fn last_frame_only_observation_hides_launch_frames() {
        let seq = accum();
        let un = unroll(
            &seq,
            &UnrollConfig {
                frames: 2,
                observe_all_frames: false,
                observe_final_state: false,
            },
        );
        assert_eq!(un.observed_frames(), &[1]);
        assert_eq!(un.circuit().primary_outputs().len(), 1);
        assert!(un.final_state_positions().is_empty());
    }

    #[test]
    fn fault_embedding_tracks_frames() {
        let seq = accum();
        let un = unroll(&seq, &UnrollConfig::full_observability(2));
        let core_gates = seq.core().gates().len();
        let site = FaultSite::GatePin(GateId(1), 0);
        assert_eq!(
            un.fault_at(1, site),
            FaultSite::GatePin(GateId(core_gates + 1), 0)
        );
        let s = seq.core().gates()[0].output;
        let f0 = un.fault_at(0, FaultSite::Signal(s));
        let f1 = un.fault_at(1, FaultSite::Signal(s));
        assert_ne!(f0, f1, "frame copies are distinct sites");
    }
}
