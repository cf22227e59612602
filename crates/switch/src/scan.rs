//! Scan-chain insertion: rewrite a [`SeqCircuit`] so flip-flop state is
//! directly controllable and observable, reducing sequential test
//! generation to the combinational problem the rest of the repo
//! already solves.
//!
//! A scanned flip-flop's `Q` pin becomes a scan-in port (it was already
//! a pseudo-PI of the Huffman core, so nothing moves) and its `D` pin
//! becomes a scan-out observation point (marked as a primary output).
//! Under **full scan** the residual machine is empty and the rewritten
//! core is an ordinary combinational [`Circuit`]: one test "frame" is
//! *shift state in → apply functional inputs → capture D/PO values*,
//! and PODEM/PPSFP/campaign/diagnosis apply unchanged. Under **partial
//! scan** the unscanned flip-flops remain as a (smaller) residual
//! [`SeqCircuit`] over the same rewritten core.
//!
//! The physical serial chain (SI→Q₀→Q₁→…→SO muxed through each cell) is
//! deliberately *not* modeled structurally: in the per-frame view every
//! scan cell is parallel-load, which is exactly the abstraction ATPG
//! uses — the chain only fixes the shift *schedule*, not the logic
//! under test. [`ScanCircuit::cells`] records the chain order so a
//! tester-facing layer can serialize patterns.

use crate::gate::{Circuit, SignalId};
use crate::seq::{Dff, SeqCircuit};

/// Which flip-flops to scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanPlan {
    /// Scan every flip-flop (the residual machine is combinational).
    Full,
    /// Scan the flip-flops at these indices of [`SeqCircuit::dffs`]
    /// (deduplicated, order defines the chain).
    Partial(Vec<usize>),
}

/// One cell of the inserted scan chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanCell {
    /// Name of the scanned flip-flop.
    pub name: String,
    /// Scan-in port: the flip-flop's `Q` pseudo-PI in the rewritten core.
    pub scan_in: SignalId,
    /// Scan-out point: the flip-flop's `D` signal, marked as a PO.
    pub scan_out: SignalId,
}

/// The result of scan insertion: a rewritten core plus chain metadata
/// and the residual (unscanned) machine.
#[derive(Debug, Clone)]
pub struct ScanCircuit {
    circuit: Circuit,
    cells: Vec<ScanCell>,
    residual: Vec<Dff>,
    functional_po_count: usize,
    scan_out_pos: Vec<usize>,
}

impl ScanCircuit {
    /// The rewritten core. Scan-in ports are primary inputs, scan-out
    /// points are primary outputs appended after the functional POs
    /// (modulo PO dedup — see [`ScanCircuit::scan_out_positions`]).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The scan chain, in shift order.
    #[must_use]
    pub fn cells(&self) -> &[ScanCell] {
        &self.cells
    }

    /// Flip-flops left unscanned (empty under [`ScanPlan::Full`]).
    #[must_use]
    pub fn residual(&self) -> &[Dff] {
        &self.residual
    }

    /// Whether every flip-flop was scanned.
    #[must_use]
    pub fn is_full_scan(&self) -> bool {
        self.residual.is_empty()
    }

    /// How many of the core's POs are functional (the original machine's
    /// outputs); the rest are scan-out points.
    #[must_use]
    pub fn functional_po_count(&self) -> usize {
        self.functional_po_count
    }

    /// For each scan cell, the index of its scan-out value in the
    /// rewritten core's PO vector. Not necessarily
    /// `functional_po_count + i`: [`Circuit::mark_output`] deduplicates,
    /// so a `D` net that already was a functional PO keeps its original
    /// position.
    #[must_use]
    pub fn scan_out_positions(&self) -> &[usize] {
        &self.scan_out_pos
    }

    /// The residual sequential machine over the rewritten core (the
    /// scanned state appears as extra controllable PIs / observable
    /// POs). Under full scan this is a zero-flip-flop wrapper.
    #[must_use]
    pub fn residual_machine(&self) -> SeqCircuit {
        SeqCircuit::new(self.circuit.clone(), self.residual.clone())
            .expect("residual bindings survive the rewrite")
    }
}

/// Insert a scan chain into `seq` according to `plan`.
///
/// The rewrite is purely additive on the core: no gate changes, only
/// `D` nets of scanned flip-flops gaining PO marks. Signal and gate ids
/// of the core are therefore stable across insertion — a fault list
/// enumerated on the scanned circuit covers the original logic exactly.
#[must_use]
pub fn insert_scan(seq: &SeqCircuit, plan: &ScanPlan) -> ScanCircuit {
    let mut scanned = vec![false; seq.dffs().len()];
    match plan {
        ScanPlan::Full => scanned.iter_mut().for_each(|s| *s = true),
        ScanPlan::Partial(indices) => {
            for &i in indices {
                if i < scanned.len() {
                    scanned[i] = true;
                }
            }
        }
    }
    let mut circuit = seq.core().clone();
    let functional_po_count = circuit.primary_outputs().len();
    let mut cells = Vec::new();
    let mut residual = Vec::new();
    for (ff, scan) in seq.dffs().iter().zip(&scanned) {
        if *scan {
            circuit.mark_output(ff.d);
            cells.push(ScanCell {
                name: ff.name.clone(),
                scan_in: ff.q,
                scan_out: ff.d,
            });
        } else {
            residual.push(ff.clone());
        }
    }
    let scan_out_pos = cells
        .iter()
        .map(|cell| {
            circuit
                .primary_outputs()
                .iter()
                .position(|po| *po == cell.scan_out)
                .expect("scan-out was just marked")
        })
        .collect();
    ScanCircuit {
        circuit,
        cells,
        residual,
        functional_po_count,
        scan_out_pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellKind;
    use crate::value::Logic;

    /// 2-bit counter-ish machine: q0' = NOT q0, q1' = q0 XOR q1,
    /// out = NAND(q0, q1).
    fn two_bit_machine() -> SeqCircuit {
        let mut c = Circuit::new();
        let q0 = c.add_input("q0");
        let q1 = c.add_input("q1");
        let d0 = c.add_gate(CellKind::Inv, "d0", &[q0]);
        let d1 = c.add_gate(CellKind::Xor2, "d1", &[q0, q1]);
        let out = c.add_gate(CellKind::Nand2, "out", &[q0, q1]);
        c.mark_output(out);
        SeqCircuit::new(
            c,
            vec![
                Dff {
                    name: "ff0".into(),
                    d: d0,
                    q: q0,
                },
                Dff {
                    name: "ff1".into(),
                    d: d1,
                    q: q1,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn full_scan_exposes_next_state_as_pos() {
        let seq = two_bit_machine();
        let scan = insert_scan(&seq, &ScanPlan::Full);
        assert!(scan.is_full_scan());
        assert_eq!(scan.cells().len(), 2);
        assert_eq!(scan.functional_po_count(), 1);
        assert_eq!(scan.circuit().primary_outputs().len(), 3);
        // Per-frame equivalence: core eval under (state, inputs) shows
        // the step()'s outputs and next state on the marked POs.
        for s in 0..4u8 {
            let state = vec![Logic::from_bool(s & 1 == 1), Logic::from_bool(s & 2 == 2)];
            let (outs, next) = seq.step(&state, &[]);
            let pi = seq.assemble_pi(&state, &[]);
            let values = scan.circuit().eval(&pi);
            let pos = scan.circuit().primary_outputs();
            assert_eq!(values[pos[0].0], outs[0]);
            for (i, pos_idx) in scan.scan_out_positions().iter().enumerate() {
                assert_eq!(values[pos[*pos_idx].0], next[i]);
            }
        }
    }

    #[test]
    fn partial_scan_keeps_a_residual_machine() {
        let seq = two_bit_machine();
        let scan = insert_scan(&seq, &ScanPlan::Partial(vec![1]));
        assert!(!scan.is_full_scan());
        assert_eq!(scan.cells().len(), 1);
        assert_eq!(scan.residual().len(), 1);
        assert_eq!(scan.residual()[0].name, "ff0");
        let machine = scan.residual_machine();
        assert_eq!(machine.state_width(), 1);
        // q1 is now a functional input of the residual machine.
        assert_eq!(machine.functional_inputs().len(), 1);
    }

    #[test]
    fn scan_out_dedup_when_d_is_already_a_po() {
        // Machine whose D net is also a functional PO.
        let mut c = Circuit::new();
        let q = c.add_input("q");
        let d = c.add_gate(CellKind::Inv, "d", &[q]);
        c.mark_output(d);
        let seq = SeqCircuit::new(
            c,
            vec![Dff {
                name: "ff".into(),
                d,
                q,
            }],
        )
        .unwrap();
        let scan = insert_scan(&seq, &ScanPlan::Full);
        // mark_output dedups: still one PO, scan-out position aliases it.
        assert_eq!(scan.circuit().primary_outputs().len(), 1);
        assert_eq!(scan.scan_out_positions(), &[0]);
    }
}
