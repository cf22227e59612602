//! Structural fault-equivalence collapsing.
//!
//! Two faults are equivalent when no pattern distinguishes them; the
//! classical within-cell rules are
//!
//! * INV: `in s-a-v ≡ out s-a-v̄`;
//! * NAND: any `in s-a-0 ≡ out s-a-1` (a controlling 0 dominates);
//! * NOR: any `in s-a-1 ≡ out s-a-0`;
//! * XOR / MAJ cells admit no single-gate input/output equivalence.
//!
//! Collapsing shrinks the fault universe the ATPG loop has to target
//! without changing achievable coverage.

use crate::fault_list::{FaultSite, StuckAtFault};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::Circuit;

/// Union–find over fault indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Result of collapsing: representative faults plus the class map.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    /// One representative per equivalence class.
    pub representatives: Vec<StuckAtFault>,
    /// For every input fault, the index of its representative in
    /// `representatives`.
    pub class_of: Vec<usize>,
}

impl CollapsedFaults {
    /// Collapse ratio (representatives / original).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.class_of.is_empty() {
            return 1.0;
        }
        self.representatives.len() as f64 / self.class_of.len() as f64
    }
}

/// Collapse a fault list against the circuit structure.
#[must_use]
pub fn collapse(circuit: &Circuit, faults: &[StuckAtFault]) -> CollapsedFaults {
    let index_of = |f: &StuckAtFault| faults.iter().position(|g| g == f);
    let mut uf = UnionFind::new(faults.len());

    for (gi, gate) in circuit.gates().iter().enumerate() {
        let gid = sinw_switch::gate::GateId(gi);
        // The fault site on pin `pin`: the branch fault if it exists in
        // the universe (fanout > 1), otherwise the stem fault of the
        // feeding signal — but the stem is only equivalent to the pin when
        // nothing else observes it (single fanout *and* not a primary
        // output, which would be directly observable).
        let pin_site = |pin: usize| -> Option<FaultSite> {
            let branch = FaultSite::GatePin(gid, pin);
            if faults.iter().any(|f| f.site == branch) {
                return Some(branch);
            }
            let sig = gate.inputs[pin];
            let observable_elsewhere = circuit.primary_outputs().contains(&sig);
            (!observable_elsewhere).then_some(FaultSite::Signal(sig))
        };
        let out = FaultSite::Signal(gate.output);
        let rules: Vec<(usize, bool, bool)> = match gate.kind {
            // (pin, input stuck value, output stuck value)
            CellKind::Inv => vec![(0, false, true), (0, true, false)],
            CellKind::Nand2 => vec![(0, false, true), (1, false, true)],
            CellKind::Nor2 => vec![(0, true, false), (1, true, false)],
            CellKind::Xor2 | CellKind::Xor3 | CellKind::Maj3 => vec![],
        };
        for (pin, in_v, out_v) in rules {
            let Some(site) = pin_site(pin) else {
                continue;
            };
            let fi = index_of(&StuckAtFault { site, value: in_v });
            let fo = index_of(&StuckAtFault {
                site: out,
                value: out_v,
            });
            if let (Some(a), Some(b)) = (fi, fo) {
                uf.union(a, b);
            }
        }
    }

    let mut rep_index: Vec<Option<usize>> = vec![None; faults.len()];
    let mut representatives = Vec::new();
    let mut class_of = vec![0usize; faults.len()];
    for (i, class) in class_of.iter_mut().enumerate() {
        let root = uf.find(i);
        let idx = match rep_index[root] {
            Some(idx) => idx,
            None => {
                representatives.push(faults[root]);
                rep_index[root] = Some(representatives.len() - 1);
                representatives.len() - 1
            }
        };
        *class = idx;
    }
    CollapsedFaults {
        representatives,
        class_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use crate::faultsim::{detect_mask, PatternBlock};
    use sinw_switch::gate::{GateId, SignalId};

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let m = c.add_gate(CellKind::Inv, "g1", &[a]);
        let o = c.add_gate(CellKind::Inv, "g2", &[m]);
        c.mark_output(o);
        let faults = enumerate_stuck_at(&c);
        assert_eq!(faults.len(), 6);
        let collapsed = collapse(&c, &faults);
        // a-sa0 ≡ m-sa1 ≡ o-sa0 and a-sa1 ≡ m-sa0 ≡ o-sa1.
        assert_eq!(collapsed.representatives.len(), 2);
    }

    #[test]
    fn collapsed_classes_really_are_equivalent() {
        // Every fault must be detected by exactly the same patterns as its
        // representative — checked exhaustively on c17.
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &faults);
        assert!(collapsed.representatives.len() < faults.len());
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|bits| (0..5).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let block: PatternBlock = PatternBlock::pack(&c, &patterns);
        for (fi, fault) in faults.iter().enumerate() {
            let rep = collapsed.representatives[collapsed.class_of[fi]];
            assert_eq!(
                detect_mask(&c, *fault, &block),
                detect_mask(&c, rep, &block),
                "{} not equivalent to its representative {}",
                fault.describe(&c),
                rep.describe(&c)
            );
        }
    }

    #[test]
    fn xor_cells_do_not_collapse() {
        let c = Circuit::parity_tree(2);
        let faults = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &faults);
        assert_eq!(collapsed.representatives.len(), faults.len());
    }

    /// A fault list with duplicates, in permuted order, plus one fault on
    /// a pin the circuit does not have: the first occurrence of each
    /// fault carries its class, later copies stay singleton classes.
    #[test]
    fn duplicated_permuted_fault_list_keeps_first_occurrence_classes() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let n = c.add_gate(CellKind::Nand2, "g1", &[a, b]);
        let i = c.add_gate(CellKind::Inv, "g2", &[a]);
        let o = c.add_gate(CellKind::Nor2, "g3", &[n, i]);
        c.mark_output(n);
        c.mark_output(o);
        let universe = enumerate_stuck_at(&c);
        let mut faults: Vec<StuckAtFault> = universe.iter().rev().copied().collect();
        faults.insert(3, universe[4]);
        faults.push(universe[0]);
        faults.push(universe[9]);
        faults.push(StuckAtFault::sa0(FaultSite::GatePin(GateId(1), 1)));
        let collapsed = collapse(&c, &faults);

        let sig = |value, s| StuckAtFault {
            site: FaultSite::Signal(SignalId(s)),
            value,
        };
        let pin = |value, g, p| StuckAtFault {
            site: FaultSite::GatePin(GateId(g), p),
            value,
        };
        let representatives = vec![
            sig(true, 4),
            sig(false, 4),
            sig(false, 3),
            sig(true, 2),
            sig(false, 2),
            sig(true, 1),
            pin(false, 1, 0),
            pin(true, 0, 0),
            sig(true, 0),
            sig(false, 0),
            sig(false, 0),
            sig(true, 2),
            pin(false, 1, 1),
        ];
        assert_eq!(collapsed.representatives, representatives);
        assert_eq!(
            collapsed.class_of,
            [0, 1, 1, 1, 2, 3, 4, 5, 3, 2, 6, 7, 3, 8, 9, 10, 11, 12]
        );
    }
}
