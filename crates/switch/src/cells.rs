//! The TIG-SiNWFET cell library of Fig. 2.
//!
//! Static-polarity (SP) cells — INV, NAND2, NOR2 — tie their polarity gates
//! to the rails (GND in the pull-up network, Vdd in the pull-down network),
//! so every device has a fixed polarity for its whole lifetime.
//!
//! Dynamic-polarity (DP) cells — XOR2, XOR3, MAJ3 — drive the polarity
//! gates from input signals and exploit the intrinsic XOR characteristic of
//! the CP conduction rule (`conducts ⇔ CG = PGS = PGD`). Each DP cell is
//! built from two *redundant pairs* of devices: both devices of a pair
//! conduct for the same input condition, which is exactly the redundancy
//! that masks channel-break defects in Section V-C of the paper.
//!
//! The XOR2 wiring reproduces Table III: with the stuck-at-n-type fault
//! injected, t1 is exposed by input 00, t2 by 11, t3 by 01 and t4 by 10,
//! with the pull-up pair (t1, t2) observable only through IDDQ and the
//! pull-down pair (t3, t4) also through the output.

use crate::netlist::{NetId, NetKind, Netlist, TransistorId};
use crate::sim::SwitchSim;
use crate::value::Logic;

/// The cell kinds of the Fig. 2 library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Static-polarity inverter (devices t1/t3).
    Inv,
    /// Static-polarity 2-input NAND (t1, t2 pull-up; t3, t4 pull-down).
    Nand2,
    /// Static-polarity 2-input NOR (t1, t2 pull-up; t3, t4 pull-down).
    Nor2,
    /// Dynamic-polarity 2-input XOR (t1, t2 pull-up; t3, t4 pull-down).
    Xor2,
    /// Dynamic-polarity 3-input XOR (pass-transistor structure).
    Xor3,
    /// Dynamic-polarity 3-input majority gate.
    Maj3,
}

impl CellKind {
    /// All six cells of Fig. 2.
    pub const ALL: [CellKind; 6] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xor3,
        CellKind::Maj3,
    ];

    /// Number of primary (uncomplemented) inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Nand2 | CellKind::Nor2 | CellKind::Xor2 => 2,
            CellKind::Xor3 | CellKind::Maj3 => 3,
        }
    }

    /// Whether the cell uses dynamic polarity (PGs driven by signals).
    #[must_use]
    pub fn is_dynamic_polarity(&self) -> bool {
        matches!(self, CellKind::Xor2 | CellKind::Xor3 | CellKind::Maj3)
    }

    /// Stable one-byte wire encoding of the cell kind (the `.sinw`
    /// snapshot format depends on these values never changing: new kinds
    /// get new codes, existing codes are frozen).
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            CellKind::Inv => 0,
            CellKind::Nand2 => 1,
            CellKind::Nor2 => 2,
            CellKind::Xor2 => 3,
            CellKind::Xor3 => 4,
            CellKind::Maj3 => 5,
        }
    }

    /// Inverse of [`CellKind::code`]; `None` for unknown codes (a decode
    /// of corrupted or future-versioned snapshot bytes, never a panic).
    #[must_use]
    pub fn from_code(code: u8) -> Option<CellKind> {
        CellKind::ALL.iter().copied().find(|k| k.code() == code)
    }

    /// Reference boolean function of the cell.
    #[must_use]
    pub fn function(&self, inputs: &[bool]) -> bool {
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Nand2 => !(inputs[0] && inputs[1]),
            CellKind::Nor2 => !(inputs[0] || inputs[1]),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xor3 => inputs[0] ^ inputs[1] ^ inputs[2],
            CellKind::Maj3 => {
                (inputs[0] & inputs[1]) | (inputs[1] & inputs[2]) | (inputs[0] & inputs[2])
            }
        }
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            CellKind::Inv => "INV",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xor3 => "XOR3",
            CellKind::Maj3 => "MAJ3",
        })
    }
}

/// A built cell: netlist plus the handles experiments need.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell kind.
    pub kind: CellKind,
    /// Transistor-level netlist.
    pub netlist: Netlist,
    /// Primary inputs, in order (A, B, C…).
    pub inputs: Vec<NetId>,
    /// Complemented inputs (Ā, B̄, C̄…) where the cell requires them
    /// (DP cells receive dual-rail signals); empty for SP cells.
    pub n_inputs: Vec<NetId>,
    /// The output net.
    pub output: NetId,
    /// The transistors in the paper's naming order (t1, t2, t3, t4).
    pub transistors: Vec<TransistorId>,
    /// Indices (into `transistors`) of the pull-up network devices.
    pub pull_up: Vec<usize>,
    /// Indices of the pull-down network devices.
    pub pull_down: Vec<usize>,
}

impl Cell {
    /// Build a cell of the given kind.
    #[must_use]
    pub fn build(kind: CellKind) -> Self {
        match kind {
            CellKind::Inv => build_inv(),
            CellKind::Nand2 => build_nand2(),
            CellKind::Nor2 => build_nor2(),
            CellKind::Xor2 => build_xor2(),
            CellKind::Xor3 => build_xor3(),
            CellKind::Maj3 => build_maj3(),
        }
    }

    /// The input assignment for a boolean vector, including the dual-rail
    /// complements the DP cells expect.
    #[must_use]
    pub fn input_assignment(&self, vector: &[bool]) -> Vec<(NetId, Logic)> {
        assert_eq!(vector.len(), self.inputs.len(), "vector arity mismatch");
        let mut assignment: Vec<(NetId, Logic)> = self
            .inputs
            .iter()
            .zip(vector)
            .map(|(id, b)| (*id, Logic::from_bool(*b)))
            .collect();
        for (k, id) in self.n_inputs.iter().enumerate() {
            assignment.push((*id, Logic::from_bool(!vector[k])));
        }
        assignment
    }

    /// Evaluate the cell on a boolean vector with a fresh fault-free
    /// simulator and return the output value.
    #[must_use]
    pub fn eval(&self, vector: &[bool]) -> Logic {
        let mut sim = SwitchSim::new(&self.netlist);
        sim.apply(&self.input_assignment(vector)).value(self.output)
    }

    /// Exhaustive truth-table check against [`CellKind::function`].
    ///
    /// Returns the list of failing vectors (empty = cell is correct).
    #[must_use]
    pub fn verify_truth_table(&self) -> Vec<Vec<bool>> {
        let n = self.inputs.len();
        let mut failures = Vec::new();
        for bits in 0..(1u32 << n) {
            let vector: Vec<bool> = (0..n).map(|k| (bits >> k) & 1 == 1).collect();
            let expect = Logic::from_bool(self.kind.function(&vector));
            // Fresh simulator per vector: truth tables are static questions.
            if self.eval(&vector) != expect {
                failures.push(vector);
            }
        }
        failures
    }

    /// Name of transistor `index` in the paper's convention.
    #[must_use]
    pub fn transistor_name(&self, index: usize) -> &str {
        &self.netlist.transistors()[self.transistors[index].0].name
    }
}

fn base_nets(nl: &mut Netlist, names: &[&str]) -> (NetId, NetId, Vec<NetId>, NetId) {
    let vdd = nl.add_net("vdd", NetKind::Supply);
    let gnd = nl.add_net("gnd", NetKind::Ground);
    let inputs: Vec<NetId> = names
        .iter()
        .map(|n| nl.add_net(*n, NetKind::Input))
        .collect();
    let out = nl.add_net("out", NetKind::Output);
    (vdd, gnd, inputs, out)
}

/// SP inverter (Fig. 2a): the paper numbers its devices t1 (pull-up) and
/// t3 (pull-down), matching the Fig. 5 captions.
fn build_inv() -> Cell {
    let mut nl = Netlist::new();
    let (vdd, gnd, ins, out) = base_nets(&mut nl, &["a"]);
    let a = ins[0];
    let t1 = nl.add_tig("t1", vdd, out, a, gnd);
    let t3 = nl.add_tig("t3", gnd, out, a, vdd);
    Cell {
        kind: CellKind::Inv,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![],
        output: out,
        transistors: vec![t1, t3],
        pull_up: vec![0],
        pull_down: vec![1],
    }
}

/// SP NAND2 (Fig. 2a): parallel p-mode pull-up (PG=GND), series n-mode
/// pull-down (PG=Vdd).
fn build_nand2() -> Cell {
    let mut nl = Netlist::new();
    let (vdd, gnd, ins, out) = base_nets(&mut nl, &["a", "b"]);
    let (a, b) = (ins[0], ins[1]);
    let mid = nl.add_net("n1", NetKind::Internal);
    let t1 = nl.add_tig("t1", vdd, out, a, gnd);
    let t2 = nl.add_tig("t2", vdd, out, b, gnd);
    let t3 = nl.add_tig("t3", out, mid, a, vdd);
    let t4 = nl.add_tig("t4", mid, gnd, b, vdd);
    Cell {
        kind: CellKind::Nand2,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![],
        output: out,
        transistors: vec![t1, t2, t3, t4],
        pull_up: vec![0, 1],
        pull_down: vec![2, 3],
    }
}

/// SP NOR2 (Fig. 2a): series p-mode pull-up, parallel n-mode pull-down.
fn build_nor2() -> Cell {
    let mut nl = Netlist::new();
    let (vdd, gnd, ins, out) = base_nets(&mut nl, &["a", "b"]);
    let (a, b) = (ins[0], ins[1]);
    let mid = nl.add_net("n1", NetKind::Internal);
    let t1 = nl.add_tig("t1", vdd, mid, a, gnd);
    let t2 = nl.add_tig("t2", mid, out, b, gnd);
    let t3 = nl.add_tig("t3", gnd, out, a, vdd);
    let t4 = nl.add_tig("t4", gnd, out, b, vdd);
    Cell {
        kind: CellKind::Nor2,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![],
        output: out,
        transistors: vec![t1, t2, t3, t4],
        pull_up: vec![0, 1],
        pull_down: vec![2, 3],
    }
}

/// DP XOR2 (Fig. 2b): complementary structure with redundant pairs.
///
/// Pull-up pair (conducts ⇔ A≠B): t1 (CG=Ā, PG=B), t2 (CG=A, PG=B̄).
/// Pull-down pair (conducts ⇔ A=B): t3 (CG=B, PG=A), t4 (CG=A, PG=B).
///
/// Under the stuck-at-n-type fault this wiring is exposed exactly by the
/// Table III vectors: t1 ← 00, t2 ← 11, t3 ← 01, t4 ← 10.
fn build_xor2() -> Cell {
    let mut nl = Netlist::new();
    let (vdd, gnd, ins, out) = base_nets(&mut nl, &["a", "b"]);
    let (a, b) = (ins[0], ins[1]);
    let na = nl.add_net("na", NetKind::Input);
    let nb = nl.add_net("nb", NetKind::Input);
    let t1 = nl.add_tig("t1", vdd, out, na, b);
    let t2 = nl.add_tig("t2", vdd, out, a, nb);
    let t3 = nl.add_tig("t3", gnd, out, b, a);
    let t4 = nl.add_tig("t4", gnd, out, a, b);
    Cell {
        kind: CellKind::Xor2,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![na, nb],
        output: out,
        transistors: vec![t1, t2, t3, t4],
        pull_up: vec![0, 1],
        pull_down: vec![2, 3],
    }
}

/// DP XOR3 (Fig. 2b): the XOR2 structure with the rails replaced by C̄/C —
/// when A≠B the cell passes C̄, when A=B it passes C, which is A⊕B⊕C.
fn build_xor3() -> Cell {
    let mut nl = Netlist::new();
    let (_vdd, _gnd, ins, out) = base_nets(&mut nl, &["a", "b", "c"]);
    let (a, b, c) = (ins[0], ins[1], ins[2]);
    let na = nl.add_net("na", NetKind::Input);
    let nb = nl.add_net("nb", NetKind::Input);
    let nc = nl.add_net("nc", NetKind::Input);
    let t1 = nl.add_tig("t1", nc, out, na, b);
    let t2 = nl.add_tig("t2", nc, out, a, nb);
    let t3 = nl.add_tig("t3", c, out, b, a);
    let t4 = nl.add_tig("t4", c, out, a, b);
    Cell {
        kind: CellKind::Xor3,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![na, nb, nc],
        output: out,
        transistors: vec![t1, t2, t3, t4],
        pull_up: vec![0, 1],
        pull_down: vec![2, 3],
    }
}

/// DP MAJ3 (Fig. 2b): when A≠B the majority is C (passed by the t1/t2
/// pair); when A=B it is A (passed by t3/t4).
fn build_maj3() -> Cell {
    let mut nl = Netlist::new();
    let (_vdd, _gnd, ins, out) = base_nets(&mut nl, &["a", "b", "c"]);
    let (a, b, c) = (ins[0], ins[1], ins[2]);
    let na = nl.add_net("na", NetKind::Input);
    let nb = nl.add_net("nb", NetKind::Input);
    let t1 = nl.add_tig("t1", c, out, na, b);
    let t2 = nl.add_tig("t2", c, out, a, nb);
    let t3 = nl.add_tig("t3", a, out, b, a);
    let t4 = nl.add_tig("t4", b, out, a, b);
    Cell {
        kind: CellKind::Maj3,
        netlist: nl,
        inputs: ins,
        n_inputs: vec![na, nb],
        output: out,
        transistors: vec![t1, t2, t3, t4],
        pull_up: vec![0, 1],
        pull_down: vec![2, 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:6}|", CellKind::Inv), "INV   |");
        assert_eq!(format!("{:>6}|", CellKind::Nand2), " NAND2|");
        assert_eq!(format!("{}|", CellKind::Maj3), "MAJ3|");
    }

    #[test]
    fn all_cells_implement_their_function() {
        for kind in CellKind::ALL {
            let cell = Cell::build(kind);
            let failures = cell.verify_truth_table();
            assert!(failures.is_empty(), "{kind} fails on vectors {failures:?}");
        }
    }

    #[test]
    fn sp_cells_have_no_complemented_inputs() {
        for kind in [CellKind::Inv, CellKind::Nand2, CellKind::Nor2] {
            assert!(Cell::build(kind).n_inputs.is_empty(), "{kind}");
        }
    }

    #[test]
    fn dp_cells_are_redundant_pairs() {
        // Both devices of each DP pair conduct for the same input condition
        // — the redundancy that masks channel breaks (Section V-C).
        for kind in [CellKind::Xor2, CellKind::Xor3, CellKind::Maj3] {
            let cell = Cell::build(kind);
            assert_eq!(cell.pull_up.len(), 2, "{kind}");
            assert_eq!(cell.pull_down.len(), 2, "{kind}");
        }
    }

    #[test]
    fn xor2_pairs_conduct_together() {
        use crate::netlist::{conduction_rule, Conduction};
        let cell = Cell::build(CellKind::Xor2);
        for bits in 0..4u32 {
            let a = bits & 1 == 1;
            let b = bits & 2 == 2;
            // Evaluate the conduction of each device by hand.
            let gate_val = |net: NetId| -> Logic {
                let name = &cell.netlist.net(net).name;
                Logic::from_bool(match name.as_str() {
                    "a" => a,
                    "b" => b,
                    "na" => !a,
                    "nb" => !b,
                    "vdd" => true,
                    "gnd" => false,
                    other => panic!("unexpected gate net {other}"),
                })
            };
            let conducting: Vec<bool> = cell
                .transistors
                .iter()
                .map(|tid| {
                    let t = cell.netlist.transistor(*tid);
                    conduction_rule(gate_val(t.cg), gate_val(t.pgs), gate_val(t.pgd))
                        == Conduction::On
                })
                .collect();
            let up_expected = a != b;
            assert_eq!(conducting[0], up_expected, "t1 at {a}{b}");
            assert_eq!(conducting[1], up_expected, "t2 at {a}{b}");
            assert_eq!(conducting[2], !up_expected, "t3 at {a}{b}");
            assert_eq!(conducting[3], !up_expected, "t4 at {a}{b}");
        }
    }

    #[test]
    fn transistor_names_follow_the_paper() {
        let inv = Cell::build(CellKind::Inv);
        assert_eq!(inv.transistor_name(0), "t1");
        assert_eq!(inv.transistor_name(1), "t3");
        let nand = Cell::build(CellKind::Nand2);
        assert_eq!(nand.transistor_name(3), "t4");
    }
}
