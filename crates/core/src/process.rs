//! Fabrication-process model and inductive fault analysis (Table I,
//! Section IV-A of the paper).
//!
//! Each manufacturing step of the TIG-SiNWFET top-down flow contributes a
//! class of physical defects; enumerating those classes over the structure
//! of a cell (its transistors, gate electrodes and terminal adjacencies)
//! yields the cell's *defect universe* — the starting point of inductive
//! fault analysis.

use sinw_switch::cells::{Cell, CellKind};
use sinw_switch::netlist::{GateRole, NetKind};

/// The five fabrication steps of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessStep {
    /// (1) HSQ-based nanowire patterning.
    NanowirePatterning,
    /// (2) Bosch etching.
    BoschEtch,
    /// (3) Self-limiting oxidation (gate dielectric).
    Oxidation,
    /// (4) Conformal polysilicon deposition (polarity + control gates).
    PolysiliconDeposition,
    /// (5) Metal layer deposition (interconnect).
    Metallization,
}

impl ProcessStep {
    /// All steps, in process order.
    pub const ALL: [ProcessStep; 5] = [
        ProcessStep::NanowirePatterning,
        ProcessStep::BoschEtch,
        ProcessStep::Oxidation,
        ProcessStep::PolysiliconDeposition,
        ProcessStep::Metallization,
    ];

    /// The process outcome (Table I, middle column).
    #[must_use]
    pub fn outcome(&self) -> &'static str {
        match self {
            ProcessStep::NanowirePatterning => "initial pattern of nanowires",
            ProcessStep::BoschEtch => "nanowire formation",
            ProcessStep::Oxidation => "dielectric formation",
            ProcessStep::PolysiliconDeposition => "polarity and control gates",
            ProcessStep::Metallization => "interconnections",
        }
    }

    /// The defect classes the step may introduce (Table I, right column).
    #[must_use]
    pub fn defect_classes(&self) -> &'static [DefectClass] {
        match self {
            ProcessStep::NanowirePatterning | ProcessStep::BoschEtch => {
                &[DefectClass::NanowireBreak]
            }
            ProcessStep::Oxidation => &[DefectClass::GateOxideShort],
            ProcessStep::PolysiliconDeposition => &[DefectClass::TerminalBridge],
            ProcessStep::Metallization => {
                &[DefectClass::InterconnectBridge, DefectClass::FloatingGate]
            }
        }
    }
}

impl std::fmt::Display for ProcessStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            ProcessStep::NanowirePatterning => "HSQ-based nanowire patterning",
            ProcessStep::BoschEtch => "Bosch process",
            ProcessStep::Oxidation => "oxidation process",
            ProcessStep::PolysiliconDeposition => "polysilicon deposition",
            ProcessStep::Metallization => "metal layer deposition",
        })
    }
}

/// Physical defect classes of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DefectClass {
    /// Break of the nanowire body (LER / etch damage).
    NanowireBreak,
    /// Conductive plug through a gate dielectric.
    GateOxideShort,
    /// Bridge between two gate electrodes or an electrode and a supply
    /// line (deposition / polishing defects).
    TerminalBridge,
    /// Bridge between interconnect lines.
    InterconnectBridge,
    /// Floating (disconnected) gate.
    FloatingGate,
}

impl std::fmt::Display for DefectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            DefectClass::NanowireBreak => "nanowire break",
            DefectClass::GateOxideShort => "gate oxide short",
            DefectClass::TerminalBridge => "bridge between terminals",
            DefectClass::InterconnectBridge => "bridge among interconnects",
            DefectClass::FloatingGate => "floating gate",
        })
    }
}

/// A concrete physical defect site inside a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum DefectSite {
    /// On the channel of a transistor (index into the cell's list).
    Channel(usize),
    /// On one gate electrode of a transistor.
    Gate(usize, GateRole),
    /// Between two adjacent gate electrodes of the same transistor — the
    /// self-aligned stack makes PGS–CG and CG–PGD the adjacent pairs.
    AdjacentGates(usize, GateRole, GateRole),
    /// Between a polarity-gate electrode and a supply rail (the defect the
    /// stuck-at n/p-type models abstract, Section V-B).
    PolarityToRail(usize, bool),
    /// On the interconnect of a named net.
    Net(String),
}

/// A physical defect: class, originating step and site.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalDefect {
    /// Defect class.
    pub class: DefectClass,
    /// The fabrication step that produces it.
    pub step: ProcessStep,
    /// Where it sits in the cell.
    pub site: DefectSite,
}

/// Enumerate the defect universe of a cell by walking its structure with
/// the Table I defect classes — the inductive fault analysis of
/// Section IV.
#[must_use]
pub fn enumerate_defects(cell: &Cell) -> Vec<PhysicalDefect> {
    let mut defects = Vec::new();
    let n = cell.transistors.len();

    for t in 0..n {
        // (1)/(2) nanowire break on every channel.
        defects.push(PhysicalDefect {
            class: DefectClass::NanowireBreak,
            step: ProcessStep::BoschEtch,
            site: DefectSite::Channel(t),
        });
        // (3) GOS under each of the three gates.
        for role in [GateRole::Pgs, GateRole::Cg, GateRole::Pgd] {
            defects.push(PhysicalDefect {
                class: DefectClass::GateOxideShort,
                step: ProcessStep::Oxidation,
                site: DefectSite::Gate(t, role),
            });
        }
        // (4) bridges between adjacent electrodes of the gate stack.
        defects.push(PhysicalDefect {
            class: DefectClass::TerminalBridge,
            step: ProcessStep::PolysiliconDeposition,
            site: DefectSite::AdjacentGates(t, GateRole::Pgs, GateRole::Cg),
        });
        defects.push(PhysicalDefect {
            class: DefectClass::TerminalBridge,
            step: ProcessStep::PolysiliconDeposition,
            site: DefectSite::AdjacentGates(t, GateRole::Cg, GateRole::Pgd),
        });
        // (4) polarity-terminal bridge to each rail — the CP-specific
        // defect of Section V-B.
        for to_vdd in [true, false] {
            defects.push(PhysicalDefect {
                class: DefectClass::TerminalBridge,
                step: ProcessStep::PolysiliconDeposition,
                site: DefectSite::PolarityToRail(t, to_vdd),
            });
        }
    }

    // (5) metallisation defects on the signal nets.
    for net in cell.netlist.nets() {
        if matches!(
            net.kind,
            NetKind::Input | NetKind::Internal | NetKind::Output
        ) {
            defects.push(PhysicalDefect {
                class: DefectClass::FloatingGate,
                step: ProcessStep::Metallization,
                site: DefectSite::Net(net.name.clone()),
            });
        }
    }
    defects
}

/// Defect-universe statistics of a cell (the Table I bench reports these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefectCensus {
    /// The cell kind.
    pub kind: CellKind,
    /// Count per defect class, in `DefectClass` order (break, GOS,
    /// terminal bridge, interconnect bridge, floating gate).
    pub per_class: [usize; 5],
}

impl DefectCensus {
    /// Total defect count.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_class.iter().sum()
    }
}

/// Census over a cell.
#[must_use]
pub fn census(kind: CellKind) -> DefectCensus {
    let cell = Cell::build(kind);
    let defects = enumerate_defects(&cell);
    let mut per_class = [0usize; 5];
    for d in &defects {
        let idx = match d.class {
            DefectClass::NanowireBreak => 0,
            DefectClass::GateOxideShort => 1,
            DefectClass::TerminalBridge => 2,
            DefectClass::InterconnectBridge => 3,
            DefectClass::FloatingGate => 4,
        };
        per_class[idx] += 1;
    }
    DefectCensus { kind, per_class }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_maps_steps_to_defects() {
        assert_eq!(
            ProcessStep::BoschEtch.defect_classes(),
            &[DefectClass::NanowireBreak]
        );
        assert_eq!(
            ProcessStep::Oxidation.defect_classes(),
            &[DefectClass::GateOxideShort]
        );
        assert_eq!(
            ProcessStep::Metallization.defect_classes().len(),
            2,
            "metal brings bridges and floats"
        );
    }

    #[test]
    fn step_display_honours_width_and_alignment() {
        assert_eq!(
            format!("{:>20}|", ProcessStep::BoschEtch),
            "       Bosch process|"
        );
        assert_eq!(
            format!("{:<18}|", ProcessStep::Oxidation),
            "oxidation process |"
        );
        assert_eq!(
            format!("{}|", ProcessStep::Metallization),
            "metal layer deposition|"
        );
    }

    #[test]
    fn xor2_universe_has_expected_shape() {
        let cell = Cell::build(CellKind::Xor2);
        let defects = enumerate_defects(&cell);
        let breaks = defects
            .iter()
            .filter(|d| d.class == DefectClass::NanowireBreak)
            .count();
        assert_eq!(breaks, 4, "one break per transistor");
        let gos = defects
            .iter()
            .filter(|d| d.class == DefectClass::GateOxideShort)
            .count();
        assert_eq!(gos, 12, "three GOS sites per transistor");
        let rails = defects
            .iter()
            .filter(|d| matches!(d.site, DefectSite::PolarityToRail(_, _)))
            .count();
        assert_eq!(rails, 8, "two rail bridges per transistor");
    }

    #[test]
    fn census_totals_scale_with_cell_size() {
        let inv = census(CellKind::Inv);
        let nand = census(CellKind::Nand2);
        assert!(nand.total() > inv.total());
        assert_eq!(inv.per_class[0], 2, "INV has two channels");
        assert_eq!(nand.per_class[0], 4);
    }
}
