//! Transistor-level netlist representation of CP-SiNW cells.
//!
//! A [`Netlist`] is a set of named nets plus a set of [`Transistor`]s, each
//! with two channel terminals (source/drain — the device is symmetric) and
//! the three gate terminals CG/PGS/PGD of a TIG-SiNWFET.

use crate::value::Logic;

/// Index of a net inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Index of a transistor inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransistorId(pub usize);

/// What role a net plays in the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetKind {
    /// The Vdd rail (logic 1, supply strength).
    Supply,
    /// The GND rail (logic 0, supply strength).
    Ground,
    /// A primary input of the cell.
    Input,
    /// An internal node.
    Internal,
    /// A primary output of the cell.
    Output,
}

/// One net of the netlist.
#[derive(Debug, Clone)]
pub struct Net {
    /// Human-readable name (unique within the netlist).
    pub name: String,
    /// Role of the net.
    pub kind: NetKind,
}

/// One of the three gate electrodes of a transistor, as seen from the
/// netlist (mirrors `sinw_device::GateTerminal` without creating a
/// dependency between the logical and physical substrates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateRole {
    /// Control gate.
    Cg,
    /// Source-side polarity gate.
    Pgs,
    /// Drain-side polarity gate.
    Pgd,
}

impl std::fmt::Display for GateRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateRole::Cg => write!(f, "CG"),
            GateRole::Pgs => write!(f, "PGS"),
            GateRole::Pgd => write!(f, "PGD"),
        }
    }
}

/// A TIG-SiNWFET instance in a netlist.
#[derive(Debug, Clone)]
pub struct Transistor {
    /// Instance name (`t1`…`t4` in the paper's figures).
    pub name: String,
    /// First channel terminal.
    pub source: NetId,
    /// Second channel terminal.
    pub drain: NetId,
    /// Control-gate net.
    pub cg: NetId,
    /// Source-side polarity-gate net.
    pub pgs: NetId,
    /// Drain-side polarity-gate net.
    pub pgd: NetId,
}

impl Transistor {
    /// The net wired to the given gate electrode.
    #[must_use]
    pub fn gate_net(&self, role: GateRole) -> NetId {
        match role {
            GateRole::Cg => self.cg,
            GateRole::Pgs => self.pgs,
            GateRole::Pgd => self.pgd,
        }
    }
}

/// The conduction mode a CP transistor is in, given its gate values.
///
/// The controllable-polarity rule of Section III-C: the device conducts
/// when `CG = PGS = PGD = 1` (n-mode) or `CG = PGS = PGD = 0` (p-mode) and
/// blocks otherwise. Unknown gate values make conduction unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conduction {
    /// Definitely conducting.
    On,
    /// Definitely blocked.
    Off,
    /// Conduction depends on an unknown gate value.
    Unknown,
}

/// Evaluate the CP conduction rule for explicit gate values.
#[must_use]
pub fn conduction_rule(cg: Logic, pgs: Logic, pgd: Logic) -> Conduction {
    use Logic::X;
    if cg == X || pgs == X || pgd == X {
        // If the two known gates already disagree, the device is blocked no
        // matter what the unknown resolves to.
        let known: Vec<Logic> = [cg, pgs, pgd].into_iter().filter(|v| *v != X).collect();
        if known.windows(2).any(|w| w[0] != w[1]) {
            return Conduction::Off;
        }
        return Conduction::Unknown;
    }
    if cg == pgs && pgs == pgd {
        Conduction::On
    } else {
        Conduction::Off
    }
}

/// Error raised by the fallible [`Netlist`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net of the same name already exists.
    DuplicateNet(String),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DuplicateNet(name) => write!(f, "duplicate net name {name:?}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A transistor-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    nets: Vec<Net>,
    transistors: Vec<Transistor>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a net, rejecting duplicate names.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNet`] if a net of the same name
    /// already exists — net names are the lookup key of [`Netlist::find_net`]
    /// and must stay unique.
    pub fn try_add_net(
        &mut self,
        name: impl Into<String>,
        kind: NetKind,
    ) -> Result<NetId, NetlistError> {
        let name = name.into();
        if self.find_net(&name).is_some() {
            return Err(NetlistError::DuplicateNet(name));
        }
        self.nets.push(Net { name, kind });
        Ok(NetId(self.nets.len() - 1))
    }

    /// Add a net; names must be unique.
    ///
    /// Panicking wrapper around [`Netlist::try_add_net`] for hand-assembled
    /// netlists (cell builders, tests) where a duplicate is a programming
    /// error.
    ///
    /// # Panics
    ///
    /// Panics if a net of the same name already exists.
    pub fn add_net(&mut self, name: impl Into<String>, kind: NetKind) -> NetId {
        match self.try_add_net(name, kind) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Add a transistor.
    pub fn add_transistor(
        &mut self,
        name: impl Into<String>,
        source: NetId,
        drain: NetId,
        cg: NetId,
        pgs: NetId,
        pgd: NetId,
    ) -> TransistorId {
        self.transistors.push(Transistor {
            name: name.into(),
            source,
            drain,
            cg,
            pgs,
            pgd,
        });
        TransistorId(self.transistors.len() - 1)
    }

    /// Shorthand for a transistor whose two polarity gates share one net —
    /// the common case in both SP and DP cells of Fig. 2.
    pub fn add_tig(
        &mut self,
        name: impl Into<String>,
        source: NetId,
        drain: NetId,
        cg: NetId,
        pg: NetId,
    ) -> TransistorId {
        self.add_transistor(name, source, drain, cg, pg, pg)
    }

    /// Look a net up by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets.iter().position(|n| n.name == name).map(NetId)
    }

    /// Look a transistor up by instance name.
    #[must_use]
    pub fn find_transistor(&self, name: &str) -> Option<TransistorId> {
        self.transistors
            .iter()
            .position(|t| t.name == name)
            .map(TransistorId)
    }

    /// Net metadata.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Transistor metadata.
    #[must_use]
    pub fn transistor(&self, id: TransistorId) -> &Transistor {
        &self.transistors[id.0]
    }

    /// All nets.
    #[must_use]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All transistors.
    #[must_use]
    pub fn transistors(&self) -> &[Transistor] {
        &self.transistors
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of transistors.
    #[must_use]
    pub fn transistor_count(&self) -> usize {
        self.transistors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::{One, Zero, X};

    #[test]
    fn conduction_rule_matches_section_iii() {
        assert_eq!(conduction_rule(One, One, One), Conduction::On);
        assert_eq!(conduction_rule(Zero, Zero, Zero), Conduction::On);
        assert_eq!(conduction_rule(One, Zero, Zero), Conduction::Off);
        assert_eq!(conduction_rule(Zero, One, One), Conduction::Off);
        assert_eq!(conduction_rule(One, One, Zero), Conduction::Off);
        assert_eq!(conduction_rule(Zero, Zero, One), Conduction::Off);
    }

    #[test]
    fn conduction_rule_with_unknowns() {
        // All gates agree so far, one unknown -> could go either way.
        assert_eq!(conduction_rule(One, One, X), Conduction::Unknown);
        assert_eq!(conduction_rule(X, X, X), Conduction::Unknown);
        // Two known gates disagree -> blocked regardless of the X.
        assert_eq!(conduction_rule(One, Zero, X), Conduction::Off);
        assert_eq!(conduction_rule(Zero, X, One), Conduction::Off);
    }

    #[test]
    fn netlist_builder_round_trips() {
        let mut n = Netlist::new();
        let vdd = n.add_net("vdd", NetKind::Supply);
        let gnd = n.add_net("gnd", NetKind::Ground);
        let a = n.add_net("a", NetKind::Input);
        let out = n.add_net("out", NetKind::Output);
        n.add_tig("t1", vdd, out, a, gnd);
        n.add_tig("t3", gnd, out, a, vdd);
        assert_eq!(n.net_count(), 4);
        assert_eq!(n.transistor_count(), 2);
        assert_eq!(n.find_net("out"), Some(out));
        assert_eq!(n.find_transistor("t3"), Some(TransistorId(1)));
        let t1 = n.transistor(TransistorId(0));
        assert_eq!(t1.gate_net(GateRole::Cg), a);
        assert_eq!(t1.gate_net(GateRole::Pgs), gnd);
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_names_panic() {
        let mut n = Netlist::new();
        n.add_net("a", NetKind::Input);
        n.add_net("a", NetKind::Input);
    }
}
