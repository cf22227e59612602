//! Switch-level fault models and fault injection.
//!
//! These are the logic-level abstractions of the physical defects of
//! Table I, including the two new CP-specific models introduced by the
//! paper (Section V-B): **stuck-at n-type** (both polarity gates read '1',
//! abstracting a polarity-terminal bridge to Vdd) and **stuck-at p-type**
//! (both read '0', a bridge to GND).

use crate::netlist::{GateRole, NetId, TransistorId};
use crate::value::Logic;

/// A fault on a single transistor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransistorFault {
    /// Channel break (nanowire break): the device never conducts — the
    /// stuck-open abstraction of Section V-C.
    ChannelBreak,
    /// The device always conducts (e.g. a source/drain short).
    StuckOn,
    /// Polarity terminals bridged to Vdd: PGS and PGD read as '1'
    /// regardless of the applied signal — the paper's *stuck-at n-type*.
    StuckAtNType,
    /// Polarity terminals bridged to GND: PGS and PGD read as '0' — the
    /// paper's *stuck-at p-type*.
    StuckAtPType,
    /// The given gate electrode is disconnected (floating-gate defect from
    /// the metallisation step); at switch level it reads X.
    GateOpen(GateRole),
}

impl TransistorFault {
    /// The two polarity faults (stuck-at-n, then stuck-at-p), in the
    /// order every dictionary and cell-aware enumeration visits them.
    pub const POLARITY: [TransistorFault; 2] =
        [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType];
}

impl std::fmt::Display for TransistorFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let gate_open;
        f.pad(match self {
            TransistorFault::ChannelBreak => "channel-break",
            TransistorFault::StuckOn => "stuck-on",
            TransistorFault::StuckAtNType => "stuck-at-n-type",
            TransistorFault::StuckAtPType => "stuck-at-p-type",
            TransistorFault::GateOpen(g) => {
                gate_open = format!("gate-open({g})");
                &gate_open
            }
        })
    }
}

/// How a bridge between two nets resolves at switch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Dominant-AND: both nets read the AND of the two drivers.
    WiredAnd,
    /// Dominant-OR: both nets read the OR of the two drivers.
    WiredOr,
    /// Unresolved fight: both nets read X when drivers disagree.
    WiredX,
}

/// A fault on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFault {
    /// Classical stuck-at: the net reads a constant.
    StuckAt(NetId, Logic),
    /// Resistive bridge between two nets.
    Bridge(NetId, NetId, BridgeKind),
}

/// A complete fault assignment for one simulation run.
///
/// The simulator consults the set when computing transistor conduction and
/// when resolving net values, so a single engine serves fault-free and
/// faulty simulation alike.
#[derive(Debug, Clone, Default)]
pub struct FaultSet {
    transistor_faults: Vec<(TransistorId, TransistorFault)>,
    net_faults: Vec<NetFault>,
}

impl FaultSet {
    /// An empty (fault-free) set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A set containing a single transistor fault.
    #[must_use]
    pub fn single(t: TransistorId, fault: TransistorFault) -> Self {
        let mut s = Self::new();
        s.inject(t, fault);
        s
    }

    /// Add a transistor fault.
    pub fn inject(&mut self, t: TransistorId, fault: TransistorFault) -> &mut Self {
        self.transistor_faults.push((t, fault));
        self
    }

    /// Add a net fault.
    pub fn inject_net(&mut self, fault: NetFault) -> &mut Self {
        self.net_faults.push(fault);
        self
    }

    /// Faults on a given transistor.
    pub fn on_transistor(&self, t: TransistorId) -> impl Iterator<Item = TransistorFault> + '_ {
        self.transistor_faults
            .iter()
            .filter(move |(id, _)| *id == t)
            .map(|(_, f)| *f)
    }

    /// All net faults.
    #[must_use]
    pub fn net_faults(&self) -> &[NetFault] {
        &self.net_faults
    }

    /// Whether the set is empty (fault-free run).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transistor_faults.is_empty() && self.net_faults.is_empty()
    }

    /// Number of injected faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transistor_faults.len() + self.net_faults.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_set_accumulates() {
        let mut s = FaultSet::new();
        assert!(s.is_empty());
        s.inject(TransistorId(0), TransistorFault::ChannelBreak);
        s.inject(TransistorId(0), TransistorFault::StuckAtNType);
        s.inject_net(NetFault::StuckAt(NetId(3), Logic::One));
        assert_eq!(s.len(), 3);
        assert_eq!(s.on_transistor(TransistorId(0)).count(), 2);
        assert_eq!(s.on_transistor(TransistorId(1)).count(), 0);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(TransistorFault::StuckAtNType.to_string(), "stuck-at-n-type");
        assert_eq!(
            TransistorFault::GateOpen(GateRole::Pgs).to_string(),
            "gate-open(PGS)"
        );
    }
}
