//! Cell-aware test generation: lifting the per-cell defect dictionaries to
//! circuit level with the constrained-PODEM engine of `sinw-atpg`.
//!
//! A cell-internal defect needs two things at circuit level: the exact
//! *local* input vector from the cell dictionary justified at the cell's
//! pins, and — when the defect flips the cell output — propagation of the
//! wrong value to a primary output. Leakage-observed defects only need
//! justification (IDDQ is measured globally).

use crate::dictionary::CellDictionary;
use sinw_atpg::fault_list::{FaultSite, StuckAtFault};
use sinw_atpg::podem::{fill_cube, generate_test_constrained, justify, PodemConfig, PodemResult};
use sinw_atpg::sof::{generate_sof_test, SofResult};
use sinw_switch::cells::CellKind;
use sinw_switch::fault::{FaultSet, TransistorFault};
use sinw_switch::gate::{Circuit, GateId};
use sinw_switch::sim::SwitchSim;
use sinw_switch::value::Logic;

/// A circuit-level test for a cell-internal defect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiftedTest {
    /// Apply the pattern, compare primary outputs.
    OutputObservable {
        /// The PI pattern.
        pattern: Vec<bool>,
    },
    /// Apply the pattern, measure the quiescent supply current.
    IddqObservable {
        /// The PI pattern.
        pattern: Vec<bool>,
    },
    /// Two-pattern (stuck-open) sequence.
    TwoPattern {
        /// Initialisation PI vector.
        init: Vec<bool>,
        /// Evaluation PI vector.
        eval: Vec<bool>,
    },
    /// The defect needs dual-rail / polarity-terminal test access at the
    /// cell boundary (the DfT assumption of the paper's Section V-C
    /// algorithm); no plain PI pattern exists.
    NeedsPolarityAccess,
}

/// A targeted cell-internal fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellAwareTarget {
    /// Which gate instance.
    pub gate: GateId,
    /// Which transistor of the cell (0 ⇒ t1 …).
    pub transistor: usize,
    /// The fault.
    pub fault: TransistorFault,
}

/// Lift one polarity fault of one gate to circuit level using its cell
/// dictionary.
///
/// # Panics
///
/// Panics if the dictionary was built for a different cell kind.
#[must_use]
pub fn lift_polarity_test(
    circuit: &Circuit,
    gate: GateId,
    dict: &CellDictionary,
    transistor: usize,
    fault: TransistorFault,
    config: &PodemConfig,
) -> Option<LiftedTest> {
    let g = &circuit.gates()[gate.0];
    assert_eq!(g.kind, dict.kind, "dictionary/cell kind mismatch");
    let entries = dict.detecting(transistor, fault);

    // Prefer output-observable entries: justify the local vector and
    // propagate the flipped output.
    for e in &entries {
        if !e.output_detect() {
            continue;
        }
        let faulty_high = e.v_out_faulty > sinw_analog::cells::VDD / 2.0;
        let constraints: Vec<(sinw_switch::gate::SignalId, bool)> = g
            .inputs
            .iter()
            .zip(&e.vector)
            .map(|(s, v)| (*s, *v))
            .collect();
        let sa = StuckAtFault {
            site: FaultSite::Signal(g.output),
            value: faulty_high,
        };
        if let PodemResult::Test(p) = generate_test_constrained(circuit, sa, &constraints, config) {
            // Switch-level validation replays the pattern on the flattened
            // netlist, which needs every PI specified: fill don't-cares low.
            return Some(LiftedTest::OutputObservable {
                pattern: fill_cube(&p, false),
            });
        }
    }
    // Fall back to IDDQ: only the local vector needs justification.
    for e in &entries {
        let constraints: Vec<(sinw_switch::gate::SignalId, bool)> = g
            .inputs
            .iter()
            .zip(&e.vector)
            .map(|(s, v)| (*s, *v))
            .collect();
        if let Some(p) = justify(circuit, &constraints, config) {
            return Some(LiftedTest::IddqObservable {
                pattern: fill_cube(&p, false),
            });
        }
    }
    None
}

/// Lift a channel break: SP cells get a classical two-pattern test; DP
/// cells are flagged as needing polarity-terminal access (Section V-C).
#[must_use]
pub fn lift_channel_break(
    circuit: &Circuit,
    gate: GateId,
    transistor: usize,
    config: &PodemConfig,
) -> Option<LiftedTest> {
    let kind = circuit.gates()[gate.0].kind;
    if kind.is_dynamic_polarity() {
        return Some(LiftedTest::NeedsPolarityAccess);
    }
    match generate_sof_test(circuit, gate, transistor, config) {
        SofResult::Test(t) => Some(LiftedTest::TwoPattern {
            init: t.init,
            eval: t.eval,
        }),
        SofResult::CellMasked | SofResult::CircuitBlocked => None,
    }
}

/// Cell-aware campaign over a whole circuit: every transistor of every
/// gate, polarity faults and channel breaks.
#[must_use]
pub fn generate_campaign(
    circuit: &Circuit,
    dict_of: &dyn Fn(CellKind) -> Option<CellDictionary>,
    config: &PodemConfig,
) -> Vec<(CellAwareTarget, Option<LiftedTest>)> {
    let mut out = Vec::new();
    for (gi, g) in circuit.gates().iter().enumerate() {
        let gate = GateId(gi);
        let n_t = sinw_switch::cells::Cell::build(g.kind).transistors.len();
        let dict = dict_of(g.kind);
        for t in 0..n_t {
            if let Some(d) = &dict {
                for fault in TransistorFault::POLARITY {
                    let lifted = lift_polarity_test(circuit, gate, d, t, fault, config);
                    out.push((
                        CellAwareTarget {
                            gate,
                            transistor: t,
                            fault,
                        },
                        lifted,
                    ));
                }
            }
            let lifted = lift_channel_break(circuit, gate, t, config);
            out.push((
                CellAwareTarget {
                    gate,
                    transistor: t,
                    fault: TransistorFault::ChannelBreak,
                },
                lifted,
            ));
        }
    }
    out
}

/// Validate an output-observable lifted test on the flattened netlist:
/// inject the switch-level fault inside the target cell and check the
/// primary outputs deviate (a definite flip or an X fight both count as a
/// visible deviation at switch level; the analog dictionary already
/// established the flip is solid electrically).
#[must_use]
pub fn validate_output_test(circuit: &Circuit, target: CellAwareTarget, pattern: &[bool]) -> bool {
    let flat = circuit.flatten();
    let assignment: Vec<(sinw_switch::netlist::NetId, Logic)> = circuit
        .primary_inputs()
        .iter()
        .zip(pattern)
        .map(|(s, b)| (flat.signal_net[s.0], Logic::from_bool(*b)))
        .collect();

    let mut healthy = SwitchSim::new(&flat.netlist);
    let h = healthy.apply(&assignment);

    let tid = flat.gate_transistors[target.gate.0][target.transistor];
    let mut sick = SwitchSim::with_faults(&flat.netlist, FaultSet::single(tid, target.fault));
    let s = sick.apply(&assignment);

    circuit
        .primary_outputs()
        .iter()
        .any(|o| h.value(flat.signal_net[o.0]) != s.value(flat.signal_net[o.0]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::build_dictionary;
    use sinw_device::{TigFet, TigTable};
    use std::sync::{Arc, OnceLock};

    fn xor2_dict() -> &'static CellDictionary {
        static DICT: OnceLock<CellDictionary> = OnceLock::new();
        DICT.get_or_init(|| {
            let table = Arc::new(TigTable::build_coarse(&TigFet::ideal()));
            build_dictionary(CellKind::Xor2, &table)
        })
    }

    /// A parity tree gives the XOR2 cells non-trivial surroundings.
    fn bench_circuit() -> Circuit {
        Circuit::parity_tree(4)
    }

    #[test]
    fn polarity_faults_lift_through_a_parity_tree() {
        let c = bench_circuit();
        let config = PodemConfig::default();
        for gi in 0..c.gates().len() {
            for t in 0..4 {
                for fault in [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType] {
                    let lifted = lift_polarity_test(&c, GateId(gi), xor2_dict(), t, fault, &config);
                    assert!(
                        lifted.is_some(),
                        "gate {gi} t{} {fault} did not lift",
                        t + 1
                    );
                }
            }
        }
    }

    #[test]
    fn output_observable_lifts_validate_on_the_flat_netlist() {
        let c = bench_circuit();
        let config = PodemConfig::default();
        let mut validated = 0usize;
        for gi in 0..c.gates().len() {
            for t in 0..4 {
                for fault in [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType] {
                    if let Some(LiftedTest::OutputObservable { pattern }) =
                        lift_polarity_test(&c, GateId(gi), xor2_dict(), t, fault, &config)
                    {
                        let target = CellAwareTarget {
                            gate: GateId(gi),
                            transistor: t,
                            fault,
                        };
                        assert!(
                            validate_output_test(&c, target, &pattern),
                            "gate {gi} t{} {fault}: pattern {pattern:?} shows nothing",
                            t + 1
                        );
                        validated += 1;
                    }
                }
            }
        }
        assert!(validated > 0, "at least the pull-down faults must lift");
    }

    #[test]
    fn campaign_covers_every_transistor() {
        let c = bench_circuit();
        let config = PodemConfig::default();
        let dict_of = |kind: CellKind| -> Option<CellDictionary> {
            (kind == CellKind::Xor2).then(|| xor2_dict().clone())
        };
        let campaign = generate_campaign(&c, &dict_of, &config);
        // 3 gates x 4 transistors x (2 polarity + 1 break) = 36 targets.
        assert_eq!(campaign.len(), 36);
        let missing: Vec<_> = campaign.iter().filter(|(_, l)| l.is_none()).collect();
        assert!(
            missing.is_empty(),
            "targets without any strategy: {missing:?}"
        );
        // DP breaks are flagged for polarity access, not silently dropped.
        let dft = campaign
            .iter()
            .filter(|(_, l)| matches!(l, Some(LiftedTest::NeedsPolarityAccess)))
            .count();
        assert_eq!(dft, 12, "every XOR2 break needs the new algorithm");
    }
}
