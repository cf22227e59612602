//! PODEM test-pattern generation for single stuck-at faults.
//!
//! The classical baseline ATPG of the paper's Section II: PI-only decision
//! making with implication by forward twin simulation, objective selection
//! from the D-frontier, and backtrace through cell-specific rules. Used by
//! `sinw-core` both directly (classical stuck-at tests) and as the
//! justification/propagation engine of the cell-aware flow.
//!
//! Implication is event-driven over one buffer: a search keeps one
//! [`TwinSim`] for its whole run, and each decision, flip or
//! unassignment re-evaluates only the fanout cone of the input it
//! edits. The search allocates its scratch (twins, the PI-position table,
//! the X-path reach buffer) once per call.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::twin::{detected_at_po, Twin, TwinSim};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::value::Logic;

/// PODEM configuration.
#[derive(Debug, Clone, Copy)]
pub struct PodemConfig {
    /// Maximum number of backtracks before aborting the fault.
    pub backtrack_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 10_000,
        }
    }
}

/// Outcome of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A detecting test cube: one entry per PI, `None` marking a
    /// don't-care. Detection only depends on the specified entries —
    /// three-valued simulation is monotonic in the assignment, so *every*
    /// completion of the cube detects the fault (a property the test
    /// suites assert). Fill with [`fill_cube`], or keep the cube partial
    /// for don't-care-aware compaction (`tpg::merge_cubes`).
    Test(Vec<Option<bool>>),
    /// The fault is provably untestable (redundant).
    Untestable,
    /// The backtrack limit was hit.
    Aborted,
}

/// Complete a test cube by filling every don't-care with `fill`.
#[must_use]
pub fn fill_cube(cube: &[Option<bool>], fill: bool) -> Vec<bool> {
    cube.iter().map(|v| v.unwrap_or(fill)).collect()
}

/// A required signal value (used for cell-aware justification).
pub type Constraint = (SignalId, bool);

/// Generate a test for `fault` on `circuit`.
#[must_use]
pub fn generate_test(circuit: &Circuit, fault: StuckAtFault, config: &PodemConfig) -> PodemResult {
    search(circuit, Some(fault), &[], config)
}

/// Generate a test for `fault` while also justifying the given signal
/// values — the engine of the cell-aware flow, where a cell-internal
/// defect requires an exact local input vector *and* propagation of the
/// wrong output.
#[must_use]
pub fn generate_test_constrained(
    circuit: &Circuit,
    fault: StuckAtFault,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> PodemResult {
    search(circuit, Some(fault), constraints, config)
}

/// Find a primary-input cube that justifies all the given signal values
/// (no fault involved). Unassigned PIs come back as `None` (don't-care).
#[must_use]
pub fn justify(
    circuit: &Circuit,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> Option<Vec<Option<bool>>> {
    match search(circuit, None, constraints, config) {
        PodemResult::Test(p) => Some(p),
        _ => None,
    }
}

/// The shared branch-and-bound search.
///
/// With a fault, success requires detection at a PO (plus any constraints
/// satisfied); without one, success is satisfying every constraint.
fn search(
    circuit: &Circuit,
    fault: Option<StuckAtFault>,
    constraints: &[Constraint],
    config: &PodemConfig,
) -> PodemResult {
    let pis = circuit.primary_inputs();
    // Index of each PI signal in `primary_inputs`, for `backtrace`.
    let mut pi_position = vec![None; circuit.signal_count()];
    for (k, pi) in pis.iter().enumerate() {
        pi_position[pi.0] = Some(k);
    }
    let mut reach = vec![false; circuit.signal_count()];
    // Holds the PI assignment (each PI's good value) and its implications;
    // with no fault the faulty half mirrors the good half.
    let mut sim = TwinSim::new(circuit, fault);
    // Decision stack: (pi index, value, alternate_tried).
    let mut stack: Vec<(usize, bool, bool)> = Vec::new();
    let mut backtracks = 0usize;

    loop {
        let twins = sim.settle();

        let constraint_conflict = constraints.iter().any(|(s, v)| {
            let g = twins[s.0].good;
            g.is_known() && g != Logic::from_bool(*v)
        });
        let constraints_met = constraints
            .iter()
            .all(|(s, v)| twins[s.0].good == Logic::from_bool(*v));

        let success = if fault.is_some() {
            constraints_met && detected_at_po(circuit, twins)
        } else {
            constraints_met
        };
        if success {
            return PodemResult::Test(pis.iter().map(|pi| twins[pi.0].good.to_bool()).collect());
        }

        let feasible = !constraint_conflict
            && match fault {
                Some(f) => test_possible(circuit, f, twins, &mut reach),
                None => true,
            };
        let objective = if feasible {
            // Unjustified constraints come first.
            constraints
                .iter()
                .find(|(s, _)| twins[s.0].good == Logic::X)
                .map(|(s, v)| (*s, Logic::from_bool(*v)))
                .or_else(|| fault.and_then(|f| pick_objective(circuit, f, twins)))
        } else {
            None
        };

        if let Some((sig, val)) = objective {
            if let Some((pi_idx, pi_val)) = backtrace(circuit, &pi_position, twins, sig, val) {
                sim.assign(pi_idx, Some(pi_val));
                stack.push((pi_idx, pi_val, false));
                continue;
            }
            // No X PI reachable: dead end, fall through to backtrack.
        }

        // Backtrack.
        loop {
            match stack.pop() {
                None => return PodemResult::Untestable,
                Some((pi_idx, _, true)) => {
                    sim.assign(pi_idx, None);
                }
                Some((pi_idx, val, false)) => {
                    backtracks += 1;
                    if backtracks > config.backtrack_limit {
                        return PodemResult::Aborted;
                    }
                    sim.assign(pi_idx, Some(!val));
                    stack.push((pi_idx, !val, true));
                    break;
                }
            }
        }
    }
}

/// Value of the fault site in the good machine.
fn site_good_value(circuit: &Circuit, fault: StuckAtFault, twins: &[Twin]) -> Logic {
    match fault.site {
        FaultSite::Signal(s) => twins[s.0].good,
        FaultSite::GatePin(g, pin) => {
            let s = circuit.gates()[g.0].inputs[pin];
            twins[s.0].good
        }
    }
}

/// Is detection still possible? The fault must be activatable (site not
/// already at the stuck value in the good machine) and, once activated,
/// there must be an X-path from a fault effect to a primary output.
fn test_possible(
    circuit: &Circuit,
    fault: StuckAtFault,
    twins: &[Twin],
    reach: &mut [bool],
) -> bool {
    let site_val = site_good_value(circuit, fault, twins);
    let stuck = Logic::from_bool(fault.value);
    if site_val == stuck {
        return false;
    }
    if site_val == Logic::X {
        return true; // not yet activated, still free
    }
    // Activated: a fault effect exists somewhere; check an X-path to a PO.
    reach.fill(false);
    // Seed: all signals carrying a fault effect.
    let mut any = false;
    for (i, t) in twins.iter().enumerate() {
        if t.is_fault_effect() {
            reach[i] = true;
            any = true;
        }
    }
    if !any {
        // For a branch (pin) fault the effect is latent on the pin until
        // the side inputs sensitise the gate: the potential effect sits at
        // the faulted gate's output.
        match fault.site {
            FaultSite::GatePin(g, _) => {
                let out = circuit.gates()[g.0].output;
                let unresolved = twins[out.0].good == Logic::X || twins[out.0].faulty == Logic::X;
                if !unresolved {
                    return false;
                }
                reach[out.0] = true;
            }
            FaultSite::Signal(_) => return false,
        }
    }
    // Forward pass in topological order: a gate output is reachable when a
    // reachable input feeds it and its composite value is still unresolved
    // (good or faulty unknown) — the output could yet become D/D̄ even if
    // the good machine's value is already known (e.g. NAND(D̄, X)).
    for gate in circuit.gates() {
        let out = gate.output;
        if reach[out.0] {
            continue;
        }
        let fed = gate.inputs.iter().any(|s| reach[s.0]);
        let unresolved = twins[out.0].good == Logic::X || twins[out.0].faulty == Logic::X;
        if fed && unresolved {
            reach[out.0] = true;
        }
    }
    circuit.primary_outputs().iter().any(|o| reach[o.0])
}

/// Choose the next objective `(signal, value)`.
fn pick_objective(
    circuit: &Circuit,
    fault: StuckAtFault,
    twins: &[Twin],
) -> Option<(SignalId, Logic)> {
    // 1. Activation: drive the site to the complement of the stuck value.
    let site_val = site_good_value(circuit, fault, twins);
    if site_val == Logic::X {
        let sig = match fault.site {
            FaultSite::Signal(s) => s,
            FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
        };
        return Some((sig, Logic::from_bool(!fault.value)));
    }
    // 2. Latent branch fault: no visible effect yet, but the faulted pin is
    // activated — sensitise the faulted gate through its X side inputs.
    let any_effect = twins.iter().any(Twin::is_fault_effect);
    if !any_effect {
        if let FaultSite::GatePin(g, pin) = fault.site {
            let gate = &circuit.gates()[g.0];
            for (p2, s) in gate.inputs.iter().enumerate() {
                if p2 != pin && twins[s.0].good == Logic::X {
                    let val = side_input_value(gate.kind, twins, &gate.inputs, *s);
                    return Some((*s, val));
                }
            }
            return None;
        }
    }
    // 3. Propagation: find a D-frontier gate (fault effect on an input,
    // composite output value unresolved) and set one of its X side-inputs.
    for gate in circuit.gates() {
        let out = twins[gate.output.0];
        if out.good != Logic::X && out.faulty != Logic::X {
            continue;
        }
        let has_effect = gate.inputs.iter().any(|s| twins[s.0].is_fault_effect());
        if !has_effect {
            continue;
        }
        for s in &gate.inputs {
            if twins[s.0].good == Logic::X && !twins[s.0].is_fault_effect() {
                let val = side_input_value(gate.kind, twins, &gate.inputs, *s);
                return Some((*s, val));
            }
        }
    }
    None
}

/// The value a side input should take so the gate passes a fault effect.
fn side_input_value(
    kind: CellKind,
    twins: &[Twin],
    inputs: &[SignalId],
    target: SignalId,
) -> Logic {
    match kind {
        CellKind::Inv => Logic::One, // unreachable: INV has no side input
        CellKind::Nand2 => Logic::One,
        CellKind::Nor2 => Logic::Zero,
        // XOR passes effects for any known side value; pick 0.
        CellKind::Xor2 | CellKind::Xor3 => Logic::Zero,
        // MAJ propagates an effect on one input when the other two differ.
        CellKind::Maj3 => {
            let other_known = inputs
                .iter()
                .filter(|s| **s != target)
                .map(|s| twins[s.0].good)
                .find(|v| v.is_known());
            match other_known {
                Some(v) => !v,
                None => Logic::Zero,
            }
        }
    }
}

/// Backtrace an objective to an unassigned primary input; `pi_position`
/// maps each PI signal to its index in `primary_inputs`.
fn backtrace(
    circuit: &Circuit,
    pi_position: &[Option<usize>],
    twins: &[Twin],
    mut sig: SignalId,
    mut val: Logic,
) -> Option<(usize, bool)> {
    loop {
        match circuit.driver(sig) {
            None => {
                // Reached a PI.
                let idx = pi_position[sig.0].expect("undriven signal must be a PI");
                if twins[sig.0].good != Logic::X {
                    return None; // already assigned — cannot help
                }
                return val.to_bool().map(|b| (idx, b));
            }
            Some(g) => {
                let gate = &circuit.gates()[g.0];
                // Pick an X input and the value to request on it.
                let x_input = gate.inputs.iter().find(|s| twins[s.0].good == Logic::X)?;
                let next_val = match gate.kind {
                    CellKind::Inv => !val,
                    CellKind::Nand2 => {
                        if val == Logic::One {
                            Logic::Zero // any 0 input forces a 1 output
                        } else {
                            Logic::One // 0 output needs all-1 inputs
                        }
                    }
                    CellKind::Nor2 => {
                        if val == Logic::One {
                            Logic::Zero
                        } else {
                            Logic::One
                        }
                    }
                    CellKind::Xor2 | CellKind::Xor3 => {
                        // Request parity assuming other X inputs become 0.
                        let known_parity = gate
                            .inputs
                            .iter()
                            .filter_map(|s| twins[s.0].good.to_bool())
                            .fold(false, |acc, b| acc ^ b);
                        let want = val.to_bool().unwrap_or(false);
                        Logic::from_bool(want ^ known_parity)
                    }
                    CellKind::Maj3 => val,
                };
                sig = *x_input;
                val = next_val;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use crate::twin::simulate;

    fn verify_test(circuit: &Circuit, fault: StuckAtFault, cube: &[Option<bool>]) -> bool {
        let twins = simulate(circuit, fault, cube);
        detected_at_po(circuit, &twins)
    }

    #[test]
    fn covers_all_c17_faults() {
        let c = Circuit::c17();
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(p) => {
                    assert!(
                        verify_test(&c, fault, &p),
                        "generated pattern {p:?} misses {}",
                        fault.describe(&c)
                    );
                }
                other => panic!("c17 fault {} -> {other:?}", fault.describe(&c)),
            }
        }
    }

    #[test]
    fn covers_full_adder_faults() {
        let c = Circuit::full_adder();
        let config = PodemConfig::default();
        let mut tested = 0;
        for fault in enumerate_stuck_at(&c) {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(p) => {
                    assert!(verify_test(&c, fault, &p), "{}", fault.describe(&c));
                    tested += 1;
                }
                other => panic!("adder fault {} -> {other:?}", fault.describe(&c)),
            }
        }
        assert!(tested > 0);
    }

    #[test]
    fn detects_redundant_fault() {
        // out = NAND(a, a) can never show a s-a-... : with both pins tied,
        // the branch fault a->pin0 s-a-1 is masked when a=1 (same value)
        // and activated only when a=0, where NAND(1, 0) = 1 = NAND(0,0):
        // undetectable.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa1(FaultSite::GatePin(sinw_switch::gate::GateId(0), 0));
        let r = generate_test(&c, fault, &PodemConfig::default());
        assert_eq!(r, PodemResult::Untestable);
    }

    #[test]
    fn justify_finds_internal_values() {
        let c = Circuit::c17();
        // Justify g16.out = 0: needs i2 = 1 and g11.out = 1, which needs
        // nand(i3, i6) = 1 -> i3 = 0 or i6 = 0.
        let g16_out = c.gates()[2].output;
        let p = justify(&c, &[(g16_out, false)], &PodemConfig::default())
            .expect("g16.out = 0 is satisfiable");
        let logic: Vec<_> = fill_cube(&p, false)
            .iter()
            .map(|b| Logic::from_bool(*b))
            .collect();
        let values = c.eval(&logic);
        assert_eq!(values[g16_out.0], Logic::Zero);
    }

    #[test]
    fn justify_detects_impossible_constraints() {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        // a = 1 and inv(a) = 1 simultaneously: impossible.
        let r = justify(&c, &[(a, true), (o, true)], &PodemConfig::default());
        assert!(r.is_none());
    }

    #[test]
    fn constrained_test_respects_constraints() {
        let c = Circuit::c17();
        let g11_out = c.gates()[1].output;
        // Detect i7 s-a-1 while forcing g11.out = 1 (side constraint).
        let fault = StuckAtFault::sa1(FaultSite::Signal(SignalId(4)));
        match generate_test_constrained(&c, fault, &[(g11_out, true)], &PodemConfig::default()) {
            PodemResult::Test(p) => {
                assert!(verify_test(&c, fault, &p));
                let logic: Vec<_> = fill_cube(&p, false)
                    .iter()
                    .map(|b| Logic::from_bool(*b))
                    .collect();
                assert_eq!(c.eval(&logic)[g11_out.0], Logic::One);
            }
            other => panic!("expected a constrained test, got {other:?}"),
        }
    }

    #[test]
    fn every_fill_of_a_test_cube_detects() {
        // Detection must not depend on how the don't-cares are completed:
        // the specified entries alone force the D-path.
        let c = Circuit::c17();
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            let PodemResult::Test(cube) = generate_test(&c, fault, &config) else {
                panic!("c17 is fully testable");
            };
            for fill in [false, true] {
                let filled: Vec<Option<bool>> =
                    fill_cube(&cube, fill).into_iter().map(Some).collect();
                assert!(
                    verify_test(&c, fault, &filled),
                    "fill {fill} of cube {cube:?} misses {}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn parity_tree_is_fully_testable() {
        let c = Circuit::parity_tree(8);
        let config = PodemConfig::default();
        for fault in enumerate_stuck_at(&c) {
            let r = generate_test(&c, fault, &config);
            match r {
                PodemResult::Test(p) => {
                    assert!(verify_test(&c, fault, &p), "{}", fault.describe(&c));
                }
                other => panic!("parity fault {} -> {other:?}", fault.describe(&c)),
            }
        }
    }
}
