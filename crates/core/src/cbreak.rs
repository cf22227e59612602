//! The paper's channel-break test algorithm (Section V-C).
//!
//! * **SP cells** — a channel break behaves as a classical stuck-open
//!   fault: a two-pattern test initialises the output and then exercises
//!   the (broken) path; the retained value reveals the defect. This crate
//!   re-exports the baseline from [`sinw_atpg::sof`].
//!
//! * **DP cells** — the redundant pass-transistor pairs mask every single
//!   break: functionality is unchanged and the parametric shifts are too
//!   small to screen (Δleakage ≤ 100 %, Δdelay ≤ 58 % in the paper; see
//!   [`masking_measurements`]). The paper's new procedure deliberately
//!   *injects the complement polarity* on the device under test and then
//!   applies the Table III vector: a healthy device now misbehaves (wrong
//!   output or a >10⁶ leakage step), while a broken device stays silent —
//!   the *absence* of the anomaly is the detection.
//!
//! Two realisations of the polarity injection are provided:
//!
//! 1. [`bridge_injection_verdict`] — faithful to the paper's wording: the
//!    stuck-at n/p condition is imposed on the DUT (test-mode access to
//!    the polarity terminals) and the Table III vector applied;
//! 2. [`dual_rail_test`] — a purely pattern-based variant: because DP
//!    cells receive dual-rail inputs, a *non-complementary* rail pattern
//!    can reproduce the injected conduction state of the DUT while keeping
//!    every other device off, making the break directly output-observable.

use crate::dictionary::{inject_polarity_fault, CellDictionary};
use sinw_analog::cells::{AnalogCell, VDD};
use sinw_analog::circuit::Waveform;
use sinw_analog::measure::leakage;
use sinw_analog::solver::{dc, SolverOpts};
use sinw_device::table::TigTable;
use sinw_switch::cells::{Cell, CellKind};
use sinw_switch::fault::{FaultSet, TransistorFault};
use sinw_switch::netlist::{conduction_rule, Conduction, NetId};
use sinw_switch::sim::SwitchSim;
use sinw_switch::value::{Logic, Strength};
use std::sync::Arc;

/// Verdict of one channel-break screening measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The DUT responded to the polarity injection — its channel conducts.
    ChannelIntact,
    /// The injected fault was masked — the channel is broken.
    ChannelBroken,
}

/// Parametric visibility of an (un-injected) channel break in a DP cell —
/// the masking numbers of Section V-C.
#[derive(Debug, Clone, Copy)]
pub struct MaskingMeasurement {
    /// Worst-case leakage ratio faulty/healthy over all static vectors.
    pub leakage_ratio: f64,
    /// Worst-case delay ratio faulty/healthy over the stimulus edges.
    pub delay_ratio: f64,
    /// Whether the faulty cell computed every vector correctly.
    pub functionality_intact: bool,
}

/// Measure how well a channel break hides in a DP cell (analog, FO4 load).
///
/// # Panics
///
/// Panics if the analog solver fails (indicates a broken setup).
#[must_use]
pub fn masking_measurements(
    kind: CellKind,
    t_index: usize,
    table: &Arc<TigTable>,
) -> MaskingMeasurement {
    let opts = SolverOpts::default();
    let n = kind.input_count();
    let mut worst_leak = 0.0f64;
    let mut ok = true;

    for bits in 0..(1u32 << n) {
        let vector: Vec<bool> = (0..n).map(|k| (bits >> k) & 1 == 1).collect();
        let waves: Vec<Waveform> = vector
            .iter()
            .map(|b| Waveform::Dc(if *b { VDD } else { 0.0 }))
            .collect();
        let healthy = AnalogCell::build(kind, table.clone(), &waves);
        let hs = dc(&healthy.circuit, &opts).expect("healthy DC");
        let mut sick = AnalogCell::build(kind, table.clone(), &waves);
        sick.break_channel(t_index);
        let ss = dc(&sick.circuit, &opts).expect("broken DC");
        let l_ratio = leakage(&sick, &ss).max(1e-13) / leakage(&healthy, &hs).max(1e-13);
        worst_leak = worst_leak.max(l_ratio);
        let expect = kind.function(&vector);
        let faulty_high = ss.voltage(sick.out) > VDD / 2.0;
        if faulty_high != expect {
            ok = false;
        }
    }

    // Delay: pulse input 0, other inputs held so the output follows.
    let pulse = Waveform::Pulse {
        v0: 0.0,
        v1: VDD,
        delay: 0.5e-9,
        rise: 20e-12,
        width: 4e-9,
        fall: 20e-12,
    };
    let mut waves = vec![pulse];
    for _ in 1..n {
        waves.push(Waveform::Dc(0.0));
    }
    let healthy = AnalogCell::build(kind, table.clone(), &waves);
    let d0 = sinw_analog::measure::cell_delay(&healthy, 3.0e-9, 5e-12, &opts)
        .expect("healthy transient")
        .unwrap_or(f64::NAN);
    let mut sick = AnalogCell::build(kind, table.clone(), &waves);
    sick.break_channel(t_index);
    let d1 = sinw_analog::measure::cell_delay(&sick, 3.0e-9, 5e-12, &opts)
        .expect("broken transient")
        .unwrap_or(f64::NAN);

    MaskingMeasurement {
        leakage_ratio: worst_leak,
        delay_ratio: if d0 > 0.0 { d1 / d0 } else { f64::NAN },
        functionality_intact: ok,
    }
}

/// The paper's procedure, step by step: impose the complement polarity on
/// the DUT (stuck-at n/p injection), apply a Table III vector, observe.
///
/// Returns the verdict for a cell whose DUT channel is broken iff
/// `channel_broken`.
///
/// # Panics
///
/// Panics if the dictionary has no detecting vector for the DUT (cannot
/// happen for the Fig. 2 DP cells) or the solver fails.
#[must_use]
pub fn bridge_injection_verdict(
    kind: CellKind,
    t_index: usize,
    dict: &CellDictionary,
    table: &Arc<TigTable>,
    channel_broken: bool,
) -> Verdict {
    let opts = SolverOpts::default();
    // Pick the strongest detecting entry for either polarity fault.
    let entry = [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType]
        .into_iter()
        .flat_map(|f| dict.detecting(t_index, f))
        .max_by(|a, b| {
            let ra = a.iddq_faulty / a.iddq_healthy;
            let rb = b.iddq_faulty / b.iddq_healthy;
            ra.partial_cmp(&rb).expect("finite ratios")
        })
        .expect("DP dictionary entry exists");

    let waves: Vec<Waveform> = entry
        .vector
        .iter()
        .map(|b| Waveform::Dc(if *b { VDD } else { 0.0 }))
        .collect();
    let mut cell = AnalogCell::build(kind, table.clone(), &waves);
    inject_polarity_fault(&mut cell, t_index, entry.fault);
    if channel_broken {
        cell.break_channel(t_index);
    }
    let sol = dc(&cell.circuit, &opts).expect("injected DC");

    let leak = leakage(&cell, &sol).max(1e-13);
    let leak_anomaly = leak > crate::dictionary::IDDQ_DETECT_RATIO * entry.iddq_healthy;
    let out_high = sol.voltage(cell.out) > VDD / 2.0;
    let healthy_high = entry.v_out_healthy > VDD / 2.0;
    let output_anomaly = out_high != healthy_high;

    if leak_anomaly || output_anomaly {
        Verdict::ChannelIntact
    } else {
        Verdict::ChannelBroken
    }
}

/// A dual-rail (pattern-only) channel-break test for a DP-cell transistor.
#[derive(Debug, Clone)]
pub struct DualRailTest {
    /// The target transistor (0 ⇒ t1 …).
    pub target: usize,
    /// Normal (complement-consistent) initialisation vector.
    pub init: Vec<bool>,
    /// Evaluation assignment over *all* rails, including deliberately
    /// non-complementary values — the pattern-level realisation of the
    /// polarity injection. Pairs of (net, value) in cell-net terms.
    pub eval_rails: Vec<(NetId, Logic)>,
    /// Output value a healthy target drives during evaluation.
    pub expected_intact: Logic,
    /// Output value retained when the target's channel is broken.
    pub expected_broken: Logic,
}

/// Derive a dual-rail channel-break test: find a rail assignment that
/// turns on *only* the target device, then pick an init vector that
/// charges the output to the complement of what the target would drive.
#[must_use]
pub fn dual_rail_test(kind: CellKind, t_index: usize) -> Option<DualRailTest> {
    let cell = Cell::build(kind);
    let nl = &cell.netlist;
    let rails: Vec<NetId> = cell
        .inputs
        .iter()
        .chain(cell.n_inputs.iter())
        .copied()
        .collect();

    for bits in 0..(1u32 << rails.len()) {
        let value_of = |net: NetId| -> Option<Logic> {
            if let Some(k) = rails.iter().position(|r| *r == net) {
                return Some(Logic::from_bool((bits >> k) & 1 == 1));
            }
            match nl.net(net).kind {
                sinw_switch::netlist::NetKind::Supply => Some(Logic::One),
                sinw_switch::netlist::NetKind::Ground => Some(Logic::Zero),
                _ => None,
            }
        };
        // Conduction state of every device under this assignment.
        let mut states = Vec::with_capacity(cell.transistors.len());
        for tid in &cell.transistors {
            let t = nl.transistor(*tid);
            let (cg, pgs, pgd) = (value_of(t.cg), value_of(t.pgs), value_of(t.pgd));
            match (cg, pgs, pgd) {
                (Some(a), Some(b), Some(c)) => states.push(conduction_rule(a, b, c)),
                _ => states.push(Conduction::Unknown),
            }
        }
        let only_target = states
            .iter()
            .enumerate()
            .all(|(i, s)| (*s == Conduction::On) == (i == t_index));
        if !only_target {
            continue;
        }
        // The value the target passes: its source net's value.
        let t = nl.transistor(cell.transistors[t_index]);
        let Some(driven) = value_of(t.source) else {
            continue;
        };
        if driven == Logic::X {
            continue;
        }
        // Init: a normal vector whose fault-free output is the complement.
        let n = cell.inputs.len();
        let init =
            (0..(1u32 << n)).map(|vb| (0..n).map(|k| (vb >> k) & 1 == 1).collect::<Vec<bool>>());
        for init_vec in init {
            if Logic::from_bool(kind.function(&init_vec)) == !driven {
                let eval_rails: Vec<(NetId, Logic)> = rails
                    .iter()
                    .enumerate()
                    .map(|(k, r)| (*r, Logic::from_bool((bits >> k) & 1 == 1)))
                    .collect();
                return Some(DualRailTest {
                    target: t_index,
                    init: init_vec,
                    eval_rails,
                    expected_intact: driven,
                    expected_broken: !driven,
                });
            }
        }
    }
    None
}

/// Execute a dual-rail test on the switch-level cell model and return the
/// verdict, with ground truth `channel_broken` injected.
#[must_use]
pub fn run_dual_rail_test(kind: CellKind, test: &DualRailTest, channel_broken: bool) -> Verdict {
    let cell = Cell::build(kind);
    let faults = if channel_broken {
        FaultSet::single(cell.transistors[test.target], TransistorFault::ChannelBreak)
    } else {
        FaultSet::new()
    };
    let mut sim = SwitchSim::with_faults(&cell.netlist, faults);
    sim.apply(&cell.input_assignment(&test.init));
    let r = sim.apply(&test.eval_rails);
    let out = r.value(cell.output);
    if out == test.expected_intact && r.strengths[cell.output.0] >= Strength::Driven {
        Verdict::ChannelIntact
    } else {
        Verdict::ChannelBroken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_rail_tests_cover_the_separable_pair() {
        // The pull-up pair (t1, t2) reads complement-distinguished gate
        // nets and can be isolated by non-complementary rail patterns. The
        // pull-down pair (t3, t4) reads the *same* two nets ({A, B} in
        // both orders), so no input pattern can separate them — which is
        // precisely why the paper's method injects the fault condition on
        // the polarity terminals instead (see
        // `bridge_injection_verdict`).
        for kind in [CellKind::Xor2, CellKind::Xor3, CellKind::Maj3] {
            for t in [0usize, 1] {
                assert!(
                    dual_rail_test(kind, t).is_some(),
                    "{kind} t{} has no dual-rail test",
                    t + 1
                );
            }
            for t in [2usize, 3] {
                assert!(
                    dual_rail_test(kind, t).is_none(),
                    "{kind} t{} unexpectedly pattern-separable",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn dual_rail_tests_distinguish_broken_from_intact() {
        for kind in [CellKind::Xor2, CellKind::Xor3, CellKind::Maj3] {
            for t in [0usize, 1] {
                let test = dual_rail_test(kind, t).expect("test exists");
                assert_eq!(
                    run_dual_rail_test(kind, &test, false),
                    Verdict::ChannelIntact,
                    "{kind} t{}: healthy device misdiagnosed",
                    t + 1
                );
                assert_eq!(
                    run_dual_rail_test(kind, &test, true),
                    Verdict::ChannelBroken,
                    "{kind} t{}: broken device missed",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn bridge_injection_covers_every_dp_transistor() {
        use sinw_device::{TigFet, TigTable};
        let table = Arc::new(TigTable::build_coarse(&TigFet::ideal()));
        let dict = crate::dictionary::build_dictionary(CellKind::Xor2, &table);
        for t in 0..4 {
            assert_eq!(
                bridge_injection_verdict(CellKind::Xor2, t, &dict, &table, false),
                Verdict::ChannelIntact,
                "t{}: healthy misdiagnosed",
                t + 1
            );
            assert_eq!(
                bridge_injection_verdict(CellKind::Xor2, t, &dict, &table, true),
                Verdict::ChannelBroken,
                "t{}: break missed",
                t + 1
            );
        }
    }

    #[test]
    fn dual_rail_eval_is_non_complementary() {
        // The whole point of the pattern is to break the dual-rail
        // invariant so only one device of the redundant pair conducts.
        let test = dual_rail_test(CellKind::Xor2, 0).expect("exists");
        let cell = Cell::build(CellKind::Xor2);
        let mut violates = false;
        for (k, a) in cell.inputs.iter().enumerate() {
            let av = test
                .eval_rails
                .iter()
                .find(|(n, _)| n == a)
                .map(|(_, v)| *v);
            let nv = test
                .eval_rails
                .iter()
                .find(|(n, _)| *n == cell.n_inputs[k])
                .map(|(_, v)| *v);
            if let (Some(x), Some(y)) = (av, nv) {
                if x == y {
                    violates = true;
                }
            }
        }
        assert!(violates, "eval rails are complement-consistent: {test:?}");
    }
}
