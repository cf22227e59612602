//! The sequential differential battery: scan insertion and time-frame
//! expansion are pitted against the cycle-accurate [`SeqCircuit`]
//! oracle on random machines, and the transition-delay pair engines
//! against an exhaustive two-pattern full-pass oracle — at every
//! supported lane width and thread count, demanding bit identity.

use proptest::prelude::*;
use sinw_atpg::faultsim::{good_sim, PatternBlock, SUPPORTED_LANES};
use sinw_atpg::transition::{
    enumerate_transition, simulate_transition, simulate_transition_threaded_lanes,
    transition_oracle,
};
use sinw_atpg::unroll::{unroll, UnrollConfig};
use sinw_atpg::CircuitTwoPattern;
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::scan::{insert_scan, ScanPlan};
use sinw_switch::seq::{Dff, SeqCircuit};
use sinw_switch::value::Logic;

/// A random sequential machine: `n_state` flip-flops whose `Q`s are the
/// first PIs of a random combinational core, `D`s picked from anywhere
/// in the netlist (feedback included).
fn random_machine(n_state: usize, n_in: usize, n_gates: usize, seed: &[u8]) -> SeqCircuit {
    let mut c = Circuit::new();
    let qs: Vec<SignalId> = (0..n_state).map(|i| c.add_input(format!("q{i}"))).collect();
    let mut signals = qs.clone();
    for i in 0..n_in {
        signals.push(c.add_input(format!("i{i}")));
    }
    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Maj3,
    ];
    let byte = |i: usize| -> usize { seed[i % seed.len()] as usize };
    for g in 0..n_gates {
        let kind = kinds[byte(4 * g) % kinds.len()];
        let inputs: Vec<SignalId> = (0..kind.input_count())
            .map(|pin| signals[byte(4 * g + pin + 1) % signals.len()])
            .collect();
        signals.push(c.add_gate(kind, format!("g{g}"), &inputs));
    }
    let n = signals.len();
    for s in signals.iter().skip(n.saturating_sub(2)) {
        c.mark_output(*s);
    }
    let dffs = qs
        .iter()
        .enumerate()
        .map(|(j, q)| Dff {
            name: format!("ff{j}"),
            d: signals[byte(97 + 5 * j) % signals.len()],
            q: *q,
        })
        .collect();
    SeqCircuit::new(c, dffs).expect("random machine is well formed")
}

/// Evaluate `patterns` on `circuit` through the wide kernel at lane
/// width `L` and read back the PO bits per pattern.
fn po_bits<const L: usize>(circuit: &Circuit, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let block = PatternBlock::<L>::pack(circuit, patterns);
    let good = good_sim(circuit, &block);
    (0..patterns.len())
        .map(|k| {
            circuit
                .primary_outputs()
                .iter()
                .map(|po| good[po.0].get_bit(k))
                .collect()
        })
        .collect()
}

fn po_bits_at(lanes: usize, circuit: &Circuit, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
    match lanes {
        1 => po_bits::<1>(circuit, patterns),
        2 => po_bits::<2>(circuit, patterns),
        4 => po_bits::<4>(circuit, patterns),
        8 => po_bits::<8>(circuit, patterns),
        other => panic!("unsupported lane count {other}"),
    }
}

fn to_logic(v: &[bool]) -> Vec<Logic> {
    v.iter().map(|b| Logic::from_bool(*b)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full-scan insertion is an equivalence-preserving rewrite: for any
    /// machine, state, and input vector, the scan view's functional POs
    /// match the machine's outputs and its scan-out POs match the next
    /// state — bit-identically through the wide kernel at every
    /// supported lane width.
    #[test]
    fn scan_insertion_is_equivalence_preserving(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_state in 1usize..4,
        n_in in 1usize..4,
        n_gates in 1usize..12,
        stim in proptest::collection::vec(any::<bool>(), 64 * 8),
    ) {
        let seq = random_machine(n_state, n_in, n_gates, &seed);
        let scan = insert_scan(&seq, &ScanPlan::Full);
        let n_pi = scan.circuit().primary_inputs().len();
        let patterns: Vec<Vec<bool>> = stim
            .chunks(n_pi)
            .take(8)
            .filter(|c| c.len() == n_pi)
            .map(<[bool]>::to_vec)
            .collect();
        assert!(!patterns.is_empty(), "512 stimulus bits always fill at least one pattern");

        // The cycle-accurate oracle, one step per pattern. The scan
        // view's PI order interleaves state and functional inputs
        // exactly as the core declared them, so split by Q membership.
        let expected: Vec<(Vec<Logic>, Vec<Logic>)> = patterns
            .iter()
            .map(|p| {
                let full = to_logic(p);
                let mut state = Vec::new();
                let mut inputs = Vec::new();
                for (pos, pi) in scan.circuit().primary_inputs().iter().enumerate() {
                    if seq.dffs().iter().any(|ff| ff.q == *pi) {
                        state.push(full[pos]);
                    } else {
                        inputs.push(full[pos]);
                    }
                }
                assert_eq!(state.len(), seq.state_width());
                seq.step(&state, &inputs)
            })
            .collect();

        for lanes in SUPPORTED_LANES {
            let got = po_bits_at(lanes, scan.circuit(), &patterns);
            for (k, (outs, next)) in expected.iter().enumerate() {
                for (o, exp) in outs.iter().enumerate() {
                    prop_assert_eq!(
                        Logic::from_bool(got[k][o]), *exp,
                        "functional PO {} at lanes {}", o, lanes
                    );
                }
                for (j, pos) in scan.scan_out_positions().iter().enumerate() {
                    prop_assert_eq!(
                        Logic::from_bool(got[k][*pos]), next[j],
                        "scan-out {} at lanes {}", j, lanes
                    );
                }
            }
        }
    }

    /// K-frame time-frame expansion agrees with the direct multi-cycle
    /// simulation oracle at every observed frame and at the final state.
    #[test]
    fn timeframe_expansion_matches_sequential_oracle(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_state in 1usize..4,
        n_in in 1usize..3,
        n_gates in 1usize..12,
        frames in 1usize..5,
        stim in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let seq = random_machine(n_state, n_in, n_gates, &seed);
        let un = unroll(&seq, &UnrollConfig::full_observability(frames));
        let n_func = seq.functional_inputs().len();
        // 32 stimulus bits always cover n_state + frames * n_func <= 11.
        let state0 = to_logic(&stim[..n_state]);
        let inputs: Vec<Vec<Logic>> = (0..frames)
            .map(|f| to_logic(&stim[n_state + f * n_func..n_state + (f + 1) * n_func]))
            .collect();

        let (outs, states) = seq.simulate(&state0, &inputs);
        let flat = un.assemble_inputs(&state0, &inputs);
        let values = un.circuit().eval(&flat);
        let pos = un.circuit().primary_outputs();
        for f in 0..frames {
            for o in 0..seq.functional_outputs().len() {
                prop_assert_eq!(
                    values[pos[un.po_position(f, o)].0], outs[f][o],
                    "frame {} PO {}", f, o
                );
            }
        }
        for (j, p) in un.final_state_positions().iter().enumerate() {
            prop_assert_eq!(values[pos[*p].0], states[frames - 1][j], "final state {}", j);
        }
    }

    /// Every transition pair engine — the default form, and the explicit
    /// form at every lane width × several worker counts — reports
    /// bit-identically to the independent scalar full-pass oracle over
    /// an exhaustive two-pattern set on the full-scan view.
    #[test]
    fn transition_detection_matches_the_exhaustive_two_pattern_oracle(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_state in 1usize..3,
        n_in in 1usize..3,
        n_gates in 1usize..10,
        drop in any::<bool>(),
    ) {
        let seq = random_machine(n_state, n_in, n_gates, &seed);
        let scan = insert_scan(&seq, &ScanPlan::Full);
        let circuit = scan.circuit();
        let n_pi = circuit.primary_inputs().len();
        assert!(n_pi <= 4, "generator ranges keep the PI count exhaustive-friendly");
        let vectors: Vec<Vec<bool>> = (0..1u32 << n_pi)
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        // Exhaustive pairs, thinned by a deterministic stride to keep
        // the case affordable while still crossing every init vector.
        let pairs: Vec<CircuitTwoPattern> = vectors
            .iter()
            .flat_map(|init| {
                vectors.iter().map(|eval| CircuitTwoPattern {
                    init: init.clone(),
                    eval: eval.clone(),
                })
            })
            .step_by(3)
            .collect();
        let faults = enumerate_transition(circuit);
        let oracle = transition_oracle(circuit, &faults, &pairs);

        prop_assert_eq!(&simulate_transition(circuit, &faults, &pairs, drop), &oracle);
        for lanes in SUPPORTED_LANES {
            for threads in [1usize, 2, 5] {
                prop_assert_eq!(
                    &simulate_transition_threaded_lanes(
                        circuit, &faults, &pairs, drop, threads, lanes
                    ),
                    &oracle,
                    "lanes {}, threads {}", lanes, threads
                );
            }
        }
    }
}
