//! Property-based tests of the ATPG substrate: PODEM soundness and
//! completeness on random circuits, and engine agreement.

mod common;

use proptest::prelude::*;
use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::{full_pass_observations, FaultDictionary};
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::{
    capture_signatures, capture_signatures_lanes, capture_signatures_threaded_lanes,
    compact_reverse, configured_lanes, detect_mask, detect_mask_in, seeded_patterns,
    simulate_faults, simulate_faults_full_pass, simulate_faults_lanes,
    simulate_faults_threaded_lanes, simulate_faults_threaded_stats, FaultSimScratch, PatternBlock,
    SUPPORTED_LANES,
};
use sinw_atpg::podem::{fill_cube, generate_test, PodemConfig, PodemResult};
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine, FaultStatus};
use sinw_atpg::twin::TwinSim;
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::generate::{array_multiplier, carry_select_adder};
use sinw_switch::value::Logic;
use sinw_switch::{parse_bench, to_bench};

/// A random DAG of library cells over `n_pi` primary inputs.
fn random_circuit(n_pi: usize, n_gates: usize, seed: &[u8]) -> Circuit {
    let mut c = Circuit::new();
    let mut signals: Vec<SignalId> = (0..n_pi).map(|i| c.add_input(format!("i{i}"))).collect();
    let kinds = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xor3,
        CellKind::Maj3,
    ];
    let mut k = 0usize;
    let byte = |i: usize| -> usize { seed[i % seed.len()] as usize };
    for g in 0..n_gates {
        let kind = kinds[byte(3 * g) % kinds.len()];
        let mut inputs = Vec::new();
        for pin in 0..kind.input_count() {
            inputs.push(signals[byte(3 * g + pin + 1) % signals.len()]);
        }
        k += 1;
        let out = c.add_gate(kind, format!("g{k}"), &inputs);
        signals.push(out);
    }
    // Mark the last few signals as outputs so everything has a chance to
    // be observed.
    let n = signals.len();
    for s in signals.iter().skip(n.saturating_sub(3)) {
        c.mark_output(*s);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental twin simulator behind PODEM's implication: after
    /// any sequence of primary-input assign / flip / unassign edits, with
    /// a random fault or none, every settle gives the twins a fresh
    /// simulator computes from the final assignment alone, and the good
    /// half is `Circuit::eval` on that assignment. Settles fall at random
    /// points, so several edits often propagate together, as after a
    /// PODEM backtrack.
    #[test]
    fn incremental_twin_sim_matches_a_fresh_one(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..16,
        fault_pick in any::<u16>(),
        edits in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        let n_pi = 5usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let fault = universe.get(usize::from(fault_pick) % (universe.len() + 1)).copied();
        let mut sim = TwinSim::new(&c, fault);
        let mut assignment: Vec<Option<bool>> = vec![None; n_pi];
        for (i, e) in edits.iter().enumerate() {
            let k = usize::from(*e) % n_pi;
            let v = match (e >> 3) % 3 {
                0 => Some(e & 0x80 != 0),
                1 => Some(!assignment[k].unwrap_or(false)),
                _ => None,
            };
            assignment[k] = v;
            sim.assign(k, v);
            if e & 0x40 == 0 && i + 1 < edits.len() {
                continue;
            }
            let mut fresh = TwinSim::new(&c, fault);
            for (k, v) in assignment.iter().enumerate() {
                fresh.assign(k, *v);
            }
            let twins = sim.settle();
            prop_assert_eq!(twins, fresh.settle());
            let logic: Vec<Logic> = assignment
                .iter()
                .map(|v| v.map_or(Logic::X, Logic::from_bool))
                .collect();
            let good: Vec<Logic> = twins.iter().map(|t| t.good).collect();
            prop_assert_eq!(good, c.eval(&logic));
            if fault.is_none() {
                prop_assert!(twins.iter().all(|t| t.faulty == t.good));
            }
        }
    }

    /// PODEM and the PPSFP kernel are independent implementations and must
    /// agree: every `PodemResult::Test` cube — under *any* don't-care fill
    /// — detects its target fault under `simulate_faults`, and every
    /// `Untestable` verdict survives exhaustive simulation (the circuits
    /// stay far under the 12-PI exhaustive budget). Subsetting the fault
    /// universe desynchronises fault indices from circuit structure.
    #[test]
    fn podem_is_sound_and_complete(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..8,
        keep_one_in in 1usize..4,
    ) {
        let n_pi = 4usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let config = PodemConfig::default();
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let universe = enumerate_stuck_at(&c);
        let faults = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f);

        for fault in faults {
            match generate_test(&c, fault, &config) {
                PodemResult::Test(cube) => {
                    // Detection must hold for every completion of the cube.
                    for fill in [false, true] {
                        let filled = fill_cube(&cube, fill);
                        let report = simulate_faults(&c, &[fault], &[filled], false);
                        prop_assert_eq!(
                            report.detected.len(),
                            1,
                            "fill {} of cube {:?} misses {}",
                            fill,
                            &cube,
                            fault.describe(&c)
                        );
                    }
                }
                PodemResult::Untestable => {
                    let report = simulate_faults(&c, &[fault], &exhaustive, false);
                    prop_assert!(
                        report.detected.is_empty(),
                        "{} declared untestable but a pattern exists",
                        fault.describe(&c)
                    );
                }
                PodemResult::Aborted => {
                    // Permitted by the contract, but should not occur on
                    // such small circuits.
                    prop_assert!(false, "aborted on a tiny circuit");
                }
            }
        }
    }

    /// The campaign engine end to end on random circuits: the final
    /// compacted pattern set — re-verified by an independent
    /// `simulate_faults` pass — detects every testable collapsed fault,
    /// and every `Untestable` verdict is confirmed by exhaustive
    /// simulation.
    #[test]
    fn atpg_campaign_reaches_full_testable_coverage(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..14,
        max_random_blocks in 0usize..6,
    ) {
        let n_pi = 5usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let campaign_seed = seed
            .iter()
            .fold(0xC0FF_EE00u64, |acc, b| acc.wrapping_mul(131) ^ u64::from(*b));
        let config = AtpgConfig {
            seed: campaign_seed,
            max_random_blocks,
            random_window: 2,
            ..AtpgConfig::default()
        };
        let (collapsed, report) = AtpgEngine::run_collapsed(&c, config);
        prop_assert_eq!(report.aborted, 0, "tiny circuits must not abort");
        prop_assert_eq!(report.testable_coverage(), 1.0);
        prop_assert!(report.patterns.len() <= report.patterns_before_compaction);
        prop_assert!(report.podem_calls <= collapsed.representatives.len());

        // Independent verification of the compacted set on the public
        // PPSFP engine (not the engine's own kernel calls).
        let check = simulate_faults(&c, &collapsed.representatives, &report.patterns, true);
        prop_assert_eq!(check.detected.len(), report.detected());

        // Untestable verdicts cross-checked exhaustively (5 PIs).
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let untestable: Vec<_> = collapsed
            .representatives
            .iter()
            .zip(&report.statuses)
            .filter(|(_, s)| **s == FaultStatus::Untestable)
            .map(|(f, _)| *f)
            .collect();
        if !untestable.is_empty() {
            let red = simulate_faults(&c, &untestable, &exhaustive, false);
            prop_assert!(red.detected.is_empty(), "false Untestable verdict");
        }
    }

    /// All three engines — the full-pass oracle, the default wide engine
    /// and the explicit thread-parallel form — report the same
    /// detected-fault set (and the same first-detection profile) on
    /// random DAGs, with and without fault dropping, at odd worker
    /// counts.
    #[test]
    fn all_three_engines_agree_on_random_circuits(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..12,
        n_patterns in 1usize..80,
        drop_detected in any::<bool>(),
        threads in 1usize..7,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let pattern_seed = seed.iter().fold(0u64, |acc, b| (acc << 8) | u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
        let par = simulate_faults(&c, &faults, &patterns, drop_detected);
        let thr = simulate_faults_threaded_lanes(
            &c, &faults, &patterns, drop_detected, threads, configured_lanes(),
        );
        prop_assert_eq!(&oracle, &par);
        prop_assert_eq!(&oracle, &thr);
    }

    /// Engine agreement on the *generated* benchmark structures (adders
    /// and multipliers stress reconvergent fanout much harder than the
    /// random DAGs above).
    #[test]
    fn engines_agree_on_generated_benchmarks(
        which in 0usize..3,
        width in 2usize..5,
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let c = match which {
            0 => Circuit::ripple_adder(width),
            1 => carry_select_adder(width + 2, 2),
            _ => array_multiplier(width),
        };
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(c.primary_inputs().len(), 70, seed);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, true);
        let par = simulate_faults(&c, &faults, &patterns, true);
        let thr = simulate_faults_threaded_lanes(
            &c, &faults, &patterns, true, threads, configured_lanes(),
        );
        prop_assert_eq!(&oracle, &par);
        prop_assert_eq!(&oracle, &thr);
    }

    /// The event-driven kernel against the retained full-pass oracle:
    /// random generated circuits × random fault-list subsets × random
    /// pattern blocks must produce bit-identical `FaultSimReport`s, with
    /// and without fault dropping. Subsetting the fault list matters
    /// because it desynchronises fault indices from circuit structure —
    /// a bookkeeping bug in the worklist seeding would surface here.
    #[test]
    fn event_driven_matches_full_pass_on_random_universes(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..150,
        keep_one_in in 1usize..4,
        drop_detected in any::<bool>(),
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults: Vec<_> = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f)
            .collect();
        let pattern_seed = seed.iter().fold(1u64, |acc, b| acc.wrapping_mul(31) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
        let event = simulate_faults(&c, &faults, &patterns, drop_detected);
        let event_threaded = simulate_faults_threaded_lanes(
            &c, &faults, &patterns, drop_detected, threads, configured_lanes(),
        );
        prop_assert_eq!(&oracle, &event);
        prop_assert_eq!(&oracle, &event_threaded);
    }

    /// Same oracle check on the *generated* benchmark structures, whose
    /// deep reconvergent fanout exercises worklist dedup and level
    /// ordering much harder than the shallow random DAGs — both as
    /// generated and in the shape the service simulates: the
    /// `parse_bench(to_bench(..))` round trip (`MAJ3` becomes an
    /// AND/OR network of short fanout-free regions) under its collapsed
    /// universe.
    #[test]
    fn event_driven_matches_full_pass_on_generated_benchmarks(
        which in 0usize..3,
        width in 2usize..5,
        seed in any::<u64>(),
    ) {
        let generated = match which {
            0 => Circuit::ripple_adder(width),
            1 => carry_select_adder(width + 2, 2),
            _ => array_multiplier(width),
        };
        let mapped = parse_bench(&to_bench(&generated, "generated")).expect("exported text parses");
        let mapped_faults = collapse(&mapped, &enumerate_stuck_at(&mapped)).representatives;
        let generated_faults = enumerate_stuck_at(&generated);
        for (c, faults) in [(&generated, generated_faults), (&mapped, mapped_faults)] {
            let patterns = seeded_patterns(c.primary_inputs().len(), 70, seed);
            let oracle = simulate_faults_full_pass(c, &faults, &patterns, true);
            let event = simulate_faults(c, &faults, &patterns, true);
            prop_assert_eq!(&oracle, &event);
        }
    }

    /// `detect_mask_in` with one long-lived scratch agrees with the
    /// allocating `detect_mask` wrapper across random circuits — buffer
    /// reuse (including growth between differently-sized circuits) must
    /// never leak state between calls.
    #[test]
    fn detect_mask_in_agrees_with_detect_mask(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..16,
        n_patterns in 1usize..40,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let pattern_seed = seed.iter().fold(7u64, |acc, b| (acc << 7) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns.min(64), pattern_seed);
        let block: PatternBlock = PatternBlock::pack(&c, &patterns);
        let mut scratch = FaultSimScratch::new();
        for fault in enumerate_stuck_at(&c) {
            prop_assert_eq!(
                detect_mask_in(&c, fault, &block, &mut scratch),
                detect_mask(&c, fault, &block),
                "{}",
                fault.describe(&c)
            );
        }
    }

    /// Engine agreement for the signature-capture mode: the default and
    /// threaded captures are bit-identical on random circuits × fault
    /// subsets × pattern blocks, and a fault's signature is nonzero
    /// **iff** the detect-mask engines (`simulate_faults`, its threaded
    /// form and the full-pass oracle) report it detected — with the first
    /// failing pattern reproducing the first-detection profile.
    #[test]
    fn signature_capture_agrees_with_the_detect_engines(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..150,
        keep_one_in in 1usize..4,
        threads in 1usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults: Vec<_> = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f)
            .collect();
        let pattern_seed = seed.iter().fold(3u64, |acc, b| acc.wrapping_mul(37) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);

        let lanes = configured_lanes();
        let sig = capture_signatures(&c, &faults, &patterns);
        prop_assert_eq!(
            &sig,
            &capture_signatures_threaded_lanes(&c, &faults, &patterns, threads, lanes)
        );

        let detected: Vec<usize> = (0..faults.len()).filter(|fi| sig.is_detected(*fi)).collect();
        let par = simulate_faults(&c, &faults, &patterns, false);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, false);
        let thr = simulate_faults_threaded_lanes(&c, &faults, &patterns, false, threads, lanes);
        prop_assert_eq!(&detected, &par.detected);
        prop_assert_eq!(&detected, &oracle.detected);
        prop_assert_eq!(&detected, &thr.detected);
        // Dropping changes nothing about which faults are detected.
        let dropped = simulate_faults(&c, &faults, &patterns, true);
        prop_assert_eq!(&detected, &dropped.detected);

        // The signature's first failing pattern reproduces the engines'
        // first-detection credit, bit for bit.
        let mut firsts = vec![0usize; patterns.len()];
        for fi in 0..faults.len() {
            if let Some(p) = sig.first_failing_pattern(fi) {
                firsts[p] += 1;
            }
        }
        prop_assert_eq!(&firsts, &par.first_detections);
    }

    /// The diagnosis round trip: inject a random collapsed stuck-at
    /// fault, simulate its observable response with the independent
    /// full-pass oracle, and the dictionary must rank the true fault's
    /// indistinguishability class first (as a unique exact match) —
    /// across default/threaded dictionary builds and with/without
    /// reverse-order pattern compaction.
    #[test]
    fn diagnosis_ranks_the_true_class_first(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..14,
        n_patterns in 1usize..60,
        threaded in any::<bool>(),
        compacted in any::<bool>(),
        pick in any::<u64>(),
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &universe);
        let pattern_seed = seed.iter().fold(11u64, |acc, b| acc.wrapping_mul(41) ^ u64::from(*b));
        let mut patterns = seeded_patterns(5, n_patterns, pattern_seed);
        if compacted {
            patterns = compact_reverse(&c, &collapsed.representatives, &patterns);
        }
        let dict = if threaded {
            FaultDictionary::build_threaded(&c, &universe, &patterns, 3)
        } else {
            FaultDictionary::build(&c, &universe, &patterns)
        };

        let rep = collapsed.representatives[(pick as usize) % collapsed.representatives.len()];
        let fi = universe
            .iter()
            .position(|f| *f == rep)
            .expect("representatives come from the universe");
        let obs = full_pass_observations(&c, rep, &patterns);
        let report = dict.diagnose(&obs);
        let best = report.best().expect("non-empty dictionary");
        prop_assert!(best.exact, "{} must match exactly", rep.describe(&c));
        prop_assert_eq!(
            best.class,
            dict.class_of()[fi],
            "true class of {} not ranked first",
            rep.describe(&c)
        );
        // An exact match is unique: every other candidate is strictly
        // farther.
        for cand in &report.candidates[1..] {
            prop_assert!(cand.distance > 0);
        }
    }

    /// Collapsed fault classes are detection-equivalent under exhaustive
    /// simulation.
    #[test]
    fn collapse_preserves_detectability(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..8,
    ) {
        let n_pi = 4usize;
        let c = random_circuit(n_pi, n_gates, &seed);
        let faults = enumerate_stuck_at(&c);
        let collapsed = collapse(&c, &faults);
        let exhaustive: Vec<Vec<bool>> = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let block: PatternBlock = PatternBlock::pack(&c, &exhaustive);
        for (fi, fault) in faults.iter().enumerate() {
            let rep = collapsed.representatives[collapsed.class_of[fi]];
            prop_assert_eq!(
                detect_mask(&c, *fault, &block),
                detect_mask(&c, rep, &block),
                "{} vs its representative {}",
                fault.describe(&c),
                rep.describe(&c)
            );
        }
    }

    /// The lane-differential property: every supported lane width must
    /// produce `FaultSimReport`s bit-identical to the L = 1 kernel and
    /// to the whole-circuit full-pass oracle, on both the event engine
    /// and the work-stealing threaded engine at one and several workers,
    /// across random circuits × fault subsets × drop on/off. Wider lanes
    /// change the block capacity (64·L patterns per good-machine pass), so any
    /// masking or first-detection-index bug that depends on block
    /// boundaries surfaces here.
    #[test]
    fn lane_widths_are_differentially_identical(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..24,
        n_patterns in 1usize..400,
        keep_one_in in 1usize..4,
        drop_detected in any::<bool>(),
        threads in 2usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults: Vec<_> = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f)
            .collect();
        let pattern_seed = seed.iter().fold(5u64, |acc, b| acc.rotate_left(9) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
        let narrow = simulate_faults_lanes(&c, &faults, &patterns, drop_detected, 1);
        prop_assert_eq!(&oracle, &narrow);
        for lanes in SUPPORTED_LANES {
            let wide = simulate_faults_lanes(&c, &faults, &patterns, drop_detected, lanes);
            prop_assert_eq!(&narrow, &wide, "event engine at L = {}", lanes);
            for workers in [1, threads] {
                let (thr, _) = simulate_faults_threaded_stats(
                    &c, &faults, &patterns, drop_detected, workers, lanes,
                );
                prop_assert_eq!(
                    &narrow, &thr, "threaded engine at L = {}, T = {}", lanes, workers
                );
            }
        }
    }

    /// The lane-differential property for signature capture: the full
    /// per-fault × per-pattern × per-PO `SignatureMatrix` must come out
    /// bit-identical at every lane width, single-worker and work-stealing
    /// at one and several workers, and agree row by row with the
    /// whole-circuit `full_pass_observations` oracle.
    #[test]
    fn signature_capture_is_lane_and_schedule_invariant(
        seed in proptest::collection::vec(any::<u8>(), 24),
        n_gates in 2usize..16,
        n_patterns in 1usize..200,
        keep_one_in in 1usize..4,
        threads in 2usize..5,
    ) {
        let c = random_circuit(5, n_gates, &seed);
        let universe = enumerate_stuck_at(&c);
        let faults: Vec<_> = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f)
            .collect();
        let pattern_seed = seed.iter().fold(13u64, |acc, b| acc.rotate_left(7) ^ u64::from(*b));
        let patterns = seeded_patterns(5, n_patterns, pattern_seed);
        let narrow = capture_signatures_lanes(&c, &faults, &patterns, 1);
        for lanes in SUPPORTED_LANES {
            let wide = capture_signatures_lanes(&c, &faults, &patterns, lanes);
            prop_assert_eq!(&narrow, &wide, "capture at L = {}", lanes);
            for workers in [1, threads] {
                let thr = capture_signatures_threaded_lanes(&c, &faults, &patterns, workers, lanes);
                prop_assert_eq!(
                    &narrow, &thr, "threaded capture at L = {}, T = {}", lanes, workers
                );
            }
        }
        // Row-by-row against the whole-circuit observation oracle.
        for (fi, &fault) in faults.iter().enumerate() {
            let mut observed = Vec::new();
            for p in 0..patterns.len() {
                for o in 0..c.primary_outputs().len() {
                    if narrow.fails(fi, p, o) {
                        observed.push((p, o));
                    }
                }
            }
            prop_assert_eq!(
                observed,
                full_pass_observations(&c, fault, &patterns),
                "{} row diverges from the oracle",
                fault.describe(&c)
            );
        }
    }

    /// Capture's stem lanes against the whole-circuit oracles: one
    /// event pass carries several stems of a block (one per stem lane),
    /// so groups hold stems inside other members' cones, dead stems no
    /// output sees, and a short last group. On random circuits and the
    /// fanout-free-region zoo, every (fault, pattern, output) bit at
    /// every lane width, on one worker and several, equals
    /// `full_pass_observations`, and a row is nonzero exactly when
    /// `simulate_faults_full_pass` detects its fault.
    #[test]
    fn signature_capture_stem_lanes_match_full_pass_responses(
        seed in proptest::collection::vec(any::<u8>(), 24),
        zoo in any::<bool>(),
        n_gates in 8usize..64,
        n_patterns in 1usize..300,
        keep_one_in in 1usize..4,
        threads in 2usize..5,
    ) {
        let c = if zoo { common::ffr_zoo() } else { random_circuit(6, n_gates, &seed) };
        let n_pi = c.primary_inputs().len();
        let universe = enumerate_stuck_at(&c);
        let faults: Vec<_> = universe
            .iter()
            .enumerate()
            .filter(|(i, _)| i % keep_one_in == 0)
            .map(|(_, f)| *f)
            .collect();
        let pattern_seed = seed.iter().fold(29u64, |acc, b| acc.rotate_left(11) ^ u64::from(*b));
        let patterns = seeded_patterns(n_pi, n_patterns, pattern_seed);
        let oracle = simulate_faults_full_pass(&c, &faults, &patterns, false);
        // The oracle's failing (pattern, output) probes as packed rows:
        // bit `pattern * outputs + output`.
        let n_out = c.primary_outputs().len();
        let words = (patterns.len() * n_out).div_ceil(64);
        let rows: Vec<Vec<u64>> = faults
            .iter()
            .map(|&fault| {
                let mut row = vec![0u64; words];
                for (p, o) in full_pass_observations(&c, fault, &patterns) {
                    let bit = p * n_out + o;
                    row[bit / 64] |= 1 << (bit % 64);
                }
                row
            })
            .collect();
        for lanes in SUPPORTED_LANES {
            for workers in [1, threads] {
                let sig = capture_signatures_threaded_lanes(&c, &faults, &patterns, workers, lanes);
                let detected: Vec<usize> =
                    (0..faults.len()).filter(|&fi| sig.is_detected(fi)).collect();
                prop_assert_eq!(&detected, &oracle.detected, "L = {}, T = {}", lanes, workers);
                for (fi, expected) in rows.iter().enumerate() {
                    prop_assert_eq!(
                        sig.row(fi),
                        &expected[..],
                        "{} at L = {}, T = {}",
                        faults[fi].describe(&c),
                        lanes,
                        workers
                    );
                }
            }
        }
    }
}
