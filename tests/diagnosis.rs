//! Golden end-to-end tests of the fault dictionary + diagnosis engine:
//! pinned dictionary stats on the embedded fixtures, the csa16
//! redundancy/empty-class structure, engine-identity across builds, and
//! an injected-defect → observe → diagnose → verify walk.
//!
//! All pattern sets come from the ATPG campaign at its default
//! (deterministic) configuration, so every number here is reproducible
//! bit for bit.

use sinw::atpg::diagnose::{full_pass_observations, FaultDictionary};
use sinw::atpg::fault_list::enumerate_stuck_at;
use sinw::atpg::faultsim::simulate_faults;
use sinw::atpg::tpg::{AtpgConfig, AtpgEngine, FaultStatus};
use sinw::switch::gate::Circuit;
use sinw::switch::iscas::{parse_bench, C17_BENCH, CSA16_BENCH};

/// Campaign-compacted pattern set at the default deterministic config,
/// plus the collapsed universe and per-representative statuses.
fn campaign_patterns(
    circuit: &Circuit,
) -> (
    Vec<Vec<bool>>,
    Vec<sinw::atpg::StuckAtFault>,
    Vec<FaultStatus>,
) {
    let (collapsed, report) = AtpgEngine::run_collapsed(circuit, AtpgConfig::default());
    (report.patterns, collapsed.representatives, report.statuses)
}

/// c17 dictionary golden: the full 34-fault universe over the campaign's
/// compacted set collapses to 20 indistinguishability classes, 160 bytes
/// of stored signatures (vs 272 uncompressed), with no all-pass class —
/// c17 is fully testable.
#[test]
fn c17_dictionary_stats_are_pinned() {
    let c17 = parse_bench(C17_BENCH).expect("embedded c17 parses");
    let faults = enumerate_stuck_at(&c17);
    let (patterns, _, _) = campaign_patterns(&c17);
    let dict = FaultDictionary::build(&c17, &faults, &patterns);
    let stats = dict.stats();
    assert_eq!(stats.faults, 34, "c17 stuck-at universe");
    assert_eq!(stats.classes, 20, "c17 class count");
    assert_eq!(stats.compressed_bytes, 160, "c17 dictionary bytes");
    assert_eq!(stats.uncompressed_bytes, 272, "c17 per-fault matrix bytes");
    assert!(stats.compressed_bytes < stats.uncompressed_bytes);
    assert_eq!(stats.empty_classes, 0, "c17 has no undetectable faults");
    assert_eq!(stats.max_class_size, 4);
    // The builds are one engine in two guises.
    let threaded = FaultDictionary::build_threaded(&c17, &faults, &patterns, 3);
    assert_eq!(dict.class_of(), threaded.class_of());
    // The class partition is the one the full-pass observation oracle
    // induces: two faults share a class iff they fail the same probes.
    let observed: Vec<_> = faults
        .iter()
        .map(|f| full_pass_observations(&c17, *f, &patterns))
        .collect();
    for i in 0..faults.len() {
        for j in 0..faults.len() {
            assert_eq!(
                dict.class_of()[i] == dict.class_of()[j],
                observed[i] == observed[j],
                "faults {i} and {j}"
            );
        }
    }
}

/// csa16 diagnostic-resolution golden: 1192 faults → 550 classes, and the
/// three proven-redundant carry-select mux faults land — together with
/// every other fault the compacted set leaves silent — in exactly one
/// all-pass (empty-signature) class, which matches the undetected set of
/// an independent `simulate_faults` pass exactly.
#[test]
fn csa16_redundant_faults_form_the_empty_class() {
    let csa = parse_bench(CSA16_BENCH).expect("embedded csa16 parses");
    let faults = enumerate_stuck_at(&csa);
    let (patterns, representatives, statuses) = campaign_patterns(&csa);
    let dict = FaultDictionary::build_threaded(&csa, &faults, &patterns, 0);
    let stats = dict.stats();
    assert_eq!(stats.faults, 1192, "csa16 stuck-at universe");
    assert_eq!(stats.classes, 550, "csa16 class count");
    assert_eq!(stats.compressed_bytes, 44_000, "csa16 dictionary bytes");
    assert_eq!(stats.uncompressed_bytes, 95_360);
    assert_eq!(stats.max_class_size, 10);
    assert_eq!(stats.empty_classes, 1, "one all-pass class");

    // The all-pass class is exactly the set of faults the pattern set
    // never exposes, cross-checked against the public detect engine.
    let empty_class = (0..dict.class_count())
        .find(|c| dict.class_is_empty(*c))
        .expect("one empty class exists");
    let check = simulate_faults(&csa, &faults, &patterns, false);
    assert_eq!(dict.class_members(empty_class), &check.undetected[..]);

    // The three statically-proven mux redundancies are members of it.
    let untestable: Vec<_> = representatives
        .iter()
        .zip(&statuses)
        .filter(|(_, s)| **s == FaultStatus::Untestable)
        .map(|(f, _)| *f)
        .collect();
    assert_eq!(untestable.len(), 3, "csa16 carries 3 proven redundancies");
    for f in &untestable {
        let fi = faults
            .iter()
            .position(|g| g == f)
            .expect("representative is in the universe");
        assert_eq!(
            dict.class_of()[fi],
            empty_class,
            "{} must sit in the all-pass class",
            f.describe(&csa)
        );
    }

    // Every detected fault sits in a non-empty class, and the class sizes
    // partition the universe.
    for &fi in &check.detected {
        assert!(!dict.class_is_empty(dict.class_of()[fi]));
    }
    let total: usize = (0..dict.class_count())
        .map(|c| dict.class_members(c).len())
        .sum();
    assert_eq!(total, faults.len());
}

/// The full walk a test floor would run: inject a defect, log the failing
/// (pattern, output) probes with the independent full-pass oracle,
/// diagnose, and verify the verdict — the true fault's class ranks first
/// with an exact match, and every member of that class is empirically
/// indistinguishable (identical observations).
#[test]
fn injected_defect_walk_on_csa16() {
    let csa = parse_bench(CSA16_BENCH).expect("embedded csa16 parses");
    let faults = enumerate_stuck_at(&csa);
    let (patterns, _, _) = campaign_patterns(&csa);
    let dict = FaultDictionary::build_threaded(&csa, &faults, &patterns, 0);
    for fi in (0..faults.len()).step_by(97) {
        let obs = full_pass_observations(&csa, faults[fi], &patterns);
        let report = dict.diagnose(&obs);
        let best = report.best().expect("non-empty dictionary");
        assert!(best.exact, "{}", faults[fi].describe(&csa));
        assert_eq!(
            best.class,
            dict.class_of()[fi],
            "diagnosis missed {}",
            faults[fi].describe(&csa)
        );
        // Verify: the candidate class is a real ambiguity set — every
        // member produces the observed response verbatim.
        for &m in dict.class_members(best.class) {
            assert_eq!(
                full_pass_observations(&csa, faults[m], &patterns),
                obs,
                "{} claimed indistinguishable from {}",
                faults[m].describe(&csa),
                faults[fi].describe(&csa)
            );
        }
    }
}

/// The experiments driver rows are internally consistent and every
/// sampled diagnosis probe ranked the true class first.
#[test]
fn diagnosis_driver_rows_are_verified() {
    let result = sinw::core::experiments::diagnosis(true);
    let suite = sinw::core::experiments::benchmark_suite(true);
    assert_eq!(result.rows.len(), suite.len());
    for row in &result.rows {
        assert_eq!(
            row.probes_ranked_first, row.probes,
            "{}: a diagnosis probe missed its class",
            row.name
        );
        assert!(row.probes > 0, "{}: no probes sampled", row.name);
        assert!(
            row.stats.compressed_bytes < row.stats.uncompressed_bytes,
            "{}: class merging must compress",
            row.name
        );
        assert!(
            row.stats.classes <= row.stats.faults && row.stats.classes > 0,
            "{}: classes must partition a non-empty universe",
            row.name
        );
    }
    let csa16 = result.row("csa16").expect("driver includes csa16");
    assert_eq!(csa16.stats.empty_classes, 1);
}
