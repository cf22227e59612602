//! Fault dictionary + diagnosis over every benchmark: build the
//! compressed circuit-level pass/fail dictionary with the
//! signature-capture PPSFP engine (keyed by the ATPG campaign's compacted
//! test set), then close the loop — inject faults, observe their failing
//! responses with the independent full-pass oracle, and look them up.
//!
//! ```text
//! cargo run --release --example diagnosis            # full widths
//! cargo run --release --example diagnosis -- --fast
//! ```

use sinw::atpg::diagnose::{full_pass_observations, FaultDictionary};
use sinw::atpg::tpg::{AtpgConfig, AtpgEngine};
use sinw::server::registry::CircuitRegistry;
use sinw::switch::iscas::CSA16_BENCH;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let result = sinw::core::experiments::diagnosis(fast);
    print!("{result}");

    // A worked diagnosis on csa16: inject one fault, log what a tester
    // would see, and rank the candidates. The front half — parse, CP
    // mapping, fault enumeration, collapse, graph build — comes from the
    // compiled-circuit registry (the same single compile path the
    // experiment drivers and the service layer use), not a second
    // hand-rolled pipeline.
    let registry = CircuitRegistry::new();
    let compiled = registry
        .register_bench("csa16", CSA16_BENCH)
        .expect("embedded csa16 parses");
    let csa = compiled.circuit();
    let faults = compiled.faults();
    let report =
        AtpgEngine::new(csa, AtpgConfig::default()).run(&compiled.collapsed().representatives);
    let dict = FaultDictionary::build_threaded(csa, faults, &report.patterns, 0);
    let injected = faults.len() / 3;
    let obs = full_pass_observations(csa, faults[injected], &report.patterns);
    let diag = dict.diagnose(&obs);
    println!(
        "\ninjected {} into csa16: {} failing (pattern, output) probes observed",
        faults[injected].describe(csa),
        obs.len()
    );
    for cand in diag.candidates.iter().take(3) {
        let members: Vec<String> = dict
            .class_members(cand.class)
            .iter()
            .map(|fi| faults[*fi].describe(csa))
            .collect();
        println!(
            "  class {:>4}  distance {:>3}{}  {{{}}}",
            cand.class,
            cand.distance,
            if cand.exact { " (exact)" } else { "" },
            members.join(", ")
        );
    }
}
