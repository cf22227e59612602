//! Full ATPG campaign over every benchmark: random-pattern phase with
//! fault dropping, deterministic PODEM phase with untestable/aborted
//! accounting, and don't-care-aware static + reverse-order compaction —
//! the pipeline that *produces* a compact, verified test set rather than
//! simulating one supplied from outside.
//!
//! ```text
//! cargo run --release --example atpg_campaign          # full widths
//! cargo run --release --example atpg_campaign -- --fast
//! ```

use sinw::atpg::tpg::{AtpgConfig, AtpgEngine};
use sinw::server::registry::CircuitRegistry;
use sinw::switch::iscas::CSA16_BENCH;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let result = sinw::core::experiments::atpg_campaign(fast);
    print!("{result}");

    // The same campaign as a service request: the registry supplies the
    // compiled front half (parse → CP map → collapse → SimGraph), and a
    // second registration of the identical source is a pure cache hit —
    // the counters prove no recompile happened.
    let registry = CircuitRegistry::new();
    let compiled = registry
        .register_bench("csa16", CSA16_BENCH)
        .expect("embedded csa16 parses");
    let again = registry
        .register_bench("csa16", CSA16_BENCH)
        .expect("already registered");
    assert!(std::sync::Arc::ptr_eq(&compiled, &again));
    let report = AtpgEngine::new(compiled.circuit(), AtpgConfig::default())
        .run(&compiled.collapsed().representatives);
    let stats = registry.stats();
    println!(
        "\nregistry-backed csa16 campaign: {} patterns for {} representatives \
         ({} compile, {} hit — the warm registration reused the artifact)",
        report.patterns.len(),
        compiled.collapsed().representatives.len(),
        stats.compiles,
        stats.hits,
    );
}
