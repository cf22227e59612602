//! # sinw-bench — benchmark harness
//!
//! Criterion benches regenerating every table and figure of the paper;
//! see `benches/` for one target per artifact plus the ablations
//! (`ablations` for design choices, `ppsfp_scaling` for the
//! full-pass / event-driven / lane-wide / thread-parallel fault-simulation
//! ladder on a generated array-multiplier fault universe). The experiment logic
//! itself lives in [`sinw_core::experiments`] so that tests and benches
//! report identical numbers.
//!
//! The library target hosts this crate-level documentation plus the
//! knob/artifact helpers shared by the scaling benches ([`env_usize`],
//! [`env_usize_list`], [`write_bench_json`]); the runnable artifacts are
//! the bench targets:
//!
//! ```no_run
//! // What `cargo bench --bench ppsfp_scaling` measures, in miniature:
//! use sinw_atpg::fault_list::enumerate_stuck_at;
//! use sinw_atpg::faultsim::{simulate_faults_full_pass, simulate_faults_threaded_stats};
//! use sinw_switch::generate::array_multiplier;
//!
//! let circuit = array_multiplier(8);
//! let faults = enumerate_stuck_at(&circuit);
//! let patterns = vec![vec![true; circuit.primary_inputs().len()]; 16];
//! let full_pass = simulate_faults_full_pass(&circuit, &faults, &patterns, false);
//! let (threaded, _) = simulate_faults_threaded_stats(&circuit, &faults, &patterns, false, 0, 4);
//! assert_eq!(full_pass, threaded); // identical reports, different wall clock
//! ```

/// Read a `usize` knob from the environment, falling back to `default`
/// when the variable is unset or unparsable — the shared convention of
/// every `SINW_*` bench knob.
#[must_use]
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a comma-separated `usize` list knob from the environment (e.g.
/// `SINW_PPSFP_WIDTHS=16,32,64`), falling back to `default` when the
/// variable is unset, empty, or any element fails to parse — the scaling
/// benches use this to sweep a curve instead of a point.
#[must_use]
pub fn env_usize_list(key: &str, default: &[usize]) -> Vec<usize> {
    let parsed = std::env::var(key).ok().and_then(|v| {
        v.split(',')
            .map(|s| s.trim().parse().ok())
            .collect::<Option<Vec<usize>>>()
            .filter(|list| !list.is_empty())
    });
    parsed.unwrap_or_else(|| default.to_vec())
}

/// Write a machine-readable bench artifact to the `SINW_BENCH_JSON`
/// override path or `default_path`, logging where it landed (or a
/// warning on failure) — the shared `BENCH_*.json` convention CI
/// archives.
pub fn write_bench_json(default_path: &str, json: &str) {
    let path = std::env::var("SINW_BENCH_JSON").unwrap_or_else(|_| default_path.to_string());
    match std::fs::write(&path, json) {
        Ok(()) => println!("  machine-readable trajectory written to {path}"),
        Err(e) => eprintln!("  WARNING: could not write {path}: {e}"),
    }
}
