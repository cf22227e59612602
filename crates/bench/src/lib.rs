//! # sinw-bench — benchmark harness
//!
//! One bench target per paper artifact — `table1_ifa`,
//! `table3_xor_dictionary`, `fig3_iv_curves`, `fig4_density`,
//! `fig5_leakage_delay` and `sec5c_channel_break` — each printing its
//! table or figure before timing the hot path behind it, plus
//! `perf_gates`, which asserts the two timing gates of the engine's
//! design on `array_multiplier(32)`: the event-driven kernel ≥ 5× the
//! full-pass oracle, and a warm registry hit ≥ 10× a cold compile. The
//! experiment logic itself lives in [`sinw_core::experiments`] so that
//! tests and benches report identical numbers; per-layer timings are
//! `perfbench` rows.
//!
//! The library target only hosts this documentation; the runnable
//! artifacts are the bench targets:
//!
//! ```no_run
//! // What `cargo bench --bench perf_gates` measures, in miniature:
//! use sinw_atpg::fault_list::enumerate_stuck_at;
//! use sinw_atpg::faultsim::{simulate_faults_full_pass, simulate_faults_threaded_stats};
//! use sinw_switch::generate::array_multiplier;
//!
//! let circuit = array_multiplier(8);
//! let faults = enumerate_stuck_at(&circuit);
//! let patterns = vec![vec![true; circuit.primary_inputs().len()]; 16];
//! let full_pass = simulate_faults_full_pass(&circuit, &faults, &patterns, false);
//! let (event, _) = simulate_faults_threaded_stats(&circuit, &faults, &patterns, false, 1, 1);
//! assert_eq!(full_pass, event); // identical reports, different wall clock
//! ```
