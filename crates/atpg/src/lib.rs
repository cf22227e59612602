//! # sinw-atpg — gate-level test generation for CP-SiNW circuits
//!
//! ATPG substrate of the DATE'15 reproduction *"Fault Modeling in
//! Controllable Polarity Silicon Nanowire Circuits"*: the classical
//! baseline algorithms the paper measures its new fault models against.
//!
//! * [`podem`] — PODEM stuck-at test generation, with the constrained
//!   justification mode the cell-aware flow of `sinw-core` builds on;
//! * [`faultsim`] — wide-word bit-parallel (64·L patterns per pass at
//!   lane widths `L ∈ {1,2,4,8}`, see [`lanes`]) and work-stealing
//!   thread-parallel (PPSFP) stuck-at fault simulation with fault
//!   dropping and reverse-order compaction, on a fanout-free-region
//!   kernel (one event-driven pass per fanout stem) over the [`graph`]
//!   precompute layer.
//!   Each mode has one default entry point (the [`configured_lanes`]
//!   width, one worker) and one explicit `(threads, lanes)` form; a
//!   whole-circuit reference pass is retained as the property-test
//!   oracle;
//! * [`lanes`] — the [`lanes::PatternWords`] `[u64; L]` lane block the
//!   kernel is generic over, with plain-loop bitwise ops the compiler
//!   autovectorises;
//! * [`graph`] — the levelized [`SimGraph`] precompute (topological
//!   levels, CSR fanout, PO-reachability masks) shared read-only by
//!   every fault, block and worker;
//! * [`diagnose`] — the circuit-level fault dictionary + diagnosis
//!   engine, built on the **signature-capture** mode of [`faultsim`]
//!   (the full per-fault × per-pattern × per-PO response, no dropping):
//!   indistinguishability-class compression and ranked candidate lookup
//!   from observed failing responses;
//! * [`collapse`](mod@collapse) — structural fault-equivalence collapsing;
//! * [`redundancy`] — static untestability proofs (mandatory
//!   assignments + implication closure + small-support exhaustive
//!   checks) for the faults branch-and-bound cannot refute in bounded
//!   backtracks;
//! * [`tpg`] — the full ATPG **campaign loop** ([`tpg::AtpgEngine`]):
//!   a random-pattern phase with fault dropping, a deterministic PODEM
//!   phase with collateral dropping and untestable/aborted accounting,
//!   and don't-care-aware static + reverse-order compaction, producing
//!   a verified, compact test set;
//! * [`sof`] — classical two-pattern stuck-open generation, which covers
//!   every break in the SP cells and *none* in the DP cells (the coverage
//!   gap that motivates the paper's new test algorithm).
//!
//! ```
//! use sinw_atpg::fault_list::enumerate_stuck_at;
//! use sinw_atpg::podem::{generate_test, PodemConfig, PodemResult};
//! use sinw_switch::gate::Circuit;
//!
//! let c17 = Circuit::c17();
//! let fault = enumerate_stuck_at(&c17)[0];
//! match generate_test(&c17, fault, &PodemConfig::default()) {
//!     PodemResult::Test(pattern) => assert_eq!(pattern.len(), 5),
//!     other => panic!("c17 is fully testable, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collapse;
pub mod diagnose;
pub mod fault_list;
pub mod faultsim;
pub mod graph;
pub mod lanes;
pub mod podem;
pub mod redundancy;
pub mod sof;
pub mod steal;
pub mod tpg;
pub mod transition;
pub mod twin;
pub mod unroll;

pub use collapse::{collapse, CollapsedFaults};
pub use diagnose::{
    full_pass_observations, DiagnosisCandidate, DiagnosisReport, DictionaryStats, FaultDictionary,
};
pub use fault_list::{enumerate_stuck_at, FaultSite, StuckAtFault};
pub use faultsim::{
    capture_signatures, capture_signatures_checked, capture_signatures_lanes,
    capture_signatures_threaded_lanes, capture_signatures_with_graph_lanes, configured_lanes,
    seeded_patterns, simulate_faults, simulate_faults_checked, simulate_faults_full_pass,
    simulate_faults_lanes, simulate_faults_threaded_lanes, simulate_faults_threaded_stats,
    simulate_faults_with_graph_lanes, FaultSimReport, FaultSimScratch, PackError, PatternBlock,
    SignatureMatrix, StealStats, SUPPORTED_LANES,
};
pub use graph::SimGraph;
pub use lanes::PatternWords;
pub use podem::{
    fill_cube, generate_test, generate_test_constrained, justify, PodemConfig, PodemResult,
};
pub use redundancy::RedundancyProver;
pub use sof::{cell_sof_tests, generate_sof_test, CircuitTwoPattern, SofResult, TwoPattern};
pub use tpg::{merge_cubes, AtpgConfig, AtpgEngine, AtpgReport, FaultStatus};
pub use transition::{
    enumerate_transition, simulate_transition, simulate_transition_threaded_lanes,
    transition_oracle, TransitionAtpg, TransitionAtpgConfig, TransitionAtpgReport, TransitionFault,
    TransitionKind,
};
pub use unroll::{unroll, UnrollConfig, UnrolledCircuit};
