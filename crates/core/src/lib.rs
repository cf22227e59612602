//! # sinw-core — fault modeling for controllable-polarity SiNW circuits
//!
//! Reproduction of H. Ghasemzadeh Mohammadi, P.-E. Gaillardon and
//! G. De Micheli, *"Fault Modeling in Controllable Polarity Silicon
//! Nanowire Circuits"*, DATE 2015.
//!
//! This crate holds the paper's contributions; the substrates live in
//! their own crates (`sinw-device` = synthetic TCAD, `sinw-analog` =
//! SPICE-like simulator, `sinw-switch` = switch-level logic,
//! `sinw-atpg` = classical ATPG baselines):
//!
//! * [`process`] — the fabrication-step → defect mapping of Table I and
//!   the inductive-fault-analysis defect enumerator;
//! * [`fault_model`] — the classification showing classical fault models
//!   cover every SP-cell defect but *not* the DP cells (the paper's
//!   motivating observation);
//! * [`dictionary`] — the per-cell stuck-at n/p-type dictionaries of
//!   Table III, resolved with the analog simulator;
//! * [`cbreak`] — the paper's new channel-break test algorithm for
//!   dynamic-polarity cells, in both its bridge-injection and dual-rail
//!   pattern forms, plus the masking measurements of Section V-C;
//! * [`cell_aware`] — lifting cell-level tests to circuit level with the
//!   constrained-PODEM engine of `sinw-atpg`;
//! * [`experiments`] — one driver per table/figure of the paper,
//!   consumed by the examples, the tests and EXPERIMENTS.md, plus the
//!   [`experiments::fault_coverage`] end-to-end run over the benchmark
//!   suite (embedded `.bench` fixtures and parametric generators).
//!
//! ```
//! use sinw_core::cbreak::{dual_rail_test, run_dual_rail_test, Verdict};
//! use sinw_switch::cells::CellKind;
//!
//! // No classical two-pattern test exists for XOR2 channel breaks…
//! assert!(sinw_atpg::sof::cell_sof_tests(CellKind::Xor2, 0).is_empty());
//! // …but the paper's polarity-injection algorithm finds them.
//! let test = dual_rail_test(CellKind::Xor2, 0).expect("test exists");
//! assert_eq!(run_dual_rail_test(CellKind::Xor2, &test, true), Verdict::ChannelBroken);
//! assert_eq!(run_dual_rail_test(CellKind::Xor2, &test, false), Verdict::ChannelIntact);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cbreak;
pub mod cell_aware;
pub mod dictionary;
pub mod experiments;
pub mod fault_model;
pub mod process;

pub use cbreak::{dual_rail_test, run_dual_rail_test, DualRailTest, Verdict};
pub use dictionary::{build_dictionary, CellDictionary, DictionaryEntry};
pub use experiments::{fault_coverage, FaultCoverageResult, FaultCoverageRow};
pub use fault_model::{classify, CellClassification, DefectClassification, FaultModel};
pub use process::{census, enumerate_defects, DefectClass, PhysicalDefect, ProcessStep};
