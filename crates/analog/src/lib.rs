//! # sinw-analog — SPICE-like simulation of TIG-SiNWFET cells
//!
//! Analog substrate of the DATE'15 reproduction *"Fault Modeling in
//! Controllable Polarity Silicon Nanowire Circuits"*: the HSPICE stand-in
//! of the paper's two-step flow (Section III-D). Circuits are built from
//! resistors, capacitors, sources and four-terminal TIG-FET table models
//! (`sinw-device`), solved with Newton MNA for DC operating points and
//! Backward-Euler transient analysis.
//!
//! The [`cells`] module provides transistor-level builders for the Fig. 2
//! cells with FO4 loads and the defect-injection hooks (floating-gate
//! `Vcut` sources, bridges, channel breaks) used to regenerate Fig. 5 and
//! Table III.
//!
//! ## Quick tour
//!
//! ```
//! use sinw_analog::circuit::{AnalogCircuit, Waveform, GROUND};
//! use sinw_analog::solver::{dc, SolverOpts};
//! use sinw_device::model::TigFet;
//! use sinw_device::table::TigTable;
//! use std::sync::Arc;
//!
//! // A 2:1 resistive divider driven by a 1.2 V DC source.
//! let table = Arc::new(TigTable::build_coarse(&TigFet::ideal()));
//! let mut ckt = AnalogCircuit::new(table);
//! let vin = ckt.node("vin");
//! let mid = ckt.node("mid");
//! ckt.add_vsource(vin, GROUND, Waveform::Dc(1.2));
//! ckt.add_resistor(vin, mid, 10e3);
//! ckt.add_resistor(mid, GROUND, 10e3);
//!
//! let sol = dc(&ckt, &SolverOpts::default()).expect("linear network solves");
//! assert!((sol.voltage(mid) - 0.6).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cells;
pub mod circuit;
pub mod linalg;
pub mod measure;
pub mod solver;

pub use circuit::{AnalogCircuit, Element, FetId, NodeId, SourceId, Waveform, GROUND};
pub use solver::{
    dc, dc_at, dc_from, transient, transient_from, DcSolution, SolveError, SolverOpts, Transient,
};
