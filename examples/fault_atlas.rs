//! The fault atlas: inductive fault analysis over the whole Fig. 2 cell
//! library — every physical defect, its switch-level abstraction and the
//! fault model that detects it (Table I + the Section V classification).
//!
//! Run with `cargo run --release --example fault_atlas`.

use sinw_core::experiments::Experiments;
use sinw_core::fault_model::CellClassification;
use sinw_core::process::{enumerate_defects, DefectSite};
use sinw_switch::cells::{Cell, CellKind};

fn main() {
    let ctx = Experiments::fast();
    println!("{}", ctx.table1());

    for kind in CellKind::ALL {
        let class = CellClassification::build(kind);
        println!(
            "\n== {kind} ({} transistors, {} defects, {} need new models) ==",
            Cell::build(kind).transistors.len(),
            enumerate_defects(&Cell::build(kind)).len(),
            class.needs_new_models()
        );
        for c in &class.classified {
            let site = match &c.defect.site {
                DefectSite::Channel(t) => format!("t{} channel", t + 1),
                DefectSite::Gate(t, r) => format!("t{} {r} dielectric", t + 1),
                DefectSite::AdjacentGates(t, a, b) => format!("t{} {a}-{b}", t + 1),
                DefectSite::PolarityToRail(t, v) => {
                    format!("t{} PG-{}", t + 1, if *v { "Vdd" } else { "GND" })
                }
                DefectSite::Net(n) => format!("net {n}"),
            };
            let models: Vec<String> = c.detected_by.iter().map(ToString::to_string).collect();
            println!(
                "  {:24} {:18} -> {}",
                site,
                c.defect.class,
                if models.is_empty() {
                    "benign (no behavioural change)".to_string()
                } else {
                    models.join(", ")
                }
            );
        }
    }
}
