//! Regenerate every artifact of the paper: Fig. 2–5, Table I, Table III,
//! Section V-B and Section V-C, each through its
//! [`Experiments`](sinw::core::experiments::Experiments) driver.
//!
//! ```text
//! cargo run --release --example reproduce            # standard fidelity
//! cargo run --release --example reproduce -- --fast  # coarse table, short sweeps
//! ```

use sinw::core::experiments::{render_table3, Experiments};
use sinw::switch::cells::CellKind;

fn main() {
    let ctx = if std::env::args().any(|a| a == "--fast") {
        Experiments::fast()
    } else {
        Experiments::standard()
    };
    println!("\n{}", ctx.fig2());
    println!("\n{}", ctx.fig3());
    println!("\n{}", ctx.fig4());
    // Fig. 5's six sweeps: INV t1/t2, NAND2 t1/t3, XOR2 t1/t3.
    for (kind, t_index) in [
        (CellKind::Inv, 0),
        (CellKind::Inv, 1),
        (CellKind::Nand2, 0),
        (CellKind::Nand2, 2),
        (CellKind::Xor2, 0),
        (CellKind::Xor2, 2),
    ] {
        println!("\n{}", ctx.fig5(kind, t_index));
    }
    println!("\n{}", ctx.table1());
    println!("\n{}", render_table3(&ctx.table3()));
    println!("\n{}", ctx.sec5b());
    println!("\n{}", ctx.sec5c());
}
