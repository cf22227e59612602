//! Sequential circuits end to end: scan insertion over the ISCAS-89
//! `s27` machine and the registered generator variants, stuck-at ATPG on
//! the per-frame scan view through the unchanged campaign engine, and
//! launch-on-capture transition-delay ATPG on the 2-frame time-frame
//! expansion.
//!
//! ```text
//! cargo run --release --example sequential            # full widths
//! cargo run --release --example sequential -- --fast
//! cargo run --release --example sequential -- --fast --frames 4 --partial-scan
//! ```
//!
//! `--frames N` sets the unroll depth of the size column (default 2);
//! `--partial-scan` scans every other flip-flop instead of all of them.

use sinw::atpg::transition::{enumerate_transition, TransitionAtpg, TransitionAtpgConfig};
use sinw::atpg::unroll::{unroll, UnrollConfig};
use sinw::switch::iscas::parse_bench_seq;
use sinw::switch::iscas::S27_BENCH;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let full_scan = !args.iter().any(|a| a == "--partial-scan");
    let frames = args.iter().position(|a| a == "--frames").map_or(2, |i| {
        args.get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|k| *k >= 1)
            .expect("--frames takes a positive integer")
    });
    let result = sinw::core::experiments::sequential(fast, frames, full_scan);
    print!("{result}");

    // A worked LOC pair on s27: unroll two frames, run the transition
    // campaign, and show one two-pattern test the way a tester would
    // apply it (scan-load the launch state, pulse, capture).
    let s27 = parse_bench_seq(S27_BENCH).expect("embedded s27 parses");
    let unrolled = unroll(&s27, &UnrollConfig::full_observability(2));
    println!(
        "\ns27: {} core cells -> {} cells across 2 frames, {} unrolled PIs",
        s27.core().gates().len(),
        unrolled.circuit().gates().len(),
        unrolled.circuit().primary_inputs().len()
    );
    let engine = TransitionAtpg::new(&s27, TransitionAtpgConfig::default());
    let faults = enumerate_transition(engine.circuit());
    let report = engine.run(&faults);
    println!(
        "s27 transition campaign: {}/{} detected ({} untestable, {} aborted), {} pairs",
        report.detected_random + report.detected_deterministic,
        report.total_faults,
        report.untestable,
        report.aborted,
        report.pairs.len()
    );
    if let Some(pair) = report.pairs.first() {
        let names: Vec<&str> = engine
            .circuit()
            .primary_inputs()
            .iter()
            .map(|pi| engine.circuit().signal_name(*pi))
            .collect();
        let fmt = |v: &[bool]| -> String { v.iter().map(|b| if *b { '1' } else { '0' }).collect() };
        println!("first pair over ({}):", names.join(", "));
        println!("  launch  {}", fmt(&pair.init));
        println!(
            "  capture {}  (state bits = machine's own next state)",
            fmt(&pair.eval)
        );
    }
}
