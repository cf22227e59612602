//! `cell-library`: the paper's own experiment over the compact-model
//! table, the only workload that reaches `sinw-device` and `sinw-analog`.
//!
//! Set-up builds the standard `TigTable` and every cell's Table III
//! dictionary. One operation rebuilds all six dictionaries and runs one
//! open-gate sweep (`Experiments::fig5`) for a seeded (cell, transistor):
//! each deck sweeps every cell kind once, each kind walking a seeded
//! shuffle of its transistors. The dictionaries must equal the
//! set-up references bit for bit and the XOR2 dictionary must stay
//! complete and reproduce the Table III stuck-at-n vectors. A sweep must
//! solve every operating point (finite leakage) and equal, bit for bit,
//! the first sweep of the same pair in the run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sinw_analog::cells::{AnalogCell, VDD};
use sinw_analog::measure::cell_delay;
use sinw_analog::{dc, SolverOpts, Waveform};
use sinw_core::dictionary::{build_dictionary, inject_polarity_fault, CellDictionary};
use sinw_core::experiments::{Experiments, Fig5Result};
use sinw_device::{TigFet, TigTable};
use sinw_switch::{Cell, CellKind, TransistorFault};

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Config, Run};

/// Set-ups per run. Two, not the three of the other workloads: the
/// standard table build alone takes seconds, and a third build would
/// cost more run time than its median gains in steadiness.
const SETUPS: usize = 2;

/// Set-up spans carry operation ids from here up, apart from the timed
/// operations.
const SETUP_OP: u64 = 1 << 40;

struct Setup {
    table: Arc<TigTable>,
    dictionaries: Vec<CellDictionary>,
}

fn setup(cfg: &Config, tr: &mut Tracer, k: u64) -> Setup {
    let fet = TigFet::ideal();
    let table = Arc::new(tr.leaf("table.build", SETUP_OP + k, || {
        if cfg.tiny {
            TigTable::build_coarse(&fet)
        } else {
            TigTable::build_standard(&fet)
        }
    }));
    let dictionaries = CellKind::ALL
        .iter()
        .map(|&kind| build_dictionary(kind, &table))
        .collect();
    Setup {
        table,
        dictionaries,
    }
}

fn same_dictionary(a: &CellDictionary, b: &CellDictionary) -> bool {
    a.kind == b.kind
        && a.entries.len() == b.entries.len()
        && a.entries.iter().zip(&b.entries).all(|(x, y)| {
            x.transistor == y.transistor
                && x.fault == y.fault
                && x.vector == y.vector
                && [
                    x.v_out_healthy,
                    x.v_out_faulty,
                    x.iddq_healthy,
                    x.iddq_faulty,
                ]
                .map(f64::to_bits)
                    == [
                        y.v_out_healthy,
                        y.v_out_faulty,
                        y.iddq_healthy,
                        y.iddq_faulty,
                    ]
                    .map(f64::to_bits)
        })
}

fn sweep_bits(r: &Fig5Result) -> Vec<u64> {
    r.points
        .iter()
        .flat_map(|p| {
            [
                p.vcut,
                p.leak_pgs_open,
                p.leak_pgd_open,
                p.delay_pgs_open,
                p.delay_pgd_open,
            ]
        })
        .map(f64::to_bits)
        .collect()
}

/// Table III (stuck-at n-type): t1 <- 00, t2 <- 11, t3 <- 01, t4 <- 10,
/// vectors written as A B; and every polarity fault detectable.
fn table3_holds(xor2: &CellDictionary) -> bool {
    let expected = [[false, false], [true, true], [false, true], [true, false]];
    xor2.complete()
        && expected.iter().enumerate().all(|(t, want)| {
            xor2.detecting(t, TransistorFault::StuckAtNType)
                .iter()
                .any(|e| e.vector == want)
        })
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut s = None;
    for k in 0..SETUPS as u64 {
        let t = Instant::now();
        let fresh = setup(cfg, tr, k);
        run.setup_s.push(t.elapsed().as_secs_f64());
        s = Some(fresh);
    }
    let s = s.expect("at least one set-up");
    let xor2 = CellKind::ALL
        .iter()
        .position(|&k| k == CellKind::Xor2)
        .expect("XOR2 is a library cell");
    if !table3_holds(&s.dictionaries[xor2]) {
        return Err(String::from(
            "set-up XOR2 dictionary does not reproduce Table III",
        ));
    }
    let exp = Experiments {
        table: Arc::clone(&s.table),
        fast: cfg.tiny,
    };
    run.notes.push(format!(
        "table {}; one sweep per cell kind per deck",
        if cfg.tiny { "coarse" } else { "standard" }
    ));

    // A deck holds one sweep per cell kind, so every window costs about
    // the same; each kind walks its own seeded shuffle of transistors.
    let mut transistor_rng = Rng::new(cfg.seed ^ 0x7125);
    let mut transistor_decks: Vec<Vec<usize>> = vec![Vec::new(); CellKind::ALL.len()];
    let mut first: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut solver_rng = Rng::new(cfg.seed ^ 0x501);
    crate::closed_loop(cfg, &mut run, CellKind::ALL.len(), |run, op, k| {
        let kind = CellKind::ALL[k];
        if transistor_decks[k].is_empty() {
            transistor_decks[k] = transistor_rng.permutation(Cell::build(kind).transistors.len());
        }
        let t = transistor_decks[k].pop().expect("refilled above");
        let t0 = Instant::now();
        let span = tr.begin("op", op);
        let dictionaries: Vec<CellDictionary> = CellKind::ALL
            .iter()
            .map(|&k| tr.leaf("dictionary", op, || build_dictionary(k, &s.table)))
            .collect();
        let sweep = tr.leaf("fig5", op, || exp.fig5(kind, t));
        tr.end(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let bits = sweep_bits(&sweep);
        let checked = if !dictionaries
            .iter()
            .zip(&s.dictionaries)
            .all(|(a, b)| same_dictionary(a, b))
        {
            Err(String::from("a dictionary differs from set-up"))
        } else if !table3_holds(&dictionaries[xor2]) {
            Err(String::from("XOR2 dictionary does not reproduce Table III"))
        } else if !sweep
            .points
            .iter()
            .all(|p| p.leak_pgs_open.is_finite() && p.leak_pgd_open.is_finite())
        {
            Err(format!(
                "{kind:?}/t{}: an operating point did not solve",
                t + 1
            ))
        } else if *first.entry((k, t)).or_insert_with(|| bits.clone()) != bits {
            Err(format!(
                "{kind:?}/t{}: sweep differs from its first run",
                t + 1
            ))
        } else {
            Ok(())
        };
        run.record(&format!("{kind:?}/t{}", t + 1), ms, checked);
        if tr.on() {
            solver_calls(tr, op, &s.table, kind, t, &mut solver_rng);
        }
    });

    if tr.on() {
        let l = &mut run.layers;
        for (metric, span) in [
            ("table.build_ms", "table.build"),
            ("dictionary.ms", "dictionary"),
            ("fig5.ms", "fig5"),
            ("solver.dc_ms", "solver.dc"),
            ("solver.transient_ms", "solver.transient"),
        ] {
            l.insert(metric, tr.median_ms(span));
        }
        l.insert("solver.dc_calls", tr.total_count("solver.dc_calls"));
        l.insert("solver.errors", tr.total_count("solver.errors"));
    }
    Ok(run)
}

/// The traced run's direct solver calls: one DC solve of a seeded
/// polarity-faulted cell, and one transient delay measurement of the
/// operation's cell with a floated program gate.
fn solver_calls(
    tr: &mut Tracer,
    op: u64,
    table: &Arc<TigTable>,
    kind: CellKind,
    t: usize,
    rng: &mut Rng,
) {
    let opts = SolverOpts::default();
    let n = kind.input_count();
    let vector: Vec<Waveform> = (0..n)
        .map(|_| Waveform::Dc(if rng.range(0, 1) == 1 { VDD } else { 0.0 }))
        .collect();
    let fault = if rng.range(0, 1) == 1 {
        TransistorFault::StuckAtNType
    } else {
        TransistorFault::StuckAtPType
    };
    let mut cell = AnalogCell::build(kind, Arc::clone(table), &vector);
    inject_polarity_fault(&mut cell, t, fault);
    let dc_ok = tr
        .leaf("solver.dc", op, || dc(&cell.circuit, &opts))
        .is_ok();

    // Input a pulses; side inputs sensitise the cell as the Fig. 5 sweep does.
    let pulse = Waveform::Pulse {
        v0: 0.0,
        v1: VDD,
        delay: 0.5e-9,
        rise: 20e-12,
        width: 4e-9,
        fall: 20e-12,
    };
    let side = if kind == CellKind::Nand2 { VDD } else { 0.0 };
    let waves: Vec<Waveform> = (0..n)
        .map(|k| {
            if k == 0 {
                pulse.clone()
            } else {
                Waveform::Dc(side)
            }
        })
        .collect();
    let mut cell = AnalogCell::build(kind, Arc::clone(table), &waves);
    cell.float_gate(t, 1 + rng.range(0, 1), 0.6);
    let tr_ok = tr
        .leaf("solver.transient", op, || {
            cell_delay(&cell, 3.0e-9, 10e-12, &opts)
        })
        .is_ok();
    tr.count("solver.dc_calls", op, 1.0);
    tr.count(
        "solver.errors",
        op,
        f64::from(u8::from(!dc_ok) + u8::from(!tr_ok)),
    );
}
