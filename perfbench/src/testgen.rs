//! `test-generation`: the campaign layers on small pipelined designs.
//!
//! One operation takes one seeded registered design through a full-scan
//! stuck-at campaign (`insert_scan`, enumerate, collapse,
//! `AtpgEngine::run`) and a launch-on-capture transition campaign
//! (`TransitionAtpg::new`, then `run`). Set-up runs every design once
//! and keeps a digest of statuses and pattern sets; each operation must
//! reproduce it exactly.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use sinw_atpg::{
    collapse, enumerate_stuck_at, enumerate_transition, unroll, AtpgConfig, AtpgEngine,
    FaultStatus, TransitionAtpg, TransitionAtpgConfig, UnrollConfig,
};
use sinw_switch::generate::{pipelined_array_multiplier, pipelined_carry_select_adder};
use sinw_switch::{insert_scan, ScanPlan, SeqCircuit};

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Config, Run, SETUPS};

struct Item {
    name: String,
    seq: SeqCircuit,
    seed: u64,
    digest: u64,
}

/// The design menu: registered carry-select adders and array
/// multipliers at fixed small widths; the seed drives the campaigns.
fn menu(tiny: bool) -> Vec<(String, SeqCircuit)> {
    let csa = |w: usize, b: usize| {
        (
            format!("csa{w}_{b}_reg"),
            pipelined_carry_select_adder(w, b),
        )
    };
    let mul = |w: usize| (format!("mul{w}_reg"), pipelined_array_multiplier(w));
    if tiny {
        return vec![csa(4, 2), mul(3)];
    }
    vec![csa(5, 2), mul(6), csa(6, 3), mul(8), csa(8, 4)]
}

/// One operation: both campaigns on `seq`, returning the digest of
/// their statuses, counts, and pattern sets.
fn campaigns(tr: &mut Tracer, op: u64, seq: &SeqCircuit, seed: u64) -> u64 {
    let mut h = DefaultHasher::new();
    let scan = tr.leaf("scan", op, || insert_scan(seq, &ScanPlan::Full));
    let circuit = scan.circuit();
    let faults = tr.leaf("enumerate", op, || enumerate_stuck_at(circuit));
    let collapsed = tr.leaf("collapse", op, || collapse(circuit, &faults));
    let config = AtpgConfig {
        seed,
        ..AtpgConfig::default()
    };
    let engine = tr.leaf("simgraph", op, || AtpgEngine::new(circuit, config));
    let report = tr.leaf("atpg.stuck_at", op, || {
        engine.run(&collapsed.representatives)
    });
    tr.count("circuit.cells", op, circuit.gates().len() as f64);
    tr.count(
        "faults.collapsed",
        op,
        collapsed.representatives.len() as f64,
    );
    tr.count("atpg.podem_calls", op, report.podem_calls as f64);
    tr.count("atpg.untestable", op, report.untestable as f64);
    tr.count("atpg.patterns", op, report.patterns.len() as f64);
    status_codes(&report.statuses).hash(&mut h);
    report.patterns.hash(&mut h);

    let config = TransitionAtpgConfig {
        seed: seed ^ 0x7A,
        ..TransitionAtpgConfig::default()
    };
    let atpg = tr.leaf("transition.build", op, || TransitionAtpg::new(seq, config));
    let faults = enumerate_transition(atpg.circuit());
    let report = tr.leaf("transition.run", op, || atpg.run(&faults));
    tr.count("transition.podem_calls", op, report.podem_calls as f64);
    tr.count("transition.aborted", op, report.aborted as f64);
    tr.count("transition.pairs", op, report.pairs.len() as f64);
    status_codes(&report.statuses).hash(&mut h);
    for pair in &report.pairs {
        pair.init.hash(&mut h);
        pair.eval.hash(&mut h);
    }
    h.finish()
}

/// Statuses as small integers, for hashing.
fn status_codes(statuses: &[FaultStatus]) -> Vec<u8> {
    statuses.iter().map(|s| *s as u8).collect()
}

fn setup(cfg: &Config) -> Vec<Item> {
    let mut rng = Rng::new(cfg.seed);
    let mut off = Tracer::new(false, Instant::now());
    menu(cfg.tiny)
        .into_iter()
        .map(|(name, seq)| {
            let seed = rng.next_u64();
            let digest = campaigns(&mut off, 0, &seq, seed);
            Item {
                name,
                seq,
                seed,
                digest,
            }
        })
        .collect()
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut items = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fresh = setup(cfg);
        run.setup_s.push(t.elapsed().as_secs_f64());
        items = fresh;
    }
    run.notes.push(format!(
        "menu {:?}; campaigns single-threaded, default configs",
        items.iter().map(|i| i.name.as_str()).collect::<Vec<_>>()
    ));

    crate::closed_loop(cfg, &mut run, items.len(), |run, op, i| {
        let item = &items[i];
        let t0 = Instant::now();
        let span = tr.begin("op", op);
        let digest = campaigns(tr, op, &item.seq, item.seed);
        tr.end(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let checked = if digest == item.digest {
            Ok(())
        } else {
            Err(format!(
                "{}: campaign digest differs from set-up",
                item.name
            ))
        };
        run.record(&item.name, ms, checked);
        if tr.on() {
            tr.leaf("unroll", op, || {
                unroll(&item.seq, &UnrollConfig::full_observability(2))
            });
        }
    });

    if tr.on() {
        let l = &mut run.layers;
        for (metric, span) in [
            ("scan.ms", "scan"),
            ("unroll.ms", "unroll"),
            ("enumerate.ms", "enumerate"),
            ("collapse.ms", "collapse"),
            ("simgraph.ms", "simgraph"),
            ("atpg.stuck_at_ms", "atpg.stuck_at"),
            ("transition.build_ms", "transition.build"),
            ("transition.run_ms", "transition.run"),
        ] {
            l.insert(metric, tr.median_ms(span));
        }
        for count in [
            "circuit.cells",
            "faults.collapsed",
            "atpg.podem_calls",
            "atpg.untestable",
            "atpg.patterns",
            "transition.podem_calls",
            "transition.aborted",
            "transition.pairs",
        ] {
            l.insert(count, tr.mean_count(count));
        }
        let calls = tr.total_count("transition.podem_calls");
        let aborted = tr.total_count("transition.aborted");
        l.insert(
            "transition.abort_frac",
            if calls > 0.0 { aborted / calls } else { 0.0 },
        );
    }
    Ok(run)
}
