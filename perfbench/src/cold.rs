//! `cold-bench`: new `.bench` text in, fault-simulation report out, with
//! nothing shared between operations.
//!
//! One operation registers freshly exported text in a fresh
//! `CircuitRegistry` (parse and mapping, enumerate, collapse, `SimGraph`)
//! and runs a 256-pattern, fault-dropping `FaultSim` job on a
//! `JobEngine` at two threads. Set-up exports the seeded circuits and
//! builds each one's reference report with the direct single-lane engine.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sinw_atpg::faultsim::good_sim;
use sinw_atpg::{
    collapse, enumerate_stuck_at, seeded_patterns, simulate_faults_lanes,
    simulate_faults_threaded_lanes, simulate_faults_with_graph_lanes, FaultSimReport, PatternBlock,
    SimGraph, StuckAtFault,
};
use sinw_server::{CircuitRegistry, JobEngine, JobOutcome, JobSpec};
use sinw_switch::generate::{array_multiplier, carry_select_adder};
use sinw_switch::{parse_bench, to_bench, Circuit};

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{Config, Run, SETUPS};

const PATTERNS: usize = 256;
const JOB_THREADS: usize = 2;

struct Item {
    name: String,
    text: String,
    patterns: Arc<Vec<Vec<bool>>>,
    reference: FaultSimReport,
}

/// The circuit menu: a fixed ladder of five sizes from about 50 to
/// 500 ms an operation, so that no seed changes what a run costs.
fn menu(tiny: bool) -> Vec<(String, Circuit)> {
    let mul = |w: usize| (format!("mul{w}"), array_multiplier(w));
    let csa = |w: usize| (format!("csa{w}"), carry_select_adder(w, 4));
    if tiny {
        return vec![mul(3), csa(8), mul(4)];
    }
    vec![mul(12), csa(96), mul(16), csa(192), mul(20)]
}

/// Export `circuit` as `.bench` text with every gate output renamed
/// under a seeded tag: a fresh text (and registry key) per seed for the
/// same structure.
pub fn seeded_text(mut circuit: Circuit, name: &str, rng: &mut Rng) -> String {
    let tag = rng.next_u64() & 0xFFFF_FFFF;
    let outputs: Vec<_> = circuit.gates().iter().map(|g| g.output).collect();
    for (i, sig) in outputs.into_iter().enumerate() {
        circuit.set_signal_name(sig, format!("n{tag:08x}_{i}"));
    }
    to_bench(&circuit, name)
}

/// The direct compile stages on `text`, each in its own span, returning
/// the circuit, its collapsed representatives, and its graph.
pub fn compile_stages(
    tr: &mut Tracer,
    op: u64,
    text: &str,
) -> Result<(Circuit, Vec<StuckAtFault>, SimGraph), String> {
    let circuit = tr
        .leaf("parse", op, || parse_bench(text))
        .map_err(|e| e.to_string())?;
    let faults = tr.leaf("enumerate", op, || enumerate_stuck_at(&circuit));
    let collapsed = tr.leaf("collapse", op, || collapse(&circuit, &faults));
    let graph = tr.leaf("simgraph", op, || SimGraph::build(&circuit));
    tr.count("circuit.cells", op, circuit.gates().len() as f64);
    tr.count(
        "faults.collapsed",
        op,
        collapsed.representatives.len() as f64,
    );
    Ok((circuit, collapsed.representatives, graph))
}

/// Pattern packing plus good-machine simulation over every 64-pattern
/// block, as the single-lane engine prepares them.
pub fn pack_good(circuit: &Circuit, patterns: &[Vec<bool>]) {
    for chunk in patterns.chunks(64) {
        let block = PatternBlock::<1>::pack(circuit, chunk);
        black_box(good_sim(circuit, &block));
    }
}

fn setup(cfg: &Config) -> Result<Vec<Item>, String> {
    let mut rng = Rng::new(cfg.seed);
    let mut items = Vec::new();
    for (name, circuit) in menu(cfg.tiny) {
        let text = seeded_text(circuit, &name, &mut rng);
        let parsed = parse_bench(&text).map_err(|e| e.to_string())?;
        let faults = collapse(&parsed, &enumerate_stuck_at(&parsed)).representatives;
        let patterns = seeded_patterns(parsed.primary_inputs().len(), PATTERNS, rng.next_u64());
        let reference = simulate_faults_lanes(&parsed, &faults, &patterns, true, 1);
        items.push(Item {
            name,
            text,
            patterns: Arc::new(patterns),
            reference,
        });
    }
    Ok(items)
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut items = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let fresh = setup(cfg)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        items = fresh;
    }
    let engine = JobEngine::new(1);
    run.notes.push(format!(
        "menu {:?}; {PATTERNS} patterns, drop on, job threads {JOB_THREADS}, engine workers 1",
        items.iter().map(|i| i.name.as_str()).collect::<Vec<_>>()
    ));

    crate::closed_loop(cfg, &mut run, items.len(), |run, op, i| {
        let item = &items[i];
        let registry = CircuitRegistry::new();
        let t0 = Instant::now();
        let span = tr.begin("op", op);
        let outcome = tr
            .leaf("registry.miss", op, || {
                registry.register_bench(&item.name, &item.text)
            })
            .map(|compiled| {
                let spec = JobSpec::FaultSim {
                    compiled,
                    patterns: Arc::clone(&item.patterns),
                    drop_detected: true,
                    threads: JOB_THREADS,
                };
                tr.leaf("job.faultsim", op, || engine.submit(spec).wait())
            });
        tr.end(span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut checked = match outcome {
            Ok(JobOutcome::FaultSim(report)) if report == item.reference => Ok(()),
            Ok(JobOutcome::FaultSim(_)) => Err(format!("{}: report differs", item.name)),
            Ok(other) => Err(format!("{}: job ended {other:?}", item.name)),
            Err(e) => Err(format!("{}: {e}", item.name)),
        };
        if tr.on() {
            checked = checked.and(layers(tr, op, item, &registry));
        }
        run.record(&item.name, ms, checked);
    });

    if tr.on() {
        let per_op_gap = {
            let ops = tr.per_op("op");
            let mut spent = tr.per_op("job.faultsim");
            for stage in ["parse", "enumerate", "collapse", "simgraph"] {
                for (op, ms) in tr.per_op(stage) {
                    *spent.entry(op).or_insert(0.0) += ms;
                }
            }
            ops.iter()
                .map(|(op, total)| total - spent.get(op).copied().unwrap_or(0.0))
                .collect::<Vec<_>>()
        };
        let event: Vec<f64> = {
            let pack = tr.per_op("pack_good");
            tr.per_op("faultsim.direct")
                .iter()
                .map(|(op, ms)| ms - pack.get(op).copied().unwrap_or(0.0))
                .collect()
        };
        let l = &mut run.layers;
        for (metric, span) in [
            ("parse.ms", "parse"),
            ("enumerate.ms", "enumerate"),
            ("collapse.ms", "collapse"),
            ("simgraph.ms", "simgraph"),
            ("registry.miss_ms", "registry.miss"),
            ("registry.hit_ms", "registry.hit"),
            ("pack_good.ms", "pack_good"),
            ("faultsim.direct_ms", "faultsim.direct"),
            ("job.faultsim_ms", "job.faultsim"),
            ("job.direct_base_ms", "job.direct_base"),
        ] {
            l.insert(metric, tr.median_ms(span));
        }
        for count in ["circuit.cells", "faults.collapsed", "faultsim.detected"] {
            l.insert(count, tr.mean_count(count));
        }
        l.insert("faultsim.event_ms", median(&event));
        l.insert(
            "job.vs_direct",
            l["job.faultsim_ms"] / l["job.direct_base_ms"],
        );
        l.insert("cold.unaccounted_ms", median(&per_op_gap));
    }
    Ok(run)
}

/// The traced run's per-layer calls on the operation's input, made after
/// its timed span: the compile stages, a registry hit, the direct engine
/// at one lane (with and without the job's thread count), and packing.
fn layers(tr: &mut Tracer, op: u64, item: &Item, registry: &CircuitRegistry) -> Result<(), String> {
    let (circuit, faults, graph) = compile_stages(tr, op, &item.text)?;
    tr.leaf("registry.hit", op, || {
        registry.register_bench(&item.name, &item.text)
    })
    .map_err(|e| e.to_string())?;
    tr.leaf("pack_good", op, || pack_good(&circuit, &item.patterns));
    let direct = tr.leaf("faultsim.direct", op, || {
        simulate_faults_with_graph_lanes(&circuit, &graph, &faults, &item.patterns, true, 1)
    });
    let base = tr.leaf("job.direct_base", op, || {
        simulate_faults_threaded_lanes(&circuit, &faults, &item.patterns, true, JOB_THREADS, 1)
    });
    tr.count("faultsim.detected", op, direct.detected.len() as f64);
    if direct != item.reference || base != item.reference {
        return Err(format!(
            "{}: direct engine differs from reference",
            item.name
        ));
    }
    Ok(())
}
