//! Dictionary-build scaling: the single-worker **64-way bit-parallel**
//! signature capture against the **thread-parallel** build, on the
//! embedded `c17`/`csa16` fixtures plus
//! generated array multipliers at every curve width, each keyed by its
//! own ATPG campaign's compacted test set.
//!
//! Alongside the build-time ladder it prints the diagnostic-resolution
//! table (classes, all-pass/singleton counts, class-size spread,
//! class-merged vs per-fault bytes).
//!
//! Knobs (environment variables):
//!
//! * `SINW_DIAG_WIDTHS` — comma-separated multiplier widths (default
//!   `8,12,16` measuring, `4` on smoke runs), one capture-ladder run
//!   per width so `BENCH_diag.json` records a scaling curve;
//! * `SINW_DIAG_THREADS` — worker count for the threaded build
//!   (default 0 = auto);
//! * `SINW_BENCH_JSON` — where to write the machine-readable artifact
//!   (default `BENCH_diag.json`, same convention as `BENCH_ppsfp.json`
//!   and `BENCH_atpg.json`).
//!
//! In-bench assertions (the acceptance criteria of the diagnosis work):
//!
//! * 64-way and threaded builds produce identical dictionaries;
//! * the class-merged dictionary is **strictly smaller** than the
//!   uncompressed per-fault signature matrix on every circuit (structural
//!   fault equivalences guarantee mergeable rows);
//! * a sampled injected-fault → observe → diagnose round trip ranks the
//!   true indistinguishability class first on every probe.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::{full_pass_observations, FaultDictionary};
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::tpg::{AtpgConfig, AtpgEngine};
use sinw_bench::{env_usize, env_usize_list, write_bench_json};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::array_multiplier;
use sinw_switch::iscas::{parse_bench, C17_BENCH, CSA16_BENCH};
use std::time::Instant;

struct CircuitRun {
    name: String,
    patterns: usize,
    parallel_ms: f64,
    threaded_ms: f64,
    stats: sinw_atpg::diagnose::DictionaryStats,
}

/// Best-of-3 wall time of one build closure.
fn timed<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::MAX;
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = build();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (result.expect("three runs"), best)
}

/// Time and check one circuit, returning the summary row plus the fault
/// universe and campaign pattern set (reused by the criterion loops so
/// the expensive campaign is not re-run).
fn run_circuit(
    name: &str,
    circuit: &Circuit,
    threads: usize,
) -> (CircuitRun, Vec<sinw_atpg::StuckAtFault>, Vec<Vec<bool>>) {
    let faults = enumerate_stuck_at(circuit);
    let collapsed = collapse(circuit, &faults);
    let engine = AtpgEngine::new(circuit, AtpgConfig::default());
    let patterns = engine.run(&collapsed.representatives).patterns;

    let (parallel, parallel_ms) = timed(|| FaultDictionary::build(circuit, &faults, &patterns));
    let (threaded, threaded_ms) =
        timed(|| FaultDictionary::build_threaded(circuit, &faults, &patterns, threads));

    assert_eq!(
        parallel.class_of(),
        threaded.class_of(),
        "{name}: 64-way and threaded builds must produce identical dictionaries"
    );
    let stats = threaded.stats();
    assert!(
        stats.compressed_bytes < stats.uncompressed_bytes,
        "{name}: class merging must beat the per-fault matrix \
         ({} vs {} bytes)",
        stats.compressed_bytes,
        stats.uncompressed_bytes
    );

    // Round trip: inject → observe (independent full-pass oracle) →
    // diagnose; the true class must rank first on every sampled probe.
    let stride = (faults.len() / 12).max(1);
    for fi in (0..faults.len()).step_by(stride) {
        let obs = full_pass_observations(circuit, faults[fi], &patterns);
        let report = threaded.diagnose(&obs);
        let best = report.best().expect("non-empty dictionary");
        assert!(
            best.exact && best.class == threaded.class_of()[fi],
            "{name}: diagnosis missed the injected fault {}",
            faults[fi].describe(circuit)
        );
    }

    let run = CircuitRun {
        name: name.to_string(),
        patterns: patterns.len(),
        parallel_ms,
        threaded_ms,
        stats,
    };
    (run, faults, patterns)
}

fn run_json(r: &CircuitRun) -> String {
    let s = &r.stats;
    format!(
        "    {{\"circuit\": \"{}\", \"faults\": {}, \"patterns\": {}, \"outputs\": {}, \
         \"classes\": {}, \"empty_classes\": {}, \"singleton_classes\": {}, \
         \"max_class_size\": {}, \"avg_class_size\": {:.3}, \
         \"bytes\": {{\"compressed\": {}, \"uncompressed\": {}}}, \
         \"build_ms\": {{\"parallel64\": {:.3}, \"threaded\": {:.3}}}}}",
        r.name,
        s.faults,
        r.patterns,
        s.outputs,
        s.classes,
        s.empty_classes,
        s.singleton_classes,
        s.max_class_size,
        s.avg_class_size,
        s.compressed_bytes,
        s.uncompressed_bytes,
        r.parallel_ms,
        r.threaded_ms
    )
}

fn bench(c: &mut Criterion) {
    let measuring = std::env::args().any(|a| a == "--bench");
    let widths = env_usize_list(
        "SINW_DIAG_WIDTHS",
        if measuring { &[8, 12, 16] } else { &[4] },
    );
    let threads = env_usize("SINW_DIAG_THREADS", 0);
    let width = widths.iter().copied().max().unwrap_or(4);

    let c17 = parse_bench(C17_BENCH).expect("embedded c17 parses");
    let csa16 = parse_bench(CSA16_BENCH).expect("embedded csa16 parses");
    let mul_name = format!("mul{width}");
    let mut circuits: Vec<(String, Circuit)> = vec![("c17".into(), c17), ("csa16".into(), csa16)];
    for &w in &widths {
        circuits.push((format!("mul{w}"), array_multiplier(w)));
    }

    println!("\nDictionary-build scaling: 64-way vs threaded signature capture");
    println!(
        "  circuit  faults  pats  classes  empty  single  max   avg  dict(B)  raw(B)  64-way(ms)  thr(ms)"
    );
    let mut runs = Vec::new();
    let mut mul_inputs = None;
    for (name, circuit) in &circuits {
        let (r, faults, patterns) = run_circuit(name, circuit, threads);
        if *name == mul_name {
            mul_inputs = Some((faults, patterns));
        }
        let s = &r.stats;
        println!(
            "  {:7}  {:>6}  {:>4}  {:>7}  {:>5}  {:>6}  {:>3}  {:>4.1}  {:>7}  {:>6}  {:>10.2}  {:>7.2}",
            r.name,
            s.faults,
            r.patterns,
            s.classes,
            s.empty_classes,
            s.singleton_classes,
            s.max_class_size,
            s.avg_class_size,
            s.compressed_bytes,
            s.uncompressed_bytes,
            r.parallel_ms,
            r.threaded_ms
        );
        runs.push(r);
    }

    // csa16 resolution golden, pinned loosely here, exactly in
    // tests/diagnosis.rs: its three proven-redundant mux faults share the
    // single all-pass class.
    let csa_run = &runs[1];
    assert_eq!(
        csa_run.stats.empty_classes, 1,
        "csa16 must have exactly one all-pass class (the redundant faults)"
    );

    let json = format!(
        "{{\n  \"bench\": \"diag_scaling\",\n  \"mul_widths\": {widths:?},\n  \"circuits\": [\n{}\n  ]\n}}\n",
        runs.iter().map(run_json).collect::<Vec<_>>().join(",\n")
    );
    write_bench_json("BENCH_diag.json", &json);

    let mul = array_multiplier(width);
    let (faults, patterns) = mul_inputs.expect("multiplier run recorded");
    c.bench_function("diag/build", |b| {
        b.iter(|| black_box(FaultDictionary::build(&mul, &faults, &patterns)));
    });
    c.bench_function("diag/build_threaded", |b| {
        b.iter(|| {
            black_box(FaultDictionary::build_threaded(
                &mul, &faults, &patterns, threads,
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
