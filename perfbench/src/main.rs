//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-bench|warm-service|test-generation|cell-library> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every workload derives its inputs from `--seed`, sets up several
//! times (reporting the median as `setup_s`), runs a closed loop for
//! `--seconds`, checks every output against a reference built in set-up,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics, taken from spans around the public calls of each
//! layer (see `README.md` for the layer-to-metric predictions).

mod cell;
mod cold;
mod stats;
mod testgen;
mod trace;
mod warm;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. `cell-library` uses its
/// own count.
pub const SETUPS: usize = 3;

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that never enters a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("parse.ms", "ms"),
    ("enumerate.ms", "ms"),
    ("collapse.ms", "ms"),
    ("simgraph.ms", "ms"),
    ("registry.miss_ms", "ms"),
    ("circuit.cells", "count"),
    ("faults.collapsed", "count"),
    ("faultsim.detected", "count"),
    ("pack_good.ms", "ms"),
    ("faultsim.direct_ms", "ms"),
    ("faultsim.event_ms", "ms"),
    ("signatures.direct_ms", "ms"),
    ("job.faultsim_ms", "ms"),
    ("job.signatures_ms", "ms"),
    ("job.direct_base_ms", "ms"),
    ("job.vs_direct", "ratio"),
    ("registry.hit_ms", "ms"),
    ("wire.request_encode_us", "us"),
    ("wire.request_decode_us", "us"),
    ("wire.response_encode_us", "us"),
    ("wire.response_decode_us", "us"),
    ("wire.frame_bytes", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("net.stats_rtt_ms", "ms"),
    ("net.overhead_ms", "ms"),
    ("scan.ms", "ms"),
    ("unroll.ms", "ms"),
    ("atpg.stuck_at_ms", "ms"),
    ("atpg.podem_calls", "count"),
    ("atpg.untestable", "count"),
    ("atpg.patterns", "count"),
    ("transition.build_ms", "ms"),
    ("transition.run_ms", "ms"),
    ("transition.podem_calls", "count"),
    ("transition.aborted", "count"),
    ("transition.pairs", "count"),
    ("transition.abort_frac", "ratio"),
    ("table.build_ms", "ms"),
    ("dictionary.ms", "ms"),
    ("solver.dc_ms", "ms"),
    ("solver.dc_calls", "count"),
    ("solver.transient_ms", "ms"),
    ("solver.errors", "count"),
    ("fig5.ms", "ms"),
    ("cold.unaccounted_ms", "ms"),
    ("service.unaccounted_ms", "ms"),
    ("op_p50_traced_ms", "ms"),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the smoke self-test.
    pub tiny: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every operation that completed and checked out, ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the timed phase, seconds.
    pub phase_s: f64,
    /// Throughput of each window of the timed phase (one deck of
    /// operations, or a run of completions), completed operations per
    /// second. `ops_per_s` is their median.
    pub windows: Vec<f64>,
    /// Start time and completed count of the open window.
    window_open: Option<(Instant, usize)>,
    /// Per-layer metrics (traced run only), keyed as in `PER_LAYER`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// Successful latencies per input kind, for the standard-error report.
    pub by_item: BTreeMap<String, Vec<f64>>,
}

impl Run {
    /// Record one attempted operation on input `item`: its latency on
    /// success, its reason on failure.
    pub fn record(&mut self, item: &str, ms: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.latencies_ms.push(ms);
                self.by_item.entry(item.to_string()).or_default().push(ms);
            }
            Err(reason) => {
                self.failed += 1;
                if self.failed <= 5 {
                    self.notes.push(format!("failed op: {reason}"));
                }
            }
        }
    }

    /// Start the timed phase: the first throughput window opens now.
    pub fn start_phase(&mut self) -> Instant {
        let now = Instant::now();
        self.window_open = Some((now, 0));
        now
    }

    /// Call after each operation: every `every` attempted operations
    /// (one deck) close a throughput window.
    pub fn tick(&mut self, every: usize) {
        if self.attempted.is_multiple_of(every as u64) {
            let now = Instant::now();
            let (start, before) = self.window_open.expect("the phase has started");
            let done = self.latencies_ms.len();
            self.windows
                .push((done - before) as f64 / (now - start).as_secs_f64());
            self.window_open = Some((now, done));
        }
    }
}

/// The single-caller closed loop: seeded shuffled decks of the `n`
/// inputs, one operation at a time, until `cfg.seconds` have passed. Each
/// deck is one throughput window. `op(run, id, input)` performs and
/// records one operation.
pub fn closed_loop(
    cfg: &Config,
    run: &mut Run,
    n: usize,
    mut op: impl FnMut(&mut Run, u64, usize),
) {
    let mut deck = stats::Rng::new(cfg.seed ^ 0xDEC4);
    let phase = run.start_phase();
    let mut id = 0;
    'run: loop {
        for input in deck.permutation(n) {
            if phase.elapsed().as_secs_f64() >= cfg.seconds {
                break 'run;
            }
            id += 1;
            op(run, id, input);
            run.tick(n);
        }
    }
    run.phase_s = phase.elapsed().as_secs_f64();
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            cfg.tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.seconds <= 0.0 {
        return Err(String::from("--seconds must be positive"));
    }
    Ok(cfg)
}

/// The checkout's revision, read from `.git` without running git.
fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return String::from("unknown (not a git checkout)"),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("{r} (packed)"), |s| s.trim().to_string()),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Pin what the library reads from the environment: the lane width of
    // every engine and the fail-point harness. Threads are not started yet.
    std::env::remove_var("SINW_LANES");
    std::env::remove_var("SINW_FAILPOINTS");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} tiny={} nproc={nproc} lanes={} revision={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.tiny,
        sinw_atpg::configured_lanes(),
        revision()
    );

    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.trace, origin);
    let result = match cfg.workload.as_str() {
        "cold-bench" => cold::run(&cfg, &mut tracer),
        "warm-service" => warm::run(&cfg, &mut tracer),
        "test-generation" => testgen::run(&cfg, &mut tracer),
        "cell-library" => cell::run(&cfg, &mut tracer),
        other => Err(format!("unknown workload '{other}'")),
    };
    let mut run = match result {
        Ok(r) if r.attempted > 0 => r,
        Ok(_) => {
            eprintln!("perfbench: no operation completed within the run");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &run.notes {
        eprintln!("perfbench: {note}");
    }
    let windows: Vec<String> = run.windows.iter().map(|w| format!("{w:.2}")).collect();
    eprintln!("perfbench: window throughputs (1/s): {}", windows.join(" "));
    for (item, ms) in &run.by_item {
        eprintln!(
            "perfbench:   {item:<20} n={:<5} p50 {:.3} ms",
            ms.len(),
            stats::median(ms)
        );
    }

    let n = run.latencies_ms.len();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if cfg.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join(format!("{}-seed{}.spans", cfg.workload, cfg.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        eprintln!("perfbench: self time by span (spans, total ms, self ms):");
        for (name, (count, total, own)) in tracer.summary() {
            eprintln!("perfbench:   {name:<24} {count:>6} {total:>12.3} {own:>12.3}");
        }
        run.layers
            .insert("op_p50_traced_ms", tracer.median_ms("op"));
        for (name, unit) in PER_LAYER {
            metrics.push((name, run.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        metrics.push(("setup_s", stats::median(&run.setup_s), "s"));
        let ops_per_s = if run.windows.is_empty() {
            n as f64 / run.phase_s
        } else {
            stats::median(&run.windows)
        };
        metrics.push(("ops_per_s", ops_per_s, "1/s"));
        metrics.push(("op_p50_ms", stats::median(&run.latencies_ms), "ms"));
        metrics.push(("peak_rss_mib", stats::peak_rss_mib(), "MiB"));
        if n >= 100 {
            eprintln!(
                "perfbench: op_p90_ms = {} ms over {n} operations",
                stats::percentile(&run.latencies_ms, 0.9)
            );
        } else {
            eprintln!("perfbench: op_p90_ms not reported: {n} operations (< 100)");
        }
    }
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name} = {value} {unit}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed, {n} latency samples, phase {:.3} s \
         ({:.3} completed/s overall, {} windows)",
        run.attempted,
        run.failed,
        run.phase_s,
        n as f64 / run.phase_s,
        run.windows.len()
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}
