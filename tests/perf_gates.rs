//! The three timing gates of the engine's design, each timed best-of-3
//! on one fixed fixture and asserted at its threshold:
//!
//! * the event-driven kernel (one worker, `L = 1`) is **≥ 5×** the
//!   `simulate_faults_full_pass` oracle on the collapsed
//!   `array_multiplier(32)` universe under 96 seeded patterns, and both
//!   report identically;
//! * a warm registry hit is **≥ 10×** a cold compile of
//!   `array_multiplier(32)`, shares the warm `Arc` and compiles nothing;
//! * a `JobEngine` `FaultSim` job at one thread costs **≤ 1.1×** the
//!   direct engine on the same compiled `array_multiplier(32)` and
//!   patterns (best of 3, the sides alternating), and both
//!   report identically — the job path's per-chunk admission, progress
//!   and merge stay in the noise.
//!
//! Wall-clock gates mean nothing in a debug build, so the tests are
//! ignored by default and refuse to run without optimisations:
//! `cargo test --release --test perf_gates -- --ignored` prints every
//! ratio and fails if any gate does. Per-layer timings are `perfbench`
//! rows.

use sinw_atpg::collapse::collapse;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::{
    seeded_patterns, simulate_faults_full_pass, simulate_faults_threaded_stats,
    simulate_faults_with_graph_lanes, FaultSimReport,
};
use sinw_server::registry::CircuitRegistry;
use sinw_server::{JobEngine, JobOutcome, JobSpec};
use sinw_switch::generate::array_multiplier;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Best-of-3 wall clock, so one descheduled run cannot fail a gate.
fn best_of_3<R>(f: impl Fn() -> R) -> (R, Duration) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed());
        result = Some(r);
    }
    (result.expect("three runs"), best)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(slow: Duration, fast: Duration) -> f64 {
    slow.as_secs_f64() / fast.as_secs_f64().max(1e-12)
}

/// Refuse debug builds, then hold the one gate lock, so concurrently
/// scheduled gates never time each other.
fn exclusive_release_timing() -> MutexGuard<'static, ()> {
    if cfg!(debug_assertions) {
        panic!("the timing gates measure release builds: run with `cargo test --release`");
    }
    static GATES: Mutex<()> = Mutex::new(());
    GATES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The gates' fixed pattern set over `n_pi` inputs.
fn gate_patterns(n_pi: usize) -> Vec<Vec<bool>> {
    seeded_patterns(n_pi, 96, 0x9E37_79B9_97F4_A7C1)
}

#[test]
#[ignore = "timing gates: run in release with --ignored"]
fn event_kernel_and_registry_hit_meet_their_timing_gates() {
    let _timing = exclusive_release_timing();
    let circuit = array_multiplier(32);

    let faults = enumerate_stuck_at(&circuit);
    let reps = collapse(&circuit, &faults).representatives;
    let patterns = gate_patterns(circuit.primary_inputs().len());
    let (full, t_full) = best_of_3(|| simulate_faults_full_pass(&circuit, &reps, &patterns, false));
    let ((event, _), t_event) =
        best_of_3(|| simulate_faults_threaded_stats(&circuit, &reps, &patterns, false, 1, 1));
    assert_eq!(
        full, event,
        "event kernel diverges from the full-pass oracle"
    );
    let event_speedup = ratio(t_full, t_event);
    println!(
        "mul32 fault sim ({} collapsed faults, {} patterns): full pass {:.1} ms, \
         event L=1 {:.1} ms ({event_speedup:.1}x, gate >= 5x)",
        reps.len(),
        patterns.len(),
        ms(t_full),
        ms(t_event)
    );
    assert!(
        event_speedup >= 5.0,
        "event-driven kernel must be >= 5x the full-pass baseline on mul32, \
         got {event_speedup:.2}x"
    );

    // A fresh registry per repetition, so every timed run compiles.
    let (_, t_cold) = best_of_3(|| {
        CircuitRegistry::new()
            .register_circuit("mul32", circuit.clone())
            .expect("unbounded registry admits the artifact")
    });
    let registry = CircuitRegistry::new();
    let warm = registry
        .register_circuit("mul32", circuit.clone())
        .expect("unbounded registry admits the artifact");
    let (hit, t_hit) = best_of_3(|| {
        registry
            .register_circuit("mul32", circuit.clone())
            .expect("warm hit")
    });
    assert!(Arc::ptr_eq(&warm, &hit), "hit must share the warm Arc");
    assert_eq!(registry.stats().compiles, 1, "warm hits must not recompile");
    let hit_speedup = ratio(t_cold, t_hit);
    println!(
        "mul32 registry: cold compile {:.3} ms, warm hit {:.4} ms \
         ({hit_speedup:.0}x, gate >= 10x)",
        ms(t_cold),
        ms(t_hit)
    );
    assert!(
        hit_speedup >= 10.0,
        "registry hit must be >= 10x faster than a cold compile on mul32, \
         got {hit_speedup:.1}x"
    );
}

#[test]
#[ignore = "timing gates: run in release with --ignored"]
fn a_fault_sim_job_costs_at_most_the_direct_engine_plus_ten_percent() {
    let _timing = exclusive_release_timing();
    let compiled = CircuitRegistry::new()
        .register_circuit("mul32", array_multiplier(32))
        .expect("unbounded registry admits the artifact");
    let (c, graph) = (compiled.circuit(), compiled.graph());
    let faults = &compiled.collapsed().representatives;
    let patterns = Arc::new(gate_patterns(c.primary_inputs().len()));
    let engine = JobEngine::new(1);
    // The direct engine runs on a fresh thread, as the job runs on the
    // pool's: the scheduler then places both sides alike, and the core
    // the calling thread holds cannot favour one side.
    let direct = || {
        std::thread::scope(|s| {
            let run =
                s.spawn(|| simulate_faults_with_graph_lanes(c, graph, faults, &patterns, true, 1));
            run.join().expect("the direct run completes")
        })
    };
    let job = || {
        let spec = JobSpec::FaultSim {
            compiled: Arc::clone(&compiled),
            patterns: Arc::clone(&patterns),
            drop_detected: true,
            threads: 1,
        };
        match engine.submit(spec).wait() {
            JobOutcome::FaultSim(report) => report,
            other => panic!("fault-sim job did not complete: {other:?}"),
        }
    };
    // The check doubles as both sides' warm-up (the pool thread's first
    // job grows its allocator arena).
    assert_eq!(job(), direct(), "job diverges from direct");
    // Best of 3, the two sides alternating run by run, so a slow phase
    // of the host costs both.
    let time = |run: &dyn Fn() -> FaultSimReport| {
        let t0 = Instant::now();
        std::hint::black_box(run());
        t0.elapsed()
    };
    let (mut t_direct, mut t_job) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        t_direct = t_direct.min(time(&direct));
        t_job = t_job.min(time(&job));
    }
    let overhead = ratio(t_job, t_direct);
    println!(
        "mul32 fault-sim job ({} collapsed faults, {} patterns, one thread): direct {:.2} ms, \
         job {:.2} ms ({overhead:.2}x, gate <= 1.1x)",
        faults.len(),
        patterns.len(),
        ms(t_direct),
        ms(t_job)
    );
    assert!(
        overhead <= 1.1,
        "a one-thread fault-sim job must cost <= 1.1x the direct engine on mul32, \
         got {overhead:.2}x"
    );
}
