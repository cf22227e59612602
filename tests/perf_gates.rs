//! The two timing gates of the engine's design, each timed best-of-3 on
//! one fixed fixture and asserted at its threshold:
//!
//! * the event-driven kernel (one worker, `L = 1`) is **≥ 5×** the
//!   `simulate_faults_full_pass` oracle on the collapsed
//!   `array_multiplier(32)` universe under 96 seeded patterns, and both
//!   report identically;
//! * a warm registry hit is **≥ 10×** a cold compile of
//!   `array_multiplier(32)`, shares the warm `Arc` and compiles nothing.
//!
//! Wall-clock gates mean nothing in a debug build, so the test is ignored
//! by default and refuses to run without optimisations:
//! `cargo test --release --test perf_gates -- --ignored` prints both
//! ratios and fails if either gate does. Per-layer timings are
//! `perfbench` rows.

use sinw_atpg::collapse::collapse;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::{
    seeded_patterns, simulate_faults_full_pass, simulate_faults_threaded_stats,
};
use sinw_server::registry::CircuitRegistry;
use sinw_switch::generate::array_multiplier;
use std::sync::Arc;
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

#[test]
#[ignore = "timing gates: run in release with --ignored"]
fn event_kernel_and_registry_hit_meet_their_timing_gates() {
    if cfg!(debug_assertions) {
        panic!("the timing gates measure release builds: run with `cargo test --release`");
    }
    let circuit = array_multiplier(32);

    let faults = enumerate_stuck_at(&circuit);
    let reps = collapse(&circuit, &faults).representatives;
    let patterns = seeded_patterns(circuit.primary_inputs().len(), 96, 0x9E37_79B9_97F4_A7C1);
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
