//! ATPG over the wire: the TCP transport demo.
//!
//! Boots a loopback [`NetServer`](sinw::server::net::NetServer) backed
//! by a scratch snapshot store, then drives the whole protocol from a
//! [`NetClient`](sinw::server::net::NetClient): registers each demo
//! circuit cold and warm (the server's compile counter proves the hit
//! path), round-trips a compiled artifact through `FetchSnapshot` and
//! restores it to the same key and collapsed universe as a direct
//! compile, streams a fault-sim job's progress frames, and checks the
//! served result bit-identical against a direct in-process serial call
//! before draining the server.
//!
//! ```text
//! cargo run --release --example serve_tcp             # csa16 + mul8
//! cargo run --release --example serve_tcp -- --fast   # csa16 only
//! SINW_SERVE_TCP_FAST=1 cargo run --release --example serve_tcp  # CI smoke
//! ```

use std::sync::Arc;

use sinw::atpg::faultsim::seeded_patterns;
use sinw::atpg::simulate_faults;
use sinw::server::net::{NetClient, NetConfig, NetServer};
use sinw::server::registry::{compile_circuit, CompiledCircuit};
use sinw::server::snapshot::Snapshot;
use sinw::server::wire::{WireJob, WireOutcome};
use sinw::switch::generate::array_multiplier;
use sinw::switch::iscas::{parse_bench, to_bench, CSA16_BENCH};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast")
        || std::env::var("SINW_SERVE_TCP_FAST").is_ok_and(|v| v != "0");
    // CI arms a chunk delay (SINW_FAILPOINTS) and sets this to insist
    // the stream shows the job actually advancing; without the delay a
    // small job can legitimately finish inside one poll tick.
    let assert_stream = std::env::var("SINW_SERVE_TCP_ASSERT_STREAM").is_ok_and(|v| v != "0");

    let store_dir = std::env::temp_dir().join(format!("sinw_serve_tcp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut config = NetConfig::default();
    config.store_dir = Some(store_dir.clone());
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr} (store: {})", store_dir.display());

    let mut suite: Vec<(String, String)> = vec![("csa16".to_string(), CSA16_BENCH.to_string())];
    if !fast {
        suite.push(("mul8".to_string(), to_bench(&array_multiplier(8), "mul8")));
    }

    let mut client = NetClient::connect(addr).expect("connect");
    for (name, source) in &suite {
        // Cold, then warm: the second registration of identical content
        // must hit the cache, not recompile.
        let compiles_before = server.registry().stats().compiles;
        let (key, approx_bytes) = client.register_bench(name, source).expect("register cold");
        let (key_again, _) = client.register_bench(name, source).expect("register warm");
        assert_eq!(key, key_again, "content keys are deterministic");
        let stats = server.registry().stats();
        assert_eq!(
            stats.compiles,
            compiles_before + 1,
            "warm registration must not recompile"
        );
        println!(
            "{name:>6}: key {key:#018x}, ~{:.1} KiB resident, compiles {} / hits {}",
            approx_bytes as f64 / 1024.0,
            stats.compiles,
            stats.hits,
        );

        // The registered artifact round-trips through FetchSnapshot as
        // the same versioned `.sinw` bytes the store persists, and the
        // restored artifact is the one a direct compile produces.
        let circuit = parse_bench(source).expect("demo source parses");
        let compiled = Arc::new(compile_circuit(name, circuit));
        let bytes = client.fetch_snapshot(key).expect("fetch snapshot");
        let snapshot = Snapshot::decode(&bytes).expect("served snapshot decodes");
        assert_eq!(
            &snapshot.name, name,
            "snapshot names the registered circuit"
        );
        let restored = CompiledCircuit::from_snapshot(snapshot);
        assert_eq!(restored.key(), compiled.key(), "restore keeps the key");
        assert_eq!(
            restored.collapsed().representatives,
            compiled.collapsed().representatives,
            "restore keeps the collapsed universe"
        );
        println!("{name:>6}: snapshot round-trip {} bytes", bytes.len());

        // Stream a fault-sim job and check it bit-identical against a
        // direct serial call on the same compiled circuit.
        let patterns = seeded_patterns(compiled.circuit().primary_inputs().len(), 64, 0xD47E);
        let reference = WireOutcome::from_fault_sim(&simulate_faults(
            compiled.circuit(),
            &compiled.collapsed().representatives,
            &patterns,
            true,
        ));

        let job = client
            .submit(WireJob::FaultSim {
                key,
                patterns,
                drop_detected: true,
                threads: 2,
                timeout_ms: 120_000,
            })
            .expect("submit");
        let mut frames = 0usize;
        let mut seen = std::collections::BTreeSet::new();
        let outcome = client
            .await_job(job, |done, total| {
                frames += 1;
                seen.insert(done);
                println!("{name:>6}: job {job} progress {done}/{total}");
            })
            .expect("await");
        assert_eq!(
            outcome, reference,
            "wire result must match the serial engine"
        );
        if assert_stream {
            assert!(
                seen.len() >= 2,
                "{name}: expected >= 2 distinct streamed progress values, saw {seen:?}"
            );
        }
        match &outcome {
            WireOutcome::FaultSim {
                detected,
                undetected,
                ..
            } => println!(
                "{name:>6}: {frames} progress frames, {} detected / {} undetected — bit-identical to serial",
                detected.len(),
                undetected.len(),
            ),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    let stats = client.stats().expect("stats");
    println!(
        "server stats: {} session(s), {} job(s) served, {} registry entr{} (~{:.1} KiB)",
        stats.sessions,
        stats.jobs_submitted,
        stats.entries,
        if stats.entries == 1 { "y" } else { "ies" },
        stats.bytes as f64 / 1024.0,
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    println!("drained clean.");
}
