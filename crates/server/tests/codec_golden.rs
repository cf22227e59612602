//! Golden bytes of the service's binary formats: `.sinw` snapshots,
//! `SINP` wire frames, and registry keys. The fixtures under
//! `tests/golden/` are committed byte strings; encoding the cases below
//! must reproduce every one exactly, and decoding a fixture then
//! re-encoding it must too. A codec refactor that changes a single byte
//! on disk or on the wire fails here.

use std::path::PathBuf;

use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::FaultDictionary;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::seeded_patterns;
use sinw_server::registry::CircuitRegistry;
use sinw_server::snapshot::Snapshot;
use sinw_server::wire::{
    decode_frame, encode_frame, ErrorCode, Request, Response, WireJob, WireOutcome, WireStats,
    DEFAULT_MAX_PAYLOAD,
};
use sinw_switch::gate::Circuit;
use sinw_switch::iscas::C17_BENCH;

/// Registry key of c17 through `register_bench` (hash of the source).
const C17_BENCH_KEY: u64 = 0x2aad_11e6_2887_db6d;
/// Registry key of c17 through `register_circuit` (hash of the
/// canonical circuit bytes).
const C17_CIRCUIT_KEY: u64 = 0x8fda_188c_3e17_c280;

/// c17 with its universe, and with collapse and a dictionary over
/// `seeded_patterns(5, 24, 0xDEC0DE)` when `full`.
fn c17_snapshot(full: bool) -> Snapshot {
    let circuit = Circuit::c17();
    let faults = enumerate_stuck_at(&circuit);
    let (collapsed, dictionary) = if full {
        let patterns = seeded_patterns(circuit.primary_inputs().len(), 24, 0xDEC0DE);
        (
            Some(collapse(&circuit, &faults)),
            Some(FaultDictionary::build(&circuit, &faults, &patterns)),
        )
    } else {
        (None, None)
    };
    Snapshot {
        name: String::from("c17"),
        circuit,
        faults,
        collapsed,
        dictionary,
    }
}

fn snapshot_cases() -> Vec<(&'static str, Snapshot)> {
    vec![
        ("c17_full.sinw", c17_snapshot(true)),
        ("c17_bare.sinw", c17_snapshot(false)),
    ]
}

fn patterns() -> Vec<Vec<bool>> {
    vec![
        vec![true, false, true, true, false],
        vec![false, false, true, false, true],
        vec![true, true, true, false, false],
    ]
}

/// One frame per `Request` variant, with `SubmitJob` once per job kind.
fn request_cases() -> Vec<(&'static str, Request)> {
    vec![
        (
            "request_register_bench.sinp",
            Request::RegisterBench {
                name: String::from("c17"),
                source: String::from(C17_BENCH),
            },
        ),
        (
            "request_register_snapshot.sinp",
            Request::RegisterSnapshot {
                bytes: c17_snapshot(false).encode(),
            },
        ),
        (
            "request_submit_faultsim.sinp",
            Request::SubmitJob(WireJob::FaultSim {
                key: 0x0123_4567_89AB_CDEF,
                patterns: patterns(),
                drop_detected: true,
                threads: 2,
                timeout_ms: 30_000,
            }),
        ),
        (
            "request_submit_signatures.sinp",
            Request::SubmitJob(WireJob::Signatures {
                key: 0xFEDC_BA98_7654_3210,
                patterns: patterns(),
                threads: 1,
                timeout_ms: 0,
            }),
        ),
        (
            "request_submit_campaign.sinp",
            Request::SubmitJob(WireJob::Campaign {
                key: 9,
                seed: 42,
                timeout_ms: 100,
            }),
        ),
        ("request_job_progress.sinp", Request::JobProgress { job: 3 }),
        ("request_cancel_job.sinp", Request::CancelJob { job: 4 }),
        ("request_await_job.sinp", Request::AwaitJob { job: 5 }),
        (
            "request_fetch_snapshot.sinp",
            Request::FetchSnapshot {
                key: 0xDEAD_BEEF_0000_0006,
            },
        ),
        ("request_stats.sinp", Request::Stats),
    ]
}

/// One frame per `Response` variant, with `Outcome` once per
/// `WireOutcome` variant.
fn response_cases() -> Vec<(&'static str, Response)> {
    let outcome = |job, outcome| Response::Outcome { job, outcome };
    vec![
        (
            "response_registered.sinp",
            Response::Registered {
                key: 0x1111_2222_3333_4444,
                approx_bytes: 4096,
            },
        ),
        ("response_submitted.sinp", Response::Submitted { job: 2 }),
        (
            "response_progress.sinp",
            Response::Progress {
                job: 2,
                done: 3,
                total: 9,
                finished: true,
            },
        ),
        (
            "response_outcome_faultsim.sinp",
            outcome(
                2,
                WireOutcome::FaultSim {
                    detected: vec![0, 2, 5],
                    undetected: vec![1],
                    first_detections: vec![2, 0, 1],
                },
            ),
        ),
        (
            "response_outcome_signatures.sinp",
            outcome(
                3,
                WireOutcome::Signatures {
                    faults: 2,
                    patterns: 4,
                    outputs: 8,
                    bits: vec![0xAAAA, 0x5555],
                },
            ),
        ),
        (
            "response_outcome_campaign.sinp",
            outcome(
                4,
                WireOutcome::Campaign {
                    patterns: vec![vec![true, true], vec![false, true]],
                    total_faults: 10,
                    detected_random: 4,
                    detected_deterministic: 5,
                    untestable: 1,
                    aborted: 0,
                    podem_calls: 6,
                },
            ),
        ),
        (
            "response_outcome_cancelled.sinp",
            outcome(5, WireOutcome::Cancelled),
        ),
        (
            "response_outcome_timed_out.sinp",
            outcome(6, WireOutcome::TimedOut),
        ),
        (
            "response_outcome_failed.sinp",
            outcome(
                7,
                WireOutcome::Failed {
                    reason: String::from("injected"),
                },
            ),
        ),
        (
            "response_snapshot_bytes.sinp",
            Response::SnapshotBytes {
                bytes: c17_snapshot(false).encode(),
            },
        ),
        (
            "response_stats_report.sinp",
            Response::StatsReport(WireStats {
                sessions: 1,
                jobs_submitted: 2,
                hits: 3,
                misses: 4,
                compiles: 5,
                evictions: 6,
                entries: 7,
                bytes: 8,
                capacity: 9,
            }),
        ),
        (
            "response_error.sinp",
            Response::Error {
                code: ErrorCode::SnapshotRejected,
                message: String::from("checksum mismatch"),
            },
        ),
    ]
}

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("golden fixture {}: {e}", path.display()))
}

#[test]
fn snapshots_reproduce_their_golden_bytes() {
    for (name, snapshot) in snapshot_cases() {
        let expected = golden(name);
        assert!(snapshot.encode() == expected, "{name}: encoding drifted");
        let decoded = Snapshot::decode(&expected).expect("golden snapshot decodes");
        assert!(decoded.encode() == expected, "{name}: re-encoding drifted");
    }
}

#[test]
fn request_frames_reproduce_their_golden_bytes() {
    for (name, request) in request_cases() {
        let expected = golden(name);
        let (ty, payload) = request.encode();
        assert!(
            encode_frame(ty, &payload) == expected,
            "{name}: encoding drifted"
        );
        let (ty, payload) = decode_frame(&expected, DEFAULT_MAX_PAYLOAD).expect("golden frame");
        let decoded = Request::decode(ty, &payload).expect("golden request decodes");
        assert_eq!(decoded, request, "{name}");
        let (ty, payload) = decoded.encode();
        assert!(
            encode_frame(ty, &payload) == expected,
            "{name}: re-encoding drifted"
        );
    }
}

#[test]
fn response_frames_reproduce_their_golden_bytes() {
    for (name, response) in response_cases() {
        let expected = golden(name);
        let (ty, payload) = response.encode();
        assert!(
            encode_frame(ty, &payload) == expected,
            "{name}: encoding drifted"
        );
        let (ty, payload) = decode_frame(&expected, DEFAULT_MAX_PAYLOAD).expect("golden frame");
        let decoded = Response::decode(ty, &payload).expect("golden response decodes");
        assert_eq!(decoded, response, "{name}");
        let (ty, payload) = decoded.encode();
        assert!(
            encode_frame(ty, &payload) == expected,
            "{name}: re-encoding drifted"
        );
    }
}

#[test]
fn registry_keys_are_pinned() {
    let registry = CircuitRegistry::new();
    let bench = registry
        .register_bench("c17", C17_BENCH)
        .expect("c17 parses");
    assert_eq!(bench.key(), C17_BENCH_KEY, "register_bench key drifted");
    let circuit = registry
        .register_circuit("c17", Circuit::c17())
        .expect("c17 compiles");
    assert_eq!(
        circuit.key(),
        C17_CIRCUIT_KEY,
        "register_circuit key drifted"
    );
}
