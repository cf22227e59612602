//! Adversarial wire-protocol tests: the battery shared with
//! `snapshot_adversarial.rs` (`common`: truncations at every prefix
//! length, per-field header flips, every payload byte flip, trailing
//! bytes, a hostile count, seeded fuzz), the frame-only attacks (hostile
//! lengths, unknown frame types, zero-width pattern sets), and
//! live-server legs proving a poisoned connection — or a ragged pattern
//! job, refused by the client before encoding — never takes the server
//! down. The contract under attack: wire decoding returns a typed
//! [`CodecError`] — it never panics, never allocates past the
//! configured cap, and the server stays serviceable afterward.

mod common;

use sinw_atpg::{seeded_patterns, simulate_faults};
use sinw_server::net::{ClientError, NetClient, NetConfig, NetServer};
use sinw_server::registry::compile_circuit;
use sinw_server::wire::{
    self, decode_frame, encode_frame, frame_type, ErrorCode, FrameEvent, Request, Response,
    WireJob, WireOutcome, WIRE_MAGIC, WIRE_VERSION,
};
use sinw_server::CodecError;
use sinw_switch::iscas::{parse_bench, C17_BENCH};

/// A rich reference frame: a `SubmitJob` request with inline patterns,
/// so every payload section (tags, counts, bools, integers) is in the
/// attack surface.
fn reference_frame() -> Vec<u8> {
    let request = Request::SubmitJob(WireJob::FaultSim {
        key: 0x0123_4567_89AB_CDEF,
        patterns: vec![
            vec![true, false, true, true, false],
            vec![false, false, true, false, true],
            vec![true, true, true, false, false],
        ],
        drop_detected: true,
        threads: 2,
        timeout_ms: 30_000,
    });
    let (ty, payload) = request.encode();
    encode_frame(ty, &payload)
}

const MAX: u64 = wire::DEFAULT_MAX_PAYLOAD;

/// Decode one frame and, if it frames, decode the request too — the
/// full server-side ingest path, in-memory.
fn full_decode(bytes: &[u8]) -> Result<Request, CodecError> {
    let (ty, payload) = decode_frame(bytes, MAX)?;
    Request::decode(ty, &payload)
}

#[test]
fn every_truncation_is_a_typed_error() {
    common::every_truncation(&reference_frame(), full_decode);
}

#[test]
fn every_header_byte_flip_is_typed_by_field() {
    // A flipped frame type is still a well-formed frame; it must resolve
    // to a typed decode error (the payload is a fault-sim job) or, for
    // byte-soup luck, a decode — just never a panic.
    common::header_flips_by_field(&reference_frame(), full_decode, |_| true);
}

#[test]
fn every_single_payload_byte_flip_is_caught_by_the_checksum() {
    common::payload_flips_fail_the_checksum(&reference_frame(), full_decode);
}

#[test]
fn hostile_lengths_die_before_allocation() {
    for declared in [u64::from(u32::MAX), u64::MAX, MAX + 1, 1 << 62] {
        let mut frame = reference_frame();
        frame[8..16].copy_from_slice(&declared.to_le_bytes());
        match full_decode(&frame) {
            Err(CodecError::Oversized { declared: d, max }) => {
                assert_eq!(d, declared);
                assert_eq!(max, MAX);
            }
            other => panic!("declared {declared}: expected Oversized, got {other:?}"),
        }
    }
    // A length inside the cap but past the available bytes is typed
    // truncation, sized by the *input*, not the declaration.
    let mut frame = reference_frame();
    let body_len = frame.len() - common::HEADER_LEN;
    frame[8..16].copy_from_slice(&((body_len as u64) + 1000).to_le_bytes());
    assert!(matches!(
        full_decode(&frame),
        Err(CodecError::Truncated { .. })
    ));
}

#[test]
fn trailing_bytes_are_rejected_at_both_layers() {
    // After the frame payload.
    common::trailing_bytes(&reference_frame(), full_decode);
    // Inside a payload: re-frame a valid request payload with junk
    // appended and a *correct* checksum, so only full-consumption
    // catches it.
    let (ty, mut payload) = Request::AwaitJob { job: 9 }.encode();
    payload.extend_from_slice(&[0xAB, 0xCD]);
    let frame = encode_frame(ty, &payload);
    match full_decode(&frame) {
        Err(CodecError::TrailingBytes { extra }) => assert_eq!(extra, 2),
        other => panic!("expected payload TrailingBytes, got {other:?}"),
    }
}

#[test]
fn unknown_frame_types_and_hostile_counts_are_typed() {
    // Every unassigned request code is a typed unknown.
    for ty in [0x00u16, 0x09, 0x42, 0x7F] {
        let frame = encode_frame(ty, &[]);
        match full_decode(&frame) {
            Err(CodecError::UnknownFrameType { found }) => assert_eq!(found, ty),
            other => panic!("type {ty:#x}: expected UnknownFrameType, got {other:?}"),
        }
    }
    // A hostile element count inside a valid frame (a u32::MAX pattern
    // count) dies on the bounds check, not on an allocation.
    let payload = fault_sim_payload(u32::MAX, u32::MAX, 0);
    let crafted = common::container(WIRE_MAGIC, WIRE_VERSION, frame_type::SUBMIT_JOB, &payload);
    common::hostile_count(&crafted, full_decode);
}

/// A `SubmitJob` payload: `FaultSim` on key 7 with `n` patterns of
/// `width` bits, followed by `padding` zero bytes.
fn fault_sim_payload(n: u32, width: u32, padding: usize) -> Vec<u8> {
    let mut payload = vec![1u8]; // FaultSim job tag
    payload.extend_from_slice(&7u64.to_le_bytes()); // key
    payload.push(1); // drop_detected
    payload.extend_from_slice(&1u32.to_le_bytes()); // threads
    payload.extend_from_slice(&0u64.to_le_bytes()); // timeout
    payload.extend_from_slice(&n.to_le_bytes());
    payload.extend_from_slice(&width.to_le_bytes());
    payload.resize(payload.len() + padding, 0);
    payload
}

#[test]
fn zero_width_pattern_sets_are_malformed_before_allocation() {
    // 2^24 rows of width 0 behind 16 MiB of padding: each row consumes
    // no bytes, so a count bounded only by the remaining bytes would
    // allocate 2^24 empty rows (~384 MiB) before the padding is
    // rejected. The reader refuses the shape before allocating.
    let crafted = encode_frame(
        frame_type::SUBMIT_JOB,
        &fault_sim_payload(1 << 24, 0, 1 << 24),
    );
    match full_decode(&crafted) {
        Err(CodecError::Malformed { context, .. }) => assert_eq!(context, "job patterns"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn mutation_fuzz_never_panics() {
    common::fuzz(
        &reference_frame(),
        full_decode,
        WIRE_MAGIC,
        0x51F0_CAFE_F00D_5EED,
    );
}

// ---------------------------------------------------------------------
// Live-server serviceability
// ---------------------------------------------------------------------

fn serve() -> NetServer {
    NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind loopback")
}

#[test]
fn garbage_poisons_only_its_own_connection() {
    let server = serve();
    let addr = server.local_addr();

    // A connection that speaks garbage gets (at most) one error frame
    // and a close.
    let mut attacker = NetClient::connect(addr).expect("connect");
    attacker
        .send_raw(b"this is definitely not a SINP frame, not even close....")
        .expect("raw send");
    let frames = attacker.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1, "at most one best-effort error frame");

    // The server is untouched: a fresh client does real work.
    let mut client = NetClient::connect(addr).expect("reconnect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    assert_ne!(key, 0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, 1);
    server.shutdown();
}

#[test]
fn a_fuzz_storm_of_connections_leaves_the_server_serving() {
    let mut config = NetConfig::default();
    // Attack connections that send nothing must not pin a handler for
    // the default 60 s idle window.
    config.limits.idle_timeout = std::time::Duration::from_millis(500);
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let mut state = 0xBAD5_EED5_0F_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let template = reference_frame();
    for round in 0..40 {
        let mut client = NetClient::connect(addr).expect("connect");
        let blob: Vec<u8> = match round % 3 {
            // Pure soup.
            0 => (0..(next() as usize) % 128).map(|_| next() as u8).collect(),
            // A corrupted real frame.
            1 => {
                let mut f = template.clone();
                let pos = (next() as usize) % f.len();
                f[pos] ^= (next() as u8) | 1;
                f
            }
            // A truncated real frame.
            _ => template[..(next() as usize) % template.len()].to_vec(),
        };
        client.send_raw(&blob).expect("raw send");
        // EOF the write side so the server sees a finished (if bogus)
        // conversation; whatever happens next, it terminates.
        let _ = client.shutdown_write();
        let _ = client.drain_until_closed();
    }
    // After the storm the server still compiles, runs jobs, answers.
    let mut client = NetClient::connect(addr).expect("post-storm connect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    let job = client
        .submit(WireJob::Campaign {
            key,
            seed: 3,
            timeout_ms: 60_000,
        })
        .expect("submit");
    let outcome = client.await_job(job, |_, _| {}).expect("await");
    assert!(
        matches!(outcome, wire::WireOutcome::Campaign { .. }),
        "post-storm campaign ran: {outcome:?}"
    );
    server.shutdown();
}

#[test]
fn well_framed_unknown_requests_leave_the_connection_serving() {
    let server = serve();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");

    // An unknown-but-well-framed request type: typed error frame, and
    // the *same* connection keeps working.
    client
        .send_raw(&encode_frame(0x55, &[1, 2, 3]))
        .expect("raw send");
    match client.recv_raw().expect("error frame") {
        FrameEvent::Frame {
            frame_type: ty,
            payload,
        } => match Response::decode(ty, &payload).expect("typed response") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownRequest),
            other => panic!("expected an error frame, got {other:?}"),
        },
        other => panic!("expected a frame, got {other:?}"),
    }
    // A malformed payload under a known type is also survivable: the
    // frame checksum is valid, only the payload decode fails.
    client
        .send_raw(&encode_frame(frame_type::AWAIT_JOB, &[1, 2, 3]))
        .expect("raw send");
    match client.recv_raw().expect("error frame") {
        FrameEvent::Frame {
            frame_type: ty,
            payload,
        } => match Response::decode(ty, &payload).expect("typed response") {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected an error frame, got {other:?}"),
        },
        other => panic!("expected a frame, got {other:?}"),
    }
    // Same connection, real work.
    let (key, bytes) = client.register_bench("c17", C17_BENCH).expect("register");
    assert!(bytes > 0);
    assert_eq!(client.register_bench("c17", C17_BENCH).expect("hit").0, key);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, 1, "the hit compiled nothing");
    server.shutdown();
}

#[test]
fn version_and_checksum_attacks_get_typed_rejections() {
    let server = serve();
    let addr = server.local_addr();

    // Future protocol version.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = encode_frame(frame_type::STATS, &[]);
    frame[4..6].copy_from_slice(&(WIRE_VERSION + 7).to_le_bytes());
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // Corrupted checksum.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = reference_frame();
    frame[17] ^= 0x10;
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // Oversized declaration: rejected before the server allocates.
    let mut client = NetClient::connect(addr).expect("connect");
    let mut frame = encode_frame(frame_type::STATS, &[]);
    frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    client.send_raw(&frame).expect("raw send");
    let frames = client.drain_until_closed().expect("closed, not hung");
    assert!(frames <= 1);

    // And the server still serves.
    let mut client = NetClient::connect(addr).expect("connect");
    assert!(client.stats().is_ok());
    server.shutdown();
}

#[test]
fn an_unbounded_thread_count_is_clamped_and_the_server_keeps_serving() {
    // A hostile `threads = u32::MAX` must size nothing by itself: sized
    // per worker, it is an allocation abort no `catch_unwind` can stop.
    // The server clamps it, runs the job, and serves the next request.
    let compiled = compile_circuit("c17", parse_bench(C17_BENCH).expect("fixture parses"));
    let patterns = seeded_patterns(compiled.circuit().primary_inputs().len(), 64, 0x7EAD);
    let reference = WireOutcome::from_fault_sim(&simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    ));
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    for threads in [u32::MAX, 2] {
        let job = client
            .submit(WireJob::FaultSim {
                key,
                patterns: patterns.clone(),
                drop_detected: true,
                threads,
                timeout_ms: 60_000,
            })
            .expect("submit");
        let outcome = client.await_job(job, |_, _| {}).expect("await");
        assert_eq!(outcome, reference, "threads = {threads}");
    }
    server.shutdown();
}

#[test]
fn a_ragged_pattern_job_is_refused_and_the_client_keeps_serving() {
    // Rows of differing widths cannot be framed; `submit` must say so
    // with a typed error instead of panicking inside the encoder.
    let server = serve();
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let (key, _) = client.register_bench("c17", C17_BENCH).expect("register");
    let ragged = vec![vec![true; 5], vec![false; 4], vec![true; 5]];
    let jobs = [
        WireJob::FaultSim {
            key,
            patterns: ragged.clone(),
            drop_detected: true,
            threads: 1,
            timeout_ms: 60_000,
        },
        WireJob::Signatures {
            key,
            patterns: ragged,
            threads: 1,
            timeout_ms: 60_000,
        },
    ];
    for job in jobs {
        match client.submit(job) {
            Err(ClientError::Wire(CodecError::Malformed {
                context: "job patterns",
                ..
            })) => {}
            other => panic!("ragged job: expected Malformed job patterns, got {other:?}"),
        }
    }

    // The same client still registers and runs a well-formed job.
    let (again, _) = client
        .register_bench("c17", C17_BENCH)
        .expect("re-register");
    assert_eq!(again, key);
    let compiled = compile_circuit("c17", parse_bench(C17_BENCH).expect("fixture parses"));
    let patterns = seeded_patterns(compiled.circuit().primary_inputs().len(), 16, 0x4A66);
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
            threads: 1,
            timeout_ms: 60_000,
        })
        .expect("submit");
    let outcome = client.await_job(job, |_, _| {}).expect("await");
    assert_eq!(outcome, reference);
    server.shutdown();
}

#[test]
fn a_snapshot_moves_between_servers_and_a_corrupt_one_is_rejected() {
    let compiled = compile_circuit("c17", parse_bench(C17_BENCH).expect("fixture parses"));
    let patterns = seeded_patterns(compiled.circuit().primary_inputs().len(), 64, 0x5A9);
    let reference = WireOutcome::from_fault_sim(&simulate_faults(
        compiled.circuit(),
        &compiled.collapsed().representatives,
        &patterns,
        true,
    ));

    // Server A compiles c17 from source and hands out its snapshot.
    let a = serve();
    let mut on_a = NetClient::connect(a.local_addr()).expect("connect A");
    let (bench_key, _) = on_a
        .register_bench("c17", C17_BENCH)
        .expect("register on A");
    let bytes = on_a.fetch_snapshot(bench_key).expect("fetch from A");

    // Server B installs it without compiling, under the circuit's
    // content key — the key A also gives the same bytes.
    let b = serve();
    let mut on_b = NetClient::connect(b.local_addr()).expect("connect B");
    let (key, _) = on_b
        .register_snapshot(bytes.clone())
        .expect("register on B");
    assert_eq!(key, compiled.key(), "B keys the snapshot by its circuit");
    assert_eq!(on_a.register_snapshot(bytes.clone()).expect("A").0, key);
    assert_eq!(
        on_b.stats().expect("stats").compiles,
        0,
        "B compiled nothing"
    );
    let job = on_b
        .submit(WireJob::FaultSim {
            key,
            patterns,
            drop_detected: true,
            threads: 1,
            timeout_ms: 60_000,
        })
        .expect("submit on B");
    let outcome = on_b.await_job(job, |_, _| {}).expect("await on B");
    assert_eq!(
        outcome, reference,
        "B simulates the restored circuit identically"
    );

    // One flipped payload byte: a typed rejection, and the connection
    // keeps serving.
    let mut corrupt = bytes;
    corrupt[common::HEADER_LEN + 5] ^= 0x01;
    match on_b.register_snapshot(corrupt) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SnapshotRejected),
        other => panic!("expected SnapshotRejected, got {other:?}"),
    }
    assert_eq!(on_b.stats().expect("same connection serves").compiles, 0);
    a.shutdown();
    b.shutdown();
}
