//! Version-1 inputs are rejected by type, not misread. Version 1 of
//! both binary formats checksummed with FNV-1a; version 2 uses XXH64,
//! and no version-1 decode path is kept. The fixtures under
//! `tests/golden/v1/` are real version-1 bytes (c17's bare snapshot and
//! a `Stats` request frame): each must fail as
//! [`CodecError::UnsupportedVersion`] `{ found: 1 }`, checked before the
//! checksum, in every decoder and at a live server.

use std::path::PathBuf;

use sinw_server::net::{ClientError, NetClient, NetConfig, NetServer};
use sinw_server::snapshot::Snapshot;
use sinw_server::wire::{decode_frame, ErrorCode, FrameEvent, Response, DEFAULT_MAX_PAYLOAD};
use sinw_server::CodecError;

const V1: CodecError = CodecError::UnsupportedVersion { found: 1 };

fn v1_fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/v1")
        .join(name);
    let bytes =
        std::fs::read(&path).unwrap_or_else(|e| panic!("v1 fixture {}: {e}", path.display()));
    assert_eq!(
        &bytes[4..6],
        &1u16.to_le_bytes(),
        "{name} is a version-1 input"
    );
    bytes
}

#[test]
fn v1_snapshot_and_v1_frame_are_unsupported_versions() {
    let err = Snapshot::decode(&v1_fixture("c17_bare.sinw")).expect_err("v1 snapshot");
    assert_eq!(err, V1);
    let err =
        decode_frame(&v1_fixture("request_stats.sinp"), DEFAULT_MAX_PAYLOAD).expect_err("v1 frame");
    assert_eq!(err, V1);
}

#[test]
fn live_server_rejects_v1_by_version_and_keeps_serving() {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let addr = server.local_addr();

    // A v1 snapshot inside a well-formed v2 frame: a typed rejection,
    // and the same connection serves the next request.
    let mut client = NetClient::connect(addr).expect("connect");
    match client.register_snapshot(v1_fixture("c17_bare.sinw")) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::SnapshotRejected);
            assert_eq!(message, V1.to_string());
        }
        other => panic!("v1 snapshot must be rejected, got {other:?}"),
    }
    let stats = client.stats().expect("same connection serves Stats");
    assert_eq!(stats.entries, 0, "nothing was installed");

    // A v1 frame on the wire: its header is rejected before the payload
    // is read, so the stream cannot be resynchronized. The server says
    // why and closes this connection; the next one is served.
    let mut raw = NetClient::connect(addr).expect("connect");
    raw.send_raw(&v1_fixture("request_stats.sinp"))
        .expect("send v1 frame");
    match raw.recv_raw().expect("error frame") {
        FrameEvent::Frame {
            frame_type,
            payload,
        } => {
            let response = Response::decode(frame_type, &payload).expect("error frame decodes");
            assert_eq!(
                response,
                Response::Error {
                    code: ErrorCode::BadFrame,
                    message: V1.to_string(),
                }
            );
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(raw.drain_until_closed().expect("close"), 0);
    let mut next = NetClient::connect(addr).expect("reconnect");
    next.stats().expect("a fresh connection serves Stats");
    server.shutdown();
}
