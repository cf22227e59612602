//! `NetClient` keeps one buffer for the frames it reads and one for the
//! frames it writes. A scripted peer answers a multi-megabyte
//! `Signatures` outcome, then small frames, then a frame cut short:
//! every small frame must decode to exactly its own bytes (nothing left
//! over from the large one), and the cut frame must fail with the same
//! typed error a fresh read of those bytes gives.

use std::io::{Cursor, Write};
use std::net::{Shutdown, TcpListener};

use sinw_server::wire::{encode_frame, read_frame, FrameEvent, DEFAULT_MAX_PAYLOAD};
use sinw_server::{ClientError, NetClient, Request, Response, WireOutcome, WireStats};

/// xorshift64 words.
fn words(n: usize) -> Vec<u64> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

fn framed(response: &Response) -> Vec<u8> {
    let (ty, payload) = response.encode();
    encode_frame(ty, &payload)
}

#[test]
fn kept_buffers_never_leak_bytes_between_frames() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    // 4 MiB of signature words: 8192 faults x 64 patterns x 64 outputs.
    let outcome = WireOutcome::Signatures {
        faults: 8192,
        patterns: 64,
        outputs: 64,
        bits: words(8192 * 64),
    };
    let stats = WireStats {
        sessions: 1,
        hits: 2,
        capacity: 3,
        ..WireStats::default()
    };
    let large = framed(&Response::Outcome {
        job: 7,
        outcome: outcome.clone(),
    });
    assert!(large.len() > 4 << 20);
    let script = vec![
        vec![
            framed(&Response::Progress {
                job: 7,
                done: 1,
                total: 1,
                finished: true,
            }),
            large.clone(),
        ],
        vec![framed(&Response::StatsReport(stats))],
        vec![framed(&Response::SnapshotBytes {
            bytes: vec![1, 2, 3],
        })],
        vec![framed(&Response::SnapshotBytes { bytes: Vec::new() })],
        // A large frame cut off mid-payload, then the peer closes.
        vec![large[..large.len() / 2].to_vec()],
    ];
    let cut = script[4][0].clone();

    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        for answer in script {
            match read_frame(&mut stream, DEFAULT_MAX_PAYLOAD).expect("request") {
                FrameEvent::Frame {
                    frame_type,
                    payload,
                } => {
                    Request::decode(frame_type, &payload).expect("a well-formed request");
                }
                other => panic!("expected a request, got {other:?}"),
            }
            for frame in answer {
                stream.write_all(&frame).expect("answer");
            }
        }
        stream.shutdown(Shutdown::Write).expect("close");
    });

    let mut client = NetClient::connect(addr).expect("connect");
    let mut seen = Vec::new();
    let got = client
        .await_job(7, |done, total| seen.push((done, total)))
        .expect("outcome");
    assert_eq!(seen, [(1, 1)]);
    assert_eq!(got, outcome);
    assert_eq!(client.stats().expect("stats"), stats);
    assert_eq!(client.fetch_snapshot(1).expect("bytes"), [1, 2, 3]);
    assert_eq!(client.fetch_snapshot(2).expect("bytes"), Vec::<u8>::new());

    let fresh = read_frame(&mut Cursor::new(&cut), DEFAULT_MAX_PAYLOAD).expect_err("cut frame");
    match client.fetch_snapshot(3) {
        Err(ClientError::Wire(e)) => assert_eq!(e, fresh),
        other => panic!("expected the cut frame's wire error, got {other:?}"),
    }
    peer.join().expect("peer");
}
