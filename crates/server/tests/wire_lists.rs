//! Typed decode failures of large `u64`-list payloads. The lists of a
//! `Signatures` and a `FaultSim` outcome are read in bulk after their
//! count is checked against the remaining bytes, so a cut anywhere in
//! the payload, or a hostile count, must fail with exactly the error a
//! field-by-field reader gives: `Truncated` inside a scalar or a count,
//! `Malformed` naming the list inside its words.

use sinw_server::wire::{decode_frame, encode_frame, Response, WireOutcome, DEFAULT_MAX_PAYLOAD};
use sinw_server::CodecError;

/// One payload field in wire order: a scalar of this many bytes, or a
/// `u32` count followed by that many `u64` words.
enum Part {
    Scalar(usize),
    List(&'static str, usize),
}

/// The error a payload cut to `len` bytes must decode to.
fn cut_error(len: usize, parts: &[Part]) -> CodecError {
    let mut at = 0;
    let truncated = |at: usize, needed: usize| CodecError::Truncated {
        offset: at,
        needed,
        available: len - at,
    };
    for part in parts {
        match *part {
            Part::Scalar(width) if len < at + width => return truncated(at, width),
            Part::Scalar(width) => at += width,
            Part::List(_, _) if len < at + 4 => return truncated(at, 4),
            Part::List(context, n) => {
                at += 4;
                if len < at + 8 * n {
                    return CodecError::Malformed {
                        context,
                        detail: format!(
                            "count {n} needs at least {} bytes but only {} remain",
                            8 * n,
                            len - at
                        ),
                    };
                }
                at += 8 * n;
            }
        }
    }
    panic!("a cut at {len} bytes leaves the whole payload");
}

fn words(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// Every cut of the frame and of its payload fails as `cut_error` says,
/// and a `u32::MAX` count in place of `count_at`'s is `Malformed` before
/// anything is sized by it.
fn check(response: &Response, parts: &[Part], count_at: usize, context: &str) {
    let (ty, payload) = response.encode();
    let frame = encode_frame(ty, &payload);
    let decode = |bytes: &[u8]| {
        decode_frame(bytes, DEFAULT_MAX_PAYLOAD).and_then(|(ty, p)| Response::decode(ty, &p))
    };
    assert_eq!(decode(&frame).as_ref(), Ok(response));
    for len in 24..frame.len() {
        assert_eq!(
            decode(&frame[..len]),
            Err(CodecError::Truncated {
                offset: 24,
                needed: payload.len(),
                available: len - 24,
            })
        );
    }
    for len in 0..payload.len() {
        assert_eq!(
            Response::decode(ty, &payload[..len]),
            Err(cut_error(len, parts)),
            "payload cut at {len}"
        );
    }
    let mut hostile = payload.clone();
    hostile[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match decode(&encode_frame(ty, &hostile)) {
        Err(CodecError::Malformed { context: c, detail }) => {
            assert_eq!(c, context);
            assert!(
                detail.starts_with("count 4294967295 needs at least"),
                "{detail}"
            );
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn signature_words_fail_typed_at_every_cut() {
    let n = 1 << 14;
    let response = Response::Outcome {
        job: 3,
        outcome: WireOutcome::Signatures {
            faults: 512,
            patterns: 64,
            outputs: 32,
            bits: words(n),
        },
    };
    // job, tag, faults, patterns, outputs, then the words.
    let parts = [
        Part::Scalar(8),
        Part::Scalar(1),
        Part::Scalar(8),
        Part::Scalar(8),
        Part::Scalar(8),
        Part::List("signature words", n),
    ];
    check(&response, &parts, 33, "signature words");
}

#[test]
fn fault_sim_lists_fail_typed_at_every_cut() {
    let (a, b, c) = (3000, 1200, 64);
    let index = |n| words(n).into_iter().map(|w| (w >> 44) as usize).collect();
    let response = Response::Outcome {
        job: 4,
        outcome: WireOutcome::FaultSim {
            detected: index(a),
            undetected: index(b),
            first_detections: index(c),
        },
    };
    let parts = [
        Part::Scalar(8),
        Part::Scalar(1),
        Part::List("detected faults", a),
        Part::List("undetected faults", b),
        Part::List("first detections", c),
    ];
    check(&response, &parts, 9 + 4 + 8 * a, "undetected faults");
}
