//! The adversarial battery both binary formats share. `.sinw`
//! snapshots and `SINP` frames sit behind the same 24-byte codec header
//! (magic, version, a `u16`, payload length, FNV-1a 64 checksum), so the
//! same attacks apply to both: every truncation prefix, per-field header
//! byte flips, every payload byte flip, trailing bytes, a hostile count,
//! and seeded fuzz. Each leg takes a valid reference encoding and the
//! format's full decode path; the contract under attack is that decoding
//! returns `Ok` or a typed [`CodecError`] — never a panic, never an
//! allocation the input's own length does not justify.

use std::fmt::Debug;

use sinw_server::{checksum, CodecError};

/// Header length of both formats.
pub const HEADER_LEN: usize = 24;

/// Wrap `payload` in a valid header — how an attacker gets a crafted
/// payload past the checksum gate and into the payload decoders.
pub fn container(magic: [u8; 4], version: u16, kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every strict prefix of the reference is a typed error, and every
/// prefix shorter than the header is `Truncated`.
pub fn every_truncation<T: Debug>(
    reference: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) {
    assert!(decode(reference).is_ok(), "reference must decode");
    for len in 0..reference.len() {
        let err = decode(&reference[..len]).expect_err("every strict prefix must be rejected");
        if len < HEADER_LEN {
            assert!(
                matches!(err, CodecError::Truncated { .. }),
                "prefix of {len} bytes: expected Truncated, got {err}"
            );
        }
    }
}

/// Flip each header byte three ways and check the variant its field
/// reports. Offsets 6–7 mean something different per format, so the
/// caller judges those.
pub fn header_flips_by_field<T: Debug>(
    reference: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
    offset_6: impl Fn(&Result<T, CodecError>) -> bool,
) {
    for pos in 0..HEADER_LEN {
        for mask in [0x01u8, 0x40, 0xFF] {
            let mut corrupted = reference.to_vec();
            corrupted[pos] ^= mask;
            let result = decode(&corrupted);
            let typed = match pos {
                0..=3 => matches!(result, Err(CodecError::BadMagic { .. })),
                4..=5 => matches!(result, Err(CodecError::UnsupportedVersion { .. })),
                6..=7 => offset_6(&result),
                8..=15 => matches!(
                    result,
                    Err(CodecError::Truncated { .. }
                        | CodecError::Oversized { .. }
                        | CodecError::TrailingBytes { .. })
                ),
                _ => matches!(result, Err(CodecError::ChecksumMismatch { .. })),
            };
            assert!(typed, "header byte {pos}^{mask:#x}: got {result:?}");
        }
    }
}

/// Every single payload byte flip is caught by the checksum.
pub fn payload_flips_fail_the_checksum<T: Debug>(
    reference: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) {
    for pos in HEADER_LEN..reference.len() {
        let mut corrupted = reference.to_vec();
        corrupted[pos] ^= 0x40;
        let result = decode(&corrupted);
        assert!(
            matches!(result, Err(CodecError::ChecksumMismatch { .. })),
            "flip at byte {pos} slipped past the checksum: {result:?}"
        );
    }
}

/// Bytes after the declared payload are `TrailingBytes`, counted.
pub fn trailing_bytes<T: Debug>(reference: &[u8], decode: impl Fn(&[u8]) -> Result<T, CodecError>) {
    let mut bytes = reference.to_vec();
    bytes.extend_from_slice(b"tail");
    match decode(&bytes) {
        Err(CodecError::TrailingBytes { extra }) => assert_eq!(extra, 4),
        other => panic!("expected TrailingBytes, got {other:?}"),
    }
}

/// A well-framed container whose payload declares a count far past its
/// own length dies as `Malformed` on the bounds check, before anything
/// is sized by it.
pub fn hostile_count<T: Debug>(crafted: &[u8], decode: impl Fn(&[u8]) -> Result<T, CodecError>) {
    let result = decode(crafted);
    assert!(
        matches!(result, Err(CodecError::Malformed { .. })),
        "expected Malformed, got {result:?}"
    );
}

/// Seeded fuzz over the full decode path: single flips, bursts, byte
/// soup with and without the magic, truncate-and-flip, and flips with a
/// repaired checksum so the attack reaches the payload decoders. `Ok`
/// or a typed error every time. (Corruptions that happen to cancel out
/// and still decode are fine; the point is totality.)
pub fn fuzz<T: Debug>(
    reference: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
    magic: [u8; 4],
    seed: u64,
) {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    for _ in 0..2000 {
        let mut corrupted = reference.to_vec();
        let pos = (next() as usize) % corrupted.len();
        corrupted[pos] ^= (next() as u8) | 1;
        let _ = decode(&corrupted);
    }

    for _ in 0..500 {
        let mut corrupted = reference.to_vec();
        for _ in 0..1 + (next() as usize) % 8 {
            let pos = (next() as usize) % corrupted.len();
            corrupted[pos] = next() as u8;
        }
        let _ = decode(&corrupted);
    }

    for round in 0..500 {
        let len = (next() as usize) % 200;
        let mut soup: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        if round % 2 == 0 && soup.len() >= 4 {
            soup[0..4].copy_from_slice(&magic);
        }
        let _ = decode(&soup);
    }

    for _ in 0..500 {
        let cut = (next() as usize) % reference.len();
        let mut corrupted = reference[..cut].to_vec();
        if !corrupted.is_empty() {
            let pos = (next() as usize) % corrupted.len();
            corrupted[pos] ^= next() as u8;
        }
        let _ = decode(&corrupted);
    }

    for _ in 0..500 {
        let mut corrupted = reference.to_vec();
        let pos = HEADER_LEN + (next() as usize) % (corrupted.len() - HEADER_LEN);
        corrupted[pos] = next() as u8;
        let fixed = checksum(&corrupted[HEADER_LEN..]);
        corrupted[16..24].copy_from_slice(&fixed.to_le_bytes());
        let _ = decode(&corrupted);
    }
}
