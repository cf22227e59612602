//! The one binary codec behind `.sinw` snapshots and `SINP` wire frames.
//!
//! Both formats wrap a checksummed payload in the same 24-byte header
//! (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic: `b"SINW"` (snapshot) or `b"SINP"` (frame) |
//! | 4      | 2    | format version (currently 2 for both) |
//! | 6      | 2    | snapshot: reserved, must be 0; frame: frame type |
//! | 8      | 8    | payload length in bytes |
//! | 16     | 8    | XXH64 (seed 0) checksum of the payload |
//! | 24     | n    | payload |
//!
//! This module owns that header, its [`checksum`], the scalar and
//! string `put_*` writers, the one bounds-checked [`Reader`], and the
//! one decode error, [`CodecError`]. Each format's structured fields
//! live with the format.
//!
//! Decoding is total: every read is bounds-checked, and every element
//! count is checked against the bytes that remain *before* anything is
//! sized by it, so a hostile count fails as [`CodecError::Malformed`]
//! instead of driving an allocation past the input's own length.

/// Header size of both formats, in bytes.
pub(crate) const HEADER_LEN: usize = 24;

// The five XXH64 primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: fold an 8-byte word into an accumulator.
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// XXH64 (seed 0) of a payload: the checksum both headers carry. The
/// body runs in four independent lanes over 32-byte stripes, 8 bytes
/// per lane step; the tail folds 8, then 4, then 1 byte at a time.
#[must_use]
pub fn checksum(payload: &[u8]) -> u64 {
    let stripes = payload.chunks_exact(32);
    let tail = stripes.remainder();
    let mut h = if payload.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in stripes {
            v = [
                round(v[0], le64(&s[0..])),
                round(v[1], le64(&s[8..])),
                round(v[2], le64(&s[16..])),
                round(v[3], le64(&s[24..])),
            ];
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(payload.len() as u64);
    let mut words = tail.chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let w = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Typed decode failure of a `.sinw` snapshot or a `SINP` frame, and
/// the I/O failures around them. Decoding never panics; every malformed
/// input maps onto one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a read completed.
    Truncated {
        /// Byte offset of the failed read (payload-relative once the
        /// header is consumed).
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// The first four bytes are not the format's magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The version field names a format this build does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// A snapshot header's reserved field is non-zero.
    ReservedNonZero {
        /// The value found.
        found: u16,
    },
    /// The frame type is not in the catalog (or a request arrived where
    /// a response was expected, and vice versa).
    UnknownFrameType {
        /// The type code found.
        found: u16,
    },
    /// The header declares a payload larger than the configured cap —
    /// rejected before any allocation.
    Oversized {
        /// Declared payload length.
        declared: u64,
        /// The configured cap.
        max: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The input holds more bytes than header + declared payload, or a
    /// frame payload decoded without consuming every byte.
    TrailingBytes {
        /// How many bytes too many.
        extra: usize,
    },
    /// A structurally invalid payload: bad tag, bad bool byte, hostile
    /// count, out-of-range index, arity violation, non-UTF-8 string,
    /// inconsistent section.
    Malformed {
        /// Which section or field was being decoded.
        context: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// A file or socket failed (or an injected fail point fired).
    /// Anything but a missing file, which is [`CodecError::NotFound`].
    Io {
        /// The path the failed operation touched; `None` for sockets.
        path: Option<String>,
        /// The OS error class.
        kind: std::io::ErrorKind,
        /// The OS error text.
        detail: String,
    },
    /// The file (or its directory) does not exist — distinguished from
    /// other I/O failures because "nothing saved yet" and "disk broke"
    /// call for different responses.
    NotFound {
        /// The path that was not found.
        path: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated at byte {offset}: needed {needed} bytes, {available} remain"
            ),
            CodecError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            CodecError::ReservedNonZero { found } => {
                write!(f, "reserved header field is {found:#06x}, expected 0")
            }
            CodecError::UnknownFrameType { found } => {
                write!(f, "unknown frame type {found:#06x}")
            }
            CodecError::Oversized { declared, max } => {
                write!(f, "declared payload of {declared} bytes exceeds the {max}-byte cap")
            }
            CodecError::ChecksumMismatch { declared, computed } => write!(
                f,
                "checksum mismatch: header declares {declared:#018x}, payload hashes to {computed:#018x}"
            ),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the declared payload")
            }
            CodecError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            CodecError::Io {
                path: Some(path),
                kind,
                detail,
            } => write!(f, "i/o on {path} ({kind:?}): {detail}"),
            CodecError::Io {
                path: None,
                kind,
                detail,
            } => write!(f, "i/o error ({kind:?}): {detail}"),
            CodecError::NotFound { path } => write!(f, "not found: {path}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io {
            path: None,
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Map an OS error on `path` onto the typed error, splitting not-found
/// from everything else.
pub(crate) fn io_error(path: &std::path::Path, e: &std::io::Error) -> CodecError {
    let path = path.display().to_string();
    if e.kind() == std::io::ErrorKind::NotFound {
        CodecError::NotFound { path }
    } else {
        CodecError::Io {
            path: Some(path),
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// Header + checksummed payload in one buffer, ready to write: reserve
/// the header, let `payload` write the payload straight after it, then
/// patch the length and checksum in place.
pub(crate) fn encode_container(
    magic: [u8; 4],
    version: u16,
    kind: u16,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&magic);
    put_u16(&mut out, version);
    put_u16(&mut out, kind);
    out.resize(HEADER_LEN, 0);
    payload(&mut out);
    let len = (out.len() - HEADER_LEN) as u64;
    let sum = checksum(&out[HEADER_LEN..]);
    out[8..16].copy_from_slice(&len.to_le_bytes());
    out[16..24].copy_from_slice(&sum.to_le_bytes());
    out
}

/// A validated header: magic and version match, and the declared
/// payload length is within the cap.
pub(crate) struct Header {
    /// The u16 at offset 6 — the format decides what it means.
    pub(crate) kind: u16,
    /// Declared payload length.
    pub(crate) len: usize,
    checksum: u64,
}

/// Parse the header at the start of `bytes` against `magic`, `version`
/// and a payload cap (`u64::MAX` for none).
pub(crate) fn parse_header(
    bytes: &[u8],
    magic: [u8; 4],
    version: u16,
    max_payload: u64,
) -> Result<Header, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            offset: 0,
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    let mut r = Reader::new(bytes);
    let found: [u8; 4] = r.take(4)?.try_into().expect("4-byte slice");
    if found != magic {
        return Err(CodecError::BadMagic { found });
    }
    let found = r.u16()?;
    if found != version {
        return Err(CodecError::UnsupportedVersion { found });
    }
    let kind = r.u16()?;
    let declared = r.u64()?;
    let len = usize::try_from(declared)
        .ok()
        .filter(|_| declared <= max_payload)
        .ok_or(CodecError::Oversized {
            declared,
            max: max_payload,
        })?;
    Ok(Header {
        kind,
        len,
        checksum: r.u64()?,
    })
}

impl Header {
    /// Check that `body` (everything after the header) is exactly the
    /// declared payload and matches the checksum.
    pub(crate) fn verify<'a>(&self, body: &'a [u8]) -> Result<&'a [u8], CodecError> {
        if body.len() < self.len {
            return Err(CodecError::Truncated {
                offset: HEADER_LEN,
                needed: self.len,
                available: body.len(),
            });
        }
        if body.len() > self.len {
            return Err(CodecError::TrailingBytes {
                extra: body.len() - self.len,
            });
        }
        let computed = checksum(body);
        if computed != self.checksum {
            return Err(CodecError::ChecksumMismatch {
                declared: self.checksum,
                computed,
            });
        }
        Ok(body)
    }
}

// ---------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encode a count or index the formats address with `u32`.
///
/// Panics if `v` exceeds `u32::MAX` — beyond the formats' addressing
/// and orders of magnitude beyond any workload in the workspace.
pub(crate) fn put_count(out: &mut Vec<u8>, v: usize, what: &str) {
    let v = u32::try_from(v).unwrap_or_else(|_| panic!("{what} count {v} exceeds u32"));
    put_u32(out, v);
}

/// `u32` byte length, then the UTF-8 bytes.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len(), "string byte");
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a payload. Every read is total; every
/// count is validated against the remaining bytes before any allocation
/// sized by it.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reject `n` elements of at least `min_elem_bytes` each when even
    /// minimal elements cannot fit in the remaining payload.
    pub(crate) fn fits(
        &self,
        context: &'static str,
        n: usize,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let need = n.saturating_mul(min_elem_bytes);
        if need > self.remaining() {
            return Err(CodecError::Malformed {
                context,
                detail: format!(
                    "count {n} needs at least {need} bytes but only {} remain",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// A `u32` element count whose elements each consume at least
    /// `min_elem_bytes` (at least 1), checked by [`fits`](Self::fits).
    pub(crate) fn count(
        &mut self,
        context: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        self.fits(context, n, min_elem_bytes.max(1))
    }

    pub(crate) fn str(&mut self, context: &'static str) -> Result<String, CodecError> {
        let len = self.count(context, 1)?;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| CodecError::Malformed {
            context,
            detail: format!("invalid UTF-8: {e}"),
        })
    }

    /// Reject unread payload bytes.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::checksum;

    #[test]
    fn checksum_is_xxh64_seed_0() {
        // Published XXH64 seed-0 vectors. The 39-byte one takes the
        // 32-byte stripe path, then the 4-byte and 1-byte tails.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_byte_flip_at_every_length_changes_the_checksum() {
        // Lengths 0..=96 reach every branch: under and over one stripe,
        // every count of 8-byte, 4-byte and 1-byte tail steps.
        let bytes: Vec<u8> = (0..=96u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for len in 0..=bytes.len() {
            let payload = &bytes[..len];
            let sum = checksum(payload);
            for pos in 0..len {
                let mut flipped = payload.to_vec();
                flipped[pos] ^= 0xFF;
                assert_ne!(checksum(&flipped), sum, "flip at {pos} of {len} bytes");
            }
        }
    }
}
