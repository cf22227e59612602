//! The one binary codec behind `.sinw` snapshots and `SINP` wire frames.
//!
//! Both formats wrap a checksummed payload in the same 24-byte header
//! (all integers little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic: `b"SINW"` (snapshot) or `b"SINP"` (frame) |
//! | 4      | 2    | format version (currently 1 for both) |
//! | 6      | 2    | snapshot: reserved, must be 0; frame: frame type |
//! | 8      | 8    | payload length in bytes |
//! | 16     | 8    | FNV-1a 64 checksum of the payload |
//! | 24     | n    | payload |
//!
//! This module owns that header, the checksum (also the registry's
//! content key, under a domain tag), the `put_*` writers, the one
//! bounds-checked [`Reader`], and the one decode error, [`CodecError`].
//!
//! Decoding is total: every read is bounds-checked, and every element
//! count is checked against the bytes that remain *before* anything is
//! sized by it, so a hostile count fails as [`CodecError::Malformed`]
//! instead of driving an allocation past the input's own length.

/// Header size of both formats, in bytes.
pub(crate) const HEADER_LEN: usize = 24;

/// FNV-1a 64 with a one-byte domain tag folded into the offset basis.
/// Domain 0 is the header checksum; the registry keys `.bench` text and
/// canonical circuit bytes under their own tags so they never alias.
pub(crate) fn fnv1a(domain: u8, bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ u64::from(domain);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a 64 of a payload: the checksum both headers carry.
#[must_use]
pub fn checksum(payload: &[u8]) -> u64 {
    fnv1a(0, payload)
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

/// Header + checksummed payload, ready to write.
pub(crate) fn encode_container(magic: [u8; 4], version: u16, kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    put_u16(&mut out, version);
    put_u16(&mut out, kind);
    put_u64(&mut out, payload.len() as u64);
    put_u64(&mut out, checksum(payload));
    out.extend_from_slice(payload);
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

/// `u32` count, then one `u64` per value.
pub(crate) fn put_u64s(out: &mut Vec<u8>, values: &[u64], what: &str) {
    put_count(out, values.len(), what);
    for &v in values {
        put_u64(out, v);
    }
}

/// `u32` count, then one `u64` per index.
pub(crate) fn put_indices(out: &mut Vec<u8>, values: &[usize], what: &str) {
    put_count(out, values.len(), what);
    for &v in values {
        put_u64(out, v as u64);
    }
}

/// A uniform-width pattern set: `u32` count, `u32` width, then one byte
/// per bit. Panics if the rows are not all the same width (primary-input
/// patterns always are, and `NetClient::submit` refuses ragged jobs
/// before encoding).
pub(crate) fn put_patterns(out: &mut Vec<u8>, patterns: &[Vec<bool>]) {
    let width = patterns.first().map_or(0, Vec::len);
    put_count(out, patterns.len(), "pattern");
    put_count(out, width, "pattern width");
    for p in patterns {
        assert_eq!(p.len(), width, "patterns must be uniform width");
        out.extend(p.iter().map(|&bit| u8::from(bit)));
    }
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
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

    pub(crate) fn bool(&mut self, context: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed {
                context,
                detail: format!("bool byte must be 0 or 1, got {other}"),
            }),
        }
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

    /// The mirror of [`put_u64s`].
    pub(crate) fn u64s(&mut self, context: &'static str) -> Result<Vec<u64>, CodecError> {
        let n = self.count(context, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// The mirror of [`put_indices`].
    pub(crate) fn indices(&mut self, context: &'static str) -> Result<Vec<usize>, CodecError> {
        Ok(self
            .u64s(context)?
            .into_iter()
            .map(|v| v as usize)
            .collect())
    }

    /// The mirror of [`put_patterns`]. A non-empty set of zero-width
    /// rows is malformed: it would allocate a row per count while
    /// consuming no bytes.
    pub(crate) fn patterns(&mut self, context: &'static str) -> Result<Vec<Vec<bool>>, CodecError> {
        let n = self.u32()? as usize;
        let width = self.u32()? as usize;
        if n > 0 && width == 0 {
            return Err(CodecError::Malformed {
                context,
                detail: format!("{n} patterns of width 0"),
            });
        }
        self.fits(context, n, width)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(self.bool(context)?);
            }
            out.push(row);
        }
        Ok(out)
    }

    /// The rest of the payload as raw bytes (always consumes to the
    /// end).
    pub(crate) fn rest(&mut self) -> Vec<u8> {
        let out = self.bytes[self.pos..].to_vec();
        self.pos = self.bytes.len();
        out
    }

    /// Reject unread payload bytes.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }
}
