//! The `.sinw` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message on a service connection is one **frame**: the crate's
//! shared 24-byte codec header (the same one that fronts a `.sinw`
//! snapshot) followed by a checksummed payload. The frame's header
//! carries magic `b"SINP"`, version [`WIRE_VERSION`], the **frame type**
//! in the `u16` at offset 6 (where a snapshot keeps a reserved zero),
//! the payload length, and the FNV-1a 64 checksum of the payload.
//!
//! Request frame types occupy `0x01..=0x7F`, response types
//! `0x80..=0xFF`; the concrete catalog lives in [`frame_type`]. All
//! multi-byte integers are little-endian. Patterns travel as one byte
//! per bit, strictly `0` or `1`.
//!
//! Decoding is **total**: any byte string — truncated, bit-flipped,
//! hostile lengths, fuzz soup — produces a typed [`CodecError`], never a
//! panic and never an allocation the input's own length does not
//! justify. Payload lengths are capped *before* any allocation
//! ([`CodecError::Oversized`]), every element count is bounds-checked
//! against the bytes that remain ([`CodecError::Malformed`]), and a
//! payload that decodes but leaves bytes unread is rejected
//! ([`CodecError::TrailingBytes`]).

use std::io::{Read, Write};

use sinw_atpg::faultsim::{FaultSimReport, SignatureMatrix};
use sinw_atpg::tpg::AtpgReport;

use crate::codec::{
    encode_container, parse_header, put_count, put_str, put_u16, put_u32, put_u64, CodecError,
    Reader, HEADER_LEN,
};
use crate::jobs::JobOutcome;

/// The four magic bytes every wire frame starts with (`.sinw`
/// **p**rotocol — one letter off the snapshot container's `SINW`).
pub const WIRE_MAGIC: [u8; 4] = *b"SINP";

/// The current protocol version.
pub const WIRE_VERSION: u16 = 1;

/// Default cap on a single frame's payload (64 MiB) — the bound
/// [`read_frame`] enforces before allocating.
pub const DEFAULT_MAX_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Frame type codes. Requests are `0x01..=0x7F`, responses
/// `0x80..=0xFF`.
pub mod frame_type {
    /// Register a `.bench` source text (name + source).
    pub const REGISTER_BENCH: u16 = 0x01;
    /// Register a pre-compiled `.sinw` snapshot byte string.
    pub const REGISTER_SNAPSHOT: u16 = 0x02;
    /// Submit a job against a registered circuit key.
    pub const SUBMIT_JOB: u16 = 0x03;
    /// Poll one job's progress counters.
    pub const JOB_PROGRESS: u16 = 0x04;
    /// Cooperatively cancel one job.
    pub const CANCEL_JOB: u16 = 0x05;
    /// Block on one job, streaming progress frames until the outcome.
    pub const AWAIT_JOB: u16 = 0x06;
    /// Fetch the `.sinw` snapshot bytes of a registered circuit.
    pub const FETCH_SNAPSHOT: u16 = 0x07;
    /// Fetch server-side registry/session counters.
    pub const STATS: u16 = 0x08;

    /// A circuit was registered (key + approximate resident bytes).
    pub const REGISTERED: u16 = 0x81;
    /// A job was accepted (job id).
    pub const SUBMITTED: u16 = 0x82;
    /// One progress observation of a job.
    pub const PROGRESS: u16 = 0x83;
    /// A job's terminal outcome.
    pub const OUTCOME: u16 = 0x84;
    /// Raw `.sinw` snapshot bytes.
    pub const SNAPSHOT_BYTES: u16 = 0x85;
    /// Server counters.
    pub const STATS_REPORT: u16 = 0x86;
    /// A typed error (code + message).
    pub const ERROR: u16 = 0x8F;
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// One observation from [`read_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete, checksum-verified frame.
    Frame {
        /// The header's frame-type code (not yet validated against the
        /// catalog — [`Request::decode`] / [`Response::decode`] do
        /// that).
        frame_type: u16,
        /// The verified payload.
        payload: Vec<u8>,
    },
    /// The peer closed the connection cleanly (EOF on a frame
    /// boundary).
    Closed,
    /// A read timeout expired with no frame bytes pending — the
    /// connection is idle, not broken.
    Idle,
}

/// Encode one complete frame (header + payload) into a byte string.
#[must_use]
pub fn encode_frame(frame_type: u16, payload: &[u8]) -> Vec<u8> {
    encode_container(WIRE_MAGIC, WIRE_VERSION, frame_type, payload)
}

/// Read one frame from `r`, enforcing `max_payload` before allocating.
///
/// EOF on a frame boundary is [`FrameEvent::Closed`]; a read timeout
/// (`WouldBlock` / `TimedOut`) with no frame bytes pending is
/// [`FrameEvent::Idle`]; EOF or a timeout *mid-frame* is
/// [`CodecError::Truncated`] — the stream can no longer be resynchronized.
///
/// # Errors
///
/// Any framing violation or socket failure maps to a typed
/// [`CodecError`]; this function never panics.
pub fn read_frame(r: &mut impl Read, max_payload: u64) -> Result<FrameEvent, CodecError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameEvent::Closed),
            Ok(0) => {
                return Err(CodecError::Truncated {
                    offset: filled,
                    needed: HEADER_LEN - filled,
                    available: 0,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(FrameEvent::Idle)
            }
            Err(e) => return Err(e.into()),
        }
    }
    let header = parse_header(&header, WIRE_MAGIC, WIRE_VERSION, max_payload)?;
    let len = header.len;
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(CodecError::Truncated {
                    offset: HEADER_LEN + got,
                    needed: len - got,
                    available: 0,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A timeout mid-frame: the peer stalled with a frame half
                // sent. Treated as truncation — the stream cannot be
                // resynchronized from here.
                return Err(CodecError::Truncated {
                    offset: HEADER_LEN + got,
                    needed: len - got,
                    available: got,
                });
            }
            Err(e) => return Err(e.into()),
        }
    }
    header.verify(&payload)?;
    Ok(FrameEvent::Frame {
        frame_type: header.kind,
        payload,
    })
}

/// Decode exactly one frame from an in-memory buffer. Unlike
/// [`read_frame`] this rejects trailing bytes after the payload —
/// the adversarial battery's strict single-frame oracle.
///
/// # Errors
///
/// Any framing violation maps to a typed [`CodecError`]; never panics.
pub fn decode_frame(bytes: &[u8], max_payload: u64) -> Result<(u16, Vec<u8>), CodecError> {
    let header = parse_header(bytes, WIRE_MAGIC, WIRE_VERSION, max_payload)?;
    let payload = header.verify(&bytes[HEADER_LEN..])?;
    Ok((header.kind, payload.to_vec()))
}

/// Write one frame to `w` (header + payload, then flush).
///
/// # Errors
///
/// Returns [`CodecError::Io`] when the underlying write or flush fails.
pub fn write_frame(w: &mut impl Write, frame_type: u16, payload: &[u8]) -> Result<(), CodecError> {
    let frame = encode_frame(frame_type, payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------

/// One wire field type: how it is written and how it is read back.
/// `context` names the field in a [`CodecError::Malformed`].
trait Field: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError>;
}

impl Field for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Field for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        r.u64()
    }
}

/// One byte, strictly `0` or `1`.
impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed {
                context,
                detail: format!("bool byte must be 0 or 1, got {other}"),
            }),
        }
    }
}

/// `u32` byte length, then the UTF-8 bytes.
impl Field for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        r.str(context)
    }
}

/// Raw bytes running to the end of the payload (a `.sinw` container).
impl Field for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        Ok(r.take(r.remaining())?.to_vec())
    }
}

/// `u32` count, then one `u64` per value.
fn put_u64s(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    put_count(out, values.len(), "u64 list");
    for v in values {
        put_u64(out, v);
    }
}

fn get_u64s<T>(
    r: &mut Reader<'_>,
    context: &'static str,
    from: impl Fn(u64) -> T,
) -> Result<Vec<T>, CodecError> {
    let n = r.count(context, 8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(from(r.u64()?));
    }
    Ok(out)
}

impl Field for Vec<u64> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64s(out, self.iter().copied());
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        get_u64s(r, context, |v| v)
    }
}

/// Indices travel as `u64`s.
impl Field for Vec<usize> {
    fn put(&self, out: &mut Vec<u8>) {
        put_u64s(out, self.iter().map(|&v| v as u64));
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        get_u64s(r, context, |v| v as usize)
    }
}

/// A uniform-width pattern set: `u32` count, `u32` width, then one byte
/// per bit. Encoding panics if the rows are not all the same width
/// (primary-input patterns always are, and `NetClient::submit` refuses
/// ragged jobs before encoding). A non-empty set of zero-width rows is
/// malformed: it would allocate a row per count while consuming no
/// bytes.
impl Field for Vec<Vec<bool>> {
    fn put(&self, out: &mut Vec<u8>) {
        let width = self.first().map_or(0, Vec::len);
        put_count(out, self.len(), "pattern");
        put_count(out, width, "pattern width");
        for p in self {
            assert_eq!(p.len(), width, "patterns must be uniform width");
            out.extend(p.iter().map(|&bit| u8::from(bit)));
        }
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        let n = r.u32()? as usize;
        let width = r.u32()? as usize;
        if n > 0 && width == 0 {
            return Err(CodecError::Malformed {
                context,
                detail: format!("{n} patterns of width 0"),
            });
        }
        r.fits(context, n, width)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(width);
            for _ in 0..width {
                row.push(bool::get(r, context)?);
            }
            out.push(row);
        }
        Ok(out)
    }
}

/// The `u16` on-wire code.
impl Field for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        put_u16(out, self.code());
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        let raw = r.u16()?;
        ErrorCode::from_code(raw).ok_or_else(|| CodecError::Malformed {
            context,
            detail: format!("unknown error code {raw}"),
        })
    }
}

/// Nine `u64` counters, in declaration order.
impl Field for WireStats {
    fn put(&self, out: &mut Vec<u8>) {
        let mut stats = *self;
        for v in stats.counters() {
            put_u64(out, *v);
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, CodecError> {
        let mut stats = WireStats::default();
        for v in stats.counters() {
            *v = r.u64()?;
        }
        Ok(stats)
    }
}

/// A message enum: a code naming the variant, then the variant's
/// fields. Implemented by [`wire_fields!`].
trait Message: Sized {
    type Code;
    fn code(&self) -> Self::Code;
    fn put_fields(&self, out: &mut Vec<u8>);
    /// `None` when `code` names no variant.
    fn get_fields(code: Self::Code, r: &mut Reader<'_>) -> Result<Option<Self>, CodecError>;
}

/// A nested message ([`WireJob`], [`WireOutcome`]): a one-byte tag,
/// then the variant's fields.
impl<T: Message<Code = u8>> Field for T {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.code());
        self.put_fields(out);
    }
    fn get(r: &mut Reader<'_>, context: &'static str) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        T::get_fields(tag, r)?.ok_or_else(|| CodecError::Malformed {
            context,
            detail: format!("unknown {context} {tag}"),
        })
    }
}

/// One field list per message enum, in wire order:
/// `code => Variant { field: binding "decode context", … }` (tuple
/// variants name their field `0`). Implements [`Message`] from it, so
/// the encoder and the decoder cannot disagree on the field order.
macro_rules! wire_fields {
    ($ty:ident: $code_ty:ty {
        $($code:expr => $variant:ident { $($field:tt: $bind:ident $ctx:literal),* $(,)? }),* $(,)?
    }) => {
        impl Message for $ty {
            type Code = $code_ty;

            fn code(&self) -> $code_ty {
                match self {
                    $($ty::$variant { .. } => $code,)*
                }
            }

            fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($field: $bind),* } => {
                        $(Field::put($bind, out);)*
                    })*
                }
            }

            fn get_fields(code: $code_ty, r: &mut Reader<'_>) -> Result<Option<Self>, CodecError> {
                $(if code == $code {
                    return Ok(Some($ty::$variant { $($field: Field::get(r, $ctx)?),* }));
                })*
                Ok(None)
            }
        }
    };
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A job specification as it travels on the wire: the circuit is named
/// by its registry **key**, patterns travel inline, and a timeout in
/// milliseconds (0 = none) becomes a server-side
/// [`JobPolicy`](crate::jobs::JobPolicy) deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireJob {
    /// PPSFP fault simulation against inline patterns.
    FaultSim {
        /// Registry key of the compiled circuit.
        key: u64,
        /// Patterns, one `bool` per primary input each.
        patterns: Vec<Vec<bool>>,
        /// Drop faults after first detection.
        drop_detected: bool,
        /// Intra-job worker threads (clamped server-side to between one
        /// and the host's available parallelism).
        threads: u32,
        /// Deadline in milliseconds; 0 means none.
        timeout_ms: u64,
    },
    /// Full signature capture against inline patterns.
    Signatures {
        /// Registry key of the compiled circuit.
        key: u64,
        /// Patterns, one `bool` per primary input each.
        patterns: Vec<Vec<bool>>,
        /// Intra-job worker threads (clamped server-side to between one
        /// and the host's available parallelism).
        threads: u32,
        /// Deadline in milliseconds; 0 means none.
        timeout_ms: u64,
    },
    /// A full ATPG campaign under the default configuration with the
    /// given seed.
    Campaign {
        /// Registry key of the compiled circuit.
        key: u64,
        /// Seed of the campaign's random phase.
        seed: u64,
        /// Deadline in milliseconds; 0 means none.
        timeout_ms: u64,
    },
}

wire_fields!(WireJob: u8 {
    1 => FaultSim {
        key: key "job key",
        drop_detected: drop_detected "job drop_detected",
        threads: threads "job threads",
        timeout_ms: timeout_ms "job timeout",
        patterns: patterns "job patterns",
    },
    2 => Signatures {
        key: key "job key",
        threads: threads "job threads",
        timeout_ms: timeout_ms "job timeout",
        patterns: patterns "job patterns",
    },
    3 => Campaign {
        key: key "job key",
        seed: seed "campaign seed",
        timeout_ms: timeout_ms "job timeout",
    },
});

/// A client request, one frame each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register a `.bench` source text.
    RegisterBench {
        /// Circuit label.
        name: String,
        /// The `.bench` source.
        source: String,
    },
    /// Register a pre-compiled `.sinw` snapshot.
    RegisterSnapshot {
        /// The raw `.sinw` container bytes.
        bytes: Vec<u8>,
    },
    /// Submit a job.
    SubmitJob(WireJob),
    /// Poll a job's progress counters.
    JobProgress {
        /// Id from [`Response::Submitted`].
        job: u64,
    },
    /// Cancel a job.
    CancelJob {
        /// Id from [`Response::Submitted`].
        job: u64,
    },
    /// Block on a job; the server streams [`Response::Progress`] frames
    /// until the [`Response::Outcome`].
    AwaitJob {
        /// Id from [`Response::Submitted`].
        job: u64,
    },
    /// Fetch the `.sinw` snapshot of a registered circuit.
    FetchSnapshot {
        /// Registry key.
        key: u64,
    },
    /// Fetch server counters.
    Stats,
}

wire_fields!(Request: u16 {
    frame_type::REGISTER_BENCH => RegisterBench {
        name: name "bench name",
        source: source "bench source",
    },
    frame_type::REGISTER_SNAPSHOT => RegisterSnapshot { bytes: bytes "snapshot bytes" },
    frame_type::SUBMIT_JOB => SubmitJob { 0: job "job tag" },
    frame_type::JOB_PROGRESS => JobProgress { job: job "job id" },
    frame_type::CANCEL_JOB => CancelJob { job: job "job id" },
    frame_type::AWAIT_JOB => AwaitJob { job: job "job id" },
    frame_type::FETCH_SNAPSHOT => FetchSnapshot { key: key "registry key" },
    frame_type::STATS => Stats {},
});

impl Request {
    /// Encode into `(frame_type, payload)`, ready for [`write_frame`].
    #[must_use]
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut out = Vec::new();
        self.put_fields(&mut out);
        (self.code(), out)
    }

    /// Decode a request payload. Total: every malformed payload is a
    /// typed [`CodecError`], and the payload must be fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownFrameType`] when `ty` is not a request code;
    /// otherwise the typed decode failure.
    pub fn decode(ty: u16, payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let req =
            Self::get_fields(ty, &mut r)?.ok_or(CodecError::UnknownFrameType { found: ty })?;
        r.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Typed server-side error codes carried by [`Response::Error`]; the
/// discriminant is the on-wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload failed to decode.
    BadFrame = 1,
    /// The frame decoded but its type is not a request this server
    /// serves.
    UnknownRequest = 2,
    /// The `.bench` source failed to parse.
    Parse = 3,
    /// The compile pipeline failed (or panicked) on the source.
    CompileFailed = 4,
    /// The artifact exceeds the registry's byte capacity.
    Oversized = 5,
    /// The session's cumulative register-byte quota is exhausted.
    ByteQuota = 6,
    /// The session's in-flight job quota is exhausted.
    JobQuota = 7,
    /// The job id names no job of this session.
    UnknownJob = 8,
    /// The key names no registered circuit.
    UnknownKey = 9,
    /// The uploaded `.sinw` snapshot failed to decode.
    SnapshotRejected = 10,
    /// The server is draining: in-flight work finishes, new work is
    /// refused.
    Draining = 11,
}

impl ErrorCode {
    /// The on-wire code.
    #[must_use]
    pub fn code(self) -> u16 {
        self as u16
    }

    /// Inverse of [`code`](ErrorCode::code).
    #[must_use]
    pub fn from_code(code: u16) -> Option<Self> {
        use ErrorCode::*;
        [
            BadFrame,
            UnknownRequest,
            Parse,
            CompileFailed,
            Oversized,
            ByteQuota,
            JobQuota,
            UnknownJob,
            UnknownKey,
            SnapshotRejected,
            Draining,
        ]
        .into_iter()
        .find(|c| c.code() == code)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A job's terminal outcome as it travels on the wire. Reports carry
/// the fields the identity tests compare bit-for-bit; campaign wall
/// times and per-fault statuses stay server-side (they are profiling
/// detail, not results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// Fault-simulation result (indices into the collapsed
    /// representative list).
    FaultSim {
        /// Detected fault indices, ascending.
        detected: Vec<usize>,
        /// Undetected fault indices, ascending.
        undetected: Vec<usize>,
        /// Per-pattern first-detection credit.
        first_detections: Vec<usize>,
    },
    /// Captured signature matrix geometry + packed bits.
    Signatures {
        /// Number of faults (rows).
        faults: u64,
        /// Number of patterns.
        patterns: u64,
        /// Number of primary outputs.
        outputs: u64,
        /// Row-major packed bits.
        bits: Vec<u64>,
    },
    /// Campaign results (the deterministic fields; wall times stay
    /// server-side).
    Campaign {
        /// The final compacted pattern set.
        patterns: Vec<Vec<bool>>,
        /// Size of the targeted fault list.
        total_faults: u64,
        /// Faults first detected in the random phase.
        detected_random: u64,
        /// Faults first detected deterministically.
        detected_deterministic: u64,
        /// Faults proved redundant.
        untestable: u64,
        /// Faults abandoned at the backtrack limit.
        aborted: u64,
        /// Total PODEM invocations.
        podem_calls: u64,
    },
    /// The job was cancelled before it finished.
    Cancelled,
    /// The job's deadline expired before it finished.
    TimedOut,
    /// The job could not produce a result.
    Failed {
        /// What went wrong.
        reason: String,
    },
}

wire_fields!(WireOutcome: u8 {
    1 => FaultSim {
        detected: detected "detected faults",
        undetected: undetected "undetected faults",
        first_detections: first_detections "first detections",
    },
    2 => Signatures {
        faults: faults "signature faults",
        patterns: patterns "signature patterns",
        outputs: outputs "signature outputs",
        bits: bits "signature words",
    },
    3 => Campaign {
        total_faults: total_faults "campaign total_faults",
        detected_random: detected_random "campaign detected_random",
        detected_deterministic: detected_deterministic "campaign detected_deterministic",
        untestable: untestable "campaign untestable",
        aborted: aborted "campaign aborted",
        podem_calls: podem_calls "campaign podem_calls",
        patterns: patterns "campaign patterns",
    },
    4 => Cancelled {},
    5 => TimedOut {},
    6 => Failed { reason: reason "failure reason" },
});

impl WireOutcome {
    /// Project an engine [`JobOutcome`] onto its wire form — the
    /// conversion the server applies before the final frame of an
    /// `AwaitJob`, and the one identity tests apply to their in-process
    /// reference outcomes.
    #[must_use]
    pub fn from_outcome(outcome: &JobOutcome) -> Self {
        match outcome {
            JobOutcome::FaultSim(report) => Self::from_fault_sim(report),
            JobOutcome::Signatures(matrix) => Self::from_signatures(matrix),
            JobOutcome::Campaign(report) => Self::from_campaign(report),
            JobOutcome::Cancelled => WireOutcome::Cancelled,
            JobOutcome::TimedOut => WireOutcome::TimedOut,
            JobOutcome::Failed { reason } => WireOutcome::Failed {
                reason: reason.clone(),
            },
        }
    }

    /// Wire form of a [`FaultSimReport`].
    #[must_use]
    pub fn from_fault_sim(report: &FaultSimReport) -> Self {
        WireOutcome::FaultSim {
            detected: report.detected.clone(),
            undetected: report.undetected.clone(),
            first_detections: report.first_detections.clone(),
        }
    }

    /// Wire form of a [`SignatureMatrix`].
    #[must_use]
    pub fn from_signatures(matrix: &SignatureMatrix) -> Self {
        WireOutcome::Signatures {
            faults: matrix.fault_count() as u64,
            patterns: matrix.pattern_count() as u64,
            outputs: matrix.output_count() as u64,
            bits: matrix.bits().to_vec(),
        }
    }

    /// Wire form of an [`AtpgReport`] (deterministic fields only).
    fn from_campaign(report: &AtpgReport) -> Self {
        WireOutcome::Campaign {
            patterns: report.patterns.clone(),
            total_faults: report.total_faults as u64,
            detected_random: report.detected_random as u64,
            detected_deterministic: report.detected_deterministic as u64,
            untestable: report.untestable as u64,
            aborted: report.aborted as u64,
            podem_calls: report.podem_calls as u64,
        }
    }
}

/// Server counters shipped by [`Response::StatsReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Currently open sessions.
    pub sessions: u64,
    /// Jobs accepted over the server's lifetime.
    pub jobs_submitted: u64,
    /// Registry hits.
    pub hits: u64,
    /// Registry misses.
    pub misses: u64,
    /// Compile-pipeline runs actually performed.
    pub compiles: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Currently resident registry entries.
    pub entries: u64,
    /// Currently resident registry bytes.
    pub bytes: u64,
    /// Registry byte capacity.
    pub capacity: u64,
}

impl WireStats {
    /// The counters in wire order.
    fn counters(&mut self) -> [&mut u64; 9] {
        [
            &mut self.sessions,
            &mut self.jobs_submitted,
            &mut self.hits,
            &mut self.misses,
            &mut self.compiles,
            &mut self.evictions,
            &mut self.entries,
            &mut self.bytes,
            &mut self.capacity,
        ]
    }
}

/// A server response, one frame each (an `AwaitJob` elicits a stream of
/// [`Response::Progress`] frames capped by one [`Response::Outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A circuit was registered (or was already resident).
    Registered {
        /// Content-hash registry key — the handle every job names.
        key: u64,
        /// Approximate resident bytes of the compiled artifact.
        approx_bytes: u64,
    },
    /// A job was accepted.
    Submitted {
        /// Engine job id, scoped to this session.
        job: u64,
    },
    /// One progress observation.
    Progress {
        /// The observed job.
        job: u64,
        /// Work units finished.
        done: u64,
        /// Total work units.
        total: u64,
        /// Whether the job has reached a terminal outcome.
        finished: bool,
    },
    /// A job's terminal outcome.
    Outcome {
        /// The finished job.
        job: u64,
        /// Its wire-form outcome.
        outcome: WireOutcome,
    },
    /// Raw `.sinw` snapshot bytes.
    SnapshotBytes {
        /// The container bytes, decodable by
        /// [`Snapshot::decode`](crate::snapshot::Snapshot::decode).
        bytes: Vec<u8>,
    },
    /// Server counters.
    StatsReport(WireStats),
    /// A typed error.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

wire_fields!(Response: u16 {
    frame_type::REGISTERED => Registered {
        key: key "registry key",
        approx_bytes: approx_bytes "approx bytes",
    },
    frame_type::SUBMITTED => Submitted { job: job "job id" },
    frame_type::PROGRESS => Progress {
        job: job "job id",
        done: done "progress done",
        total: total "progress total",
        finished: finished "progress finished",
    },
    frame_type::OUTCOME => Outcome {
        job: job "job id",
        outcome: outcome "outcome tag",
    },
    frame_type::SNAPSHOT_BYTES => SnapshotBytes { bytes: bytes "snapshot bytes" },
    frame_type::STATS_REPORT => StatsReport { 0: stats "stats" },
    frame_type::ERROR => Error {
        code: code "error code",
        message: message "error message",
    },
});

impl Response {
    /// Encode into `(frame_type, payload)`, ready for [`write_frame`].
    #[must_use]
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut out = Vec::new();
        self.put_fields(&mut out);
        (self.code(), out)
    }

    /// Decode a response payload. Total, full-consumption, typed — the
    /// mirror of [`Request::decode`].
    ///
    /// # Errors
    ///
    /// [`CodecError::UnknownFrameType`] when `ty` is not a response
    /// code; otherwise the typed decode failure.
    pub fn decode(ty: u16, payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let resp =
            Self::get_fields(ty, &mut r)?.ok_or(CodecError::UnknownFrameType { found: ty })?;
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip_request(req: &Request) {
        let (ty, payload) = req.encode();
        let decoded = Request::decode(ty, &payload).expect("round trip");
        assert_eq!(&decoded, req);
    }

    fn round_trip_response(resp: &Response) {
        let (ty, payload) = resp.encode();
        let decoded = Response::decode(ty, &payload).expect("round trip");
        assert_eq!(&decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::RegisterBench {
            name: String::from("c17"),
            source: String::from("INPUT(a)\nOUTPUT(z)\nz = NAND(a, a)\n"),
        });
        round_trip_request(&Request::RegisterSnapshot {
            bytes: vec![1, 2, 3, 255],
        });
        round_trip_request(&Request::SubmitJob(WireJob::FaultSim {
            key: 0xDEAD_BEEF,
            patterns: vec![vec![true, false, true], vec![false, false, true]],
            drop_detected: true,
            threads: 2,
            timeout_ms: 5000,
        }));
        round_trip_request(&Request::SubmitJob(WireJob::Signatures {
            key: 7,
            patterns: vec![],
            threads: 1,
            timeout_ms: 0,
        }));
        round_trip_request(&Request::SubmitJob(WireJob::Campaign {
            key: 9,
            seed: 42,
            timeout_ms: 100,
        }));
        round_trip_request(&Request::JobProgress { job: 3 });
        round_trip_request(&Request::CancelJob { job: 4 });
        round_trip_request(&Request::AwaitJob { job: 5 });
        round_trip_request(&Request::FetchSnapshot { key: 6 });
        round_trip_request(&Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Registered {
            key: 1,
            approx_bytes: 4096,
        });
        round_trip_response(&Response::Submitted { job: 2 });
        round_trip_response(&Response::Progress {
            job: 2,
            done: 3,
            total: 9,
            finished: false,
        });
        round_trip_response(&Response::Outcome {
            job: 2,
            outcome: WireOutcome::FaultSim {
                detected: vec![0, 2, 5],
                undetected: vec![1],
                first_detections: vec![2, 0, 1],
            },
        });
        round_trip_response(&Response::Outcome {
            job: 3,
            outcome: WireOutcome::Signatures {
                faults: 2,
                patterns: 4,
                outputs: 8,
                bits: vec![0xAAAA, 0x5555],
            },
        });
        round_trip_response(&Response::Outcome {
            job: 4,
            outcome: WireOutcome::Campaign {
                patterns: vec![vec![true, true], vec![false, true]],
                total_faults: 10,
                detected_random: 4,
                detected_deterministic: 5,
                untestable: 1,
                aborted: 0,
                podem_calls: 6,
            },
        });
        round_trip_response(&Response::Outcome {
            job: 5,
            outcome: WireOutcome::Cancelled,
        });
        round_trip_response(&Response::Outcome {
            job: 6,
            outcome: WireOutcome::TimedOut,
        });
        round_trip_response(&Response::Outcome {
            job: 7,
            outcome: WireOutcome::Failed {
                reason: String::from("injected"),
            },
        });
        round_trip_response(&Response::SnapshotBytes { bytes: vec![0; 64] });
        round_trip_response(&Response::StatsReport(WireStats {
            sessions: 1,
            jobs_submitted: 2,
            hits: 3,
            misses: 4,
            compiles: 5,
            evictions: 6,
            entries: 7,
            bytes: 8,
            capacity: 9,
        }));
        round_trip_response(&Response::Error {
            code: ErrorCode::ByteQuota,
            message: String::from("quota exhausted"),
        });
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let (ty, payload) = Request::JobProgress { job: 17 }.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, ty, &payload).expect("write");
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("read") {
            FrameEvent::Frame {
                frame_type,
                payload,
            } => {
                assert_eq!(frame_type, ty);
                assert_eq!(
                    Request::decode(frame_type, &payload).expect("decode"),
                    Request::JobProgress { job: 17 }
                );
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        // And the stream is now cleanly closed.
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).expect("eof"),
            FrameEvent::Closed
        );
    }

    #[test]
    fn hostile_length_dies_before_allocation() {
        let mut frame = encode_frame(frame_type::STATS, &[]);
        frame[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_frame(&frame, DEFAULT_MAX_PAYLOAD).expect_err("must reject");
        assert!(matches!(err, CodecError::Oversized { .. }), "got {err:?}");
    }

    #[test]
    fn trailing_bytes_inside_a_payload_are_rejected() {
        let (ty, mut payload) = Request::JobProgress { job: 1 }.encode();
        payload.push(0);
        let err = Request::decode(ty, &payload).expect_err("must reject");
        assert_eq!(err, CodecError::TrailingBytes { extra: 1 });
    }

    #[test]
    fn unknown_frame_types_are_typed() {
        assert_eq!(
            Request::decode(0x7E, &[]),
            Err(CodecError::UnknownFrameType { found: 0x7E })
        );
        assert_eq!(
            Response::decode(0xFE, &[]),
            Err(CodecError::UnknownFrameType { found: 0xFE })
        );
        // A response code handed to the request decoder is unknown too.
        assert!(matches!(
            Request::decode(frame_type::ERROR, &[]),
            Err(CodecError::UnknownFrameType { .. })
        ));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::UnknownRequest,
            ErrorCode::Parse,
            ErrorCode::CompileFailed,
            ErrorCode::Oversized,
            ErrorCode::ByteQuota,
            ErrorCode::JobQuota,
            ErrorCode::UnknownJob,
            ErrorCode::UnknownKey,
            ErrorCode::SnapshotRejected,
            ErrorCode::Draining,
        ] {
            assert_eq!(ErrorCode::from_code(code.code()), Some(code));
        }
        assert_eq!(ErrorCode::from_code(0), None);
        assert_eq!(ErrorCode::from_code(999), None);
    }
}
