//! The versioned binary `.sinw` snapshot format.
//!
//! A snapshot lets a service session survive a restart without
//! re-parsing `.bench` text or re-deriving the fault universe: it
//! serializes a mapped [`Circuit`], its enumerated stuck-at universe,
//! the structural collapse, and (optionally) a class-compressed
//! [`FaultDictionary`] — everything expensive about a
//! [`CompiledCircuit`](crate::registry::CompiledCircuit) except the
//! [`SimGraph`](sinw_atpg::SimGraph) precompute, which is derived state
//! and cheaper to rebuild than to ship.
//!
//! ## Container
//!
//! The payload sits in the shared 24-byte header of the crate's binary
//! codec: magic `b"SINW"`, version [`SNAPSHOT_VERSION`], a reserved
//! `u16` that must be 0, the payload length, and the XXH64
//! [`checksum`](crate::checksum) of the payload. The same header fronts
//! every `SINP` wire frame (see [`crate::wire`]). All integers are
//! little-endian.
//!
//! ## Payload sections, in order
//!
//! | section | contents |
//! |---------|----------|
//! | name    | `str` — circuit name |
//! | circuit | `u32` signal count; per signal a tagged creation op (`0` = primary input + `str` name; `1` = gate + `u8` cell code + `str` instance name + one `u32` input id per cell pin + `str` output-signal name); `u32` output count + `u32` ids |
//! | faults  | `u32` count; per fault `u8` site tag (`0` = stem + `u32` signal, `1` = branch + `u32` gate + `u32` pin) + `u8` stuck value |
//! | collapse | `u8` presence; if present `u32` representative count + representatives (fault encoding) + `u32` class count + `u32` class index per fault |
//! | dictionary | `u8` presence; if present `u32` patterns + `u32` outputs + `u32` classes + `u32` faults + packed `u64` class signatures + `u32` class index per fault |
//!
//! `str` is a `u32` byte length followed by UTF-8 bytes. The circuit
//! section is a **replay log in signal-id order**: decoding replays each
//! creation op through the [`Circuit`] builder, which reproduces signal
//! ids, gate ids, topological order, and the fanout index exactly —
//! re-encoding a decoded snapshot is guaranteed byte-identical.
//!
//! ## Decode discipline
//!
//! Decoding is total: any byte string produces either a [`Snapshot`] or
//! a typed [`CodecError`] — never a panic and never an allocation
//! larger than the input justifies. Every count is bounds-checked
//! against the remaining payload *before* any allocation, every signal /
//! gate / pin / class index is range-checked against the structure
//! decoded so far, and the builder's own arity and topological-order
//! checks run on replay.

use sinw_atpg::collapse::CollapsedFaults;
use sinw_atpg::diagnose::FaultDictionary;
use sinw_atpg::fault_list::{FaultSite, StuckAtFault};
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, GateId, SignalId};

use crate::codec::{
    encode_container, io_error, parse_header, put_count, put_str, put_u64, CodecError, Reader,
    HEADER_LEN,
};

/// The four magic bytes every `.sinw` file starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SINW";

/// The current format version. Version 2 checksums the payload with
/// XXH64; a version-1 (FNV-1a) snapshot is rejected as
/// [`CodecError::UnsupportedVersion`] before its checksum is read.
pub const SNAPSHOT_VERSION: u16 = 2;

/// A decoded (or to-be-encoded) `.sinw` snapshot.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Circuit name (a label; not part of any registry key).
    pub name: String,
    /// The mapped gate-level circuit.
    pub circuit: Circuit,
    /// The enumerated stuck-at universe (may be empty if the writer
    /// chose not to store it).
    pub faults: Vec<StuckAtFault>,
    /// Structural collapse of `faults`, when stored.
    pub collapsed: Option<CollapsedFaults>,
    /// A class-compressed fault dictionary, when stored.
    pub dictionary: Option<FaultDictionary>,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_fault(out: &mut Vec<u8>, fault: StuckAtFault) {
    match fault.site {
        FaultSite::Signal(s) => {
            out.push(0);
            put_count(out, s.0, "signal id");
        }
        FaultSite::GatePin(g, pin) => {
            out.push(1);
            put_count(out, g.0, "gate id");
            put_count(out, pin, "pin");
        }
    }
    out.push(u8::from(fault.value));
}

/// Append the canonical circuit section (the replay log in signal-id
/// order). Also the byte string [`crate::registry`] hashes to key
/// circuits that have no `.bench` source text.
fn put_circuit(out: &mut Vec<u8>, circuit: &Circuit) {
    put_count(out, circuit.signal_count(), "signal");
    for s in 0..circuit.signal_count() {
        let sig = SignalId(s);
        match circuit.driver(sig) {
            None => {
                out.push(0);
                put_str(out, circuit.signal_name(sig));
            }
            Some(gid) => {
                let gate = &circuit.gates()[gid.0];
                out.push(1);
                out.push(gate.kind.code());
                put_str(out, &gate.name);
                for input in &gate.inputs {
                    put_count(out, input.0, "gate input id");
                }
                put_str(out, circuit.signal_name(sig));
            }
        }
    }
    put_count(out, circuit.primary_outputs().len(), "primary output");
    for po in circuit.primary_outputs() {
        put_count(out, po.0, "primary output id");
    }
}

/// The canonical byte encoding of a circuit alone — the content the
/// registry hashes for circuits with no source text. Identical circuit
/// structure ⇒ identical bytes.
#[must_use]
pub fn canonical_circuit_bytes(circuit: &Circuit) -> Vec<u8> {
    let mut out = Vec::new();
    put_circuit(&mut out, circuit);
    out
}

/// A snapshot's parts, borrowed: the one `.sinw` writer, behind both
/// [`Snapshot::encode`] and the registry's artifacts, which encode
/// straight from their own parts instead of cloning them into a
/// [`Snapshot`] first.
pub(crate) struct SnapshotParts<'a> {
    pub(crate) name: &'a str,
    pub(crate) circuit: &'a Circuit,
    pub(crate) faults: &'a [StuckAtFault],
    pub(crate) collapsed: Option<&'a CollapsedFaults>,
    pub(crate) dictionary: Option<&'a FaultDictionary>,
}

impl SnapshotParts<'_> {
    /// Encode into a self-contained `.sinw` byte string (header +
    /// checksummed payload). See [`Snapshot::encode`].
    pub(crate) fn encode(&self) -> Vec<u8> {
        // Panic / delay injection site; an `ioerr` arm is meaningless
        // here (encoding is infallible) and is deliberately ignored.
        let _ = crate::failpoint::hit("snapshot.encode");
        encode_container(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, |out| {
            self.put_payload(out)
        })
    }

    fn put_payload(&self, payload: &mut Vec<u8>) {
        put_str(payload, self.name);
        put_circuit(payload, self.circuit);

        put_count(payload, self.faults.len(), "fault");
        for &fault in self.faults {
            put_fault(payload, fault);
        }

        match self.collapsed {
            None => payload.push(0),
            Some(collapsed) => {
                payload.push(1);
                put_count(payload, collapsed.representatives.len(), "representative");
                for &rep in &collapsed.representatives {
                    put_fault(payload, rep);
                }
                put_count(payload, collapsed.class_of.len(), "collapse class");
                for &class in &collapsed.class_of {
                    put_count(payload, class, "collapse class index");
                }
            }
        }

        match self.dictionary {
            None => payload.push(0),
            Some(dict) => {
                payload.push(1);
                put_count(payload, dict.pattern_count(), "dictionary pattern");
                put_count(payload, dict.output_count(), "dictionary output");
                put_count(payload, dict.class_count(), "dictionary class");
                put_count(payload, dict.fault_count(), "dictionary fault");
                for class in 0..dict.class_count() {
                    for &word in dict.class_signature(class) {
                        put_u64(payload, word);
                    }
                }
                for &class in dict.class_of() {
                    put_count(payload, class, "dictionary class index");
                }
            }
        }
    }
}

impl Snapshot {
    /// Encode into a self-contained `.sinw` byte string (header +
    /// checksummed payload).
    ///
    /// # Panics
    ///
    /// Panics if any count exceeds `u32::MAX` — beyond the format's
    /// addressing, and orders of magnitude beyond any circuit in the
    /// workspace.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        SnapshotParts {
            name: &self.name,
            circuit: &self.circuit,
            faults: &self.faults,
            collapsed: self.collapsed.as_ref(),
            dictionary: self.dictionary.as_ref(),
        }
        .encode()
    }

    /// Decode a `.sinw` byte string.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CodecError`] describing the first problem
    /// found; see the module docs for the decode discipline.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        crate::failpoint::hit("snapshot.decode").map_err(|e| CodecError::Malformed {
            context: "fail point",
            detail: e.to_string(),
        })?;
        let header = parse_header(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, u64::MAX)?;
        if header.kind != 0 {
            return Err(CodecError::ReservedNonZero { found: header.kind });
        }
        let mut r = Reader::new(header.verify(&bytes[HEADER_LEN..])?);
        let name = r.str("name")?;
        let circuit = read_circuit(&mut r)?;
        let faults = read_faults(&mut r, &circuit)?;
        let collapsed = read_collapse(&mut r, &circuit, &faults)?;
        let dictionary = read_dictionary(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::Malformed {
                context: "payload",
                detail: format!("{} undecoded bytes after the last section", r.remaining()),
            });
        }
        Ok(Snapshot {
            name,
            circuit,
            faults,
            collapsed,
            dictionary,
        })
    }

    /// Encode and write to `path` **atomically**: the bytes land in a
    /// `.tmp` sibling first, are fsynced, and only then renamed over
    /// `path` (followed by a directory fsync). A crash at any step
    /// leaves either the old file or the new file — never a torn
    /// mixture; at worst a `.tmp` orphan remains, which
    /// [`SnapshotStore::open`](crate::store::SnapshotStore::open) sweeps
    /// on the next boot.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Io`] / [`CodecError::NotFound`] on
    /// filesystem failure.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), CodecError> {
        write_bytes_atomic(path.as_ref(), &self.encode())
    }

    /// Read and decode `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::NotFound`] when the file does not exist,
    /// [`CodecError::Io`] on any other filesystem failure, else any
    /// decode error of the file's contents.
    pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<Self, CodecError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| io_error(path, &e))?;
        crate::failpoint::hit("snapshot.read.io")
            .map_err(|e| io_error(path, &std::io::Error::from(e)))?;
        Self::decode(&bytes)
    }
}

/// The atomic write protocol behind [`Snapshot::write_file`] and the
/// [`SnapshotStore`](crate::store::SnapshotStore): temp sibling → fsync
/// → rename → directory fsync. Fail points cover each step (see the
/// [`failpoint`](crate::failpoint) catalog); an injected fault between
/// fsync and rename deliberately leaves the temp file behind to simulate
/// crash debris.
pub(crate) fn write_bytes_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), CodecError> {
    use std::io::Write as _;

    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        let e = std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "path has no usable file name",
        );
        io_error(path, &e)
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let tmp = dir.join(format!("{file_name}.{}.tmp", std::process::id()));

    crate::failpoint::hit("snapshot.write.tmp")
        .map_err(|e| io_error(&tmp, &std::io::Error::from(e)))?;
    let mut file = std::fs::File::create(&tmp).map_err(|e| io_error(&tmp, &e))?;
    file.write_all(bytes).map_err(|e| io_error(&tmp, &e))?;
    if let Err(e) = crate::failpoint::hit("snapshot.write.fsync") {
        // Fault before the data is durable: withdraw the temp file so a
        // half-written artifact can never be mistaken for a snapshot.
        drop(file);
        let _ = std::fs::remove_file(&tmp);
        return Err(io_error(&tmp, &std::io::Error::from(e)));
    }
    file.sync_all().map_err(|e| io_error(&tmp, &e))?;
    drop(file);
    // A fault here models a crash between making the temp durable and
    // publishing it: the temp file is left behind on purpose, exactly
    // the debris the store's recovery scan must sweep.
    crate::failpoint::hit("snapshot.write.rename")
        .map_err(|e| io_error(path, &std::io::Error::from(e)))?;
    std::fs::rename(&tmp, path).map_err(|e| io_error(path, &e))?;
    if let Ok(d) = std::fs::File::open(&dir) {
        // Make the rename itself durable. Failure here is not fatal to
        // the data (the file content is already synced).
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn read_circuit(r: &mut Reader<'_>) -> Result<Circuit, CodecError> {
    // Each signal op consumes at least 2 bytes (tag + empty-name length
    // low byte is already 4 — be conservative and use the tag alone).
    let n_signals = r.count("circuit signal", 1)?;
    let mut circuit = Circuit::new();
    for s in 0..n_signals {
        match r.u8()? {
            0 => {
                let name = r.str("primary input name")?;
                circuit.add_input(name);
            }
            1 => {
                let code = r.u8()?;
                let kind = CellKind::from_code(code).ok_or_else(|| CodecError::Malformed {
                    context: "gate cell kind",
                    detail: format!("unknown cell code {code} at signal {s}"),
                })?;
                let name = r.str("gate instance name")?;
                let mut inputs = Vec::with_capacity(kind.input_count());
                for _ in 0..kind.input_count() {
                    inputs.push(SignalId(r.u32()? as usize));
                }
                let out = circuit.try_add_gate(kind, name, &inputs).map_err(|e| {
                    CodecError::Malformed {
                        context: "gate",
                        detail: format!("replay of signal {s} rejected: {e}"),
                    }
                })?;
                let signal_name = r.str("gate output name")?;
                circuit.set_signal_name(out, signal_name);
            }
            tag => {
                return Err(CodecError::Malformed {
                    context: "circuit signal",
                    detail: format!("unknown creation tag {tag} at signal {s}"),
                })
            }
        }
    }
    let n_outputs = r.count("primary output", 4)?;
    for _ in 0..n_outputs {
        let id = r.u32()? as usize;
        if id >= circuit.signal_count() {
            return Err(CodecError::Malformed {
                context: "primary output",
                detail: format!("output id {id} out of range ({n_signals} signals)"),
            });
        }
        circuit.mark_output(SignalId(id));
    }
    Ok(circuit)
}

fn read_fault(
    r: &mut Reader<'_>,
    circuit: &Circuit,
    context: &'static str,
) -> Result<StuckAtFault, CodecError> {
    let site = match r.u8()? {
        0 => {
            let id = r.u32()? as usize;
            if id >= circuit.signal_count() {
                return Err(CodecError::Malformed {
                    context,
                    detail: format!("stem signal {id} out of range"),
                });
            }
            FaultSite::Signal(SignalId(id))
        }
        1 => {
            let gate = r.u32()? as usize;
            let pin = r.u32()? as usize;
            let arity = circuit
                .gates()
                .get(gate)
                .map(|g| g.inputs.len())
                .ok_or_else(|| CodecError::Malformed {
                    context,
                    detail: format!("branch gate {gate} out of range"),
                })?;
            if pin >= arity {
                return Err(CodecError::Malformed {
                    context,
                    detail: format!("branch pin {pin} out of range for gate {gate} ({arity} pins)"),
                });
            }
            FaultSite::GatePin(GateId(gate), pin)
        }
        tag => {
            return Err(CodecError::Malformed {
                context,
                detail: format!("unknown fault site tag {tag}"),
            })
        }
    };
    let value = match r.u8()? {
        0 => false,
        1 => true,
        v => {
            return Err(CodecError::Malformed {
                context,
                detail: format!("stuck value {v} is neither 0 nor 1"),
            })
        }
    };
    Ok(StuckAtFault { site, value })
}

fn read_faults(r: &mut Reader<'_>, circuit: &Circuit) -> Result<Vec<StuckAtFault>, CodecError> {
    // Minimal fault encoding: tag + u32 + value = 6 bytes.
    let n = r.count("fault", 6)?;
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        faults.push(read_fault(r, circuit, "fault")?);
    }
    Ok(faults)
}

fn read_collapse(
    r: &mut Reader<'_>,
    circuit: &Circuit,
    faults: &[StuckAtFault],
) -> Result<Option<CollapsedFaults>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n_reps = r.count("collapse representative", 6)?;
            let mut representatives = Vec::with_capacity(n_reps);
            for _ in 0..n_reps {
                representatives.push(read_fault(r, circuit, "collapse representative")?);
            }
            let n_classes = r.count("collapse class", 4)?;
            if n_classes != faults.len() {
                return Err(CodecError::Malformed {
                    context: "collapse class",
                    detail: format!(
                        "class map covers {n_classes} faults but the universe holds {}",
                        faults.len()
                    ),
                });
            }
            let mut class_of = Vec::with_capacity(n_classes);
            for i in 0..n_classes {
                let class = r.u32()? as usize;
                if class >= representatives.len() {
                    return Err(CodecError::Malformed {
                        context: "collapse class",
                        detail: format!(
                            "fault {i} maps to representative {class}, only {} exist",
                            representatives.len()
                        ),
                    });
                }
                class_of.push(class);
            }
            Ok(Some(CollapsedFaults {
                representatives,
                class_of,
            }))
        }
        tag => Err(CodecError::Malformed {
            context: "collapse",
            detail: format!("presence flag {tag} is neither 0 nor 1"),
        }),
    }
}

fn read_dictionary(r: &mut Reader<'_>) -> Result<Option<FaultDictionary>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n_patterns = r.u32()? as usize;
            let n_outputs = r.u32()? as usize;
            let n_classes = r.u32()? as usize;
            let n_faults = r.u32()? as usize;
            let payload_bits =
                n_patterns
                    .checked_mul(n_outputs)
                    .ok_or_else(|| CodecError::Malformed {
                        context: "dictionary",
                        detail: String::from("pattern x output bit count overflows"),
                    })?;
            let n_words = n_classes.saturating_mul(payload_bits.div_ceil(64));
            let n_words = r.fits("dictionary signature word", n_words, 8)?;
            let mut class_sigs = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                class_sigs.push(r.u64()?);
            }
            let n_faults = r.fits("dictionary class index", n_faults, 4)?;
            let mut class_of = Vec::with_capacity(n_faults);
            for _ in 0..n_faults {
                class_of.push(r.u32()? as usize);
            }
            let dict = FaultDictionary::from_raw_parts(n_patterns, n_outputs, class_sigs, class_of)
                .map_err(|detail| CodecError::Malformed {
                    context: "dictionary",
                    detail,
                })?;
            if dict.class_count() != n_classes {
                return Err(CodecError::Malformed {
                    context: "dictionary",
                    detail: format!(
                        "header declares {n_classes} classes, class map implies {}",
                        dict.class_count()
                    ),
                });
            }
            Ok(Some(dict))
        }
        tag => Err(CodecError::Malformed {
            context: "dictionary",
            detail: format!("presence flag {tag} is neither 0 nor 1"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_atpg::collapse::collapse;
    use sinw_atpg::fault_list::enumerate_stuck_at;

    fn c17_snapshot() -> Snapshot {
        let circuit = Circuit::c17();
        let faults = enumerate_stuck_at(&circuit);
        let collapsed = collapse(&circuit, &faults);
        Snapshot {
            name: String::from("c17"),
            circuit,
            faults,
            collapsed: Some(collapsed),
            dictionary: None,
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let snap = c17_snapshot();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("round trip");
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.name, "c17");
        assert_eq!(decoded.faults, snap.faults);
    }

    #[test]
    fn header_fields_live_where_the_spec_says() {
        let bytes = c17_snapshot().encode();
        assert_eq!(&bytes[0..4], &SNAPSHOT_MAGIC);
        assert_eq!(
            u16::from_le_bytes(bytes[4..6].try_into().unwrap()),
            SNAPSHOT_VERSION
        );
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        assert_eq!(declared as usize, bytes.len() - HEADER_LEN);
    }

    #[test]
    fn empty_input_is_truncated_not_panicking() {
        assert!(matches!(
            Snapshot::decode(&[]),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let snap = c17_snapshot();
        let dir = std::env::temp_dir().join("sinw_snapshot_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("c17.sinw");
        snap.write_file(&path).expect("write");
        let back = Snapshot::read_file(&path).expect("read");
        assert_eq!(back.encode(), snap.encode());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_not_found_with_the_path() {
        match Snapshot::read_file("/nonexistent/definitely/not/here.sinw") {
            Err(CodecError::NotFound { path }) => {
                assert!(path.contains("here.sinw"), "path is carried: {path}");
            }
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn unwritable_target_is_io_with_path_and_kind() {
        let snap = c17_snapshot();
        match snap.write_file("/proc/definitely-not-writable/x.sinw") {
            Err(CodecError::Io {
                path: Some(path), ..
            }) => {
                assert!(path.contains("x.sinw"), "path is carried: {path}");
            }
            Err(CodecError::NotFound { path }) => {
                assert!(path.contains("x.sinw"), "path is carried: {path}");
            }
            other => panic!("expected an i/o error, got {other:?}"),
        }
    }

    #[test]
    fn write_file_leaves_no_temp_sibling_on_success() {
        let dir = std::env::temp_dir().join("sinw_snapshot_atomic_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("c17.sinw");
        c17_snapshot().write_file(&path).expect("write");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp debris after a clean write");
        let _ = std::fs::remove_file(&path);
    }
}
