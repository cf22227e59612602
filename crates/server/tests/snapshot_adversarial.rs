//! Adversarial decode tests of the `.sinw` container, through the
//! battery it shares with the wire suite (`common`): truncations at
//! every prefix length, per-field header flips, every payload byte
//! flip, trailing bytes, a hostile count, and seeded fuzz. The contract
//! under attack: decoding returns a typed [`CodecError`] — it never
//! panics and never allocates beyond what the input's own length
//! justifies.

mod common;

use sinw_atpg::collapse::collapse;
use sinw_atpg::diagnose::FaultDictionary;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::seeded_patterns;
use sinw_server::snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use sinw_server::CodecError;
use sinw_switch::gate::Circuit;

/// A fully loaded reference snapshot: c17 with universe, collapse, and
/// dictionary, so every payload section is present in the attack
/// surface.
fn reference_bytes() -> Vec<u8> {
    let circuit = Circuit::c17();
    let faults = enumerate_stuck_at(&circuit);
    let collapsed = collapse(&circuit, &faults);
    let patterns = seeded_patterns(circuit.primary_inputs().len(), 24, 0xDEC0DE);
    let dictionary = FaultDictionary::build(&circuit, &faults, &patterns);
    Snapshot {
        name: String::from("c17"),
        circuit,
        faults,
        collapsed: Some(collapsed),
        dictionary: Some(dictionary),
    }
    .encode()
}

#[test]
fn every_truncation_is_a_typed_error() {
    common::every_truncation(&reference_bytes(), Snapshot::decode);
}

#[test]
fn every_header_byte_flip_is_typed_by_field() {
    common::header_flips_by_field(&reference_bytes(), Snapshot::decode, |result| {
        matches!(result, Err(CodecError::ReservedNonZero { .. }))
    });
}

#[test]
fn flipped_magic_is_rejected_with_the_found_bytes() {
    let mut bytes = reference_bytes();
    bytes[0] ^= 0xFF;
    match Snapshot::decode(&bytes) {
        Err(CodecError::BadMagic { found }) => {
            assert_ne!(found, SNAPSHOT_MAGIC);
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_versions_are_rejected_not_misread() {
    let mut bytes = reference_bytes();
    let future = (SNAPSHOT_VERSION + 1).to_le_bytes();
    bytes[4..6].copy_from_slice(&future);
    match Snapshot::decode(&bytes) {
        Err(CodecError::UnsupportedVersion { found }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn corrupted_checksum_field_is_detected() {
    let mut bytes = reference_bytes();
    bytes[16] ^= 0x01;
    assert!(matches!(
        Snapshot::decode(&bytes),
        Err(CodecError::ChecksumMismatch { .. })
    ));
}

#[test]
fn every_single_payload_byte_flip_is_caught_by_the_checksum() {
    common::payload_flips_fail_the_checksum(&reference_bytes(), Snapshot::decode);
}

#[test]
fn trailing_garbage_is_rejected() {
    common::trailing_bytes(&reference_bytes(), Snapshot::decode);
}

#[test]
fn hostile_counts_cannot_drive_allocations_past_the_input() {
    // A payload whose first section claims a multi-gigabyte name string.
    let payload = u32::MAX.to_le_bytes();
    let crafted = common::container(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0, &payload);
    common::hostile_count(&crafted, Snapshot::decode);
}

#[test]
fn byte_fuzz_never_panics() {
    common::fuzz(
        &reference_bytes(),
        Snapshot::decode,
        SNAPSHOT_MAGIC,
        0xF022_DEAD_BEEF_1234,
    );
}
