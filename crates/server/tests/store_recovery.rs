//! Kill-and-restart recovery smoke: write a population of snapshots,
//! corrupt one on disk (plus plant crash debris), then "reboot" by
//! reopening the store — the corrupt file must be quarantined with a
//! typed report, the debris swept, and every surviving snapshot served
//! and able to warm-start a registry without a single compile.

use sinw_server::failpoint::{self, FailAction, FailConfig};
use sinw_server::registry::{compile_circuit, CircuitRegistry, CompiledCircuit};
use sinw_server::store::SnapshotStore;
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{array_multiplier, carry_select_adder};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sinw_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn population() -> Vec<CompiledCircuit> {
    vec![
        compile_circuit("c17", Circuit::c17()),
        compile_circuit("mul3", array_multiplier(3)),
        compile_circuit("csel8", carry_select_adder(8, 4)),
    ]
}

#[test]
fn corrupted_snapshot_is_quarantined_and_the_rest_warm_start() {
    let _serial = serial();
    let dir = scratch("corrupt");
    let artifacts = population();

    // "First boot": persist the population.
    let keys: Vec<u64> = {
        let (store, report) = SnapshotStore::open(&dir).expect("first boot");
        assert!(report.loaded.is_empty());
        artifacts
            .iter()
            .map(|a| store.save_artifact(a).expect("save"))
            .collect()
    };

    // Simulated crash damage: flip bytes in the middle of one snapshot
    // (a torn sector the checksum must catch) and leave write debris.
    let victim = dir.join(format!("{:016x}.sinw", keys[1]));
    let mut bytes = std::fs::read(&victim).expect("read victim");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    bytes[mid + 1] ^= 0xFF;
    std::fs::write(&victim, &bytes).expect("corrupt victim");
    std::fs::write(dir.join("junk.sinw.99.tmp"), b"torn write").expect("plant debris");

    // "Reboot": the recovery scan quarantines the victim, sweeps the
    // debris, and keeps the survivors.
    let (store, report) = SnapshotStore::open(&dir).expect("reboot");
    assert_eq!(report.swept_temps, 1);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.file, format!("{:016x}.sinw", keys[1]));
    assert!(!q.reason.is_empty(), "quarantine must say why");
    assert!(
        q.moved_to
            .as_deref()
            .is_some_and(|p| p.starts_with("quarantine/")),
        "corrupt file must move into quarantine/"
    );
    let mut survivors = vec![keys[0], keys[2]];
    survivors.sort_unstable();
    assert_eq!(report.loaded, survivors);

    // The survivors warm-start a registry with zero compiles and serve
    // artifacts equal to the originals.
    let registry = CircuitRegistry::new();
    let warm = store.warm_start(&registry).expect("warm start");
    assert_eq!(warm.installed, 2);
    let stats = registry.stats();
    assert_eq!(stats.compiles, 0, "recovery must not recompile");
    assert_eq!(stats.entries, 2);
    for (i, artifact) in artifacts.iter().enumerate() {
        if i == 1 {
            assert!(registry.get(artifact.key()).is_none(), "victim stays out");
            continue;
        }
        let served = registry.get(artifact.key()).expect("survivor served");
        assert_eq!(served.name(), artifact.name());
        assert_eq!(
            served.collapsed().representatives,
            artifact.collapsed().representatives
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_1_snapshot_is_quarantined_by_version_not_installed() {
    let _serial = serial();
    let dir = scratch("v1");
    let c17 = compile_circuit("c17", Circuit::c17());
    let survivor = compile_circuit("mul3", array_multiplier(3));
    {
        let (store, _) = SnapshotStore::open(&dir).expect("first boot");
        store.save_artifact(&survivor).expect("save");
    }
    // c17's snapshot as a version-1 build wrote it, under its own key.
    let v1 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v1/c17_bare.sinw");
    let planted = format!("{:016x}.sinw", c17.key());
    std::fs::copy(&v1, dir.join(&planted)).expect("plant v1 snapshot");

    let (store, report) = SnapshotStore::open(&dir).expect("boot");
    assert_eq!(report.loaded, vec![survivor.key()]);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.file, planted);
    assert!(
        q.reason.contains("unsupported format version 1"),
        "reason must name version 1, got: {}",
        q.reason
    );
    let registry = CircuitRegistry::new();
    let warm = store.warm_start(&registry).expect("warm start");
    assert_eq!(warm.installed, 1);
    assert!(registry.get(c17.key()).is_none(), "v1 snapshot stays out");
    assert!(registry.get(survivor.key()).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_scan_read_fault_degrades_to_quarantine_not_panic() {
    let _serial = serial();
    failpoint::clear();
    let dir = scratch("scanfault");
    let artifacts = population();
    {
        let (store, _) = SnapshotStore::open(&dir).expect("first boot");
        for a in &artifacts {
            store.save_artifact(a).expect("save");
        }
    }

    // One of the three scan reads fails with an injected I/O error: that
    // file is quarantined, the other two are served.
    let (_store, report) = {
        let _armed = failpoint::scoped("store.scan.read", FailConfig::nth(FailAction::IoError, 2));
        SnapshotStore::open(&dir).expect("reboot under injection")
    };
    assert_eq!(report.loaded.len(), 2);
    assert_eq!(report.quarantined.len(), 1);
    assert!(
        report.quarantined[0].reason.contains("injected"),
        "reason must carry the injected-fault text, got: {}",
        report.quarantined[0].reason
    );
    failpoint::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_atomic_write_leaves_old_snapshot_intact() {
    let _serial = serial();
    failpoint::clear();
    let dir = scratch("tornwrite");
    let artifact = compile_circuit("c17", Circuit::c17());
    let (store, _) = SnapshotStore::open(&dir).expect("open");
    let key = store.save_artifact(&artifact).expect("first save");

    // A fault at the rename models a crash after fsync but before
    // publish: the save fails, the temp is deliberately left as debris,
    // and the previously published snapshot must be untouched.
    {
        let _armed = failpoint::scoped(
            "snapshot.write.rename",
            FailConfig::always(FailAction::IoError),
        );
        let err = store.save_artifact(&artifact);
        assert!(err.is_err(), "injected rename fault must surface");
    }
    let reopened = store
        .load(key)
        .expect("old snapshot survives the torn write");
    assert_eq!(reopened.name, "c17");

    // The next boot sweeps the debris the torn write left behind.
    let (_store, report) = SnapshotStore::open(&dir).expect("reboot");
    assert_eq!(report.swept_temps, 1, "torn-write debris is swept");
    assert_eq!(report.loaded, vec![key]);
    failpoint::clear();
    let _ = std::fs::remove_dir_all(&dir);
}
