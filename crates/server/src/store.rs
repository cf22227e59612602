//! Crash-safe snapshot persistence: a directory of `.sinw` files with
//! atomic writes, boot-time recovery, and registry warm-start.
//!
//! A [`SnapshotStore`] owns one directory. Every snapshot is stored as
//! `{key:016x}.sinw`, named by the circuit's canonical content key (the
//! same FNV-1a key the [registry](crate::registry) caches under), so the
//! store is content-addressed: saving the same circuit twice overwrites
//! one file, and a file's name alone says which registry entry it can
//! warm-start.
//!
//! ## Durability protocol
//!
//! [`SnapshotStore::save`] goes through
//! [`Snapshot::write_file`]'s atomic path: encode → write to a `.tmp`
//! sibling → `fsync` → `rename` over the final name → directory
//! `fsync`. A crash (or an injected `snapshot.write.*` fault) at any
//! point leaves either the old file, the new file, or harmless `.tmp`
//! debris — never a half-written `.sinw`.
//!
//! ## Recovery protocol
//!
//! [`SnapshotStore::open`] is the boot-time recovery scan. In one
//! deterministic (name-sorted) pass over the directory it:
//!
//! 1. **sweeps** `.tmp` crash debris left by interrupted writes,
//! 2. **validates** every `.sinw` file end-to-end (header, checksum,
//!    full decode),
//! 3. **quarantines** anything unreadable or corrupt into a
//!    `quarantine/` subdirectory — recorded in the typed
//!    [`RecoveryReport`], never a panic, and never fatal to the files
//!    that did survive,
//! 4. **indexes** the valid snapshots by canonical key.
//!
//! [`SnapshotStore::warm_start`] then seeds a [`CircuitRegistry`] from
//! the index without a single compile: each snapshot restores through
//! [`CompiledCircuit::from_snapshot`] (stored universe + collapse, graph
//! rebuilt) and enters the registry via [`CircuitRegistry::insert`].
//!
//! The `store.scan.read` [fail point](crate::failpoint) injects read
//! faults into step 2, letting the chaos suites prove that a bad disk
//! sector degrades into a quarantine entry instead of a crash.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::codec::{io_error, CodecError};
use crate::failpoint;
use crate::registry::{canonical_key, CircuitRegistry, CompiledCircuit};
use crate::snapshot::Snapshot;

/// Poison-tolerant lock (a store is often shared with threads running
/// under fault injection).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One file set aside by the recovery scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// File name (not path) as found in the store directory.
    pub file: String,
    /// Why it was rejected (decode / checksum / I/O error text).
    pub reason: String,
    /// Where it was moved, relative to the store directory; `None` if
    /// even the quarantine move failed and the file was left in place.
    pub moved_to: Option<String>,
}

/// What [`SnapshotStore::open`]'s recovery scan found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Canonical keys of the valid snapshots, ascending.
    pub loaded: Vec<u64>,
    /// Files set aside as unreadable or corrupt.
    pub quarantined: Vec<QuarantinedFile>,
    /// `.tmp` crash-debris files swept away.
    pub swept_temps: usize,
}

/// What [`SnapshotStore::warm_start`] did to the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStartReport {
    /// Snapshots restored and installed as fresh registry entries.
    pub installed: usize,
    /// Snapshots whose key already had a finished registry entry.
    pub already_present: usize,
}

/// A content-addressed directory of `.sinw` snapshots with crash-safe
/// writes and a quarantining recovery scan. See the [module
/// docs](self) for the durability and recovery protocols.
pub struct SnapshotStore {
    dir: PathBuf,
    /// Canonical key → file path, for every snapshot that passed the
    /// recovery scan or was saved through this handle.
    index: Mutex<BTreeMap<u64, PathBuf>>,
}

/// Name of the subdirectory corrupt files are moved into.
const QUARANTINE_DIR: &str = "quarantine";

fn is_sinw(name: &str) -> bool {
    name.ends_with(".sinw")
}

fn is_temp_debris(name: &str) -> bool {
    name.ends_with(".tmp")
}

impl SnapshotStore {
    /// Open (creating if needed) the store at `dir` and run the
    /// boot-time recovery scan described in the [module docs](self).
    ///
    /// Corrupt or unreadable snapshot files are **not** errors — they
    /// are quarantined and reported. The scan itself walks the directory
    /// in sorted name order, so the report is deterministic for a given
    /// directory state.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] only for directory-level failures: the
    /// store directory cannot be created or listed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Self, RecoveryReport), CodecError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_error(&dir, &e))?;

        let mut names: Vec<String> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| io_error(&dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_error(&dir, &e))?;
            if entry.path().is_dir() {
                continue;
            }
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        names.sort_unstable();

        let mut report = RecoveryReport::default();
        let mut index = BTreeMap::new();
        for name in names {
            let path = dir.join(&name);
            if is_temp_debris(&name) {
                // Crash debris from an interrupted atomic write: the
                // rename never happened, so nothing references it.
                let _ = std::fs::remove_file(&path);
                report.swept_temps += 1;
                continue;
            }
            if !is_sinw(&name) {
                continue;
            }
            let outcome = failpoint::hit("store.scan.read")
                .map_err(|e| io_error(&path, &std::io::Error::from(e)))
                .and_then(|()| Snapshot::read_file(&path));
            match outcome {
                Ok(snapshot) => {
                    let key = canonical_key(&snapshot.circuit);
                    index.insert(key, path);
                }
                Err(e) => {
                    report
                        .quarantined
                        .push(quarantine(&dir, &name, &path, &e.to_string()));
                }
            }
        }
        report.loaded = index.keys().copied().collect();
        let store = SnapshotStore {
            dir,
            index: Mutex::new(index),
        };
        Ok((store, report))
    }

    /// Canonical keys currently indexed, ascending.
    #[must_use]
    pub fn keys(&self) -> Vec<u64> {
        lock_clean(&self.index).keys().copied().collect()
    }

    /// Number of indexed snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_clean(&self.index).len()
    }

    /// Whether the store indexes no snapshots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persist `snapshot` atomically as `{key:016x}.sinw` and index it.
    /// Returns the canonical key the file is addressed by. Saving a
    /// snapshot of an already-stored circuit atomically replaces the
    /// previous file.
    ///
    /// # Errors
    ///
    /// [`CodecError::Io`] if any step of the atomic write protocol
    /// fails (including injected `snapshot.write.*` faults); the
    /// previously stored file, if any, survives untouched.
    pub fn save(&self, snapshot: &Snapshot) -> Result<u64, CodecError> {
        let key = canonical_key(&snapshot.circuit);
        let path = self.dir.join(format!("{key:016x}.sinw"));
        snapshot.write_file(&path)?;
        lock_clean(&self.index).insert(key, path);
        Ok(key)
    }

    /// Snapshot a compiled artifact and [`save`](Self::save) it.
    ///
    /// # Errors
    ///
    /// As [`save`](Self::save).
    pub fn save_artifact(&self, artifact: &CompiledCircuit) -> Result<u64, CodecError> {
        self.save(&artifact.snapshot())
    }

    /// Read back the snapshot stored under `key`.
    ///
    /// # Errors
    ///
    /// [`CodecError::NotFound`] if the key is not indexed (or the
    /// file vanished since the scan); decode/I/O errors pass through
    /// typed.
    pub fn load(&self, key: u64) -> Result<Snapshot, CodecError> {
        let path = {
            let index = lock_clean(&self.index);
            match index.get(&key) {
                Some(p) => p.clone(),
                None => {
                    return Err(CodecError::NotFound {
                        path: self
                            .dir
                            .join(format!("{key:016x}.sinw"))
                            .display()
                            .to_string(),
                    })
                }
            }
        };
        Snapshot::read_file(path)
    }

    /// Seed `registry` with every indexed snapshot, restoring each
    /// through [`CompiledCircuit::from_snapshot`] (stored universe +
    /// collapse; zero compiles when the snapshots carry both) and
    /// installing it with [`CircuitRegistry::insert`]. Keys that already
    /// have a finished registry entry are counted, not replaced.
    ///
    /// # Errors
    ///
    /// Propagates the first load failure. The registry keeps whatever
    /// was installed before the failure — warm-start is incremental, not
    /// transactional.
    pub fn warm_start(&self, registry: &CircuitRegistry) -> Result<WarmStartReport, CodecError> {
        let keys = self.keys();
        let mut report = WarmStartReport::default();
        for key in keys {
            if registry.get(key).is_some() {
                report.already_present += 1;
                continue;
            }
            let snapshot = self.load(key)?;
            let artifact = CompiledCircuit::from_snapshot(snapshot);
            registry.insert(std::sync::Arc::new(artifact));
            report.installed += 1;
        }
        Ok(report)
    }
}

/// Move a rejected file into the quarantine subdirectory, creating it on
/// demand. Failure to move is itself non-fatal: the file stays put and
/// the report says so.
fn quarantine(dir: &Path, name: &str, path: &Path, reason: &str) -> QuarantinedFile {
    let qdir = dir.join(QUARANTINE_DIR);
    let moved_to = std::fs::create_dir_all(&qdir)
        .and_then(|()| {
            let dest = qdir.join(name);
            std::fs::rename(path, &dest).map(|()| format!("{QUARANTINE_DIR}/{name}"))
        })
        .ok();
    QuarantinedFile {
        file: name.to_string(),
        reason: reason.to_string(),
        moved_to,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::compile_circuit;
    use sinw_switch::gate::Circuit;

    /// Fresh scratch directory per test, cleaned before use so reruns
    /// are deterministic.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sinw_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_reopen_round_trips_by_key() {
        let dir = scratch("roundtrip");
        let artifact = compile_circuit("c17", Circuit::c17());
        let key = {
            let (store, report) = SnapshotStore::open(&dir).expect("open empty");
            assert!(report.loaded.is_empty());
            store.save_artifact(&artifact).expect("save")
        };
        assert_eq!(key, artifact.key());
        let (store, report) = SnapshotStore::open(&dir).expect("reopen");
        assert_eq!(report.loaded, vec![key]);
        assert!(report.quarantined.is_empty());
        let snapshot = store.load(key).expect("load");
        let restored = CompiledCircuit::from_snapshot(snapshot);
        assert_eq!(restored.key(), artifact.key());
        assert_eq!(
            restored.collapsed().representatives,
            artifact.collapsed().representatives
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_quarantined_and_the_rest_survive() {
        let dir = scratch("quarantine");
        {
            let (store, _) = SnapshotStore::open(&dir).expect("open");
            store
                .save_artifact(&compile_circuit("c17", Circuit::c17()))
                .expect("save");
        }
        // Plant a corrupt snapshot beside the good one.
        std::fs::write(dir.join("deadbeefdeadbeef.sinw"), b"not a snapshot").expect("plant");
        let (store, report) = SnapshotStore::open(&dir).expect("reopen");
        assert_eq!(report.loaded.len(), 1, "the good file survives");
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.file, "deadbeefdeadbeef.sinw");
        assert!(!q.reason.is_empty());
        assert_eq!(
            q.moved_to.as_deref(),
            Some("quarantine/deadbeefdeadbeef.sinw")
        );
        assert!(dir.join("quarantine/deadbeefdeadbeef.sinw").exists());
        assert!(!dir.join("deadbeefdeadbeef.sinw").exists());
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn temp_debris_is_swept_on_open() {
        let dir = scratch("sweep");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("0123.sinw.42.tmp"), b"half-written").expect("plant tmp");
        let (store, report) = SnapshotStore::open(&dir).expect("open");
        assert_eq!(report.swept_temps, 1);
        assert!(!dir.join("0123.sinw.42.tmp").exists());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_installs_without_a_single_compile() {
        let dir = scratch("warmstart");
        let artifact = compile_circuit("c17", Circuit::c17());
        {
            let (store, _) = SnapshotStore::open(&dir).expect("open");
            store.save_artifact(&artifact).expect("save");
        }
        let (store, _) = SnapshotStore::open(&dir).expect("reopen");
        let registry = CircuitRegistry::new();
        let report = store.warm_start(&registry).expect("warm start");
        assert_eq!(report.installed, 1);
        assert_eq!(report.already_present, 0);
        let stats = registry.stats();
        assert_eq!(stats.compiles, 0, "warm start must not compile");
        assert_eq!(stats.entries, 1);
        let served = registry.get(artifact.key()).expect("served from registry");
        assert_eq!(served.name(), "c17");
        // A second warm start is a no-op.
        let again = store.warm_start(&registry).expect("warm start again");
        assert_eq!(again.installed, 0);
        assert_eq!(again.already_present, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_of_unknown_key_is_not_found() {
        let dir = scratch("unknown");
        let (store, _) = SnapshotStore::open(&dir).expect("open");
        match store.load(0xABCD) {
            Err(CodecError::NotFound { path }) => assert!(path.contains("000000000000abcd")),
            other => panic!("expected NotFound, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resaving_the_same_circuit_overwrites_one_file() {
        let dir = scratch("overwrite");
        let artifact = compile_circuit("c17", Circuit::c17());
        let (store, _) = SnapshotStore::open(&dir).expect("open");
        let k1 = store.save_artifact(&artifact).expect("save 1");
        let k2 = store.save_artifact(&artifact).expect("save 2");
        assert_eq!(k1, k2);
        assert_eq!(store.len(), 1);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .collect();
        assert_eq!(files.len(), 1, "one .sinw file, no debris");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
