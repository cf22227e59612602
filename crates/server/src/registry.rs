//! The compiled-circuit registry: parse → map → collapse → graph-build
//! once, serve forever — inside a byte-accounted capacity.
//!
//! A [`CompiledCircuit`] bundles everything the engines derive from a
//! circuit before the first pattern is simulated: the mapped [`Circuit`]
//! itself, the enumerated stuck-at universe, its structural collapse, and
//! the levelized [`SimGraph`] precompute. [`compile_circuit`] is the
//! **single implementation of that pipeline** in the workspace — the
//! experiment drivers, the examples, the job engine, and the snapshot
//! restore path all route through it, so the compile path cannot fork.
//!
//! [`CircuitRegistry`] caches compiled artifacts keyed by a content hash
//! of the source (FNV-1a over the `.bench` text for
//! [`register_bench`](CircuitRegistry::register_bench), over the
//! canonical snapshot encoding for
//! [`register_circuit`](CircuitRegistry::register_circuit)). The hit
//! path performs the hash, a map lookup, and an LRU touch — no parse, no
//! fault enumeration, no collapse, no graph build — which the
//! [`RegistryStats::compiles`] counter makes assertable. Concurrent
//! registrations of the same source are serialized per key: exactly one
//! caller compiles while the rest block on the per-key slot and then
//! share the same `Arc`.
//!
//! ## Bounded capacity
//!
//! A long-lived service cannot let its cache grow without bound, so the
//! registry is **byte-accounted**: every finished artifact is charged
//! its [`CompiledCircuit::approx_bytes`] estimate against an optional
//! capacity ([`CircuitRegistry::with_capacity_bytes`];
//! [`CircuitRegistry::new`] is unbounded). Admitting an artifact that
//! pushes the account past capacity evicts least-recently-used entries
//! until it fits; an artifact **alone** larger than the whole capacity
//! is refused with the typed backpressure error
//! [`RegistryError::Oversized`] instead of flushing the cache for a
//! single tenant. Eviction removes the cache entry only — every `Arc`
//! already handed out (including ones held by in-flight jobs) remains
//! valid until its holders drop it; an evicted source simply recompiles
//! on next registration.
//!
//! ## Fault isolation
//!
//! The compile path runs under `catch_unwind`: a panic inside parse /
//! enumerate / collapse / graph build (including one injected through
//! the [`registry.compile`](crate::failpoint) fail point) becomes a
//! typed [`RegistryError::CompilePanicked`], the per-key slot stays
//! empty and **retryable**, and no lock is left poisoned (all registry
//! locks recover from poisoning).

use crate::snapshot::Snapshot;
use crate::{failpoint, lock_clean};
use sinw_atpg::collapse::{collapse, CollapsedFaults};
use sinw_atpg::fault_list::{enumerate_stuck_at, StuckAtFault};
use sinw_atpg::graph::SimGraph;
use sinw_switch::gate::{Circuit, SignalId};
use sinw_switch::iscas::{parse_bench, BenchParseError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key domain for `.bench` source text.
const DOMAIN_BENCH: u8 = 0xB5;
/// Key domain for canonical circuit bytes (generated circuits, snapshots).
const DOMAIN_CANONICAL: u8 = 0xC4;

/// FNV-1a 64 with a one-byte domain tag folded into the offset basis:
/// the registry's content key. The `.bench` text and the canonical
/// circuit bytes hash under their own tags so they never alias.
fn fnv1a(domain: u8, bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ u64::from(domain);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Everything the engines derive from a circuit before simulating the
/// first pattern, compiled once and shared immutably.
#[derive(Debug)]
pub struct CompiledCircuit {
    name: String,
    key: u64,
    circuit: Circuit,
    faults: Vec<StuckAtFault>,
    collapsed: CollapsedFaults,
    graph: SimGraph,
}

impl CompiledCircuit {
    /// Human-readable circuit name (registry label, not part of the key).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The content-hash key this artifact is registered under.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The mapped gate-level circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The full enumerated single-stuck-at universe.
    #[must_use]
    pub fn faults(&self) -> &[StuckAtFault] {
        &self.faults
    }

    /// Structural equivalence collapse of [`faults`](Self::faults); its
    /// `representatives` are the service's working fault list.
    #[must_use]
    pub fn collapsed(&self) -> &CollapsedFaults {
        &self.collapsed
    }

    /// The levelized simulation-graph precompute, built once here and
    /// reused by every `*_with_graph` engine call.
    #[must_use]
    pub fn graph(&self) -> &SimGraph {
        &self.graph
    }

    /// Deterministic estimate of this artifact's resident size in
    /// bytes — the charge the registry's capacity accounting uses. An
    /// estimate (container headers and allocator slack are approximated
    /// with flat per-element constants), but a *pure function of the
    /// artifact*, so `stats().bytes` always equals the sum over the
    /// current entries.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let c = &self.circuit;
        let mut bytes = size_of::<Self>() + self.name.len();
        // Signal table: id/driver bookkeeping plus the owned name.
        for s in 0..c.signal_count() {
            bytes += 32 + c.signal_name(SignalId(s)).len();
        }
        // Gate table: kind + inputs + owned instance name, plus the
        // incrementally maintained fanout adjacency (one entry per pin).
        for gate in c.gates() {
            bytes += 48 + gate.name.len() + gate.inputs.len() * (size_of::<SignalId>() + 16);
        }
        bytes += self.faults.len() * size_of::<StuckAtFault>();
        bytes += self.collapsed.representatives.len() * size_of::<StuckAtFault>();
        bytes += self.collapsed.class_of.len() * size_of::<usize>();
        // SimGraph: structure-of-arrays gate list, consumer CSR, level
        // buckets, PO-reachability masks — all linear in gates + pins.
        bytes += c.gates().len() * 56 + c.signal_count() * 24;
        bytes
    }

    /// Snapshot this artifact for a `.sinw` file (circuit + universe +
    /// collapse; the graph is derived and cheap, so it is rebuilt on
    /// restore rather than serialized).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            name: self.name.clone(),
            circuit: self.circuit.clone(),
            faults: self.faults.clone(),
            collapsed: Some(self.collapsed.clone()),
            dictionary: None,
        }
    }

    /// Restore an artifact from a decoded [`Snapshot`], reusing the
    /// stored universe and collapse when present (the restart fast path)
    /// and recompiling the missing pieces through [`compile_circuit`]
    /// otherwise. The graph precompute is always rebuilt — it is derived
    /// state the snapshot format deliberately does not carry.
    #[must_use]
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        let Snapshot {
            name,
            circuit,
            faults,
            collapsed,
            ..
        } = snapshot;
        if faults.is_empty() || collapsed.is_none() {
            return compile_circuit(&name, circuit);
        }
        let key = canonical_key(&circuit);
        let collapsed = collapsed.expect("checked above");
        let graph = SimGraph::build(&circuit);
        CompiledCircuit {
            name,
            key,
            circuit,
            faults,
            collapsed,
            graph,
        }
    }
}

/// Content key of a circuit with no source text: FNV-1a over its
/// canonical snapshot encoding. Also the key the
/// [`SnapshotStore`](crate::store::SnapshotStore) names its files by.
pub(crate) fn canonical_key(circuit: &Circuit) -> u64 {
    fnv1a(
        DOMAIN_CANONICAL,
        &crate::snapshot::canonical_circuit_bytes(circuit),
    )
}

/// The one compile-path implementation: enumerate the stuck-at universe,
/// collapse it, and build the [`SimGraph`] precompute for an
/// already-mapped circuit. Every driver that needs the compiled pipeline
/// — registry misses, snapshot restores, the experiment drivers, the
/// examples — calls this (or [`CircuitRegistry::register_bench`], which
/// parses and then calls this).
#[must_use]
pub fn compile_circuit(name: &str, circuit: Circuit) -> CompiledCircuit {
    let key = canonical_key(&circuit);
    let faults = enumerate_stuck_at(&circuit);
    let collapsed = collapse(&circuit, &faults);
    let graph = SimGraph::build(&circuit);
    CompiledCircuit {
        name: name.to_string(),
        key,
        circuit,
        faults,
        collapsed,
        graph,
    }
}

/// Typed registration failure. The per-key slot is left empty in every
/// case, so a later registration of the same source retries cleanly.
#[derive(Debug)]
pub enum RegistryError {
    /// The `.bench` source failed to parse.
    Parse(BenchParseError),
    /// The compile pipeline panicked (isolated by `catch_unwind`; the
    /// registry stays serviceable and the slot retryable).
    CompilePanicked {
        /// Registry label of the offending source.
        name: String,
        /// The panic message.
        reason: String,
    },
    /// The compile pipeline failed on an injected transient fault (the
    /// `registry.compile` fail point); retrying may succeed.
    CompileFailed {
        /// Registry label of the offending source.
        name: String,
        /// What was injected.
        reason: String,
    },
    /// Backpressure: the artifact alone is larger than the registry's
    /// whole capacity, so caching it would flush every other tenant.
    /// Compile the circuit directly ([`compile_circuit`]) if it is
    /// genuinely needed.
    Oversized {
        /// Registry label of the offending source.
        name: String,
        /// The artifact's byte estimate.
        bytes: usize,
        /// The registry's configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Parse(e) => write!(f, "bench parse failed: {e}"),
            RegistryError::CompilePanicked { name, reason } => {
                write!(f, "compile of '{name}' panicked: {reason}")
            }
            RegistryError::CompileFailed { name, reason } => {
                write!(f, "compile of '{name}' failed: {reason}")
            }
            RegistryError::Oversized {
                name,
                bytes,
                capacity,
            } => write!(
                f,
                "artifact '{name}' ({bytes} B) exceeds the registry capacity ({capacity} B)"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<BenchParseError> for RegistryError {
    fn from(e: BenchParseError) -> Self {
        RegistryError::Parse(e)
    }
}

/// Registry throughput counters (monotonic, over the registry's
/// lifetime) plus the current entry/byte account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Registrations that found a finished artifact (no work done).
    pub hits: u64,
    /// Registrations that found no finished artifact (the first of a
    /// concurrent burst compiles; the rest block on the slot and are
    /// counted as hits once it fills).
    pub misses: u64,
    /// Compile-pipeline runs actually performed. With `N` threads
    /// registering the same source concurrently this stays exactly 1.
    pub compiles: u64,
    /// Entries evicted by the byte-capacity LRU policy.
    pub evictions: u64,
    /// Distinct sources currently registered.
    pub entries: usize,
    /// Sum of [`CompiledCircuit::approx_bytes`] over the current entries.
    pub bytes: usize,
    /// The configured capacity (`usize::MAX` when unbounded).
    pub capacity: usize,
}

/// One registry slot: the per-key mutex serializes compilation so a
/// concurrent burst of registrations runs the pipeline exactly once.
type Slot = Arc<Mutex<Option<Arc<CompiledCircuit>>>>;

/// Byte account of one finished entry.
struct EntryMeta {
    bytes: usize,
    last_used: u64,
}

/// Map + LRU state under one lock: the slot map, the per-entry byte
/// account, the LRU clock, and the running total.
#[derive(Default)]
struct Inner {
    slots: HashMap<u64, Slot>,
    meta: HashMap<u64, EntryMeta>,
    tick: u64,
    total_bytes: usize,
}

/// A concurrent, byte-bounded LRU cache of compiled circuits keyed by
/// content hash. See the [module docs](self) for the capacity and
/// fault-isolation contracts.
pub struct CircuitRegistry {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
}

impl Default for CircuitRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CircuitRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CircuitRegistry")
            .field("stats", &stats)
            .finish()
    }
}

/// Render a `catch_unwind` payload as a message.
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

impl CircuitRegistry {
    /// An empty, **unbounded** registry.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_bytes(usize::MAX)
    }

    /// An empty registry evicting least-recently-used entries once the
    /// byte account exceeds `capacity`.
    #[must_use]
    pub fn with_capacity_bytes(capacity: usize) -> Self {
        CircuitRegistry {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The per-key slot, created empty on first sight. The global map
    /// lock is held only for the lookup, never during compilation.
    fn slot(&self, key: u64) -> Slot {
        lock_clean(&self.inner)
            .slots
            .entry(key)
            .or_default()
            .clone()
    }

    /// Bump `key`'s LRU clock (no-op for keys evicted in the meantime).
    fn touch(&self, key: u64) {
        let mut inner = lock_clean(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(meta) = inner.meta.get_mut(&key) {
            meta.last_used = tick;
        }
    }

    /// Charge a freshly finished artifact to the byte account and evict
    /// least-recently-used entries until the account fits the capacity
    /// again. The just-admitted key carries the youngest clock, so it is
    /// never its own victim (oversized artifacts were refused earlier).
    fn admit(&self, key: u64, bytes: usize) {
        let mut inner = lock_clean(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.meta.insert(
            key,
            EntryMeta {
                bytes,
                last_used: tick,
            },
        );
        inner.total_bytes += bytes;
        while inner.total_bytes > self.capacity {
            let victim = inner
                .meta
                .iter()
                .min_by_key(|(_, m)| m.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty account while over capacity");
            let meta = inner.meta.remove(&victim).expect("victim present");
            inner.total_bytes -= meta.bytes;
            inner.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Hit-or-compile on a slot. Exactly one caller runs `build` per
    /// empty slot; concurrent callers block on the slot mutex and share
    /// the artifact it installs. The build runs under `catch_unwind`, so
    /// a panicking compile becomes a typed error and the slot stays
    /// retryable.
    fn lookup_or_compile(
        &self,
        name: &str,
        key: u64,
        build: impl FnOnce() -> Result<CompiledCircuit, RegistryError>,
    ) -> Result<Arc<CompiledCircuit>, RegistryError> {
        let slot = self.slot(key);
        let mut guard = lock_clean(&slot);
        if let Some(artifact) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::SeqCst);
            let artifact = Arc::clone(artifact);
            drop(guard);
            self.touch(key);
            return Ok(artifact);
        }
        self.misses.fetch_add(1, Ordering::SeqCst);
        self.compiles.fetch_add(1, Ordering::SeqCst);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<CompiledCircuit, RegistryError> {
                failpoint::hit("registry.compile").map_err(|e| RegistryError::CompileFailed {
                    name: name.to_string(),
                    reason: e.to_string(),
                })?;
                build()
            },
        ));
        let compiled = match built {
            Err(payload) => {
                return Err(RegistryError::CompilePanicked {
                    name: name.to_string(),
                    reason: panic_reason(payload.as_ref()),
                })
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(c)) => c,
        };
        let bytes = compiled.approx_bytes();
        if bytes > self.capacity {
            return Err(RegistryError::Oversized {
                name: name.to_string(),
                bytes,
                capacity: self.capacity,
            });
        }
        let artifact = Arc::new(compiled);
        *guard = Some(Arc::clone(&artifact));
        // Admit before releasing the slot: a racer that reads the
        // artifact from the slot must find the key in `get` too.
        self.admit(key, bytes);
        Ok(artifact)
    }

    /// Register a `.bench` source. The key is a hash of the raw text, so
    /// a hit skips parsing, mapping, fault enumeration, collapsing, and
    /// graph building entirely; a miss parses and runs
    /// [`compile_circuit`] while holding the per-key slot.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Parse`] when a miss's source is invalid,
    /// [`RegistryError::CompilePanicked`] /
    /// [`RegistryError::CompileFailed`] under fault injection,
    /// [`RegistryError::Oversized`] as capacity backpressure — in every
    /// case the slot stays empty, so a later registration retries.
    pub fn register_bench(
        &self,
        name: &str,
        source: &str,
    ) -> Result<Arc<CompiledCircuit>, RegistryError> {
        let key = fnv1a(DOMAIN_BENCH, source.as_bytes());
        self.lookup_or_compile(name, key, || {
            let circuit = parse_bench(source)?;
            let mut compiled = compile_circuit(name, circuit);
            compiled.key = key;
            Ok(compiled)
        })
    }

    /// Register an already-built circuit (a parametric generator, a
    /// decoded snapshot). The key is a hash of the canonical circuit
    /// encoding; a hit skips fault enumeration, collapsing, and graph
    /// building.
    ///
    /// # Errors
    ///
    /// As [`register_bench`](Self::register_bench), minus the parse
    /// failure mode.
    pub fn register_circuit(
        &self,
        name: &str,
        circuit: Circuit,
    ) -> Result<Arc<CompiledCircuit>, RegistryError> {
        let key = canonical_key(&circuit);
        self.lookup_or_compile(name, key, || Ok(compile_circuit(name, circuit)))
    }

    /// Seed the registry with a pre-compiled artifact (the snapshot
    /// restore path) under its own key. Counts as neither hit, miss, nor
    /// compile; an existing finished entry wins and is returned instead.
    /// An artifact larger than the whole capacity is returned uncached.
    pub fn insert(&self, artifact: Arc<CompiledCircuit>) -> Arc<CompiledCircuit> {
        let bytes = artifact.approx_bytes();
        if bytes > self.capacity {
            return artifact;
        }
        let key = artifact.key();
        let slot = self.slot(key);
        let mut guard = lock_clean(&slot);
        match guard.as_ref() {
            Some(existing) => Arc::clone(existing),
            None => {
                *guard = Some(Arc::clone(&artifact));
                self.admit(key, bytes);
                artifact
            }
        }
    }

    /// The finished artifact under `key`, if any. Touches the LRU clock
    /// but not the hit/miss counters, and never waits on an in-flight
    /// compile: only an admitted key's slot is locked, and a finished
    /// slot is only ever held briefly.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Arc<CompiledCircuit>> {
        let slot = {
            let inner = lock_clean(&self.inner);
            if !inner.meta.contains_key(&key) {
                return None;
            }
            inner.slots.get(&key)?.clone()
        };
        let artifact = lock_clean(&slot).as_ref().map(Arc::clone)?;
        self.touch(key);
        Some(artifact)
    }

    /// Current counters and the byte account. `entries`/`bytes` cover
    /// finished artifacts only (a slot whose compile failed or is in
    /// flight is not an entry).
    #[must_use]
    pub fn stats(&self) -> RegistryStats {
        let (entries, bytes) = {
            let inner = lock_clean(&self.inner);
            (inner.meta.len(), inner.total_bytes)
        };
        RegistryStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            compiles: self.compiles.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            entries,
            bytes,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_switch::iscas::{C17_BENCH, CSA16_BENCH};

    #[test]
    fn hit_returns_the_same_arc_and_compiles_once() {
        let reg = CircuitRegistry::new();
        let a = reg.register_bench("c17", C17_BENCH).expect("c17 parses");
        let b = reg.register_bench("c17", C17_BENCH).expect("c17 parses");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = reg.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, a.approx_bytes());
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn distinct_sources_get_distinct_entries() {
        let reg = CircuitRegistry::new();
        let a = reg.register_bench("c17", C17_BENCH).expect("parses");
        let b = reg.register_bench("csa16", CSA16_BENCH).expect("parses");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(reg.stats().entries, 2);
        assert_eq!(reg.stats().compiles, 2);
        assert_eq!(reg.stats().bytes, a.approx_bytes() + b.approx_bytes());
    }

    #[test]
    fn parse_errors_propagate_and_leave_the_slot_retryable() {
        let reg = CircuitRegistry::new();
        let bad = "INPUT(a)\nb = FROB(a)\nOUTPUT(b)\n";
        assert!(matches!(
            reg.register_bench("bad", bad),
            Err(RegistryError::Parse(_))
        ));
        assert_eq!(reg.stats().entries, 0);
        // A later valid registration under a different key still works,
        // and retrying the bad source fails again rather than caching.
        assert!(reg.register_bench("bad", bad).is_err());
        assert!(reg.register_bench("c17", C17_BENCH).is_ok());
    }

    #[test]
    fn register_circuit_hits_on_identical_structure() {
        let reg = CircuitRegistry::new();
        let a = reg.register_circuit("c17", Circuit::c17()).expect("fits");
        let b = reg.register_circuit("c17", Circuit::c17()).expect("fits");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.stats().compiles, 1);
    }

    #[test]
    fn compiled_artifact_agrees_with_direct_pipeline() {
        let reg = CircuitRegistry::new();
        let compiled = reg.register_bench("c17", C17_BENCH).expect("parses");
        let direct = parse_bench(C17_BENCH).expect("parses");
        assert_eq!(compiled.faults(), &enumerate_stuck_at(&direct)[..]);
        let collapsed = collapse(&direct, compiled.faults());
        assert_eq!(
            compiled.collapsed().representatives,
            collapsed.representatives
        );
        assert_eq!(compiled.collapsed().class_of, collapsed.class_of);
        assert_eq!(compiled.graph().gate_count(), direct.gates().len());
    }

    #[test]
    fn get_waits_out_a_brief_slot_hold_instead_of_missing() {
        let registry = CircuitRegistry::new();
        let key = registry.register_bench("c17", C17_BENCH).unwrap().key();
        let slot = registry.slot(key);
        let held = lock_clean(&slot);
        std::thread::scope(|scope| {
            let getter = scope.spawn(|| registry.get(key));
            // Give the getter time to reach the held slot; if it has
            // not, the test passes trivially rather than falsely failing.
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(held);
            assert!(getter.join().unwrap().is_some(), "a finished key is found");
        });
        assert!(registry
            .get(fnv1a(DOMAIN_BENCH, b"never registered"))
            .is_none());
    }

    #[test]
    fn insert_seeds_without_touching_counters() {
        let reg = CircuitRegistry::new();
        let artifact = Arc::new(compile_circuit("c17", Circuit::c17()));
        let key = artifact.key();
        let seeded = reg.insert(Arc::clone(&artifact));
        assert!(Arc::ptr_eq(&seeded, &artifact));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (0, 0, 0));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, artifact.approx_bytes());
        let fetched = reg.get(key).expect("seeded entry present");
        assert!(Arc::ptr_eq(&fetched, &artifact));
        // Registering the same structure now hits the seeded entry
        // without compiling anything.
        let hit = reg.register_circuit("c17", Circuit::c17()).expect("fits");
        assert!(Arc::ptr_eq(&hit, &artifact));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.compiles), (1, 0));
    }

    #[test]
    fn lru_eviction_keeps_the_account_under_capacity() {
        let probe = compile_circuit("c17", Circuit::c17());
        let one = probe.approx_bytes();
        // Room for the c17 artifact and the csa16 artifact is far more
        // than 2x c17; cap just above one c17 so a second *distinct*
        // artifact must evict the first.
        let reg = CircuitRegistry::with_capacity_bytes(one + one / 2);
        let a = reg.register_circuit("c17", Circuit::c17()).expect("fits");
        let b = reg.register_bench("csa16", CSA16_BENCH);
        match b {
            Ok(b) => {
                // csa16 fit under the cap only by evicting c17.
                let stats = reg.stats();
                assert_eq!(stats.evictions, 1);
                assert_eq!(stats.entries, 1);
                assert_eq!(stats.bytes, b.approx_bytes());
                assert!(reg.get(a.key()).is_none(), "c17 was evicted");
            }
            Err(RegistryError::Oversized { .. }) => {
                // csa16 alone exceeds 1.5x c17: backpressure, cache intact.
                let stats = reg.stats();
                assert_eq!(stats.evictions, 0);
                assert_eq!(stats.entries, 1);
                assert!(reg.get(a.key()).is_some(), "c17 survives backpressure");
            }
            Err(other) => panic!("unexpected error {other}"),
        }
        // The evicted (or refused) Arc stays fully usable.
        assert_eq!(a.graph().gate_count(), a.circuit().gates().len());
        // Re-registering the evicted source recompiles cleanly.
        let again = reg.register_circuit("c17", Circuit::c17());
        assert!(again.is_ok() || matches!(again, Err(RegistryError::Oversized { .. })));
    }

    #[test]
    fn oversized_artifact_is_refused_not_cached() {
        let reg = CircuitRegistry::with_capacity_bytes(16);
        match reg.register_circuit("c17", Circuit::c17()) {
            Err(RegistryError::Oversized {
                bytes, capacity, ..
            }) => {
                assert!(bytes > capacity);
            }
            other => panic!("expected Oversized, got {:?}", other.map(|_| ())),
        }
        let stats = reg.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        // The compile still ran (and is counted) — only caching was
        // refused.
        assert_eq!(stats.compiles, 1);
    }
}
