//! # sinw-server — ATPG as a service
//!
//! Service layer of the DATE'15 reproduction *"Fault Modeling in
//! Controllable Polarity Silicon Nanowire Circuits"*: the first step from
//! batch drivers to a persistent system. Every batch driver in the
//! workspace re-runs the same front half — parse `.bench`, map onto the
//! CP cell library, enumerate and collapse the stuck-at universe, build
//! the levelized [`SimGraph`] — before a single pattern is simulated.
//! Served at scale, that front half *is* the hot path, so this crate
//! caches it:
//!
//! * [`registry`] — the **compiled-circuit registry**
//!   ([`CircuitRegistry`]): parse → map → collapse → graph-build runs
//!   once per distinct source, keyed by a content hash, and every later
//!   request shares the same immutable [`CompiledCircuit`] artifact
//!   through an [`Arc`](std::sync::Arc). Hit / miss / compile counters
//!   make the "exactly one compile" contract observable (and testable).
//! * [`snapshot`] — the versioned binary **`.sinw` snapshot format**:
//!   circuits, fault universes, collapsed classes, and
//!   [`FaultDictionary`] instances survive process restarts without
//!   re-parsing `.bench` text.
//! * [`jobs`] — the bounded **job engine** ([`JobEngine`]): a fixed pool
//!   of workers multiplexing concurrent fault-sim / signature-capture /
//!   campaign requests over shared compiled artifacts, with
//!   per-job progress, cooperative cancellation, and graceful drain on
//!   shutdown. Heavy jobs prepare their patterns once, then fan out over
//!   the same work-stealing driver ([`sinw_atpg::steal::fan_out`]) as the
//!   PPSFP engines, with the same determinism argument: chunk boundaries are a pure
//!   function of the input, so results are bit-identical to direct
//!   serial engine calls no matter how chunks migrate between workers.
//!
//! A service that runs long enough meets every failure its parts can
//! produce, so the crate also carries a **robustness layer**:
//!
//! * [`failpoint`] — a **deterministic fault-injection harness**: named
//!   fail points threaded through compile, snapshot-I/O, and job-chunk
//!   paths inject panics, I/O errors, and delays under seeded,
//!   per-point triggers (armed in code), with a single relaxed atomic
//!   load as the entire disabled-path cost.
//! * [`jobs`] hardening — job bodies run under `catch_unwind` (a panic
//!   becomes a typed [`JobOutcome::Failed`], never a dead worker),
//!   workers that do die are respawned, and a per-job [`JobPolicy`]
//!   adds deadlines ([`JobOutcome::TimedOut`]) and bounded
//!   retry-with-backoff for transient faults.
//! * [`store`] — the **crash-safe [`SnapshotStore`]**: atomic
//!   temp-file + fsync + rename writes, a boot-time recovery scan that
//!   quarantines corrupt files instead of panicking, and registry
//!   warm-start with zero compiles.
//! * [`registry`] capacity — a byte-accounted LRU bound
//!   ([`CircuitRegistry::with_capacity_bytes`]) with typed
//!   [`RegistryError`]s; eviction never invalidates an
//!   [`Arc`](std::sync::Arc) already handed to a job.
//!
//! Both binary formats share one crate-private codec: the 24-byte
//! header (magic, version, a `u16`, payload length, XXH64 checksum),
//! the [`checksum`] itself, one bounds-checked reader, and one error
//! type, [`CodecError`].
//! Decoding either format is total — truncated, corrupted, or fuzzed
//! bytes produce a typed [`CodecError`], never a panic, and hostile
//! lengths or counts die before allocation.
//!
//! And a service nobody can reach is a library, so the crate puts the
//! engine **on a wire**:
//!
//! * [`wire`] — the length-prefixed binary frame protocol: `SINP`
//!   frames whose header carries the frame type where a snapshot keeps
//!   a reserved zero.
//! * [`session`] — per-client sessions with byte and in-flight-job
//!   quotas ([`SessionLimits`]) and typed backpressure
//!   ([`SessionError`]).
//! * [`net`] — the [`NetServer`] (std-only TCP, thread per connection)
//!   composing registry + store + engine + sessions, streaming job
//!   progress frame-by-frame over `AwaitJob` (a wait on the job's
//!   completion, at most one progress tick long, so the outcome goes
//!   out as soon as the job finishes), closing idle connections
//!   only when no job is in flight, and draining gracefully on
//!   shutdown; plus the matching blocking [`NetClient`].
//!
//! ```
//! use sinw_server::registry::CircuitRegistry;
//! use sinw_switch::iscas::CSA16_BENCH;
//!
//! let registry = CircuitRegistry::new();
//! let cold = registry.register_bench("csa16", CSA16_BENCH).unwrap();
//! let hit = registry.register_bench("csa16", CSA16_BENCH).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&cold, &hit), "one artifact, shared");
//! assert_eq!(registry.stats().compiles, 1, "the hit compiled nothing");
//! ```
//!
//! [`SimGraph`]: sinw_atpg::SimGraph
//! [`FaultDictionary`]: sinw_atpg::FaultDictionary
//! [`CircuitRegistry`]: registry::CircuitRegistry
//! [`CompiledCircuit`]: registry::CompiledCircuit
//! [`JobEngine`]: jobs::JobEngine
//! [`JobOutcome::Failed`]: jobs::JobOutcome::Failed
//! [`JobOutcome::TimedOut`]: jobs::JobOutcome::TimedOut
//! [`JobPolicy`]: jobs::JobPolicy
//! [`SnapshotStore`]: store::SnapshotStore
//! [`RegistryError`]: registry::RegistryError
//! [`CircuitRegistry::with_capacity_bytes`]: registry::CircuitRegistry::with_capacity_bytes
//! [`SessionLimits`]: session::SessionLimits
//! [`SessionError`]: session::SessionError
//! [`NetServer`]: net::NetServer
//! [`NetClient`]: net::NetClient

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
pub mod failpoint;
pub mod jobs;
pub mod net;
pub mod registry;
pub mod session;
pub mod snapshot;
pub mod store;
pub mod wire;

/// Poison-tolerant lock: a panic on another thread (an injected one
/// included) must not cascade into every later caller of the lock.
pub(crate) fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use codec::{checksum, CodecError};
pub use jobs::{JobEngine, JobHandle, JobOutcome, JobPolicy, JobProgress, JobSpec};
pub use net::{ClientError, NetClient, NetConfig, NetServer};
pub use registry::{
    compile_circuit, CircuitRegistry, CompiledCircuit, RegistryError, RegistryStats,
};
pub use session::{SessionError, SessionLimits, SessionManager};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{RecoveryReport, SnapshotStore, WarmStartReport};
pub use wire::{
    ErrorCode, Request, Response, WireJob, WireOutcome, WireStats, WIRE_MAGIC, WIRE_VERSION,
};
