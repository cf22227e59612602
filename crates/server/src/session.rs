//! Per-client sessions over the service: byte and job quotas.
//!
//! A **session** is the server-side state of one client connection: a
//! numeric id, a cumulative byte account of everything the client has
//! registered, and the set of jobs it has in flight. Quotas come from one [`SessionLimits`] shared by every
//! session; breaching either quota is a typed [`SessionError`] the wire
//! layer maps onto a backpressure frame — the request is refused, the
//! session (and its connection) stays healthy.
//!
//! The lifecycle invariants the quota property test pins down:
//!
//! * the byte account never exceeds `max_bytes` — a register request is
//!   checked *before* any compile work and charged only on success;
//! * at most `max_inflight_jobs` unfinished jobs exist per session —
//!   finished handles are pruned on every check, so slots recycle as
//!   work completes.
//!
//! Sessions are not reaped here: the connection handler closes an idle
//! connection (and with it the session) only when no job is in flight.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::jobs::JobHandle;

/// Per-session quotas, shared by every session of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionLimits {
    /// Cumulative register-request payload bytes a session may spend.
    pub max_bytes: u64,
    /// Maximum unfinished jobs a session may hold at once.
    pub max_inflight_jobs: usize,
    /// Idle time after which a connection with no in-flight jobs is
    /// closed.
    pub idle_timeout: Duration,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            max_bytes: 64 * 1024 * 1024,
            max_inflight_jobs: 32,
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Typed quota / lookup failure. The wire layer maps these onto
/// backpressure error frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The register request would push the session past its byte quota.
    ByteQuota {
        /// Bytes already charged.
        used: u64,
        /// Bytes the request asked for.
        requested: u64,
        /// The session's quota.
        quota: u64,
    },
    /// The session already holds its maximum of unfinished jobs.
    JobQuota {
        /// Unfinished jobs currently held.
        in_flight: usize,
        /// The session's quota.
        quota: usize,
    },
    /// The session id names no open session.
    UnknownSession {
        /// The id that missed.
        id: u64,
    },
    /// The job id names no job of this session.
    UnknownJob {
        /// The id that missed.
        id: u64,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ByteQuota {
                used,
                requested,
                quota,
            } => write!(
                f,
                "byte quota: {used} used + {requested} requested exceeds {quota}"
            ),
            SessionError::JobQuota { in_flight, quota } => {
                write!(f, "job quota: {in_flight} in flight of {quota} allowed")
            }
            SessionError::UnknownSession { id } => write!(f, "unknown session {id}"),
            SessionError::UnknownJob { id } => write!(f, "unknown job {id}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Point-in-time view of one session's accounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionView {
    /// Bytes charged so far.
    pub bytes_used: u64,
    /// Unfinished jobs currently held.
    pub in_flight: usize,
}

struct SessionState {
    bytes_used: u64,
    jobs: HashMap<u64, JobHandle>,
}

impl SessionState {
    /// Drop handles whose jobs have reached a terminal outcome; the
    /// surviving count is the session's in-flight account.
    fn prune(&mut self) -> usize {
        self.jobs.retain(|_, handle| !handle.is_finished());
        self.jobs.len()
    }
}

/// The server's session table. All methods take `&self`; one internal
/// lock serializes the table (sessions are coarse-grained — the heavy
/// work happens in the registry and job engine, not here).
pub struct SessionManager {
    limits: SessionLimits,
    inner: Mutex<HashMap<u64, SessionState>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("limits", &self.limits)
            .field("open", &self.len())
            .finish()
    }
}

impl SessionManager {
    /// A manager enforcing `limits` on every session.
    #[must_use]
    pub fn new(limits: SessionLimits) -> Self {
        SessionManager {
            limits,
            inner: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    fn table(&self) -> MutexGuard<'_, HashMap<u64, SessionState>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a new session and return its id.
    pub fn open(&self) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.table().insert(
            id,
            SessionState {
                bytes_used: 0,
                jobs: HashMap::new(),
            },
        );
        id
    }

    /// Close a session, dropping its job handles (the jobs themselves
    /// keep running to their terminal outcome — a handle is a view, not
    /// an owner).
    pub fn close(&self, id: u64) {
        self.table().remove(&id);
    }

    /// Number of open sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// Whether no session is open.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check whether `requested` more bytes fit under the session's
    /// byte quota — called before compile work is spent on a register
    /// request.
    ///
    /// # Errors
    ///
    /// [`SessionError::ByteQuota`] when the request would breach the
    /// quota; [`SessionError::UnknownSession`] when `id` is not open.
    pub fn check_bytes(&self, id: u64, requested: u64) -> Result<(), SessionError> {
        let table = self.table();
        let s = table.get(&id).ok_or(SessionError::UnknownSession { id })?;
        self.fits(s, requested)
    }

    fn fits(&self, s: &SessionState, requested: u64) -> Result<(), SessionError> {
        if s.bytes_used.saturating_add(requested) > self.limits.max_bytes {
            return Err(SessionError::ByteQuota {
                used: s.bytes_used,
                requested,
                quota: self.limits.max_bytes,
            });
        }
        Ok(())
    }

    /// Charge `bytes` to the session — called only after the register
    /// request succeeded, so refused work costs no quota.
    ///
    /// # Errors
    ///
    /// Same conditions as [`check_bytes`](SessionManager::check_bytes);
    /// under the one-request-at-a-time discipline of a connection
    /// handler a passed check cannot fail here.
    pub fn charge_bytes(&self, id: u64, bytes: u64) -> Result<(), SessionError> {
        let mut table = self.table();
        let s = table
            .get_mut(&id)
            .ok_or(SessionError::UnknownSession { id })?;
        self.fits(s, bytes)?;
        s.bytes_used += bytes;
        Ok(())
    }

    /// Check whether the session may take one more job, pruning
    /// finished handles first so completed work recycles its slot.
    ///
    /// # Errors
    ///
    /// [`SessionError::JobQuota`] when every slot holds an unfinished
    /// job; [`SessionError::UnknownSession`] when `id` is not open.
    pub fn check_job_slot(&self, id: u64) -> Result<(), SessionError> {
        let mut table = self.table();
        let s = table
            .get_mut(&id)
            .ok_or(SessionError::UnknownSession { id })?;
        let in_flight = s.prune();
        if in_flight >= self.limits.max_inflight_jobs {
            return Err(SessionError::JobQuota {
                in_flight,
                quota: self.limits.max_inflight_jobs,
            });
        }
        Ok(())
    }

    /// Attach a submitted job's handle to the session.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownSession`] when `id` is not open.
    pub fn attach_job(&self, id: u64, handle: JobHandle) -> Result<(), SessionError> {
        let mut table = self.table();
        let s = table
            .get_mut(&id)
            .ok_or(SessionError::UnknownSession { id })?;
        s.jobs.insert(handle.id(), handle);
        Ok(())
    }

    /// Look up one of the session's jobs (finished jobs included —
    /// clients poll outcomes after completion).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownJob`] when the job is not this session's;
    /// [`SessionError::UnknownSession`] when `id` is not open.
    pub fn job(&self, id: u64, job_id: u64) -> Result<JobHandle, SessionError> {
        let table = self.table();
        let s = table.get(&id).ok_or(SessionError::UnknownSession { id })?;
        s.jobs
            .get(&job_id)
            .cloned()
            .ok_or(SessionError::UnknownJob { id: job_id })
    }

    /// Unfinished jobs the session currently holds (pruning finished
    /// handles as a side effect).
    #[must_use]
    pub fn in_flight(&self, id: u64) -> usize {
        self.table().get_mut(&id).map_or(0, SessionState::prune)
    }

    /// Point-in-time view of one session's accounts.
    #[must_use]
    pub fn view(&self, id: u64) -> Option<SessionView> {
        let mut table = self.table();
        let s = table.get_mut(&id)?;
        let in_flight = s.prune();
        Some(SessionView {
            bytes_used: s.bytes_used,
            in_flight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobEngine, JobSpec};
    use crate::registry::compile_circuit;
    use sinw_atpg::faultsim::seeded_patterns;
    use std::sync::Arc;

    fn tiny_limits() -> SessionLimits {
        SessionLimits {
            max_bytes: 100,
            max_inflight_jobs: 2,
            idle_timeout: Duration::from_millis(10),
        }
    }

    #[test]
    fn byte_quota_is_checked_and_charged() {
        let m = SessionManager::new(tiny_limits());
        let s = m.open();
        assert!(m.check_bytes(s, 60).is_ok());
        m.charge_bytes(s, 60).expect("within quota");
        assert!(m.check_bytes(s, 40).is_ok(), "exactly at quota is fine");
        let err = m.check_bytes(s, 41).expect_err("over quota");
        assert_eq!(
            err,
            SessionError::ByteQuota {
                used: 60,
                requested: 41,
                quota: 100
            }
        );
        assert_eq!(m.view(s).expect("open").bytes_used, 60);
    }

    #[test]
    fn unknown_sessions_and_jobs_are_typed() {
        let m = SessionManager::new(tiny_limits());
        assert_eq!(
            m.check_bytes(99, 1),
            Err(SessionError::UnknownSession { id: 99 })
        );
        let s = m.open();
        assert_eq!(m.job(s, 7).err(), Some(SessionError::UnknownJob { id: 7 }));
        m.close(s);
        assert_eq!(
            m.job(s, 7).err(),
            Some(SessionError::UnknownSession { id: s })
        );
    }

    #[test]
    fn job_slots_recycle_as_work_finishes() {
        let m = SessionManager::new(tiny_limits());
        let s = m.open();
        let engine = JobEngine::new(2);
        let compiled = Arc::new(compile_circuit("c17", sinw_switch::gate::Circuit::c17()));
        let patterns = Arc::new(seeded_patterns(
            compiled.circuit().primary_inputs().len(),
            8,
            1,
        ));
        for _ in 0..2 {
            m.check_job_slot(s).expect("slot free");
            let handle = engine.submit(JobSpec::FaultSim {
                compiled: Arc::clone(&compiled),
                patterns: Arc::clone(&patterns),
                drop_detected: true,
                threads: 1,
            });
            m.attach_job(s, handle).expect("attach");
        }
        // Both slots may still be busy; once the work drains the slots
        // must recycle.
        engine.shutdown(); // drains: both jobs reach terminal outcomes
        assert_eq!(m.in_flight(s), 0, "finished handles prune away");
        m.check_job_slot(s).expect("slots recycled");
    }
}
