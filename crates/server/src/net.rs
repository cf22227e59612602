//! The TCP face of the service: [`NetServer`] binds the wire protocol
//! ([`crate::wire`]) to the existing in-process pieces, and
//! [`NetClient`] is the matching std-only client.
//!
//! The server **composes** rather than re-derives: circuits land in the
//! byte-bounded [`CircuitRegistry`] (its typed backpressure becomes
//! [`ErrorCode::Oversized`] frames), a configured [`SnapshotStore`]
//! warm-starts the registry on boot and persists every registration,
//! jobs run on the bounded [`JobEngine`] with per-request timeouts
//! mapped onto [`JobPolicy`] deadlines, and per-client quotas live in
//! the [`SessionManager`].
//!
//! ## Connection lifecycle
//!
//! Each accepted connection gets a session and a handler thread running
//! a strict request → response loop. The socket read timeout doubles as
//! the idle tick: on every tick the handler closes the connection when
//! it has been idle past the session `idle_timeout` with no job in
//! flight, or when the server is draining and its last job has
//! finished. A framing error (bad magic, unsupported version, checksum
//! mismatch, truncation) desynchronizes the stream, so the handler
//! sends a best-effort [`ErrorCode::BadFrame`] frame and closes — the
//! *server* stays serviceable for every other connection. A well-framed
//! but malformed or unknown request only costs an error frame; the
//! connection keeps serving.
//!
//! ## Drain protocol
//!
//! [`NetServer::shutdown`] (also run on drop) flips the drain flag,
//! stops the accept loop, and joins every handler: in-flight jobs
//! finish and stream their outcomes, new `SubmitJob` requests are
//! refused with [`ErrorCode::Draining`], idle connections close at
//! their next tick, and finally the job engine drains.
//!
//! ## Fail points
//!
//! Every server-side I/O edge is named: `net.accept` (ioerr drops the
//! freshly accepted connection), `net.frame.read` (ioerr poisons the
//! read, closing the connection), `net.frame.write` (ioerr fails the
//! response write), and `net.progress.poll` (delay stretches the
//! streaming cadence; ioerr is ignored — polling is retried).

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sinw_atpg::tpg::AtpgConfig;

use crate::codec::CodecError;
use crate::jobs::{JobEngine, JobPolicy, JobProgress, JobSpec};
use crate::registry::{CircuitRegistry, CompiledCircuit, RegistryError};
use crate::session::{SessionError, SessionLimits, SessionManager};
use crate::snapshot::Snapshot;
use crate::store::SnapshotStore;
use crate::wire::{
    self, ErrorCode, FrameEvent, Incoming, Put, Request, Response, WireJob, WireOutcome, WireStats,
};
use crate::{failpoint, lock_clean};

/// Registry byte capacity ([`CircuitRegistry::with_capacity_bytes`]).
const REGISTRY_CAPACITY: usize = 256 * 1024 * 1024;

/// Socket read timeout — the handler's idle/drain tick period.
const READ_POLL: Duration = Duration::from_millis(25);

/// Longest `AwaitJob` waits on the job's completion before it checks
/// progress again: the progress stream's cadence. The job's finish
/// wakes the wait at once.
const PROGRESS_POLL: Duration = Duration::from_millis(1);

/// Server configuration: pool size, quotas, and persistence.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Job-engine worker threads.
    pub workers: usize,
    /// Per-session quotas.
    pub limits: SessionLimits,
    /// When set, a [`SnapshotStore`] opens here: the registry
    /// warm-starts from it on boot and every successful registration is
    /// persisted to it.
    pub store_dir: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 2,
            limits: SessionLimits::default(),
            store_dir: None,
        }
    }
}

/// Everything the accept loop and the handlers share.
struct ServerShared {
    idle_timeout: Duration,
    registry: CircuitRegistry,
    engine: JobEngine,
    sessions: SessionManager,
    store: Option<SnapshotStore>,
    draining: AtomicBool,
    jobs_submitted: AtomicU64,
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A running TCP service. Dropping (or calling
/// [`shutdown`](NetServer::shutdown)) drains gracefully.
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("draining", &self.shared.draining.load(Ordering::SeqCst))
            .finish()
    }
}

impl NetServer {
    /// Bind `addr` and start serving: open + warm-start the snapshot
    /// store when configured, spawn the accept loop, and return.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the store's recovery-scan
    /// failure, as `std::io::Error`.
    pub fn bind(addr: impl ToSocketAddrs, config: NetConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let registry = CircuitRegistry::with_capacity_bytes(REGISTRY_CAPACITY);
        let store = match &config.store_dir {
            None => None,
            Some(dir) => {
                let (store, _recovery) = SnapshotStore::open(dir).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                store.warm_start(&registry).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                Some(store)
            }
        };

        let shared = Arc::new(ServerShared {
            engine: JobEngine::new(config.workers.max(1)),
            sessions: SessionManager::new(config.limits),
            registry,
            store,
            draining: AtomicBool::new(false),
            jobs_submitted: AtomicU64::new(0),
            handlers: Mutex::new(Vec::new()),
            idle_timeout: config.limits.idle_timeout,
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(String::from("sinw-net-accept"))
            .spawn(move || accept_loop(&accept_shared, &listener))
            .expect("spawn accept thread");

        Ok(NetServer {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the OS-assigned port when bound to
    /// port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's registry — test assertions read its counters.
    #[must_use]
    pub fn registry(&self) -> &CircuitRegistry {
        &self.shared.registry
    }

    /// Jobs accepted over the server's lifetime.
    #[must_use]
    pub fn jobs_submitted(&self) -> u64 {
        self.shared.jobs_submitted.load(Ordering::SeqCst)
    }

    /// Graceful drain: refuse new accepts and new jobs, let in-flight
    /// jobs finish and stream their outcomes, join every handler, then
    /// drain the job engine. Returns when the server is fully stopped.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        loop {
            let handles = { std::mem::take(&mut *lock_clean(&self.shared.handlers)) };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // The engine itself drains when `shared` drops (handlers are
        // joined, so this is the last strong reference).
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Accept connections until the drain flag flips. Nonblocking accept +
/// sleep keeps the drain check responsive without busy-waiting.
fn accept_loop(shared: &Arc<ServerShared>, listener: &TcpListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if failpoint::hit("net.accept").is_err() {
                    // Injected accept failure: the connection is dropped
                    // on the floor; the client sees a clean close.
                    drop(stream);
                    continue;
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(String::from("sinw-net-conn"))
                    .spawn(move || handle_connection(&conn_shared, stream))
                    .expect("spawn connection handler");
                lock_clean(&shared.handlers).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Closes the session on every exit path, panics included — a handler
/// thread dying must not leak its session.
struct SessionCloser<'a> {
    sessions: &'a SessionManager,
    id: u64,
}

impl Drop for SessionCloser<'_> {
    fn drop(&mut self) {
        self.sessions.close(self.id);
    }
}

/// One served connection: its socket and the two frame buffers it
/// keeps across requests, so a large response or request is not
/// written into, or read into, freshly allocated memory each time.
struct Conn {
    stream: TcpStream,
    /// The response being written.
    frame: Vec<u8>,
    /// The payload of the request being read.
    payload: Vec<u8>,
}

/// Send one response, honoring the `net.frame.write` fail point.
fn send<W: Put>(conn: &mut Conn, response: &Response<W>) -> Result<(), CodecError> {
    failpoint::hit("net.frame.write").map_err(std::io::Error::from)?;
    response.frame_into(&mut conn.frame);
    Ok(conn.stream.write_all(&conn.frame)?)
}

/// Intra-job workers for a wire-supplied thread count: at least one, at
/// most the host's available parallelism.
fn job_threads(requested: u32) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    usize::try_from(requested).map_or(cores, |t| t.clamp(1, cores))
}

fn error_response(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn unknown_key(key: u64) -> Response {
    error_response(
        ErrorCode::UnknownKey,
        format!("no circuit registered under key {key:#018x}"),
    )
}

fn session_error_response(e: &SessionError) -> Response {
    let code = match e {
        SessionError::ByteQuota { .. } => ErrorCode::ByteQuota,
        SessionError::JobQuota { .. } => ErrorCode::JobQuota,
        SessionError::UnknownJob { .. } => ErrorCode::UnknownJob,
        SessionError::UnknownSession { .. } => ErrorCode::BadFrame,
    };
    error_response(code, e.to_string())
}

fn registry_error_response(e: &RegistryError) -> Response {
    let code = match e {
        RegistryError::Parse(_) => ErrorCode::Parse,
        RegistryError::CompilePanicked { .. } | RegistryError::CompileFailed { .. } => {
            ErrorCode::CompileFailed
        }
        RegistryError::Oversized { .. } => ErrorCode::Oversized,
    };
    error_response(code, e.to_string())
}

fn progress_frame(job: u64, p: JobProgress, finished: bool) -> Response {
    Response::Progress {
        job,
        done: p.done as u64,
        total: p.total as u64,
        finished,
    }
}

/// Charge a successful registration to the session, persist it
/// best-effort (a failed save costs durability, not the registration),
/// and answer with its key.
fn registered(
    shared: &ServerShared,
    session: u64,
    payload_len: u64,
    artifact: &CompiledCircuit,
) -> Response {
    let _ = shared.sessions.charge_bytes(session, payload_len);
    if let Some(store) = &shared.store {
        let _ = store.save_artifact(artifact);
    }
    Response::Registered {
        key: artifact.key(),
        approx_bytes: artifact.approx_bytes() as u64,
    }
}

/// One connection's request → response loop.
fn handle_connection(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut conn = Conn {
        stream,
        frame: Vec::new(),
        payload: Vec::new(),
    };
    let session = shared.sessions.open();
    let _closer = SessionCloser {
        sessions: &shared.sessions,
        id: session,
    };
    let mut last_active = Instant::now();

    loop {
        if failpoint::hit("net.frame.read").is_err() {
            let _ = send(
                &mut conn,
                &error_response(ErrorCode::BadFrame, "injected read fault"),
            );
            return;
        }
        let max = wire::DEFAULT_MAX_PAYLOAD;
        match wire::read_frame_into(&mut conn.stream, max, &mut conn.payload) {
            Ok(Incoming::Idle) => {
                // The one idle rule: close when draining or idle past the
                // timeout, and never while a job is in flight.
                let quiet = shared.draining.load(Ordering::SeqCst)
                    || last_active.elapsed() >= shared.idle_timeout;
                if quiet && shared.sessions.in_flight(session) == 0 {
                    return;
                }
            }
            Ok(Incoming::Closed) => return,
            Ok(Incoming::Frame(frame_type)) => {
                last_active = Instant::now();
                let payload_len = conn.payload.len() as u64;
                let served = match Request::decode(frame_type, &conn.payload) {
                    Ok(request) => handle_request(shared, session, &mut conn, request, payload_len),
                    Err(e @ CodecError::UnknownFrameType { .. }) => {
                        // Well-framed, just not a request we serve: the
                        // stream is still synchronized, so the
                        // connection keeps serving.
                        send(
                            &mut conn,
                            &error_response(ErrorCode::UnknownRequest, e.to_string()),
                        )
                    }
                    Err(e) => send(
                        &mut conn,
                        &error_response(ErrorCode::BadFrame, e.to_string()),
                    ),
                };
                if served.is_err() {
                    return;
                }
            }
            Err(e) => {
                // Framing violation or socket failure: the byte stream
                // can no longer be trusted. Best-effort typed error,
                // then close this connection (the server lives on).
                let _ = send(
                    &mut conn,
                    &error_response(ErrorCode::BadFrame, e.to_string()),
                );
                return;
            }
        }
    }
}

/// Serve one decoded request. `Err` means the response could not be
/// written and the connection must close.
fn handle_request(
    shared: &Arc<ServerShared>,
    session: u64,
    conn: &mut Conn,
    request: Request,
    payload_len: u64,
) -> Result<(), CodecError> {
    match request {
        Request::RegisterBench { name, source } => {
            if let Err(e) = shared.sessions.check_bytes(session, payload_len) {
                return send(conn, &session_error_response(&e));
            }
            let response = match shared.registry.register_bench(&name, &source) {
                Ok(artifact) => registered(shared, session, payload_len, &artifact),
                Err(e) => registry_error_response(&e),
            };
            send(conn, &response)
        }
        Request::RegisterSnapshot { bytes } => {
            if let Err(e) = shared.sessions.check_bytes(session, payload_len) {
                return send(conn, &session_error_response(&e));
            }
            let response = match Snapshot::decode(&bytes) {
                Ok(snapshot) => {
                    let artifact = CompiledCircuit::from_snapshot(snapshot);
                    let artifact = shared.registry.insert(Arc::new(artifact));
                    registered(shared, session, payload_len, &artifact)
                }
                Err(e) => error_response(ErrorCode::SnapshotRejected, e.to_string()),
            };
            send(conn, &response)
        }
        Request::SubmitJob(job) => {
            if shared.draining.load(Ordering::SeqCst) {
                return send(
                    conn,
                    &error_response(ErrorCode::Draining, "server is draining"),
                );
            }
            if let Err(e) = shared.sessions.check_job_slot(session) {
                return send(conn, &session_error_response(&e));
            }
            let (key, timeout_ms) = match &job {
                WireJob::FaultSim {
                    key, timeout_ms, ..
                }
                | WireJob::Signatures {
                    key, timeout_ms, ..
                }
                | WireJob::Campaign {
                    key, timeout_ms, ..
                } => (*key, *timeout_ms),
            };
            let Some(compiled) = shared.registry.get(key) else {
                return send(conn, &unknown_key(key));
            };
            let n_pi = compiled.circuit().primary_inputs().len();
            if let WireJob::FaultSim { patterns, .. } | WireJob::Signatures { patterns, .. } = &job
            {
                if patterns.iter().any(|p| p.len() != n_pi) {
                    return send(
                        conn,
                        &error_response(
                            ErrorCode::BadFrame,
                            format!("patterns must be {n_pi} bits wide for this circuit"),
                        ),
                    );
                }
            }
            let spec = match job {
                WireJob::FaultSim {
                    patterns,
                    drop_detected,
                    threads,
                    ..
                } => JobSpec::FaultSim {
                    compiled,
                    patterns: Arc::new(patterns),
                    drop_detected,
                    threads: job_threads(threads),
                },
                WireJob::Signatures {
                    patterns, threads, ..
                } => JobSpec::Signatures {
                    compiled,
                    patterns: Arc::new(patterns),
                    threads: job_threads(threads),
                },
                WireJob::Campaign { seed, .. } => JobSpec::Campaign {
                    compiled,
                    config: AtpgConfig {
                        seed,
                        ..AtpgConfig::default()
                    },
                },
            };
            let policy = if timeout_ms > 0 {
                JobPolicy::with_deadline(Duration::from_millis(timeout_ms))
            } else {
                JobPolicy::default()
            };
            let handle = shared.engine.submit_with(spec, policy);
            let job_id = handle.id();
            let _ = shared.sessions.attach_job(session, handle);
            shared.jobs_submitted.fetch_add(1, Ordering::SeqCst);
            send(conn, &Response::<Vec<u64>>::Submitted { job: job_id })
        }
        Request::JobProgress { job } | Request::CancelJob { job } => {
            match shared.sessions.job(session, job) {
                Ok(handle) => {
                    if matches!(request, Request::CancelJob { .. }) {
                        handle.cancel();
                    }
                    let p = handle.progress();
                    send(conn, &progress_frame(job, p, handle.is_finished()))
                }
                Err(e) => send(conn, &session_error_response(&e)),
            }
        }
        Request::AwaitJob { job } => match shared.sessions.job(session, job) {
            Ok(handle) => {
                // Stream progress: one frame on entry, one per observed
                // change, then the terminal (finished) frame and the
                // outcome.
                let mut last = handle.progress();
                send(conn, &progress_frame(job, last, false))?;
                let outcome = loop {
                    if let Some(outcome) = handle.outcome_within(PROGRESS_POLL) {
                        break outcome;
                    }
                    // Delay injections stretch the cadence; an ioerr arm
                    // is ignored (polling is retried, not abandoned).
                    let _ = failpoint::hit("net.progress.poll");
                    let p = handle.progress();
                    if p != last {
                        last = p;
                        send(conn, &progress_frame(job, p, false))?;
                    }
                };
                let p = handle.progress();
                send(conn, &progress_frame(job, p, true))?;
                send(
                    conn,
                    &Response::Outcome {
                        job,
                        outcome: WireOutcome::borrowed(&outcome),
                    },
                )
            }
            Err(e) => send(conn, &session_error_response(&e)),
        },
        Request::FetchSnapshot { key } => match shared.registry.get(key) {
            Some(artifact) => send(
                conn,
                &Response::<Vec<u64>>::SnapshotBytes {
                    bytes: artifact.snapshot_bytes(),
                },
            ),
            None => send(conn, &unknown_key(key)),
        },
        Request::Stats => {
            let r = shared.registry.stats();
            send(
                conn,
                &Response::<Vec<u64>>::StatsReport(WireStats {
                    sessions: shared.sessions.len() as u64,
                    jobs_submitted: shared.jobs_submitted.load(Ordering::SeqCst),
                    hits: r.hits,
                    misses: r.misses,
                    compiles: r.compiles,
                    evictions: r.evictions,
                    entries: r.entries as u64,
                    bytes: r.bytes as u64,
                    capacity: r.capacity as u64,
                }),
            )
        }
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The wire layer failed (socket, framing, decode).
    Wire(CodecError),
    /// The server answered with a typed error frame.
    Server {
        /// The server's error class.
        code: ErrorCode,
        /// The server's detail message.
        message: String,
    },
    /// The server answered with a well-formed but unexpected response
    /// type.
    Protocol {
        /// What arrived instead.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ClientError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Wire(e)
    }
}

/// A well-formed response of the wrong type — a protocol violation.
fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol {
        detail: format!("expected {wanted}, got {got:?}"),
    }
}

/// A blocking client for one service connection. Every method is one
/// request → response exchange ([`await_job`](NetClient::await_job)
/// additionally consumes the progress stream).
pub struct NetClient {
    stream: TcpStream,
    max_payload: u64,
    /// The request being written, kept across requests.
    frame: Vec<u8>,
    /// The payload of the response being read, kept across responses.
    payload: Vec<u8>,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient").finish_non_exhaustive()
    }
}

impl NetClient {
    /// Connect to a [`NetServer`] with a 120 s per-frame read timeout —
    /// the client's bound on a hung server.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on connect/configure failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr).map_err(CodecError::from)?;
        stream.set_nodelay(true).map_err(CodecError::from)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(CodecError::from)?;
        Ok(NetClient {
            stream,
            max_payload: wire::DEFAULT_MAX_PAYLOAD,
            frame: Vec::new(),
            payload: Vec::new(),
        })
    }

    fn request(&mut self, request: &Request) -> Result<(), ClientError> {
        request.frame_into(&mut self.frame);
        self.stream
            .write_all(&self.frame)
            .map_err(CodecError::from)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        match wire::read_frame_into(&mut self.stream, self.max_payload, &mut self.payload)? {
            Incoming::Frame(frame_type) => Ok(Response::decode(frame_type, &self.payload)?),
            Incoming::Closed => Err(ClientError::Protocol {
                detail: String::from("server closed the connection mid-exchange"),
            }),
            Incoming::Idle => Err(ClientError::Protocol {
                detail: String::from("timed out waiting for a response frame"),
            }),
        }
    }

    /// One non-streaming exchange, with error frames lifted to
    /// [`ClientError::Server`].
    fn exchange(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.request(request)?;
        match self.recv()? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Register a `.bench` source; returns `(key, approx_bytes)`.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed parse / compile / quota /
    /// capacity error.
    pub fn register_bench(&mut self, name: &str, source: &str) -> Result<(u64, u64), ClientError> {
        match self.exchange(&Request::RegisterBench {
            name: String::from(name),
            source: String::from(source),
        })? {
            Response::Registered { key, approx_bytes } => Ok((key, approx_bytes)),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Register a pre-compiled `.sinw` snapshot byte string; returns
    /// `(key, approx_bytes)`.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed rejection / quota error.
    pub fn register_snapshot(&mut self, bytes: Vec<u8>) -> Result<(u64, u64), ClientError> {
        match self.exchange(&Request::RegisterSnapshot { bytes })? {
            Response::Registered { key, approx_bytes } => Ok((key, approx_bytes)),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Submit a job; returns its id.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed quota / unknown-key /
    /// draining error. Pattern rows of differing widths are refused as
    /// [`CodecError::Malformed`] before anything is sent.
    pub fn submit(&mut self, job: WireJob) -> Result<u64, ClientError> {
        if let WireJob::FaultSim { patterns, .. } | WireJob::Signatures { patterns, .. } = &job {
            let width = patterns.first().map_or(0, Vec::len);
            if let Some(row) = patterns.iter().position(|p| p.len() != width) {
                return Err(ClientError::Wire(CodecError::Malformed {
                    context: "job patterns",
                    detail: format!(
                        "row {row} has {} bits, row 0 has {width}",
                        patterns[row].len()
                    ),
                }));
            }
        }
        match self.exchange(&Request::SubmitJob(job))? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Cooperatively cancel a job; returns its progress at cancel time.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed unknown-job error.
    pub fn cancel(&mut self, job: u64) -> Result<(u64, u64, bool), ClientError> {
        match self.exchange(&Request::CancelJob { job })? {
            Response::Progress {
                done,
                total,
                finished,
                ..
            } => Ok((done, total, finished)),
            other => Err(unexpected("Progress", &other)),
        }
    }

    /// Block on a job, feeding every streamed `(done, total)`
    /// observation to `on_progress`, and return the terminal outcome.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed unknown-job error.
    pub fn await_job(
        &mut self,
        job: u64,
        mut on_progress: impl FnMut(u64, u64),
    ) -> Result<WireOutcome, ClientError> {
        self.request(&Request::AwaitJob { job })?;
        loop {
            match self.recv()? {
                Response::Progress { done, total, .. } => on_progress(done, total),
                Response::Outcome { outcome, .. } => return Ok(outcome),
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => return Err(unexpected("Progress | Outcome", &other)),
            }
        }
    }

    /// Fetch the `.sinw` snapshot bytes of a registered circuit.
    ///
    /// # Errors
    ///
    /// Wire failures, or the server's typed unknown-key error.
    pub fn fetch_snapshot(&mut self, key: u64) -> Result<Vec<u8>, ClientError> {
        match self.exchange(&Request::FetchSnapshot { key })? {
            Response::SnapshotBytes { bytes } => Ok(bytes),
            other => Err(unexpected("SnapshotBytes", &other)),
        }
    }

    /// Fetch server counters.
    ///
    /// # Errors
    ///
    /// Wire failures.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.exchange(&Request::Stats)? {
            Response::StatsReport(stats) => Ok(stats),
            other => Err(unexpected("StatsReport", &other)),
        }
    }

    /// Raw frame access for protocol tests: send arbitrary bytes.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on socket failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes).map_err(CodecError::from)?;
        self.stream.flush().map_err(CodecError::from)?;
        Ok(())
    }

    /// Half-close the write side, signalling EOF to the server while
    /// keeping the read side open — protocol tests use this to observe
    /// the server's close without waiting out an idle timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] on socket failure.
    pub fn shutdown_write(&mut self) -> Result<(), ClientError> {
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .map_err(CodecError::from)?;
        Ok(())
    }

    /// Raw frame access for protocol tests: read one frame event.
    ///
    /// # Errors
    ///
    /// The typed [`CodecError`] of the failed read.
    pub fn recv_raw(&mut self) -> Result<FrameEvent, ClientError> {
        Ok(wire::read_frame(&mut self.stream, self.max_payload)?)
    }

    /// Drain the stream until the server closes it (protocol tests use
    /// this to observe a close after a poisoned frame). Returns how
    /// many complete frames arrived before the close, or the first hard
    /// error other than closure.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the stream idles out instead of
    /// closing.
    pub fn drain_until_closed(&mut self) -> Result<usize, ClientError> {
        let mut frames = 0usize;
        loop {
            match wire::read_frame(&mut self.stream, self.max_payload) {
                Ok(FrameEvent::Frame { .. }) => frames += 1,
                Ok(FrameEvent::Closed) => return Ok(frames),
                Ok(FrameEvent::Idle) => {
                    return Err(ClientError::Protocol {
                        detail: String::from("stream idled out instead of closing"),
                    })
                }
                // A reset counts as closed for this observation.
                Err(CodecError::Io { .. }) => return Ok(frames),
                Err(e) => return Err(e.into()),
            }
        }
    }
}
