//! Property tests of the session layer's quota discipline: random
//! register/submit sequences against random limits must (a) never push
//! a session past either quota, (b) refuse breaches with the exact
//! typed [`SessionError`], and (c) drive every admitted job to a
//! terminal outcome. Plus the idle rule, tested where it runs — in the
//! connection handler: an idle connection closes only once no job is in
//! flight.

use proptest::prelude::*;
use sinw_atpg::faultsim::{seeded_patterns, simulate_faults, JOB_CHUNK};
use sinw_server::failpoint::{self, FailAction, FailConfig};
use sinw_server::jobs::{JobEngine, JobHandle, JobOutcome, JobSpec};
use sinw_server::net::{NetClient, NetConfig, NetServer};
use sinw_server::registry::{compile_circuit, CompiledCircuit};
use sinw_server::session::{SessionError, SessionLimits, SessionManager};
use sinw_server::wire::{WireJob, WireOutcome};
use sinw_switch::generate::array_multiplier;
use sinw_switch::iscas::{parse_bench, CSA16_BENCH};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Fail-point state is process-global; the delay-armed tests below
/// serialize against anything else in this binary.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn fixture() -> Arc<CompiledCircuit> {
    static FIXTURE: OnceLock<Arc<CompiledCircuit>> = OnceLock::new();
    Arc::clone(FIXTURE.get_or_init(|| Arc::new(compile_circuit("mul3", array_multiplier(3)))))
}

/// One step of a random client. `Register` carries a payload size;
/// `Submit` queues one fault-sim job; `Drain` waits the session's work
/// dry.
#[derive(Debug, Clone, Copy)]
enum Op {
    Register(u64),
    Submit,
    Drain,
}

/// The vendored proptest has no `prop_map`, so ops arrive as raw
/// integers: the residue mod 7 picks the kind (weighted toward
/// register/submit pressure), the quotient is the register payload.
fn decode_op(raw: u64) -> Op {
    match raw % 7 {
        0 | 1 => Op::Register(raw / 7),
        2..=4 => Op::Submit,
        _ => Op::Drain,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random op sequences against random limits. Shadow accounting
    /// cross-checks the manager at every step.
    #[test]
    fn quotas_hold_and_every_admitted_job_finishes(
        raw_ops in proptest::collection::vec(0u64..10_500, 1..28),
        max_bytes in 1u64..4096,
        max_inflight in 1usize..4,
    ) {
        let _serial = serial();
        failpoint::clear();
        // Stretch each job past the submit churn so the job quota
        // actually fills with unfinished work.
        let _slow = failpoint::scoped(
            "jobs.faultsim.chunk",
            FailConfig::always(FailAction::Delay(Duration::from_millis(2))),
        );

        let limits = SessionLimits {
            max_bytes,
            max_inflight_jobs: max_inflight,
            ..SessionLimits::default()
        };
        let manager = SessionManager::new(limits);
        let engine = JobEngine::new(1);
        let compiled = fixture();
        let patterns = Arc::new(seeded_patterns(
            compiled.circuit().primary_inputs().len(),
            16,
            0xC0FFEE,
        ));

        let session = manager.open();
        let mut shadow_bytes = 0u64;
        let mut handles: Vec<JobHandle> = Vec::new();

        for &raw in &raw_ops {
            match decode_op(raw) {
                Op::Register(bytes) => {
                    match manager.check_bytes(session, bytes) {
                        Ok(()) => {
                            prop_assert!(shadow_bytes + bytes <= max_bytes,
                                "check admitted a breach: {shadow_bytes} + {bytes} > {max_bytes}");
                            manager.charge_bytes(session, bytes).expect("checked charge");
                            shadow_bytes += bytes;
                        }
                        Err(SessionError::ByteQuota { used, requested, quota }) => {
                            prop_assert_eq!(used, shadow_bytes, "error reports the true account");
                            prop_assert_eq!(requested, bytes);
                            prop_assert_eq!(quota, max_bytes);
                            prop_assert!(shadow_bytes + bytes > max_bytes,
                                "refused a request that fits");
                        }
                        Err(other) => prop_assert!(false, "wrong error type: {other}"),
                    }
                }
                Op::Submit => {
                    match manager.check_job_slot(session) {
                        Ok(()) => {
                            let handle = engine.submit(JobSpec::FaultSim {
                                compiled: Arc::clone(&compiled),
                                patterns: Arc::clone(&patterns),
                                drop_detected: true,
                                threads: 1,
                            });
                            manager.attach_job(session, handle.clone()).expect("attach");
                            handles.push(handle);
                        }
                        Err(SessionError::JobQuota { in_flight, quota }) => {
                            prop_assert_eq!(quota, max_inflight);
                            prop_assert!(in_flight >= max_inflight,
                                "refused with free slots: {in_flight} < {max_inflight}");
                        }
                        Err(other) => prop_assert!(false, "wrong error type: {other}"),
                    }
                }
                Op::Drain => {
                    for h in &handles {
                        let _ = h.wait();
                    }
                }
            }

            // Global invariants, every step.
            let view = manager.view(session).expect("our session is open");
            prop_assert_eq!(view.bytes_used, shadow_bytes, "byte account drifted");
            prop_assert!(view.bytes_used <= max_bytes, "byte quota exceeded");
            prop_assert!(view.in_flight <= max_inflight, "job quota exceeded");
        }

        // (c) Terminal outcomes: with only a delay armed, every admitted
        // job completes as a real fault-sim report.
        for h in &handles {
            prop_assert!(
                matches!(h.wait(), JobOutcome::FaultSim(_)),
                "an admitted job must reach its terminal outcome"
            );
        }
        engine.shutdown();
    }

    /// The byte boundary is exact: a session may register up to its
    /// quota to the byte, and the first byte past it is refused with
    /// the account untouched.
    #[test]
    fn the_byte_quota_boundary_is_exact(max_bytes in 1u64..10_000) {
        let _serial = serial();
        let manager = SessionManager::new(SessionLimits {
            max_bytes,
            ..SessionLimits::default()
        });
        let s = manager.open();
        prop_assert!(manager.check_bytes(s, max_bytes).is_ok(), "exactly-at-quota fits");
        manager.charge_bytes(s, max_bytes).expect("charge to the brim");
        let err = manager.check_bytes(s, 1).expect_err("one byte over");
        prop_assert_eq!(err, SessionError::ByteQuota {
            used: max_bytes,
            requested: 1,
            quota: max_bytes,
        });
        prop_assert_eq!(manager.view(s).expect("open").bytes_used, max_bytes,
            "a refused request must not touch the account");
    }
}

/// The idle rule lives in the connection handler: a client may stay
/// silent past `idle_timeout` while its job runs and still await the
/// outcome on the same connection; once the job is done and the
/// connection stays idle, the server closes it.
#[test]
fn an_idle_connection_outlives_its_running_job_then_closes() {
    let _serial = serial();
    failpoint::clear();
    let idle_timeout = Duration::from_millis(50);
    let chunk_delay = Duration::from_millis(40);

    let compiled = compile_circuit("csa16", parse_bench(CSA16_BENCH).expect("fixture parses"));
    let faults = &compiled.collapsed().representatives;
    let chunks = faults.len().div_ceil(JOB_CHUNK);
    assert!(chunks >= 8, "the job must span many chunks, got {chunks}");
    let patterns = seeded_patterns(compiled.circuit().primary_inputs().len(), 32, 0x1D1E);
    let reference = WireOutcome::from_fault_sim(&simulate_faults(
        compiled.circuit(),
        faults,
        &patterns,
        false,
    ));

    let mut config = NetConfig::default();
    config.limits.idle_timeout = idle_timeout;
    let server = NetServer::bind("127.0.0.1:0", config).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let (key, _) = client
        .register_bench("csa16", CSA16_BENCH)
        .expect("register");

    // Every chunk sleeps, so one thread runs the job for at least
    // `chunks * chunk_delay` (>= 320 ms) — far past the idle timeout.
    let _slow = failpoint::scoped(
        "jobs.faultsim.chunk",
        FailConfig::always(FailAction::Delay(chunk_delay)),
    );
    let submitted = Instant::now();
    let job = client
        .submit(WireJob::FaultSim {
            key,
            patterns,
            drop_detected: false,
            threads: 1,
            timeout_ms: 0,
        })
        .expect("submit");
    std::thread::sleep(3 * idle_timeout);
    assert!(
        submitted.elapsed() < chunk_delay * chunks as u32,
        "the silence must end while the job is still running"
    );
    let outcome = client
        .await_job(job, |_, _| {})
        .expect("await after silence");
    assert_eq!(outcome, reference, "the awaited outcome is bit-identical");

    // The job is finished and the client goes quiet: the handler's next
    // idle tick closes the connection.
    assert_eq!(client.drain_until_closed().expect("server closes"), 0);
    drop(client);
    server.shutdown();
}
