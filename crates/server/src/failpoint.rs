//! Deterministic fault injection: named fail points threaded through the
//! service layer's hot paths.
//!
//! A **fail point** is a named hook compiled into production code paths
//! (job chunk execution, snapshot encode/decode and file I/O, the
//! registry compile path, the snapshot store's write protocol). When the
//! process has no fail points configured — the production default — a
//! hit is a single relaxed atomic load and a predictable branch; nothing
//! else runs and nothing allocates. When a point is armed it can inject
//! three kinds of fault, each behind a deterministic trigger:
//!
//! * [`FailAction::Panic`] — unwind at the hit site, exercising the
//!   service layer's panic-isolation contracts;
//! * [`FailAction::IoError`] — return a typed [`InjectedError`] the hit
//!   site converts into its own error channel (jobs classify these as
//!   *transient* and retry them under their bounded backoff policy);
//! * [`FailAction::Delay`] — sleep the calling thread, exercising
//!   deadlines, `wait_timeout`, and scheduling races.
//!
//! ## Triggers
//!
//! Every armed point owns a [`Trigger`] evaluated per hit, with all
//! randomness coming from a per-point seeded xorshift stream — the same
//! configuration and hit order replay the same fault schedule:
//!
//! | trigger | fires |
//! |---------|-------|
//! | [`Trigger::Always`] | on every hit |
//! | [`Trigger::Nth`] | on exactly the `n`-th hit (1-based) |
//! | [`Trigger::Every`] | on every `n`-th hit |
//! | [`Trigger::Probability`] | per hit with probability `p`, seeded |
//!
//! ## Configuration
//!
//! Tests arm points programmatically ([`configure`] / the RAII
//! [`scoped`] guard); operators arm them through the `SINW_FAILPOINTS`
//! environment variable, parsed once on first hit:
//!
//! ```text
//! SINW_FAILPOINTS="jobs.faultsim.chunk=panic@nth:3;store.write.rename=ioerr@prob:0.1:seed:42;snapshot.decode=delay:5"
//! ```
//!
//! Grammar: `point=action[@trigger]` joined by `;`. Actions are `panic`,
//! `ioerr`, and `delay:<ms>`; triggers are `always` (the default),
//! `nth:<k>`, `every:<k>`, and `prob:<p>:<seed>` with `p` a probability
//! in `[0, 1]`.
//!
//! ## Fail-point catalog
//!
//! | point | site | actions honored |
//! |-------|------|-----------------|
//! | `jobs.faultsim.chunk` | every fault-sim chunk claim | panic, ioerr (transient), delay |
//! | `jobs.signatures.chunk` | every signature-capture chunk claim | panic, ioerr (transient), delay |
//! | `jobs.campaign.run` | campaign job body | panic, ioerr (transient), delay |
//! | `jobs.worker.die` | worker pickup, outside panic isolation | panic (kills the worker; the pool respawns it), delay |
//! | `registry.compile` | inside the per-key compile slot | panic (typed `CompilePanicked`), ioerr (typed `CompileFailed`, slot stays retryable), delay |
//! | `snapshot.encode` | start of [`Snapshot::encode`](crate::snapshot::Snapshot::encode) | panic, delay |
//! | `snapshot.decode` | start of [`Snapshot::decode`](crate::snapshot::Snapshot::decode) | panic, ioerr (typed `Malformed`), delay |
//! | `snapshot.read.io` | after the file read in `read_file` | ioerr (typed `Io`), delay |
//! | `snapshot.write.tmp` | before the temp-file write | ioerr (typed `Io`), delay |
//! | `snapshot.write.fsync` | between temp write and fsync | ioerr (temp removed, target intact), delay |
//! | `snapshot.write.rename` | between fsync and the atomic rename | ioerr (temp **left behind** — simulated crash debris), delay |
//! | `store.scan.read` | per file during the recovery scan | ioerr (file is quarantined), delay |
//! | `net.accept` | per accepted TCP connection | ioerr (connection dropped before a handler spawns), delay |
//! | `net.frame.read` | before every frame read in a connection handler | ioerr (best-effort error frame, connection closes), delay |
//! | `net.frame.write` | before every response frame write | ioerr (write fails, connection closes), delay |
//! | `net.progress.poll` | every poll of a streamed `AwaitJob` | delay (stretches the stream cadence); ioerr ignored (poll retried) |

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed fail point injects when its trigger fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FailAction {
    /// Unwind at the hit site with a message naming the point.
    Panic,
    /// Hand the hit site a typed [`InjectedError`] to route through its
    /// own error channel. Hit sites that retry classify these as
    /// transient.
    IoError,
    /// Sleep the calling thread for the given duration, then continue
    /// normally.
    Delay(Duration),
}

/// When an armed fail point injects. All counters are per point and
/// 1-based; the probabilistic trigger owns a seeded xorshift stream so a
/// fixed configuration and hit order replay the same schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire on exactly the `n`-th hit.
    Nth(u64),
    /// Fire on every `n`-th hit (hits `n`, `2n`, `3n`, …).
    Every(u64),
    /// Fire per hit with probability `p_millis / 1000`, from the seeded
    /// per-point stream.
    Probability {
        /// Probability in thousandths (0..=1000).
        p_millis: u32,
        /// Seed of the point's private xorshift stream.
        seed: u64,
    },
}

/// A fully specified fail-point arm: what to inject and when.
#[derive(Debug, Clone, PartialEq)]
pub struct FailConfig {
    /// The injected fault.
    pub action: FailAction,
    /// When it fires.
    pub trigger: Trigger,
}

impl FailConfig {
    /// An always-firing arm of `action`.
    #[must_use]
    pub fn always(action: FailAction) -> Self {
        FailConfig {
            action,
            trigger: Trigger::Always,
        }
    }

    /// An arm of `action` firing only on the `n`-th hit.
    #[must_use]
    pub fn nth(action: FailAction, n: u64) -> Self {
        FailConfig {
            action,
            trigger: Trigger::Nth(n),
        }
    }

    /// An arm of `action` firing with probability `p` (clamped to
    /// `[0, 1]`) per hit, from a stream seeded with `seed`.
    #[must_use]
    pub fn probability(action: FailAction, p: f64, seed: u64) -> Self {
        let p_millis = (p.clamp(0.0, 1.0) * 1000.0).round() as u32;
        FailConfig {
            action,
            trigger: Trigger::Probability { p_millis, seed },
        }
    }
}

/// The error value an [`FailAction::IoError`] injection hands the hit
/// site. Carries the point name so failure reports say exactly which
/// injection produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedError {
    /// Name of the fail point that fired.
    pub point: &'static str,
}

impl std::fmt::Display for InjectedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at fail point '{}'", self.point)
    }
}

impl std::error::Error for InjectedError {}

impl From<InjectedError> for std::io::Error {
    fn from(e: InjectedError) -> Self {
        std::io::Error::new(std::io::ErrorKind::Interrupted, e.to_string())
    }
}

/// Per-point runtime state: the arm plus hit/fire counters and the
/// private random stream.
struct PointState {
    config: FailConfig,
    hits: u64,
    fired: u64,
    rng: u64,
}

impl PointState {
    fn new(config: FailConfig) -> Self {
        let rng = match config.trigger {
            Trigger::Probability { seed, .. } => seed | 1,
            _ => 1,
        };
        PointState {
            config,
            hits: 0,
            fired: 0,
            rng,
        }
    }

    /// Evaluate one hit: advance the counters and return the action to
    /// perform, if the trigger fires.
    fn on_hit(&mut self) -> Option<FailAction> {
        self.hits += 1;
        let fire = match self.config.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => self.hits == n,
            Trigger::Every(n) => n != 0 && self.hits % n == 0,
            Trigger::Probability { p_millis, .. } => {
                // xorshift64: deterministic per-point stream.
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                (x % 1000) < u64::from(p_millis)
            }
        };
        if fire {
            self.fired += 1;
            Some(self.config.action.clone())
        } else {
            None
        }
    }
}

/// Number of currently armed points — the fast-path gate. Zero means
/// [`hit`] returns after one relaxed load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static ENV_INIT: Once = Once::new();

fn table() -> MutexGuard<'static, HashMap<&'static str, PointState>> {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, PointState>>> = OnceLock::new();
    // A panic injected *while the table lock is held* never happens (the
    // lock is released before the action runs), but a panicking test
    // thread can still poison the lock between hits; recover rather than
    // cascade.
    TABLE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Leak a point name into a `'static` key. Point names form a small
/// fixed catalog, so the leak is bounded.
fn intern(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// Arm `point` with `config`, replacing any previous arm (and resetting
/// its counters).
pub fn configure(point: &str, config: FailConfig) {
    let mut t = table();
    if t.insert(intern(point), PointState::new(config)).is_none() {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
}

/// Disarm `point`. Hits become free again once every point is disarmed.
pub fn remove(point: &str) {
    let mut t = table();
    if t.remove(point).is_some() {
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Disarm every point.
pub fn clear() {
    let mut t = table();
    let n = t.len();
    t.clear();
    ARMED.fetch_sub(n, Ordering::SeqCst);
}

/// How many times `point` has fired since it was (last) armed.
#[must_use]
pub fn fired(point: &str) -> u64 {
    table().get(point).map_or(0, |s| s.fired)
}

/// RAII arm: [`configure`]s on construction, [`remove`]s on drop.
/// Chaos tests hold one per armed point so a failing assertion cannot
/// leak an armed point into the next test.
pub struct Guard {
    point: &'static str,
}

impl Drop for Guard {
    fn drop(&mut self) {
        remove(self.point);
    }
}

/// Arm `point` for the lifetime of the returned [`Guard`].
#[must_use]
pub fn scoped(point: &str, config: FailConfig) -> Guard {
    let point = intern(point);
    configure(point, config);
    Guard { point }
}

/// Parse a `SINW_FAILPOINTS`-style specification. Returns the parsed
/// arms or a description of the first syntax error.
///
/// # Errors
///
/// Returns a human-readable description of the first malformed clause.
pub fn parse_spec(spec: &str) -> Result<Vec<(String, FailConfig)>, String> {
    let mut out = Vec::new();
    for clause in spec.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (name, rest) = clause
            .split_once('=')
            .ok_or_else(|| format!("clause '{clause}' has no '=': expected point=action"))?;
        let (action_str, trigger_str) = match rest.split_once('@') {
            Some((a, t)) => (a, Some(t)),
            None => (rest, None),
        };
        let action = match action_str
            .split_once(':')
            .map_or((action_str, None), |(a, arg)| (a, Some(arg)))
        {
            ("panic", None) => FailAction::Panic,
            ("ioerr", None) => FailAction::IoError,
            ("delay", Some(ms)) => {
                let ms: u64 = ms.parse().map_err(|_| {
                    format!("delay '{ms}' in '{clause}' is not a millisecond count")
                })?;
                FailAction::Delay(Duration::from_millis(ms))
            }
            _ => {
                return Err(format!(
                    "action '{action_str}' in '{clause}' is not panic | ioerr | delay:<ms>"
                ))
            }
        };
        let trigger = match trigger_str {
            None => Trigger::Always,
            Some(t) => {
                let mut parts = t.split(':');
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some("always"), None, ..) => Trigger::Always,
                    (Some("nth"), Some(n), None, _) => Trigger::Nth(
                        n.parse()
                            .map_err(|_| format!("nth '{n}' in '{clause}' is not a count"))?,
                    ),
                    (Some("every"), Some(n), None, _) => Trigger::Every(
                        n.parse()
                            .map_err(|_| format!("every '{n}' in '{clause}' is not a count"))?,
                    ),
                    (Some("prob"), Some(p), Some(seed), None) => {
                        let p: f64 = p
                            .parse()
                            .map_err(|_| format!("prob '{p}' in '{clause}' is not a number"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(format!("prob {p} in '{clause}' is outside [0, 1]"));
                        }
                        let seed: u64 = seed.parse().map_err(|_| {
                            format!("seed '{seed}' in '{clause}' is not an integer")
                        })?;
                        FailConfig::probability(FailAction::Panic, p, seed).trigger
                    }
                    _ => {
                        return Err(format!(
                            "trigger '{t}' in '{clause}' is not always | nth:<k> | every:<k> | \
                             prob:<p>:<seed>"
                        ))
                    }
                }
            }
        };
        out.push((name.to_string(), FailConfig { action, trigger }));
    }
    Ok(out)
}

/// Arm every point named in `spec` (the `SINW_FAILPOINTS` grammar).
///
/// # Errors
///
/// Returns the parse error of the first malformed clause; no point is
/// armed in that case.
pub fn configure_from_spec(spec: &str) -> Result<usize, String> {
    let arms = parse_spec(spec)?;
    let n = arms.len();
    for (name, config) in arms {
        configure(&name, config);
    }
    Ok(n)
}

/// One-time `SINW_FAILPOINTS` environment initialisation, run on the
/// first hit. A malformed specification panics loudly — silently
/// ignoring an operator's chaos schedule would fake robustness.
fn env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("SINW_FAILPOINTS") {
            if let Err(e) = configure_from_spec(&spec) {
                panic!("SINW_FAILPOINTS is malformed: {e}");
            }
        }
    });
}

/// Evaluate a hit on `point`.
///
/// The production fast path — no `SINW_FAILPOINTS`, nothing armed — is
/// one relaxed atomic load and a branch. When the point is armed and its
/// trigger fires, a [`FailAction::Panic`] unwinds here, a
/// [`FailAction::Delay`] sleeps here and then returns `Ok(())`, and a
/// [`FailAction::IoError`] returns the typed [`InjectedError`] for the
/// caller to route.
///
/// # Errors
///
/// Returns [`InjectedError`] when an armed `IoError` injection fires.
///
/// # Panics
///
/// Panics (by design) when an armed `Panic` injection fires.
#[inline]
pub fn hit(point: &'static str) -> Result<(), InjectedError> {
    env_init();
    if ARMED.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    hit_slow(point)
}

#[cold]
fn hit_slow(point: &'static str) -> Result<(), InjectedError> {
    let action = {
        let mut t = table();
        match t.get_mut(point) {
            Some(state) => state.on_hit(),
            None => None,
        }
    };
    match action {
        None => Ok(()),
        Some(FailAction::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(FailAction::IoError) => Err(InjectedError { point }),
        Some(FailAction::Panic) => panic!("fail point '{point}' injected a panic"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module mutate process-global fail-point state, so
    /// they serialize on one lock (shared with nothing else: unit tests
    /// use their own point names).
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_points_are_free_and_ok() {
        let _s = serial();
        assert_eq!(hit("unit.nonexistent"), Ok(()));
        assert_eq!(fired("unit.nonexistent"), 0);
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _s = serial();
        let _g = scoped("unit.nth", FailConfig::nth(FailAction::IoError, 3));
        assert!(hit("unit.nth").is_ok());
        assert!(hit("unit.nth").is_ok());
        assert!(hit("unit.nth").is_err());
        assert!(hit("unit.nth").is_ok());
        assert_eq!(fired("unit.nth"), 1);
    }

    #[test]
    fn every_trigger_fires_on_every_nth_hit() {
        let _s = serial();
        let _g = scoped(
            "unit.every",
            FailConfig {
                action: FailAction::IoError,
                trigger: Trigger::Every(2),
            },
        );
        let pattern: Vec<bool> = (0..6).map(|_| hit("unit.every").is_err()).collect();
        assert_eq!(pattern, [false, true, false, true, false, true]);
    }

    #[test]
    fn probability_stream_is_deterministic() {
        let _s = serial();
        let run = || -> Vec<bool> {
            let _g = scoped(
                "unit.prob",
                FailConfig::probability(FailAction::IoError, 0.5, 0xDEAD_BEEF),
            );
            (0..64).map(|_| hit("unit.prob").is_err()).collect()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same schedule");
        let fired: usize = a.iter().filter(|x| **x).count();
        assert!((10..=54).contains(&fired), "p=0.5 fired {fired}/64 times");
    }

    #[test]
    fn panic_action_panics_with_the_point_name() {
        let _s = serial();
        let _g = scoped("unit.panic", FailConfig::always(FailAction::Panic));
        let result = std::panic::catch_unwind(|| {
            let _ = hit("unit.panic");
        });
        let err = result.expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("unit.panic"), "panic message names the point");
    }

    #[test]
    fn spec_grammar_round_trips() {
        let _s = serial();
        let arms = parse_spec("a=panic; b=ioerr@nth:3 ;c=delay:25@every:4;d=ioerr@prob:0.25:99")
            .expect("valid spec");
        assert_eq!(arms.len(), 4);
        assert_eq!(
            arms[0],
            (String::from("a"), FailConfig::always(FailAction::Panic))
        );
        assert_eq!(arms[1].1, FailConfig::nth(FailAction::IoError, 3));
        assert_eq!(
            arms[2].1,
            FailConfig {
                action: FailAction::Delay(Duration::from_millis(25)),
                trigger: Trigger::Every(4),
            }
        );
        assert_eq!(
            arms[3].1.trigger,
            Trigger::Probability {
                p_millis: 250,
                seed: 99
            }
        );
    }

    #[test]
    fn spec_errors_are_descriptive() {
        let _s = serial();
        assert!(parse_spec("nonsense").unwrap_err().contains("no '='"));
        assert!(parse_spec("a=frob").unwrap_err().contains("frob"));
        assert!(parse_spec("a=delay:xs").unwrap_err().contains("delay"));
        assert!(parse_spec("a=panic@prob:1.5:3")
            .unwrap_err()
            .contains("outside"));
        assert!(parse_spec("a=panic@sometimes")
            .unwrap_err()
            .contains("sometimes"));
    }
}
