//! `warm-service`: two closed-loop `NetClient` connections over loopback
//! to one `NetServer` with the default configuration.
//!
//! Set-up binds the server, registers the seeded circuits (the only
//! registrations of the run, so the per-session byte quota is never
//! re-charged), and builds every reference with the direct single-lane
//! engines. Each client then sends a seeded mix of `FaultSim` (64
//! patterns, drop on, one thread), `Signatures`, and `fetch_snapshot`
//! requests, awaiting each, until the run ends. Every result must equal
//! its reference; any refusal or typed error counts as a failed
//! operation.
//!
//! The traced run replays each recorded operation in-process afterwards
//! (request and response codecs, the same job on an in-process
//! `JobEngine`, the direct engines, snapshot codec, a registry hit), so
//! the timed phase itself carries only the operation spans.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sinw_atpg::{
    capture_signatures_lanes, capture_signatures_with_graph_lanes, seeded_patterns,
    simulate_faults_lanes, simulate_faults_with_graph_lanes,
};
use sinw_server::wire::{decode_frame, encode_frame, DEFAULT_MAX_PAYLOAD};
use sinw_server::{
    CircuitRegistry, CompiledCircuit, JobEngine, JobSpec, NetClient, NetConfig, NetServer, Request,
    Response, Snapshot, WireJob, WireOutcome,
};
use sinw_switch::generate::{array_multiplier, carry_select_adder};
use sinw_switch::Circuit;

use crate::stats::{median, Rng};
use crate::trace::Tracer;
use crate::{cold, Config, Run, SETUPS};

const CLIENTS: usize = 2;
const PATTERNS: usize = 64;
/// Seeded pattern sets per circuit, each with built references.
const SETS: usize = 4;
/// Operations replayed in-process by the traced run.
const REPLAY_CAP: usize = 300;
const SETUP_OP: u64 = 1 << 40;
const STATS_OP: u64 = 1 << 41;

struct Circ {
    name: String,
    text: String,
    key: u64,
    compiled: Arc<CompiledCircuit>,
    sets: Vec<Vec<Vec<bool>>>,
    faultsim: Vec<WireOutcome>,
    signatures: Vec<WireOutcome>,
    snapshot: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    FaultSim,
    Signatures,
    Fetch,
}

/// One request of the mix: what, on which circuit, with which set.
#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    circ: usize,
    set: usize,
}

struct Record {
    op: u64,
    req: Req,
    ms: f64,
    /// Completion time, seconds since the phase began.
    end: f64,
    result: Result<(), String>,
}

/// Clients are declared before the server so they close first.
struct Setup {
    clients: Vec<NetClient>,
    server: NetServer,
    registry: CircuitRegistry,
    circs: Vec<Circ>,
}

/// Three small and medium circuits at fixed sizes.
fn menu(tiny: bool) -> Vec<(String, Circuit)> {
    let mul = |w: usize| (format!("mul{w}"), array_multiplier(w));
    let csa = |w: usize| (format!("csa{w}"), carry_select_adder(w, 4));
    if tiny {
        return vec![mul(3), csa(8), mul(4)];
    }
    vec![mul(12), csa(64), mul(16)]
}

fn setup(cfg: &Config, tr: &mut Tracer, k: u64) -> Result<Setup, String> {
    let server = NetServer::bind("127.0.0.1:0", NetConfig::default()).map_err(|e| e.to_string())?;
    let mut clients = (0..CLIENTS)
        .map(|_| NetClient::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let registry = CircuitRegistry::new();
    let mut rng = Rng::new(cfg.seed);
    let mut circs = Vec::new();
    for (i, (name, circuit)) in menu(cfg.tiny).into_iter().enumerate() {
        let op = SETUP_OP + 16 * k + i as u64;
        let text = cold::seeded_text(circuit, &name, &mut rng);
        let (key, _) = clients[0]
            .register_bench(&name, &text)
            .map_err(|e| format!("register {name}: {e}"))?;
        if tr.on() {
            cold::compile_stages(tr, op, &text)?;
        }
        let compiled = tr
            .leaf("registry.miss", op, || {
                registry.register_bench(&name, &text)
            })
            .map_err(|e| e.to_string())?;
        if compiled.key() != key {
            return Err(format!(
                "{name}: server key differs from the in-process key"
            ));
        }
        let c = compiled.circuit();
        let faults = &compiled.collapsed().representatives;
        let sets: Vec<Vec<Vec<bool>>> = (0..SETS)
            .map(|_| seeded_patterns(c.primary_inputs().len(), PATTERNS, rng.next_u64()))
            .collect();
        let faultsim = sets
            .iter()
            .map(|p| WireOutcome::from_fault_sim(&simulate_faults_lanes(c, faults, p, true, 1)))
            .collect();
        let signatures = sets
            .iter()
            .map(|p| WireOutcome::from_signatures(&capture_signatures_lanes(c, faults, p, 1)))
            .collect();
        let snapshot = compiled.snapshot().encode();
        circs.push(Circ {
            name,
            text,
            key,
            compiled,
            sets,
            faultsim,
            signatures,
            snapshot,
        });
    }
    Ok(Setup {
        clients,
        server,
        registry,
        circs,
    })
}

fn wire_job(circ: &Circ, req: Req) -> Option<WireJob> {
    let patterns = circ.sets[req.set].clone();
    match req.kind {
        Kind::FaultSim => Some(WireJob::FaultSim {
            key: circ.key,
            patterns,
            drop_detected: true,
            threads: 1,
            timeout_ms: 0,
        }),
        Kind::Signatures => Some(WireJob::Signatures {
            key: circ.key,
            patterns,
            threads: 1,
            timeout_ms: 0,
        }),
        Kind::Fetch => None,
    }
}

/// One client's closed loop until `deadline`: shuffled decks of three
/// `FaultSim` and one `Signatures` per circuit plus one fetch of a
/// seeded circuit. With the menu's sizes this puts the median inside
/// the middle circuit's `FaultSim` latencies, not between two kinds.
fn client_loop(
    c: usize,
    client: &mut NetClient,
    circs: &[Circ],
    cfg: &Config,
    phase: Instant,
    mut tr: Tracer,
) -> (Tracer, Vec<Record>) {
    let deadline = phase + std::time::Duration::from_secs_f64(cfg.seconds);
    let mut rng = Rng::new(cfg.seed ^ (0xDEC4 + c as u64));
    let mut records = Vec::new();
    let mut op = (c as u64 + 1) << 32;
    'run: loop {
        let mut deck: Vec<(Kind, usize)> = (0..circs.len())
            .flat_map(|i| {
                [
                    Kind::FaultSim,
                    Kind::FaultSim,
                    Kind::FaultSim,
                    Kind::Signatures,
                ]
                .map(|k| (k, i))
            })
            .collect();
        deck.push((Kind::Fetch, rng.range(0, circs.len() - 1)));
        for i in rng.permutation(deck.len()) {
            if Instant::now() >= deadline {
                break 'run;
            }
            op += 1;
            let (kind, ci) = deck[i];
            let req = Req {
                kind,
                circ: ci,
                set: rng.range(0, SETS - 1),
            };
            let circ = &circs[ci];
            let job = wire_job(circ, req);
            let t0 = Instant::now();
            let span = tr.begin("op", op);
            let reply = match job {
                Some(job) => client
                    .submit(job)
                    .and_then(|id| client.await_job(id, |_, _| {}))
                    .map(|outcome| (Some(outcome), Vec::new())),
                None => client.fetch_snapshot(circ.key).map(|bytes| (None, bytes)),
            };
            tr.end(span);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let result = match (kind, reply) {
                (_, Err(e)) => Err(e.to_string()),
                (Kind::FaultSim, Ok((Some(o), _))) if o == circ.faultsim[req.set] => Ok(()),
                (Kind::Signatures, Ok((Some(o), _))) if o == circ.signatures[req.set] => Ok(()),
                (Kind::Fetch, Ok((None, bytes))) if bytes == circ.snapshot => Ok(()),
                (kind, Ok(_)) => Err(format!("{kind:?} on {} differs from reference", circ.name)),
            };
            records.push(Record {
                op,
                req,
                ms,
                end: phase.elapsed().as_secs_f64(),
                result,
            });
        }
    }
    (tr, records)
}

/// Completed operations per window.
const WINDOW_OPS: usize = 50;

/// Throughput of each run of `WINDOW_OPS` consecutive completions
/// (`records` sorted by completion time).
fn windows(records: &[Record]) -> Vec<f64> {
    let ends: Vec<f64> = records
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.end)
        .collect();
    let mut out = Vec::new();
    let mut start = 0.0;
    for chunk in ends.chunks_exact(WINDOW_OPS) {
        let end = chunk[WINDOW_OPS - 1];
        out.push(WINDOW_OPS as f64 / (end - start));
        start = end;
    }
    out
}

pub fn run(cfg: &Config, tr: &mut Tracer) -> Result<Run, String> {
    let mut run = Run::default();
    let mut s = None;
    for k in 0..SETUPS as u64 {
        let t = Instant::now();
        let fresh = setup(cfg, tr, k)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        s = Some(fresh);
    }
    let mut s = s.expect("at least one set-up");
    run.notes.push(format!(
        "circuits {:?}; {CLIENTS} clients, server workers {}, job threads 1, {PATTERNS} patterns",
        s.circs.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        NetConfig::default().workers
    ));

    let phase = Instant::now();
    let (on, origin) = (tr.on(), tr.origin());
    let circs = &s.circs;
    let results: Vec<(Tracer, Vec<Record>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let local = Tracer::new(on, origin);
                scope.spawn(move || client_loop(c, client, circs, cfg, phase, local))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    run.phase_s = phase.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for (local, recs) in results {
        tr.absorb(local);
        records.extend(recs);
    }
    records.sort_by(|a, b| a.end.total_cmp(&b.end));
    run.windows = windows(&records);
    for rec in &records {
        let circ = &s.circs[rec.req.circ].name;
        run.record(
            &format!("{:?} {circ}", rec.req.kind),
            rec.ms,
            rec.result.clone(),
        );
    }
    let stats = s.server.registry().stats();
    run.notes.push(format!(
        "server: {} jobs submitted, {} compiles, {} registry hits",
        s.server.jobs_submitted(),
        stats.compiles,
        stats.hits
    ));

    if tr.on() {
        let engine = JobEngine::new(NetConfig::default().workers);
        for rec in records.iter().take(REPLAY_CAP) {
            if let Err(e) = replay(tr, &engine, &s.registry, &s.circs[rec.req.circ], rec) {
                run.failed += 1;
                run.notes.push(format!("replay of op {}: {e}", rec.op));
            }
        }
        for i in 0..32 {
            tr.leaf("net.stats_rtt", STATS_OP + i, || s.clients[0].stats())
                .map_err(|e| e.to_string())?;
        }
        layers(&mut run, tr, &records);
    }
    Ok(run)
}

/// Replay one recorded operation in-process, span by span.
fn replay(
    tr: &mut Tracer,
    engine: &JobEngine,
    registry: &CircuitRegistry,
    circ: &Circ,
    rec: &Record,
) -> Result<(), String> {
    let op = rec.op;
    let patterns = &circ.sets[rec.req.set];
    let request = match wire_job(circ, rec.req) {
        Some(job) => Request::SubmitJob(job),
        None => Request::FetchSnapshot { key: circ.key },
    };
    let frame = tr.leaf("wire.request_encode", op, || {
        let (ty, payload) = request.encode();
        encode_frame(ty, &payload)
    });
    let decoded = tr.leaf("wire.request_decode", op, || {
        decode_frame(&frame, DEFAULT_MAX_PAYLOAD).and_then(|(ty, p)| Request::decode(ty, &p))
    });
    if decoded.as_ref() != Ok(&request) {
        return Err(String::from("request codec round trip differs"));
    }

    let c = circ.compiled.circuit();
    let graph = circ.compiled.graph();
    let faults = &circ.compiled.collapsed().representatives;
    let response = match rec.req.kind {
        Kind::FaultSim => {
            let spec = JobSpec::FaultSim {
                compiled: Arc::clone(&circ.compiled),
                patterns: Arc::new(patterns.clone()),
                drop_detected: true,
                threads: 1,
            };
            let outcome = tr.leaf("job.faultsim", op, || engine.submit(spec).wait());
            tr.leaf("pack_good", op, || cold::pack_good(c, patterns));
            let direct = tr.leaf("faultsim.direct", op, || {
                simulate_faults_with_graph_lanes(c, graph, faults, patterns, true, 1)
            });
            if WireOutcome::from_fault_sim(&direct) != circ.faultsim[rec.req.set] {
                return Err(String::from(
                    "direct fault simulation differs from reference",
                ));
            }
            Response::Outcome {
                job: 0,
                outcome: WireOutcome::from_outcome(&outcome),
            }
        }
        Kind::Signatures => {
            let spec = JobSpec::Signatures {
                compiled: Arc::clone(&circ.compiled),
                patterns: Arc::new(patterns.clone()),
                threads: 1,
            };
            let outcome = tr.leaf("job.signatures", op, || engine.submit(spec).wait());
            let direct = tr.leaf("signatures.direct", op, || {
                capture_signatures_with_graph_lanes(c, graph, faults, patterns, 1)
            });
            if WireOutcome::from_signatures(&direct) != circ.signatures[rec.req.set] {
                return Err(String::from(
                    "direct signature capture differs from reference",
                ));
            }
            Response::Outcome {
                job: 0,
                outcome: WireOutcome::from_outcome(&outcome),
            }
        }
        Kind::Fetch => {
            let bytes = tr.leaf("snapshot.encode", op, || circ.compiled.snapshot().encode());
            tr.count("snapshot.bytes", op, bytes.len() as f64);
            tr.leaf("snapshot.decode", op, || Snapshot::decode(&bytes))
                .map_err(|e| e.to_string())?;
            Response::SnapshotBytes { bytes }
        }
    };
    let reply = tr.leaf("wire.response_encode", op, || {
        let (ty, payload) = response.encode();
        encode_frame(ty, &payload)
    });
    tr.count("wire.frame_bytes", op, (frame.len() + reply.len()) as f64);
    let back = tr.leaf("wire.response_decode", op, || {
        decode_frame(&reply, DEFAULT_MAX_PAYLOAD).and_then(|(ty, p)| Response::decode(ty, &p))
    });
    if back.as_ref() != Ok(&response) {
        return Err(String::from("response codec round trip differs"));
    }
    tr.leaf("registry.hit", op, || {
        registry.register_bench(&circ.name, &circ.text)
    })
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn layers(run: &mut Run, tr: &Tracer, records: &[Record]) {
    let latency: BTreeMap<u64, f64> = records.iter().map(|r| (r.op, r.ms)).collect();
    let job: BTreeMap<u64, f64> = tr
        .per_op("job.faultsim")
        .into_iter()
        .chain(tr.per_op("job.signatures"))
        .collect();
    let overhead: Vec<f64> = job.iter().map(|(op, ms)| latency[op] - ms).collect();
    let mut spent = job.clone();
    for span in [
        "snapshot.encode",
        "wire.request_encode",
        "wire.request_decode",
        "wire.response_encode",
        "wire.response_decode",
    ] {
        for (op, ms) in tr.per_op(span) {
            *spent.entry(op).or_insert(0.0) += ms;
        }
    }
    let unaccounted: Vec<f64> = spent.iter().map(|(op, ms)| latency[op] - ms).collect();
    let event: Vec<f64> = {
        let pack = tr.per_op("pack_good");
        tr.per_op("faultsim.direct")
            .iter()
            .map(|(op, ms)| ms - pack.get(op).copied().unwrap_or(0.0))
            .collect()
    };

    let l = &mut run.layers;
    for (metric, span) in [
        ("parse.ms", "parse"),
        ("enumerate.ms", "enumerate"),
        ("collapse.ms", "collapse"),
        ("simgraph.ms", "simgraph"),
        ("registry.miss_ms", "registry.miss"),
        ("registry.hit_ms", "registry.hit"),
        ("pack_good.ms", "pack_good"),
        ("faultsim.direct_ms", "faultsim.direct"),
        ("signatures.direct_ms", "signatures.direct"),
        ("job.faultsim_ms", "job.faultsim"),
        ("job.signatures_ms", "job.signatures"),
        ("snapshot.encode_ms", "snapshot.encode"),
        ("snapshot.decode_ms", "snapshot.decode"),
        ("net.stats_rtt_ms", "net.stats_rtt"),
    ] {
        l.insert(metric, tr.median_ms(span));
    }
    for (metric, span) in [
        ("wire.request_encode_us", "wire.request_encode"),
        ("wire.request_decode_us", "wire.request_decode"),
        ("wire.response_encode_us", "wire.response_encode"),
        ("wire.response_decode_us", "wire.response_decode"),
    ] {
        l.insert(metric, tr.median_ms(span) * 1e3);
    }
    for count in [
        "circuit.cells",
        "faults.collapsed",
        "wire.frame_bytes",
        "snapshot.bytes",
    ] {
        l.insert(count, tr.mean_count(count));
    }
    // Jobs run at one thread, so the direct single-thread engine is the
    // equal-threads base.
    l.insert("job.direct_base_ms", l["faultsim.direct_ms"]);
    l.insert(
        "job.vs_direct",
        l["job.faultsim_ms"] / l["faultsim.direct_ms"],
    );
    l.insert("faultsim.event_ms", median(&event));
    l.insert("net.overhead_ms", median(&overhead));
    l.insert("service.unaccounted_ms", median(&unaccounted));
}
