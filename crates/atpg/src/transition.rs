//! Transition-delay faults (slow-to-rise / slow-to-fall) and
//! launch-on-capture two-pattern ATPG for scanned sequential machines.
//!
//! A transition fault at a site needs a *pair* of vectors: the launch
//! vector `V1` must set the site to the initial value (0 for
//! slow-to-rise, 1 for slow-to-fall), and the capture vector `V2` must
//! detect the corresponding stuck-at fault — a slow-to-rise site that
//! never completes its rise looks stuck-at-0 during capture, and
//! vice versa. Detection of the pair is therefore
//! `(site value under V1 == init) ∧ stuck-at-detected under V2`,
//! which maps straight onto the lane-generic PPSFP kernel: the
//! initialisation mask of a pattern block is handed to
//! the event-driven detect kernel *as the block mask*, so the returned
//! word is already the pair-detection mask and uninitialised pairs can
//! never count as detections.
//!
//! The [`TransitionAtpg`] engine runs a launch-on-capture (broadside)
//! campaign over a full-scan view of a [`SeqCircuit`] on the same
//! campaign driver as the stuck-at [`AtpgEngine`](crate::AtpgEngine)
//! (random phase, deterministic phase with collateral dropping,
//! reverse-order compaction; see [`crate::tpg`]). It supplies the two
//! parts that differ: random blocks are launch vectors whose capture
//! state is the machine's own next state, read off the launch
//! good-machine words, and PODEM runs on the 2-frame
//! [time-frame expansion](mod@crate::unroll) — a stuck-at target in
//! frame 1, constrained to the initial value in frame 0, is structurally
//! a LOC pair because the unrolled netlist hardwires
//! `capture state = NS(launch)`.
//!
//! Pair simulation has one default entry point, [`simulate_transition`]
//! (the [`configured_lanes`] width, one worker), and one explicit
//! `(threads, lanes)` form, [`simulate_transition_threaded_lanes`].
//! Both report bit-identically (same contract as the stuck-at engines),
//! and [`transition_oracle`] is an independent scalar full-pass
//! reference the property suites pit them against.

use crate::fault_list::{enumerate_stuck_at, FaultSite, StuckAtFault};
use crate::faultsim::{
    capture, configured_lanes, detect, dispatch_lanes, good_sim, report_from, stealing, FaultModel,
    FaultSimReport, GoodBlock, PatternBlock, SignatureMatrix, ONE_WORKER,
};
use crate::graph::SimGraph;
use crate::lanes::PatternWords;
use crate::podem::{generate_test_constrained, PodemConfig};
use crate::sof::CircuitTwoPattern;
use crate::tpg::{coverage, ms, Campaign, FaultStatus};
use crate::unroll::{unroll, UnrollConfig, UnrolledCircuit};
use sinw_switch::gate::{eval_cell, Circuit, GateId, SignalId};
use sinw_switch::scan::{insert_scan, ScanCircuit, ScanPlan};
use sinw_switch::seq::SeqCircuit;
use sinw_switch::value::Logic;
use std::convert::Infallible;
use std::time::Instant;

/// The two transition-delay polarities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// The site is slow rising 0 → 1: initialise to 0, capture as s-a-0.
    SlowToRise,
    /// The site is slow falling 1 → 0: initialise to 1, capture as s-a-1.
    SlowToFall,
}

/// A single transition-delay fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionFault {
    /// Fault location (same site universe as the stuck-at model).
    pub site: FaultSite,
    /// Transition polarity.
    pub kind: TransitionKind,
}

impl TransitionFault {
    /// Slow-to-rise at a site.
    #[must_use]
    pub fn slow_to_rise(site: FaultSite) -> Self {
        TransitionFault {
            site,
            kind: TransitionKind::SlowToRise,
        }
    }

    /// Slow-to-fall at a site.
    #[must_use]
    pub fn slow_to_fall(site: FaultSite) -> Self {
        TransitionFault {
            site,
            kind: TransitionKind::SlowToFall,
        }
    }

    /// The value the launch vector must establish at the site.
    #[must_use]
    pub fn init_value(&self) -> bool {
        matches!(self.kind, TransitionKind::SlowToFall)
    }

    /// The stuck-at fault the capture vector must detect: a transition
    /// that never completes leaves the site at its initial value.
    #[must_use]
    pub fn as_stuck_at(&self) -> StuckAtFault {
        StuckAtFault {
            site: self.site,
            value: self.init_value(),
        }
    }

    /// Human-readable description against a circuit.
    #[must_use]
    pub fn describe(&self, circuit: &Circuit) -> String {
        let kind = match self.kind {
            TransitionKind::SlowToRise => "slow-to-rise",
            TransitionKind::SlowToFall => "slow-to-fall",
        };
        match self.site {
            FaultSite::Signal(s) => format!("{} {kind}", circuit.signal_name(s)),
            FaultSite::GatePin(g, pin) => {
                format!("{}.in{pin} {kind}", circuit.gates()[g.0].name)
            }
        }
    }
}

/// Enumerate the transition-delay universe of a circuit — one fault per
/// stuck-at fault, in [`enumerate_stuck_at`] order (a s-a-0 site maps to
/// slow-to-rise, a s-a-1 site to slow-to-fall), so the two universes
/// share indices and collapse structure.
#[must_use]
pub fn enumerate_transition(circuit: &Circuit) -> Vec<TransitionFault> {
    enumerate_stuck_at(circuit)
        .into_iter()
        .map(|sa| TransitionFault {
            site: sa.site,
            kind: if sa.value {
                TransitionKind::SlowToFall
            } else {
                TransitionKind::SlowToRise
            },
        })
        .collect()
}

/// The good value the launch vector must match at a fault site: the stem
/// signal's value (a fanout branch carries the stem's good value).
fn site_signal(circuit: &Circuit, site: FaultSite) -> SignalId {
    match site {
        FaultSite::Signal(s) => s,
        FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
    }
}

// ----------------------------------------------------------------------
// Pair blocks and the pair-detection kernel
// ----------------------------------------------------------------------

/// One block of up to `64 * L` pattern pairs: the launch good-machine
/// words (for the initialisation check) and the packed capture block
/// with its good words (for the stuck-at pass).
struct PairBlock<const L: usize> {
    launch_good: Vec<PatternWords<L>>,
    capture: GoodBlock<L>,
}

impl<const L: usize> PairBlock<L> {
    /// Pack `pairs` and simulate both good machines once.
    fn new(circuit: &Circuit, pairs: &[CircuitTwoPattern]) -> Self {
        let launch: Vec<Vec<bool>> = pairs.iter().map(|p| p.init.clone()).collect();
        let capture: Vec<Vec<bool>> = pairs.iter().map(|p| p.eval.clone()).collect();
        PairBlock {
            launch_good: good_sim(circuit, &PatternBlock::<L>::pack(circuit, &launch)),
            capture: GoodBlock::new(circuit, &capture),
        }
    }
}

/// The transition fault model: the residual stuck-at fault of the
/// capture vector, with the block's initialisation mask — the pairs
/// whose launch vector sets the site to the initial value — handed to
/// the event kernel *as the block mask*, so uninitialised pairs can
/// never count as detections.
struct Transition<'c> {
    circuit: &'c Circuit,
    graph: &'c SimGraph,
}

impl<const L: usize> FaultModel<L> for Transition<'_> {
    type Fault = TransitionFault;
    type Pattern = CircuitTwoPattern;
    type Block = PairBlock<L>;

    fn circuit(&self) -> &Circuit {
        self.circuit
    }

    fn graph(&self) -> &SimGraph {
        self.graph
    }

    fn block(&self, pairs: &[CircuitTwoPattern]) -> PairBlock<L> {
        PairBlock::new(self.circuit, pairs)
    }

    fn kernel_args<'b>(
        &self,
        fault: TransitionFault,
        blk: &'b PairBlock<L>,
    ) -> (StuckAtFault, PatternWords<L>, &'b [PatternWords<L>]) {
        let stem = site_signal(self.circuit, fault.site);
        let want = PatternWords::<L>::stuck(fault.init_value());
        let init_ok = !(blk.launch_good[stem.0] ^ want) & blk.capture.block.mask();
        (fault.as_stuck_at(), init_ok, &blk.capture.good)
    }
}

/// The transition detection engine behind both `simulate_transition*`
/// entry points: the shared detection driver under the transition model,
/// fanned out as `(workers, chunk)`.
fn pair_sim<const L: usize>(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
    fan: (usize, usize),
) -> FaultSimReport {
    let graph = &SimGraph::build(circuit);
    let model = Transition { circuit, graph };
    let run = detect::<_, _, L>(
        &model,
        faults,
        pairs,
        drop_detected,
        fan,
        &|| Ok(()),
        &|| {},
    );
    run.unwrap_or_else(|e: Infallible| match e {}).0
}

// ----------------------------------------------------------------------
// Pair-simulation engines
// ----------------------------------------------------------------------

/// Two-pattern transition-fault simulation on the event-driven kernel at
/// the [`configured_lanes`] width, with optional fault dropping.
/// `pairs[k]` detects `faults[f]` when the launch vector initialises the
/// site and the capture vector detects the residual stuck-at fault.
#[must_use]
pub fn simulate_transition(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
) -> FaultSimReport {
    dispatch_lanes!(configured_lanes(), L => pair_sim::<L>(
        circuit, faults, pairs, drop_detected, ONE_WORKER
    ))
}

/// Thread-parallel transition simulation at an explicit lane width, over
/// the same work-stealing fan-out as the stuck-at engines. Chunk
/// boundaries are a pure function of the input and chunk results merge
/// in chunk order, so the report is bit-identical to
/// [`simulate_transition`] no matter how chunks migrate between
/// workers. `threads = 0` uses [`std::thread::available_parallelism`].
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`](crate::SUPPORTED_LANES).
#[must_use]
pub fn simulate_transition_threaded_lanes(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    drop_detected: bool,
    threads: usize,
    lanes: usize,
) -> FaultSimReport {
    let fan = stealing(threads, faults.len());
    dispatch_lanes!(lanes, L => pair_sim::<L>(circuit, faults, pairs, drop_detected, fan))
}

// ----------------------------------------------------------------------
// The independent scalar oracle
// ----------------------------------------------------------------------

/// Scalar (three-valued, whole-circuit) evaluation under an optional
/// stuck-at fault — deliberately shares nothing with the wide kernel so
/// it can stand as an oracle against it.
fn scalar_values(circuit: &Circuit, fault: Option<StuckAtFault>, inputs: &[bool]) -> Vec<Logic> {
    let stuck = fault.map(|f| Logic::from_bool(f.value));
    let site = fault.map(|f| f.site);
    let mut values = vec![Logic::X; circuit.signal_count()];
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = if site == Some(FaultSite::Signal(*pi)) {
            stuck.unwrap()
        } else {
            Logic::from_bool(inputs[k])
        };
    }
    for (gi, gate) in circuit.gates().iter().enumerate() {
        let ins: Vec<Logic> = gate
            .inputs
            .iter()
            .enumerate()
            .map(|(pin, s)| {
                if site == Some(FaultSite::GatePin(GateId(gi), pin)) {
                    stuck.unwrap()
                } else {
                    values[s.0]
                }
            })
            .collect();
        let mut out = eval_cell(gate.kind, &ins);
        if site == Some(FaultSite::Signal(gate.output)) {
            out = stuck.unwrap();
        }
        values[gate.output.0] = out;
    }
    values
}

/// Independent full-pass transition oracle: per (fault, pair), evaluate
/// the launch vector scalar-wise, check the initialisation condition at
/// the stem, then compare the good and faulty capture responses gate by
/// gate. First-detection semantics match the engines exactly, so the
/// property suites can demand bit-identical [`FaultSimReport`]s.
#[must_use]
pub fn transition_oracle(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> FaultSimReport {
    let firsts = faults
        .iter()
        .map(|f| {
            let stem = site_signal(circuit, f.site);
            let sa = f.as_stuck_at();
            pairs.iter().position(|p| {
                let launch = scalar_values(circuit, None, &p.init);
                if launch[stem.0].to_bool() != Some(f.init_value()) {
                    return false;
                }
                let good = scalar_values(circuit, None, &p.eval);
                let faulty = scalar_values(circuit, Some(sa), &p.eval);
                circuit
                    .primary_outputs()
                    .iter()
                    .any(|po| good[po.0] != faulty[po.0])
            })
        })
        .collect();
    report_from(firsts, pairs.len())
}

// ----------------------------------------------------------------------
// Signature capture (dictionary hook)
// ----------------------------------------------------------------------

/// Full per-fault × per-pair × per-PO transition response signature —
/// the raw material of a transition-fault dictionary
/// ([`crate::diagnose::FaultDictionary::from_signatures`] consumes it
/// directly). Bit `pair * outputs + output` of row `f` is set when the
/// pair both initialises fault `f`'s site and exposes its residual
/// stuck-at fault at that output. Runs at [`configured_lanes`].
#[must_use]
pub fn capture_transition_signatures(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> SignatureMatrix {
    capture_transition_signatures_lanes(circuit, faults, pairs, configured_lanes())
}

/// [`capture_transition_signatures`] at an explicit lane width.
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`](crate::SUPPORTED_LANES).
#[must_use]
pub fn capture_transition_signatures_lanes(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
    lanes: usize,
) -> SignatureMatrix {
    dispatch_lanes!(lanes, L => pair_capture::<L>(circuit, faults, pairs))
}

fn pair_capture<const L: usize>(
    circuit: &Circuit,
    faults: &[TransitionFault],
    pairs: &[CircuitTwoPattern],
) -> SignatureMatrix {
    let graph = &SimGraph::build(circuit);
    let model = Transition { circuit, graph };
    let run = capture::<_, _, L>(&model, faults, pairs, ONE_WORKER, &|| Ok(()), &|| {});
    run.unwrap_or_else(|e: Infallible| match e {}).0
}

// ----------------------------------------------------------------------
// Launch-on-capture ATPG over a full-scan sequential machine
// ----------------------------------------------------------------------

/// Configuration of the LOC transition campaign (mirrors
/// [`crate::AtpgConfig`] where the phases coincide).
#[derive(Debug, Clone, Copy)]
pub struct TransitionAtpgConfig {
    /// Seed of the launch-pattern stream and the don't-care fill bits.
    /// Same seed ⇒ same report, bit for bit.
    pub seed: u64,
    /// Stop the random phase after this many consecutive 64-pair blocks
    /// that detect nothing new.
    pub random_window: usize,
    /// Hard cap on the number of 64-pair random blocks (0 skips the
    /// random phase).
    pub max_random_blocks: usize,
    /// PODEM settings for the deterministic phase (runs on the 2-frame
    /// unrolled circuit, so budgets see a doubled netlist).
    pub podem: PodemConfig,
    /// Run the deterministic phase.
    pub deterministic: bool,
    /// Run reverse-order pair compaction (preserves the detected set
    /// exactly; the test suites re-verify with [`simulate_transition`]).
    pub compact: bool,
}

impl Default for TransitionAtpgConfig {
    fn default() -> Self {
        TransitionAtpgConfig {
            seed: 0x7D15_0C2A_93B4_E617,
            random_window: 3,
            max_random_blocks: 64,
            podem: PodemConfig::default(),
            deterministic: true,
            compact: true,
        }
    }
}

/// Outcome of a LOC transition campaign.
#[derive(Debug, Clone)]
pub struct TransitionAtpgReport {
    /// The final two-pattern test set (fully specified; `eval`'s state
    /// bits are the machine's own next state under `init` — broadside).
    pub pairs: Vec<CircuitTwoPattern>,
    /// Size of the targeted fault list.
    pub total_faults: usize,
    /// Faults first detected by a random-phase pair.
    pub detected_random: usize,
    /// Faults first detected by a deterministic-phase pair.
    pub detected_deterministic: usize,
    /// Faults proved untestable (no initialising launch / no capture
    /// propagation exists, even with a free launch state).
    pub untestable: usize,
    /// Faults abandoned at the PODEM backtrack limit.
    pub aborted: usize,
    /// Deterministic-phase PODEM invocations.
    pub podem_calls: usize,
    /// Per-fault final classification, aligned with the input list.
    pub statuses: Vec<FaultStatus>,
    /// Random-phase wall time, milliseconds.
    pub random_ms: f64,
    /// Deterministic-phase (plus compaction) wall time, milliseconds.
    pub deterministic_ms: f64,
}

impl TransitionAtpgReport {
    /// Detected / total.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        coverage(self.detected(), self.total_faults)
    }

    /// Detected / (total − untestable): coverage of the testable universe.
    #[must_use]
    pub fn testable_coverage(&self) -> f64 {
        coverage(self.detected(), self.total_faults - self.untestable)
    }

    fn detected(&self) -> usize {
        self.detected_random + self.detected_deterministic
    }
}

/// Launch-on-capture transition ATPG over a full-scan view of a
/// sequential machine.
///
/// The engine scans the machine ([`insert_scan`], full plan), so a pair
/// is a pair of full PI vectors of the scan view (functional inputs +
/// scan-loaded state). The launch vector is free; the capture vector's
/// state bits are *structurally* the machine's next state under the
/// launch vector — random pairs derive them from the launch
/// good-machine words at the flip-flop `D` nets, and deterministic
/// pairs fall out of constrained PODEM on the 2-frame time-frame
/// expansion, where frame 1's state inputs *are* frame 0's `D` images.
#[derive(Debug)]
pub struct TransitionAtpg {
    scan: ScanCircuit,
    graph: SimGraph,
    unrolled: UnrolledCircuit,
    /// For each scan-view PI position: `Ok(dff index)` for a pseudo-PI,
    /// `Err(functional index)` otherwise.
    pi_roles: Vec<Result<usize, usize>>,
    /// Flip-flop `D` signals, in flip-flop order.
    d_signals: Vec<SignalId>,
    config: TransitionAtpgConfig,
}

impl TransitionAtpg {
    /// Build the LOC engine for `seq` (inserts a full scan chain and
    /// unrolls two frames up front).
    #[must_use]
    pub fn new(seq: &SeqCircuit, config: TransitionAtpgConfig) -> Self {
        let scan = insert_scan(seq, &ScanPlan::Full);
        let graph = SimGraph::build(scan.circuit());
        let unrolled = unroll(seq, &UnrollConfig::full_observability(2));
        let mut func_idx = 0usize;
        let pi_roles = scan
            .circuit()
            .primary_inputs()
            .iter()
            .map(|pi| {
                if let Some(j) = seq.dffs().iter().position(|ff| ff.q == *pi) {
                    Ok(j)
                } else {
                    let i = func_idx;
                    func_idx += 1;
                    Err(i)
                }
            })
            .collect();
        let d_signals = seq.dffs().iter().map(|ff| ff.d).collect();
        TransitionAtpg {
            scan,
            graph,
            unrolled,
            pi_roles,
            d_signals,
            config,
        }
    }

    /// The full-scan combinational view the pairs (and the fault sites)
    /// live on.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        self.scan.circuit()
    }

    /// The scan insertion behind [`circuit`](TransitionAtpg::circuit).
    #[must_use]
    pub fn scan(&self) -> &ScanCircuit {
        &self.scan
    }

    /// The 2-frame unrolled circuit the deterministic phase targets.
    #[must_use]
    pub fn unrolled(&self) -> &UnrolledCircuit {
        &self.unrolled
    }

    /// Complete launch vectors into broadside pairs: each capture
    /// vector's state bits are the machine's next state under its launch
    /// vector, read off the launch good-machine words at the flip-flop
    /// `D` nets, and its functional bits come from `functional(k)`.
    fn broadside(
        &self,
        launch: Vec<Vec<bool>>,
        mut functional: impl FnMut(usize) -> Vec<bool>,
    ) -> Vec<CircuitTwoPattern> {
        let circuit = self.scan.circuit();
        let good = good_sim(circuit, &PatternBlock::<1>::pack(circuit, &launch));
        launch
            .into_iter()
            .enumerate()
            .map(|(k, init)| {
                let func = functional(k);
                let eval = self
                    .pi_roles
                    .iter()
                    .map(|role| match role {
                        Ok(j) => good[self.d_signals[*j].0].get_bit(k),
                        Err(i) => func[*i],
                    })
                    .collect();
                CircuitTwoPattern { init, eval }
            })
            .collect()
    }

    /// Run the campaign over `faults` (sites on
    /// [`circuit`](TransitionAtpg::circuit), which shares signal and
    /// gate ids with the machine's combinational core).
    #[must_use]
    pub fn run(&self, faults: &[TransitionFault]) -> TransitionAtpgReport {
        let circuit = self.scan.circuit();
        let n_pi = circuit.primary_inputs().len();
        let n_func = self.pi_roles.iter().filter(|r| r.is_err()).count();
        let n_ff = self.d_signals.len();
        let cfg = &self.config;
        let model = Transition {
            circuit,
            graph: &self.graph,
        };
        let mut run = Campaign::new(&model, faults, cfg.seed);

        // Random phase: free launch vectors, broadside capture with
        // fresh functional bits per pair.
        let t0 = Instant::now();
        let (mut pairs, _) =
            run.random_phase(cfg.random_window, cfg.max_random_blocks, |rng, n| {
                let launch = (0..n)
                    .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
                    .collect();
                self.broadside(launch, |_| (0..n_func).map(|_| rng.next_bool()).collect())
            });
        let random_ms = ms(t0);

        // Deterministic phase: constrained PODEM on the 2-frame unroll.
        // The fault is embedded in frame 1, the frame-0 copy of its stem
        // is constrained to the initial value, and the filled cube
        // (state₀, pi@0, pi@1) is natively a LOC pair.
        let t1 = Instant::now();
        if cfg.deterministic {
            let podem = |f: TransitionFault| {
                let target = StuckAtFault {
                    site: self.unrolled.fault_at(1, f.site),
                    value: f.init_value(),
                };
                let stem = site_signal(circuit, f.site);
                let constraint = (self.unrolled.signal_at(0, stem), f.init_value());
                generate_test_constrained(
                    self.unrolled.circuit(),
                    target,
                    &[constraint],
                    &cfg.podem,
                )
            };
            let realise = |_, filled: Vec<bool>| {
                let (state0, pis) = filled.split_at(n_ff);
                let (pi0, pi1) = pis.split_at(n_func);
                let launch = self
                    .pi_roles
                    .iter()
                    .map(|role| match role {
                        Ok(j) => state0[*j],
                        Err(i) => pi0[*i],
                    })
                    .collect();
                self.broadside(vec![launch], |_| pi1.to_vec())
                    .swap_remove(0)
            };
            pairs.extend(run.deterministic(|_| false, podem, realise));
        }
        if cfg.compact {
            pairs = run.compact(&pairs);
        }
        let deterministic_ms = ms(t1);

        TransitionAtpgReport {
            pairs,
            total_faults: faults.len(),
            detected_random: run.count(FaultStatus::DetectedRandom),
            detected_deterministic: run.count(FaultStatus::DetectedDeterministic),
            untestable: run.count(FaultStatus::Untestable),
            aborted: run.count(FaultStatus::Aborted),
            podem_calls: run.podem_calls,
            statuses: run.statuses,
            random_ms,
            deterministic_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::{seeded_patterns, SUPPORTED_LANES};
    use sinw_switch::cells::CellKind;
    use sinw_switch::generate::pipelined_array_multiplier;
    use sinw_switch::seq::Dff;

    /// A small combinational playground: 2-bit carry chain with fanout.
    fn comb() -> Circuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let ci = c.add_input("ci");
        let x = c.add_gate(CellKind::Xor2, "x", &[a, b]);
        let s = c.add_gate(CellKind::Xor2, "s", &[x, ci]);
        let g1 = c.add_gate(CellKind::Nand2, "g1", &[x, ci]);
        let g2 = c.add_gate(CellKind::Nand2, "g2", &[a, b]);
        let co = c.add_gate(CellKind::Nand2, "co", &[g1, g2]);
        c.mark_output(s);
        c.mark_output(co);
        c
    }

    fn seeded_pairs(circuit: &Circuit, count: usize, seed: u64) -> Vec<CircuitTwoPattern> {
        let n = circuit.primary_inputs().len();
        let flat = seeded_patterns(n, 2 * count, seed);
        flat.chunks(2)
            .map(|w| CircuitTwoPattern {
                init: w[0].clone(),
                eval: w[1].clone(),
            })
            .collect()
    }

    #[test]
    fn transition_universe_is_one_to_one_with_stuck_at() {
        let c = comb();
        let sa = enumerate_stuck_at(&c);
        let tr = enumerate_transition(&c);
        assert_eq!(sa.len(), tr.len());
        for (s, t) in sa.iter().zip(&tr) {
            assert_eq!(t.as_stuck_at(), *s);
        }
    }

    #[test]
    fn initialisation_gates_detection() {
        // a -> INV -> out; slow-to-rise at a needs a launch with a = 0.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        let f = TransitionFault::slow_to_rise(FaultSite::Signal(a));
        let good = CircuitTwoPattern {
            init: vec![false],
            eval: vec![true],
        };
        let bad_init = CircuitTwoPattern {
            init: vec![true],
            eval: vec![true],
        };
        let r = simulate_transition(&c, &[f], std::slice::from_ref(&good), true);
        assert_eq!(r.detected, vec![0]);
        let r = simulate_transition(&c, &[f], std::slice::from_ref(&bad_init), true);
        assert!(r.detected.is_empty(), "uninitialised pair must not detect");
    }

    #[test]
    fn engines_report_bit_identically_and_match_the_oracle() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let pairs = seeded_pairs(&c, 3, 0xBEEF);
        let oracle = transition_oracle(&c, &faults, &pairs);
        assert!(!oracle.detected.is_empty() && !oracle.undetected.is_empty());
        for drop in [false, true] {
            assert_eq!(simulate_transition(&c, &faults, &pairs, drop), oracle);
            for lanes in SUPPORTED_LANES {
                for threads in [1, 3] {
                    assert_eq!(
                        simulate_transition_threaded_lanes(
                            &c, &faults, &pairs, drop, threads, lanes
                        ),
                        oracle,
                        "lanes = {lanes}, threads = {threads}, drop = {drop}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_pair_sets_report_everything_undetected() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let r = simulate_transition(&c, &faults, &[], true);
        assert_eq!(r.undetected.len(), faults.len());
        assert_eq!(
            simulate_transition_threaded_lanes(&c, &faults, &[], true, 2, configured_lanes()),
            r
        );
    }

    #[test]
    fn signatures_agree_with_the_detect_engines() {
        let c = comb();
        let faults = enumerate_transition(&c);
        let pairs = seeded_pairs(&c, 70, 0xCAFE);
        let report = simulate_transition(&c, &faults, &pairs, false);
        for lanes in SUPPORTED_LANES {
            let sig = capture_transition_signatures_lanes(&c, &faults, &pairs, lanes);
            for fi in 0..faults.len() {
                assert_eq!(
                    sig.is_detected(fi),
                    report.detected.contains(&fi),
                    "fault {fi} at lanes {lanes}"
                );
                let first = report
                    .detected
                    .contains(&fi)
                    .then(|| {
                        simulate_transition(&c, &faults[fi..=fi], &pairs, true).first_detections
                    })
                    .map(|fd| fd.iter().position(|n| *n > 0).unwrap());
                assert_eq!(sig.first_failing_pattern(fi), first);
            }
        }
    }

    /// q' = XOR(q, a), out = NAND(q, a): the accumulator toy machine.
    fn accum() -> SeqCircuit {
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let q = c.add_input("q");
        let d = c.add_gate(CellKind::Xor2, "d", &[q, a]);
        let out = c.add_gate(CellKind::Nand2, "out", &[q, a]);
        c.mark_output(out);
        SeqCircuit::new(
            c,
            vec![Dff {
                name: "ff".into(),
                d,
                q,
            }],
        )
        .unwrap()
    }

    #[test]
    fn loc_pairs_are_broadside_and_verified_by_the_oracle() {
        for (name, seq) in [
            ("accum", accum()),
            ("mul3_reg", pipelined_array_multiplier(3)),
        ] {
            let engine = TransitionAtpg::new(&seq, TransitionAtpgConfig::default());
            let faults = enumerate_transition(engine.circuit());
            let report = engine.run(&faults);
            assert_eq!(report.aborted, 0, "{name}");
            assert!(
                report.coverage() > 0.5,
                "{name}: coverage {}",
                report.coverage()
            );
            // Every pair is broadside: capture state = NS(launch).
            for p in &report.pairs {
                let pis = engine.circuit().primary_inputs();
                let launch: Vec<Logic> = p.init.iter().map(|b| Logic::from_bool(*b)).collect();
                let values = seq.core().eval(&launch);
                for (pos, pi) in pis.iter().enumerate() {
                    if let Some(ff) = seq.dffs().iter().find(|ff| ff.q == *pi) {
                        assert_eq!(
                            values[ff.d.0],
                            Logic::from_bool(p.eval[pos]),
                            "{name}: pair is not broadside at {}",
                            ff.name
                        );
                    }
                }
            }
            // The independent oracle confirms the classification.
            let oracle = transition_oracle(engine.circuit(), &faults, &report.pairs);
            let detected: Vec<usize> = report
                .statuses
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_detected())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(oracle.detected, detected, "{name}");
        }
    }

    #[test]
    fn loc_campaign_is_deterministic() {
        let seq = accum();
        let engine = TransitionAtpg::new(&seq, TransitionAtpgConfig::default());
        let faults = enumerate_transition(engine.circuit());
        let a = engine.run(&faults);
        let b = engine.run(&faults);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.statuses, b.statuses);
    }
}
