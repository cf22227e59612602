//! Stuck-at fault simulation: wide-word bit-parallel and thread-parallel
//! PPSFP on an event-driven, fanout-cone-restricted inner kernel.
//!
//! Each mode has one default entry point (the [`configured_lanes`]
//! width, one worker) and one explicit `(threads, lanes)` form, and
//! every form reports bit-identically:
//!
//! * detection: [`simulate_faults`] and [`simulate_faults_threaded_stats`]
//!   (which also returns the work-stealing [`StealStats`]);
//! * signature capture: [`capture_signatures`] and
//!   [`capture_signatures_threaded_lanes`].
//!
//! A block packs `64 * L` fully-specified patterns into one wide word
//! per signal and evaluates the whole block per fault (parallel-pattern
//! single-fault propagation, PPSFP); the threaded forms distribute fault
//! chunks across workers through the one work-stealing fan-out,
//! [`crate::steal::fan_out`], *on top of* the wide blocks. The
//! remaining `*_lanes` / `*_with_graph_lanes` forms are the
//! single-worker engine at an explicit width, with or without a
//! caller-supplied [`SimGraph`].
//!
//! Every engine, and the `sinw-server` job path
//! ([`simulate_faults_checked`], [`capture_signatures_checked`]), runs
//! the same driver: the pattern set is packed and good-simulated
//! **once** per run, then the fault list fans out in chunks whose
//! results merge in chunk order. Under the driver sits a small
//! statically dispatched fault-model trait that hands the event kernel
//! its stuck-at fault, block mask and good words per (fault, block), so
//! **one** first-detection loop and **one** signature-row loop serve
//! the stuck-at engines here and the transition engines of
//! [`crate::transition`] alike.
//!
//! # Lane widening
//!
//! Every engine is generic over a lane count `L`: a block packs
//! `64 * L` patterns into [`PatternWords<L>`] words (`[u64; L]` with
//! loop-based bitwise ops that autovectorise to 256/512-bit SIMD). The
//! public entry points run at [`configured_lanes`] (the `SINW_LANES`
//! environment variable, default 1); the `*_lanes` variants take the
//! width explicitly. Detection reports and signature matrices are
//! bit-identical at every supported width — the lane-differential
//! property suite pins L ∈ {2, 4, 8} against the L = 1 kernel and the
//! full-pass oracle.
//!
//! # The event-driven kernel
//!
//! A stuck-at fault can only disturb its transitive fanout cone, and in
//! ISCAS-style circuits that cone is usually a small fraction of the
//! netlist. The faulty pass therefore does **not** re-evaluate the whole
//! circuit per fault × block. Instead it runs over a shared
//! [`SimGraph`] precompute (levelized topological
//! order + CSR fanout + PO-reachability masks, built once per
//! `simulate_faults*` call):
//!
//! 1. seed a level-ordered worklist at the fault site — bailing out
//!    immediately when the stuck word equals the good word (no pattern
//!    disturbed) or the site cannot reach any primary output;
//! 2. evaluate only gates reached by an event, reading un-disturbed inputs
//!    straight from the shared good-machine words; a gate whose output
//!    word comes out unchanged kills its event;
//! 3. OR primary-output differences into the detection mask as events
//!    reach them, and short-circuit the whole pass the moment the mask
//!    saturates the block's valid-pattern bits.
//!
//! Per-fault state lives in a [`FaultSimScratch`]: faulty words are
//! validated by an epoch stamp instead of being cleared or re-cloned, so a
//! pass is allocation-free and costs O(disturbed region), not O(circuit).
//!
//! The pre-existing whole-circuit pass is retained as
//! [`simulate_faults_full_pass`] — it is the property-test oracle and the
//! baseline of the `ppsfp_scaling` full-pass-vs-event-driven ablation.
//!
//! Fault partitioning (rather than pattern partitioning) keeps workers
//! embarrassingly parallel: a stuck-at fault's detection is independent of
//! every other fault, so the merged report is bit-identical to the
//! single-worker one — a property the test suite asserts.

use crate::fault_list::{FaultSite, StuckAtFault};
use crate::graph::SimGraph;
pub use crate::lanes::PatternWords;
use crate::steal::fan_out;
pub use crate::steal::StealStats;
use sinw_switch::cells::CellKind;
use sinw_switch::gate::{Circuit, GateId, SignalId};
use std::convert::Infallible;

/// A block of up to `64 * L` fully-specified input patterns.
///
/// Invariants (upheld by [`PatternBlock::try_pack`], assumed by every
/// engine):
///
/// * `1 <= count <= 64 * L` ([`PatternBlock::CAPACITY`]);
/// * `words.len()` equals the circuit's primary-input count; bit `k` of
///   `words[i]` is pattern `k`'s value for PI `i` (lane-major, see
///   [`PatternWords`]);
/// * bits at positions `>= count` are zero (padding patterns are all-0 and
///   masked out of detection results by [`PatternBlock::mask`]).
///
/// The default `L = 1` is the historical 64-wide block.
#[derive(Debug, Clone)]
pub struct PatternBlock<const L: usize = 1> {
    /// One wide word per primary input; bit `k` is the value in pattern
    /// `k`.
    pub words: Vec<PatternWords<L>>,
    /// Number of valid patterns (`1..=64 * L`).
    pub count: usize,
}

/// Why a slice of patterns cannot be packed into a [`PatternBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// No patterns were supplied (a block holds at least one).
    Empty,
    /// More than `64 * L` patterns were supplied; chunk them into blocks
    /// first (the `simulate_faults*` drivers do this internally).
    TooManyPatterns {
        /// How many patterns were supplied.
        got: usize,
        /// The block's capacity (`64 * L`).
        capacity: usize,
    },
    /// A pattern's length does not match the circuit's primary-input count.
    ArityMismatch {
        /// Index of the offending pattern.
        pattern: usize,
        /// Its length.
        got: usize,
        /// The circuit's primary-input count.
        expected: usize,
    },
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Empty => write!(f, "cannot pack an empty pattern block"),
            PackError::TooManyPatterns { got, capacity } => {
                write!(
                    f,
                    "a pattern block holds at most {capacity} patterns, got {got}"
                )
            }
            PackError::ArityMismatch {
                pattern,
                got,
                expected,
            } => write!(
                f,
                "pattern {pattern} has {got} bits, the circuit has {expected} primary inputs"
            ),
        }
    }
}

impl std::error::Error for PackError {}

impl<const L: usize> PatternBlock<L> {
    /// Pattern capacity of one block: `64 * L`.
    pub const CAPACITY: usize = 64 * L;

    /// Pack a slice of patterns (each a bool per PI) into a block.
    ///
    /// # Errors
    ///
    /// Returns a [`PackError`] if the slice is empty, holds more than
    /// `64 * L` patterns, or any pattern's arity does not match the
    /// circuit.
    pub fn try_pack(circuit: &Circuit, patterns: &[Vec<bool>]) -> Result<Self, PackError> {
        if patterns.is_empty() {
            return Err(PackError::Empty);
        }
        if patterns.len() > Self::CAPACITY {
            return Err(PackError::TooManyPatterns {
                got: patterns.len(),
                capacity: Self::CAPACITY,
            });
        }
        check_arity(circuit, patterns)?;
        let mut words = vec![PatternWords::<L>::ZERO; circuit.primary_inputs().len()];
        for (k, p) in patterns.iter().enumerate() {
            for (word, &b) in words.iter_mut().zip(p) {
                if b {
                    word.set_bit(k);
                }
            }
        }
        Ok(PatternBlock {
            words,
            count: patterns.len(),
        })
    }

    /// Pack a slice of patterns into a block.
    ///
    /// Panicking wrapper around [`PatternBlock::try_pack`] for tests and
    /// hand-driven experiments.
    ///
    /// # Panics
    ///
    /// Panics if more than `64 * L` patterns are supplied, none are, or
    /// arities mismatch.
    #[must_use]
    pub fn pack(circuit: &Circuit, patterns: &[Vec<bool>]) -> Self {
        match Self::try_pack(circuit, patterns) {
            Ok(block) => block,
            Err(e) => panic!("{e}"),
        }
    }

    /// Mask with the valid-pattern bits set.
    #[must_use]
    pub fn mask(&self) -> PatternWords<L> {
        PatternWords::valid_mask(self.count)
    }
}

/// The one pattern-width check: every pattern must carry one bit per
/// primary input of `circuit`. The error names the first offending
/// pattern by its index in `patterns`.
fn check_arity(circuit: &Circuit, patterns: &[Vec<bool>]) -> Result<(), PackError> {
    let expected = circuit.primary_inputs().len();
    match patterns.iter().position(|p| p.len() != expected) {
        Some(pattern) => Err(PackError::ArityMismatch {
            pattern,
            got: patterns[pattern].len(),
            expected,
        }),
        None => Ok(()),
    }
}

fn eval_word<const L: usize>(kind: CellKind, ins: &[PatternWords<L>]) -> PatternWords<L> {
    match kind {
        CellKind::Inv => !ins[0],
        CellKind::Nand2 => !(ins[0] & ins[1]),
        CellKind::Nor2 => !(ins[0] | ins[1]),
        CellKind::Xor2 => ins[0] ^ ins[1],
        CellKind::Xor3 => ins[0] ^ ins[1] ^ ins[2],
        CellKind::Maj3 => (ins[0] & ins[1]) | (ins[1] & ins[2]) | (ins[0] & ins[2]),
    }
}

/// Bit-parallel good-machine simulation: one wide word per signal.
#[must_use]
pub fn good_sim<const L: usize>(
    circuit: &Circuit,
    block: &PatternBlock<L>,
) -> Vec<PatternWords<L>> {
    let mut values = vec![PatternWords::<L>::ZERO; circuit.signal_count()];
    good_sim_into(circuit, block, &mut values);
    values
}

pub(crate) fn good_sim_into<const L: usize>(
    circuit: &Circuit,
    block: &PatternBlock<L>,
    values: &mut [PatternWords<L>],
) {
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = block.words[k];
    }
    let mut ins = [PatternWords::<L>::ZERO; 3];
    for gate in circuit.gates() {
        for (k, s) in gate.inputs.iter().enumerate() {
            ins[k] = values[s.0];
        }
        values[gate.output.0] = eval_word(gate.kind, &ins[..gate.inputs.len()]);
    }
}

/// Bit-parallel faulty-machine simulation under a single stuck-at fault
/// (whole-circuit pass; the event-driven kernel inside the engines only
/// materialises the disturbed region).
#[must_use]
pub fn faulty_sim<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
) -> Vec<PatternWords<L>> {
    let mut values = vec![PatternWords::<L>::ZERO; circuit.signal_count()];
    faulty_sim_into(circuit, fault, block, &mut values);
    values
}

fn faulty_sim_into<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    values: &mut [PatternWords<L>],
) {
    let stuck = PatternWords::<L>::stuck(fault.value);
    for (k, pi) in circuit.primary_inputs().iter().enumerate() {
        values[pi.0] = block.words[k];
        if fault.site == FaultSite::Signal(*pi) {
            values[pi.0] = stuck;
        }
    }
    let mut ins = [PatternWords::<L>::ZERO; 3];
    for (gi, gate) in circuit.gates().iter().enumerate() {
        for (pin, s) in gate.inputs.iter().enumerate() {
            ins[pin] = if fault.site == FaultSite::GatePin(GateId(gi), pin) {
                stuck
            } else {
                values[s.0]
            };
        }
        let mut out = eval_word(gate.kind, &ins[..gate.inputs.len()]);
        if fault.site == FaultSite::Signal(gate.output) {
            out = stuck;
        }
        values[gate.output.0] = out;
    }
}

// ----------------------------------------------------------------------
// Per-worker scratch and the event-driven kernel
// ----------------------------------------------------------------------

/// Reusable per-worker buffers for fault-simulation passes.
///
/// Holds the faulty-word scratch, the epoch-validated dirty marks, the
/// per-level worklist buckets of the event-driven kernel, and the
/// good/faulty vectors used by [`detect_mask_in`]. Buffers grow lazily to
/// the largest circuit seen and are never shrunk or cleared: a pass
/// invalidates previous state by bumping an epoch stamp, so reuse is
/// allocation-free.
///
/// One scratch serves one thread; every engine creates one per worker.
/// The lane count `L` must match the blocks it is used with (default 1).
#[derive(Debug, Default)]
pub struct FaultSimScratch<const L: usize = 1> {
    /// Good-machine words for [`detect_mask_in`].
    good: Vec<PatternWords<L>>,
    /// Faulty words, valid only where `stamp[sig] == epoch`.
    faulty: Vec<PatternWords<L>>,
    /// Per-signal dirty mark (epoch at which `faulty` was written).
    stamp: Vec<u32>,
    /// Per-gate enqueued mark for the current pass.
    queued: Vec<u32>,
    /// Per-level worklist buckets, indexed by gate level.
    buckets: Vec<Vec<u32>>,
    /// Current pass number; bumping it invalidates all stamps at once.
    epoch: u32,
}

impl<const L: usize> FaultSimScratch<L> {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for every buffer the event kernel touches over
    /// `graph`.
    pub(crate) fn for_graph(graph: &SimGraph) -> Self {
        let mut scratch = Self::new();
        scratch.ensure_signals(graph.signal_count());
        scratch.queued.resize(graph.gate_count(), 0);
        scratch.buckets.resize_with(graph.level_count(), Vec::new);
        scratch
    }

    /// Grow the per-signal buffers to cover `n` signals.
    fn ensure_signals(&mut self, n: usize) {
        if self.faulty.len() < n {
            self.good.resize(n, PatternWords::ZERO);
            self.faulty.resize(n, PatternWords::ZERO);
            self.stamp.resize(n, 0);
        }
    }

    /// Start a new pass: bump the epoch, handling the (once per 2³²
    /// passes) wrap-around by re-zeroing the stamps.
    fn begin_pass(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Enqueue a gate for the current pass (deduplicated), widening the
    /// active level range.
    #[inline]
    fn enqueue(&mut self, graph: &SimGraph, gate: u32, epoch: u32, lo: &mut usize, hi: &mut usize) {
        let g = gate as usize;
        if self.queued[g] == epoch {
            return;
        }
        self.queued[g] = epoch;
        let lvl = graph.gate_level(GateId(g));
        self.buckets[lvl].push(gate);
        *lo = (*lo).min(lvl);
        *hi = (*hi).max(lvl);
    }
}

/// The one event-driven kernel, behind [`FaultModel::detect_mask`] and
/// the signature-row loop of [`capture`]. Work is proportional to the
/// disturbed part of the fault's fanout cone; `scratch` must have been
/// sized for `graph` (see `for_graph`). It returns the detection mask and
/// leaves the faulty word of every disturbed signal stamped in
/// `scratch`. With `SATURATE` it stops the moment the mask covers
/// `block_mask`; without it, it never stops early, so signature capture
/// can read complete per-PO responses — a saturated *detection* mask
/// does not mean every *output* difference has been seen.
fn event_pass<const L: usize, const SATURATE: bool>(
    graph: &SimGraph,
    fault: StuckAtFault,
    block_mask: PatternWords<L>,
    good: &[PatternWords<L>],
    scratch: &mut FaultSimScratch<L>,
) -> PatternWords<L> {
    let stuck = PatternWords::<L>::stuck(fault.value);
    let epoch = scratch.begin_pass();
    let mut detect = PatternWords::<L>::ZERO;
    let (mut lo, mut hi) = (usize::MAX, 0usize);

    // Seed the worklist at the fault site. Two cheap proofs of
    // undetectability short-circuit the whole pass: the stuck word equals
    // the good word (no pattern in the block excites the fault), or no
    // primary output is reachable from the site.
    match fault.site {
        FaultSite::Signal(s) => {
            if graph.po_reach(s) == 0 || good[s.0] == stuck {
                return PatternWords::ZERO;
            }
            scratch.faulty[s.0] = stuck;
            scratch.stamp[s.0] = epoch;
            if graph.po_bit(s) != 0 {
                detect |= (good[s.0] ^ stuck) & block_mask;
                if SATURATE && detect == block_mask {
                    return detect;
                }
            }
            for &g in graph.consumers(s) {
                scratch.enqueue(graph, g, epoch, &mut lo, &mut hi);
            }
        }
        FaultSite::GatePin(g, pin) => {
            let out = graph.gate_output(g);
            let in_sig = graph.gate_inputs(g)[pin] as usize;
            if graph.po_reach(out) == 0 || good[in_sig] == stuck {
                return PatternWords::ZERO;
            }
            scratch.enqueue(graph, g.0 as u32, epoch, &mut lo, &mut hi);
        }
    }
    if lo == usize::MAX {
        // Fanout-free fault site (e.g. a stem that is itself a PO).
        return detect;
    }

    // Drain levels in ascending order. Events only ever flow to strictly
    // higher levels, so each gate is evaluated at most once per pass and
    // reads final faulty input words.
    let mut lvl = lo;
    while lvl <= hi {
        let mut bucket = std::mem::take(&mut scratch.buckets[lvl]);
        for &gi in &bucket {
            let gate = GateId(gi as usize);
            let gate_ins = graph.gate_inputs(gate);
            let mut ins = [PatternWords::<L>::ZERO; 3];
            for (pin, &s) in gate_ins.iter().enumerate() {
                let s = s as usize;
                ins[pin] = if scratch.stamp[s] == epoch {
                    scratch.faulty[s]
                } else {
                    good[s]
                };
            }
            if let FaultSite::GatePin(fg, fpin) = fault.site {
                if fg == gate {
                    ins[fpin] = stuck;
                }
            }
            let out = eval_word(graph.kind(gate), &ins[..gate_ins.len()]);
            let osig = graph.gate_output(gate);
            let o = osig.0;
            let cur = if scratch.stamp[o] == epoch {
                scratch.faulty[o]
            } else {
                good[o]
            };
            if out == cur {
                continue; // the event dies here
            }
            scratch.faulty[o] = out;
            scratch.stamp[o] = epoch;
            if graph.po_bit(osig) != 0 {
                detect |= (out ^ good[o]) & block_mask;
                if SATURATE && detect == block_mask {
                    // Saturated: every valid pattern already detects the
                    // fault, so the rest of the cone cannot change the
                    // answer. Clear the pending buckets and stop.
                    bucket.clear();
                    scratch.buckets[lvl] = bucket;
                    for b in &mut scratch.buckets[lvl + 1..=hi] {
                        b.clear();
                    }
                    return detect;
                }
            }
            if graph.po_reach(osig) != 0 {
                for &g in graph.consumers(osig) {
                    debug_assert!(graph.gate_level(GateId(g as usize)) > lvl);
                    scratch.enqueue(graph, g, epoch, &mut lo, &mut hi);
                }
            }
        }
        bucket.clear();
        scratch.buckets[lvl] = bucket;
        lvl += 1;
    }
    detect
}

// ----------------------------------------------------------------------
// Detection masks
// ----------------------------------------------------------------------

/// Bitmask of the patterns in `block` that detect `fault` at some PO.
///
/// Convenience wrapper over [`detect_mask_in`] that allocates a fresh
/// [`FaultSimScratch`]; callers probing many faults should hold a scratch
/// and call [`detect_mask_in`] directly (or use a `simulate_faults*`
/// engine, which amortises the graph precompute too).
#[must_use]
pub fn detect_mask<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
) -> PatternWords<L> {
    let mut scratch = FaultSimScratch::new();
    detect_mask_in(circuit, fault, block, &mut scratch)
}

/// [`detect_mask`] with caller-owned buffers: good and faulty machines are
/// simulated into `scratch`, so repeated calls are allocation-free.
///
/// This runs the whole-circuit reference pass (one fault, one block —
/// nothing to amortise a [`SimGraph`] over); the
/// engines use the event-driven kernel.
#[must_use]
pub fn detect_mask_in<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    scratch: &mut FaultSimScratch<L>,
) -> PatternWords<L> {
    scratch.ensure_signals(circuit.signal_count());
    good_sim_into(circuit, block, &mut scratch.good);
    let FaultSimScratch { good, faulty, .. } = scratch;
    full_pass_detect_mask(circuit, fault, block, good, faulty)
}

/// The retained full-pass reference: faulty-simulate the *whole* circuit
/// against precomputed good-machine words and OR the PO differences.
///
/// Kept as the oracle the event-driven kernel is property-tested against,
/// and as the baseline of the `ppsfp_scaling` ablation (via
/// [`simulate_faults_full_pass`]).
fn full_pass_detect_mask<const L: usize>(
    circuit: &Circuit,
    fault: StuckAtFault,
    block: &PatternBlock<L>,
    good: &[PatternWords<L>],
    scratch: &mut [PatternWords<L>],
) -> PatternWords<L> {
    faulty_sim_into(circuit, fault, block, scratch);
    let mut mask = PatternWords::<L>::ZERO;
    for o in circuit.primary_outputs() {
        mask |= good[o.0] ^ scratch[o.0];
    }
    mask & block.mask()
}

/// Result of simulating a fault list against a pattern set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimReport {
    /// Detected faults (indices into the input fault list, ascending).
    pub detected: Vec<usize>,
    /// Undetected faults (indices, ascending).
    pub undetected: Vec<usize>,
    /// For each pattern, how many new faults it detected (first-detection
    /// credit, in pattern order) — the fault-dropping profile.
    pub first_detections: Vec<usize>,
}

impl FaultSimReport {
    /// Fault coverage in [0, 1].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.detected.len() + self.undetected.len();
        if total == 0 {
            return 1.0;
        }
        self.detected.len() as f64 / total as f64
    }
}

/// A packed pattern block together with its good-machine words.
pub(crate) struct GoodBlock<const L: usize> {
    pub(crate) block: PatternBlock<L>,
    pub(crate) good: Vec<PatternWords<L>>,
}

impl<const L: usize> GoodBlock<L> {
    /// Pack `patterns` and simulate the good machine over them.
    pub(crate) fn new(circuit: &Circuit, patterns: &[Vec<bool>]) -> Self {
        let block = PatternBlock::pack(circuit, patterns);
        let good = good_sim(circuit, &block);
        GoodBlock { block, good }
    }
}

/// How a fault model drives the event kernel over a circuit and its
/// shared [`SimGraph`]. It packs a slice of its patterns into one block,
/// good machine included, and per (fault, block) it yields the stuck-at
/// fault to inject, the effective block mask (the patterns that may
/// detect the fault) and the good-machine words the faulty pass runs
/// against: the block's valid-pattern mask for stuck-at faults, the
/// launch-initialisation mask for transition faults.
pub(crate) trait FaultModel<const L: usize>: Sync {
    /// One fault of the model.
    type Fault: Copy + Sync;
    /// One input pattern of the model.
    type Pattern;
    /// One prepared pattern block of the model.
    type Block: Sync;

    /// The circuit under test.
    fn circuit(&self) -> &Circuit;

    /// The circuit's graph precompute.
    fn graph(&self) -> &SimGraph;

    /// Pack at most `64 * L` patterns into one block and simulate its
    /// good machine.
    fn block(&self, patterns: &[Self::Pattern]) -> Self::Block;

    /// The event kernel's inputs for `fault` over `block`.
    fn kernel_args<'b>(
        &self,
        fault: Self::Fault,
        block: &'b Self::Block,
    ) -> (StuckAtFault, PatternWords<L>, &'b [PatternWords<L>]);

    /// Detection mask of `fault` over `block` on the event kernel.
    fn detect_mask(
        &self,
        fault: Self::Fault,
        block: &Self::Block,
        scratch: &mut FaultSimScratch<L>,
    ) -> PatternWords<L> {
        let (stuck_at, mask, good) = self.kernel_args(fault, block);
        if mask.is_zero() {
            return PatternWords::ZERO;
        }
        event_pass::<L, true>(self.graph(), stuck_at, mask, good, scratch)
    }
}

/// The stuck-at fault model.
pub(crate) struct StuckAt<'c> {
    circuit: &'c Circuit,
    graph: &'c SimGraph,
}

impl<'c> StuckAt<'c> {
    /// `graph` must have been built from `circuit` (checked by debug
    /// assertion).
    pub(crate) fn new(circuit: &'c Circuit, graph: &'c SimGraph) -> Self {
        debug_assert_eq!(graph.signal_count(), circuit.signal_count());
        debug_assert_eq!(graph.gate_count(), circuit.gates().len());
        StuckAt { circuit, graph }
    }
}

impl<const L: usize> FaultModel<L> for StuckAt<'_> {
    type Fault = StuckAtFault;
    type Pattern = Vec<bool>;
    type Block = GoodBlock<L>;

    fn circuit(&self) -> &Circuit {
        self.circuit
    }

    fn graph(&self) -> &SimGraph {
        self.graph
    }

    fn block(&self, patterns: &[Vec<bool>]) -> GoodBlock<L> {
        GoodBlock::new(self.circuit, patterns)
    }

    fn kernel_args<'b>(
        &self,
        fault: StuckAtFault,
        block: &'b GoodBlock<L>,
    ) -> (StuckAtFault, PatternWords<L>, &'b [PatternWords<L>]) {
        (fault, block.block.mask(), &block.good)
    }
}

/// The one first-detection loop, shared by every engine of both fault
/// models and by the full-pass oracle: for each fault, the index of the
/// first pattern that detects it (`None` = undetected), given full
/// blocks of [`PatternBlock::CAPACITY`] patterns. With `drop_detected`,
/// a fault's remaining blocks are skipped after its first detection;
/// without it, every block is still evaluated (the honest baseline for
/// the dropping ablation), which does not change the result.
///
/// `mask_of` computes the per-(fault, block) detection mask — the only
/// thing the engines differ in, so dropping and first-index semantics
/// cannot silently diverge between the oracle and the kernel.
fn first_detections<F: Copy, B, const L: usize>(
    faults: &[F],
    blocks: &[B],
    drop_detected: bool,
    mut mask_of: impl FnMut(F, &B) -> PatternWords<L>,
) -> Vec<Option<usize>> {
    faults
        .iter()
        .map(|&fault| {
            let mut first: Option<usize> = None;
            for (bi, block) in blocks.iter().enumerate() {
                if first.is_some() && drop_detected {
                    break;
                }
                let mask = mask_of(fault, block);
                if mask.any() && first.is_none() {
                    first = Some(bi * PatternBlock::<L>::CAPACITY + mask.trailing_zeros());
                }
            }
            first
        })
        .collect()
}

/// The fan-out of the single-threaded engines: one worker, one chunk.
pub(crate) const ONE_WORKER: (usize, usize) = (1, usize::MAX);

/// The fan-out of a threaded engine, as `(workers, chunk)`: `threads`
/// workers (0 = every core), never more than there are faults, stealing
/// chunks of nominally eight per worker so there is slack to steal,
/// capped at 64 faults so big universes stay fine-grained.
pub(crate) fn stealing(threads: usize, n_faults: usize) -> (usize, usize) {
    let workers = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        t => t,
    };
    let workers = workers.min(n_faults.max(1));
    (workers, n_faults.div_ceil(workers * 8).clamp(1, 64))
}

/// The detection driver of both fault models: pack and good-simulate
/// `patterns` once in blocks of [`PatternBlock::CAPACITY`], fan the
/// fault list out over `(workers, chunk)` with a private scratch per
/// worker, run the first-detection loop on each chunk between `admit`
/// (which may stop the run) and `finished`, and merge in chunk order.
pub(crate) fn detect<M: FaultModel<L>, E: Send, const L: usize>(
    model: &M,
    faults: &[M::Fault],
    patterns: &[M::Pattern],
    drop_detected: bool,
    (workers, chunk): (usize, usize),
    admit: &(impl Fn() -> Result<(), E> + Sync),
    finished: &(impl Fn() + Sync),
) -> Result<(FaultSimReport, StealStats), E> {
    let blocks: Vec<M::Block> = patterns
        .chunks(PatternBlock::<L>::CAPACITY)
        .map(|p| model.block(p))
        .collect();
    let (chunks, stats) = fan_out(
        faults.len(),
        workers,
        chunk,
        |_| FaultSimScratch::for_graph(model.graph()),
        |scratch, range| {
            admit()?;
            let firsts = first_detections(&faults[range], &blocks, drop_detected, |f, b| {
                model.detect_mask(f, b, scratch)
            });
            finished();
            Ok(firsts)
        },
    )?;
    Ok((report_from(concat(chunks), patterns.len()), stats))
}

/// The capture driver of both fault models: [`detect`]'s prepare and
/// fan-out around the one signature-row loop, rows merged in chunk
/// order.
pub(crate) fn capture<M: FaultModel<L>, E: Send, const L: usize>(
    model: &M,
    faults: &[M::Fault],
    patterns: &[M::Pattern],
    (workers, chunk): (usize, usize),
    admit: &(impl Fn() -> Result<(), E> + Sync),
    finished: &(impl Fn() + Sync),
) -> Result<(SignatureMatrix, StealStats), E> {
    let blocks: Vec<M::Block> = patterns
        .chunks(PatternBlock::<L>::CAPACITY)
        .map(|p| model.block(p))
        .collect();
    let outputs = model.circuit().primary_outputs();
    let words_per_row = (patterns.len() * outputs.len()).div_ceil(64);
    let (chunks, stats) = fan_out(
        faults.len(),
        workers,
        chunk,
        |_| FaultSimScratch::for_graph(model.graph()),
        |scratch, range| {
            admit()?;
            // One packed row per fault: bit `pattern * outputs + output`
            // is set where the fault's response differs from the good
            // machine.
            let mut rows = vec![0u64; range.len() * words_per_row];
            for (fi, &fault) in faults[range].iter().enumerate() {
                let row = &mut rows[fi * words_per_row..(fi + 1) * words_per_row];
                for (bi, block) in blocks.iter().enumerate() {
                    let (stuck_at, mask, good) = model.kernel_args(fault, block);
                    if mask.is_zero() {
                        continue;
                    }
                    event_pass::<L, false>(model.graph(), stuck_at, mask, good, scratch);
                    for (o, &SignalId(s)) in outputs.iter().enumerate() {
                        if scratch.stamp[s] != scratch.epoch {
                            continue; // undisturbed output: no difference
                        }
                        for k in ((scratch.faulty[s] ^ good[s]) & mask).set_bits() {
                            let bit = (bi * PatternBlock::<L>::CAPACITY + k) * outputs.len() + o;
                            row[bit / 64] |= 1u64 << (bit % 64);
                        }
                    }
                }
            }
            finished();
            Ok(rows)
        },
    )?;
    let matrix = SignatureMatrix {
        n_faults: faults.len(),
        n_patterns: patterns.len(),
        n_outputs: outputs.len(),
        words_per_row,
        bits: concat(chunks),
    };
    Ok((matrix, stats))
}

/// Join per-chunk results in chunk order, moving a lone chunk rather
/// than copying it (a single-worker signature matrix can be megabytes).
fn concat<T: Clone>(parts: Vec<Vec<T>>) -> Vec<T> {
    match <[Vec<T>; 1]>::try_from(parts) {
        Ok([only]) => only,
        Err(parts) => parts.concat(),
    }
}

pub(crate) fn report_from(firsts: Vec<Option<usize>>, n_patterns: usize) -> FaultSimReport {
    let mut detected = Vec::new();
    let mut undetected = Vec::new();
    let mut first_detections = vec![0usize; n_patterns];
    for (fi, first) in firsts.iter().enumerate() {
        match first {
            Some(p) => {
                detected.push(fi);
                first_detections[*p] += 1;
            }
            None => undetected.push(fi),
        }
    }
    FaultSimReport {
        detected,
        undetected,
        first_detections,
    }
}

/// The lane widths the engines can dispatch to (`SINW_LANES` values).
pub const SUPPORTED_LANES: [usize; 4] = [1, 2, 4, 8];

/// The engine-default lane width: the `SINW_LANES` environment variable
/// when set to a supported width ({1, 2, 4, 8}), otherwise 1 (the
/// historical 64-wide kernel). Unparsable or unsupported values fall back
/// to 1 rather than aborting a run.
#[must_use]
pub fn configured_lanes() -> usize {
    match std::env::var("SINW_LANES") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(l) if SUPPORTED_LANES.contains(&l) => l,
            _ => 1,
        },
        Err(_) => 1,
    }
}

/// Monomorphise an expression over the supported lane widths:
/// `dispatch_lanes!(lanes, L => f::<L>(..))` evaluates the body with the
/// const `L` bound to `lanes`.
macro_rules! dispatch_lanes {
    ($lanes:expr, $l:ident => $body:expr) => {
        match $lanes {
            1 => {
                const $l: usize = 1;
                $body
            }
            2 => {
                const $l: usize = 2;
                $body
            }
            4 => {
                const $l: usize = 4;
                $body
            }
            8 => {
                const $l: usize = 8;
                $body
            }
            other => panic!(
                "unsupported lane count {other}; supported: {:?}",
                $crate::faultsim::SUPPORTED_LANES
            ),
        }
    };
}
pub(crate) use dispatch_lanes;

/// Wide bit-parallel fault simulation of a whole fault list, with
/// optional fault dropping (a dropped fault is not re-simulated in later
/// blocks). The inner loop is the event-driven kernel over a
/// [`SimGraph`] built once per call, at the [`configured_lanes`] width
/// (64 patterns per block per lane).
#[must_use]
pub fn simulate_faults(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
) -> FaultSimReport {
    simulate_faults_lanes(circuit, faults, patterns, drop_detected, configured_lanes())
}

/// [`simulate_faults`] at an explicit lane width.
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn simulate_faults_lanes(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    lanes: usize,
) -> FaultSimReport {
    let graph = SimGraph::build(circuit);
    simulate_faults_with_graph_lanes(circuit, &graph, faults, patterns, drop_detected, lanes)
}

/// [`simulate_faults_lanes`] against a caller-supplied [`SimGraph`]
/// precompute, skipping the per-call graph build. Reports
/// bit-identically to [`simulate_faults`].
///
/// `graph` must have been built from `circuit` (checked by debug
/// assertion).
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn simulate_faults_with_graph_lanes(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    lanes: usize,
) -> FaultSimReport {
    let model = StuckAt::new(circuit, graph);
    let run = dispatch_lanes!(lanes, L => detect::<_, _, L>(
        &model, faults, patterns, drop_detected, ONE_WORKER, &|| Ok(()), &|| {}
    ));
    run.unwrap_or_else(|e: Infallible| match e {}).0
}

/// Faults per chunk of [`simulate_faults_checked`] and
/// [`capture_signatures_checked`]: small enough that progress,
/// cancellation and deadlines have real granularity on the workspace's
/// fixture circuits, large enough that per-chunk overhead is noise.
pub const JOB_CHUNK: usize = 32;

/// [`simulate_faults`] against a caller-supplied [`SimGraph`], fanned out
/// over at most `threads` workers (at least one) in [`JOB_CHUNK`]-fault
/// chunks: `admit` runs before every chunk and may stop the run,
/// `finished` runs after it. This is the entry point of the `sinw-server`
/// job engine, whose cancellation, deadline and progress live in the two
/// closures. Pattern widths are checked and the patterns packed and
/// good-simulated once, before the fan-out. Runs at [`configured_lanes`]
/// and reports bit-identically to [`simulate_faults`].
///
/// # Errors
///
/// The first error `admit` returned, or [`PackError::ArityMismatch`]
/// (converted) for the first pattern whose width does not match the
/// circuit.
#[allow(clippy::too_many_arguments)]
pub fn simulate_faults_checked<E: From<PackError> + Send>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    threads: usize,
    admit: impl Fn() -> Result<(), E> + Sync,
    finished: impl Fn() + Sync,
) -> Result<FaultSimReport, E> {
    check_arity(circuit, patterns)?;
    let model = StuckAt::new(circuit, graph);
    let run = dispatch_lanes!(configured_lanes(), L => detect::<_, _, L>(
        &model, faults, patterns, drop_detected, (threads, JOB_CHUNK), &admit, &finished
    ));
    Ok(run?.0)
}

/// 64-way bit-parallel fault simulation on the retained **full-pass**
/// inner loop: every gate in the circuit is re-evaluated for every fault ×
/// block, with no event scheduling.
///
/// This is the ablation baseline of `cargo bench --bench ppsfp_scaling`
/// and the oracle the property suites pit the event-driven engines
/// against; it reports bit-identically to [`simulate_faults`].
#[must_use]
pub fn simulate_faults_full_pass(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
) -> FaultSimReport {
    let blocks: Vec<GoodBlock<1>> = patterns
        .chunks(PatternBlock::<1>::CAPACITY)
        .map(|p| GoodBlock::new(circuit, p))
        .collect();
    let mut scratch = vec![PatternWords::<1>::ZERO; circuit.signal_count()];
    let firsts = first_detections(faults, &blocks, drop_detected, |fault, b| {
        full_pass_detect_mask(circuit, fault, &b.block, &b.good, &mut scratch)
    });
    report_from(firsts, patterns.len())
}

/// [`simulate_faults_threaded_stats`] without the work-stealing counters.
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn simulate_faults_threaded_lanes(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    threads: usize,
    lanes: usize,
) -> FaultSimReport {
    simulate_faults_threaded_stats(circuit, faults, patterns, drop_detected, threads, lanes).0
}

/// Thread-parallel PPSFP over the work-stealing [`fan_out`] at an
/// explicit lane width: the fault list is cut into fixed chunks
/// ([`StealStats::chunk_size`] faults each) dealt out as contiguous
/// per-worker spans; a worker that exhausts its span steals the upper
/// half of a peer's. `threads = 0` uses
/// [`std::thread::available_parallelism`].
///
/// The [`SimGraph`] precompute and the per-block good-machine words are
/// computed once and shared read-only; each worker owns a private
/// [`FaultSimScratch`]. Chunk boundaries are a pure function of the
/// input and chunk results merge in chunk order, so the report is
/// bit-identical to [`simulate_faults`] no matter how chunks migrate
/// between workers. The returned [`StealStats`] are what the scaling
/// benches record and the determinism test asserts on.
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn simulate_faults_threaded_stats(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    drop_detected: bool,
    threads: usize,
    lanes: usize,
) -> (FaultSimReport, StealStats) {
    let graph = SimGraph::build(circuit);
    let model = StuckAt::new(circuit, &graph);
    let fan = stealing(threads, faults.len());
    let run = dispatch_lanes!(lanes, L => detect::<_, _, L>(
        &model, faults, patterns, drop_detected, fan, &|| Ok(()), &|| {}
    ));
    run.unwrap_or_else(|e: Infallible| match e {})
}

/// The deterministic stream generator behind [`seeded_patterns`] and the
/// `tpg` campaign's pattern/fill stream — one implementation so the
/// "same seed ⇒ same report" contract cannot silently fork.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Complete a test cube, drawing one bit per don't-care in PI order.
    pub(crate) fn fill(&mut self, cube: &[Option<bool>]) -> Vec<bool> {
        cube.iter()
            .map(|v| v.unwrap_or_else(|| self.next_bool()))
            .collect()
    }
}

/// Deterministic random-pattern source (SplitMix64): `count` fully
/// specified patterns over `n_pi` inputs, reproducible from `seed`.
/// Shared by the experiment drivers, the benches and the test suites so
/// reported coverage numbers are stable run-to-run.
#[must_use]
pub fn seeded_patterns(n_pi: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
        .collect()
}

/// Reverse-order test compaction: keep only the patterns that still detect
/// a new fault when replayed in reverse with fault dropping. Runs on the
/// event-driven kernel with one shared scratch, so a replay costs
/// O(disturbed region) per live fault.
#[must_use]
pub fn compact_reverse(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let graph = SimGraph::build(circuit);
    let mut scratch = FaultSimScratch::for_graph(&graph);
    compact(
        &StuckAt::new(circuit, &graph),
        faults,
        patterns,
        &mut scratch,
    )
}

/// The one reverse-order compaction loop, under either fault model:
/// replay `patterns` backwards one at a time with fault dropping and
/// keep only those that detect a fault of `faults` no later pattern
/// detects. The detected-fault set is preserved exactly.
pub(crate) fn compact<M: FaultModel<1>>(
    model: &M,
    faults: &[M::Fault],
    patterns: &[M::Pattern],
    scratch: &mut FaultSimScratch,
) -> Vec<M::Pattern>
where
    M::Pattern: Clone,
{
    let mut live = faults.to_vec();
    let mut kept = Vec::new();
    for p in patterns.iter().rev() {
        if live.is_empty() {
            break;
        }
        let block = model.block(std::slice::from_ref(p));
        let before = live.len();
        live.retain(|f| model.detect_mask(*f, &block, scratch).is_zero());
        if live.len() < before {
            kept.push(p.clone());
        }
    }
    kept.reverse();
    kept
}

// ----------------------------------------------------------------------
// Signature capture (the fourth engine mode)
// ----------------------------------------------------------------------

/// The full per-fault × per-pattern × per-PO response signature of a fault
/// list against a pattern set — the raw material of the circuit-level
/// fault dictionary ([`crate::diagnose`]).
///
/// Row `f` is a bit vector over `(pattern, output)` pairs: bit
/// `pattern * outputs + output` is set when the pattern's faulty response
/// under fault `f` differs from the good machine at that primary output.
/// Rows are produced by the same event-driven kernel as the detect-mask
/// engines, but with **no fault dropping and no saturation short-circuit**
/// — every pattern is simulated against every fault, because diagnosis
/// needs the pass/fail outcome of *all* (pattern, output) probes, not
/// just the first detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureMatrix {
    /// Number of faults (rows).
    n_faults: usize,
    /// Number of patterns.
    n_patterns: usize,
    /// Number of primary outputs.
    n_outputs: usize,
    /// Words per row: `ceil(n_patterns * n_outputs / 64)`.
    words_per_row: usize,
    /// Row-major packed bits, `n_faults * words_per_row` words.
    bits: Vec<u64>,
}

impl SignatureMatrix {
    /// Number of faults (rows).
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.n_faults
    }

    /// Number of patterns each row spans.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.n_patterns
    }

    /// Number of primary outputs each row spans.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.n_outputs
    }

    /// Packed words per row.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// One fault's packed signature row.
    #[must_use]
    pub fn row(&self, fault: usize) -> &[u64] {
        &self.bits[fault * self.words_per_row..(fault + 1) * self.words_per_row]
    }

    /// Whether `pattern` produces a faulty value at `output` under `fault`.
    #[must_use]
    pub fn fails(&self, fault: usize, pattern: usize, output: usize) -> bool {
        assert!(pattern < self.n_patterns && output < self.n_outputs);
        let bit = pattern * self.n_outputs + output;
        self.row(fault)[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Whether any (pattern, output) probe exposes the fault — the
    /// signature-side notion of "detected".
    #[must_use]
    pub fn is_detected(&self, fault: usize) -> bool {
        self.row(fault).iter().any(|w| *w != 0)
    }

    /// Index of the first pattern that exposes the fault at some output,
    /// or `None` for an all-pass row.
    #[must_use]
    pub fn first_failing_pattern(&self, fault: usize) -> Option<usize> {
        for (wi, w) in self.row(fault).iter().enumerate() {
            if *w != 0 {
                let bit = wi * 64 + w.trailing_zeros() as usize;
                return Some(bit / self.n_outputs);
            }
        }
        None
    }

    /// Total size of the packed matrix in bytes (the *uncompressed*
    /// per-fault baseline the dictionary's class merging is measured
    /// against).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// The raw row-major packed bits, `fault_count() * words_per_row()`
    /// words — the serialization view `sinw-server` snapshots read.
    #[must_use]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuild a matrix from its raw parts (the inverse of [`bits`]):
    /// `bits` must hold exactly `n_faults * ceil(n_patterns * n_outputs /
    /// 64)` row-major words, with no stray bit above `n_patterns *
    /// n_outputs` in any row. Used by `.sinw` snapshot decoding.
    ///
    /// [`bits`]: SignatureMatrix::bits
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the word
    /// count does not match the geometry or a row sets bits past the
    /// `n_patterns * n_outputs` payload.
    pub fn from_raw_parts(
        n_faults: usize,
        n_patterns: usize,
        n_outputs: usize,
        bits: Vec<u64>,
    ) -> Result<Self, String> {
        let payload_bits = n_patterns
            .checked_mul(n_outputs)
            .ok_or_else(|| String::from("pattern x output bit count overflows"))?;
        let words_per_row = payload_bits.div_ceil(64);
        let expected = n_faults
            .checked_mul(words_per_row)
            .ok_or_else(|| String::from("fault x word count overflows"))?;
        if bits.len() != expected {
            return Err(format!(
                "signature matrix needs {expected} words ({n_faults} faults x \
                 {words_per_row} words/row), got {}",
                bits.len()
            ));
        }
        if words_per_row > 0 && payload_bits % 64 != 0 {
            let tail_mask = !0u64 << (payload_bits % 64);
            for fi in 0..n_faults {
                if bits[(fi + 1) * words_per_row - 1] & tail_mask != 0 {
                    return Err(format!(
                        "row {fi} sets bits past the {payload_bits}-bit payload"
                    ));
                }
            }
        }
        Ok(SignatureMatrix {
            n_faults,
            n_patterns,
            n_outputs,
            words_per_row,
            bits,
        })
    }
}

/// [`capture_signatures_lanes`] against a caller-supplied [`SimGraph`]
/// precompute, skipping the per-call graph build. The matrix is
/// bit-identical to [`capture_signatures`].
///
/// `graph` must have been built from `circuit` (checked by debug
/// assertion).
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn capture_signatures_with_graph_lanes(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    lanes: usize,
) -> SignatureMatrix {
    let model = StuckAt::new(circuit, graph);
    let run = dispatch_lanes!(lanes, L => capture::<_, _, L>(
        &model, faults, patterns, ONE_WORKER, &|| Ok(()), &|| {}
    ));
    run.unwrap_or_else(|e: Infallible| match e {}).0
}

/// [`capture_signatures`] against a caller-supplied [`SimGraph`] — the
/// signature-capture twin of [`simulate_faults_checked`], with the same
/// [`JOB_CHUNK`] fan-out, per-chunk `admit` and `finished`, and
/// prepare-once contract. Runs at [`configured_lanes`]; the matrix is
/// bit-identical to [`capture_signatures`].
///
/// # Errors
///
/// The first error `admit` returned, or [`PackError::ArityMismatch`]
/// (converted) for the first pattern whose width does not match the
/// circuit.
pub fn capture_signatures_checked<E: From<PackError> + Send>(
    circuit: &Circuit,
    graph: &SimGraph,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    threads: usize,
    admit: impl Fn() -> Result<(), E> + Sync,
    finished: impl Fn() + Sync,
) -> Result<SignatureMatrix, E> {
    check_arity(circuit, patterns)?;
    let model = StuckAt::new(circuit, graph);
    let run = dispatch_lanes!(configured_lanes(), L => capture::<_, _, L>(
        &model, faults, patterns, (threads, JOB_CHUNK), &admit, &finished
    ));
    Ok(run?.0)
}

/// Signature capture on the bit-parallel engine: the full per-fault ×
/// per-pattern × per-PO response matrix of `faults` against `patterns`,
/// at the lane width [`configured_lanes`] selects.
///
/// Unlike the detect-mask engines there is deliberately **no fault
/// dropping** and no saturation short-circuit — diagnosis needs every
/// probe outcome. The inner loop is still the event-driven
/// fanout-cone-restricted kernel over a shared [`SimGraph`].
#[must_use]
pub fn capture_signatures(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> SignatureMatrix {
    capture_signatures_lanes(circuit, faults, patterns, configured_lanes())
}

/// [`capture_signatures`] at an explicit lane width `lanes` ∈
/// [`SUPPORTED_LANES`] (the lane-differential suite's entry point; the
/// matrix is bit-identical at every width).
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn capture_signatures_lanes(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    lanes: usize,
) -> SignatureMatrix {
    let graph = SimGraph::build(circuit);
    capture_signatures_with_graph_lanes(circuit, &graph, faults, patterns, lanes)
}

/// Thread-parallel signature capture at an explicit lane width: fault
/// chunks are claimed through the same work-stealing [`fan_out`] as
/// [`simulate_faults_threaded_stats`], with the shared read-only
/// [`SimGraph`]/good-machine precompute and one private
/// [`FaultSimScratch`] per worker. `threads = 0` auto-detects.
///
/// Rows land in fault order, so the matrix is bit-identical to
/// [`capture_signatures`].
///
/// # Panics
///
/// Panics if `lanes` is not one of [`SUPPORTED_LANES`].
#[must_use]
pub fn capture_signatures_threaded_lanes(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
    threads: usize,
    lanes: usize,
) -> SignatureMatrix {
    let graph = SimGraph::build(circuit);
    let model = StuckAt::new(circuit, &graph);
    let fan = stealing(threads, faults.len());
    let run = dispatch_lanes!(lanes, L => capture::<_, _, L>(
        &model, faults, patterns, fan, &|| Ok(()), &|| {}
    ));
    run.unwrap_or_else(|e: Infallible| match e {}).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::enumerate_stuck_at;
    use rand::prelude::*;

    fn random_patterns(n_pi: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..n_pi).map(|_| rng.gen_bool(0.5)).collect())
            .collect()
    }

    #[test]
    fn exhaustive_patterns_reach_full_c17_coverage() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<bool>> = (0..32u32)
            .map(|bits| (0..5).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let report = simulate_faults(&c, &faults, &patterns, true);
        assert_eq!(report.coverage(), 1.0, "c17 is fully testable");
    }

    #[test]
    fn event_driven_engine_matches_the_full_pass_oracle() {
        for (c, n_patterns) in [
            (Circuit::c17(), 40),
            (Circuit::ripple_adder(3), 100),
            (Circuit::ripple_adder(4), 130),
            (Circuit::parity_tree(7), 64),
        ] {
            let faults = enumerate_stuck_at(&c);
            let patterns = random_patterns(c.primary_inputs().len(), n_patterns, 17);
            for drop_detected in [false, true] {
                let full = simulate_faults_full_pass(&c, &faults, &patterns, drop_detected);
                let event = simulate_faults(&c, &faults, &patterns, drop_detected);
                let threaded = simulate_faults_threaded_lanes(
                    &c,
                    &faults,
                    &patterns,
                    drop_detected,
                    4,
                    configured_lanes(),
                );
                assert_eq!(full, event, "drop = {drop_detected}");
                assert_eq!(full, threaded, "threaded, drop = {drop_detected}");
            }
        }
    }

    #[test]
    fn events_die_in_unobserved_cones() {
        // kept = NAND(a, b) is the only PO; an INV chain hangs off it
        // unobserved, so faults there must report undetected (and the
        // kernel proves it without simulating anything).
        use sinw_switch::cells::CellKind;
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let b = c.add_input("b");
        let kept = c.add_gate(CellKind::Nand2, "kept", &[a, b]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[kept]);
        let _dead2 = c.add_gate(CellKind::Inv, "dead2", &[dead]);
        c.mark_output(kept);
        let faults = enumerate_stuck_at(&c);
        let patterns: Vec<Vec<bool>> = (0..4u32)
            .map(|bits| (0..2).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        let full = simulate_faults_full_pass(&c, &faults, &patterns, false);
        let event = simulate_faults(&c, &faults, &patterns, false);
        assert_eq!(full, event);
        let dead_sa0 = faults
            .iter()
            .position(|f| f.site == FaultSite::Signal(dead) && !f.value)
            .expect("dead s-a-0 enumerated");
        assert!(event.undetected.contains(&dead_sa0));
    }

    #[test]
    fn threaded_engine_handles_edge_worker_counts() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(5, 16, 9);
        let reference = simulate_faults(&c, &faults, &patterns, true);
        // More workers than faults, exactly one worker, and auto-detect.
        let lanes = configured_lanes();
        for threads in [1usize, 3, faults.len() + 10, 0] {
            let r = simulate_faults_threaded_lanes(&c, &faults, &patterns, true, threads, lanes);
            assert_eq!(r, reference, "threads = {threads}");
        }
        // Empty fault list.
        let empty = simulate_faults_threaded_lanes(&c, &[], &patterns, true, 4, lanes);
        assert!(empty.detected.is_empty() && empty.undetected.is_empty());
        assert_eq!(empty.coverage(), 1.0);
    }

    #[test]
    fn huge_thread_counts_clamp_to_the_fault_count() {
        assert_eq!(stealing(usize::MAX, 10), (10, 1));
        assert_eq!(stealing(usize::MAX, 0), (1, 1));
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(5, 16, 9);
        let (r, stats) =
            simulate_faults_threaded_stats(&c, &faults, &patterns, true, usize::MAX, 1);
        assert_eq!(r, simulate_faults(&c, &faults, &patterns, true));
        assert!(stats.workers <= faults.len());
    }

    #[test]
    fn fault_dropping_does_not_change_coverage() {
        let c = Circuit::parity_tree(6);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 64, 7);
        let with_drop = simulate_faults(&c, &faults, &patterns, true);
        let without = simulate_faults(&c, &faults, &patterns, false);
        assert_eq!(with_drop.detected.len(), without.detected.len());
        assert_eq!(with_drop.first_detections, without.first_detections);
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(5, 40, 3);
        let full = simulate_faults(&c, &faults, &patterns, true);
        let compacted = compact_reverse(&c, &faults, &patterns);
        let after = simulate_faults(&c, &faults, &compacted, true);
        assert_eq!(full.detected.len(), after.detected.len());
        assert!(compacted.len() <= patterns.len());
    }

    #[test]
    fn detect_mask_is_per_pattern_exact() {
        // INV chain: a s-a-0 detected exactly by patterns with a=1.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Inv, "g", &[a]);
        c.mark_output(o);
        let fault = StuckAtFault::sa0(FaultSite::Signal(a));
        let block: PatternBlock = PatternBlock::pack(&c, &[vec![false], vec![true], vec![true]]);
        assert_eq!(detect_mask(&c, fault, &block), 0b110u64);
    }

    #[test]
    fn detect_mask_in_reuses_buffers_across_circuits() {
        // One scratch serves circuits of different sizes, growing once and
        // agreeing with the allocating wrapper everywhere.
        let mut scratch: FaultSimScratch = FaultSimScratch::new();
        for c in [Circuit::c17(), Circuit::full_adder(), Circuit::c17()] {
            let n_pi = c.primary_inputs().len();
            let patterns: Vec<Vec<bool>> = (0..(1u32 << n_pi))
                .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
                .collect();
            let block: PatternBlock = PatternBlock::pack(&c, &patterns);
            for fault in enumerate_stuck_at(&c) {
                assert_eq!(
                    detect_mask_in(&c, fault, &block, &mut scratch),
                    detect_mask(&c, fault, &block),
                    "{}",
                    fault.describe(&c)
                );
            }
        }
    }

    #[test]
    fn signature_capture_matches_per_bit_full_pass_responses() {
        // Every bit of the signature matrix cross-checked against the
        // whole-circuit reference simulators, one pattern at a time.
        for c in [Circuit::c17(), Circuit::full_adder()] {
            let faults = enumerate_stuck_at(&c);
            let n_pi = c.primary_inputs().len();
            let patterns = random_patterns(n_pi, 70, 5);
            let sig = capture_signatures(&c, &faults, &patterns);
            assert_eq!(
                sig,
                capture_signatures_threaded_lanes(&c, &faults, &patterns, 3, configured_lanes())
            );
            for (p, pattern) in patterns.iter().enumerate() {
                let block: PatternBlock = PatternBlock::pack(&c, std::slice::from_ref(pattern));
                let good = good_sim(&c, &block);
                for (fi, &fault) in faults.iter().enumerate() {
                    let faulty = faulty_sim(&c, fault, &block);
                    for (o, po) in c.primary_outputs().iter().enumerate() {
                        assert_eq!(
                            sig.fails(fi, p, o),
                            (good[po.0] ^ faulty[po.0]).get_bit(0),
                            "{} at pattern {p}, PO {o}",
                            fault.describe(&c)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn signature_detection_agrees_with_the_detect_mask_engines() {
        let c = Circuit::ripple_adder(3);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 100, 42);
        let sig = capture_signatures(&c, &faults, &patterns);
        let report = simulate_faults(&c, &faults, &patterns, false);
        for fi in 0..faults.len() {
            assert_eq!(
                sig.is_detected(fi),
                report.detected.contains(&fi),
                "{}",
                faults[fi].describe(&c)
            );
        }
        // First-failing patterns reproduce the first-detection profile.
        let mut firsts = vec![0usize; patterns.len()];
        for fi in 0..faults.len() {
            if let Some(p) = sig.first_failing_pattern(fi) {
                firsts[p] += 1;
            }
        }
        assert_eq!(firsts, report.first_detections);
    }

    #[test]
    fn signature_capture_handles_degenerate_inputs() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        // Empty pattern set: zero-width rows, nothing detected.
        let sig = capture_signatures(&c, &faults, &[]);
        assert_eq!(sig.fault_count(), faults.len());
        assert_eq!(sig.pattern_count(), 0);
        assert_eq!(sig.words_per_row(), 0);
        assert_eq!(sig.bytes(), 0);
        assert!(!sig.is_detected(0));
        assert_eq!(sig.first_failing_pattern(0), None);
        // Empty fault list.
        let patterns = random_patterns(5, 8, 1);
        let lanes = configured_lanes();
        let empty = capture_signatures_threaded_lanes(&c, &[], &patterns, 4, lanes);
        assert_eq!(empty.fault_count(), 0);
        // Edge worker counts agree with the single-threaded engine.
        let reference = capture_signatures(&c, &faults, &patterns);
        for threads in [1usize, 3, faults.len() + 10, 0] {
            assert_eq!(
                capture_signatures_threaded_lanes(&c, &faults, &patterns, threads, lanes),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn try_pack_reports_each_violation() {
        let c = Circuit::c17();
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &[]).unwrap_err(),
            PackError::Empty
        );
        let too_many = vec![vec![false; 5]; 65];
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &too_many).unwrap_err(),
            PackError::TooManyPatterns {
                got: 65,
                capacity: 64
            }
        );
        // The same 65 patterns fit a two-lane block.
        let wide = PatternBlock::<2>::try_pack(&c, &too_many).expect("fits 128-bit capacity");
        assert_eq!(wide.count, 65);
        assert_eq!(wide.mask(), PatternWords::<2>::valid_mask(65));
        let bad_arity = vec![vec![false; 5], vec![true; 4]];
        assert_eq!(
            PatternBlock::<1>::try_pack(&c, &bad_arity).unwrap_err(),
            PackError::ArityMismatch {
                pattern: 1,
                got: 4,
                expected: 5
            }
        );
        let ok = PatternBlock::<1>::try_pack(&c, &[vec![true; 5]]).expect("valid block packs");
        assert_eq!(ok.count, 1);
        assert_eq!(ok.mask(), 1u64);
    }

    #[test]
    fn all_engines_agree_across_lane_widths() {
        let c = Circuit::ripple_adder(3);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 200, 11);
        let reference = simulate_faults_lanes(&c, &faults, &patterns, true, 1);
        let ref_sig = capture_signatures_lanes(&c, &faults, &patterns, 1);
        for lanes in SUPPORTED_LANES {
            assert_eq!(
                simulate_faults_lanes(&c, &faults, &patterns, true, lanes),
                reference,
                "event engine at L = {lanes}"
            );
            let (thr, _) = simulate_faults_threaded_stats(&c, &faults, &patterns, true, 3, lanes);
            assert_eq!(thr, reference, "threaded engine at L = {lanes}");
            assert_eq!(
                capture_signatures_lanes(&c, &faults, &patterns, lanes),
                ref_sig,
                "capture at L = {lanes}"
            );
            assert_eq!(
                capture_signatures_threaded_lanes(&c, &faults, &patterns, 3, lanes),
                ref_sig,
                "threaded capture at L = {lanes}"
            );
        }
    }

    /// The work-stealing engine matches the single-lane, single-worker
    /// reference with dropping on and off.
    #[test]
    fn work_stealing_matches_static_partitioning() {
        let c = Circuit::parity_tree(9);
        let faults = enumerate_stuck_at(&c);
        let patterns = random_patterns(c.primary_inputs().len(), 96, 23);
        for drop_detected in [false, true] {
            let serial = simulate_faults_lanes(&c, &faults, &patterns, drop_detected, 1);
            let (steal, stats) =
                simulate_faults_threaded_stats(&c, &faults, &patterns, drop_detected, 4, 1);
            assert_eq!(serial, steal, "drop = {drop_detected}");
            assert!(stats.chunks > 0 && stats.chunk_size > 0);
        }
    }
}
