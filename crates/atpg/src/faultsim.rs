//! Stuck-at fault simulation: wide-word bit-parallel and thread-parallel
//! PPSFP on a fanout-free-region kernel with one event-driven pass per
//! fanout stem.
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
//! statically dispatched fault-model trait that hands the kernel its
//! stuck-at fault, model mask and good block per (fault, block), so
//! **one** first-detection loop and **one** signature-row loop serve
//! the stuck-at engines here and the transition engines of
//! [`crate::transition`] alike.
//!
//! # Lane widening
//!
//! Every engine is generic over a lane count `L`: a block packs
//! `64 * L` patterns into [`PatternWords<L>`] words (`[u64; L]` with
//! loop-based bitwise ops that autovectorise to 256/512-bit SIMD). The
//! default entry points and the job path run at L = 1
//! ([`configured_lanes`]); the `*_lanes` variants take the width
//! explicitly. Detection reports and signature matrices are
//! bit-identical at every supported width — the lane-differential
//! property suite pins L ∈ {2, 4, 8} against the L = 1 kernel and the
//! full-pass oracle.
//!
//! # The fanout-free-region kernel
//!
//! A *stem* is a primary output or a signal whose pin fanout is not 1;
//! every other signal feeds exactly one gate pin, so a flip inside a
//! fanout-free region has one path to its stem, and the side inputs on
//! that path lie outside the fault's cone. The shared [`SimGraph`]
//! (levelization, CSR fanout, PO-reachability masks and each signal's
//! stem) lets the kernel split detection in three:
//!
//! 1. **local observability**, per fault and block: the patterns in
//!    which the fault's flip reaches its stem, the AND of `∂gate/∂pin`
//!    along that path over the good words (all ones for
//!    `INV`/`XOR2`/`XOR3`, the other input for `NAND2`, its negation for
//!    `NOR2`, the XOR of the other two for `MAJ3`); the walk stops early
//!    once the term is zero;
//! 2. **`obs(stem)`**, once per (run, block, stem) and shared by the
//!    run's workers: one event-driven pass flips the stem in every
//!    pattern, evaluates only the gates an event reaches (reading the
//!    rest from the good words), and ORs PO differences until they
//!    saturate the block's valid patterns;
//! 3. **per fault**, `(good[site] ^ stuck) & local & model_mask &
//!    obs(stem)`, where a `GatePin` fault's path starts with its own
//!    pin's sensitivity.
//!
//! Signature capture runs the same stem pass without saturation, keeps
//! each stem's per-PO differences and ANDs them with the fault's term;
//! each fan-out chunk writes its rows straight into the one matrix.
//! Pass state lives in a [`FaultSimScratch`], validated by epoch stamps
//! instead of being cleared, so a pass is allocation-free and costs
//! O(disturbed region), not O(circuit).
//!
//! # Stem lanes
//!
//! One pass carries a group of consecutive stems, one per **stem lane**:
//! each signal's faulty word is `K` pattern words, stem `k` of the group
//! flips lane `k` only, lanes without a flip read the good words, and a
//! member inside another member's cone keeps its own lane flipped when
//! its driver is evaluated. Lane `k` therefore ends exactly as a
//! one-stem pass of member `k` would, while the per-gate bookkeeping is
//! paid once for `K` stems. Capture reads each lane's per-output
//! differences; detection ORs each lane over the outputs and stops when
//! every lane saturates. Grouping pays only where every stem is likely
//! needed: every capture block (`K` = 8), every block of a no-drop
//! detection run and the first block of a dropping run (`K` = 4, which
//! every fault visits). A dropping run's later blocks run the same
//! kernel at `K` = 1. Each group's pass runs once per run, whichever
//! worker asks first, so a run's kernel work is the same on any number
//! of workers.
//!
//! The whole-circuit pass is retained as [`simulate_faults_full_pass`] —
//! it is the property-test oracle and the baseline of the ≥ 5×
//! event-kernel gate in the `perf_gates` test.
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
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// One gate evaluated in each of `K` stem lanes: `a[k]`, `b[k]` and
/// `c[k]` are pins 0–2 in lane `k` (pins past the gate's arity are
/// ignored).
#[inline]
fn eval_lanes<const L: usize, const K: usize>(
    kind: CellKind,
    [a, b, c]: &[[PatternWords<L>; K]; 3],
) -> [PatternWords<L>; K] {
    use std::array::from_fn;
    match kind {
        CellKind::Inv => from_fn(|k| !a[k]),
        CellKind::Nand2 => from_fn(|k| !(a[k] & b[k])),
        CellKind::Nor2 => from_fn(|k| !(a[k] | b[k])),
        CellKind::Xor2 => from_fn(|k| a[k] ^ b[k]),
        CellKind::Xor3 => from_fn(|k| a[k] ^ b[k] ^ c[k]),
        CellKind::Maj3 => from_fn(|k| (a[k] & b[k]) | (b[k] & c[k]) | (a[k] & c[k])),
    }
}

/// [`eval_lanes`] in one lane.
fn eval_word<const L: usize>(kind: CellKind, [a, b, c]: &[PatternWords<L>; 3]) -> PatternWords<L> {
    let [out] = eval_lanes(kind, &[[*a], [*b], [*c]]);
    out
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
        values[gate.output.0] = eval_word(gate.kind, &ins);
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
        let mut out = eval_word(gate.kind, &ins);
        if fault.site == FaultSite::Signal(gate.output) {
            out = stuck;
        }
        values[gate.output.0] = out;
    }
}

// ----------------------------------------------------------------------
// Per-worker scratch and the event-driven kernel
// ----------------------------------------------------------------------

/// Stems one grouped saturating (detection) pass carries, one per
/// **stem lane**: the pass's words are `K` pattern words per signal,
/// and stem `first + k` of the group flips lane `k` only. Lanes amortise
/// the per-gate bookkeeping (the worklist, the stamps, the event test)
/// over several stems, but a saturating pass stops only once every lane
/// saturates; measured on the mapped multipliers at 64 patterns, four
/// lanes beat one and eight (`EXPERIMENTS.md`, "Stem lanes").
const DETECT_LANES: usize = 4;

/// Stems one grouped unsaturated (signature-capture) pass carries. With
/// no saturation to wait for, wider groups keep paying: eight lanes beat
/// four on every mapped multiplier measured.
const CAPTURE_LANES: usize = 8;

/// Reusable per-worker buffers for fault-simulation passes.
///
/// Holds the faulty-word scratch, the epoch-validated dirty marks, the
/// per-level worklist buckets of the event-driven stem pass, the
/// good/faulty vectors used by [`detect_mask_in`], and counts of the
/// stem passes and gate evaluations it ran. Buffers grow lazily to the
/// largest circuit seen and are never shrunk or cleared: a pass
/// invalidates previous state by bumping an epoch stamp, so reuse is
/// allocation-free. Stem results live in a run's shared `StemTable`,
/// not here.
///
/// One scratch serves one thread; every engine creates one per worker.
/// The lane count `L` must match the blocks it is used with (default 1).
#[derive(Debug, Default)]
pub struct FaultSimScratch<const L: usize = 1> {
    /// Good-machine words for [`detect_mask_in`].
    good: Vec<PatternWords<L>>,
    /// Faulty words, `K` stem lanes per signal in a `K`-lane pass
    /// (signal `s` at `s * K..(s + 1) * K`; grown by the first pass that
    /// wide), valid only where `stamp[s] == epoch`.
    faulty: Vec<PatternWords<L>>,
    /// Per-signal dirty mark (epoch at which `faulty` was written).
    stamp: Vec<u32>,
    /// Per-gate enqueued mark for the current pass.
    queued: Vec<u32>,
    /// Per-level worklist buckets, indexed by gate level.
    buckets: Vec<Vec<u32>>,
    /// Current pass number; bumping it invalidates all stamps at once.
    epoch: u32,
    /// Work done since the last [`FaultSimScratch::take_work`].
    work: KernelWork,
}

/// Deterministic work counts of the stem kernel: the same on every run
/// of the same input, whatever the host, the worker count or the chunk
/// schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct KernelWork {
    /// Stem passes run (one per group of stems).
    pub(crate) passes: u64,
    /// Gate evaluations those passes made.
    pub(crate) evals: u64,
}

impl std::ops::AddAssign for KernelWork {
    fn add_assign(&mut self, rhs: Self) {
        self.passes += rhs.passes;
        self.evals += rhs.evals;
    }
}

impl<const L: usize> FaultSimScratch<L> {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch sized for every buffer the stem pass touches over
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
        if self.stamp.len() < n {
            self.good.resize(n, PatternWords::ZERO);
            self.faulty.resize(n, PatternWords::ZERO);
            self.stamp.resize(n, 0);
        }
    }

    /// The work counted since the last call, resetting the counts.
    pub(crate) fn take_work(&mut self) -> KernelWork {
        std::mem::take(&mut self.work)
    }

    /// Run the stem pass of `members` over `gb`, in `K` lanes when
    /// `grouped` (else `members` is one stem), and return what `read`
    /// makes of each member's lane, given the scratch after the pass,
    /// the lane, the pass's lane count and the lane's detection mask.
    /// Lanes past the group's length read `T::default()`.
    fn group_pass<const K: usize, const SATURATE: bool, T: Default>(
        &mut self,
        graph: &SimGraph,
        members: Range<usize>,
        grouped: bool,
        gb: &GoodBlock<L>,
        read: impl Fn(&Self, usize, usize, PatternWords<L>) -> T,
    ) -> [T; K] {
        let mask = gb.block.mask();
        let mut out: [T; K] = std::array::from_fn(|_| T::default());
        if grouped {
            let detect = stem_pass::<L, K, SATURATE>(graph, members.clone(), mask, &gb.good, self);
            for k in 0..members.len() {
                out[k] = read(self, k, K, detect[k]);
            }
        } else {
            let [detect] = stem_pass::<L, 1, SATURATE>(graph, members, mask, &gb.good, self);
            out[0] = read(self, 0, 1, detect);
        }
        out
    }

    /// Lane `k`'s nonzero per-output differences, as `(output index,
    /// difference)`, after an unsaturated pass of `lanes` stem lanes.
    fn lane_diffs(
        &self,
        k: usize,
        lanes: usize,
        outputs: &[SignalId],
        gb: &GoodBlock<L>,
    ) -> Box<[(u32, PatternWords<L>)]> {
        let mask = gb.block.mask();
        outputs
            .iter()
            .enumerate()
            .filter(|&(_, &SignalId(s))| self.stamp[s] == self.epoch)
            .map(|(o, &SignalId(s))| (o as u32, (self.faulty[s * lanes + k] ^ gb.good[s]) & mask))
            .filter(|(_, diff)| diff.any())
            .collect()
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
        self.work.passes += 1;
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

/// The stem results of one run, shared by its workers: one slot per
/// (block, stem), filled by the pass of the stem's group the first time
/// any worker needs one of its members. A group is `K` consecutive stem
/// indices over the first `grouped` blocks (the blocks every fault of
/// the run visits) and a lone stem after them. Each group's pass runs
/// exactly once per run, so the run's work does not depend on how its
/// faults are spread over workers.
pub(crate) struct StemTable<T, const K: usize> {
    stems: usize,
    grouped: usize,
    slots: Vec<OnceLock<T>>,
}

/// Detection's table: each stem's observability, `obs(stem)`.
pub(crate) type ObsTable<const L: usize> = StemTable<PatternWords<L>, DETECT_LANES>;

/// Capture's table: each stem's nonzero `(output index, difference)`s.
type DiffTable<const L: usize> = StemTable<Box<[(u32, PatternWords<L>)]>, CAPTURE_LANES>;

impl<T: Default, const K: usize> StemTable<T, K> {
    /// An empty table for `blocks` blocks over `graph`'s stems, with the
    /// first `grouped` blocks grouped.
    pub(crate) fn new(graph: &SimGraph, blocks: usize, grouped: usize) -> Self {
        let stems = graph.stem_count();
        StemTable {
            stems,
            grouped,
            slots: std::iter::repeat_with(OnceLock::new)
                .take(blocks * stems)
                .collect(),
        }
    }

    /// Forget every result.
    pub(crate) fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.take();
        }
    }

    /// The result of `stem` over block `bi`. Unless its group's pass has
    /// run, `pass` runs it, given the group's members and whether the
    /// block is grouped, and returns one result per member.
    fn get(&self, bi: usize, stem: usize, pass: impl FnOnce(Range<usize>, bool) -> [T; K]) -> &T {
        let slot = bi * self.stems + stem;
        if let Some(result) = self.slots[slot].get() {
            return result;
        }
        let lanes = if bi < self.grouped { K } else { 1 };
        let first = stem - stem % lanes;
        let members = first..(first + lanes).min(self.stems);
        let base = bi * self.stems;
        // The first member's slot is the group's lock: whoever fills it
        // fills the others first, so a filled first slot means a filled
        // group.
        self.slots[base + first].get_or_init(|| {
            let mut results = pass(members.clone(), lanes > 1);
            for (k, member) in members.clone().enumerate().skip(1) {
                let fresh = self.slots[base + member].set(std::mem::take(&mut results[k]));
                debug_assert!(fresh.is_ok(), "one pass per group");
            }
            std::mem::take(&mut results[0])
        });
        self.slots[slot]
            .get()
            .expect("a group pass fills its members")
    }
}

/// The one event-driven kernel: flip each stem of `members` (at most
/// `K`) in every pattern of its own stem lane and propagate the flips
/// through their cones, in work proportional to the disturbed part.
/// Lanes without a flip carry the good words, and a member inside
/// another member's cone keeps its own lane flipped when its driver is
/// evaluated, so lane `k` ends exactly as a one-stem pass of member `k`
/// would. `scratch` must be sized for `graph` (`for_graph`). It returns
/// each lane's detection mask and leaves every disturbed signal's
/// faulty lanes stamped in `scratch`. With `SATURATE` it stops once
/// every lane's mask covers `block_mask` (a member no output can see
/// stays clear); without it, signature capture reads complete per-PO
/// responses. Kept out of line (and the per-fault path inline), so a
/// crate instantiating the drivers, like the job path, builds the same
/// hot loop as this one.
#[inline(never)]
fn stem_pass<const L: usize, const K: usize, const SATURATE: bool>(
    graph: &SimGraph,
    members: Range<usize>,
    block_mask: PatternWords<L>,
    good: &[PatternWords<L>],
    scratch: &mut FaultSimScratch<L>,
) -> [PatternWords<L>; K] {
    debug_assert!(members.len() <= K);
    let lanes = graph.signal_count() * K;
    if scratch.faulty.len() < lanes {
        // The first pass this wide: room for `K` words per signal.
        scratch.faulty.resize(lanes, PatternWords::ZERO);
    }
    let epoch = scratch.begin_pass();
    let mut detect = [PatternWords::<L>::ZERO; K];
    let mut full = [PatternWords::<L>::ZERO; K];
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for (k, stem) in members.clone().enumerate() {
        let sig = graph.stem_signal(stem);
        if graph.po_reach(sig) == 0 {
            continue; // no primary output can see the stem
        }
        full[k] = block_mask;
        let s = sig.0;
        scratch.faulty[s * K..(s + 1) * K].fill(good[s]);
        scratch.faulty[s * K + k] = !good[s];
        scratch.stamp[s] = epoch;
        if graph.po_bit(sig) != 0 {
            detect[k] = block_mask;
        }
        for &g in graph.consumers(sig) {
            scratch.enqueue(graph, g, epoch, &mut lo, &mut hi);
        }
    }
    if (SATURATE && detect == full) || lo == usize::MAX {
        return detect; // saturated already, or only POs with no fanout
    }

    // Drain levels in ascending order. Events only ever flow to strictly
    // higher levels, so each gate is evaluated at most once per pass and
    // reads final faulty input words.
    let mut evals = 0u64;
    let mut lvl = lo;
    'drain: while lvl <= hi {
        let mut bucket = std::mem::take(&mut scratch.buckets[lvl]);
        for &gi in &bucket {
            evals += 1;
            let gate = GateId(gi as usize);
            let mut ins = [[PatternWords::<L>::ZERO; K]; 3];
            for (pin, &s) in graph.gate_inputs(gate).iter().enumerate() {
                let s = s as usize;
                ins[pin] = if scratch.stamp[s] == epoch {
                    std::array::from_fn(|k| scratch.faulty[s * K + k])
                } else {
                    [good[s]; K]
                };
            }
            let mut out = eval_lanes(graph.kind(gate), &ins);
            let osig = graph.gate_output(gate);
            let o = osig.0;
            if K > 1 {
                // A member driven from inside another member's cone.
                let stem = graph.stem_of(osig);
                let k = stem.wrapping_sub(members.start);
                if k < members.len() && graph.stem_signal(stem) == osig {
                    out[k] = !good[o];
                }
            }
            if out.iter().all(|w| *w == good[o]) {
                continue; // the event dies here
            }
            scratch.faulty[o * K..(o + 1) * K].copy_from_slice(&out);
            scratch.stamp[o] = epoch;
            if graph.po_bit(osig) != 0 {
                for (d, w) in detect.iter_mut().zip(&out) {
                    *d |= (*w ^ good[o]) & block_mask;
                }
                if SATURATE && detect == full {
                    // Saturated: every valid pattern of every lane
                    // already sees its flip, so the rest of the cones
                    // cannot change the answer. Clear the pending
                    // buckets and stop.
                    bucket.clear();
                    scratch.buckets[lvl] = bucket;
                    for b in &mut scratch.buckets[lvl + 1..=hi] {
                        b.clear();
                    }
                    break 'drain;
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
    scratch.work.evals += evals;
    detect
}

/// `∂gate/∂pin` over the good words `good`: the patterns in which
/// flipping input `pin` alone flips the gate's output.
fn pin_sensitivity<const L: usize>(
    kind: CellKind,
    pin: usize,
    ins: &[u32],
    good: &[PatternWords<L>],
) -> PatternWords<L> {
    let other = |k: usize| good[ins[k] as usize];
    match kind {
        CellKind::Inv | CellKind::Xor2 | CellKind::Xor3 => PatternWords::stuck(true),
        CellKind::Nand2 => other(1 - pin),
        CellKind::Nor2 => !other(1 - pin),
        CellKind::Maj3 => other((pin + 1) % 3) ^ other((pin + 2) % 3),
    }
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
/// and as the baseline of the `perf_gates` test's event-kernel gate (via
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

    /// The stem `fault` drains into and its mask short of the stem's
    /// observability: the patterns of `model_mask` that excite the fault
    /// and carry its flip along its one path to the stem (local
    /// observability: the AND of the pin sensitivities on that path).
    #[inline]
    fn to_stem(
        &self,
        graph: &SimGraph,
        fault: StuckAtFault,
        model_mask: PatternWords<L>,
    ) -> (usize, PatternWords<L>) {
        // The faulty line, and the signal whose flip it causes: a
        // `GatePin` fault flips its gate's output where the pin is
        // sensitised.
        let (line, mut flipped, mut mask) = match fault.site {
            FaultSite::Signal(s) => (s.0, s, model_mask),
            FaultSite::GatePin(g, pin) => {
                let ins = graph.gate_inputs(g);
                let sens = pin_sensitivity(graph.kind(g), pin, ins, &self.good);
                (ins[pin] as usize, graph.gate_output(g), model_mask & sens)
            }
        };
        mask &= self.good[line] ^ PatternWords::stuck(fault.value);
        let stem = graph.stem_of(flipped);
        while mask.any() && graph.stem_signal(stem) != flipped {
            // A non-stem feeds exactly one pin of one gate.
            let g = GateId(graph.consumers(flipped)[0] as usize);
            let ins = graph.gate_inputs(g);
            let pin = ins.iter().position(|&s| s as usize == flipped.0);
            let pin = pin.expect("a consumer reads its input");
            mask &= pin_sensitivity(graph.kind(g), pin, ins, &self.good);
            flipped = graph.gate_output(g);
        }
        (stem, mask)
    }
}

/// How a fault model drives the stem kernel over a circuit and its
/// shared [`SimGraph`]. It packs a slice of its patterns into one block,
/// good machine included, and per (fault, block) it yields the stuck-at
/// fault to inject, its model mask (the patterns that may detect the
/// fault: the block's valid-pattern mask for stuck-at faults, the
/// launch-initialisation mask for transition faults) and the good block
/// the fault is observed against.
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

    /// The stem kernel's inputs for `fault` over `block`.
    fn kernel_args<'b>(
        &self,
        fault: Self::Fault,
        block: &'b Self::Block,
    ) -> (StuckAtFault, PatternWords<L>, &'b GoodBlock<L>);

    /// Detection mask of `fault` over `block`, block `bi` of `stems`:
    /// `excited & local & model_mask & obs(stem)`, where `obs(stem)` is
    /// the stem's saturating pass, run on `scratch` unless `stems`
    /// holds it.
    fn detect_mask(
        &self,
        fault: Self::Fault,
        block: &Self::Block,
        bi: usize,
        scratch: &mut FaultSimScratch<L>,
        stems: &ObsTable<L>,
    ) -> PatternWords<L> {
        let (stuck_at, mask, gb) = self.kernel_args(fault, block);
        let graph = self.graph();
        let (stem, pre) = gb.to_stem(graph, stuck_at, mask);
        if pre.is_zero() {
            return PatternWords::ZERO;
        }
        let obs = stems.get(bi, stem, |members, grouped| {
            scratch.group_pass::<DETECT_LANES, true, _>(graph, members, grouped, gb, |_, _, _, d| d)
        });
        pre & *obs
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
    ) -> (StuckAtFault, PatternWords<L>, &'b GoodBlock<L>) {
        (fault, block.block.mask(), block)
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
    mut mask_of: impl FnMut(F, usize, &B) -> PatternWords<L>,
) -> Vec<Option<usize>> {
    faults
        .iter()
        .map(|&fault| {
            let mut first: Option<usize> = None;
            for (bi, block) in blocks.iter().enumerate() {
                if first.is_some() && drop_detected {
                    break;
                }
                let mask = mask_of(fault, bi, block);
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
/// worker and one shared [`StemTable`], run the first-detection loop on
/// each chunk between `admit` (which may stop the run) and `finished`,
/// and merge in chunk order. Every fault visits every block without
/// dropping, and block 0 with it, so those blocks run grouped stem
/// passes; a dropping run's later blocks run one stem per pass, since
/// most of their stems may never be asked for.
pub(crate) fn detect<M: FaultModel<L>, E: Send, const L: usize>(
    model: &M,
    faults: &[M::Fault],
    patterns: &[M::Pattern],
    drop_detected: bool,
    (workers, chunk): (usize, usize),
    admit: &(impl Fn() -> Result<(), E> + Sync),
    finished: &(impl Fn() + Sync),
) -> Result<(FaultSimReport, StealStats, KernelWork), E> {
    let blocks: Vec<M::Block> = patterns
        .chunks(PatternBlock::<L>::CAPACITY)
        .map(|p| model.block(p))
        .collect();
    let grouped = if drop_detected { 1 } else { blocks.len() };
    let stems = StemTable::new(model.graph(), blocks.len(), grouped);
    let (chunks, stats) = fan_out(
        faults.len(),
        workers,
        chunk,
        |_| FaultSimScratch::for_graph(model.graph()),
        |scratch, range| {
            admit()?;
            let firsts = first_detections(&faults[range], &blocks, drop_detected, |f, bi, b| {
                model.detect_mask(f, b, bi, scratch, &stems)
            });
            finished();
            Ok((firsts, scratch.take_work()))
        },
    )?;
    let mut work = KernelWork::default();
    let mut firsts = Vec::with_capacity(faults.len());
    for (chunk_firsts, chunk_work) in chunks {
        firsts.extend(chunk_firsts);
        work += chunk_work;
    }
    Ok((report_from(firsts, patterns.len()), stats, work))
}

/// The capture driver of both fault models: [`detect`]'s prepare and
/// fan-out around the one signature-row loop. Every block runs grouped
/// stem passes (capture never drops a fault), and the matrix is
/// allocated once: each chunk writes its own rows in place.
pub(crate) fn capture<M: FaultModel<L>, E: Send, const L: usize>(
    model: &M,
    faults: &[M::Fault],
    patterns: &[M::Pattern],
    (workers, chunk): (usize, usize),
    admit: &(impl Fn() -> Result<(), E> + Sync),
    finished: &(impl Fn() + Sync),
) -> Result<(SignatureMatrix, StealStats, KernelWork), E> {
    let blocks: Vec<M::Block> = patterns
        .chunks(PatternBlock::<L>::CAPACITY)
        .map(|p| model.block(p))
        .collect();
    let graph = model.graph();
    let outputs = model.circuit().primary_outputs();
    let words_per_row = (patterns.len() * outputs.len()).div_ceil(64);
    let stems = StemTable::new(graph, blocks.len(), blocks.len());
    // The chunk size `fan_out` will use, so chunk `i` owns rows
    // `i * chunk..`; without patterns there are no rows to own.
    let chunk = chunk.clamp(1, faults.len().max(1));
    let mut bits = vec![0u64; faults.len() * words_per_row];
    let rows: Vec<Mutex<&mut [u64]>> = bits
        .chunks_mut((chunk * words_per_row).max(1))
        .map(Mutex::new)
        .collect();
    let (chunks, stats) = fan_out(
        faults.len(),
        workers,
        chunk,
        |_| FaultSimScratch::for_graph(graph),
        |scratch, range| {
            admit()?;
            if let Some(rows) = rows.get(range.start / chunk) {
                let mut rows = rows.lock().unwrap_or_else(PoisonError::into_inner);
                let rows = rows.chunks_exact_mut(words_per_row);
                for (&fault, row) in faults[range].iter().zip(rows) {
                    signature_row(model, graph, outputs, &blocks, &stems, scratch, fault, row);
                }
            }
            finished();
            Ok(scratch.take_work())
        },
    )?;
    drop(rows);
    let mut work = KernelWork::default();
    for chunk_work in chunks {
        work += chunk_work;
    }
    let matrix = SignatureMatrix {
        n_faults: faults.len(),
        n_patterns: patterns.len(),
        n_outputs: outputs.len(),
        words_per_row,
        bits,
    };
    Ok((matrix, stats, work))
}

/// The one signature-row loop: set bit `pattern * outputs + output` of
/// `row` wherever `fault`'s response differs from the good machine,
/// i.e. where its flip reaches its stem and the stem's flip reaches
/// that output.
#[allow(clippy::too_many_arguments)]
fn signature_row<M: FaultModel<L>, const L: usize>(
    model: &M,
    graph: &SimGraph,
    outputs: &[SignalId],
    blocks: &[M::Block],
    stems: &DiffTable<L>,
    scratch: &mut FaultSimScratch<L>,
    fault: M::Fault,
    row: &mut [u64],
) {
    for (bi, block) in blocks.iter().enumerate() {
        let (stuck_at, mask, gb) = model.kernel_args(fault, block);
        let (stem, pre) = gb.to_stem(graph, stuck_at, mask);
        if pre.is_zero() {
            continue;
        }
        let diffs = stems.get(bi, stem, |members, grouped| {
            let read = |s: &FaultSimScratch<L>, k, lanes, _| s.lane_diffs(k, lanes, outputs, gb);
            scratch.group_pass::<CAPTURE_LANES, false, _>(graph, members, grouped, gb, read)
        });
        for &(o, diff) in diffs.iter() {
            for k in (diff & pre).set_bits() {
                let p = bi * PatternBlock::<L>::CAPACITY + k;
                let bit = p * outputs.len() + o as usize;
                row[bit / 64] |= 1u64 << (bit % 64);
            }
        }
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

/// The lane widths the `*_lanes` forms can dispatch to.
pub const SUPPORTED_LANES: [usize; 4] = [1, 2, 4, 8];

/// The lane width of the default entry points and the job path: always
/// 1, the 64-wide kernel. Every width reports bit-identically, so a
/// caller that wants wider blocks passes one to a `*_lanes` form.
#[must_use]
pub fn configured_lanes() -> usize {
    1
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
/// good-simulated once, before the fan-out. Runs at L = 1
/// ([`configured_lanes`]) and reports bit-identically to
/// [`simulate_faults`].
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
    let run = detect::<_, _, 1>(
        &model,
        faults,
        patterns,
        drop_detected,
        (threads, JOB_CHUNK),
        &admit,
        &finished,
    );
    Ok(run?.0)
}

/// 64-way bit-parallel fault simulation on the retained **full-pass**
/// inner loop: every gate in the circuit is re-evaluated for every fault ×
/// block, with no event scheduling.
///
/// This is the baseline of the ≥ 5× event-kernel gate in
/// `cargo test --release --test perf_gates -- --ignored` and the oracle
/// the property suites pit the event-driven engines against; it reports
/// bit-identically to [`simulate_faults`].
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
    let firsts = first_detections(faults, &blocks, drop_detected, |fault, _, b| {
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
    let (report, stats, _) = run.unwrap_or_else(|e: Infallible| match e {});
    (report, stats)
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
/// fanout-free-region kernel with one shared scratch, so a replayed
/// pattern costs one good-machine pass, a short path walk per live fault
/// and at most one stem pass per stem they drain into.
#[must_use]
pub fn compact_reverse(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    patterns: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let graph = SimGraph::build(circuit);
    let mut scratch = FaultSimScratch::for_graph(&graph);
    let mut stems = ObsTable::new(&graph, 1, 0);
    let model = StuckAt::new(circuit, &graph);
    compact(&model, faults, patterns, &mut scratch, &mut stems)
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
    stems: &mut ObsTable<1>,
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
        stems.clear();
        let before = live.len();
        live.retain(|f| model.detect_mask(*f, &block, 0, scratch, stems).is_zero());
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
/// prepare-once contract. Runs at L = 1 ([`configured_lanes`]); the
/// matrix is bit-identical to [`capture_signatures`].
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
    let run = capture::<_, _, 1>(
        &model,
        faults,
        patterns,
        (threads, JOB_CHUNK),
        &admit,
        &finished,
    );
    Ok(run?.0)
}

/// Signature capture on the bit-parallel engine: the full per-fault ×
/// per-pattern × per-PO response matrix of `faults` against `patterns`,
/// at the default lane width, [`configured_lanes`].
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
            let patterns = seeded_patterns(c.primary_inputs().len(), n_patterns, 17);
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

    include!("../tests/common/mod.rs");

    #[test]
    fn stem_kernel_matches_the_full_pass_on_every_region_shape() {
        let c = ffr_zoo();
        let graph = SimGraph::build(&c);
        let dead = (0..c.signal_count()).filter(|&s| graph.po_reach(SignalId(s)) == 0);
        assert_eq!(dead.count(), 2, "the zoo keeps its dead cone");
        let faults = enumerate_stuck_at(&c);
        // 70 patterns span two L = 1 blocks and part of one L = 4 block.
        let patterns = seeded_patterns(c.primary_inputs().len(), 70, 0x5EED);
        for drop in [false, true] {
            let oracle = simulate_faults_full_pass(&c, &faults, &patterns, drop);
            assert!(!oracle.detected.is_empty() && !oracle.undetected.is_empty());
            for lanes in [1, 4] {
                let event = simulate_faults_lanes(&c, &faults, &patterns, drop, lanes);
                let threaded =
                    simulate_faults_threaded_lanes(&c, &faults, &patterns, drop, 3, lanes);
                assert_eq!(event, oracle, "L = {lanes}, drop = {drop}");
                assert_eq!(threaded, oracle, "threaded, L = {lanes}, drop = {drop}");
            }
        }
        // Every signature bit against one whole-circuit faulty pass per
        // fault over all 70 patterns.
        let sig = capture_signatures_lanes(&c, &faults, &patterns, 1);
        let block: PatternBlock<2> = PatternBlock::pack(&c, &patterns);
        let good = good_sim(&c, &block);
        for (fi, &fault) in faults.iter().enumerate() {
            let faulty = faulty_sim(&c, fault, &block);
            for (o, po) in c.primary_outputs().iter().enumerate() {
                let diff = good[po.0] ^ faulty[po.0];
                for p in 0..patterns.len() {
                    assert_eq!(
                        sig.fails(fi, p, o),
                        diff.get_bit(p),
                        "{} at pattern {p}, PO {o}",
                        fault.describe(&c)
                    );
                }
            }
        }
        for lanes in [1, 4] {
            let threaded = capture_signatures_threaded_lanes(&c, &faults, &patterns, 3, lanes);
            assert_eq!(capture_signatures_lanes(&c, &faults, &patterns, lanes), sig);
            assert_eq!(threaded, sig, "threaded capture at L = {lanes}");
        }
    }

    #[test]
    fn stem_kernel_matches_the_transition_oracle_on_every_region_shape() {
        use crate::sof::CircuitTwoPattern;
        use crate::transition::{
            enumerate_transition, simulate_transition_threaded_lanes, transition_oracle,
        };
        let c = ffr_zoo();
        let faults = enumerate_transition(&c);
        let n_pi = c.primary_inputs().len();
        let pairs: Vec<CircuitTwoPattern> = seeded_patterns(n_pi, 40, 3)
            .into_iter()
            .zip(seeded_patterns(n_pi, 40, 4))
            .map(|(init, eval)| CircuitTwoPattern { init, eval })
            .collect();
        let oracle = transition_oracle(&c, &faults, &pairs);
        assert!(!oracle.detected.is_empty() && !oracle.undetected.is_empty());
        for lanes in [1, 4] {
            for drop in [false, true] {
                assert_eq!(
                    simulate_transition_threaded_lanes(&c, &faults, &pairs, drop, 3, lanes),
                    oracle,
                    "L = {lanes}, drop = {drop}"
                );
            }
        }
    }

    #[test]
    fn threaded_engine_handles_edge_worker_counts() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(5, 16, 9);
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
        let patterns = seeded_patterns(5, 16, 9);
        let (r, stats) =
            simulate_faults_threaded_stats(&c, &faults, &patterns, true, usize::MAX, 1);
        assert_eq!(r, simulate_faults(&c, &faults, &patterns, true));
        assert!(stats.workers <= faults.len());
    }

    #[test]
    fn fault_dropping_does_not_change_coverage() {
        let c = Circuit::parity_tree(6);
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(c.primary_inputs().len(), 64, 7);
        let with_drop = simulate_faults(&c, &faults, &patterns, true);
        let without = simulate_faults(&c, &faults, &patterns, false);
        assert_eq!(with_drop.detected.len(), without.detected.len());
        assert_eq!(with_drop.first_detections, without.first_detections);
    }

    #[test]
    fn compaction_preserves_coverage() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = seeded_patterns(5, 40, 3);
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
            let patterns = seeded_patterns(n_pi, 70, 5);
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
        let patterns = seeded_patterns(c.primary_inputs().len(), 100, 42);
        let sig = capture_signatures(&c, &faults, &patterns);
        let report = simulate_faults(&c, &faults, &patterns, false);
        for (fi, fault) in faults.iter().enumerate() {
            assert_eq!(
                sig.is_detected(fi),
                report.detected.contains(&fi),
                "{}",
                fault.describe(&c)
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
        let patterns = seeded_patterns(5, 8, 1);
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
        let patterns = seeded_patterns(c.primary_inputs().len(), 200, 11);
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
        let patterns = seeded_patterns(c.primary_inputs().len(), 96, 23);
        for drop_detected in [false, true] {
            let serial = simulate_faults_lanes(&c, &faults, &patterns, drop_detected, 1);
            let (steal, stats) =
                simulate_faults_threaded_stats(&c, &faults, &patterns, drop_detected, 4, 1);
            assert_eq!(serial, steal, "drop = {drop_detected}");
            assert!(stats.chunks > 0 && stats.chunk_size > 0);
        }
    }

    /// Whether some window of `lanes` consecutive stems holds a member
    /// that another member drives directly, so one flip must reach a
    /// signal that carries a flip of its own.
    fn has_nested_group(graph: &SimGraph, lanes: usize) -> bool {
        (0..graph.stem_count()).any(|stem| {
            graph.consumers(graph.stem_signal(stem)).iter().any(|&g| {
                let out = graph.gate_output(GateId(g as usize));
                let t = graph.stem_of(out);
                graph.stem_signal(t) == out && t > stem && t - stem < lanes
            })
        })
    }

    /// One `K`-lane pass over every window of `K` consecutive stems
    /// (the last ones short) against one single-stem pass per member:
    /// the same per-output difference words and the same saturating
    /// detection masks, lane for lane.
    fn lanes_match_single_stem_passes<const K: usize>(c: &Circuit, patterns: &[Vec<bool>]) {
        let graph = SimGraph::build(c);
        let outputs = c.primary_outputs();
        let gb = GoodBlock::<1>::new(c, patterns);
        let mask = gb.block.mask();
        let mut wide = FaultSimScratch::<1>::for_graph(&graph);
        let mut one = FaultSimScratch::<1>::for_graph(&graph);
        let n = graph.stem_count();
        for first in 0..n {
            let members = first..(first + K).min(n);
            stem_pass::<1, K, false>(&graph, members.clone(), mask, &gb.good, &mut wide);
            let diffs: Vec<_> = (0..members.len())
                .map(|k| wide.lane_diffs(k, K, outputs, &gb))
                .collect();
            let detect =
                stem_pass::<1, K, true>(&graph, members.clone(), mask, &gb.good, &mut wide);
            for (k, stem) in members.enumerate() {
                stem_pass::<1, 1, false>(&graph, stem..stem + 1, mask, &gb.good, &mut one);
                assert_eq!(
                    diffs[k],
                    one.lane_diffs(0, 1, outputs, &gb),
                    "stem {stem} of {first}"
                );
                let [alone] =
                    stem_pass::<1, 1, true>(&graph, stem..stem + 1, mask, &gb.good, &mut one);
                assert_eq!(detect[k], alone, "stem {stem} of {first}, K = {K}");
            }
        }
    }

    #[test]
    fn stem_lane_passes_match_single_stem_passes() {
        use sinw_switch::generate::array_multiplier;
        for c in [ffr_zoo(), array_multiplier(6), Circuit::ripple_adder(4)] {
            let graph = SimGraph::build(&c);
            assert!(
                has_nested_group(&graph, 2),
                "a member inside another's cone"
            );
            let patterns = seeded_patterns(c.primary_inputs().len(), 50, 31);
            lanes_match_single_stem_passes::<2>(&c, &patterns);
            lanes_match_single_stem_passes::<DETECT_LANES>(&c, &patterns);
            lanes_match_single_stem_passes::<CAPTURE_LANES>(&c, &patterns);
        }
    }

    /// The kernel's work counters as a host-independent record of the
    /// stem lanes: capture runs one pass per group of `CAPTURE_LANES`
    /// stems per block, with fewer gate evaluations than one stem per
    /// pass, and a run does the same work on one worker as on several.
    #[test]
    fn stem_lanes_cut_kernel_work_on_any_worker_count() {
        use crate::collapse::collapse;
        use sinw_switch::generate::array_multiplier;
        let c = array_multiplier(8);
        let graph = SimGraph::build(&c);
        let faults = collapse(&c, &enumerate_stuck_at(&c)).representatives;
        let patterns = seeded_patterns(c.primary_inputs().len(), 100, 8);
        let model = StuckAt::new(&c, &graph);
        let never = || Ok::<(), Infallible>(());
        let (sig, _, work) =
            capture::<_, _, 1>(&model, &faults, &patterns, ONE_WORKER, &never, &|| {})
                .unwrap_or_else(|e| match e {});
        let blocks = patterns.len().div_ceil(64);
        let groups = graph.stem_count().div_ceil(CAPTURE_LANES);
        assert_eq!(work.passes, (blocks * groups) as u64);

        // The same rows from one stem per pass, through the same row loop.
        let gbs: Vec<GoodBlock<1>> = patterns.chunks(64).map(|p| model.block(p)).collect();
        let single = DiffTable::new(&graph, blocks, 0);
        let mut scratch = FaultSimScratch::for_graph(&graph);
        let mut row = vec![0u64; sig.words_per_row()];
        for (fi, &fault) in faults.iter().enumerate() {
            row.fill(0);
            let outputs = c.primary_outputs();
            signature_row(
                &model,
                &graph,
                outputs,
                &gbs,
                &single,
                &mut scratch,
                fault,
                &mut row,
            );
            assert_eq!(row, sig.row(fi), "{}", fault.describe(&c));
        }
        let alone = scratch.take_work();
        assert!(
            alone.passes > work.passes && alone.evals > work.evals,
            "{alone:?} vs {work:?}"
        );

        for threads in [2, 3] {
            let fan = stealing(threads, faults.len());
            let (threaded, _, w) =
                capture::<_, _, 1>(&model, &faults, &patterns, fan, &never, &|| {})
                    .unwrap_or_else(|e| match e {});
            assert_eq!(threaded, sig);
            assert_eq!(w, work, "capture on {threads} workers");
            for drop in [false, true] {
                let run = |fan| {
                    detect::<_, _, 1>(&model, &faults, &patterns, drop, fan, &never, &|| {})
                        .unwrap_or_else(|e| match e {})
                };
                let (report, _, one) = run(ONE_WORKER);
                let (threaded, _, many) = run(fan);
                assert_eq!(threaded, report);
                assert_eq!(many, one, "detection on {threads} workers, drop = {drop}");
            }
        }
    }
}
