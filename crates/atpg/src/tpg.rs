//! The ATPG campaign loop: the engine that actually *produces* a compact,
//! verified test set instead of simulating one supplied from outside.
//!
//! [`AtpgEngine`] runs three phases over a (usually collapsed) stuck-at
//! fault list, all on the same event-driven PPSFP kernel and shared
//! [`SimGraph`] precompute the `faultsim` engines use:
//!
//! 1. **Random phase** — 64-wide [`PatternBlock`]s of seeded random
//!    patterns, fault-dropping after each block; only patterns that earn
//!    first-detection credit are kept. The phase stops when
//!    [`AtpgConfig::random_window`] consecutive blocks detect nothing
//!    new (or at [`AtpgConfig::max_random_blocks`], or when every fault
//!    is dropped).
//! 2. **Deterministic phase** — PODEM per remaining fault. Each
//!    generated test cube is filled and fault-simulated against *all*
//!    remaining faults (again with dropping), so one PODEM call
//!    typically kills many faults; `Untestable` and `Aborted` verdicts
//!    are recorded instead of silently lowering coverage.
//! 3. **Compaction** — static don't-care-aware merging of the PODEM
//!    cubes ([`merge_cubes`]), a verification fault simulation of the
//!    assembled set (any fault whose collateral detection did not
//!    survive the merge/refill gets a top-up PODEM call), then
//!    reverse-order compaction: replay the set backwards with dropping
//!    and keep only patterns that detect something new. Reverse-order
//!    compaction preserves the detected-fault set exactly — the test
//!    suites re-verify the final patterns with an independent
//!    `simulate_faults` pass.
//!
//! The [`AtpgReport`] carries the final pattern set, per-fault statuses,
//! detected/untestable/aborted counts, coverage accessors, and per-phase
//! wall times. `sinw-core::experiments::atpg_campaign` drives this over
//! the whole benchmark suite; `cargo bench --bench atpg_scaling` runs
//! the random-only-vs-full-campaign ablation.

use crate::collapse::{collapse, CollapsedFaults};
use crate::fault_list::{enumerate_stuck_at, StuckAtFault};
use crate::faultsim::{
    compact, event_detect_mask, good_sim_into, simulate_faults_with_graph_lanes, FaultSimScratch,
    PatternBlock, PatternWords, SplitMix64, StuckAt,
};
use crate::graph::SimGraph;
use crate::podem::{generate_test, PodemConfig, PodemResult};
use crate::redundancy::RedundancyProver;
use sinw_switch::gate::Circuit;
use std::time::Instant;

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct AtpgConfig {
    /// Seed of the deterministic random-pattern stream (and of the
    /// don't-care fill bits). Same seed ⇒ same report, bit for bit.
    pub seed: u64,
    /// Stop the random phase after this many consecutive 64-pattern
    /// blocks that detect nothing new.
    pub random_window: usize,
    /// Hard cap on the number of 64-pattern random blocks applied
    /// (0 skips the random phase entirely).
    pub max_random_blocks: usize,
    /// PODEM settings (backtrack limit) for the deterministic phase.
    pub podem: PodemConfig,
    /// Run the deterministic PODEM phase (disable for the random-only
    /// ablation baseline of `atpg_scaling`).
    pub deterministic: bool,
    /// Run static cube merging + reverse-order compaction.
    pub compact: bool,
    /// Support budget (PIs) of the static redundancy prover that screens
    /// deterministic targets before PODEM — structurally redundant
    /// faults (e.g. the carry-select mux select-pin faults PODEM cannot
    /// refute in bounded backtracks) are classified `Untestable` without
    /// burning a backtrack budget. 0 disables the prover.
    pub redundancy_budget: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0x0A7B_6C5D_4E3F_2011,
            random_window: 3,
            max_random_blocks: 64,
            podem: PodemConfig::default(),
            deterministic: true,
            compact: true,
            redundancy_budget: RedundancyProver::DEFAULT_BUDGET,
        }
    }
}

impl AtpgConfig {
    /// The random-only ablation baseline: same random phase, no PODEM,
    /// same compaction.
    #[must_use]
    pub fn random_only(self) -> Self {
        AtpgConfig {
            deterministic: false,
            ..self
        }
    }
}

/// Final classification of one targeted fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Never detected and never classified (only possible when the
    /// deterministic phase is disabled).
    Undetected,
    /// First detected by a random-phase pattern.
    DetectedRandom,
    /// First detected by a deterministic-phase (PODEM) pattern.
    DetectedDeterministic,
    /// PODEM proved the fault redundant.
    Untestable,
    /// PODEM hit its backtrack limit.
    Aborted,
}

impl FaultStatus {
    /// Whether the fault ended up detected by the final pattern set.
    #[must_use]
    pub fn is_detected(self) -> bool {
        matches!(
            self,
            FaultStatus::DetectedRandom | FaultStatus::DetectedDeterministic
        )
    }
}

/// Outcome of a full campaign run.
#[derive(Debug, Clone)]
pub struct AtpgReport {
    /// The final (compacted, fully specified) pattern set.
    pub patterns: Vec<Vec<bool>>,
    /// Size of the targeted fault list.
    pub total_faults: usize,
    /// Faults first detected in the random phase.
    pub detected_random: usize,
    /// Faults first detected by a deterministic-phase pattern.
    pub detected_deterministic: usize,
    /// Faults PODEM proved redundant.
    pub untestable: usize,
    /// Faults abandoned at the backtrack limit.
    pub aborted: usize,
    /// Total PODEM invocations (strictly below `total_faults` whenever
    /// random detection + collateral dropping did any work).
    pub podem_calls: usize,
    /// Random patterns applied (kept or not).
    pub random_patterns_applied: usize,
    /// Random patterns that earned first-detection credit and were kept.
    pub random_patterns_kept: usize,
    /// Pattern-set size entering reverse-order compaction.
    pub patterns_before_compaction: usize,
    /// Wall time of the random phase, milliseconds.
    pub random_ms: f64,
    /// Wall time of the deterministic phase, milliseconds.
    pub deterministic_ms: f64,
    /// Wall time of merging + verification + reverse compaction,
    /// milliseconds.
    pub compaction_ms: f64,
    /// Per-fault classification, parallel to the input fault list.
    pub statuses: Vec<FaultStatus>,
}

impl AtpgReport {
    /// Detected faults (random + deterministic).
    #[must_use]
    pub fn detected(&self) -> usize {
        self.detected_random + self.detected_deterministic
    }

    /// Fault coverage over the whole targeted list, in [0, 1].
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            return 1.0;
        }
        self.detected() as f64 / self.total_faults as f64
    }

    /// Coverage over the *testable* faults (untestable ones excluded) —
    /// the ATPG-effectiveness number; 1.0 means every fault is either
    /// detected or provably redundant (aborts show up as a deficit).
    #[must_use]
    pub fn testable_coverage(&self) -> f64 {
        let testable = self.total_faults - self.untestable;
        if testable == 0 {
            return 1.0;
        }
        self.detected() as f64 / testable as f64
    }
}

/// Greedy static compaction of partially specified test cubes: each cube
/// merges into the first accumulated cube it is compatible with (no PI
/// specified to different values in both); the merge is the union of the
/// specified entries. Every completion of a merged cube still detects
/// the targets of all its constituents — PODEM cubes detect under any
/// fill — which is what makes the merge sound.
#[must_use]
pub fn merge_cubes(cubes: &[Vec<Option<bool>>]) -> Vec<Vec<Option<bool>>> {
    let compatible = |a: &[Option<bool>], b: &[Option<bool>]| {
        a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Some(p), Some(q)) => p == q,
            _ => true,
        })
    };
    let mut merged: Vec<Vec<Option<bool>>> = Vec::new();
    for cube in cubes {
        match merged.iter_mut().find(|m| compatible(m, cube)) {
            Some(m) => {
                for (slot, v) in m.iter_mut().zip(cube) {
                    if slot.is_none() {
                        *slot = *v;
                    }
                }
            }
            None => merged.push(cube.clone()),
        }
    }
    merged
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// The campaign engine: circuit + config + the [`SimGraph`] precompute
/// built once and shared by every phase.
#[derive(Debug)]
pub struct AtpgEngine<'a> {
    circuit: &'a Circuit,
    config: AtpgConfig,
    graph: SimGraph,
}

impl<'a> AtpgEngine<'a> {
    /// Build an engine for `circuit` (precomputes the [`SimGraph`]).
    #[must_use]
    pub fn new(circuit: &'a Circuit, config: AtpgConfig) -> Self {
        AtpgEngine {
            circuit,
            config,
            graph: SimGraph::build(circuit),
        }
    }

    /// Convenience for the common whole-circuit flow: enumerate the full
    /// stuck-at universe, collapse it, and run the campaign over the
    /// representatives.
    #[must_use]
    pub fn run_collapsed(
        circuit: &'a Circuit,
        config: AtpgConfig,
    ) -> (CollapsedFaults, AtpgReport) {
        let universe = enumerate_stuck_at(circuit);
        let collapsed = collapse(circuit, &universe);
        let engine = AtpgEngine::new(circuit, config);
        let report = engine.run(&collapsed.representatives);
        (collapsed, report)
    }

    /// Fill a cube's don't-cares from the campaign's random stream.
    fn fill(&self, cube: &[Option<bool>], rng: &mut SplitMix64) -> Vec<bool> {
        cube.iter()
            .map(|v| v.unwrap_or_else(|| rng.next_bool()))
            .collect()
    }

    /// Detection mask of `fault` over one packed block whose good-machine
    /// words are already in `good`.
    fn mask_of(
        &self,
        fault: StuckAtFault,
        block: &PatternBlock,
        good: &[PatternWords],
        scratch: &mut FaultSimScratch,
    ) -> PatternWords {
        event_detect_mask(&self.graph, fault, block.mask(), good, scratch)
    }

    /// Run the full campaign over `faults` (usually collapsed
    /// representatives; duplicates are simply detected together).
    #[must_use]
    pub fn run(&self, faults: &[StuckAtFault]) -> AtpgReport {
        let n_pi = self.circuit.primary_inputs().len();
        let mut statuses = vec![FaultStatus::Undetected; faults.len()];
        let mut scratch = FaultSimScratch::for_graph(&self.graph);
        let mut good = vec![PatternWords::ZERO; self.circuit.signal_count()];
        let mut rng = SplitMix64::new(self.config.seed);
        let mut podem_calls = 0usize;

        // ------------------------------------------------------------------
        // Phase 1 — random patterns with fault dropping.
        // ------------------------------------------------------------------
        let t0 = Instant::now();
        let mut kept: Vec<Vec<bool>> = Vec::new();
        let mut random_applied = 0usize;
        let mut alive = faults.len();
        let mut dry = 0usize;
        let mut blocks = 0usize;
        while n_pi > 0
            && alive > 0
            && blocks < self.config.max_random_blocks
            && dry < self.config.random_window
        {
            let patterns: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
                .collect();
            let block = PatternBlock::pack(self.circuit, &patterns);
            good_sim_into(self.circuit, &block, &mut good);
            let mut credited = 0u64;
            let mut detections = 0usize;
            for (fi, fault) in faults.iter().enumerate() {
                if statuses[fi] != FaultStatus::Undetected {
                    continue;
                }
                let mask = self.mask_of(*fault, &block, &good, &mut scratch);
                if mask.any() {
                    statuses[fi] = FaultStatus::DetectedRandom;
                    // First-detection credit goes to the earliest pattern.
                    let m = mask.lane(0);
                    credited |= m & m.wrapping_neg();
                    detections += 1;
                }
            }
            for (k, p) in patterns.iter().enumerate() {
                if credited & (1u64 << k) != 0 {
                    kept.push(p.clone());
                }
            }
            alive -= detections;
            dry = if detections == 0 { dry + 1 } else { 0 };
            random_applied += block.count;
            blocks += 1;
        }
        let random_ms = ms(t0);
        let random_patterns_kept = kept.len();

        // ------------------------------------------------------------------
        // Phase 2 — PODEM per remaining fault, with collateral dropping.
        // ------------------------------------------------------------------
        let t1 = Instant::now();
        // (cube, phase-2 fill) pairs: the cube feeds static merging, the
        // fill is what the collateral drops were simulated against.
        let mut cubes: Vec<(Vec<Option<bool>>, Vec<bool>)> = Vec::new();
        let mut prover: Option<RedundancyProver<'_>> = None;
        if self.config.deterministic {
            for fi in 0..faults.len() {
                if statuses[fi] != FaultStatus::Undetected {
                    continue;
                }
                // Static redundancy screen first: structurally redundant
                // faults (carry-select-style) would otherwise burn the
                // whole backtrack budget and still come back `Aborted`.
                if self.config.redundancy_budget > 0 {
                    let p = prover.get_or_insert_with(|| {
                        RedundancyProver::with_budget(self.circuit, self.config.redundancy_budget)
                    });
                    if p.prove_untestable(faults[fi]) {
                        statuses[fi] = FaultStatus::Untestable;
                        continue;
                    }
                }
                podem_calls += 1;
                match generate_test(self.circuit, faults[fi], &self.config.podem) {
                    PodemResult::Test(cube) => {
                        // Fill and fault-simulate the single pattern so the
                        // whole detected cohort drops before its own PODEM
                        // call. The filled pattern is kept alongside the
                        // cube: the drops stay valid verbatim unless static
                        // merging rewrites the fill (phase 3 re-verifies in
                        // that case).
                        let filled = self.fill(&cube, &mut rng);
                        let block = PatternBlock::pack(self.circuit, std::slice::from_ref(&filled));
                        good_sim_into(self.circuit, &block, &mut good);
                        for (fj, fault) in faults.iter().enumerate() {
                            if statuses[fj] == FaultStatus::Undetected
                                && self.mask_of(*fault, &block, &good, &mut scratch).any()
                            {
                                statuses[fj] = FaultStatus::DetectedDeterministic;
                            }
                        }
                        debug_assert_eq!(
                            statuses[fi],
                            FaultStatus::DetectedDeterministic,
                            "a PODEM pattern must detect its own target ({})",
                            faults[fi].describe(self.circuit)
                        );
                        cubes.push((cube, filled));
                    }
                    PodemResult::Untestable => statuses[fi] = FaultStatus::Untestable,
                    PodemResult::Aborted => statuses[fi] = FaultStatus::Aborted,
                }
            }
        }
        let deterministic_ms = ms(t1);

        // ------------------------------------------------------------------
        // Phase 3 — static merge, verification (+ top-up), reverse-order
        // compaction.
        // ------------------------------------------------------------------
        let t2 = Instant::now();
        let mut patterns = kept;
        if self.config.compact {
            let merged = merge_cubes(&cubes.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>());
            patterns.extend(merged.iter().map(|c| self.fill(c, &mut rng)));
        } else {
            // No merging: the phase-2 fills are the patterns, so every
            // collateral drop simulated there stays valid verbatim.
            patterns.extend(cubes.iter().map(|(_, filled)| filled.clone()));
        }

        if self.config.deterministic && self.config.compact {
            // Every specified cube still detects its own target after the
            // merge, but *collaterally* dropped faults were credited to one
            // particular fill that merging may have rewritten. Re-simulate
            // the assembled set and top up any fault that slipped through.
            let report = simulate_faults_with_graph_lanes(
                self.circuit,
                &self.graph,
                faults,
                &patterns,
                true,
                1,
            );
            let mut det = vec![false; faults.len()];
            for fi in report.detected {
                det[fi] = true;
            }
            for fi in 0..faults.len() {
                if det[fi] || !statuses[fi].is_detected() {
                    continue;
                }
                podem_calls += 1;
                match generate_test(self.circuit, faults[fi], &self.config.podem) {
                    PodemResult::Test(cube) => {
                        let filled = self.fill(&cube, &mut rng);
                        let block = PatternBlock::pack(self.circuit, std::slice::from_ref(&filled));
                        good_sim_into(self.circuit, &block, &mut good);
                        for (fj, fault) in faults.iter().enumerate() {
                            if !det[fj] && self.mask_of(*fault, &block, &good, &mut scratch).any() {
                                det[fj] = true;
                            }
                        }
                        statuses[fi] = FaultStatus::DetectedDeterministic;
                        patterns.push(filled);
                    }
                    PodemResult::Untestable => statuses[fi] = FaultStatus::Untestable,
                    PodemResult::Aborted => statuses[fi] = FaultStatus::Aborted,
                }
            }
        }
        let patterns_before_compaction = patterns.len();

        if self.config.compact && !patterns.is_empty() {
            // Reverse-order compaction on the event kernel: replay the set
            // backwards with dropping, keep only patterns that detect a new
            // fault. The detected set is preserved exactly: every detected
            // fault is caught by the *last* pattern in the final set that
            // detects it.
            let live: Vec<StuckAtFault> = faults
                .iter()
                .zip(&statuses)
                .filter(|(_, s)| s.is_detected())
                .map(|(f, _)| *f)
                .collect();
            let model = StuckAt::new(self.circuit, &self.graph);
            patterns = compact(&model, &live, &patterns, &mut scratch);
        }
        let compaction_ms = ms(t2);

        let count = |s: FaultStatus| statuses.iter().filter(|x| **x == s).count();
        AtpgReport {
            patterns,
            total_faults: faults.len(),
            detected_random: count(FaultStatus::DetectedRandom),
            detected_deterministic: count(FaultStatus::DetectedDeterministic),
            untestable: count(FaultStatus::Untestable),
            aborted: count(FaultStatus::Aborted),
            podem_calls,
            random_patterns_applied: random_applied,
            random_patterns_kept,
            patterns_before_compaction,
            random_ms,
            deterministic_ms,
            compaction_ms,
            statuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::FaultSite;
    use crate::faultsim::simulate_faults;
    use sinw_switch::cells::CellKind;
    use sinw_switch::gate::{GateId, SignalId};

    #[test]
    fn c17_campaign_covers_everything() {
        let c = Circuit::c17();
        let (collapsed, report) = AtpgEngine::run_collapsed(&c, AtpgConfig::default());
        assert_eq!(report.total_faults, collapsed.representatives.len());
        assert_eq!(report.untestable, 0, "c17 has no redundant faults");
        assert_eq!(report.aborted, 0);
        assert_eq!(report.testable_coverage(), 1.0);
        assert!(
            report.podem_calls < report.total_faults,
            "random phase + dropping must shrink the deterministic phase"
        );
        // Independent verification on the engines' public entry point.
        let check = simulate_faults(&c, &collapsed.representatives, &report.patterns, true);
        assert_eq!(check.detected.len(), report.detected());
        assert!(report.patterns.len() <= report.patterns_before_compaction);
    }

    #[test]
    fn pure_deterministic_campaign_still_drops_collaterally() {
        let c = Circuit::c17();
        let config = AtpgConfig {
            max_random_blocks: 0,
            ..AtpgConfig::default()
        };
        let (collapsed, report) = AtpgEngine::run_collapsed(&c, config);
        assert_eq!(report.detected_random, 0);
        assert_eq!(report.random_patterns_applied, 0);
        // Even without the random phase, fault-simulating each PODEM
        // pattern drops whole cohorts, so strictly fewer calls than faults.
        assert!(report.podem_calls > 0);
        assert!(report.podem_calls < collapsed.representatives.len());
        assert_eq!(report.testable_coverage(), 1.0);
    }

    #[test]
    fn random_only_campaign_never_classifies() {
        let c = Circuit::parity_tree(6);
        let (collapsed, report) =
            AtpgEngine::run_collapsed(&c, AtpgConfig::default().random_only());
        assert_eq!(report.podem_calls, 0);
        assert_eq!(report.untestable + report.aborted, 0);
        assert_eq!(report.detected_deterministic, 0);
        assert!(report.detected_random > 0);
        let check = simulate_faults(&c, &collapsed.representatives, &report.patterns, true);
        assert_eq!(check.detected.len(), report.detected());
    }

    #[test]
    fn untestable_faults_are_classified_not_counted_against_coverage() {
        // NAND(a, a): the pin-0 s-a-1 branch fault is classically
        // redundant (see podem.rs::detects_redundant_fault).
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let o = c.add_gate(CellKind::Nand2, "g", &[a, a]);
        c.mark_output(o);
        let faults = vec![
            StuckAtFault::sa1(FaultSite::GatePin(GateId(0), 0)),
            StuckAtFault::sa0(FaultSite::Signal(SignalId(0))),
            StuckAtFault::sa1(FaultSite::Signal(o)),
        ];
        let engine = AtpgEngine::new(&c, AtpgConfig::default());
        let report = engine.run(&faults);
        assert_eq!(report.untestable, 1);
        assert_eq!(report.statuses[0], FaultStatus::Untestable);
        assert_eq!(report.testable_coverage(), 1.0);
        assert!(report.coverage() < 1.0);
    }

    #[test]
    fn merge_cubes_unions_compatible_and_separates_conflicts() {
        let cubes = vec![
            vec![Some(true), None, None],
            vec![None, Some(false), None],       // compatible with #0
            vec![Some(false), None, Some(true)], // conflicts on PI 0
        ];
        let merged = merge_cubes(&cubes);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], vec![Some(true), Some(false), None]);
        assert_eq!(merged[1], vec![Some(false), None, Some(true)]);
    }

    #[test]
    fn empty_fault_list_yields_empty_report() {
        let c = Circuit::c17();
        let engine = AtpgEngine::new(&c, AtpgConfig::default());
        let report = engine.run(&[]);
        assert!(report.patterns.is_empty());
        assert_eq!(report.coverage(), 1.0);
        assert_eq!(report.testable_coverage(), 1.0);
        assert_eq!(report.podem_calls, 0);
    }

    #[test]
    fn same_seed_reproduces_the_report() {
        let c = Circuit::ripple_adder(3);
        let (_, a) = AtpgEngine::run_collapsed(&c, AtpgConfig::default());
        let (_, b) = AtpgEngine::run_collapsed(&c, AtpgConfig::default());
        assert_eq!(a.patterns, b.patterns);
        assert_eq!(a.podem_calls, b.podem_calls);
        assert_eq!(a.statuses, b.statuses);
    }
}
