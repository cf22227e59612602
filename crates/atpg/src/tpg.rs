//! The ATPG campaign loop: the engine that actually *produces* a compact,
//! verified test set instead of simulating one supplied from outside.
//!
//! One crate-private driver, `Campaign`, runs the campaign of both
//! fault models on the event-driven PPSFP kernel through the shared
//! `FaultModel` trait: [`AtpgEngine`] here for stuck-at faults and
//! [`TransitionAtpg`](crate::transition::TransitionAtpg) for
//! launch-on-capture transition faults. It owns three phases:
//!
//! 1. **Random phase** — 64-pattern blocks fault-simulated with
//!    dropping; only patterns that earn first-detection credit are kept.
//!    The phase stops when [`AtpgConfig::random_window`] consecutive
//!    blocks detect nothing new (or at [`AtpgConfig::max_random_blocks`],
//!    or when every fault is dropped).
//! 2. **Deterministic phase** — PODEM per remaining fault. Each test
//!    cube is filled from the campaign's random stream and
//!    fault-simulated against *all* remaining faults, so one PODEM call
//!    typically kills many faults; `Untestable` and `Aborted` verdicts
//!    are recorded instead of silently lowering coverage.
//! 3. **Compaction** — reverse-order replay of the set with dropping,
//!    keeping only patterns that detect something new. It preserves the
//!    detected-fault set exactly; the test suites re-verify the final
//!    patterns with an independent simulation.
//!
//! Each engine supplies only what differs: how a random block is drawn
//! and how a PODEM cube becomes a pattern. The stuck-at engine also
//! screens each target with the static [`RedundancyProver`] before
//! PODEM, and between phases 2 and 3 merges compatible cubes
//! ([`merge_cubes`]), re-simulates the assembled set and re-targets with
//! top-up PODEM calls every fault whose collateral detection did not
//! survive the merge and refill.
//!
//! The [`AtpgReport`] carries the final pattern set, per-fault statuses,
//! detected/untestable/aborted counts, coverage accessors, and per-phase
//! wall times. `sinw-core::experiments::atpg_campaign` drives this over
//! the whole benchmark suite; the `campaign_golden` tests pin the
//! random-only and full campaigns side by side (on `csa8_4` only the
//! full campaign closes, by proving the mux redundancy), and perfbench's
//! `atpg.*` rows time the campaign.

use crate::collapse::{collapse, CollapsedFaults};
use crate::fault_list::{enumerate_stuck_at, StuckAtFault};
use crate::faultsim::{
    compact, simulate_faults_with_graph_lanes, FaultModel, FaultSimScratch, SplitMix64, StuckAt,
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
    /// baseline, see [`AtpgConfig::random_only`]).
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
    /// The random-only baseline: same random phase, no PODEM, same
    /// compaction. `campaign_golden` pins it next to the full campaign.
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
        coverage(self.detected(), self.total_faults)
    }

    /// Coverage over the *testable* faults (untestable ones excluded) —
    /// the ATPG-effectiveness number; 1.0 means every fault is either
    /// detected or provably redundant (aborts show up as a deficit).
    #[must_use]
    pub fn testable_coverage(&self) -> f64 {
        coverage(self.detected(), self.total_faults - self.untestable)
    }
}

/// `detected / total`, or 1.0 for an empty list: the coverage accessors
/// of both campaign reports.
pub(crate) fn coverage(detected: usize, total: usize) -> f64 {
    if total == 0 {
        return 1.0;
    }
    detected as f64 / total as f64
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

pub(crate) fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Patterns per random-phase block.
const RANDOM_BLOCK: usize = 64;

/// The campaign driver of both fault models: per-fault statuses, the
/// campaign's random stream (random blocks and don't-care fills), one
/// scratch and the PODEM call count, over one fault list.
pub(crate) struct Campaign<'m, M: FaultModel<1>> {
    model: &'m M,
    faults: &'m [M::Fault],
    /// Per-fault classification, parallel to `faults`.
    pub(crate) statuses: Vec<FaultStatus>,
    /// The random-pattern and fill stream.
    rng: SplitMix64,
    scratch: FaultSimScratch,
    /// PODEM invocations so far.
    pub(crate) podem_calls: usize,
}

impl<'m, M: FaultModel<1>> Campaign<'m, M>
where
    M::Pattern: Clone,
    M::Fault: std::fmt::Debug,
{
    pub(crate) fn new(model: &'m M, faults: &'m [M::Fault], seed: u64) -> Self {
        Campaign {
            model,
            faults,
            statuses: vec![FaultStatus::Undetected; faults.len()],
            rng: SplitMix64::new(seed),
            scratch: FaultSimScratch::for_graph(model.graph()),
            podem_calls: 0,
        }
    }

    /// How many faults carry `status`.
    pub(crate) fn count(&self, status: FaultStatus) -> usize {
        self.statuses.iter().filter(|s| **s == status).count()
    }

    /// The one dropping loop: every still-`Undetected` fault that some
    /// pattern of `patterns` detects becomes `credit`. Returns the
    /// first-detection credit, one bit per pattern: the earliest
    /// detecting pattern of each newly dropped fault.
    fn drop_detected(&mut self, patterns: &[M::Pattern], credit: FaultStatus) -> u64 {
        let block = self.model.block(patterns);
        let mut credited = 0u64;
        for (status, fault) in self.statuses.iter_mut().zip(self.faults) {
            if *status != FaultStatus::Undetected {
                continue;
            }
            let mask = self.model.detect_mask(*fault, &block, &mut self.scratch);
            if mask.any() {
                *status = credit;
                credited |= 1u64 << mask.trailing_zeros();
            }
        }
        credited
    }

    /// The random phase: blocks from `draw` (given the stream and the
    /// block size) with fault dropping, until `window` consecutive blocks
    /// detect nothing new, `max_blocks` blocks ran or every fault is
    /// dropped. Returns the credited patterns and how many were applied.
    pub(crate) fn random_phase(
        &mut self,
        window: usize,
        max_blocks: usize,
        mut draw: impl FnMut(&mut SplitMix64, usize) -> Vec<M::Pattern>,
    ) -> (Vec<M::Pattern>, usize) {
        let n_pi = self.model.circuit().primary_inputs().len();
        let mut kept = Vec::new();
        let (mut applied, mut dry, mut blocks) = (0, 0, 0);
        while n_pi > 0
            && blocks < max_blocks
            && dry < window
            && self.statuses.contains(&FaultStatus::Undetected)
        {
            let patterns = draw(&mut self.rng, RANDOM_BLOCK);
            let credited = self.drop_detected(&patterns, FaultStatus::DetectedRandom);
            kept.extend(
                patterns
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| credited & (1u64 << k) != 0)
                    .map(|(_, p)| p.clone()),
            );
            dry = if credited == 0 { dry + 1 } else { 0 };
            applied += patterns.len();
            blocks += 1;
        }
        (kept, applied)
    }

    /// The deterministic phase: for every still-`Undetected` fault in
    /// list order, unless `screen` proves it untestable, one counted
    /// `podem` call. A test cube is filled from the stream, turned into
    /// a pattern by `realise` (given the cube and its fill) and
    /// fault-simulated against every remaining fault, so the whole
    /// detected cohort drops before its own PODEM call. Returns the
    /// patterns in generation order.
    pub(crate) fn deterministic(
        &mut self,
        mut screen: impl FnMut(M::Fault) -> bool,
        mut podem: impl FnMut(M::Fault) -> PodemResult,
        mut realise: impl FnMut(Vec<Option<bool>>, Vec<bool>) -> M::Pattern,
    ) -> Vec<M::Pattern> {
        let mut tests = Vec::new();
        for fi in 0..self.faults.len() {
            let fault = self.faults[fi];
            if self.statuses[fi] != FaultStatus::Undetected {
                continue;
            }
            if screen(fault) {
                self.statuses[fi] = FaultStatus::Untestable;
                continue;
            }
            self.podem_calls += 1;
            match podem(fault) {
                PodemResult::Test(cube) => {
                    let filled = self.rng.fill(&cube);
                    let test = realise(cube, filled);
                    self.drop_detected(
                        std::slice::from_ref(&test),
                        FaultStatus::DetectedDeterministic,
                    );
                    debug_assert_eq!(
                        self.statuses[fi],
                        FaultStatus::DetectedDeterministic,
                        "a PODEM test must detect its own target ({fault:?})"
                    );
                    tests.push(test);
                }
                PodemResult::Untestable => self.statuses[fi] = FaultStatus::Untestable,
                PodemResult::Aborted => self.statuses[fi] = FaultStatus::Aborted,
            }
        }
        tests
    }

    /// Reverse-order compaction of `patterns` against the detected
    /// faults: replay backwards with dropping and keep only patterns
    /// that detect something new, so the detected set is preserved
    /// exactly.
    pub(crate) fn compact(&mut self, patterns: &[M::Pattern]) -> Vec<M::Pattern> {
        let live: Vec<M::Fault> = self
            .faults
            .iter()
            .zip(&self.statuses)
            .filter(|(_, s)| s.is_detected())
            .map(|(f, _)| *f)
            .collect();
        compact(self.model, &live, patterns, &mut self.scratch)
    }
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

    /// Run the full campaign over `faults` (usually collapsed
    /// representatives; duplicates are simply detected together).
    #[must_use]
    pub fn run(&self, faults: &[StuckAtFault]) -> AtpgReport {
        let cfg = &self.config;
        let model = StuckAt::new(self.circuit, &self.graph);
        let mut run = Campaign::new(&model, faults, cfg.seed);
        let podem = |f| generate_test(self.circuit, f, &cfg.podem);

        let n_pi = self.circuit.primary_inputs().len();
        let t0 = Instant::now();
        let (kept, random_patterns_applied) =
            run.random_phase(cfg.random_window, cfg.max_random_blocks, |rng, n| {
                (0..n)
                    .map(|_| (0..n_pi).map(|_| rng.next_bool()).collect())
                    .collect()
            });
        let random_ms = ms(t0);
        let random_patterns_kept = kept.len();

        // Phase 2 keeps each cube for static merging next to its fill,
        // which is what the collateral drops were simulated against. The
        // static redundancy screen runs first: structurally redundant
        // faults (carry-select-style) would otherwise burn the whole
        // backtrack budget and still come back `Aborted`.
        let t1 = Instant::now();
        let mut cubes = Vec::new();
        let fills = if cfg.deterministic {
            let mut prover: Option<RedundancyProver<'_>> = None;
            let screen = |f| {
                cfg.redundancy_budget > 0
                    && prover
                        .get_or_insert_with(|| {
                            RedundancyProver::with_budget(self.circuit, cfg.redundancy_budget)
                        })
                        .prove_untestable(f)
            };
            run.deterministic(screen, podem, |cube, filled| {
                cubes.push(cube);
                filled
            })
        } else {
            Vec::new()
        };
        let deterministic_ms = ms(t1);

        let t2 = Instant::now();
        let mut patterns = kept;
        if cfg.compact {
            let merged = merge_cubes(&cubes);
            patterns.extend(merged.iter().map(|c| run.rng.fill(c)));
        } else {
            // No merging: the phase-2 fills are the patterns, so every
            // collateral drop simulated there stays valid verbatim.
            patterns.extend(fills);
        }

        if cfg.deterministic && cfg.compact {
            // Every merged cube still detects its constituents' targets,
            // but *collateral* detections were credited to one particular
            // fill that merging may have rewritten. Re-simulate the
            // assembled set, reopen every detection that slipped through
            // and run a top-up PODEM pass over just those faults.
            let report = simulate_faults_with_graph_lanes(
                self.circuit,
                &self.graph,
                faults,
                &patterns,
                true,
                1,
            );
            for fi in report.undetected {
                if run.statuses[fi].is_detected() {
                    run.statuses[fi] = FaultStatus::Undetected;
                }
            }
            patterns.extend(run.deterministic(|_| false, podem, |_, filled| filled));
        }
        let patterns_before_compaction = patterns.len();
        if cfg.compact {
            patterns = run.compact(&patterns);
        }
        let compaction_ms = ms(t2);

        AtpgReport {
            patterns,
            total_faults: faults.len(),
            detected_random: run.count(FaultStatus::DetectedRandom),
            detected_deterministic: run.count(FaultStatus::DetectedDeterministic),
            untestable: run.count(FaultStatus::Untestable),
            aborted: run.count(FaultStatus::Aborted),
            podem_calls: run.podem_calls,
            random_patterns_applied,
            random_patterns_kept,
            patterns_before_compaction,
            random_ms,
            deterministic_ms,
            compaction_ms,
            statuses: run.statuses,
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
