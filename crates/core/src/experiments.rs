//! Experiment drivers: one entry point per table and figure of the paper.
//!
//! Every driver returns a structured result that renders to a paper-style
//! text table via [`std::fmt::Display`]; the Criterion benches, the
//! examples and EXPERIMENTS.md all consume these, so the numbers reported
//! everywhere come from a single implementation.

use crate::cbreak::{self, Verdict};
use crate::dictionary::{build_dictionary, CellDictionary};
use crate::fault_model::CellClassification;
use crate::process;
use sinw_analog::cells::{AnalogCell, VDD};
use sinw_analog::circuit::Waveform;
use sinw_analog::measure::{leakage, propagation_delay};
use sinw_analog::solver::{dc, transient_from, SolverOpts};
use sinw_device::defects::DeviceDefect;
use sinw_device::geometry::GateTerminal;
use sinw_device::model::{Bias, TigFet};
use sinw_device::table::TigTable;
use sinw_device::transport::EnergyGrid;
use sinw_switch::cells::{Cell, CellKind};
use sinw_switch::fault::TransistorFault;
use std::fmt;
use std::sync::Arc;

/// Shared context: the device table (expensive to build) plus fidelity.
#[derive(Debug, Clone)]
pub struct Experiments {
    /// The compact-model table shared by all analog experiments.
    pub table: Arc<TigTable>,
    /// Reduced sweep resolutions for test runs.
    pub fast: bool,
}

impl Experiments {
    /// Production fidelity (13-point table axes, full sweeps).
    #[must_use]
    pub fn standard() -> Self {
        Experiments {
            table: Arc::new(TigTable::build_standard(&TigFet::ideal())),
            fast: false,
        }
    }

    /// Test fidelity (coarse table, short sweeps).
    #[must_use]
    pub fn fast() -> Self {
        Experiments {
            table: Arc::new(TigTable::build_coarse(&TigFet::ideal())),
            fast: true,
        }
    }

    fn device(&self) -> TigFet {
        let mut fet = TigFet::ideal();
        if self.fast {
            fet.params.grid = EnergyGrid::coarse();
        }
        fet
    }

    // ------------------------------------------------------------------
    // Fig. 2 — cell functionality
    // ------------------------------------------------------------------

    /// Verify the truth table of all six cells at switch level.
    #[must_use]
    pub fn fig2(&self) -> Fig2Result {
        let rows = CellKind::ALL
            .into_iter()
            .map(|kind| {
                let failures = Cell::build(kind).verify_truth_table().len();
                (kind, failures)
            })
            .collect();
        Fig2Result { rows }
    }

    // ------------------------------------------------------------------
    // Fig. 3 — I–V with GOS
    // ------------------------------------------------------------------

    /// n-type I–V curves, defect-free and with a GOS on each gate site.
    #[must_use]
    pub fn fig3(&self) -> Fig3Result {
        let points = if self.fast { 13 } else { 49 };
        let healthy = self.device();
        let sweep =
            |fet: &TigFet| -> Vec<(f64, f64)> { fet.sweep_vcg(1.2, 1.2, 1.2, 0.0, 1.2, points) };
        let curve_free = sweep(&healthy);
        let i_sat = curve_free.last().expect("points >= 2").1;
        let vth0 = healthy.threshold_voltage(1.2, 1.2, 3e-7);

        let mut rows = Vec::new();
        let mut curves = vec![(None, curve_free)];
        for site in GateTerminal::ALL {
            let mut sick = self.device().with_defect(DeviceDefect::gos(site));
            if self.fast {
                sick.params.grid = EnergyGrid::coarse();
            }
            let curve = sweep(&sick);
            let sat_ratio = curve.last().expect("points >= 2").1 / i_sat;
            let dvth = match (sick.threshold_voltage(1.2, 1.2, 3e-7), vth0) {
                (Some(v), Some(v0)) => v - v0,
                _ => f64::NAN,
            };
            let i_low_vds = sick.drain_current(Bias::uniform_gates(1.2, 0.01));
            rows.push(Fig3Row {
                site,
                sat_ratio,
                delta_vth_mv: dvth * 1e3,
                negative_id_at_low_vds: i_low_vds < 0.0,
            });
            curves.push((Some(site), curve));
        }
        Fig3Result {
            i_sat_healthy: i_sat,
            rows,
            curves,
        }
    }

    // ------------------------------------------------------------------
    // Fig. 4 — channel electron density
    // ------------------------------------------------------------------

    /// Bottleneck channel electron density, defect-free and per GOS site.
    #[must_use]
    pub fn fig4(&self) -> Fig4Result {
        let sat = Bias::uniform_gates(1.2, 1.2);
        let healthy = self.device().probe_density(sat);
        let rows = GateTerminal::ALL
            .into_iter()
            .map(|site| {
                let sick = self.device().with_defect(DeviceDefect::gos(site));
                let n = sick.probe_density(sat);
                (site, n)
            })
            .collect();
        Fig4Result {
            n_healthy: healthy,
            rows,
        }
    }

    // ------------------------------------------------------------------
    // Fig. 5 — leakage/delay vs Vcut
    // ------------------------------------------------------------------

    /// Open-gate sweep of one cell/transistor: leakage and delay vs the
    /// floating-node voltage `Vcut`, with PGS or PGD floated.
    #[must_use]
    pub fn fig5(&self, kind: CellKind, t_index: usize) -> Fig5Result {
        let n_vcut = if self.fast { 5 } else { 13 };
        let opts = SolverOpts::default();
        let pulse = Waveform::Pulse {
            v0: 0.0,
            v1: VDD,
            delay: 0.5e-9,
            rise: 20e-12,
            width: 4e-9,
            fall: 20e-12,
        };
        // Side inputs sensitise the cell so the output follows input a.
        let side = Waveform::Dc(if kind == CellKind::Nand2 { VDD } else { 0.0 });
        let waves: Vec<Waveform> = (0..kind.input_count())
            .map(|k| if k == 0 { pulse.clone() } else { side.clone() })
            .collect();

        let mut points = Vec::new();
        for i in 0..n_vcut {
            let vcut = 1.2 * i as f64 / (n_vcut - 1) as f64;
            let mut leak = [f64::NAN; 2];
            let mut delay = [f64::NAN; 2];
            for (which, slot) in [(1usize, 0usize), (2, 1)] {
                let mut cell = AnalogCell::build(kind, self.table.clone(), &waves);
                cell.float_gate(t_index, which, vcut);
                // At t = 0 the pulse sits at v0 = 0 V, so the pulsed cell is
                // the static cell: one DC solve gives the leakage and is the
                // transient's initial condition for the delay.
                let Ok(sol) = dc(&cell.circuit, &opts) else {
                    continue;
                };
                leak[slot] = leakage(&cell, &sol);
                if let Ok(tr) = transient_from(&cell.circuit, sol, 3.0e-9, 10e-12, &opts) {
                    if let Some(d) = propagation_delay(&tr, cell.inputs[0], cell.out) {
                        delay[slot] = d;
                    }
                }
            }
            points.push(Fig5Point {
                vcut,
                leak_pgs_open: leak[0],
                leak_pgd_open: leak[1],
                delay_pgs_open: delay[0],
                delay_pgd_open: delay[1],
            });
        }
        Fig5Result {
            kind,
            t_index,
            points,
        }
    }

    // ------------------------------------------------------------------
    // Sections V–VI — stuck-at fault coverage on benchmark circuits
    // ------------------------------------------------------------------

    /// End-to-end fault-coverage run over the benchmark suite:
    /// parse / generate → map onto the CP cell library → collapse the
    /// stuck-at universe → thread-parallel PPSFP → coverage report.
    /// Delegates to [`fault_coverage`] with this context's fidelity.
    #[must_use]
    pub fn fault_coverage(&self) -> FaultCoverageResult {
        fault_coverage(self.fast)
    }

    /// Full ATPG campaign (random phase → PODEM → compaction) over the
    /// benchmark suite. Delegates to [`atpg_campaign`] with this
    /// context's fidelity.
    #[must_use]
    pub fn atpg_campaign(&self) -> AtpgCampaignResult {
        atpg_campaign(self.fast)
    }

    /// Fault dictionary + diagnosis over the benchmark suite (signature
    /// capture on the campaign's compacted pattern sets). Delegates to
    /// [`diagnosis`] with this context's fidelity.
    #[must_use]
    pub fn diagnosis(&self) -> DiagnosisResult {
        diagnosis(self.fast)
    }

    /// Sequential-circuit run: scan insertion, stuck-at ATPG on the
    /// per-frame scan view through the unchanged campaign engine, and
    /// launch-on-capture transition-delay ATPG on the 2-frame time-frame
    /// expansion. Delegates to [`sequential`] with this context's
    /// fidelity.
    #[must_use]
    pub fn sequential(&self) -> SequentialResult {
        sequential(self.fast)
    }

    // ------------------------------------------------------------------
    // Table I — process steps and defect census
    // ------------------------------------------------------------------

    /// The process/defect mapping plus the per-cell defect census and
    /// fault-model classification.
    #[must_use]
    pub fn table1(&self) -> Table1Result {
        let cells = CellKind::ALL
            .into_iter()
            .map(|kind| {
                let census = process::census(kind);
                let class = CellClassification::build(kind);
                Table1Row {
                    kind,
                    total_defects: census.total(),
                    classical: class.classically_covered(),
                    needs_new: class.needs_new_models(),
                }
            })
            .collect();
        Table1Result { cells }
    }

    // ------------------------------------------------------------------
    // Table III — XOR2 polarity-fault dictionary
    // ------------------------------------------------------------------

    /// The XOR2 stuck-at n/p dictionary (analog-resolved).
    #[must_use]
    pub fn table3(&self) -> CellDictionary {
        build_dictionary(CellKind::Xor2, &self.table)
    }

    // ------------------------------------------------------------------
    // Section V-B — polarity bridges
    // ------------------------------------------------------------------

    /// Worst-case IDDQ swing of polarity bridges per cell.
    #[must_use]
    pub fn sec5b(&self) -> Sec5bResult {
        let kinds = if self.fast {
            vec![CellKind::Inv, CellKind::Xor2]
        } else {
            CellKind::ALL.to_vec()
        };
        let rows = kinds
            .into_iter()
            .map(|kind| {
                let dict = build_dictionary(kind, &self.table);
                let best = dict
                    .entries
                    .iter()
                    .map(|e| e.iddq_faulty / e.iddq_healthy)
                    .fold(0.0f64, f64::max);
                let complete = dict.complete();
                (kind, best, complete)
            })
            .collect();
        Sec5bResult { rows }
    }

    // ------------------------------------------------------------------
    // Section V-C — channel-break masking and the new algorithm
    // ------------------------------------------------------------------

    /// Masking measurements plus baseline-vs-new-algorithm coverage for
    /// the XOR2.
    #[must_use]
    pub fn sec5c(&self) -> Sec5cResult {
        let dict = build_dictionary(CellKind::Xor2, &self.table);
        let mut rows = Vec::new();
        for t in 0..4 {
            let masking = cbreak::masking_measurements(CellKind::Xor2, t, &self.table);
            let sof_testable = sinw_atpg::sof::cell_break_is_sof_testable(CellKind::Xor2, t);
            let healthy_verdict =
                cbreak::bridge_injection_verdict(CellKind::Xor2, t, &dict, &self.table, false);
            let broken_verdict =
                cbreak::bridge_injection_verdict(CellKind::Xor2, t, &dict, &self.table, true);
            rows.push(Sec5cRow {
                transistor: t,
                leakage_ratio: masking.leakage_ratio,
                delay_ratio: masking.delay_ratio,
                functionality_intact: masking.functionality_intact,
                sof_testable,
                new_algorithm_works: healthy_verdict == Verdict::ChannelIntact
                    && broken_verdict == Verdict::ChannelBroken,
            });
        }
        // The NAND reference vectors of Section V-C.
        let nand_pairs: Vec<(usize, Vec<sinw_atpg::sof::TwoPattern>)> = (0..4)
            .map(|t| (t, sinw_atpg::sof::cell_sof_tests(CellKind::Nand2, t)))
            .collect();
        Sec5cResult { rows, nand_pairs }
    }
}

// ----------------------------------------------------------------------
// Result types
// ----------------------------------------------------------------------

/// Fig. 2 verification result.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// (cell, number of failing truth-table rows).
    pub rows: Vec<(CellKind, usize)>,
}

impl Fig2Result {
    /// All cells functionally correct?
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.rows.iter().all(|(_, f)| *f == 0)
    }
}

impl fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 2 — cell functionality (switch level)")?;
        for (kind, fails) in &self.rows {
            writeln!(
                f,
                "  {kind:6}  {}",
                if *fails == 0 {
                    "ok".to_string()
                } else {
                    format!("{fails} failing vectors")
                }
            )?;
        }
        Ok(())
    }
}

/// One summary row of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// GOS site.
    pub site: GateTerminal,
    /// I_D(SAT) ratio faulty / healthy.
    pub sat_ratio: f64,
    /// Threshold shift in millivolts.
    pub delta_vth_mv: f64,
    /// Whether I_D < 0 at V_DS = 10 mV (the gate-leak signature).
    pub negative_id_at_low_vds: bool,
}

/// One Fig. 3 curve: the GOS site (`None` = defect-free) and its
/// (V_CG, I_D) samples.
pub type Fig3Curve = (Option<GateTerminal>, Vec<(f64, f64)>);

/// Fig. 3 result: summary rows plus the raw curves.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Healthy saturation current (A).
    pub i_sat_healthy: f64,
    /// Per-site summaries.
    pub rows: Vec<Fig3Row>,
    /// One curve per site, defect-free first.
    pub curves: Vec<Fig3Curve>,
}

impl fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 3 — GOS I–V signatures (healthy I_sat = {:.3e} A)",
            self.i_sat_healthy
        )?;
        writeln!(
            f,
            "  site  I_sat ratio   dVth (mV)   negative I_D @ low V_DS"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:4}  {:>10.3}   {:>8.0}    {}",
                r.site.to_string(),
                r.sat_ratio,
                r.delta_vth_mv,
                if r.negative_id_at_low_vds {
                    "yes"
                } else {
                    "no"
                }
            )?;
        }
        Ok(())
    }
}

/// Fig. 4 result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Healthy bottleneck density (cm⁻³).
    pub n_healthy: f64,
    /// Per-site densities (cm⁻³).
    pub rows: Vec<(GateTerminal, f64)>,
}

impl Fig4Result {
    /// Density drop ratio for a site.
    #[must_use]
    pub fn ratio(&self, site: GateTerminal) -> f64 {
        self.rows
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(f64::NAN, |(_, n)| self.n_healthy / n)
    }
}

impl fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4 — channel electron density (cm^-3)")?;
        writeln!(
            f,
            "  fault-free   {:.3e}   (paper: 1.558e19)",
            self.n_healthy
        )?;
        for (site, n) in &self.rows {
            let paper = match site {
                GateTerminal::Pgs => "1.426e17",
                GateTerminal::Cg => "1.763e18",
                GateTerminal::Pgd => "1.316e18",
            };
            writeln!(f, "  GOS on {site:3}   {n:.3e}   (paper: {paper})")?;
        }
        Ok(())
    }
}

/// One Vcut sample of a Fig. 5 sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Floating-node voltage (V).
    pub vcut: f64,
    /// Leakage with PGS floated (A).
    pub leak_pgs_open: f64,
    /// Leakage with PGD floated (A).
    pub leak_pgd_open: f64,
    /// Delay with PGS floated (s).
    pub delay_pgs_open: f64,
    /// Delay with PGD floated (s).
    pub delay_pgd_open: f64,
}

/// A full Fig. 5 sweep for one cell / transistor.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Cell under test.
    pub kind: CellKind,
    /// Target transistor index.
    pub t_index: usize,
    /// The sweep.
    pub points: Vec<Fig5Point>,
}

impl Fig5Result {
    /// Max/min leakage ratio over the sweep (decades of swing).
    #[must_use]
    pub fn leakage_swing(&self) -> f64 {
        let finite: Vec<f64> = self
            .points
            .iter()
            .flat_map(|p| [p.leak_pgs_open, p.leak_pgd_open])
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        let max = finite.iter().copied().fold(0.0f64, f64::max);
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    }

    /// Max/min delay ratio over the sweep (where the output still
    /// switches).
    #[must_use]
    pub fn delay_swing(&self) -> f64 {
        let finite: Vec<f64> = self
            .points
            .iter()
            .flat_map(|p| [p.delay_pgs_open, p.delay_pgd_open])
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        if finite.is_empty() {
            return f64::NAN;
        }
        let max = finite.iter().copied().fold(0.0f64, f64::max);
        let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
        max / min
    }
}

impl fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 5 — {} t{}: leakage/delay vs Vcut (PGS-open / PGD-open)",
            self.kind,
            self.t_index + 1
        )?;
        writeln!(f, "  Vcut    leak_PGS    leak_PGD    delay_PGS   delay_PGD")?;
        for p in &self.points {
            writeln!(
                f,
                "  {:4.2}  {:>9.3e}  {:>9.3e}  {:>9.1} ps {:>9.1} ps",
                p.vcut,
                p.leak_pgs_open,
                p.leak_pgd_open,
                p.delay_pgs_open * 1e12,
                p.delay_pgd_open * 1e12
            )?;
        }
        Ok(())
    }
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Cell.
    pub kind: CellKind,
    /// Size of the defect universe.
    pub total_defects: usize,
    /// Defects covered by classical models.
    pub classical: usize,
    /// Defects needing the paper's new models.
    pub needs_new: usize,
}

/// Table I result (process mapping + census).
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Per-cell rows.
    pub cells: Vec<Table1Row>,
}

impl fmt::Display for Table1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table I — fabrication steps and defects")?;
        for step in process::ProcessStep::ALL {
            let defects: Vec<String> = step
                .defect_classes()
                .iter()
                .map(ToString::to_string)
                .collect();
            writeln!(f, "  {step:32} -> {}", defects.join(", "))?;
        }
        writeln!(f, "Defect census and classification per cell:")?;
        writeln!(f, "  cell    defects  classical  needs-new-models")?;
        for r in &self.cells {
            writeln!(
                f,
                "  {:6}  {:>7}  {:>9}  {:>16}",
                r.kind.to_string(),
                r.total_defects,
                r.classical,
                r.needs_new
            )?;
        }
        Ok(())
    }
}

/// Section V-B result.
#[derive(Debug, Clone)]
pub struct Sec5bResult {
    /// (cell, worst IDDQ swing, dictionary complete).
    pub rows: Vec<(CellKind, f64, bool)>,
}

impl fmt::Display for Sec5bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section V-B — polarity-bridge IDDQ swings")?;
        for (kind, swing, complete) in &self.rows {
            writeln!(
                f,
                "  {:6}  swing {:>10.3e}x  dictionary {}",
                kind.to_string(),
                swing,
                if *complete { "complete" } else { "INCOMPLETE" }
            )?;
        }
        Ok(())
    }
}

/// One Section V-C row.
#[derive(Debug, Clone)]
pub struct Sec5cRow {
    /// Transistor (0 ⇒ t1 …).
    pub transistor: usize,
    /// Channel-break leakage ratio (masking: should be ≈ 1).
    pub leakage_ratio: f64,
    /// Channel-break delay ratio (masking: should be ≤ ~1.6).
    pub delay_ratio: f64,
    /// Whether the broken cell still computes correctly (masking).
    pub functionality_intact: bool,
    /// Classical SOF test exists?
    pub sof_testable: bool,
    /// The paper's algorithm distinguishes broken from intact?
    pub new_algorithm_works: bool,
}

/// Section V-C result.
#[derive(Debug, Clone)]
pub struct Sec5cResult {
    /// Per-transistor XOR2 rows.
    pub rows: Vec<Sec5cRow>,
    /// The NAND two-pattern tests (paper: (11→01), (11→10), (00→11)).
    pub nand_pairs: Vec<(usize, Vec<sinw_atpg::sof::TwoPattern>)>,
}

impl fmt::Display for Sec5cResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section V-C — channel break in the DP XOR2")?;
        writeln!(
            f,
            "  t   dLeak     dDelay    functional  SOF-testable  new-algorithm"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  t{}  {:>7.2}x  {:>7.2}x  {:>10}  {:>12}  {:>13}",
                r.transistor + 1,
                r.leakage_ratio,
                r.delay_ratio,
                if r.functionality_intact { "yes" } else { "NO" },
                if r.sof_testable { "yes" } else { "no" },
                if r.new_algorithm_works {
                    "works"
                } else {
                    "FAILS"
                }
            )?;
        }
        writeln!(
            f,
            "  NAND two-pattern tests (paper: 11->01, 11->10, 00->11):"
        )?;
        for (t, pairs) in &self.nand_pairs {
            let rendered: Vec<String> = pairs.iter().map(ToString::to_string).collect();
            writeln!(f, "    t{}: {}", t + 1, rendered.join(" "))?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Benchmark fault coverage (Sections V–VI workloads)
// ----------------------------------------------------------------------

/// One benchmark's trip through the parse → map → collapse → simulate
/// pipeline.
#[derive(Debug, Clone)]
pub struct FaultCoverageRow {
    /// Benchmark name (`c17`, `csa16`, `mul8`, …).
    pub name: String,
    /// `"bench"` for parsed `.bench` fixtures, `"gen"` for parametric
    /// generators.
    pub source: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Cell instances after mapping onto the CP library.
    pub cells: usize,
    /// Size of the full single-stuck-at universe.
    pub faults: usize,
    /// Representatives after structural equivalence collapsing.
    pub collapsed: usize,
    /// Patterns applied (exhaustive when the PI count allows, seeded
    /// random otherwise).
    pub patterns: usize,
    /// Whether the pattern set was exhaustive.
    pub exhaustive: bool,
    /// Detected representatives.
    pub detected: usize,
    /// Fault coverage over the collapsed universe, in [0, 1].
    pub coverage: f64,
    /// 1 + index of the last pattern that detected a new fault (the
    /// useful prefix of the test set under fault dropping).
    pub effective_test_length: usize,
    /// Wall time of the thread-parallel PPSFP call, in milliseconds —
    /// the per-benchmark view of perfbench's `faultsim.event_ms` row.
    pub sim_ms: f64,
}

/// Result of [`fault_coverage`]: one row per benchmark.
#[derive(Debug, Clone)]
pub struct FaultCoverageResult {
    /// Per-benchmark rows.
    pub rows: Vec<FaultCoverageRow>,
}

impl FaultCoverageResult {
    /// Row lookup by benchmark name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&FaultCoverageRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for FaultCoverageResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Benchmark fault coverage (collapsed stuck-at universe, thread-parallel PPSFP)"
        )?;
        writeln!(
            f,
            "  circuit  src    PI   PO  cells  faults  collapsed  patterns  detected  coverage  eff.len  sim(ms)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:7}  {:5} {:>3}  {:>3}  {:>5}  {:>6}  {:>9}  {:>5}{:3}  {:>8}  {:>7.2}%  {:>7}  {:>7.1}",
                r.name,
                r.source,
                r.inputs,
                r.outputs,
                r.cells,
                r.faults,
                r.collapsed,
                r.patterns,
                if r.exhaustive { "(x)" } else { "(r)" },
                r.detected,
                100.0 * r.coverage,
                r.effective_test_length,
                r.sim_ms
            )?;
        }
        writeln!(
            f,
            "  (x) exhaustive pattern set, (r) seeded random patterns"
        )?;
        Ok(())
    }
}

/// Deterministic per-benchmark pattern source: exhaustive for narrow
/// circuits, otherwise [`sinw_atpg::faultsim::seeded_patterns`] keyed by
/// an FNV-1a hash of the benchmark name.
fn benchmark_patterns(
    circuit: &sinw_switch::gate::Circuit,
    name: &str,
    fast: bool,
) -> (Vec<Vec<bool>>, bool) {
    let n_pi = circuit.primary_inputs().len();
    if n_pi <= 10 {
        let patterns = (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect();
        return (patterns, true);
    }
    let cap = if fast { 256 } else { 1024 };
    let count = (16 * n_pi).min(cap);
    let seed = 0x5EED_0B1A_u64
        ^ name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
    (
        sinw_atpg::faultsim::seeded_patterns(n_pi, count, seed),
        false,
    )
}

/// The benchmark suite: embedded `.bench` fixtures (parsed and mapped
/// onto the CP cell library) followed by the parametric generators.
#[must_use]
pub fn benchmark_suite(fast: bool) -> Vec<(String, &'static str, sinw_switch::gate::Circuit)> {
    let mut suite = Vec::new();
    for (name, text) in sinw_switch::iscas::embedded_benchmarks() {
        let circuit = sinw_switch::iscas::parse_bench(text)
            .unwrap_or_else(|e| panic!("embedded fixture {name} must parse: {e}"));
        suite.push((name.to_string(), "bench", circuit));
    }
    for (name, circuit) in sinw_switch::generate::generated_suite(fast) {
        suite.push((name, "gen", circuit));
    }
    suite
}

/// End-to-end stuck-at coverage over [`benchmark_suite`]: compile each
/// circuit through the service layer's single compile path
/// ([`sinw_server::registry::compile_circuit`]: enumerate + collapse +
/// `SimGraph` build), run thread-parallel PPSFP (auto worker count,
/// event-driven fanout-cone kernel) with fault dropping, and report
/// per-benchmark coverage plus the simulation wall time.
///
/// `fast` shrinks the generated circuits and the random-pattern budget
/// for test runs.
#[must_use]
pub fn fault_coverage(fast: bool) -> FaultCoverageResult {
    use sinw_atpg::faultsim::{configured_lanes, simulate_faults_threaded_lanes};
    use sinw_server::registry::compile_circuit;

    let rows = benchmark_suite(fast)
        .into_iter()
        .map(|(name, source, circuit)| {
            let compiled = compile_circuit(&name, circuit);
            let circuit = compiled.circuit();
            let (patterns, exhaustive) = benchmark_patterns(circuit, &name, fast);
            let t0 = std::time::Instant::now();
            let report = simulate_faults_threaded_lanes(
                circuit,
                &compiled.collapsed().representatives,
                &patterns,
                true,
                0,
                configured_lanes(),
            );
            let sim_ms = t0.elapsed().as_secs_f64() * 1e3;
            let effective_test_length = report
                .first_detections
                .iter()
                .rposition(|n| *n > 0)
                .map_or(0, |p| p + 1);
            FaultCoverageRow {
                name,
                source,
                inputs: circuit.primary_inputs().len(),
                outputs: circuit.primary_outputs().len(),
                cells: circuit.gates().len(),
                faults: compiled.faults().len(),
                collapsed: compiled.collapsed().representatives.len(),
                patterns: patterns.len(),
                exhaustive,
                detected: report.detected.len(),
                coverage: report.coverage(),
                effective_test_length,
                sim_ms,
            }
        })
        .collect();
    FaultCoverageResult { rows }
}

// ----------------------------------------------------------------------
// ATPG campaign (test-set production over the benchmark suite)
// ----------------------------------------------------------------------

/// One benchmark's trip through the full ATPG campaign: random phase →
/// deterministic PODEM phase → don't-care-aware compaction.
#[derive(Debug, Clone)]
pub struct AtpgCampaignRow {
    /// Benchmark name (`c17`, `csa16`, `mul8`, …).
    pub name: String,
    /// `"bench"` for parsed `.bench` fixtures, `"gen"` for generators.
    pub source: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Cell instances after mapping onto the CP library.
    pub cells: usize,
    /// Size of the full single-stuck-at universe.
    pub faults: usize,
    /// Representatives after structural equivalence collapsing (the
    /// campaign's target list).
    pub collapsed: usize,
    /// The campaign report: final pattern set, per-fault statuses,
    /// per-phase wall times, coverage accessors.
    pub report: sinw_atpg::tpg::AtpgReport,
}

/// Result of [`atpg_campaign`]: one row per benchmark.
#[derive(Debug, Clone)]
pub struct AtpgCampaignResult {
    /// Per-benchmark rows.
    pub rows: Vec<AtpgCampaignRow>,
}

impl AtpgCampaignResult {
    /// Row lookup by benchmark name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&AtpgCampaignRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for AtpgCampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ATPG campaign (random phase + PODEM with dropping + don't-care compaction)"
        )?;
        writeln!(
            f,
            "  circuit  src    PI  cells  collapsed  rand(app/kept)  podem  untest  abort  cov(test)  patterns  rnd(ms)  det(ms)  cmp(ms)"
        )?;
        for r in &self.rows {
            let rep = &r.report;
            writeln!(
                f,
                "  {:7}  {:5} {:>3}  {:>5}  {:>9}  {:>6}/{:<5}  {:>5}  {:>6}  {:>5}  {:>8.2}%  {:>4}/{:<4}  {:>7.1}  {:>7.1}  {:>7.1}",
                r.name,
                r.source,
                r.inputs,
                r.cells,
                r.collapsed,
                rep.random_patterns_applied,
                rep.random_patterns_kept,
                rep.podem_calls,
                rep.untestable,
                rep.aborted,
                100.0 * rep.testable_coverage(),
                rep.patterns.len(),
                rep.patterns_before_compaction,
                rep.random_ms,
                rep.deterministic_ms,
                rep.compaction_ms
            )?;
        }
        writeln!(
            f,
            "  cov(test) = detected / (collapsed - untestable); patterns = final/pre-compaction"
        )?;
        Ok(())
    }
}

/// Full ATPG campaign over [`benchmark_suite`]: enumerate + collapse the
/// stuck-at universe, then run [`sinw_atpg::tpg::AtpgEngine`] — the
/// random phase feeds 64-wide blocks through the event-driven PPSFP
/// kernel with fault dropping, PODEM mops up the remainder (classifying
/// untestable/aborted faults), and static + reverse-order compaction
/// shrinks the final pattern set without losing coverage.
///
/// The campaign seed is derived per benchmark name (FNV-1a, same scheme
/// as the `fault_coverage` pattern source), so every row is reproducible
/// run-to-run. `fast` shrinks the generated circuits and the random
/// phase for test runs.
#[must_use]
pub fn atpg_campaign(fast: bool) -> AtpgCampaignResult {
    use sinw_atpg::tpg::{AtpgConfig, AtpgEngine};
    use sinw_server::registry::compile_circuit;

    let rows = benchmark_suite(fast)
        .into_iter()
        .map(|(name, source, circuit)| {
            let compiled = compile_circuit(&name, circuit);
            let circuit = compiled.circuit();
            let seed = 0x07E5_75E7_u64
                ^ name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                });
            let config = AtpgConfig {
                seed,
                max_random_blocks: if fast { 16 } else { 64 },
                ..AtpgConfig::default()
            };
            let engine = AtpgEngine::new(circuit, config);
            let report = engine.run(&compiled.collapsed().representatives);
            AtpgCampaignRow {
                name,
                source,
                inputs: circuit.primary_inputs().len(),
                cells: circuit.gates().len(),
                faults: compiled.faults().len(),
                collapsed: compiled.collapsed().representatives.len(),
                report,
            }
        })
        .collect();
    AtpgCampaignResult { rows }
}

// ----------------------------------------------------------------------
// Fault dictionary + diagnosis (test-response lookup over the suite)
// ----------------------------------------------------------------------

/// One benchmark's trip through dictionary construction and a sampled
/// injected-fault diagnosis walk.
#[derive(Debug, Clone)]
pub struct DiagnosisRow {
    /// Benchmark name (`c17`, `csa16`, `mul8`, …).
    pub name: String,
    /// `"bench"` for parsed `.bench` fixtures, `"gen"` for generators.
    pub source: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Cell instances after mapping onto the CP library.
    pub cells: usize,
    /// Patterns in the campaign's compacted test set (the dictionary key
    /// space).
    pub patterns: usize,
    /// Dictionary size / resolution statistics over the **full** stuck-at
    /// universe (stems + branches — diagnosis wants physical sites, so
    /// the universe is *not* pre-collapsed; structurally equivalent
    /// faults land in one class by construction).
    pub stats: sinw_atpg::diagnose::DictionaryStats,
    /// Wall time of the single-worker dictionary build
    /// ([`FaultDictionary::build`](sinw_atpg::diagnose::FaultDictionary::build)),
    /// ms.
    pub build_ms: f64,
    /// Wall time of the thread-parallel (64-way blocks × auto workers)
    /// build, ms.
    pub build_threaded_ms: f64,
    /// Sampled diagnosis probes: faults injected, observed with the
    /// full-pass oracle, and looked up in the dictionary.
    pub probes: usize,
    /// Probes whose true indistinguishability class ranked first
    /// (must equal `probes` — asserted by the test suite).
    pub probes_ranked_first: usize,
}

/// Result of [`diagnosis`]: one row per benchmark.
#[derive(Debug, Clone)]
pub struct DiagnosisResult {
    /// Per-benchmark rows.
    pub rows: Vec<DiagnosisRow>,
}

impl DiagnosisResult {
    /// Row lookup by benchmark name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&DiagnosisRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for DiagnosisResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fault dictionary + diagnosis (signature capture over the campaign's compacted test sets)"
        )?;
        writeln!(
            f,
            "  circuit  src    PI   PO  cells  pats  faults  classes  empty  single  max   avg  dict(B)  raw(B)  build(ms)  thr(ms)  ranked-1st"
        )?;
        for r in &self.rows {
            let s = &r.stats;
            writeln!(
                f,
                "  {:7}  {:5} {:>3}  {:>3}  {:>5}  {:>4}  {:>6}  {:>7}  {:>5}  {:>6}  {:>3}  {:>4.1}  {:>7}  {:>6}  {:>9.1}  {:>7.1}  {:>6}/{}",
                r.name,
                r.source,
                r.inputs,
                r.outputs,
                r.cells,
                r.patterns,
                s.faults,
                s.classes,
                s.empty_classes,
                s.singleton_classes,
                s.max_class_size,
                s.avg_class_size,
                s.compressed_bytes,
                s.uncompressed_bytes,
                r.build_ms,
                r.build_threaded_ms,
                r.probes_ranked_first,
                r.probes
            )?;
        }
        writeln!(
            f,
            "  pats = campaign compacted test set; classes = indistinguishability classes;"
        )?;
        writeln!(
            f,
            "  empty = all-pass classes (undetected/redundant faults); ranked-1st = injected-fault"
        )?;
        writeln!(
            f,
            "  probes whose true class the diagnosis engine ranked first; dict/raw = class-merged vs per-fault bytes"
        )?;
        Ok(())
    }
}

/// Fault-dictionary + diagnosis run over [`benchmark_suite`]: per
/// benchmark, produce a compacted test set with the ATPG campaign
/// (deterministic per-name seed, same scheme as [`atpg_campaign`]), build
/// the compressed circuit-level dictionary over the **full** stuck-at
/// universe with the signature-capture engines (timing the single-worker
/// build against the thread-parallel one, and asserting that both give
/// the same dictionary),
/// and close the loop with sampled injected-fault diagnoses: each probe
/// simulates a fault's observable response with the independent full-pass
/// oracle and checks that [`sinw_atpg::diagnose::FaultDictionary`] ranks
/// the true indistinguishability class first.
///
/// `fast` shrinks the generated circuits and the campaign's random phase
/// for test runs.
#[must_use]
pub fn diagnosis(fast: bool) -> DiagnosisResult {
    use sinw_atpg::diagnose::{full_pass_observations, FaultDictionary};
    use sinw_atpg::tpg::{AtpgConfig, AtpgEngine};
    use sinw_server::registry::compile_circuit;

    let rows = benchmark_suite(fast)
        .into_iter()
        .map(|(name, source, circuit)| {
            let compiled = compile_circuit(&name, circuit);
            let circuit = compiled.circuit();
            let faults = compiled.faults();
            let seed = 0xD1A6_05E5_u64
                ^ name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                });
            let config = AtpgConfig {
                seed,
                max_random_blocks: if fast { 16 } else { 64 },
                ..AtpgConfig::default()
            };
            let engine = AtpgEngine::new(circuit, config);
            let patterns = engine.run(&compiled.collapsed().representatives).patterns;

            let t0 = std::time::Instant::now();
            let single = FaultDictionary::build(circuit, faults, &patterns);
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = std::time::Instant::now();
            let dict = FaultDictionary::build_threaded(circuit, faults, &patterns, 0);
            let build_threaded_ms = t1.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                single.class_of(),
                dict.class_of(),
                "{name}: single-worker and threaded dictionary builds"
            );

            // Sampled round trip: inject → observe (full-pass oracle) →
            // diagnose → the true class must rank first.
            let stride = (faults.len() / 16).max(1);
            let mut probes = 0usize;
            let mut probes_ranked_first = 0usize;
            for fi in (0..faults.len()).step_by(stride) {
                let obs = full_pass_observations(circuit, faults[fi], &patterns);
                let report = dict.diagnose(&obs);
                probes += 1;
                if report.best().map(|c| c.class) == Some(dict.class_of()[fi]) {
                    probes_ranked_first += 1;
                }
            }

            DiagnosisRow {
                name,
                source,
                inputs: circuit.primary_inputs().len(),
                outputs: circuit.primary_outputs().len(),
                cells: circuit.gates().len(),
                patterns: patterns.len(),
                stats: dict.stats(),
                build_ms,
                build_threaded_ms,
                probes,
                probes_ranked_first,
            }
        })
        .collect();
    DiagnosisResult { rows }
}

// ----------------------------------------------------------------------
// Sequential circuits (scan, time-frame expansion, transition delay)
// ----------------------------------------------------------------------

/// One sequential benchmark's trip through the scan + LOC flow.
#[derive(Debug, Clone)]
pub struct SequentialRow {
    /// Machine name (`s27`, `csa16_reg`, `mul6_reg`, …).
    pub name: String,
    /// Functional (non-state) primary inputs.
    pub inputs: usize,
    /// Functional primary outputs.
    pub outputs: usize,
    /// Flip-flops in the machine.
    pub dffs: usize,
    /// Flip-flops on the scan chain (equals `dffs` under full scan).
    pub scanned: usize,
    /// Cell instances in the combinational core.
    pub cells: usize,
    /// Cell instances in the K-frame unrolled circuit.
    pub unrolled_cells: usize,
    /// Collapsed stuck-at representatives targeted on the scan view.
    pub sa_faults: usize,
    /// Stuck-at faults detected by the campaign.
    pub sa_detected: usize,
    /// Stuck-at faults proved untestable.
    pub sa_untestable: usize,
    /// Final stuck-at pattern-set size.
    pub sa_patterns: usize,
    /// Stuck-at coverage of the testable universe, in [0, 1].
    pub sa_testable_coverage: f64,
    /// Stuck-at campaign wall time, ms.
    pub sa_ms: f64,
    /// Transition-delay faults targeted (full universe on the scan view).
    pub tr_faults: usize,
    /// Transition faults detected (random + deterministic).
    pub tr_detected: usize,
    /// Transition faults proved untestable.
    pub tr_untestable: usize,
    /// Transition faults abandoned at the backtrack limit.
    pub tr_aborted: usize,
    /// Final two-pattern test-set size.
    pub tr_pairs: usize,
    /// Transition coverage of the testable universe, in [0, 1].
    pub tr_testable_coverage: f64,
    /// Transition campaign wall time (both phases + compaction), ms.
    pub tr_ms: f64,
}

/// Result of [`sequential`]: per-machine rows plus the knobs the run
/// used.
#[derive(Debug, Clone)]
pub struct SequentialResult {
    /// Per-machine rows.
    pub rows: Vec<SequentialRow>,
    /// Unroll depth of the `unrolled_cells` column (`SINW_SEQ_FRAMES`).
    pub frames: usize,
    /// Whether the run scanned every flip-flop (`SINW_SCAN`).
    pub full_scan: bool,
}

impl SequentialResult {
    /// Row lookup by machine name.
    #[must_use]
    pub fn row(&self, name: &str) -> Option<&SequentialRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

impl fmt::Display for SequentialResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Sequential circuits ({} scan, {}-frame unroll)",
            if self.full_scan { "full" } else { "partial" },
            self.frames
        )?;
        writeln!(
            f,
            "  machine     in  out  dff  scan  cells  unrolled  |  s-a flts   cov%  pats  \
             sa(ms)  |  tr flts   cov%  pairs  tr(ms)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:10} {:>3}  {:>3}  {:>3}  {:>4}  {:>5}  {:>8}  |  {:>8}  {:>5.1}  {:>4}  \
                 {:>6.1}  |  {:>7}  {:>5.1}  {:>5}  {:>6.1}",
                r.name,
                r.inputs,
                r.outputs,
                r.dffs,
                r.scanned,
                r.cells,
                r.unrolled_cells,
                r.sa_faults,
                r.sa_testable_coverage * 100.0,
                r.sa_patterns,
                r.sa_ms,
                r.tr_faults,
                r.tr_testable_coverage * 100.0,
                r.tr_pairs,
                r.tr_ms
            )?;
        }
        Ok(())
    }
}

/// The sequential benchmark set: `s27` plus the registered generator
/// variants, as `(name, machine)` pairs.
#[must_use]
pub fn sequential_benchmark_suite(fast: bool) -> Vec<(String, sinw_switch::seq::SeqCircuit)> {
    sinw_switch::generate::sequential_suite(fast)
}

/// The sequential experiment: for every machine in
/// [`sequential_benchmark_suite`], insert a scan chain
/// (`SINW_SCAN=partial` scans every other flip-flop; anything else —
/// the default — scans all of them), run the **unchanged**
/// [`AtpgEngine`](sinw_atpg::AtpgEngine) stuck-at campaign on the
/// per-frame scan view through the service layer's compile path, unroll
/// `SINW_SEQ_FRAMES` time frames (default 2) for the size column, and
/// run the launch-on-capture [`TransitionAtpg`](sinw_atpg::TransitionAtpg)
/// campaign for two-pattern transition tests.
///
/// # Panics
///
/// Panics if the default and threaded transition engines disagree on the
/// produced pair set (a determinism-contract violation, not measurement
/// noise), or if a transition pair set fails its own verification
/// replay.
#[must_use]
pub fn sequential(fast: bool) -> SequentialResult {
    use sinw_atpg::tpg::{AtpgConfig, AtpgEngine};
    use sinw_atpg::transition::{
        enumerate_transition, simulate_transition, simulate_transition_threaded_lanes,
        TransitionAtpg, TransitionAtpgConfig,
    };
    use sinw_atpg::unroll::{unroll, UnrollConfig};
    use sinw_server::registry::compile_circuit;
    use sinw_switch::scan::{insert_scan, ScanPlan};

    let frames = std::env::var("SINW_SEQ_FRAMES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|k| *k >= 1)
        .unwrap_or(2);
    let full_scan = std::env::var("SINW_SCAN").map_or(true, |v| v.trim() != "partial");

    let rows = sequential_benchmark_suite(fast)
        .into_iter()
        .map(|(name, seq)| {
            let plan = if full_scan {
                ScanPlan::Full
            } else {
                ScanPlan::Partial((0..seq.state_width()).step_by(2).collect())
            };
            let scan = insert_scan(&seq, &plan);
            let seed = 0x5E9_D8A3_u64
                ^ name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
                });
            let compiled = compile_circuit(&format!("{name}-scan"), scan.circuit().clone());
            let unrolled = unroll(&seq, &UnrollConfig::full_observability(frames));

            // Phase 1: the unchanged stuck-at campaign on the scan view.
            let config = AtpgConfig {
                seed,
                max_random_blocks: if fast { 16 } else { 64 },
                ..AtpgConfig::default()
            };
            let t0 = std::time::Instant::now();
            let engine = AtpgEngine::new(compiled.circuit(), config);
            let sa = engine.run(&compiled.collapsed().representatives);
            let sa_ms = t0.elapsed().as_secs_f64() * 1e3;

            // Phase 2: launch-on-capture transition ATPG.
            let tr_config = TransitionAtpgConfig {
                seed: seed.rotate_left(17),
                max_random_blocks: if fast { 16 } else { 64 },
                ..TransitionAtpgConfig::default()
            };
            let t1 = std::time::Instant::now();
            let loc = TransitionAtpg::new(&seq, tr_config);
            let tr_faults = enumerate_transition(loc.circuit());
            let tr = loc.run(&tr_faults);
            let tr_ms = t1.elapsed().as_secs_f64() * 1e3;

            // Verification replay: default and threaded engines must
            // agree bit for bit, and the pair set must detect exactly the
            // faults the campaign classified as detected.
            let replay = simulate_transition(loc.circuit(), &tr_faults, &tr.pairs, true);
            let threaded = simulate_transition_threaded_lanes(
                loc.circuit(),
                &tr_faults,
                &tr.pairs,
                true,
                0,
                sinw_atpg::configured_lanes(),
            );
            assert_eq!(replay, threaded, "{name}: transition engine determinism");
            let classified: Vec<usize> = tr
                .statuses
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_detected())
                .map(|(i, _)| i)
                .collect();
            assert_eq!(replay.detected, classified, "{name}: pair-set verification");

            SequentialRow {
                name,
                inputs: seq.functional_inputs().len(),
                outputs: seq.functional_outputs().len(),
                dffs: seq.state_width(),
                scanned: scan.cells().len(),
                cells: seq.core().gates().len(),
                unrolled_cells: unrolled.circuit().gates().len(),
                sa_faults: sa.total_faults,
                sa_detected: sa.detected(),
                sa_untestable: sa.untestable,
                sa_patterns: sa.patterns.len(),
                sa_testable_coverage: sa.testable_coverage(),
                sa_ms,
                tr_faults: tr.total_faults,
                tr_detected: tr.detected_random + tr.detected_deterministic,
                tr_untestable: tr.untestable,
                tr_aborted: tr.aborted,
                tr_pairs: tr.pairs.len(),
                tr_testable_coverage: tr.testable_coverage(),
                tr_ms,
            }
        })
        .collect();
    SequentialResult {
        rows,
        frames,
        full_scan,
    }
}

/// Render the XOR2 dictionary in the paper's Table III layout.
#[must_use]
pub fn render_table3(dict: &CellDictionary) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table III — polarity-fault detection for the 2-input XOR"
    );
    let _ = writeln!(
        s,
        "  fault              t    vector  leakage  output   (paper: t1<-00 t2<-11 t3<-01 t4<-10)"
    );
    for fault in [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType] {
        for t in 0..4 {
            let detecting = dict.detecting(t, fault);
            if let Some(e) = detecting.first() {
                let v: String = e
                    .vector
                    .iter()
                    .map(|b| if *b { '1' } else { '0' })
                    .collect();
                let _ = writeln!(
                    s,
                    "  {:18} t{}   {:>4}    {:>7}  {:>6}",
                    fault.to_string(),
                    t + 1,
                    v,
                    if e.leakage_detect() { "yes" } else { "no" },
                    if e.output_detect() { "yes" } else { "no" }
                );
            } else {
                let _ = writeln!(s, "  {:18} t{}   (none)", fault.to_string(), t + 1);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_analog::measure::dc_leakage;

    /// Each Fig. 5 leakage, read from the pulsed cell's `t = 0` DC solve,
    /// equals the leakage of the static cell (every input of INV and XOR2
    /// held at 0 V) with the same floated gate, bit for bit.
    #[test]
    fn fig5_leakage_is_the_static_cells_dc_leakage() {
        let exp = Experiments::fast();
        let opts = SolverOpts::default();
        for (kind, t_index) in [(CellKind::Inv, 0), (CellKind::Xor2, 2)] {
            let waves = vec![Waveform::Dc(0.0); kind.input_count()];
            for p in exp.fig5(kind, t_index).points {
                for (which, leak) in [(1, p.leak_pgs_open), (2, p.leak_pgd_open)] {
                    let mut cell = AnalogCell::build(kind, exp.table.clone(), &waves);
                    cell.float_gate(t_index, which, p.vcut);
                    let want = dc_leakage(&cell, &opts).expect("static DC");
                    assert_eq!(
                        leak.to_bits(),
                        want.to_bits(),
                        "{kind:?} t{} gate {which} at Vcut {}: {leak:e} vs {want:e}",
                        t_index + 1,
                        p.vcut
                    );
                }
            }
        }
    }
}
