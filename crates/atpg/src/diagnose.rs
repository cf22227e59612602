//! Circuit-level fault dictionary and diagnosis: the reverse direction of
//! test generation.
//!
//! ATPG answers *"which pattern exposes which fault"*; a production test
//! flow also needs the converse — **given an observed failing response,
//! which fault is present?** The classical answer is a *fault dictionary*
//! (cf. the pass/fail dictionary methodology the paper's per-cell Table
//! III dictionaries instantiate at cell scale): simulate every modeled
//! fault against the test set once, record the full pass/fail response,
//! and look failing parts up by their observed signature.
//!
//! Full dictionaries are classically considered expensive — one faulty
//! simulation per fault × pattern with **no fault dropping** — which is
//! exactly what the event-driven PPSFP kernel makes affordable: the
//! signature-capture mode ([`capture_signatures`]) costs O(disturbed
//! cone) per fault × block, same as the detect-mask engines.
//!
//! The pieces:
//!
//! * [`FaultDictionary`] — built from a [`SignatureMatrix`], with faults
//!   sharing identical signatures merged into **indistinguishability
//!   classes** (one stored row per class). This is the
//!   diagnostic-resolution analogue of structural fault collapsing:
//!   `collapse` merges faults no pattern *can* distinguish, the
//!   dictionary merges faults this pattern set *does not* distinguish —
//!   every structural equivalence therefore lands in one class, so the
//!   compressed dictionary is strictly smaller than the per-fault matrix
//!   whenever collapsing would have merged anything.
//! * [`FaultDictionary::diagnose`] — rank candidate classes for an
//!   observed set of failing `(pattern, output)` probes: an exact
//!   signature match wins outright (and is unique, since class signatures
//!   are distinct); otherwise — a defect outside the modeled universe, a
//!   noisy observation — classes are ranked by Hamming distance between
//!   the observed and stored signatures.
//! * [`full_pass_observations`] — an *independent* observation oracle
//!   (whole-circuit simulation, no event kernel) used by the examples and
//!   the round-trip property suites to play the role of the tester.
//!
//! `sinw-core::experiments::diagnosis` drives dictionary construction
//! over the benchmark suite on the ATPG campaign's compacted pattern
//! sets; `tests/diagnosis.rs` pins the compression ratio and
//! [`FaultDictionary::build`] ≡ [`FaultDictionary::build_threaded`], and
//! perfbench's `signatures.direct_ms` row times the capture underneath.

use crate::fault_list::StuckAtFault;
use crate::faultsim::{
    capture_signatures, capture_signatures_threaded_lanes, configured_lanes, faulty_sim, good_sim,
    PatternBlock, SignatureMatrix,
};
use sinw_switch::gate::Circuit;
use std::collections::HashMap;

/// A compressed circuit-level pass/fail fault dictionary.
///
/// Rows are keyed by indistinguishability class, not by fault: faults
/// with identical [`SignatureMatrix`] rows share one stored signature.
/// Built by [`FaultDictionary::build`] (or its thread-parallel twin
/// [`FaultDictionary::build_threaded`]); queried by
/// [`FaultDictionary::diagnose`].
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    /// Number of faults the dictionary models.
    n_faults: usize,
    /// Number of patterns each signature spans.
    n_patterns: usize,
    /// Number of primary outputs each signature spans.
    n_outputs: usize,
    /// Packed words per class signature.
    words_per_row: usize,
    /// Class signatures, row-major, `classes * words_per_row` words.
    class_sigs: Vec<u64>,
    /// Members of each class (indices into the input fault list,
    /// ascending). Classes are ordered by first member.
    members: Vec<Vec<usize>>,
    /// For every input fault, the index of its class.
    class_of: Vec<usize>,
}

/// Aggregate dictionary statistics — the diagnostic-resolution summary
/// the experiment driver reports and `tests/diagnosis.rs` pins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictionaryStats {
    /// Faults modeled.
    pub faults: usize,
    /// Indistinguishability classes (stored rows).
    pub classes: usize,
    /// Patterns per signature.
    pub patterns: usize,
    /// Primary outputs per signature.
    pub outputs: usize,
    /// Bytes of the class-merged dictionary (stored rows only).
    pub compressed_bytes: usize,
    /// Bytes of the uncompressed per-fault matrix it replaces.
    pub uncompressed_bytes: usize,
    /// Mean class size (faults / classes).
    pub avg_class_size: f64,
    /// Largest class.
    pub max_class_size: usize,
    /// Classes with an all-pass signature (faults the pattern set never
    /// exposes — undetected or redundant; at most one such class exists).
    pub empty_classes: usize,
    /// Singleton classes — faults the pattern set resolves uniquely.
    pub singleton_classes: usize,
}

/// One ranked diagnosis candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagnosisCandidate {
    /// Class index into the dictionary.
    pub class: usize,
    /// Hamming distance between the observed and stored signatures.
    pub distance: usize,
    /// Whether the match is exact (`distance == 0`).
    pub exact: bool,
}

/// Ranked outcome of one [`FaultDictionary::diagnose`] call: candidates
/// ascending by Hamming distance (ties broken by class index), so an
/// exact match — unique when it exists — is always first.
#[derive(Debug, Clone)]
pub struct DiagnosisReport {
    /// All classes, ranked best-first.
    pub candidates: Vec<DiagnosisCandidate>,
}

impl DiagnosisReport {
    /// The best-ranked candidate (`None` only for an empty dictionary).
    #[must_use]
    pub fn best(&self) -> Option<&DiagnosisCandidate> {
        self.candidates.first()
    }

    /// The exactly-matching class, if the observed signature is in the
    /// dictionary.
    #[must_use]
    pub fn exact_match(&self) -> Option<usize> {
        self.candidates.first().filter(|c| c.exact).map(|c| c.class)
    }
}

impl FaultDictionary {
    /// Build a dictionary over `faults` × `patterns` with the 64-way
    /// bit-parallel signature-capture engine.
    #[must_use]
    pub fn build(circuit: &Circuit, faults: &[StuckAtFault], patterns: &[Vec<bool>]) -> Self {
        Self::from_signatures(&capture_signatures(circuit, faults, patterns))
    }

    /// [`FaultDictionary::build`] on the thread-parallel capture engine
    /// at the [`configured_lanes`] width (identical dictionary).
    /// `threads = 0` auto-detects.
    #[must_use]
    pub fn build_threaded(
        circuit: &Circuit,
        faults: &[StuckAtFault],
        patterns: &[Vec<bool>],
        threads: usize,
    ) -> Self {
        Self::from_signatures(&capture_signatures_threaded_lanes(
            circuit,
            faults,
            patterns,
            threads,
            configured_lanes(),
        ))
    }

    /// Merge a raw signature matrix into the class-compressed dictionary.
    #[must_use]
    pub fn from_signatures(signatures: &SignatureMatrix) -> Self {
        let n_faults = signatures.fault_count();
        let words_per_row = signatures.words_per_row();
        let mut first_seen: HashMap<&[u64], usize> = HashMap::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut class_of = Vec::with_capacity(n_faults);
        for fi in 0..n_faults {
            let row = signatures.row(fi);
            let class = *first_seen.entry(row).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            members[class].push(fi);
            class_of.push(class);
        }
        let mut class_sigs = vec![0u64; members.len() * words_per_row];
        for (c, m) in members.iter().enumerate() {
            class_sigs[c * words_per_row..(c + 1) * words_per_row]
                .copy_from_slice(signatures.row(m[0]));
        }
        FaultDictionary {
            n_faults,
            n_patterns: signatures.pattern_count(),
            n_outputs: signatures.output_count(),
            words_per_row,
            class_sigs,
            members,
            class_of,
        }
    }

    /// Rebuild a dictionary from its raw serialized parts — the inverse
    /// of walking [`class_signature`] and [`class_of`], used by
    /// `sinw-server` `.sinw` snapshot decoding so a restored dictionary
    /// is bit-identical to the one that was saved.
    ///
    /// `class_sigs` holds the per-class signature rows back to back
    /// (`classes * ceil(n_patterns * n_outputs / 64)` words); `class_of`
    /// maps every fault to its class. The invariants
    /// [`from_signatures`] guarantees are re-validated: class indices
    /// dense in `0..classes`, classes ordered by first member, every
    /// class non-empty.
    ///
    /// [`class_signature`]: FaultDictionary::class_signature
    /// [`class_of`]: FaultDictionary::class_of
    /// [`from_signatures`]: FaultDictionary::from_signatures
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant when the parts
    /// are inconsistent.
    pub fn from_raw_parts(
        n_patterns: usize,
        n_outputs: usize,
        class_sigs: Vec<u64>,
        class_of: Vec<usize>,
    ) -> Result<Self, String> {
        let payload_bits = n_patterns
            .checked_mul(n_outputs)
            .ok_or_else(|| String::from("pattern x output bit count overflows"))?;
        let words_per_row = payload_bits.div_ceil(64);
        let n_classes = if words_per_row == 0 {
            // Degenerate zero-width signatures: every fault shares the
            // one empty class (matching `from_signatures` on an empty
            // pattern set), so the class count comes from `class_of`.
            if !class_sigs.is_empty() {
                return Err(String::from(
                    "zero-width signatures cannot carry signature words",
                ));
            }
            usize::from(!class_of.is_empty())
        } else {
            if class_sigs.len() % words_per_row != 0 {
                return Err(format!(
                    "class signature words ({}) not a multiple of the {words_per_row}-word row",
                    class_sigs.len()
                ));
            }
            class_sigs.len() / words_per_row
        };
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
        let mut next_fresh = 0usize;
        for (fi, &class) in class_of.iter().enumerate() {
            if class >= n_classes {
                return Err(format!(
                    "fault {fi} maps to class {class}, but only {n_classes} classes exist"
                ));
            }
            if class > next_fresh {
                return Err(format!(
                    "class {class} first appears before class {next_fresh} \
                     (classes must be ordered by first member)"
                ));
            }
            if class == next_fresh {
                next_fresh += 1;
            }
            members[class].push(fi);
        }
        if next_fresh != n_classes {
            return Err(format!(
                "{n_classes} class signatures but only {next_fresh} classes referenced"
            ));
        }
        Ok(FaultDictionary {
            n_faults: class_of.len(),
            n_patterns,
            n_outputs,
            words_per_row,
            class_sigs,
            members,
            class_of,
        })
    }

    /// Number of faults modeled.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.n_faults
    }

    /// Number of indistinguishability classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// Number of patterns each signature spans.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.n_patterns
    }

    /// Number of primary outputs each signature spans.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.n_outputs
    }

    /// Members of one class (indices into the input fault list,
    /// ascending).
    #[must_use]
    pub fn class_members(&self, class: usize) -> &[usize] {
        &self.members[class]
    }

    /// Class index of every input fault, parallel to the fault list.
    #[must_use]
    pub fn class_of(&self) -> &[usize] {
        &self.class_of
    }

    /// One class's packed signature row.
    #[must_use]
    pub fn class_signature(&self, class: usize) -> &[u64] {
        &self.class_sigs[class * self.words_per_row..(class + 1) * self.words_per_row]
    }

    /// Whether a class's signature is all-pass (its faults are never
    /// exposed by the pattern set — undetected or redundant).
    #[must_use]
    pub fn class_is_empty(&self, class: usize) -> bool {
        self.class_signature(class).iter().all(|w| *w == 0)
    }

    /// Aggregate size / resolution statistics.
    #[must_use]
    pub fn stats(&self) -> DictionaryStats {
        let classes = self.class_count();
        let max_class_size = self.members.iter().map(Vec::len).max().unwrap_or(0);
        let singleton_classes = self.members.iter().filter(|m| m.len() == 1).count();
        let empty_classes = (0..classes).filter(|c| self.class_is_empty(*c)).count();
        DictionaryStats {
            faults: self.n_faults,
            classes,
            patterns: self.n_patterns,
            outputs: self.n_outputs,
            compressed_bytes: self.class_sigs.len() * 8,
            uncompressed_bytes: self.n_faults * self.words_per_row * 8,
            avg_class_size: if classes == 0 {
                0.0
            } else {
                self.n_faults as f64 / classes as f64
            },
            max_class_size,
            empty_classes,
            singleton_classes,
        }
    }

    /// Pack observed failing probes into a signature row.
    ///
    /// # Panics
    ///
    /// Panics if a probe's pattern or output index is out of range for
    /// the pattern set and circuit the dictionary was built over.
    fn pack_observation(&self, failures: &[(usize, usize)]) -> Vec<u64> {
        let mut row = vec![0u64; self.words_per_row];
        for &(pattern, output) in failures {
            assert!(
                pattern < self.n_patterns,
                "observed pattern {pattern} out of range ({} patterns)",
                self.n_patterns
            );
            assert!(
                output < self.n_outputs,
                "observed output {output} out of range ({} outputs)",
                self.n_outputs
            );
            let bit = pattern * self.n_outputs + output;
            row[bit / 64] |= 1u64 << (bit % 64);
        }
        row
    }

    /// Diagnose an observed response: `failures` lists every
    /// `(pattern index, primary output index)` probe at which the part
    /// under test disagreed with the good machine (an empty slice means
    /// the part passed everything — which matches the all-pass class of
    /// undetected/redundant faults, if one exists).
    ///
    /// Candidates are ranked ascending by Hamming distance between the
    /// observed signature and each class signature. A distance-0 (exact)
    /// match is unique when present — class signatures are distinct —
    /// and is ranked first; for responses outside the modeled universe
    /// the ranking degrades gracefully to nearest-match scoring.
    ///
    /// # Panics
    ///
    /// Panics if a probe's pattern or output index is out of range for
    /// the pattern set and circuit the dictionary was built over.
    #[must_use]
    pub fn diagnose(&self, failures: &[(usize, usize)]) -> DiagnosisReport {
        let observed = self.pack_observation(failures);
        let mut candidates: Vec<DiagnosisCandidate> = (0..self.class_count())
            .map(|class| {
                let distance = self
                    .class_signature(class)
                    .iter()
                    .zip(&observed)
                    .map(|(a, b)| (a ^ b).count_ones() as usize)
                    .sum();
                DiagnosisCandidate {
                    class,
                    distance,
                    exact: distance == 0,
                }
            })
            .collect();
        candidates.sort_by_key(|c| (c.distance, c.class));
        DiagnosisReport { candidates }
    }
}

/// The observation oracle: simulate one fault over a pattern set with the
/// **whole-circuit** reference pass (no event kernel, no `SimGraph`) and
/// return every failing `(pattern index, primary output index)` probe —
/// exactly what a tester comparing a defective part against the good
/// machine would log, and an implementation independent of the capture
/// engines (the round-trip property suites rely on that independence).
#[must_use]
pub fn full_pass_observations(
    circuit: &Circuit,
    fault: StuckAtFault,
    patterns: &[Vec<bool>],
) -> Vec<(usize, usize)> {
    let mut failures = Vec::new();
    for (bi, chunk) in patterns.chunks(64).enumerate() {
        let block: PatternBlock = PatternBlock::pack(circuit, chunk);
        let good = good_sim(circuit, &block);
        let faulty = faulty_sim(circuit, fault, &block);
        for (o, po) in circuit.primary_outputs().iter().enumerate() {
            let diff = (good[po.0] ^ faulty[po.0]) & block.mask();
            for k in diff.set_bits() {
                failures.push((bi * 64 + k, o));
            }
        }
    }
    failures.sort_unstable();
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_list::{enumerate_stuck_at, FaultSite};
    use sinw_switch::cells::CellKind;

    fn exhaustive_patterns(n_pi: usize) -> Vec<Vec<bool>> {
        (0..(1u32 << n_pi))
            .map(|bits| (0..n_pi).map(|k| (bits >> k) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn c17_dictionary_classes_partition_the_universe() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = exhaustive_patterns(5);
        let dict = FaultDictionary::build(&c, &faults, &patterns);
        let stats = dict.stats();
        assert_eq!(stats.faults, faults.len());
        assert_eq!(
            dict.class_of().len(),
            faults.len(),
            "every fault has a class"
        );
        let total: usize = (0..dict.class_count())
            .map(|c| dict.class_members(c).len())
            .sum();
        assert_eq!(total, faults.len(), "classes partition the fault list");
        // c17 is fully testable under the exhaustive set: no all-pass class.
        assert_eq!(stats.empty_classes, 0);
        // Structural equivalences (34 faults, 22 collapsed) guarantee
        // merging, so the dictionary must be strictly compressed.
        assert!(stats.classes < stats.faults);
        assert!(stats.compressed_bytes < stats.uncompressed_bytes);
        assert!(stats.avg_class_size > 1.0);
        assert!(stats.max_class_size >= 2);
    }

    #[test]
    fn classes_agree_with_structural_collapse_on_c17() {
        // Structurally equivalent faults are indistinguishable by *any*
        // pattern set, so they must share a dictionary class.
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let collapsed = crate::collapse::collapse(&c, &faults);
        let dict = FaultDictionary::build(&c, &faults, &exhaustive_patterns(5));
        for (fi, _) in faults.iter().enumerate() {
            for (fj, _) in faults.iter().enumerate() {
                if collapsed.class_of[fi] == collapsed.class_of[fj] {
                    assert_eq!(
                        dict.class_of()[fi],
                        dict.class_of()[fj],
                        "structural equivalents {fi}/{fj} split across classes"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_diagnosis_recovers_the_injected_class() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = exhaustive_patterns(5);
        let dict = FaultDictionary::build(&c, &faults, &patterns);
        for (fi, &fault) in faults.iter().enumerate() {
            let obs = full_pass_observations(&c, fault, &patterns);
            let report = dict.diagnose(&obs);
            let best = report.best().expect("non-empty dictionary");
            assert!(best.exact, "{}", fault.describe(&c));
            assert_eq!(best.class, dict.class_of()[fi]);
            assert_eq!(report.exact_match(), Some(dict.class_of()[fi]));
        }
    }

    #[test]
    fn unmodeled_responses_fall_back_to_nearest_match() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let patterns = exhaustive_patterns(5);
        let dict = FaultDictionary::build(&c, &faults, &patterns);
        // Perturb a real fault's observation by one probe: the true class
        // must surface within distance 1 and no exact match may fire.
        let obs = full_pass_observations(&c, faults[0], &patterns);
        let mut perturbed = obs.clone();
        let extra = (0..patterns.len())
            .flat_map(|p| (0..2).map(move |o| (p, o)))
            .find(|probe| !obs.contains(probe))
            .expect("some passing probe exists");
        perturbed.push(extra);
        perturbed.sort_unstable();
        let report = dict.diagnose(&perturbed);
        let best = report.best().expect("non-empty dictionary");
        assert_eq!(report.exact_match(), None);
        assert_eq!(best.distance, 1);
        assert_eq!(best.class, dict.class_of()[0]);
        // Ranking is monotone in distance.
        for pair in report.candidates.windows(2) {
            assert!(pair[0].distance <= pair[1].distance);
        }
    }

    #[test]
    fn all_pass_observation_matches_the_empty_class() {
        // An inverter chain with a dead branch: the unobservable faults
        // form the all-pass class, and a passing part diagnoses to it.
        let mut c = Circuit::new();
        let a = c.add_input("a");
        let kept = c.add_gate(CellKind::Inv, "kept", &[a]);
        let dead = c.add_gate(CellKind::Inv, "dead", &[kept]);
        c.mark_output(kept);
        let faults = enumerate_stuck_at(&c);
        let patterns = exhaustive_patterns(1);
        let dict = FaultDictionary::build(&c, &faults, &patterns);
        let stats = dict.stats();
        assert_eq!(stats.empty_classes, 1, "one all-pass class");
        let report = dict.diagnose(&[]);
        let best = report.best().expect("non-empty dictionary");
        assert!(best.exact);
        assert!(dict.class_is_empty(best.class));
        let dead_sa0 = faults
            .iter()
            .position(|f| f.site == FaultSite::Signal(dead) && !f.value)
            .expect("dead s-a-0 enumerated");
        assert!(dict.class_members(best.class).contains(&dead_sa0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_probes_are_rejected() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let dict = FaultDictionary::build(&c, &faults, &exhaustive_patterns(5));
        let _ = dict.diagnose(&[(99, 0)]);
    }

    #[test]
    fn empty_pattern_set_collapses_everything_into_one_class() {
        let c = Circuit::c17();
        let faults = enumerate_stuck_at(&c);
        let dict = FaultDictionary::build(&c, &faults, &[]);
        assert_eq!(dict.class_count(), 1);
        assert!(dict.class_is_empty(0));
        let report = dict.diagnose(&[]);
        assert_eq!(report.exact_match(), Some(0));
    }
}
