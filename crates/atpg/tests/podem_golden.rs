//! Golden pin of PODEM's outputs.
//!
//! Every case runs a fixed list of PODEM calls and folds each result into
//! one FNV-1a-64 digest: a tag byte per result (test, untestable,
//! aborted, no justification) followed, for a test cube, by one byte per
//! primary input (0, 1, or 2 for a don't-care). The digest therefore
//! fixes every decision the search takes that reaches its answer: which
//! inputs a cube specifies, their values, and where the backtrack limit
//! cuts a search off. A change to the implication engine must leave
//! every literal here unchanged.
//!
//! The calls are the ones the campaigns make:
//! - the transition targets of registered designs, each as
//!   `generate_test_constrained` on the 2-frame unroll with its frame-0
//!   constraint, built the way `TransitionAtpg::run` builds them, then
//!   `justify` of that constraint alone;
//! - `generate_test` over the stuck-at universes of small combinational
//!   fixtures.
//!
//! The literals were taken with the search that re-simulated the whole
//! circuit after every decision, before implication became
//! event-driven.

use sinw_atpg::{
    enumerate_stuck_at, enumerate_transition, generate_test, generate_test_constrained, justify,
    FaultSite, PodemConfig, PodemResult, StuckAtFault, TransitionAtpg, TransitionAtpgConfig,
};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{pipelined_array_multiplier, pipelined_carry_select_adder};
use sinw_switch::seq::SeqCircuit;

/// A stable 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn cube(&mut self, cube: &[Option<bool>]) {
        for v in cube {
            self.byte(match v {
                Some(false) => 0,
                Some(true) => 1,
                None => 2,
            });
        }
    }

    fn result(&mut self, r: &PodemResult) {
        match r {
            PodemResult::Test(cube) => {
                self.byte(0);
                self.cube(cube);
            }
            PodemResult::Untestable => self.byte(1),
            PodemResult::Aborted => self.byte(2),
        }
    }

    fn justified(&mut self, r: &Option<Vec<Option<bool>>>) {
        match r {
            Some(cube) => {
                self.byte(0);
                self.cube(cube);
            }
            None => self.byte(3),
        }
    }
}

/// Digest of every transition target of `seq`'s LOC campaign: the
/// constrained search on the 2-frame unroll, then the justification of
/// its frame-0 constraint.
fn transition_digest(seq: &SeqCircuit) -> u64 {
    let atpg = TransitionAtpg::new(seq, TransitionAtpgConfig::default());
    let config = PodemConfig::default();
    let circuit = atpg.circuit();
    let unrolled = atpg.unrolled();
    let mut h = Fnv::new();
    for f in enumerate_transition(circuit) {
        let target = StuckAtFault {
            site: unrolled.fault_at(1, f.site),
            value: f.init_value(),
        };
        let stem = match f.site {
            FaultSite::Signal(s) => s,
            FaultSite::GatePin(g, pin) => circuit.gates()[g.0].inputs[pin],
        };
        let constraint = [(unrolled.signal_at(0, stem), f.init_value())];
        h.result(&generate_test_constrained(
            unrolled.circuit(),
            target,
            &constraint,
            &config,
        ));
        h.justified(&justify(unrolled.circuit(), &constraint, &config));
    }
    h.0
}

/// Digest of `generate_test` over `circuit`'s stuck-at universe.
fn stuck_at_digest(circuit: &Circuit) -> u64 {
    let config = PodemConfig::default();
    let mut h = Fnv::new();
    for fault in enumerate_stuck_at(circuit) {
        h.result(&generate_test(circuit, fault, &config));
    }
    h.0
}

#[test]
fn podem_results_are_pinned_on_small_fixtures() {
    for (name, circuit, want) in [
        ("c17", Circuit::c17(), 0xB838_EFC7_E87B_0127_u64),
        ("full adder", Circuit::full_adder(), 0x5873_A885_722B_E15D),
        ("parity(8)", Circuit::parity_tree(8), 0x50A3_5EEA_E966_101A),
        ("ripple(4)", Circuit::ripple_adder(4), 0x6614_E4CE_6483_1009),
    ] {
        assert_eq!(stuck_at_digest(&circuit), want, "{name}");
    }
}

/// The designs of the test-generation benchmark. The carry-select ones
/// hold the searches that end untestable or at the backtrack limit.
#[test]
fn podem_results_are_pinned_on_registered_designs() {
    for (name, seq, want) in [
        (
            "csa5_2_reg",
            pipelined_carry_select_adder(5, 2),
            0xB68A_DB77_9194_161C_u64,
        ),
        (
            "csa6_3_reg",
            pipelined_carry_select_adder(6, 3),
            0x53F6_5E11_413F_14FC,
        ),
        (
            "csa8_4_reg",
            pipelined_carry_select_adder(8, 4),
            0xCD9E_7063_B76B_EE14,
        ),
        (
            "mul6_reg",
            pipelined_array_multiplier(6),
            0xD9BA_037F_7F0A_C5DD,
        ),
    ] {
        assert_eq!(transition_digest(&seq), want, "{name}");
    }
}
