//! Golden pins of both ATPG campaigns: the stuck-at [`AtpgEngine`] and
//! the launch-on-capture [`TransitionAtpg`].
//!
//! Each case runs one campaign under one configuration and compares its
//! report against literal values: every count, the PODEM call count,
//! the random-phase applied / kept counts, the pattern-set size before
//! and after compaction, and an FNV-1a-64 digest of the per-fault
//! statuses followed by every pattern (or pair) bit. The digest fixes
//! the order of every random draw: random-phase bits, broadside
//! functional bits, cube fills, merged-cube fills and top-up fills all
//! land in the pattern bits. A refactor of either campaign must leave
//! every literal here unchanged.

use sinw_atpg::{
    enumerate_transition, AtpgConfig, AtpgEngine, AtpgReport, CircuitTwoPattern, FaultStatus,
    TransitionAtpg, TransitionAtpgConfig, TransitionAtpgReport,
};
use sinw_switch::gate::Circuit;
use sinw_switch::generate::{
    carry_select_adder, pipelined_array_multiplier, pipelined_carry_select_adder,
};
use sinw_switch::iscas::{parse_bench_seq, S27_BENCH};
use sinw_switch::scan::{insert_scan, ScanPlan};
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

    fn bits(&mut self, bits: &[bool]) {
        for &b in bits {
            self.byte(u8::from(b));
        }
        // Pattern separator, so [ab][c] and [a][bc] differ.
        self.byte(0xFF);
    }
}

fn status_code(s: FaultStatus) -> u8 {
    match s {
        FaultStatus::Undetected => 0,
        FaultStatus::DetectedRandom => 1,
        FaultStatus::DetectedDeterministic => 2,
        FaultStatus::Untestable => 3,
        FaultStatus::Aborted => 4,
    }
}

fn status_digest(h: &mut Fnv, statuses: &[FaultStatus]) {
    for s in statuses {
        h.byte(status_code(*s));
    }
    h.byte(0xFE);
}

/// `[total, random, deterministic, untestable, aborted, podem_calls,
/// applied, kept, before_compaction, patterns]` plus the digest.
type StuckAtRow = ([usize; 10], u64);

fn stuck_at_row(r: &AtpgReport) -> StuckAtRow {
    let mut h = Fnv::new();
    status_digest(&mut h, &r.statuses);
    for p in &r.patterns {
        h.bits(p);
    }
    (
        [
            r.total_faults,
            r.detected_random,
            r.detected_deterministic,
            r.untestable,
            r.aborted,
            r.podem_calls,
            r.random_patterns_applied,
            r.random_patterns_kept,
            r.patterns_before_compaction,
            r.patterns.len(),
        ],
        h.0,
    )
}

/// `[total, random, deterministic, untestable, aborted, podem_calls,
/// pairs]` plus the digest.
type TransitionRow = ([usize; 7], u64);

fn transition_row(r: &TransitionAtpgReport) -> TransitionRow {
    let mut h = Fnv::new();
    status_digest(&mut h, &r.statuses);
    for CircuitTwoPattern { init, eval } in &r.pairs {
        h.bits(init);
        h.bits(eval);
    }
    (
        [
            r.total_faults,
            r.detected_random,
            r.detected_deterministic,
            r.untestable,
            r.aborted,
            r.podem_calls,
            r.pairs.len(),
        ],
        h.0,
    )
}

/// The four stuck-at configurations every combinational case runs.
fn stuck_at_configs() -> [(&'static str, AtpgConfig); 4] {
    let d = AtpgConfig::default();
    [
        ("default", d),
        ("random_only", d.random_only()),
        (
            "no_random",
            AtpgConfig {
                max_random_blocks: 0,
                ..d
            },
        ),
        (
            "no_compact",
            AtpgConfig {
                compact: false,
                ..d
            },
        ),
    ]
}

fn check_stuck_at(name: &str, circuit: &Circuit, config: AtpgConfig, want: StuckAtRow) {
    let (_, report) = AtpgEngine::run_collapsed(circuit, config);
    assert_eq!(stuck_at_row(&report), want, "stuck-at campaign {name}");
}

fn check_transition(
    name: &str,
    seq: &SeqCircuit,
    config: TransitionAtpgConfig,
    want: TransitionRow,
) {
    let engine = TransitionAtpg::new(seq, config);
    let faults = enumerate_transition(engine.circuit());
    let report = engine.run(&faults);
    assert_eq!(transition_row(&report), want, "transition campaign {name}");
}

fn check_stuck_at_configs(name: &str, circuit: &Circuit, want: [StuckAtRow; 4]) {
    for ((label, config), want) in stuck_at_configs().into_iter().zip(want) {
        check_stuck_at(&format!("{name}/{label}"), circuit, config, want);
    }
}

#[test]
fn c17_stuck_at_campaigns_are_pinned() {
    check_stuck_at_configs(
        "c17",
        &Circuit::c17(),
        [
            ([22, 22, 0, 0, 0, 0, 64, 6, 6, 5], 0xe0c7_f3f7_1f12_5ce3),
            ([22, 22, 0, 0, 0, 0, 64, 6, 6, 5], 0xe0c7_f3f7_1f12_5ce3),
            ([22, 0, 22, 0, 0, 9, 0, 0, 7, 6], 0x0ea9_8a90_1eb7_030c),
            ([22, 22, 0, 0, 0, 0, 64, 6, 6, 6], 0x4af3_8339_f3bc_ff9e),
        ],
    );
}

#[test]
fn ripple_adder_stuck_at_campaigns_are_pinned() {
    check_stuck_at_configs(
        "ripple4",
        &Circuit::ripple_adder(4),
        [
            ([82, 82, 0, 0, 0, 0, 64, 8, 8, 7], 0x870b_4868_0ece_ba55),
            ([82, 82, 0, 0, 0, 0, 64, 8, 8, 7], 0x870b_4868_0ece_ba55),
            ([82, 0, 82, 0, 0, 11, 0, 0, 9, 8], 0x1558_c923_68ed_c9e6),
            ([82, 82, 0, 0, 0, 0, 64, 8, 8, 8], 0x0d33_a957_75f1_743d),
        ],
    );
}

/// The carry-select adder's mux select-pin fault is redundant, so the
/// deterministic configurations reach the redundancy screen; the
/// `no_random` one also reaches the top-up PODEM calls after merging.
#[test]
fn carry_select_stuck_at_campaigns_are_pinned() {
    check_stuck_at_configs(
        "csa8_4",
        &carry_select_adder(8, 4),
        [
            (
                [234, 233, 0, 1, 0, 0, 320, 19, 19, 15],
                0xbb23_1be1_2b0f_0411,
            ),
            (
                [234, 233, 0, 0, 0, 0, 320, 19, 19, 15],
                0xb4d4_68cf_3e7f_7f12,
            ),
            ([234, 0, 233, 1, 0, 23, 0, 0, 16, 16], 0x9281_0dd9_2cf5_a114),
            (
                [234, 233, 0, 1, 0, 0, 320, 19, 19, 19],
                0xd87c_73b4_1a16_d86e,
            ),
        ],
    );
}

/// The full-scan views of two pipelined designs under the default
/// configuration.
#[test]
fn full_scan_stuck_at_campaigns_are_pinned() {
    let cases: [(&str, SeqCircuit, StuckAtRow); 2] = [
        (
            "csa5_2_reg",
            pipelined_carry_select_adder(5, 2),
            (
                [180, 178, 0, 2, 0, 0, 256, 16, 16, 11],
                0xacd2_9c0b_c627_aebd,
            ),
        ),
        (
            "mul6_reg",
            pipelined_array_multiplier(6),
            (
                [660, 660, 0, 0, 0, 0, 128, 21, 21, 20],
                0x7b0a_1854_89fe_5a92,
            ),
        ),
    ];
    for (name, seq, want) in cases {
        let scan = insert_scan(&seq, &ScanPlan::Full);
        check_stuck_at(name, scan.circuit(), AtpgConfig::default(), want);
    }
}

/// The transition configurations every sequential case runs.
fn transition_configs() -> [(&'static str, TransitionAtpgConfig); 3] {
    let d = TransitionAtpgConfig::default();
    [
        ("default", d),
        (
            "random_only",
            TransitionAtpgConfig {
                deterministic: false,
                ..d
            },
        ),
        (
            "no_compact",
            TransitionAtpgConfig {
                compact: false,
                ..d
            },
        ),
    ]
}

#[test]
fn transition_campaigns_are_pinned() {
    let cases: [(&str, SeqCircuit, [TransitionRow; 3]); 3] = [
        (
            "s27",
            parse_bench_seq(S27_BENCH).expect("embedded s27 parses"),
            [
                ([56, 47, 0, 9, 0, 9, 9], 0xa08b_71e9_e803_9522),
                ([56, 47, 0, 0, 0, 0, 9], 0x8647_f1e0_f972_dd73),
                ([56, 47, 0, 9, 0, 9, 15], 0x7bc0_521f_6692_0966),
            ],
        ),
        (
            "csa4_2_reg",
            pipelined_carry_select_adder(4, 2),
            [
                ([208, 207, 0, 1, 0, 1, 19], 0x3456_94b6_0fbb_cfdc),
                ([208, 207, 0, 0, 0, 0, 19], 0xa4d6_e1f3_e076_1aab),
                ([208, 207, 0, 1, 0, 1, 20], 0x1d04_f68a_8c5c_9ccc),
            ],
        ),
        (
            "mul3_reg",
            pipelined_array_multiplier(3),
            [
                ([222, 221, 1, 0, 0, 1, 19], 0x0e11_328a_14ee_516b),
                ([222, 221, 0, 0, 0, 0, 20], 0x2194_5f70_5e98_45c8),
                ([222, 221, 1, 0, 0, 1, 25], 0x70ce_7d84_cbfa_acaa),
            ],
        ),
    ];
    for (name, seq, want) in cases {
        for ((label, config), want) in transition_configs().into_iter().zip(want) {
            check_transition(&format!("{name}/{label}"), &seq, config, want);
        }
    }
}

/// No random phase: every fault goes through constrained PODEM and the
/// collateral drops. s27 is left out: two of its state-input faults
/// relocate onto a frame-0 stem that frame 0 also observes, so PODEM
/// returns a cube whose pair does not detect its own target, which the
/// campaign's debug assertion rejects.
#[test]
fn deterministic_only_transition_campaigns_are_pinned() {
    let cases: [(&str, SeqCircuit, TransitionRow); 2] = [
        (
            "csa4_2_reg",
            pipelined_carry_select_adder(4, 2),
            ([208, 0, 207, 1, 0, 22, 17], 0xae57_5ad7_043c_1593),
        ),
        (
            "mul3_reg",
            pipelined_array_multiplier(3),
            ([222, 0, 222, 0, 0, 25, 14], 0xc183_f575_6550_84df),
        ),
    ];
    for (name, seq, want) in cases {
        let config = TransitionAtpgConfig {
            max_random_blocks: 0,
            ..TransitionAtpgConfig::default()
        };
        check_transition(&format!("{name}/no_random"), &seq, config, want);
    }
}
