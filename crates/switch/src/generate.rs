//! Parametric benchmark-circuit generators.
//!
//! Scalable workloads for the fault-coverage experiments: ripple-carry and
//! carry-select adders, array multipliers and parity trees at arbitrary
//! width, all built from the Fig. 2 CP cell library (XOR3/MAJ3 full
//! adders are the paper's compact-realisation argument in action).
//!
//! [`Circuit::ripple_adder`] and [`Circuit::parity_tree`] live on
//! `Circuit` itself; this module adds the structures that need auxiliary
//! logic (selection muxes, partial-product ANDs) and a named
//! [`generated_suite`] the experiment drivers iterate over.
//!
//! ```
//! use sinw_switch::generate::array_multiplier;
//!
//! let m = array_multiplier(4);
//! assert_eq!(m.primary_inputs().len(), 8);
//! assert_eq!(m.primary_outputs().len(), 8); // full 8-bit product
//! ```

use crate::cells::CellKind;
use crate::gate::{Circuit, SignalId};
use crate::seq::{pipeline, SeqCircuit};

/// 2:1 selection mux: `out = x0` when `sel = 0`, `x1` when `sel = 1`,
/// built as `NAND(NAND(x0, sel̄), NAND(x1, sel))`. `nsel` is the
/// complemented select (shared across a block's muxes by the caller).
fn mux2(
    c: &mut Circuit,
    name: &str,
    sel: SignalId,
    nsel: SignalId,
    x0: SignalId,
    x1: SignalId,
) -> SignalId {
    let lo = c.add_gate(CellKind::Nand2, format!("{name}.lo"), &[x0, nsel]);
    let hi = c.add_gate(CellKind::Nand2, format!("{name}.hi"), &[x1, sel]);
    c.add_gate(CellKind::Nand2, name, &[lo, hi])
}

/// AND2 as the library provides it: `NAND2` + `INV`.
fn and2(c: &mut Circuit, name: &str, x: SignalId, y: SignalId) -> SignalId {
    let n = c.add_gate(CellKind::Nand2, format!("{name}.n"), &[x, y]);
    c.add_gate(CellKind::Inv, name, &[n])
}

/// OR2 as the library provides it: `NOR2` + `INV`.
fn or2(c: &mut Circuit, name: &str, x: SignalId, y: SignalId) -> SignalId {
    let n = c.add_gate(CellKind::Nor2, format!("{name}.n"), &[x, y]);
    c.add_gate(CellKind::Inv, name, &[n])
}

/// A `width`-bit carry-select adder with `block`-bit select blocks.
///
/// The first block ripples from `cin`; every later block computes both
/// carry branches speculatively (carry-in 0 and carry-in 1) and selects
/// sums and block carry with NAND-muxes once the real carry arrives —
/// the classic latency-for-area trade.
///
/// Primary inputs are `a0..a{width-1}`, `b0..b{width-1}`, `cin` (the same
/// convention as [`Circuit::ripple_adder`]); outputs are the sum bits in
/// LSB-first order followed by the final carry.
///
/// # Panics
///
/// Panics if `width` or `block` is zero.
#[must_use]
pub fn carry_select_adder(width: usize, block: usize) -> Circuit {
    assert!(width >= 1, "adder needs at least one bit");
    assert!(block >= 1, "block size must be at least one bit");
    let mut c = Circuit::new();
    let a: Vec<SignalId> = (0..width).map(|i| c.add_input(format!("a{i}"))).collect();
    let b: Vec<SignalId> = (0..width).map(|i| c.add_input(format!("b{i}"))).collect();
    let cin = c.add_input("cin");

    let mut sums: Vec<SignalId> = Vec::with_capacity(width);
    let mut carry = cin;
    let mut lo = 0usize;
    let mut first_block = true;
    while lo < width {
        let hi = (lo + block).min(width);
        if first_block {
            // Block 0 ripples directly from cin.
            for i in lo..hi {
                sums.push(c.add_gate(CellKind::Xor3, format!("s{i}"), &[a[i], b[i], carry]));
                carry = c.add_gate(CellKind::Maj3, format!("c{i}"), &[a[i], b[i], carry]);
            }
            first_block = false;
        } else {
            // Speculative branches: carry-in fixed at 0 and at 1. The
            // first bit degenerates (no carry signal exists for a
            // constant), the rest are ordinary XOR3/MAJ3 full adders.
            let mut s0 = Vec::with_capacity(hi - lo);
            let mut s1 = Vec::with_capacity(hi - lo);
            let mut c0 = None;
            let mut c1 = None;
            for i in lo..hi {
                match (c0, c1) {
                    (None, None) => {
                        // cin = 0: half adder; cin = 1: sum = XNOR, carry = OR.
                        let x = c.add_gate(CellKind::Xor2, format!("s0_{i}"), &[a[i], b[i]]);
                        s0.push(x);
                        c0 = Some(and2(&mut c, &format!("c0_{i}"), a[i], b[i]));
                        s1.push(c.add_gate(CellKind::Inv, format!("s1_{i}"), &[x]));
                        c1 = Some(or2(&mut c, &format!("c1_{i}"), a[i], b[i]));
                    }
                    (Some(p0), Some(p1)) => {
                        s0.push(c.add_gate(CellKind::Xor3, format!("s0_{i}"), &[a[i], b[i], p0]));
                        c0 = Some(c.add_gate(CellKind::Maj3, format!("c0_{i}"), &[a[i], b[i], p0]));
                        s1.push(c.add_gate(CellKind::Xor3, format!("s1_{i}"), &[a[i], b[i], p1]));
                        c1 = Some(c.add_gate(CellKind::Maj3, format!("c1_{i}"), &[a[i], b[i], p1]));
                    }
                    _ => unreachable!("branches advance together"),
                }
            }
            // Select with the incoming block carry.
            let nsel = c.add_gate(CellKind::Inv, format!("nsel{lo}"), &[carry]);
            for (k, i) in (lo..hi).enumerate() {
                sums.push(mux2(&mut c, &format!("s{i}"), carry, nsel, s0[k], s1[k]));
            }
            carry = mux2(
                &mut c,
                &format!("bc{hi}"),
                carry,
                nsel,
                c0.expect("non-empty block"),
                c1.expect("non-empty block"),
            );
        }
        lo = hi;
    }
    for s in sums {
        c.mark_output(s);
    }
    c.mark_output(carry);
    c
}

/// A `width`×`width` array multiplier: `width²` AND partial products
/// (NAND2·INV) reduced row by row with XOR3/MAJ3 full adders and
/// XOR2/AND half adders.
///
/// Primary inputs are `a0..a{width-1}`, `b0..b{width-1}`; outputs are the
/// product bits LSB-first. For `width ≥ 2` all `2·width` product bits are
/// driven; for `width = 1` the (constant-zero) high bit is omitted
/// because the cell library has no constant driver.
///
/// # Panics
///
/// Panics if `width` is zero.
#[must_use]
pub fn array_multiplier(width: usize) -> Circuit {
    assert!(width >= 1, "multiplier needs at least one bit");
    let mut c = Circuit::new();
    let a: Vec<SignalId> = (0..width).map(|i| c.add_input(format!("a{i}"))).collect();
    let b: Vec<SignalId> = (0..width).map(|i| c.add_input(format!("b{i}"))).collect();

    // Partial products pp[i][j] = a_i · b_j, weight 2^(i+j).
    let mut acc: Vec<Option<SignalId>> = vec![None; 2 * width];
    for (i, acc_i) in acc.iter_mut().take(width).enumerate() {
        *acc_i = Some(and2(&mut c, &format!("pp{i}_0"), a[i], b[0]));
    }
    for j in 1..width {
        let mut carry: Option<SignalId> = None;
        for (i, &a_i) in a.iter().enumerate() {
            let pos = i + j;
            let p = and2(&mut c, &format!("pp{i}_{j}"), a_i, b[j]);
            let mut ops: Vec<SignalId> = vec![p];
            if let Some(prev) = acc[pos] {
                ops.push(prev);
            }
            if let Some(cy) = carry {
                ops.push(cy);
            }
            let tag = format!("r{j}_{pos}");
            match ops.len() {
                1 => {
                    acc[pos] = Some(ops[0]);
                    carry = None;
                }
                2 => {
                    acc[pos] =
                        Some(c.add_gate(CellKind::Xor2, format!("{tag}.s"), &[ops[0], ops[1]]));
                    carry = Some(and2(&mut c, &format!("{tag}.c"), ops[0], ops[1]));
                }
                _ => {
                    acc[pos] = Some(c.add_gate(CellKind::Xor3, format!("{tag}.s"), &ops));
                    carry = Some(c.add_gate(CellKind::Maj3, format!("{tag}.c"), &ops));
                }
            }
        }
        // The row's carry out lands one position above the row's top bit,
        // which is vacant until now.
        if let Some(cy) = carry {
            debug_assert!(acc[width + j].is_none());
            acc[width + j] = Some(cy);
        }
    }
    for bit in acc.into_iter().flatten() {
        c.mark_output(bit);
    }
    c
}

/// The c6288-class scaling workload: a 64×64 [`array_multiplier`] —
/// the same array-multiplier structure as ISCAS-85 c6288 (a 16×16
/// array), scaled ×4 per side so the collapsed stuck-at universe clears
/// 100k faults. This is the fixture the wide-word/work-stealing PPSFP
/// benches and the golden scaling tests run on; the cell and fault
/// counts are pinned in `crates/atpg/tests/c6288_class.rs`.
#[must_use]
pub fn c6288_class() -> Circuit {
    array_multiplier(64)
}

/// The named generated workloads the fault-coverage experiments run over.
/// `fast` selects reduced widths for test runs.
#[must_use]
pub fn generated_suite(fast: bool) -> Vec<(String, Circuit)> {
    let (rca, csa, mul, par) = if fast { (8, 8, 3, 16) } else { (32, 32, 8, 64) };
    vec![
        (format!("rca{rca}"), Circuit::ripple_adder(rca)),
        (format!("csa{csa}"), carry_select_adder(csa, 4)),
        (format!("mul{mul}"), array_multiplier(mul)),
        (format!("par{par}"), Circuit::parity_tree(par)),
    ]
}

/// A registered (two-stage pipelined) carry-select adder: the
/// combinational [`carry_select_adder`] behind input and output register
/// banks ([`crate::seq::pipeline`]).
#[must_use]
pub fn pipelined_carry_select_adder(width: usize, block: usize) -> SeqCircuit {
    pipeline(&carry_select_adder(width, block))
}

/// A registered (two-stage pipelined) array multiplier.
#[must_use]
pub fn pipelined_array_multiplier(width: usize) -> SeqCircuit {
    pipeline(&array_multiplier(width))
}

/// The named *sequential* workloads the sequential experiments run over:
/// the embedded `s27` fixture plus registered variants of the generated
/// datapaths. `fast` selects reduced widths for test runs.
#[must_use]
pub fn sequential_suite(fast: bool) -> Vec<(String, SeqCircuit)> {
    let (csa, mul) = if fast { (4, 3) } else { (16, 6) };
    let s27 = crate::iscas::parse_bench_seq(crate::iscas::S27_BENCH)
        .expect("embedded s27 fixture parses");
    vec![
        ("s27".to_string(), s27),
        (
            format!("csa{csa}_reg"),
            pipelined_carry_select_adder(csa, 2),
        ),
        (format!("mul{mul}_reg"), pipelined_array_multiplier(mul)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Logic;

    fn bits(v: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn as_u64(outs: &[Logic]) -> u64 {
        outs.iter().enumerate().fold(0u64, |acc, (i, o)| {
            assert_ne!(*o, Logic::X, "fully specified inputs give binary outputs");
            acc | (u64::from(*o == Logic::One)) << i
        })
    }

    #[test]
    fn carry_select_adder_adds() {
        for (width, block) in [(1usize, 1usize), (4, 2), (9, 4), (16, 4)] {
            let c = carry_select_adder(width, block);
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            for (x, y, cin) in [
                (0u64, 0u64, false),
                (mask, 1, false),
                (mask, mask, true),
                (0x5A5A_5A5A & mask, 0x1234_5678 & mask, true),
            ] {
                let mut v = bits(x, width);
                v.extend(bits(y, width));
                v.push(cin);
                let outs = c.eval_outputs(&v);
                assert_eq!(outs.len(), width + 1);
                assert_eq!(
                    as_u64(&outs),
                    x + y + u64::from(cin),
                    "{x}+{y}+{cin} at width {width}/{block}"
                );
            }
        }
    }

    #[test]
    fn carry_select_matches_ripple_exhaustively_at_width_3() {
        let csa = carry_select_adder(3, 2);
        let rca = Circuit::ripple_adder(3);
        for input in 0..(1u64 << 7) {
            let v = bits(input, 7);
            assert_eq!(
                csa.eval_outputs(&v),
                rca.eval_outputs(&v),
                "input {input:#b}"
            );
        }
    }

    #[test]
    fn array_multiplier_multiplies() {
        for width in [1usize, 2, 3, 4] {
            let c = array_multiplier(width);
            for x in 0..(1u64 << width) {
                for y in 0..(1u64 << width) {
                    let mut v = bits(x, width);
                    v.extend(bits(y, width));
                    let outs = c.eval_outputs(&v);
                    assert_eq!(as_u64(&outs), x * y, "{x}*{y} at width {width}");
                }
            }
        }
    }

    #[test]
    fn generated_suite_is_well_formed() {
        for (name, c) in generated_suite(true) {
            assert!(!c.gates().is_empty(), "{name} has gates");
            assert!(!c.primary_outputs().is_empty(), "{name} has outputs");
        }
    }
}
