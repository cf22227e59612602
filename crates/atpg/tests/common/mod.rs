// Fixture circuits shared by the crate's unit tests (through
// `include!`, so no inner attributes here) and its integration suites
// (as `mod common`).

use sinw_switch::gate::{Circuit, SignalId};

/// Every fanout-free-region shape the stem kernel distinguishes:
/// every cell kind driving every pin of every cell kind through a
/// non-stem line, a four-gate fanout-free chain, POs with pin fanout
/// one and two, one signal on two pins of one gate (`Xor2(n, n)`,
/// `Maj3(m, m, b)`), a dead cone, and PIs that are also POs (one of
/// them read by gates too).
pub fn ffr_zoo() -> Circuit {
    use sinw_switch::cells::CellKind::{Inv, Maj3, Nand2, Nor2, Xor2, Xor3};
    let kinds = [Inv, Nand2, Nor2, Xor2, Xor3, Maj3];
    let mut c = Circuit::new();
    let pi: Vec<SignalId> = (0..5).map(|i| c.add_input(format!("i{i}"))).collect();
    let pick = |n: usize, from: usize| -> Vec<SignalId> {
        (0..n).map(|j| pi[(from + j) % pi.len()]).collect()
    };
    for (d, &driver) in kinds.iter().enumerate() {
        for (u, &user) in kinds.iter().enumerate() {
            for pin in 0..user.input_count() {
                let tag = format!("{d}_{u}_{pin}");
                let ins = pick(driver.input_count(), d + pin);
                let line = c.add_gate(driver, format!("d{tag}"), &ins);
                let mut ins = pick(user.input_count(), d + u + 1);
                ins[pin] = line;
                let out = c.add_gate(user, format!("u{tag}"), &ins);
                c.mark_output(out);
            }
        }
    }
    let ch1 = c.add_gate(Nor2, "ch1", &[pi[0], pi[1]]);
    let ch2 = c.add_gate(Maj3, "ch2", &[ch1, pi[2], pi[3]]);
    let ch3 = c.add_gate(Nand2, "ch3", &[pi[4], ch2]);
    let ch4 = c.add_gate(Xor3, "ch4", &[ch3, pi[0], pi[2]]);
    c.mark_output(ch4);
    let po1 = c.add_gate(Inv, "po1", &[pi[0]]);
    c.mark_output(po1);
    let after1 = c.add_gate(Nand2, "after1", &[po1, pi[1]]);
    c.mark_output(after1);
    let po2 = c.add_gate(Nand2, "po2", &[pi[1], pi[3]]);
    c.mark_output(po2);
    let after2 = c.add_gate(Inv, "after2", &[po2]);
    let join = c.add_gate(Nor2, "join", &[po2, after2]);
    c.mark_output(join);
    let n = c.add_gate(Nand2, "n", &[pi[0], pi[3]]);
    let xnn = c.add_gate(Xor2, "xnn", &[n, n]);
    let seen = c.add_gate(Xor2, "seen", &[xnn, pi[4]]);
    c.mark_output(seen);
    let m = c.add_gate(Nor2, "m", &[pi[1], pi[2]]);
    let mmb = c.add_gate(Maj3, "mmb", &[m, m, pi[4]]);
    c.mark_output(mmb);
    let dead = c.add_gate(Inv, "dead", &[mmb]);
    let _dead2 = c.add_gate(Nand2, "dead2", &[dead, pi[0]]);
    c.mark_output(pi[3]);
    let lone = c.add_input("lone");
    c.mark_output(lone);
    c
}
