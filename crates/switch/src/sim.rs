//! The switch-level simulator: three-valued, strength-based relaxation with
//! charge retention and Vdd→GND leakage-path detection.
//!
//! The solver alternates two steps until fixpoint:
//!
//! 1. evaluate the CP conduction rule of every transistor from the current
//!    net values (honouring injected faults);
//! 2. re-solve all net values by flooding drive strengths from the rails,
//!    the primary inputs and finally the retained charge, strongest first.
//!
//! Unknown (X) gate values make a transistor's conduction *unknown*; a
//! second, optimistic flood through `On ∪ Unknown` edges decides whether a
//! net's definite value could be disturbed, in which case it degrades to X
//! (a simplified form of Bryant's MOSSIM ternary simulation).
//!
//! Charge retention across [`SwitchSim::apply`] calls is what gives
//! two-pattern stuck-open tests (Section V-C) their meaning.

use crate::fault::{BridgeKind, FaultSet, NetFault, TransistorFault};
use crate::netlist::{conduction_rule, Conduction, GateRole, NetId, NetKind, Netlist};
use crate::value::{Logic, Strength};

/// Estimated supply current of a circuit with a conducting Vdd→GND path
/// (a "functional short"), in amperes. The value is the ON-current scale of
/// the calibrated TIG device.
pub const I_SHORT: f64 = 1.0e-5;

/// Estimated quiescent leakage per transistor with no conducting path, in
/// amperes (sub-threshold floor of the calibrated device).
pub const I_LEAK_FLOOR: f64 = 1.0e-12;

/// Result of one vector evaluation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final logic value of every net.
    pub values: Vec<Logic>,
    /// Final drive strength of every net.
    pub strengths: Vec<Strength>,
    /// A definite conducting path between the rails exists.
    pub rail_short: bool,
    /// A rail short is possible through unknown-conduction devices.
    pub possible_rail_short: bool,
    /// Whether the relaxation reached a fixpoint.
    pub converged: bool,
}

impl SimResult {
    /// Value of a given net.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.0]
    }

    /// Estimated quiescent supply current (the IDDQ observable of
    /// Section V-B), in amperes.
    #[must_use]
    pub fn iddq(&self, transistor_count: usize) -> f64 {
        if self.rail_short {
            I_SHORT
        } else {
            I_LEAK_FLOOR * transistor_count.max(1) as f64
        }
    }
}

/// Switch-level simulator with per-instance fault set and charge state.
#[derive(Debug, Clone)]
pub struct SwitchSim<'a> {
    netlist: &'a Netlist,
    faults: FaultSet,
    /// Charge state carried between vectors.
    state: Vec<Logic>,
    /// Adjacency: for each net, (transistor index, other end).
    adjacency: Vec<Vec<(usize, usize)>>,
}

impl<'a> SwitchSim<'a> {
    /// Create a fault-free simulator; all nets start uncharged (X).
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut adjacency = vec![Vec::new(); netlist.net_count()];
        for (ti, t) in netlist.transistors().iter().enumerate() {
            adjacency[t.source.0].push((ti, t.drain.0));
            adjacency[t.drain.0].push((ti, t.source.0));
        }
        SwitchSim {
            netlist,
            faults: FaultSet::new(),
            state: vec![Logic::X; netlist.net_count()],
            adjacency,
        }
    }

    /// Create a simulator with an injected fault set.
    #[must_use]
    pub fn with_faults(netlist: &'a Netlist, faults: FaultSet) -> Self {
        let mut sim = Self::new(netlist);
        sim.faults = faults;
        sim
    }

    /// Replace the fault set (clears nothing else; charge is kept).
    pub fn set_faults(&mut self, faults: FaultSet) {
        self.faults = faults;
    }

    /// Forget all retained charge (power-up state).
    pub fn reset_charge(&mut self) {
        self.state.fill(Logic::X);
    }

    /// The conduction state of transistor `ti` under `values`, honouring
    /// the injected faults.
    fn conduction(&self, ti: usize, values: &[Logic]) -> Conduction {
        let t = &self.netlist.transistors()[ti];
        let mut broken = false;
        let mut stuck_on = false;
        let mut pg_override: Option<Logic> = None;
        let mut open: Option<GateRole> = None;
        for f in self.faults.on_transistor(crate::netlist::TransistorId(ti)) {
            match f {
                TransistorFault::ChannelBreak => broken = true,
                TransistorFault::StuckOn => stuck_on = true,
                TransistorFault::StuckAtNType => pg_override = Some(Logic::One),
                TransistorFault::StuckAtPType => pg_override = Some(Logic::Zero),
                TransistorFault::GateOpen(g) => open = Some(g),
            }
        }
        if broken {
            return Conduction::Off;
        }
        if stuck_on {
            return Conduction::On;
        }
        let read = |role: GateRole, net: NetId| -> Logic {
            if Some(role) == open {
                return Logic::X;
            }
            match role {
                GateRole::Cg => values[net.0],
                GateRole::Pgs | GateRole::Pgd => pg_override.unwrap_or(values[net.0]),
            }
        };
        conduction_rule(
            read(GateRole::Cg, t.cg),
            read(GateRole::Pgs, t.pgs),
            read(GateRole::Pgd, t.pgd),
        )
    }

    /// The forced value of nets affected by stuck-at net faults.
    fn net_stuck(&self, net: usize) -> Option<Logic> {
        for f in self.faults.net_faults() {
            if let NetFault::StuckAt(id, v) = f {
                if id.0 == net {
                    return Some(*v);
                }
            }
        }
        None
    }

    /// Flood values through the conduction graph, strongest drivers first.
    ///
    /// `edge_on` decides which conduction states count as connecting.
    fn flood(
        &self,
        conduction: &[Conduction],
        fixed: &[Option<(Strength, Logic)>],
        include_unknown: bool,
    ) -> Vec<(Strength, Logic)> {
        let n = self.netlist.net_count();
        let mut label: Vec<Option<(Strength, Logic)>> = vec![None; n];
        let edge_ok = |c: Conduction| {
            matches!(c, Conduction::On) || (include_unknown && matches!(c, Conduction::Unknown))
        };

        // The charge level is solved in two waves: output nets carry the
        // load capacitance (FO4 in the paper's experiments) and win charge
        // sharing against small internal nodes — a size-graded version of
        // Bryant's charge model. Wave 0 = Supply, 1 = Driven, 2 = charged
        // outputs, 3 = charged internal nodes.
        for wave in 0..4usize {
            let level = match wave {
                0 => Strength::Supply,
                1 => Strength::Driven,
                _ => Strength::Charged,
            };
            // Seeds of this level.
            let mut lv: Vec<Option<Logic>> = vec![None; n];
            let mut queue: Vec<usize> = Vec::new();
            for i in 0..n {
                if label[i].is_some() {
                    continue;
                }
                let seed = match wave {
                    0 | 1 => fixed[i].filter(|(s, _)| *s == level).map(|(_, v)| v),
                    2 => (self.netlist.nets()[i].kind == NetKind::Output).then_some(self.state[i]),
                    // Every still-unlabeled net holds its own charge.
                    _ => Some(self.state[i]),
                };
                if let Some(v) = seed {
                    lv[i] = Some(v);
                    queue.push(i);
                }
            }
            // Multi-source BFS with merge-to-X semantics.
            while let Some(u) = queue.pop() {
                let vu = lv[u].expect("queued nets are labeled");
                for &(ti, w) in &self.adjacency[u] {
                    if !edge_ok(conduction[ti]) {
                        continue;
                    }
                    // Nets already decided at a stronger level block the flood.
                    if label[w].is_some() {
                        continue;
                    }
                    // Externally fixed nets are ideal sources: they are
                    // never disturbed by the network (fights surface on the
                    // intermediate nets instead).
                    if fixed[w].is_some() {
                        continue;
                    }
                    match lv[w] {
                        None => {
                            lv[w] = Some(vu);
                            queue.push(w);
                        }
                        Some(x) if x == vu || x == Logic::X => {}
                        Some(_) => {
                            lv[w] = Some(Logic::X);
                            queue.push(w);
                        }
                    }
                }
            }
            for i in 0..n {
                if label[i].is_none() {
                    if let Some(v) = lv[i] {
                        label[i] = Some((level, v));
                    }
                }
            }
        }
        label
            .into_iter()
            .map(|l| l.expect("charge level labels every net"))
            .collect()
    }

    /// Fixed (externally imposed) value of each net for this vector.
    fn fixed_values(&self, inputs: &[(NetId, Logic)]) -> Vec<Option<(Strength, Logic)>> {
        let n = self.netlist.net_count();
        let mut fixed: Vec<Option<(Strength, Logic)>> = vec![None; n];
        for (i, net) in self.netlist.nets().iter().enumerate() {
            match net.kind {
                NetKind::Supply => fixed[i] = Some((Strength::Supply, Logic::One)),
                NetKind::Ground => fixed[i] = Some((Strength::Supply, Logic::Zero)),
                _ => {}
            }
        }
        for (id, v) in inputs {
            fixed[id.0] = Some((Strength::Driven, *v));
        }
        // Stuck-at net faults override everything at supply strength (a
        // hard short to a rail).
        for (i, slot) in fixed.iter_mut().enumerate() {
            if let Some(v) = self.net_stuck(i) {
                *slot = Some((Strength::Supply, v));
            }
        }
        fixed
    }

    /// Apply bridge faults to a freshly solved value vector.
    fn apply_bridges(&self, values: &mut [Logic], strengths: &mut [Strength]) {
        for f in self.faults.net_faults() {
            if let NetFault::Bridge(a, b, kind) = f {
                let (va, vb) = (values[a.0], values[b.0]);
                let resolved = match (va.to_bool(), vb.to_bool()) {
                    (Some(x), Some(y)) if x == y => va,
                    (Some(x), Some(y)) => match kind {
                        BridgeKind::WiredAnd => Logic::from_bool(x && y),
                        BridgeKind::WiredOr => Logic::from_bool(x || y),
                        BridgeKind::WiredX => Logic::X,
                    },
                    _ => Logic::X,
                };
                values[a.0] = resolved;
                values[b.0] = resolved;
                let s = strengths[a.0].max(strengths[b.0]);
                strengths[a.0] = s;
                strengths[b.0] = s;
            }
        }
    }

    /// Is there a conducting path between a Vdd net and a GND net?
    fn rail_short(&self, conduction: &[Conduction], include_unknown: bool) -> bool {
        let n = self.netlist.net_count();
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for (i, net) in self.netlist.nets().iter().enumerate() {
            if net.kind == NetKind::Supply {
                seen[i] = true;
                queue.push(i);
            }
        }
        let edge_ok = |c: Conduction| {
            matches!(c, Conduction::On) || (include_unknown && matches!(c, Conduction::Unknown))
        };
        while let Some(u) = queue.pop() {
            if self.netlist.nets()[u].kind == NetKind::Ground {
                return true;
            }
            for &(ti, w) in &self.adjacency[u] {
                if edge_ok(conduction[ti]) && !seen[w] {
                    seen[w] = true;
                    queue.push(w);
                }
            }
        }
        false
    }

    /// Evaluate one input vector, retaining charge from the previous one.
    ///
    /// `inputs` assigns logic values to input nets; unassigned inputs read
    /// their retained charge (usually X). Returns the solved state.
    pub fn apply(&mut self, inputs: &[(NetId, Logic)]) -> SimResult {
        let n = self.netlist.net_count();
        let fixed = self.fixed_values(inputs);

        // Start from the previous state with fixed values overriding.
        // `self.state` must stay untouched until convergence: `flood`
        // reads it as the retained-charge memory of waves 2–3.
        let mut values: Vec<Logic> = self.state.clone();
        for i in 0..n {
            if let Some((_, v)) = fixed[i] {
                values[i] = v;
            }
        }

        let mut conduction = vec![Conduction::Off; self.netlist.transistor_count()];
        let mut strengths = vec![Strength::Charged; n];
        let mut converged = false;
        for _ in 0..(8 + 2 * n) {
            for (ti, c) in conduction.iter_mut().enumerate() {
                *c = self.conduction(ti, &values);
            }
            let definite = self.flood(&conduction, &fixed, false);
            let optimistic = self.flood(&conduction, &fixed, true);
            let mut next: Vec<Logic> = Vec::with_capacity(n);
            for i in 0..n {
                let (sd, vd) = definite[i];
                let (so, vo) = optimistic[i];
                if vd == vo {
                    next.push(vd);
                    strengths[i] = sd;
                } else {
                    next.push(Logic::X);
                    strengths[i] = sd.max(so);
                }
            }
            self.apply_bridges(&mut next, &mut strengths);
            if next == values {
                converged = true;
                break;
            }
            values = next;
        }

        for (ti, c) in conduction.iter_mut().enumerate() {
            *c = self.conduction(ti, &values);
        }
        let rail_short = self.rail_short(&conduction, false);
        let possible_rail_short = self.rail_short(&conduction, true);

        // Re-establish the state by copying into the retired buffer
        // (same length every apply) instead of allocating a second clone
        // of `values`.
        self.state.clone_from(&values);
        SimResult {
            values,
            strengths,
            rail_short,
            possible_rail_short,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::TransistorId;

    /// Build the SP inverter of Fig. 2a: pull-up with PG at GND (p-mode
    /// when A=0), pull-down with PG at Vdd (n-mode when A=1).
    fn inverter() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new();
        let vdd = nl.add_net("vdd", NetKind::Supply);
        let gnd = nl.add_net("gnd", NetKind::Ground);
        let a = nl.add_net("a", NetKind::Input);
        let out = nl.add_net("out", NetKind::Output);
        nl.add_tig("t1", vdd, out, a, gnd);
        nl.add_tig("t3", gnd, out, a, vdd);
        (nl, a, out)
    }

    #[test]
    fn inverter_truth_table() {
        let (nl, a, out) = inverter();
        let mut sim = SwitchSim::new(&nl);
        let r0 = sim.apply(&[(a, Logic::Zero)]);
        assert_eq!(r0.value(out), Logic::One);
        assert!(!r0.rail_short);
        assert!(r0.converged);
        let r1 = sim.apply(&[(a, Logic::One)]);
        assert_eq!(r1.value(out), Logic::Zero);
        assert!(!r1.rail_short);
    }

    #[test]
    fn inverter_with_x_input_is_x() {
        let (nl, a, out) = inverter();
        let mut sim = SwitchSim::new(&nl);
        let r = sim.apply(&[(a, Logic::X)]);
        assert_eq!(r.value(out), Logic::X);
        assert!(r.possible_rail_short, "X input could short the rails");
        assert!(!r.rail_short);
    }

    #[test]
    fn stuck_on_pull_down_shorts_and_wins_nothing() {
        let (nl, a, out) = inverter();
        let mut faults = FaultSet::new();
        faults.inject(TransistorId(1), TransistorFault::StuckOn);
        let mut sim = SwitchSim::with_faults(&nl, faults);
        // A=0: pull-up on AND faulty pull-down on -> rail fight, X output,
        // and a definite rail short (the IDDQ signature).
        let r = sim.apply(&[(a, Logic::Zero)]);
        assert_eq!(r.value(out), Logic::X);
        assert!(r.rail_short);
        assert!(r.iddq(2) > 1e6 * I_LEAK_FLOOR * 2.0);
    }

    #[test]
    fn channel_break_floats_the_output() {
        let (nl, a, out) = inverter();
        let mut faults = FaultSet::new();
        faults.inject(TransistorId(0), TransistorFault::ChannelBreak);
        let mut sim = SwitchSim::with_faults(&nl, faults);
        // Initialise output low with A=1 (pull-down intact)...
        let r1 = sim.apply(&[(a, Logic::One)]);
        assert_eq!(r1.value(out), Logic::Zero);
        // ...then A=0: the broken pull-up cannot raise the output, which
        // retains its old charge — the classic two-pattern SOF observation.
        let r2 = sim.apply(&[(a, Logic::Zero)]);
        assert_eq!(r2.value(out), Logic::Zero);
        assert_eq!(r2.strengths[out.0], Strength::Charged);
    }

    #[test]
    fn charge_is_forgotten_after_reset() {
        let (nl, a, out) = inverter();
        let mut faults = FaultSet::new();
        faults.inject(TransistorId(0), TransistorFault::ChannelBreak);
        let mut sim = SwitchSim::with_faults(&nl, faults);
        sim.apply(&[(a, Logic::One)]);
        sim.reset_charge();
        let r = sim.apply(&[(a, Logic::Zero)]);
        assert_eq!(r.value(out), Logic::X, "uncharged floating output is X");
    }

    #[test]
    fn polarity_fault_changes_conduction() {
        // Stuck-at n-type on the pull-up: PGs read '1', so the device
        // conducts iff CG = 1, i.e. at A=1 — together with the healthy
        // pull-down this shorts the rails (Section V-B).
        let (nl, a, _out) = inverter();
        let mut faults = FaultSet::new();
        faults.inject(TransistorId(0), TransistorFault::StuckAtNType);
        let mut sim = SwitchSim::with_faults(&nl, faults);
        let r1 = sim.apply(&[(a, Logic::One)]);
        assert!(r1.rail_short, "stuck-at-n pull-up must short at A=1");
        let r0 = sim.apply(&[(a, Logic::Zero)]);
        assert!(!r0.rail_short, "no short at A=0 (device off: CG=0, PG=1)");
        // At A=0 the pull-up is now OFF (mixed gates) and the pull-down is
        // off too -> the output floats at its retained value.
        assert_eq!(
            r0.strengths[nl.find_net("out").unwrap().0],
            Strength::Charged
        );
    }

    #[test]
    fn gate_open_makes_conduction_unknown() {
        let (nl, a, out) = inverter();
        let mut faults = FaultSet::new();
        faults.inject(TransistorId(0), TransistorFault::GateOpen(GateRole::Pgs));
        let mut sim = SwitchSim::with_faults(&nl, faults);
        // A=0: pull-up *should* drive 1 but its PGS floats: the definite
        // solve says charged-X, the optimistic says driven-1 -> X output
        // and a possible (not definite) rail short... with the pull-down
        // off, there is no short path at all.
        let r = sim.apply(&[(a, Logic::Zero)]);
        assert_eq!(r.value(out), Logic::X);
        assert!(!r.rail_short);
    }
}
