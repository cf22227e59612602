//! MNA solver: Newton–Raphson DC operating point with source stepping, and
//! Backward-Euler transient analysis.
//!
//! Each analysis has a cold entry point and a warm one:
//! - [`dc`] / [`dc_at`] start Newton from 0 V at gmin 1e-9 and step gmin
//!   down to the requested value; [`dc_from`] runs Newton at the requested
//!   gmin straight from a neighbouring circuit's operating point (a fault
//!   injected into a just-solved healthy cell) and falls back to [`dc`]
//!   when that fails.
//! - [`transient`] solves its own initial condition; [`transient_from`]
//!   takes one the caller has already solved.
//!
//! The unknown vector is `[v_1 … v_{N−1}, i_1 … i_M]` — node voltages
//! (ground excluded) followed by the branch currents of the voltage
//! sources. TIG-FETs are linearised each Newton iteration from the lookup
//! table's value and the exact partials of its interpolant
//! ([`sinw_device::table::TigTable::current_and_gradients`]), taken in one
//! pass over the bias's grid cell.

use crate::circuit::{AnalogCircuit, Element, NodeId};
use crate::linalg::Matrix;
use sinw_device::model::Bias;

/// Solver options.
#[derive(Debug, Clone, Copy)]
pub struct SolverOpts {
    /// Maximum Newton iterations per solve.
    pub max_iter: usize,
    /// Convergence criterion on the voltage update, in volts.
    pub v_tol: f64,
    /// Maximum voltage step per Newton iteration (damping), in volts.
    pub damping: f64,
    /// Conductance from every node to ground, in siemens (aids
    /// convergence on floating nodes).
    pub gmin: f64,
    /// Number of source-stepping ramps tried when plain Newton fails.
    pub source_steps: usize,
}

impl Default for SolverOpts {
    fn default() -> Self {
        SolverOpts {
            max_iter: 400,
            v_tol: 1e-9,
            damping: 0.25,
            gmin: 1e-12,
            source_steps: 8,
        }
    }
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// Newton failed to converge even with source stepping.
    NoConvergence,
    /// The MNA matrix was singular.
    Singular,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoConvergence => write!(f, "newton iteration did not converge"),
            SolveError::Singular => write!(f, "singular MNA matrix"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A DC operating point.
#[derive(Debug, Clone)]
pub struct DcSolution {
    /// Voltage of every node (index 0 = ground = 0 V).
    pub v: Vec<f64>,
    /// Branch current of every voltage source, flowing internally from the
    /// positive to the negative terminal. The current *delivered* by a
    /// supply is `-i_src`.
    pub i_src: Vec<f64>,
}

impl DcSolution {
    /// Voltage at a node.
    #[must_use]
    pub fn voltage(&self, n: NodeId) -> f64 {
        self.v[n.0]
    }

    /// Current delivered by source `k` (positive when powering the
    /// circuit).
    #[must_use]
    pub fn delivered(&self, k: crate::circuit::SourceId) -> f64 {
        -self.i_src[k.0]
    }
}

/// A transient waveform record.
#[derive(Debug, Clone)]
pub struct Transient {
    /// Sample times in seconds.
    pub time: Vec<f64>,
    /// `node_v[k][n]` = voltage of node `n` at time `time[k]`.
    pub node_v: Vec<Vec<f64>>,
    /// `i_src[k][m]` = branch current of source `m` at `time[k]`.
    pub i_src: Vec<Vec<f64>>,
}

impl Transient {
    /// Waveform of one node.
    #[must_use]
    pub fn node_waveform(&self, n: NodeId) -> Vec<(f64, f64)> {
        self.time
            .iter()
            .zip(&self.node_v)
            .map(|(t, v)| (*t, v[n.0]))
            .collect()
    }
}

enum Mode<'a> {
    /// Operating point with every source waveform scaled by `scale`
    /// (source stepping ramps it up to 1).
    Dc { scale: f64 },
    /// One Backward-Euler step of size `h` from the node voltages `v_prev`.
    Tran { h: f64, v_prev: &'a [f64] },
}

/// Assemble the KCL residual at the current guess `x`, and the Jacobian
/// when `jac` is given.
///
/// A residual-only assembly reads each TIG-FET's current from
/// `TigTable::current`; a Jacobian assembly reads the same current and its
/// exact partials from one `TigTable::current_and_gradients` call.
///
/// The TIG-FET self-conductance is floored at a small positive value: the
/// multilinear table can exhibit spurious negative differential
/// conductance between grid cells, and a regularised (quasi-Newton)
/// Jacobian keeps the damped iteration stable without changing the
/// converged solution (the residual is always exact).
#[allow(clippy::too_many_lines)]
fn assemble(
    ckt: &AnalogCircuit,
    x: &[f64],
    t: f64,
    mode: &Mode<'_>,
    opts: &SolverOpts,
    jac: Option<&mut Matrix>,
    residual: &mut [f64],
) {
    let n_nodes = ckt.node_count();
    let row = |n: NodeId| -> Option<usize> { (n.0 > 0).then(|| n.0 - 1) };
    let volt = |n: NodeId| -> f64 {
        if n.0 == 0 {
            0.0
        } else {
            x[n.0 - 1]
        }
    };
    let scale = match mode {
        Mode::Dc { scale } => *scale,
        Mode::Tran { .. } => 1.0,
    };
    residual.fill(0.0);
    let mut jac = jac;
    if let Some(j) = jac.as_deref_mut() {
        j.clear();
    }
    for n in 1..n_nodes {
        let r = n - 1;
        if let Some(j) = jac.as_deref_mut() {
            j.add(r, r, opts.gmin);
        }
        residual[r] += opts.gmin * x[r];
    }

    let mut src_idx = 0usize;
    for e in ckt.elements() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let i = g * (volt(*a) - volt(*b));
                if let Some(r) = row(*a) {
                    residual[r] += i;
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, r, g);
                        if let Some(c) = row(*b) {
                            j.add(r, c, -g);
                        }
                    }
                }
                if let Some(r) = row(*b) {
                    residual[r] -= i;
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, r, g);
                        if let Some(c) = row(*a) {
                            j.add(r, c, -g);
                        }
                    }
                }
            }
            Element::Capacitor { a, b, farads } => {
                if let Mode::Tran { h, v_prev } = mode {
                    let g = farads / h;
                    let pa = if a.0 == 0 { 0.0 } else { v_prev[a.0] };
                    let pb = if b.0 == 0 { 0.0 } else { v_prev[b.0] };
                    let i = g * ((volt(*a) - volt(*b)) - (pa - pb));
                    if let Some(r) = row(*a) {
                        residual[r] += i;
                        if let Some(j) = jac.as_deref_mut() {
                            j.add(r, r, g);
                            if let Some(c) = row(*b) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                    if let Some(r) = row(*b) {
                        residual[r] -= i;
                        if let Some(j) = jac.as_deref_mut() {
                            j.add(r, r, g);
                            if let Some(c) = row(*a) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                }
            }
            Element::Vsource { pos, neg, wave } => {
                let k = (n_nodes - 1) + src_idx;
                let target = scale * wave.at(t);
                if let Some(r) = row(*pos) {
                    residual[r] += x[k];
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, k, 1.0);
                    }
                }
                if let Some(r) = row(*neg) {
                    residual[r] -= x[k];
                    if let Some(j) = jac.as_deref_mut() {
                        j.add(r, k, -1.0);
                    }
                }
                if let Some(j) = jac.as_deref_mut() {
                    if let Some(c) = row(*pos) {
                        j.add(k, c, 1.0);
                    }
                    if let Some(c) = row(*neg) {
                        j.add(k, c, -1.0);
                    }
                }
                residual[k] += (volt(*pos) - volt(*neg)) - target;
                src_idx += 1;
            }
            Element::TigFet {
                d,
                cg,
                pgs,
                pgd,
                s,
                broken,
            } => {
                if *broken {
                    continue;
                }
                let vs = volt(*s);
                let bias = Bias {
                    v_cg: volt(*cg) - vs,
                    v_pgs: volt(*pgs) - vs,
                    v_pgd: volt(*pgd) - vs,
                    v_ds: volt(*d) - vs,
                };
                let i_d = if let Some(j) = jac.as_deref_mut() {
                    let (i_d, [g_cg, g_pgs, g_pgd, g_ds]) = ckt.table.current_and_gradients(bias);
                    // Regularise: floor the channel self-conductance.
                    let g_ds = g_ds.max(1.0e-9);
                    let g_s = -(g_cg + g_pgs + g_pgd + g_ds);
                    let stamps: [(NodeId, f64); 5] = [
                        (*cg, g_cg),
                        (*pgs, g_pgs),
                        (*pgd, g_pgd),
                        (*d, g_ds),
                        (*s, g_s),
                    ];
                    if let Some(r) = row(*d) {
                        for (node, g) in stamps {
                            if let Some(c) = row(node) {
                                j.add(r, c, g);
                            }
                        }
                    }
                    if let Some(r) = row(*s) {
                        for (node, g) in stamps {
                            if let Some(c) = row(node) {
                                j.add(r, c, -g);
                            }
                        }
                    }
                    i_d
                } else {
                    ckt.table.current(bias)
                };
                if let Some(r) = row(*d) {
                    residual[r] += i_d;
                }
                if let Some(r) = row(*s) {
                    residual[r] -= i_d;
                }
            }
        }
    }
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// One Newton solve at time `t` in analysis mode `mode`.
///
/// `x` holds the initial guess and is updated in place.
fn newton(
    ckt: &AnalogCircuit,
    x: &mut [f64],
    t: f64,
    mode: &Mode<'_>,
    opts: &SolverOpts,
) -> Result<(), SolveError> {
    let n_nodes = ckt.node_count();
    let dim = ckt.unknowns();

    let mut jac = Matrix::zeros(dim);
    let mut residual = vec![0.0f64; dim];
    let mut trial = vec![0.0f64; dim];
    let mut res_trial = vec![0.0f64; dim];

    for _ in 0..opts.max_iter {
        assemble(ckt, x, t, mode, opts, Some(&mut jac), &mut residual);
        let norm0 = max_abs(&residual);
        if norm0 < 1e-13 {
            return Ok(());
        }
        let neg_res: Vec<f64> = residual.iter().map(|r| -r).collect();
        let delta = jac.solve(&neg_res).ok_or(SolveError::Singular)?;

        // Damped line search on the residual norm.
        let mut alpha = 1.0f64;
        let mut max_dv = 0.0f64;
        let mut accepted = false;
        for _ in 0..8 {
            max_dv = 0.0;
            for k in 0..dim {
                let mut step = alpha * delta[k];
                if k < n_nodes - 1 {
                    step = step.clamp(-opts.damping, opts.damping);
                    max_dv = max_dv.max(step.abs());
                }
                trial[k] = x[k] + step;
            }
            assemble(ckt, &trial, t, mode, opts, None, &mut res_trial);
            let norm1 = max_abs(&res_trial);
            if norm1 <= norm0 || max_dv < opts.v_tol {
                accepted = true;
                break;
            }
            alpha *= 0.5;
        }
        if !accepted {
            // Take the smallest step anyway; the fallback damping below
            // may still pull the iteration into the convergent basin.
        }
        x.copy_from_slice(&trial);
        // Converged in voltage; verify the residual is healthy. The line
        // search's last assembly ran on `trial`, now copied into `x`, so
        // `res_trial` already holds the residual at `x`.
        if max_dv < opts.v_tol && max_abs(&res_trial) < 1e-10 {
            return Ok(());
        }
    }
    Err(SolveError::NoConvergence)
}

/// DC operating point at time `t` (source waveforms evaluated at `t`).
///
/// # Errors
///
/// Returns [`SolveError`] when Newton fails even with source stepping.
pub fn dc_at(ckt: &AnalogCircuit, t: f64, opts: &SolverOpts) -> Result<DcSolution, SolveError> {
    let mut x = vec![0.0f64; ckt.unknowns()];

    // Solve at a comfortable gmin first, then step gmin down to the
    // requested value with warm starts (classic gmin stepping). If a
    // refinement step fails, the last converged solution is kept — its
    // gmin artifact is at worst the coarser level.
    let mut work = *opts;
    work.gmin = opts.gmin.max(1e-9);
    if newton(ckt, &mut x, t, &Mode::Dc { scale: 1.0 }, &work).is_err() {
        // Source stepping: ramp the supplies up gradually.
        x.fill(0.0);
        let stepped = (1..=work.source_steps).try_for_each(|step| {
            let scale = step as f64 / work.source_steps as f64;
            newton(ckt, &mut x, t, &Mode::Dc { scale }, &work)
        });
        if stepped.is_err() {
            // Last resort: heavily damped relaxation from zero.
            x.fill(0.0);
            let mut slow = work;
            slow.damping = 0.04;
            slow.max_iter = 4000;
            newton(ckt, &mut x, t, &Mode::Dc { scale: 1.0 }, &slow)?;
        }
    }
    while work.gmin > opts.gmin * 1.001 {
        work.gmin = (work.gmin / 10.0).max(opts.gmin);
        let backup = x.clone();
        if newton(ckt, &mut x, t, &Mode::Dc { scale: 1.0 }, &work).is_err() {
            x = backup;
            break;
        }
    }
    Ok(unpack(ckt, &x))
}

/// DC operating point with all waveforms at `t = 0`.
///
/// # Errors
///
/// Returns [`SolveError`] when Newton fails even with source stepping.
pub fn dc(ckt: &AnalogCircuit, opts: &SolverOpts) -> Result<DcSolution, SolveError> {
    dc_at(ckt, 0.0, opts)
}

/// DC operating point with all waveforms at `t = 0`, warm-started from
/// `guess`: Newton runs at `opts.gmin` straight from it, with no gmin
/// ladder. When `guess` has a different unknown count, or Newton fails
/// from it, the answer is the cold [`dc`]'s, bit for bit.
///
/// `guess` is typically the operating point of a circuit one edit away,
/// such as the healthy cell a polarity fault is injected into.
///
/// # Errors
///
/// Returns [`SolveError`] when the cold fallback fails.
pub fn dc_from(
    ckt: &AnalogCircuit,
    guess: &DcSolution,
    opts: &SolverOpts,
) -> Result<DcSolution, SolveError> {
    match warm_newton(ckt, guess, opts) {
        Some(x) => Ok(unpack(ckt, &x)),
        None => dc(ckt, opts),
    }
}

/// [`dc_from`]'s warm attempt: the converged unknowns, or `None` when the
/// shapes differ or Newton fails from `guess`.
fn warm_newton(ckt: &AnalogCircuit, guess: &DcSolution, opts: &SolverOpts) -> Option<Vec<f64>> {
    if !fits(ckt, guess) {
        return None;
    }
    let mut x = pack(guess);
    newton(ckt, &mut x, 0.0, &Mode::Dc { scale: 1.0 }, opts).ok()?;
    Some(x)
}

/// Whether `sol` has `ckt`'s node count and unknown count.
fn fits(ckt: &AnalogCircuit, sol: &DcSolution) -> bool {
    sol.v.len() == ckt.node_count() && sol.v.len() - 1 + sol.i_src.len() == ckt.unknowns()
}

/// The unknown vector of a solution (ground dropped).
fn pack(sol: &DcSolution) -> Vec<f64> {
    [&sol.v[1..], &sol.i_src[..]].concat()
}

fn unpack(ckt: &AnalogCircuit, x: &[f64]) -> DcSolution {
    let n_nodes = ckt.node_count();
    let mut v = vec![0.0f64; n_nodes];
    v[1..].copy_from_slice(&x[..n_nodes - 1]);
    let i_src = x[(n_nodes - 1)..].to_vec();
    DcSolution { v, i_src }
}

/// Backward-Euler transient from the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`SolveError`] if the initial operating point or any time step
/// fails to converge.
pub fn transient(
    ckt: &AnalogCircuit,
    t_stop: f64,
    dt: f64,
    opts: &SolverOpts,
) -> Result<Transient, SolveError> {
    assert!(dt > 0.0 && t_stop > dt, "bad time parameters");
    transient_from(ckt, dc_at(ckt, 0.0, opts)?, t_stop, dt, opts)
}

/// Backward-Euler transient from an already solved initial condition `ic`,
/// normally `ckt`'s own DC operating point at `t = 0`. Given [`dc`]'s
/// answer for `ckt`, the record equals [`transient`]'s bit for bit,
/// without solving the DC again.
///
/// # Errors
///
/// Returns [`SolveError`] if any time step fails to converge.
///
/// # Panics
///
/// Panics on bad time parameters, or if `ic` does not have `ckt`'s node
/// and unknown counts.
pub fn transient_from(
    ckt: &AnalogCircuit,
    ic: DcSolution,
    t_stop: f64,
    dt: f64,
    opts: &SolverOpts,
) -> Result<Transient, SolveError> {
    assert!(dt > 0.0 && t_stop > dt, "bad time parameters");
    assert!(fits(ckt, &ic), "initial condition shape");
    let mut x = pack(&ic);

    let mut out = Transient {
        time: vec![0.0],
        node_v: vec![ic.v.clone()],
        i_src: vec![ic.i_src.clone()],
    };

    let mut t = 0.0;
    let mut v_prev = ic.v;
    while t < t_stop {
        t += dt;
        newton(
            ckt,
            &mut x,
            t,
            &Mode::Tran {
                h: dt,
                v_prev: &v_prev,
            },
            opts,
        )?;
        let sol = unpack(ckt, &x);
        v_prev = sol.v.clone();
        out.time.push(t);
        out.node_v.push(sol.v);
        out.i_src.push(sol.i_src);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{AnalogCell, VDD};
    use crate::circuit::{AnalogCircuit, Waveform, GROUND};
    use sinw_device::{TigFet, TigTable};
    use sinw_switch::cells::CellKind;
    use std::sync::{Arc, OnceLock};

    fn shared_table() -> Arc<TigTable> {
        static TABLE: OnceLock<Arc<TigTable>> = OnceLock::new();
        TABLE
            .get_or_init(|| Arc::new(TigTable::build_coarse(&TigFet::ideal())))
            .clone()
    }

    #[test]
    fn resistive_divider() {
        let mut c = AnalogCircuit::new(shared_table());
        let top = c.node("top");
        let mid = c.node("mid");
        let src = c.add_vsource(top, GROUND, Waveform::Dc(1.2));
        c.add_resistor(top, mid, 1000.0);
        c.add_resistor(mid, GROUND, 3000.0);
        let sol = dc(&c, &SolverOpts::default()).expect("linear circuit");
        assert!(
            (sol.voltage(mid) - 0.9).abs() < 1e-6,
            "v_mid={}",
            sol.voltage(mid)
        );
        // gmin adds a tiny extra load.
        assert!((sol.delivered(src) - 1.2 / 4000.0).abs() < 1e-8);
    }

    #[test]
    fn rc_transient_charges_exponentially() {
        let mut c = AnalogCircuit::new(shared_table());
        let top = c.node("top");
        let out = c.node("out");
        c.add_vsource(
            top,
            GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1e-12,
                width: 1.0,
                fall: 1e-12,
            },
        );
        c.add_resistor(top, out, 1.0e3);
        c.add_capacitor(out, GROUND, 1.0e-9); // tau = 1 us
        let tr = transient(&c, 3.0e-6, 1.0e-8, &SolverOpts::default()).expect("rc");
        let wave = tr.node_waveform(out);
        // At t = tau the output should be ~63.2 % (BE slightly undershoots).
        let v_tau = wave
            .iter()
            .min_by(|a, b| {
                (a.0 - 1.0e-6)
                    .abs()
                    .partial_cmp(&(b.0 - 1.0e-6).abs())
                    .expect("finite")
            })
            .expect("nonempty")
            .1;
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        let v_end = wave.last().expect("nonempty").1;
        assert!(v_end > 0.94, "v(3 tau) = {v_end}");
    }

    #[test]
    fn tig_inverter_dc_transfer() {
        // SP inverter: pull-up (PG at GND), pull-down (PG at Vdd).
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(0.0));
        c.add_fet(out, a, GROUND, GROUND, vdd); // pull-up p-mode
        c.add_fet(out, a, vdd, vdd, GROUND); // pull-down n-mode
        let sol = dc(&c, &SolverOpts::default()).expect("inverter at 0");
        assert!(sol.voltage(out) > 1.0, "out high: {}", sol.voltage(out));
    }

    #[test]
    fn tig_inverter_switches() {
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(1.2));
        c.add_fet(out, a, GROUND, GROUND, vdd);
        c.add_fet(out, a, vdd, vdd, GROUND);
        let sol = dc(&c, &SolverOpts::default()).expect("inverter at 1");
        assert!(sol.voltage(out) < 0.2, "out low: {}", sol.voltage(out));
    }

    /// Bias of every unbroken TIG-FET at the unknown vector `x`.
    fn fet_biases(ckt: &AnalogCircuit, x: &[f64]) -> Vec<Bias> {
        let volt = |n: NodeId| if n.0 == 0 { 0.0 } else { x[n.0 - 1] };
        ckt.elements()
            .iter()
            .filter_map(|e| match e {
                Element::TigFet {
                    d,
                    cg,
                    pgs,
                    pgd,
                    s,
                    broken: false,
                } => Some(Bias {
                    v_cg: volt(*cg) - volt(*s),
                    v_pgs: volt(*pgs) - volt(*s),
                    v_pgd: volt(*pgd) - volt(*s),
                    v_ds: volt(*d) - volt(*s),
                }),
                _ => None,
            })
            .collect()
    }

    /// Whether every coordinate of `bias`, and of its source/drain fold, is
    /// at least 1 mV from a grid line of the coarse table (gate pitch 0.3 V
    /// from −1.2 V, drain pitch 0.2 V from 0 V).
    fn off_coarse_grid(bias: Bias) -> bool {
        let far = |v: f64, start: f64, pitch: f64| {
            let t = (v - start) / pitch;
            (t - t.round()).abs() * pitch >= 1e-3
        };
        let gate = |v: f64| far(v, -1.2, 0.3);
        [bias.v_cg, bias.v_pgs, bias.v_pgd]
            .into_iter()
            .all(|v| gate(v) && gate(v - bias.v_ds))
            && far(bias.v_ds.abs(), 0.0, 0.2)
    }

    /// Every column of `assemble`'s Jacobian is the central difference of
    /// its residual, at seeded unknowns of the SP inverter and the XOR2
    /// cell. The points are drawn off the table's grid lines, so a ±h step
    /// stays inside one cell, and where every channel's `g_ds` is above the
    /// regularisation floor, so the Jacobian is exact there. This checks
    /// the stamp signs and the source/drain fold end to end.
    #[test]
    fn jacobian_matches_central_difference_of_residual() {
        let table = shared_table();
        let opts = SolverOpts::default();
        let mode = Mode::Dc { scale: 1.0 };
        let h = 1e-7;
        let mut seed = 0x5eed_u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for kind in [CellKind::Inv, CellKind::Xor2] {
            let waves = vec![Waveform::Dc(0.0); kind.input_count()];
            let ckt = AnalogCell::build(kind, table.clone(), &waves).circuit;
            let dim = ckt.unknowns();
            let n_v = ckt.node_count() - 1;
            let mut jac = Matrix::zeros(dim);
            let mut res = vec![0.0; dim];
            let (mut plus, mut minus) = (vec![0.0; dim], vec![0.0; dim]);
            let mut checked = 0;
            for _ in 0..100_000 {
                let x: Vec<f64> = (0..dim)
                    .map(|k| {
                        if k < n_v {
                            1.6 * rnd() - 0.2
                        } else {
                            2e-5 * rnd() - 1e-5
                        }
                    })
                    .collect();
                let admissible = fet_biases(&ckt, &x)
                    .into_iter()
                    .all(|b| off_coarse_grid(b) && table.current_and_gradients(b).1[3] > 1e-9);
                if !admissible {
                    continue;
                }
                assemble(&ckt, &x, 0.0, &mode, &opts, Some(&mut jac), &mut res);
                for c in 0..dim {
                    let mut xp = x.clone();
                    xp[c] += h;
                    let mut xm = x.clone();
                    xm[c] -= h;
                    assemble(&ckt, &xp, 0.0, &mode, &opts, None, &mut plus);
                    assemble(&ckt, &xm, 0.0, &mode, &opts, None, &mut minus);
                    for r in 0..dim {
                        let fd = (plus[r] - minus[r]) / (xp[c] - xm[c]);
                        let j = jac.get(r, c);
                        assert!(
                            (j - fd).abs() <= 1e-5 * j.abs() + 1e-12,
                            "{kind:?} at {x:?}: J[{r}][{c}] = {j}, central difference {fd}"
                        );
                    }
                }
                checked += 1;
                if checked == 4 {
                    break;
                }
            }
            assert_eq!(checked, 4, "{kind:?}: too few admissible points");
        }
    }

    fn dc_waves(kind: CellKind, bits: u32) -> Vec<Waveform> {
        (0..kind.input_count())
            .map(|k| Waveform::Dc(if (bits >> k) & 1 == 1 { VDD } else { 0.0 }))
            .collect()
    }

    #[test]
    fn transient_from_own_dc_equals_transient() {
        let pulse = Waveform::Pulse {
            v0: 0.0,
            v1: VDD,
            delay: 0.5e-9,
            rise: 20e-12,
            width: 4e-9,
            fall: 20e-12,
        };
        let ckt = AnalogCell::build(CellKind::Inv, shared_table(), &[pulse]).circuit;
        let opts = SolverOpts::default();
        let cold = transient(&ckt, 1.5e-9, 10e-12, &opts).expect("transient");
        let ic = dc(&ckt, &opts).expect("dc");
        let warm = transient_from(&ckt, ic, 1.5e-9, 10e-12, &opts).expect("transient_from");
        let bits = |tr: &Transient| -> Vec<u64> {
            tr.time
                .iter()
                .chain(tr.node_v.iter().flatten())
                .chain(tr.i_src.iter().flatten())
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(&cold), bits(&warm));
    }

    #[test]
    fn dc_from_own_solution_stays_within_v_tol() {
        let opts = SolverOpts::default();
        for (kind, bits) in [
            (CellKind::Inv, 0),
            (CellKind::Xor2, 0b01),
            (CellKind::Maj3, 0b011),
        ] {
            let ckt = AnalogCell::build(kind, shared_table(), &dc_waves(kind, bits)).circuit;
            let sol = dc(&ckt, &opts).expect("dc");
            let again = dc_from(&ckt, &sol, &opts).expect("dc_from");
            for (a, b) in sol.v.iter().zip(&again.v) {
                assert!((a - b).abs() <= opts.v_tol, "{kind:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn dc_from_a_mismatched_guess_is_the_cold_solve() {
        let opts = SolverOpts::default();
        let inv = AnalogCell::build(CellKind::Inv, shared_table(), &dc_waves(CellKind::Inv, 1));
        let xor2 = AnalogCell::build(CellKind::Xor2, shared_table(), &dc_waves(CellKind::Xor2, 1));
        let guess = dc(&inv.circuit, &opts).expect("inv dc");
        let cold = dc(&xor2.circuit, &opts).expect("xor2 dc");
        let warm = dc_from(&xor2.circuit, &guess, &opts).expect("xor2 dc_from");
        let bits = |s: &DcSolution| -> Vec<u64> {
            s.v.iter().chain(&s.i_src).map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&cold), bits(&warm));
    }

    /// Every polarity fault of every cell (both gates of one transistor
    /// bridged to a rail), warm-started from the healthy operating point
    /// of its vector: where the warm Newton converges, [`dc_from`] returns
    /// that answer, and its KCL residual at the requested gmin is within
    /// the solver's acceptance bound — a solution at gmin 1e-12, not a
    /// coarser ladder level's.
    #[test]
    fn warm_started_fault_solves_meet_the_acceptance_residual() {
        let opts = SolverOpts::default();
        let (mut warm, mut total) = (0, 0);
        for kind in CellKind::ALL {
            for bits in 0..(1u32 << kind.input_count()) {
                let healthy = AnalogCell::build(kind, shared_table(), &dc_waves(kind, bits));
                let guess = dc(&healthy.circuit, &opts).expect("healthy dc");
                for &fet in &healthy.fets {
                    for rail in [healthy.vdd_node(), GROUND] {
                        let mut ckt = healthy.circuit.clone();
                        ckt.rewire_gate(fet, 1, rail);
                        ckt.rewire_gate(fet, 2, rail);
                        total += 1;
                        let Some(x) = warm_newton(&ckt, &guess, &opts) else {
                            continue;
                        };
                        warm += 1;
                        let mut res = vec![0.0; ckt.unknowns()];
                        assemble(
                            &ckt,
                            &x,
                            0.0,
                            &Mode::Dc { scale: 1.0 },
                            &opts,
                            None,
                            &mut res,
                        );
                        assert!(
                            max_abs(&res) <= 1e-10,
                            "{kind:?} {bits:b} {fet:?}: residual {:.3e} A",
                            max_abs(&res)
                        );
                        let sol = dc_from(&ckt, &guess, &opts).expect("dc_from");
                        assert_eq!(sol.v, unpack(&ckt, &x).v);
                    }
                }
            }
        }
        assert_eq!(total, 232);
        assert!(
            3 * warm >= 2 * total,
            "only {warm} of {total} warm starts converged"
        );
    }

    #[test]
    fn broken_channel_contributes_no_current() {
        let mut c = AnalogCircuit::new(shared_table());
        let vdd = c.node("vdd");
        let a = c.node("a");
        let out = c.node("out");
        let src = c.add_vsource(vdd, GROUND, Waveform::Dc(1.2));
        c.add_vsource(a, GROUND, Waveform::Dc(0.0));
        let pu = c.add_fet(out, a, GROUND, GROUND, vdd);
        c.add_fet(out, a, vdd, vdd, GROUND);
        c.break_channel(pu);
        let sol = dc(&c, &SolverOpts::default()).expect("broken inverter");
        // The output floats near ground (gmin) instead of being pulled up.
        assert!(sol.voltage(out) < 0.4, "floating out: {}", sol.voltage(out));
        assert!(sol.delivered(src).abs() < 1e-8);
    }
}
