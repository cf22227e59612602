//! 4-D lookup-table compact model — the equivalent of the paper's Verilog-A
//! table model (Section III-D).
//!
//! The paper's two-step simulation flow first characterises the device in
//! TCAD, then drives circuit simulation from a lookup table of the channel
//! conductivity as a function of `V_CG`, `V_PGS` and `V_PGD` (plus parasitic
//! capacitances and access resistances). [`TigTable`] reproduces that flow:
//! it samples [`crate::model::TigFet::drain_current`] on a regular 4-D grid
//! and answers interpolated queries in nanoseconds, which is what makes the
//! transient simulations of Fig. 5 affordable.

use crate::model::{Bias, TigFet};

/// Sampling specification of one axis of the table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axis {
    /// First sample value.
    pub start: f64,
    /// Last sample value.
    pub stop: f64,
    /// Number of samples (≥ 2).
    pub points: usize,
}

impl Axis {
    /// Evenly spaced axis.
    #[must_use]
    pub fn new(start: f64, stop: f64, points: usize) -> Self {
        assert!(points >= 2, "an axis needs at least two points");
        assert!(stop > start, "axis must be increasing");
        Axis {
            start,
            stop,
            points,
        }
    }

    #[inline]
    fn step(&self) -> f64 {
        (self.stop - self.start) / (self.points - 1) as f64
    }

    /// Value of sample `i`.
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        self.start + self.step() * i as f64
    }

    /// Locate `v` on the axis: returns the lower cell index, the
    /// fractional position inside the cell and `d(fraction)/dv`, clamping
    /// out-of-range queries.
    ///
    /// The derivative is `1/step` on the closed axis range and exactly `0.0`
    /// strictly outside it, where the clamped position no longer moves with
    /// `v`. On a grid line it is the slope of the cell returned.
    #[inline]
    fn locate(&self, v: f64) -> (usize, f64, f64) {
        let step = self.step();
        let t = (v - self.start) / step;
        let max = (self.points - 1) as f64;
        let slope = if (0.0..=max).contains(&t) {
            step.recip()
        } else {
            0.0
        };
        if t <= 0.0 {
            return (0, 0.0, slope);
        }
        if t >= max {
            return (self.points - 2, 1.0, slope);
        }
        let i = t.floor() as usize;
        (i.min(self.points - 2), t - t.floor(), slope)
    }
}

/// Lumped terminal parasitics of the compact model.
///
/// Estimated from the Table II geometry with cylindrical-capacitor gate
/// stacks; used by the analog simulator to form the dynamic part of the
/// device stamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parasitics {
    /// Control-gate-to-channel capacitance, in farads.
    pub c_cg: f64,
    /// Each polarity-gate-to-channel capacitance, in farads.
    pub c_pg: f64,
    /// Source/drain junction capacitance, in farads.
    pub c_sd: f64,
    /// Source/drain access resistance, in ohms.
    pub r_access: f64,
}

impl Parasitics {
    /// Estimate the parasitics from the device geometry.
    #[must_use]
    pub fn from_geometry(geometry: &crate::geometry::DeviceGeometry) -> Self {
        use crate::constants::{EPS0, EPS_HFO2};
        // Cylindrical gate capacitance: C = 2π ε L / ln(1 + t_ox/R).
        let cyl = |l: f64| {
            2.0 * std::f64::consts::PI * EPS_HFO2 * EPS0 * l
                / (1.0 + geometry.t_ox / geometry.r_nw).ln()
        };
        Parasitics {
            c_cg: cyl(geometry.l_cg),
            c_pg: cyl(geometry.l_pg),
            c_sd: 1.0e-17,
            r_access: 1.0e4,
        }
    }
}

/// 4-D `I_D(V_CG, V_PGS, V_PGD, V_DS)` lookup table with multilinear
/// interpolation.
///
/// Gate axes are relative to the source and span both polarities
/// (−1.2 … +1.2 V by default); the drain axis spans 0 … V_dd, with negative
/// `V_DS` handled by the source/drain symmetry of the device
/// (`I(g; −v) = −I(g'; v)` with the gate voltages re-referenced to the
/// swapped source and PGS/PGD exchanged).
///
/// [`TigTable::current_and_gradients`] returns the same value together
/// with the exact partials of the interpolant, which are the Newton
/// conductances of the analog solver. Queries outside an axis range clamp
/// to its end, so the interpolant is flat there and the partial along that
/// axis is exactly zero. For negative `V_DS` the partials follow the fold
/// by the chain rule.
///
/// # Examples
///
/// ```
/// use sinw_device::model::{Bias, TigFet};
/// use sinw_device::table::TigTable;
///
/// let table = TigTable::build_coarse(&TigFet::ideal());
/// let on = table.current(Bias::uniform_gates(1.2, 1.2));
/// assert!(on > 1e-7);
/// // Source/drain symmetry: reversed drain bias flips the sign.
/// let rev = table.current(Bias { v_cg: 0.0, v_pgs: 0.0, v_pgd: 0.0, v_ds: -1.2 });
/// assert!(rev < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TigTable {
    gate_axis: Axis,
    vds_axis: Axis,
    /// Row-major `[cg][pgs][pgd][vds]` samples, stored as
    /// `asinh(I / I_REF)`: interpolating in the asinh domain is
    /// log-accurate through the subthreshold decades (a linear chord over
    /// an exponential overestimates by up to an order of magnitude) while
    /// remaining linear — and sign-preserving — around zero.
    data: Vec<f64>,
    /// Terminal parasitics for the dynamic stamp.
    pub parasitics: Parasitics,
}

/// Reference current of the asinh compression (amperes).
const I_REF: f64 = 1.0e-12;

impl TigTable {
    /// Build a table by sampling `fet` on `gate_axis`³ × `vds_axis`.
    #[must_use]
    pub fn build(fet: &TigFet, gate_axis: Axis, vds_axis: Axis) -> Self {
        let n_g = gate_axis.points;
        let n_d = vds_axis.points;
        let mut data = vec![0.0f64; n_g * n_g * n_g * n_d];
        let mut idx = 0;
        for icg in 0..n_g {
            let v_cg = gate_axis.value(icg);
            for ipgs in 0..n_g {
                let v_pgs = gate_axis.value(ipgs);
                for ipgd in 0..n_g {
                    let v_pgd = gate_axis.value(ipgd);
                    for ids in 0..n_d {
                        let v_ds = vds_axis.value(ids);
                        let i = fet.drain_current(Bias {
                            v_cg,
                            v_pgs,
                            v_pgd,
                            v_ds,
                        });
                        data[idx] = (i / I_REF).asinh();
                        idx += 1;
                    }
                }
            }
        }
        TigTable {
            gate_axis,
            vds_axis,
            data,
            parasitics: Parasitics::from_geometry(&fet.geometry),
        }
    }

    /// Standard production grid: 13 points per gate axis (0.2 V pitch so
    /// the 1.2 V rails sit exactly on grid), 13 drain points.
    #[must_use]
    pub fn build_standard(fet: &TigFet) -> Self {
        Self::build(fet, Axis::new(-1.2, 1.2, 13), Axis::new(0.0, 1.2, 13))
    }

    /// Coarse grid for fast tests (9 gate points, 7 drain points; rails on
    /// grid).
    #[must_use]
    pub fn build_coarse(fet: &TigFet) -> Self {
        let mut fet = fet.clone();
        fet.params.grid = crate::transport::EnergyGrid::coarse();
        Self::build(&fet, Axis::new(-1.2, 1.2, 9), Axis::new(0.0, 1.2, 7))
    }

    #[inline]
    fn sample(&self, icg: usize, ipgs: usize, ipgd: usize, ids: usize) -> f64 {
        let n_g = self.gate_axis.points;
        let n_d = self.vds_axis.points;
        self.data[((icg * n_g + ipgs) * n_g + ipgd) * n_d + ids]
    }

    /// The grid cell holding a non-negative-`v_ds` bias, per axis in
    /// `(v_cg, v_pgs, v_pgd, v_ds)` order: the lower corner index, the two
    /// corner weights `[1 − f, f]`, and `df/dV` (see [`Axis::locate`]).
    #[inline]
    fn cell(&self, bias: Bias) -> ([usize; 4], [[f64; 2]; 4], [f64; 4]) {
        let (i0, f0, s0) = self.gate_axis.locate(bias.v_cg);
        let (i1, f1, s1) = self.gate_axis.locate(bias.v_pgs);
        let (i2, f2, s2) = self.gate_axis.locate(bias.v_pgd);
        let (i3, f3, s3) = self.vds_axis.locate(bias.v_ds);
        (
            [i0, i1, i2, i3],
            [
                [1.0 - f0, f0],
                [1.0 - f1, f1],
                [1.0 - f2, f2],
                [1.0 - f3, f3],
            ],
            [s0, s1, s2, s3],
        )
    }

    /// Interpolated drain current for non-negative `v_ds`.
    fn current_fwd(&self, bias: Bias) -> f64 {
        let (i, w, _) = self.cell(bias);
        let mut acc = 0.0;
        for (d0, w0) in w[0].into_iter().enumerate() {
            if w0 == 0.0 {
                continue;
            }
            for (d1, w1) in w[1].into_iter().enumerate() {
                if w1 == 0.0 {
                    continue;
                }
                for (d2, w2) in w[2].into_iter().enumerate() {
                    if w2 == 0.0 {
                        continue;
                    }
                    for (d3, w3) in w[3].into_iter().enumerate() {
                        if w3 == 0.0 {
                            continue;
                        }
                        acc += w0
                            * w1
                            * w2
                            * w3
                            * self.sample(i[0] + d0, i[1] + d1, i[2] + d2, i[3] + d3);
                    }
                }
            }
        }
        acc.sinh() * I_REF
    }

    /// [`TigTable::current_fwd`] and its four partials, in one pass over
    /// the 16 corners of the cell.
    ///
    /// The value adds the same products in the same order, skipping the
    /// same zero-weight corners, so it equals `current_fwd` bit for bit.
    /// A zero-weight corner still enters the partial along its own axis.
    fn current_and_gradients_fwd(&self, bias: Bias) -> (f64, [f64; 4]) {
        // d(weight)/df: −1 for the lower corner, +1 for the upper one.
        const DW: [f64; 2] = [-1.0, 1.0];
        let (i, w, slope) = self.cell(bias);
        let mut acc = 0.0;
        let mut dacc = [0.0f64; 4];
        for d0 in 0..2 {
            for d1 in 0..2 {
                for d2 in 0..2 {
                    for d3 in 0..2 {
                        let s = self.sample(i[0] + d0, i[1] + d1, i[2] + d2, i[3] + d3);
                        let (w0, w1, w2, w3) = (w[0][d0], w[1][d1], w[2][d2], w[3][d3]);
                        if w0 != 0.0 && w1 != 0.0 && w2 != 0.0 && w3 != 0.0 {
                            acc += w0 * w1 * w2 * w3 * s;
                        }
                        dacc[0] += DW[d0] * w1 * w2 * w3 * s;
                        dacc[1] += w0 * DW[d1] * w2 * w3 * s;
                        dacc[2] += w0 * w1 * DW[d2] * w3 * s;
                        dacc[3] += w0 * w1 * w2 * DW[d3] * s;
                    }
                }
            }
        }
        // I = sinh(acc)·I_REF, so dI/dV = cosh(acc)·I_REF·(dacc/df)·(df/dV).
        let di_dacc = acc.cosh() * I_REF;
        (
            acc.sinh() * I_REF,
            std::array::from_fn(|k| di_dacc * dacc[k] * slope[k]),
        )
    }

    /// The forward-direction bias equivalent to a negative-`v_ds` one:
    /// terminals swap, gate voltages are re-referenced to the new source
    /// and PGS and PGD exchange roles.
    fn fold(bias: Bias) -> Bias {
        Bias {
            v_cg: bias.v_cg - bias.v_ds,
            v_pgs: bias.v_pgd - bias.v_ds,
            v_pgd: bias.v_pgs - bias.v_ds,
            v_ds: -bias.v_ds,
        }
    }

    /// Interpolated drain current at an arbitrary bias (source-referenced).
    ///
    /// Negative `v_ds` is folded through the source/drain symmetry of the
    /// device: terminals swap, gate voltages are re-referenced to the new
    /// source, PGS and PGD exchange roles, and the current changes sign.
    #[must_use]
    pub fn current(&self, bias: Bias) -> f64 {
        if bias.v_ds >= 0.0 {
            self.current_fwd(bias)
        } else {
            -self.current_fwd(Self::fold(bias))
        }
    }

    /// Interpolated drain current and its exact partials
    /// `[dI/dV_cg, dI/dV_pgs, dI/dV_pgd, dI/dV_ds]`, the conductances of
    /// the Newton stamp.
    ///
    /// The value equals [`TigTable::current`] bit for bit. The partials
    /// are those of the piecewise-multilinear interpolant `current`
    /// evaluates: on a grid line, the slope of the cell `current` uses;
    /// strictly outside an axis range, where the interpolant is flat,
    /// exactly `0.0`. Negative `v_ds` goes through the same fold as
    /// `current`, so with `g'` the partials at the folded bias the result
    /// is `[−g'_cg, −g'_pgd, −g'_pgs, g'_cg + g'_pgs + g'_pgd + g'_ds]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sinw_device::model::{Bias, TigFet};
    /// use sinw_device::table::TigTable;
    ///
    /// let table = TigTable::build_coarse(&TigFet::ideal());
    /// let bias = Bias::uniform_gates(0.9, 0.9);
    /// let (i, [g_cg, _, _, g_ds]) = table.current_and_gradients(bias);
    /// assert_eq!(i, table.current(bias));
    /// assert!(g_cg > 0.0 && g_ds > 0.0);
    /// ```
    #[must_use]
    pub fn current_and_gradients(&self, bias: Bias) -> (f64, [f64; 4]) {
        if bias.v_ds >= 0.0 {
            self.current_and_gradients_fwd(bias)
        } else {
            let (i, [g_cg, g_pgs, g_pgd, g_ds]) = self.current_and_gradients_fwd(Self::fold(bias));
            (-i, [-g_cg, -g_pgd, -g_pgs, g_cg + g_pgs + g_pgd + g_ds])
        }
    }

    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the table is empty (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn shared_table() -> &'static TigTable {
        static TABLE: OnceLock<TigTable> = OnceLock::new();
        TABLE.get_or_init(|| TigTable::build_coarse(&TigFet::ideal()))
    }

    /// FNV-1a (64-bit) over the little-endian bits of every sample.
    fn fnv1a(data: &[f64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for x in data {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// The coarse table, pinned bit for bit: any change to the transport
    /// kernel's arithmetic or summation order shows here.
    #[test]
    fn coarse_table_is_pinned() {
        let t = shared_table();
        assert_eq!(t.len(), 9 * 9 * 9 * 7);
        assert_eq!(fnv1a(&t.data), 0xba44_3f31_65ce_ba58);
    }

    /// The standard table, pinned bit for bit (run with `--ignored`, in
    /// release: the build samples 13⁴ biases on the fine energy grid).
    #[test]
    #[ignore = "builds the standard table; run in release with --ignored"]
    fn standard_table_is_pinned() {
        let t = TigTable::build_standard(&TigFet::ideal());
        assert_eq!(t.len(), 13 * 13 * 13 * 13);
        assert_eq!(fnv1a(&t.data), 0x8fba_22d6_0b4d_1b78);
    }

    #[test]
    fn axis_locate_clamps_and_interpolates() {
        let a = Axis::new(0.0, 1.0, 11);
        assert_eq!(a.locate(-5.0), (0, 0.0, 0.0));
        let (i, f, slope) = a.locate(0.55);
        assert_eq!(i, 5);
        assert!((f - 0.5).abs() < 1e-9);
        assert!((slope - 10.0).abs() < 1e-9);
        let (i, f, slope) = a.locate(99.0);
        assert_eq!(i, 9);
        assert!((f - 1.0).abs() < 1e-12);
        assert_eq!(slope, 0.0);
        // On the end points the slope is the one of the cell returned.
        assert!(a.locate(0.0).2 > 0.0 && a.locate(1.0).2 > 0.0);
    }

    #[test]
    fn interpolation_is_exact_at_grid_points() {
        let t = shared_table();
        let bias = Bias {
            v_cg: t.gate_axis.value(6),
            v_pgs: t.gate_axis.value(6),
            v_pgd: t.gate_axis.value(6),
            v_ds: t.vds_axis.value(4),
        };
        let direct = t.sample(6, 6, 6, 4).sinh() * 1e-12;
        assert!((t.current(bias) - direct).abs() <= 1e-9 * direct.abs().max(1e-15));
    }

    #[test]
    fn table_reproduces_conduction_rule() {
        let t = shared_table();
        let on = t.current(Bias::uniform_gates(1.2, 1.2));
        let off = t.current(Bias {
            v_cg: 1.2,
            v_pgs: 0.0,
            v_pgd: 0.0,
            v_ds: 1.2,
        });
        assert!(on > 1e-7, "table ON current = {on}");
        assert!(off.abs() < on * 1e-3, "table OFF current = {off}");
    }

    #[test]
    fn reverse_bias_antisymmetry() {
        // Re-referencing to the swapped source: gates at 0.4 V above a
        // source that sits 0.8 V above the drain are the same physical
        // situation as gates at 1.2 V with the terminals exchanged.
        let t = shared_table();
        let fwd = t.current(Bias::uniform_gates(1.2, 0.8));
        let rev = t.current(Bias {
            v_cg: 0.4,
            v_pgs: 0.4,
            v_pgd: 0.4,
            v_ds: -0.8,
        });
        assert!(
            (fwd + rev).abs() <= 1e-9 + 1e-6 * fwd.abs(),
            "fwd={fwd} rev={rev}"
        );
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let t = shared_table();
        let i = t.current(Bias::uniform_gates(1.2, 0.0));
        assert!(i.abs() < 1e-12, "I(V_DS=0) = {i}");
    }

    #[test]
    fn gradients_have_expected_signs() {
        let t = shared_table();
        let (_, [g_cg, _, _, g_ds]) = t.current_and_gradients(Bias::uniform_gates(0.9, 0.9));
        assert!(g_cg > 0.0, "dI/dVcg = {g_cg}");
        assert!(g_ds > 0.0, "dI/dVds = {g_ds}");
    }

    #[test]
    fn parasitics_are_attofarad_scale() {
        let p = shared_table().parasitics;
        assert!(p.c_cg > 1e-18 && p.c_cg < 1e-15, "C_cg = {}", p.c_cg);
        assert!(p.r_access > 0.0);
    }
}
