//! The complete TIG-SiNWFET compact device model ("synthetic TCAD").
//!
//! [`TigFet`] glues the electrostatic solver, the ballistic transport kernel
//! and the defect models together behind the interface the rest of the
//! workspace consumes: `drain_current(bias)`, I–V sweeps, threshold
//! extraction and the electron-density probe of Fig. 4.

use crate::constants::{NC_EFF_CM3, VT};
use crate::defects::{DeviceDefect, GosCalibration, GosEffects};
use crate::geometry::{DeviceGeometry, GateTerminal};
use crate::poisson::{solve, BandProfile, CouplingProfile};
use crate::transport::{landauer_current, CurrentBreakdown, EnergyGrid, TransportParams};

/// Terminal voltages of one device, **relative to its source**, in volts.
///
/// `v_ds` may be negative; the device is geometrically symmetric, and the
/// lookup-table layer exploits that symmetry rather than this struct.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Bias {
    /// Control-gate voltage.
    pub v_cg: f64,
    /// Source-side polarity-gate voltage.
    pub v_pgs: f64,
    /// Drain-side polarity-gate voltage.
    pub v_pgd: f64,
    /// Drain voltage.
    pub v_ds: f64,
}

impl Bias {
    /// All three gates at the same voltage (the conduction configurations of
    /// the CP rule).
    #[must_use]
    pub fn uniform_gates(v_g: f64, v_ds: f64) -> Self {
        Bias {
            v_cg: v_g,
            v_pgs: v_g,
            v_pgd: v_g,
            v_ds,
        }
    }

    /// Voltage of a given gate terminal.
    #[must_use]
    pub fn gate(&self, g: GateTerminal) -> f64 {
        match g {
            GateTerminal::Pgs => self.v_pgs,
            GateTerminal::Cg => self.v_cg,
            GateTerminal::Pgd => self.v_pgd,
        }
    }
}

/// Electrostatic and transport calibration of the compact model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Work-function/flat-band offset of the gate stack, in eV: the gate
    /// target band energy is `Φ_B + phi_off − gamma·V_gate`.
    pub phi_off: f64,
    /// Gate efficiency (capacitive divider including quantum capacitance).
    pub gamma: f64,
    /// Extra screening factor of the Schottky wedges within
    /// `sharpen_range` of the contacts (silicide screening + polarity-gate
    /// fringing over the junction).
    pub contact_sharpen: f64,
    /// Range of the contact sharpening, in meters.
    pub sharpen_range: f64,
    /// Transport parameters (masses, mode counts, band gap).
    pub transport: TransportParams,
    /// Energy grid of the Landauer integral.
    pub grid: EnergyGrid,
    /// Series WKB action of a full (severity 1) nanowire break.
    pub break_action: f64,
    /// Calibration of the gate-oxide-short defect model.
    pub gos: GosCalibration,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            phi_off: 0.0,
            gamma: 0.80,
            contact_sharpen: 3.0,
            sharpen_range: 4.0e-9,
            transport: TransportParams::default(),
            grid: EnergyGrid::standard(),
            break_action: 9.0,
            gos: GosCalibration::default(),
        }
    }
}

/// A TIG-SiNWFET instance: geometry + calibration + an optional list of
/// manufacturing defects.
///
/// # Examples
///
/// ```
/// use sinw_device::model::{Bias, TigFet};
///
/// let fet = TigFet::ideal();
/// // n-conduction: CG = PGS = PGD = '1'
/// let i_on = fet.drain_current(Bias::uniform_gates(1.2, 1.2));
/// // blocked: CG = '1' but polarity gates at '0'
/// let i_off = fet.drain_current(Bias { v_cg: 1.2, v_pgs: 0.0, v_pgd: 0.0, v_ds: 1.2 });
/// assert!(i_on > 1e4 * i_off.abs());
/// ```
#[derive(Debug, Clone)]
pub struct TigFet {
    /// Device geometry (Table II by default).
    pub geometry: DeviceGeometry,
    /// Model calibration.
    pub params: ModelParams,
    defects: Vec<DeviceDefect>,
}

impl TigFet {
    /// A defect-free device with the Table II geometry and the default
    /// calibration.
    #[must_use]
    pub fn ideal() -> Self {
        TigFet {
            geometry: DeviceGeometry::table_ii(),
            params: ModelParams::default(),
            defects: Vec::new(),
        }
    }

    /// Attach a manufacturing defect (builder style).
    #[must_use]
    pub fn with_defect(mut self, defect: DeviceDefect) -> Self {
        self.defects.push(defect);
        self
    }

    /// The defects currently applied to the device.
    #[must_use]
    pub fn defects(&self) -> &[DeviceDefect] {
        &self.defects
    }

    /// Target conduction-band energy under a gate biased at `v_gate`.
    fn gate_target(&self, v_gate: f64) -> f64 {
        self.geometry.schottky_barrier_ev + self.params.phi_off - self.params.gamma * v_gate
    }

    /// Effective voltage of gate `g`, after folding in the debias of any
    /// GOS defect sitting on that electrode.
    fn effective_gate_voltage(&self, bias: Bias, g: GateTerminal) -> f64 {
        let mut v = bias.gate(g);
        for defect in &self.defects {
            if let DeviceDefect::GateOxideShort { site, size } = defect {
                if *site == g {
                    let fx = GosEffects::derive(&self.geometry, &self.params.gos, *site, *size);
                    v *= 1.0 - fx.efficiency_loss;
                }
            }
        }
        v
    }

    /// Solve the band profile at the given bias, including every defect's
    /// electrostatic and transport annotations.
    #[must_use]
    pub fn band_profile(&self, bias: Bias) -> BandProfile {
        let mut coupling = CouplingProfile::from_geometry_sharpened(
            &self.geometry,
            self.params.contact_sharpen,
            self.params.sharpen_range,
            |g| self.gate_target(self.effective_gate_voltage(bias, g)),
        );
        let phi_b = self.geometry.schottky_barrier_ev;

        // The conductive plug of a GOS couples the channel to the *full*
        // gate potential over its footprint (unit efficiency, strong
        // screening) — it is an ohmic extension of the gate electrode.
        for defect in &self.defects {
            if let DeviceDefect::GateOxideShort { site, size } = defect {
                let fx = GosEffects::derive(&self.geometry, &self.params.gos, *site, *size);
                let lambda = self.geometry.natural_length();
                let strong = (4.0 * self.params.contact_sharpen / lambda).powi(2);
                let pinned_target = phi_b - bias.gate(*site);
                for i in 0..coupling.len() {
                    let x = self.geometry.x_of(i);
                    if (x - fx.center).abs() <= *size {
                        coupling.screening[i] = strong;
                        coupling.target_ev[i] = pinned_target;
                    }
                }
            }
        }

        let mut profile = solve(&self.geometry, &coupling, phi_b, phi_b - bias.v_ds);
        for defect in &self.defects {
            if let DeviceDefect::NanowireBreak { severity, .. } = defect {
                profile.blockage_action += self.params.break_action * severity.clamp(0.0, 1.0);
            }
        }
        profile
    }

    /// Electron/hole breakdown of the ballistic channel current (excluding
    /// GOS gate-leak terms).
    #[must_use]
    pub fn channel_current(&self, bias: Bias) -> CurrentBreakdown {
        let profile = self.band_profile(bias);
        landauer_current(
            &profile,
            bias.v_ds,
            &self.params.transport,
            &self.params.grid,
        )
    }

    /// Total drain current in amperes, including the GOS gate-leak paths.
    ///
    /// The leak current injected by a shorted gate exits the channel through
    /// both contacts; the drain-side share *subtracts* from the terminal
    /// drain current, which is what makes `I_D` go negative at low `V_D` in
    /// a defective device (Fig. 3 discussion).
    #[must_use]
    pub fn drain_current(&self, bias: Bias) -> f64 {
        let mut i_d = self.channel_current(bias).total();
        for defect in &self.defects {
            if let DeviceDefect::GateOxideShort { site, size } = defect {
                let fx = GosEffects::derive(&self.geometry, &self.params.gos, *site, *size);
                let phi_local = bias.v_ds * self.local_potential_frac(fx.center);
                let leak = fx.gate_leak_s * (bias.gate(*site) - phi_local);
                i_d -= fx.drain_share * leak;
            }
        }
        i_d
    }

    /// Fraction of `v_ds` appearing as the local channel electrochemical
    /// potential at axial position `x` (linear interior model, clamped to
    /// the contact values under the junction gates).
    fn local_potential_frac(&self, x: f64) -> f64 {
        let l_pg = self.geometry.l_pg;
        let interior = self.geometry.total_length() - 2.0 * l_pg;
        ((x - l_pg) / interior).clamp(0.0, 1.0)
    }

    /// Electron density along the axis in cm⁻³, including GOS carrier sinks.
    ///
    /// Returns `(x, n)` pairs over the interior of the wire.
    #[must_use]
    pub fn density_profile(&self, bias: Bias) -> Vec<(f64, f64)> {
        let profile = self.band_profile(bias);
        let mut sinks: Vec<GosEffects> = Vec::new();
        for defect in &self.defects {
            if let DeviceDefect::GateOxideShort { site, size } = defect {
                sinks.push(GosEffects::derive(
                    &self.geometry,
                    &self.params.gos,
                    *site,
                    *size,
                ));
            }
        }
        let mut out = Vec::with_capacity(profile.e_c.len());
        for i in 0..profile.e_c.len() {
            let x = profile.x_of(i);
            let eta = -profile.e_c[i] / VT;
            let mut n = NC_EFF_CM3 * crate::constants::fermi_half(eta);
            for fx in &sinks {
                let env = fx.sink_envelope(x);
                n /= 1.0 + (fx.density_sink - 1.0) * env;
            }
            out.push((x, n));
        }
        out
    }

    /// The bottleneck electron density of the channel interior in cm⁻³ —
    /// the quantity visualised by Fig. 4 of the paper.
    ///
    /// The first and last 14 nm are excluded so that the Schottky contact
    /// wedges do not dominate the minimum.
    #[must_use]
    pub fn probe_density(&self, bias: Bias) -> f64 {
        let margin = 14.0e-9;
        let l = self.geometry.total_length();
        self.density_profile(bias)
            .into_iter()
            .filter(|(x, _)| *x > margin && *x < l - margin)
            .map(|(_, n)| n)
            .fold(f64::INFINITY, f64::min)
    }

    /// I–V sweep of the control gate: returns `(V_CG, I_D)` pairs.
    #[must_use]
    pub fn sweep_vcg(
        &self,
        v_pgs: f64,
        v_pgd: f64,
        v_ds: f64,
        v_start: f64,
        v_stop: f64,
        points: usize,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a sweep needs at least two points");
        (0..points)
            .map(|i| {
                let v_cg = v_start + (v_stop - v_start) * (i as f64) / ((points - 1) as f64);
                let bias = Bias {
                    v_cg,
                    v_pgs,
                    v_pgd,
                    v_ds,
                };
                (v_cg, self.drain_current(bias))
            })
            .collect()
    }

    /// Constant-current threshold voltage: the `V_CG` at which `I_D` crosses
    /// `i_crit` with both polarity gates at `v_pg` and the drain at `v_ds`.
    ///
    /// Returns `None` when the sweep never reaches `i_crit`.
    #[must_use]
    pub fn threshold_voltage(&self, v_pg: f64, v_ds: f64, i_crit: f64) -> Option<f64> {
        // Scan downward from strong inversion and report the *last* upward
        // crossing: a defective device's gate-leak path can lift |I_D|
        // above the criterion again near V_CG = 0, which must not be
        // mistaken for turn-on.
        let sweep = self.sweep_vcg(v_pg, v_pg, v_ds, 0.0, 1.2, 61);
        let mut above: Option<(f64, f64)> = None;
        for (v, i) in sweep.into_iter().rev() {
            match above {
                Some((av, ai)) if i < i_crit => {
                    let (lp, lc) = (i.max(1e-30).ln(), ai.max(1e-30).ln());
                    let t = (i_crit.ln() - lp) / (lc - lp);
                    return Some(v + t * (av - v));
                }
                _ => {}
            }
            if i >= i_crit {
                above = Some((v, i));
            } else {
                above = None;
            }
        }
        None
    }
}

impl Default for TigFet {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast(fet: TigFet) -> TigFet {
        let mut fet = fet;
        fet.params.grid = EnergyGrid::coarse();
        fet
    }

    #[test]
    fn conduction_rule_emerges_from_physics() {
        // The CP conduction rule of Section III-C: the device conducts when
        // CG = PGS = PGD = '1' (n-mode) and when all are '0' *relative to a
        // source at Vdd* (p-mode: gates 1.2 V below the source), and blocks
        // in the mixed configurations.
        let fet = fast(TigFet::ideal());
        let n_on = fet.drain_current(Bias::uniform_gates(1.2, 1.2));
        let p_on = fet.drain_current(Bias::uniform_gates(-1.2, 1.2));
        let off_a = fet.drain_current(Bias {
            v_cg: 1.2,
            v_pgs: 0.0,
            v_pgd: 0.0,
            v_ds: 1.2,
        });
        let off_b = fet.drain_current(Bias {
            v_cg: 0.0,
            v_pgs: 1.2,
            v_pgd: 1.2,
            v_ds: 1.2,
        });
        assert!(n_on > 1e-7, "n-ON too weak: {n_on}");
        assert!(p_on > 1e-9, "p-ON too weak: {p_on}");
        assert!(off_a < n_on * 1e-4, "CG-only ON must block: {off_a}");
        assert!(off_b < n_on * 1e-4, "PG-only ON must block: {off_b}");
    }

    #[test]
    fn mixed_polarity_gates_block() {
        let fet = fast(TigFet::ideal());
        let n_on = fet.drain_current(Bias::uniform_gates(1.2, 1.2));
        let mixed = fet.drain_current(Bias {
            v_cg: 1.2,
            v_pgs: 1.2,
            v_pgd: 0.0,
            v_ds: 1.2,
        });
        assert!(mixed < n_on * 1e-3, "mixed polarity must block: {mixed}");
    }

    #[test]
    fn full_break_kills_the_on_current() {
        let fet = fast(TigFet::ideal());
        let broken = fast(TigFet::ideal().with_defect(DeviceDefect::full_break()));
        let bias = Bias::uniform_gates(1.2, 1.2);
        let ratio = broken.drain_current(bias) / fet.drain_current(bias);
        assert!(ratio < 1e-4, "break ratio = {ratio}");
    }

    #[test]
    fn partial_break_degrades_drive() {
        let fet = fast(TigFet::ideal());
        let weak = fast(TigFet::ideal().with_defect(DeviceDefect::NanowireBreak {
            position: 0.5,
            severity: 0.1,
        }));
        let bias = Bias::uniform_gates(1.2, 1.2);
        let ratio = weak.drain_current(bias) / fet.drain_current(bias);
        assert!(
            ratio > 0.01 && ratio < 0.9,
            "partial break should be a drive (delay) fault, ratio = {ratio}"
        );
    }

    #[test]
    fn threshold_voltage_is_in_a_sane_range() {
        let fet = fast(TigFet::ideal());
        let vth = fet
            .threshold_voltage(1.2, 1.2, 3e-7)
            .expect("healthy device must cross the threshold criterion");
        assert!(vth > 0.1 && vth < 1.0, "V_th = {vth}");
    }

    #[test]
    fn fault_free_probe_density_matches_fig4_scale() {
        let fet = fast(TigFet::ideal());
        let n = fet.probe_density(Bias::uniform_gates(1.2, 1.2));
        assert!(
            n > 5e18 && n < 5e19,
            "fault-free bottleneck density = {n:.3e} cm^-3 (paper: 1.558e19)"
        );
    }

    #[test]
    fn gos_shape_matches_fig3() {
        // Fig. 3 shape: PGS site slashes I_D(SAT) hardest, CG site reduces
        // it moderately, PGD site leaves it unchanged; all three show the
        // negative-I_D signature at low V_D.
        let fet = fast(TigFet::ideal());
        let sat = Bias::uniform_gates(1.2, 1.2);
        let i_on = fet.drain_current(sat);
        let mut ratio = [0.0f64; 3];
        for (k, site) in crate::geometry::GateTerminal::ALL.into_iter().enumerate() {
            let sick = fast(TigFet::ideal().with_defect(DeviceDefect::gos(site)));
            ratio[k] = sick.drain_current(sat) / i_on;
            let low = sick.drain_current(Bias::uniform_gates(1.2, 0.01));
            assert!(low < 0.0, "GOS@{site}: I_D(10mV) = {low} must be negative");
        }
        assert!(ratio[0] > 0.03 && ratio[0] < 0.55, "PGS ratio {}", ratio[0]);
        assert!(ratio[1] > 0.5 && ratio[1] < 0.97, "CG ratio {}", ratio[1]);
        assert!(ratio[2] > 0.97 && ratio[2] < 1.2, "PGD ratio {}", ratio[2]);
        assert!(ratio[0] < ratio[1], "PGS must degrade harder than CG");
    }

    #[test]
    fn gos_density_shape_matches_fig4() {
        // Fig. 4 shape: density drop ordering PGS >> PGD > CG, with the
        // PGS site around two decades.
        let fet = fast(TigFet::ideal());
        let sat = Bias::uniform_gates(1.2, 1.2);
        let n0 = fet.probe_density(sat);
        let mut ratio = [0.0f64; 3];
        for (k, site) in crate::geometry::GateTerminal::ALL.into_iter().enumerate() {
            let sick = fast(TigFet::ideal().with_defect(DeviceDefect::gos(site)));
            ratio[k] = n0 / sick.probe_density(sat);
        }
        assert!(ratio[0] > 50.0 && ratio[0] < 250.0, "PGS {}", ratio[0]);
        assert!(ratio[1] > 5.0 && ratio[1] < 15.0, "CG {}", ratio[1]);
        assert!(ratio[2] > 8.0 && ratio[2] < 20.0, "PGD {}", ratio[2]);
        assert!(
            ratio[0] > ratio[2] && ratio[2] > ratio[1],
            "ordering {ratio:?}"
        );
    }

    #[test]
    fn sweep_is_monotone_for_healthy_device() {
        let fet = fast(TigFet::ideal());
        let sweep = fet.sweep_vcg(1.2, 1.2, 1.2, 0.2, 1.2, 11);
        for w in sweep.windows(2) {
            assert!(
                w[1].1 >= w[0].1 * 0.99,
                "I(V_CG) not monotone: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}
