//! Ballistic Landauer transport with WKB tunneling through the Schottky
//! junction wedges.
//!
//! The TIG-SiNWFET conducts through two mechanisms that this kernel captures
//! directly from the band profile produced by [`crate::poisson`]:
//!
//! * **Junction transparency** — the polarity gates thin (or thicken) the
//!   triangular Schottky wedges at the contacts; carriers tunnel through the
//!   classically forbidden sections, with a WKB transmission factor.
//! * **Thermionic control** — the control gate raises or lowers the barrier
//!   in the middle of the channel; carriers with energies below the barrier
//!   top are exponentially suppressed.
//!
//! Both the electron branch (conduction band) and the hole branch (valence
//! band) are integrated, which is what produces the ambipolar behaviour and,
//! with the gate biases of Section III-C, the controllable-polarity
//! conduction rule `CG = PGS = PGD`.
//!
//! ## Early stop
//!
//! [`landauer_current`] drops any transmission at or below `1e-15`, so it
//! stops summing an energy's WKB action once the action passes 18
//! (`exp(-36) ≈ 2.3e-16`). On a fixed profile the computed electron action
//! only falls as the energy rises and the hole action only rises, so each
//! branch also stops scanning energies at the first one that passes. The
//! terms that remain are summed in the same order as the full integral, so
//! the current is bit-identical to it (the argument sits at the scan; the
//! compact-model table pins in [`crate::table`] check it).

use crate::constants::{HBAR, H_PLANCK, M0, Q, VT};
use crate::poisson::BandProfile;

/// Energy-integration settings for the Landauer integral.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyGrid {
    /// Lowest energy sampled, in eV (relative to the source Fermi level).
    pub e_min: f64,
    /// Highest energy sampled, in eV.
    pub e_max: f64,
    /// Energy step, in eV.
    pub de: f64,
}

impl EnergyGrid {
    /// Grid that safely covers both carrier branches for |V| ≤ 1.5 V.
    #[must_use]
    pub fn standard() -> Self {
        EnergyGrid {
            e_min: -1.9,
            e_max: 1.9,
            de: 0.008,
        }
    }

    /// Coarser grid for fast lookup-table extraction in tests.
    #[must_use]
    pub fn coarse() -> Self {
        EnergyGrid {
            e_min: -1.9,
            e_max: 1.9,
            de: 0.02,
        }
    }
}

impl Default for EnergyGrid {
    fn default() -> Self {
        Self::standard()
    }
}

/// Transport parameters: tunneling masses and conducting mode counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportParams {
    /// Electron tunneling mass as a fraction of the free-electron mass.
    pub m_e: f64,
    /// Hole tunneling mass as a fraction of the free-electron mass.
    pub m_h: f64,
    /// Number of conducting electron modes (nanowire subbands).
    pub modes_e: f64,
    /// Number of conducting hole modes.
    pub modes_h: f64,
    /// Band gap in eV.
    pub e_gap: f64,
}

impl Default for TransportParams {
    fn default() -> Self {
        TransportParams {
            m_e: crate::constants::M_TUNNEL_E,
            m_h: crate::constants::M_TUNNEL_H,
            modes_e: 2.0,
            modes_h: 1.0,
            e_gap: crate::constants::E_GAP_NW,
        }
    }
}

/// Fermi–Dirac occupation at energy `e` (eV) for chemical potential `mu` (eV).
#[inline]
#[must_use]
pub fn fermi(e: f64, mu: f64) -> f64 {
    let x = (e - mu) / VT;
    if x > 40.0 {
        0.0
    } else if x < -40.0 {
        1.0
    } else {
        1.0 / (1.0 + x.exp())
    }
}

/// WKB momentum prefactor `sqrt(2 m q) / ħ` for a tunneling mass of
/// `mass_rel` m₀, so that `κ(x) = pref · sqrt(ΔE(x))` with `ΔE` in eV.
fn wkb_pref(mass_rel: f64) -> f64 {
    (2.0 * mass_rel * M0 * Q).sqrt() / HBAR
}

/// WKB action `blockage_action + Σ pref·sqrt(db)·dx` over the samples whose
/// barrier `db = db_of(E_c(x))` is positive, summed in index order.
///
/// Returns `None` as soon as a partial sum exceeds `limit`; the terms are
/// non-negative, so the full action would exceed it too.
fn action(profile: &BandProfile, pref: f64, db_of: impl Fn(f64) -> f64, limit: f64) -> Option<f64> {
    let mut action = profile.blockage_action;
    for &ec in &profile.e_c {
        let db = db_of(ec);
        if db > 0.0 {
            action += pref * db.sqrt() * profile.dx;
            if action > limit {
                return None;
            }
        }
    }
    Some(action)
}

/// WKB transmission of a carrier at energy `e` through the barrier profile
/// `barrier(x) − e` wherever positive.
///
/// `barrier` yields the local band edge seen by the carrier: `E_c(x)` for
/// electrons; for holes the roles are flipped by the caller (see
/// [`hole_transmission`]). `mass_rel` is the tunneling mass in units of m₀.
#[must_use]
pub fn wkb_transmission(e: f64, profile: &BandProfile, mass_rel: f64) -> f64 {
    // kappa(x) = sqrt(2 m (E_c - E) q) / hbar, integrate 2*kappa*dx over the
    // classically forbidden region; a nanowire break adds a fixed series
    // action.
    action(profile, wkb_pref(mass_rel), |ec| ec - e, f64::INFINITY)
        .map_or(0.0, |a| (-2.0 * a).exp())
}

/// WKB transmission for a hole at energy `e`: forbidden wherever the local
/// valence-band edge `E_v(x) = E_c(x) − E_g` is **below** `e`.
#[must_use]
pub fn hole_transmission(e: f64, profile: &BandProfile, mass_rel: f64, e_gap: f64) -> f64 {
    action(
        profile,
        wkb_pref(mass_rel),
        |ec| e - (ec - e_gap),
        f64::INFINITY,
    )
    .map_or(0.0, |a| (-2.0 * a).exp())
}

/// Action past which [`landauer_current`] stops summing: the transmission
/// would be at most `exp(-2·18) ≈ 2.3e-16`, below the `1e-15` cutoff under
/// which a transmission is not counted.
const ACTION_LIMIT: f64 = 18.0;

/// Breakdown of a Landauer-current evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CurrentBreakdown {
    /// Electron-branch current in amperes.
    pub electron: f64,
    /// Hole-branch current in amperes.
    pub hole: f64,
}

impl CurrentBreakdown {
    /// Total drain current in amperes.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.electron + self.hole
    }
}

/// Landauer drain current for the given band profile at drain bias `v_ds`
/// (volts, relative to the source).
///
/// The source chemical potential is 0 eV by convention and the drain sits at
/// `−v_ds` eV. Both carrier branches are positive for `v_ds > 0`, matching
/// the n-FET sign convention of Fig. 3.
#[must_use]
pub fn landauer_current(
    profile: &BandProfile,
    v_ds: f64,
    params: &TransportParams,
    grid: &EnergyGrid,
) -> CurrentBreakdown {
    let mu_s = 0.0;
    let mu_d = -v_ds;
    // 2 q^2 / h in siemens; the integral below is in eV so the charge of the
    // dE conversion cancels one q.
    let g_quantum = 2.0 * Q * Q / H_PLANCK;

    // The in-window energies, accumulated exactly as the grid is walked.
    let mut window = Vec::new();
    let mut e = grid.e_min;
    while e <= grid.e_max {
        let occ = fermi(e, mu_s) - fermi(e, mu_d);
        if occ.abs() > 1e-12 {
            window.push((e, occ));
        }
        e += grid.de;
    }

    // Early stop. The profile is fixed, so every sample's electron barrier
    // `fl(ec − e)` can only fall as `e` rises, and every hole barrier
    // `fl(e − ev)` can only rise. `sqrt`, the products with the positive
    // `pref` and `dx`, and the sums of non-negative terms in index order are
    // all monotone, so each partial sum of the electron action is
    // non-increasing in energy and each partial sum of the hole action is
    // non-decreasing. Once one energy bails past `ACTION_LIMIT`, every
    // lower energy bails for electrons and every higher energy for holes:
    // scan electrons down from the top and holes up from the bottom, and
    // stop each branch at its first bail. A bailed energy's transmission
    // would fail the `> 1e-15` filter below, and the sums still run in
    // ascending energy order, so the result is bit-identical to summing
    // every energy in full.
    let pref_e = wkb_pref(params.m_e);
    let mut t_e = vec![0.0; window.len()];
    for (t, &(e, _)) in t_e.iter_mut().zip(&window).rev() {
        match action(profile, pref_e, |ec| ec - e, ACTION_LIMIT) {
            Some(a) => *t = (-2.0 * a).exp(),
            None => break,
        }
    }
    let pref_h = wkb_pref(params.m_h);
    let mut holes_open = true;
    let mut i_e = 0.0;
    let mut i_h = 0.0;
    for (&(e, occ), &te) in window.iter().zip(&t_e) {
        if te > 1e-15 {
            i_e += te * occ;
        }
        if holes_open {
            match action(profile, pref_h, |ec| e - (ec - params.e_gap), ACTION_LIMIT) {
                Some(a) => {
                    let th = (-2.0 * a).exp();
                    if th > 1e-15 {
                        i_h += th * occ;
                    }
                }
                None => holes_open = false,
            }
        }
    }
    CurrentBreakdown {
        electron: g_quantum * params.modes_e * i_e * grid.de,
        hole: g_quantum * params.modes_h * i_h * grid.de,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{DeviceGeometry, GateTerminal};
    use crate::poisson::{solve, CouplingProfile};
    use proptest::prelude::*;

    fn flat_profile(level: f64, v_ds: f64) -> BandProfile {
        let g = DeviceGeometry::table_ii();
        // Sharpened contact wedges, as used by the calibrated device model.
        let coupling = CouplingProfile::from_geometry_sharpened(&g, 3.0, 4.0e-9, |_| level);
        solve(&g, &coupling, 0.41, 0.41 - v_ds)
    }

    #[test]
    fn fermi_is_half_at_mu() {
        assert!((fermi(0.3, 0.3) - 0.5).abs() < 1e-12);
        assert!(fermi(1.0, 0.0) < 1e-10);
        assert!(fermi(-1.0, 0.0) > 1.0 - 1e-10);
    }

    #[test]
    fn transmission_is_one_above_barrier() {
        let p = flat_profile(-0.2, 0.0);
        let t = wkb_transmission(0.5, &p, 0.19);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transmission_decays_with_barrier_height() {
        let p_low = flat_profile(0.3, 0.0);
        let p_high = flat_profile(0.6, 0.0);
        let t_low = wkb_transmission(0.0, &p_low, 0.19);
        let t_high = wkb_transmission(0.0, &p_high, 0.19);
        assert!(t_low > t_high, "t_low={t_low} t_high={t_high}");
        assert!(t_high < 1e-6, "22nm-wide 0.6eV barrier must be opaque");
    }

    #[test]
    fn zero_bias_means_zero_current() {
        let p = flat_profile(-0.1, 0.0);
        let i = landauer_current(&p, 0.0, &TransportParams::default(), &EnergyGrid::coarse());
        assert!(i.total().abs() < 1e-18, "I = {}", i.total());
    }

    #[test]
    fn on_state_carries_microamps_off_state_does_not() {
        // ON: channel pulled below the Fermi level -> thin source wedge.
        let on = flat_profile(-0.19, 1.2);
        let i_on = landauer_current(
            &on,
            1.2,
            &TransportParams::default(),
            &EnergyGrid::standard(),
        );
        // OFF: the mixed configuration of a blocked CP device (CG driven,
        // polarity gates at flat band): electrons are blocked by the 22 nm
        // flat-band barrier under the polarity gates, holes by the deep
        // valence band under the driven control gate.
        let g = DeviceGeometry::table_ii();
        let coupling =
            CouplingProfile::from_geometry_sharpened(&g, 3.0, 4.0e-9, |gate| match gate {
                crate::geometry::GateTerminal::Cg => -0.43,
                _ => 0.41,
            });
        let off = solve(&g, &coupling, 0.41, 0.41 - 1.2);
        let i_off = landauer_current(
            &off,
            1.2,
            &TransportParams::default(),
            &EnergyGrid::standard(),
        );
        assert!(
            i_on.total() > 1e-7,
            "ON current too small: {}",
            i_on.total()
        );
        assert!(
            i_off.total() < i_on.total() * 1e-3,
            "ON/OFF ratio too small: on={} off={}",
            i_on.total(),
            i_off.total()
        );
    }

    #[test]
    fn current_increases_with_drain_bias() {
        let params = TransportParams::default();
        let grid = EnergyGrid::coarse();
        let mut last = 0.0;
        for &vds in &[0.1, 0.4, 0.8, 1.2] {
            let p = flat_profile(-0.05, vds);
            let i = landauer_current(&p, vds, &params, &grid).total();
            assert!(i > last, "I({vds}) = {i} not above {last}");
            last = i;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The invariant behind `landauer_current`'s early stop: walking the
        /// standard grid upwards, the electron action never rises and the
        /// hole action never falls, and a bail at one energy implies a bail
        /// at every lower (electron) or higher (hole) energy.
        #[test]
        fn action_is_monotone_in_energy(
            t_pgs in -0.8f64..1.4,
            t_cg in -0.8f64..1.4,
            t_pgd in -0.8f64..1.4,
            v_ds in 0.0f64..1.2,
            blockage in 0.0f64..9.0,
        ) {
            let g = DeviceGeometry::table_ii();
            let coupling =
                CouplingProfile::from_geometry_sharpened(&g, 3.0, 4.0e-9, |gate| match gate {
                    GateTerminal::Pgs => t_pgs,
                    GateTerminal::Cg => t_cg,
                    GateTerminal::Pgd => t_pgd,
                });
            let mut profile = solve(&g, &coupling, 0.41, 0.41 - v_ds);
            profile.blockage_action = blockage;
            let params = TransportParams::default();
            let (pref_e, pref_h) = (wkb_pref(params.m_e), wkb_pref(params.m_h));
            let branches = |e: f64, limit: f64| {
                (
                    action(&profile, pref_e, |ec| ec - e, limit),
                    action(&profile, pref_h, |ec| e - (ec - params.e_gap), limit),
                )
            };
            let grid = EnergyGrid::standard();
            let mut e = grid.e_min;
            let mut last = branches(e, f64::INFINITY);
            let mut last_bail = branches(e, ACTION_LIMIT);
            while e + grid.de <= grid.e_max {
                e += grid.de;
                let (el, ho) = branches(e, f64::INFINITY);
                prop_assert!(el <= last.0, "electron action rose at {e}: {last:?} -> {el:?}");
                prop_assert!(ho >= last.1, "hole action fell at {e}: {last:?} -> {ho:?}");
                let (el_bail, ho_bail) = branches(e, ACTION_LIMIT);
                prop_assert!(el_bail.is_some() || last_bail.0.is_none(), "electron bail not monotone at {e}");
                prop_assert!(last_bail.1.is_some() || ho_bail.is_none(), "hole bail not monotone at {e}");
                last = (el, ho);
                last_bail = (el_bail, ho_bail);
            }
        }
    }
}
