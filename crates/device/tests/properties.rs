//! Property-based tests of the device substrate: solver invariants,
//! transmission bounds and table-model consistency.

use proptest::prelude::*;
use sinw_device::constants::{HBAR, H_PLANCK, M0, Q};
use sinw_device::defects::DeviceDefect;
use sinw_device::geometry::{DeviceGeometry, GateTerminal};
use sinw_device::model::{Bias, TigFet};
use sinw_device::poisson::{solve, BandProfile, CouplingProfile};
use sinw_device::table::TigTable;
use sinw_device::transport::{
    fermi, landauer_current, wkb_transmission, CurrentBreakdown, EnergyGrid, TransportParams,
};
use std::sync::OnceLock;

fn shared_table() -> &'static TigTable {
    static TABLE: OnceLock<TigTable> = OnceLock::new();
    TABLE.get_or_init(|| TigTable::build_coarse(&TigFet::ideal()))
}

/// Whether every coordinate the coarse table interpolates on is at least
/// 1 mV from one of its grid lines (gate pitch 0.3 V from −1.2 V, drain
/// pitch 0.2 V from 0 V), in the forward frame and in the source/drain
/// fold alike.
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

/// The value half of `current_and_gradients` is `current`, bit for bit,
/// on every combination of on-grid, rail, out-of-range, off-grid and
/// zero-`v_ds` coordinates, for both drain signs.
#[test]
fn current_and_gradients_value_is_current_on_special_biases() {
    let t = shared_table();
    let gates = [-2.0, -1.2, -0.9, -0.3, 0.0, 0.45, 1.17, 1.2, 2.0];
    let drains = [-2.0, -1.2, -0.4, -0.13, -0.0, 0.0, 0.13, 0.4, 1.2, 2.0];
    for &v_cg in &gates {
        for &v_pgs in &gates {
            for &v_pgd in &gates {
                for &v_ds in &drains {
                    let bias = Bias {
                        v_cg,
                        v_pgs,
                        v_pgd,
                        v_ds,
                    };
                    let (i, _) = t.current_and_gradients(bias);
                    assert_eq!(i.to_bits(), t.current(bias).to_bits(), "{bias:?}");
                }
            }
        }
    }
}

/// The Landauer integral without any early stop: every in-window energy,
/// both WKB actions summed over every sample. `landauer_current` must
/// reproduce it bit for bit.
fn reference_current(
    profile: &BandProfile,
    v_ds: f64,
    params: &TransportParams,
    grid: &EnergyGrid,
) -> CurrentBreakdown {
    let transmission = |mass_rel: f64, db_of: &dyn Fn(f64) -> f64| {
        let pref = (2.0 * mass_rel * M0 * Q).sqrt() / HBAR;
        let mut action = profile.blockage_action;
        for &ec in &profile.e_c {
            let db = db_of(ec);
            if db > 0.0 {
                action += pref * db.sqrt() * profile.dx;
            }
        }
        (-2.0 * action).exp()
    };
    let g_quantum = 2.0 * Q * Q / H_PLANCK;
    let mut i_e = 0.0;
    let mut i_h = 0.0;
    let mut e = grid.e_min;
    while e <= grid.e_max {
        let occ = fermi(e, 0.0) - fermi(e, -v_ds);
        if occ.abs() > 1e-12 {
            let te = transmission(params.m_e, &|ec| ec - e);
            if te > 1e-15 {
                i_e += te * occ;
            }
            let th = transmission(params.m_h, &|ec| e - (ec - params.e_gap));
            if th > 1e-15 {
                i_h += th * occ;
            }
        }
        e += grid.de;
    }
    CurrentBreakdown {
        electron: g_quantum * params.modes_e * i_e * grid.de,
        hole: g_quantum * params.modes_h * i_h * grid.de,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The early-stopping Landauer kernel equals the unbounded integral bit
    /// for bit, on both energy grids, for a healthy device, a nanowire break
    /// of random severity and a gate-oxide short at each site.
    #[test]
    fn landauer_early_stop_is_bit_identical(
        v_cg in -1.2f64..1.2,
        v_pgs in -1.2f64..1.2,
        v_pgd in -1.2f64..1.2,
        v_ds in 0.0f64..1.2,
        position in 0.0f64..1.0,
        severity in 0.0f64..1.0,
    ) {
        let bias = Bias { v_cg, v_pgs, v_pgd, v_ds };
        let devices = [
            TigFet::ideal(),
            TigFet::ideal().with_defect(DeviceDefect::NanowireBreak { position, severity }),
            TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Pgs)),
            TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Cg)),
            TigFet::ideal().with_defect(DeviceDefect::gos(GateTerminal::Pgd)),
        ];
        for fet in &devices {
            let profile = fet.band_profile(bias);
            for grid in [EnergyGrid::standard(), EnergyGrid::coarse()] {
                let got = landauer_current(&profile, v_ds, &fet.params.transport, &grid);
                let want = reference_current(&profile, v_ds, &fet.params.transport, &grid);
                prop_assert_eq!(
                    (got.electron.to_bits(), got.hole.to_bits()),
                    (want.electron.to_bits(), want.hole.to_bits()),
                    "{:?} at {:?} on {:?}: {:?} vs {:?}",
                    fet.defects(), bias, grid, got, want
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The screened-Poisson solution never exceeds the hull of its
    /// boundary conditions and gate targets (discrete maximum principle).
    #[test]
    fn poisson_maximum_principle(
        t_pgs in -1.0f64..1.5,
        t_cg in -1.0f64..1.5,
        t_pgd in -1.0f64..1.5,
        bc_s in -1.0f64..1.0,
        bc_d in -1.0f64..1.0,
    ) {
        let g = DeviceGeometry::table_ii();
        let coupling = CouplingProfile::from_geometry(&g, |gate| match gate {
            GateTerminal::Pgs => t_pgs,
            GateTerminal::Cg => t_cg,
            GateTerminal::Pgd => t_pgd,
        });
        let profile = solve(&g, &coupling, bc_s, bc_d);
        let lo = t_pgs.min(t_cg).min(t_pgd).min(bc_s).min(bc_d) - 1e-9;
        let hi = t_pgs.max(t_cg).max(t_pgd).max(bc_s).max(bc_d) + 1e-9;
        for (i, &e) in profile.e_c.iter().enumerate() {
            prop_assert!(e >= lo && e <= hi, "point {i}: {e} outside [{lo}, {hi}]");
        }
    }

    /// WKB transmission is a probability and decreases when the whole
    /// barrier is raised.
    #[test]
    fn transmission_is_bounded_and_monotone(
        level in -0.3f64..0.8,
        raise in 0.01f64..0.5,
        energy in -0.5f64..0.5,
    ) {
        let g = DeviceGeometry::table_ii();
        let low = solve(&g, &CouplingProfile::from_geometry(&g, |_| level), 0.41, 0.41);
        let high = solve(
            &g,
            &CouplingProfile::from_geometry(&g, |_| level + raise),
            0.41 + raise,
            0.41 + raise,
        );
        let t_low = wkb_transmission(energy, &low, 0.19);
        let t_high = wkb_transmission(energy, &high, 0.19);
        prop_assert!((0.0..=1.0).contains(&t_low));
        prop_assert!((0.0..=1.0).contains(&t_high));
        prop_assert!(t_high <= t_low + 1e-12, "raising the barrier helped: {t_low} -> {t_high}");
    }

    /// Table-model passivity: a healthy device never pushes power into
    /// the circuit (I_D and V_DS share their sign).
    #[test]
    fn table_model_is_passive(
        v_cg in -1.2f64..1.2,
        v_pgs in -1.2f64..1.2,
        v_pgd in -1.2f64..1.2,
        v_ds in -1.2f64..1.2,
    ) {
        let i = shared_table().current(Bias { v_cg, v_pgs, v_pgd, v_ds });
        prop_assert!(i.is_finite());
        prop_assert!(
            i * v_ds >= -1e-18,
            "active region detected: I = {i} at V_DS = {v_ds}"
        );
    }

    /// The value half of `current_and_gradients` is `current`, bit for
    /// bit, anywhere in and beyond the table's range, for both drain signs.
    #[test]
    fn current_and_gradients_value_is_current(
        v_cg in -1.5f64..1.5,
        v_pgs in -1.5f64..1.5,
        v_pgd in -1.5f64..1.5,
        v_ds in -1.5f64..1.5,
    ) {
        let t = shared_table();
        let bias = Bias { v_cg, v_pgs, v_pgd, v_ds };
        let (i, _) = t.current_and_gradients(bias);
        prop_assert_eq!(i.to_bits(), t.current(bias).to_bits(), "{:?}", bias);
    }

    /// Away from grid lines each exact partial agrees with a tight central
    /// difference of `current`, for both drain signs (so through the
    /// source/drain fold too). The absolute slack covers the difference's
    /// rounding, about `ε·|I|/h`.
    #[test]
    fn gradients_match_central_difference(
        v_cg in -1.5f64..1.5,
        v_pgs in -1.5f64..1.5,
        v_pgd in -1.5f64..1.5,
        v_ds in -1.5f64..1.5,
    ) {
        let t = shared_table();
        let bias = Bias { v_cg, v_pgs, v_pgd, v_ds };
        if off_coarse_grid(bias) {
            let (i, g) = t.current_and_gradients(bias);
            let h = 1e-7;
            let nudge = |k: usize, dv: f64| {
                let mut b = bias;
                *[&mut b.v_cg, &mut b.v_pgs, &mut b.v_pgd, &mut b.v_ds][k] += dv;
                b
            };
            for (k, g_k) in g.into_iter().enumerate() {
                let fd = (t.current(nudge(k, h)) - t.current(nudge(k, -h))) / (2.0 * h);
                prop_assert!(
                    (g_k - fd).abs() <= 1e-5 * g_k.abs() + 1e-7 * i.abs() + 1e-20,
                    "partial {} at {:?}: exact {} vs central difference {}",
                    k, bias, g_k, fd
                );
            }
        }
    }

    /// Strictly outside an axis range the interpolant is flat, so the
    /// partial along that axis is exactly zero. For negative `v_ds` a gate
    /// coordinate is read in the folded frame, `v_gate − v_ds`.
    #[test]
    fn gradients_vanish_outside_the_axis_range(
        v_cg in -1.1f64..1.1,
        v_pgs in -1.1f64..1.1,
        v_pgd in -1.1f64..1.1,
        v_ds in -1.5f64..1.5,
        beyond in 0.01f64..0.8,
        below in 0usize..2,
        axis in 0usize..4,
    ) {
        let mut bias = Bias { v_cg, v_pgs, v_pgd, v_ds };
        let outside = if below == 1 { -1.2 - beyond } else { 1.2 + beyond };
        match axis {
            0 => bias.v_cg = outside + v_ds.min(0.0),
            1 => bias.v_pgs = outside + v_ds.min(0.0),
            2 => bias.v_pgd = outside + v_ds.min(0.0),
            _ => bias.v_ds = 1.2 + beyond,
        }
        let (_, g) = shared_table().current_and_gradients(bias);
        prop_assert!(g[axis] == 0.0, "partial {} at {:?} is {}", axis, bias, g[axis]);
    }

    /// Source/drain swap consistency of the table: evaluating the mirror
    /// configuration flips only the sign.
    #[test]
    fn table_swap_antisymmetry(
        v_cg in -0.6f64..0.6,
        v_pg in -0.6f64..0.6,
        v_ds in 0.05f64..1.2,
    ) {
        let t = shared_table();
        let fwd = t.current(Bias { v_cg, v_pgs: v_pg, v_pgd: v_pg, v_ds });
        let rev = t.current(Bias {
            v_cg: v_cg - v_ds,
            v_pgs: v_pg - v_ds,
            v_pgd: v_pg - v_ds,
            v_ds: -v_ds,
        });
        prop_assert!(
            (fwd + rev).abs() <= 1e-12 + 1e-9 * fwd.abs(),
            "fwd = {fwd}, rev = {rev}"
        );
    }
}
