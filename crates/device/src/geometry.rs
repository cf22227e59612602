//! Device geometry of the TIG-SiNWFET (Fig. 1 / Table II of the paper).
//!
//! The wire axis is discretised into five regions:
//!
//! ```text
//!   source | PGS (22nm) | spacer (18nm) | CG (22nm) | spacer (18nm) | PGD (22nm) | drain
//!   (NiSi)                                                                       (NiSi)
//! ```
//!
//! The polarity gates (PGS/PGD) sit over the Schottky junctions and modulate
//! their tunneling transparency; the control gate (CG) modulates the
//! thermionic barrier in the middle of the channel, exactly as described in
//! Section III-A of the paper.

use crate::constants::{EPS_HFO2, EPS_SI, NM};

/// One of the three gate electrodes of a TIG-SiNWFET.
///
/// The ordering follows the wire axis from source to drain: `Pgs`, `Cg`,
/// `Pgd`. This enum is also used to name gate-oxide-short (GOS) sites and
/// open-gate fault locations throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateTerminal {
    /// Polarity gate on the source side.
    Pgs,
    /// Control gate (conventional MOSFET-like gate).
    Cg,
    /// Polarity gate on the drain side.
    Pgd,
}

impl GateTerminal {
    /// All three gate terminals, in source-to-drain order.
    pub const ALL: [GateTerminal; 3] = [GateTerminal::Pgs, GateTerminal::Cg, GateTerminal::Pgd];
}

impl std::fmt::Display for GateTerminal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            GateTerminal::Pgs => "PGS",
            GateTerminal::Cg => "CG",
            GateTerminal::Pgd => "PGD",
        })
    }
}

/// Which electrode (if any) gates a given axial position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Under one of the three gates.
    Gated(GateTerminal),
    /// Ungated spacer between two gates (Laplace region).
    Spacer,
}

/// Structural and physical parameters of the device (Table II of the paper).
///
/// All lengths are stored in meters. Use [`DeviceGeometry::table_ii`] for the
/// exact parameter set the paper simulates.
///
/// # Examples
///
/// ```
/// use sinw_device::geometry::DeviceGeometry;
///
/// let g = DeviceGeometry::table_ii();
/// assert_eq!(g.grid_points(), g.region_map().len());
/// assert!((g.total_length() - 102e-9).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGeometry {
    /// Length of the control gate `L_CG` (paper: 22 nm).
    pub l_cg: f64,
    /// Length of each polarity gate `L_PGS`, `L_PGD` (paper: 22 nm).
    pub l_pg: f64,
    /// Length of each spacer `L_CP` between a polarity gate and the control
    /// gate (paper: 18 nm).
    pub l_spacer: f64,
    /// Nanowire radius `R_NW` (paper: 7.5 nm).
    pub r_nw: f64,
    /// Gate-oxide thickness `T_OX` (paper: 5.1 nm).
    pub t_ox: f64,
    /// Channel doping concentration in cm⁻³ (paper: 1e15, p-type).
    pub channel_doping_cm3: f64,
    /// Schottky barrier height for electrons at the NiSi contacts, in eV
    /// (paper: 0.41 eV).
    pub schottky_barrier_ev: f64,
    /// Axial grid spacing used by the solver, in meters.
    pub dx: f64,
}

impl DeviceGeometry {
    /// The exact parameter set of Table II with a 0.5 nm solver grid.
    #[must_use]
    pub fn table_ii() -> Self {
        DeviceGeometry {
            l_cg: 22.0 * NM,
            l_pg: 22.0 * NM,
            l_spacer: 18.0 * NM,
            r_nw: 7.5 * NM,
            t_ox: 5.1 * NM,
            channel_doping_cm3: 1e15,
            schottky_barrier_ev: 0.41,
            dx: 0.5 * NM,
        }
    }

    /// Total gated+spacer length of the wire between the two contacts.
    #[must_use]
    pub fn total_length(&self) -> f64 {
        2.0 * self.l_pg + 2.0 * self.l_spacer + self.l_cg
    }

    /// Number of interior grid points along the axis (excluding the two
    /// contact boundary points).
    #[must_use]
    pub fn grid_points(&self) -> usize {
        (self.total_length() / self.dx).round() as usize - 1
    }

    /// Axial coordinate of interior grid point `i` (point 0 sits one `dx`
    /// inside the source contact).
    #[must_use]
    pub fn x_of(&self, i: usize) -> f64 {
        (i as f64 + 1.0) * self.dx
    }

    /// The gate-all-around electrostatic natural length λ.
    ///
    /// λ sets how sharply the channel potential relaxes toward the gate
    /// potential; the classic cylindrical-GAA estimate is
    /// `λ = sqrt(ε_si · R · t_ox / (2 ε_ox))`, a few nanometers for the
    /// Table II geometry, which is what gives the TIG device its steep
    /// junction control.
    #[must_use]
    pub fn natural_length(&self) -> f64 {
        (EPS_SI * self.r_nw * self.t_ox / (2.0 * EPS_HFO2)).sqrt()
    }

    /// Which region each interior grid point belongs to.
    #[must_use]
    pub fn region_map(&self) -> Vec<Region> {
        let n = self.grid_points();
        let mut map = Vec::with_capacity(n);
        let b1 = self.l_pg;
        let b2 = b1 + self.l_spacer;
        let b3 = b2 + self.l_cg;
        let b4 = b3 + self.l_spacer;
        for i in 0..n {
            let x = self.x_of(i);
            let region = if x < b1 {
                Region::Gated(GateTerminal::Pgs)
            } else if x < b2 {
                Region::Spacer
            } else if x < b3 {
                Region::Gated(GateTerminal::Cg)
            } else if x < b4 {
                Region::Spacer
            } else {
                Region::Gated(GateTerminal::Pgd)
            };
            map.push(region);
        }
        map
    }

    /// Axial coordinate of the center of a gate region; used to place
    /// gate-oxide-short defects.
    #[must_use]
    pub fn gate_center(&self, gate: GateTerminal) -> f64 {
        match gate {
            GateTerminal::Pgs => self.l_pg / 2.0,
            GateTerminal::Cg => self.l_pg + self.l_spacer + self.l_cg / 2.0,
            GateTerminal::Pgd => self.total_length() - self.l_pg / 2.0,
        }
    }
}

impl Default for DeviceGeometry {
    fn default() -> Self {
        Self::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_total_length_is_102_nm() {
        let g = DeviceGeometry::table_ii();
        assert!((g.total_length() - 102.0 * NM).abs() < 1e-15);
    }

    #[test]
    fn natural_length_is_a_few_nanometers() {
        let g = DeviceGeometry::table_ii();
        let lambda = g.natural_length();
        assert!(
            lambda > 1.0 * NM && lambda < 6.0 * NM,
            "lambda = {} nm",
            lambda / NM
        );
    }

    #[test]
    fn region_map_is_ordered_pgs_spacer_cg_spacer_pgd() {
        let g = DeviceGeometry::table_ii();
        let map = g.region_map();
        let first = map.first().copied();
        let last = map.last().copied();
        assert_eq!(first, Some(Region::Gated(GateTerminal::Pgs)));
        assert_eq!(last, Some(Region::Gated(GateTerminal::Pgd)));
        // A mid-channel point must be under the control gate.
        let mid = map[map.len() / 2];
        assert_eq!(mid, Region::Gated(GateTerminal::Cg));
        // Exactly four region transitions.
        let transitions = map.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(transitions, 4);
    }

    #[test]
    fn gate_centers_fall_inside_their_regions() {
        let g = DeviceGeometry::table_ii();
        let map = g.region_map();
        for gate in GateTerminal::ALL {
            let x = g.gate_center(gate);
            let i = (x / g.dx).round() as usize - 1;
            assert_eq!(map[i], Region::Gated(gate), "gate {gate} center");
        }
    }

    #[test]
    fn grid_resolution_scales_point_count() {
        let mut g = DeviceGeometry::table_ii();
        let n0 = g.grid_points();
        g.dx /= 2.0;
        let n1 = g.grid_points();
        assert!(n1 >= 2 * n0 - 2, "n0={n0} n1={n1}");
    }
}
