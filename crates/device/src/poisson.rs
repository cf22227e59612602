//! One-dimensional screened-Poisson solver for the conduction-band profile
//! along the nanowire axis.
//!
//! In a gate-all-around geometry the channel potential relaxes toward the
//! gate potential over the *natural length* λ, which turns the 3-D Poisson
//! problem into the classic 1-D screened form
//!
//! ```text
//!   d²E_c/dx² = (E_c − E_target(x)) / λ²      (under a gate)
//!   d²E_c/dx² = 0                             (in a spacer)
//! ```
//!
//! with Dirichlet conditions at the two NiSi Schottky contacts
//! (`E_c = Φ_B` at the source, `E_c = Φ_B − V_DS` at the drain, both in eV
//! relative to the source Fermi level). The discretised system is
//! tridiagonal and solved directly with the Thomas algorithm.

use crate::geometry::{DeviceGeometry, GateTerminal, Region};

/// Per-point coupling description assembled by the device model before the
/// solve: the local screening strength and the local target energy.
#[derive(Debug, Clone)]
pub struct CouplingProfile {
    /// `1/λ²` at every interior grid point (0 in spacers), in m⁻².
    pub screening: Vec<f64>,
    /// Target conduction-band energy at every interior grid point, in eV.
    /// Only meaningful where `screening > 0`.
    pub target_ev: Vec<f64>,
}

impl CouplingProfile {
    /// Build the defect-free coupling profile for the given gate biases.
    ///
    /// `target_of` maps each gate terminal to its target conduction-band
    /// energy (already folded with work-function offset and gate efficiency
    /// by the caller).
    pub fn from_geometry<F>(geometry: &DeviceGeometry, target_of: F) -> Self
    where
        F: Fn(GateTerminal) -> f64,
    {
        Self::from_geometry_sharpened(geometry, 1.0, 0.0, target_of)
    }

    /// Like [`CouplingProfile::from_geometry`], but with extra screening
    /// within `range` of the two contacts.
    ///
    /// The NiSi silicide screens the junction with its own, much shorter
    /// length, and the polarity gates fringe over the contact edge; both
    /// effects sharpen the Schottky wedge well below the mid-channel natural
    /// length. `sharpen` multiplies `1/λ` inside the contact zone (3 is the
    /// calibrated default of [`crate::model::ModelParams`]).
    pub fn from_geometry_sharpened<F>(
        geometry: &DeviceGeometry,
        sharpen: f64,
        range: f64,
        target_of: F,
    ) -> Self
    where
        F: Fn(GateTerminal) -> f64,
    {
        let lambda = geometry.natural_length();
        let inv_l2 = 1.0 / (lambda * lambda);
        let total = geometry.total_length();
        let map = geometry.region_map();
        let mut screening = Vec::with_capacity(map.len());
        let mut target_ev = Vec::with_capacity(map.len());
        for (i, region) in map.iter().enumerate() {
            let x = geometry.x_of(i);
            let near_contact = x < range || x > total - range;
            let k = if near_contact {
                inv_l2 * sharpen * sharpen
            } else {
                inv_l2
            };
            match region {
                Region::Gated(g) => {
                    screening.push(k);
                    target_ev.push(target_of(*g));
                }
                Region::Spacer => {
                    screening.push(0.0);
                    target_ev.push(0.0);
                }
            }
        }
        CouplingProfile {
            screening,
            target_ev,
        }
    }

    /// Number of interior grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.screening.len()
    }

    /// Whether the profile has no interior points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.screening.is_empty()
    }
}

/// Result of a screened-Poisson solve: the conduction-band edge along the
/// axis **including** the two contact boundary points.
///
/// Besides the electrostatic profile, the struct carries one transport-level
/// defect annotation used by [`crate::transport`]: `blockage_action`, the
/// extra energy-independent WKB action of a (possibly partial) nanowire
/// break in series with the channel. A gate-oxide short needs none: its
/// plug acts through the electrostatics, pinning the channel under it to
/// the gate potential (see [`crate::model::TigFet::band_profile`]).
#[derive(Debug, Clone)]
pub struct BandProfile {
    /// Grid spacing in meters.
    pub dx: f64,
    /// `E_c(x)` in eV relative to the source Fermi level; index 0 is the
    /// source contact, the last index is the drain contact.
    pub e_c: Vec<f64>,
    /// Additional series WKB action (dimensionless, ≥ 0) modeling a
    /// nanowire break; transmission is multiplied by `exp(-2·action)`.
    pub blockage_action: f64,
}

impl BandProfile {
    /// Axial coordinate of sample `i`, in meters.
    #[must_use]
    pub fn x_of(&self, i: usize) -> f64 {
        i as f64 * self.dx
    }

    /// Valence-band edge at sample `i`, in eV (`E_v = E_c − E_g`).
    #[must_use]
    pub fn e_v(&self, i: usize, e_gap: f64) -> f64 {
        self.e_c[i] - e_gap
    }

    /// The highest conduction-band energy along the profile — the thermionic
    /// barrier electrons must overcome.
    #[must_use]
    pub fn max_e_c(&self) -> f64 {
        self.e_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Solve the screened-Poisson equation.
///
/// `bc_source`/`bc_drain` are the Dirichlet conduction-band energies at the
/// contacts in eV. Returns the full profile including the boundary points.
///
/// # Panics
///
/// Panics if the coupling profile is empty.
#[must_use]
pub fn solve(
    geometry: &DeviceGeometry,
    coupling: &CouplingProfile,
    bc_source: f64,
    bc_drain: f64,
) -> BandProfile {
    let n = coupling.len();
    assert!(n > 0, "coupling profile must not be empty");
    let dx2 = geometry.dx * geometry.dx;

    // Tridiagonal system: -phi[i-1] + (2 + k_i dx^2) phi[i] - phi[i+1] = k_i dx^2 t_i
    let mut diag = vec![0.0f64; n];
    let mut rhs = vec![0.0f64; n];
    for i in 0..n {
        let k = coupling.screening[i];
        diag[i] = 2.0 + k * dx2;
        rhs[i] = k * dx2 * coupling.target_ev[i];
    }
    rhs[0] += bc_source;
    rhs[n - 1] += bc_drain;

    // Thomas algorithm with unit off-diagonals (-1).
    let mut c_prime = vec![0.0f64; n];
    let mut d_prime = vec![0.0f64; n];
    c_prime[0] = -1.0 / diag[0];
    d_prime[0] = rhs[0] / diag[0];
    for i in 1..n {
        let m = diag[i] + c_prime[i - 1];
        c_prime[i] = -1.0 / m;
        d_prime[i] = (rhs[i] + d_prime[i - 1]) / m;
    }
    let mut phi = vec![0.0f64; n];
    phi[n - 1] = d_prime[n - 1];
    for i in (0..n - 1).rev() {
        phi[i] = d_prime[i] - c_prime[i] * phi[i + 1];
    }

    let mut e_c = Vec::with_capacity(n + 2);
    e_c.push(bc_source);
    e_c.extend_from_slice(&phi);
    e_c.push(bc_drain);
    BandProfile {
        dx: geometry.dx,
        e_c,
        blockage_action: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::NM;

    fn uniform_target(geometry: &DeviceGeometry, t: f64) -> CouplingProfile {
        CouplingProfile::from_geometry(geometry, |_| t)
    }

    #[test]
    fn deep_channel_relaxes_to_gate_target() {
        let g = DeviceGeometry::table_ii();
        let coupling = uniform_target(&g, -0.3);
        let profile = solve(&g, &coupling, 0.41, 0.41);
        // Mid-channel (many natural lengths from the contacts) must sit at
        // the gate target.
        let mid = profile.e_c[profile.e_c.len() / 2];
        assert!((mid + 0.3).abs() < 1e-3, "mid-channel E_c = {mid}");
    }

    #[test]
    fn boundary_values_are_respected() {
        let g = DeviceGeometry::table_ii();
        let coupling = uniform_target(&g, 0.0);
        let profile = solve(&g, &coupling, 0.41, -0.79);
        assert_eq!(profile.e_c[0], 0.41);
        assert_eq!(*profile.e_c.last().expect("nonempty"), -0.79);
    }

    #[test]
    fn maximum_principle_holds() {
        // The solution must stay between the extremes of the boundary values
        // and the targets (no spurious oscillation from the solver).
        let g = DeviceGeometry::table_ii();
        let coupling = CouplingProfile::from_geometry(&g, |gate| match gate {
            GateTerminal::Pgs => -0.6,
            GateTerminal::Cg => 0.7,
            GateTerminal::Pgd => -0.6,
        });
        let profile = solve(&g, &coupling, 0.41, -0.79);
        let lo = (-0.79f64).min(-0.6);
        let hi = 0.7f64.max(0.41);
        for (i, &e) in profile.e_c.iter().enumerate() {
            assert!(
                e >= lo - 1e-9 && e <= hi + 1e-9,
                "point {i}: E_c = {e} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn spacers_are_harmonic() {
        // In a Laplace (spacer) region the discrete solution must be linear:
        // the second difference vanishes.
        let g = DeviceGeometry::table_ii();
        let coupling = CouplingProfile::from_geometry(&g, |gate| match gate {
            GateTerminal::Pgs => -0.5,
            GateTerminal::Cg => 0.5,
            GateTerminal::Pgd => -0.5,
        });
        let profile = solve(&g, &coupling, 0.41, 0.41);
        let map = g.region_map();
        for i in 1..map.len() - 1 {
            if map[i - 1] == Region::Spacer
                && map[i] == Region::Spacer
                && map[i + 1] == Region::Spacer
            {
                // interior of a spacer (shift by 1 for the boundary point)
                let second_diff = profile.e_c[i] - 2.0 * profile.e_c[i + 1] + profile.e_c[i + 2];
                assert!(
                    second_diff.abs() < 1e-9,
                    "spacer point {i} not harmonic: {second_diff}"
                );
            }
        }
    }

    #[test]
    fn refinement_converges() {
        // Halving dx must not change the mid-channel solution noticeably.
        let mut g = DeviceGeometry::table_ii();
        let p1 = solve(&g, &uniform_target(&g, -0.2), 0.41, 0.41);
        let mid1 = p1.e_c[p1.e_c.len() / 2];
        g.dx = 0.25 * NM;
        let p2 = solve(&g, &uniform_target(&g, -0.2), 0.41, 0.41);
        let mid2 = p2.e_c[p2.e_c.len() / 2];
        assert!((mid1 - mid2).abs() < 1e-4, "mid1={mid1} mid2={mid2}");
    }
}
