"""Figures of merit: branching ratios and photon counting."""

import numpy as np
import pytest

from cavex.config import blue_case
from cavex.dynamics import SystemSpec, propagate
from cavex.observables import (
    beta_collection,
    bloch_trajectory,
    figure_of_merit,
    purcell_rate,
)
from cavex.pulses import IntracavityField, TimeGrid, intracavity_field_numeric
from cavex.qcore import HilbertSpec

GHZ = 2 * np.pi * 1e9


def decaying_excited_trajectory(n_lifetimes=18.0, n_points=4000):
    system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(2))
    space = system.hilbert
    rho0 = np.zeros((space.dim, space.dim), dtype=complex)
    rho0[space.n_fock, space.n_fock] = 1.0  # |e,0>
    t_end = n_lifetimes / system.emission_rate
    grid = TimeGrid(0.0, t_end, n_points)
    field = IntracavityField(grid, np.zeros(n_points, dtype=complex))
    from cavex.phonons import PhononSpec

    traj = propagate(system, field, PhononSpec(enabled=False), rho0=rho0, grid=grid).cells[0]
    return traj, system


class TestPopulationInversion:
    def test_single_excitation_counts_one_photon(self):
        traj, system = decaying_excited_trajectory()
        assert figure_of_merit(traj, system).pi_e == pytest.approx(1.0, abs=1e-4)

    def test_truncated_grid_still_counts_the_whole_ringdown(self):
        # the grid ends after two lifetimes, but the tail past it is closed
        # in one solve, so pi_e does not depend on where the samples stop
        traj, system = decaying_excited_trajectory(n_lifetimes=2.0, n_points=600)
        assert figure_of_merit(traj, system).pi_e == pytest.approx(1.0, abs=1e-4)
        sampled = np.trapezoid(system.kappa * traj.photon_number, traj.grid.times)
        assert sampled < 1.0

    def test_zero_field_gives_zero(self):
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(1))
        grid = TimeGrid(0.0, 1e-10, 100)
        field = IntracavityField(grid, np.zeros(100, dtype=complex))
        from cavex.phonons import PhononSpec

        traj = propagate(system, field, PhononSpec(enabled=False), grid=grid).cells[0]
        assert figure_of_merit(traj, system).pi_e == 0.0


class TestPurcellRate:
    def test_resonant_value(self):
        g, kappa = 4.0 * GHZ, 25.0 * GHZ
        assert purcell_rate(g, kappa, 0.0) == pytest.approx(4 * g**2 / kappa)

    def test_lorentzian_rolloff(self):
        g, kappa = 4.0 * GHZ, 25.0 * GHZ
        # detuning of half a linewidth halves the rate
        assert purcell_rate(g, kappa, kappa / 2) == pytest.approx(purcell_rate(g, kappa, 0.0) / 2)


class TestBetaCollection:
    def _system(self, dwe, gamma_bg=0.0):
        return SystemSpec(
            g=4.0 * GHZ,
            kappa=25.0 * GHZ,
            delta_omega_c=0.0,
            delta_omega_e=dwe,
            gamma_bg=gamma_bg,
            hilbert=HilbertSpec(1),
        )

    def test_single_mode_limit(self):
        assert beta_collection(self._system(1e6 * GHZ)) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_modes(self):
        assert beta_collection(self._system(0.0)) == pytest.approx(0.5)

    def test_paper_splitting_ratio(self):
        # 50 GHz splitting at kappa/2pi = 25 GHz: Lorentzian ratio 1/17
        beta = beta_collection(self._system(-50.0 * GHZ))
        assert beta == pytest.approx(1.0 / (1.0 + 1.0 / 17.0), rel=1e-12)
        assert beta == pytest.approx(0.944, abs=5e-4)

    def test_background_decay_lowers_branching(self):
        with_bg = beta_collection(self._system(-50.0 * GHZ, gamma_bg=0.5 * GHZ))
        assert with_bg < beta_collection(self._system(-50.0 * GHZ))


class TestBlochTrajectory:
    def test_ground_state_south_pole(self):
        traj, system = decaying_excited_trajectory()
        bloch = bloch_trajectory(traj, system.hilbert)
        np.testing.assert_allclose(bloch[-1], [0.0, 0.0, -1.0], atol=1e-6)

    def test_initial_excited_north_pole(self):
        traj, system = decaying_excited_trajectory()
        bloch = bloch_trajectory(traj, system.hilbert)
        np.testing.assert_allclose(bloch[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_norm_bounded_along_driven_trajectory(self):
        cfg = blue_case(amplitude_pi=6.0, n_traj_points=400)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        traj = propagate(system, field, cfg.phonon(), tol=cfg.tol).cells[0]
        bloch = bloch_trajectory(traj, system.hilbert)
        assert np.linalg.norm(bloch, axis=1).max() <= 1.0 + 1e-8


class TestFigureOfMerit:
    def test_eta_is_product_by_construction(self):
        traj, system = decaying_excited_trajectory()
        fom = figure_of_merit(traj, system)
        assert fom.eta_c == fom.beta_c * fom.pi_e
        assert fom.max_excited_pop == pytest.approx(1.0)
