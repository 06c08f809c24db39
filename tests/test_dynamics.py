"""Master-equation propagation: limits with closed-form oracles."""

import warnings

import numpy as np
import pytest

from cavex.config import blue_case, red_case
from cavex.dynamics import (
    PropagationError,
    SystemSpec,
    hamiltonian_at,
    propagate,
    redfield_dissipator,
)
from cavex.phonons import HBAR, KB, PhononSpec, bath_rate
from cavex.pulses import (
    CavityModeSpec,
    IntracavityField,
    PulseSpec,
    TimeGrid,
    default_field_grid,
    intracavity_field_numeric,
)
from cavex.qcore import HilbertSpec, ground_state, partial_trace_tls, sigma_minus

GHZ = 2 * np.pi * 1e9
PHONONS_OFF = PhononSpec(enabled=False)


def constant_field(omega, t_end, n=400, t_start=0.0):
    grid = TimeGrid(t_start, t_end, n)
    return IntracavityField(grid, np.full(n, omega, dtype=complex))


def zero_field(t_start=-1e-11, t_end=1e-11, n=64):
    grid = TimeGrid(t_start, t_end, n)
    return IntracavityField(grid, np.zeros(n, dtype=complex))


def sech_field(omega0, t_p, n=2048, span=16.0):
    grid = TimeGrid(-span * t_p, span * t_p, n)
    env = omega0 / np.cosh(grid.times / t_p) + 0.0j
    return IntracavityField(grid, env)


def weak_cavity_system(n_max=1, **kw):
    """Emitter effectively decoupled from the collection mode."""
    defaults = dict(g=1.0, kappa=1.0, hilbert=HilbertSpec(n_max))
    defaults.update(kw)
    return SystemSpec(**defaults)


class TestHamiltonian:
    def test_hermitian_at_random_times(self):
        cfg = blue_case()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        system = cfg.system()
        rng = np.random.default_rng(3)
        for t in rng.uniform(field.grid.t_start, field.grid.t_end, 100):
            h = hamiltonian_at(system, field, t)
            assert np.abs(h - h.conj().T).max() < 1e-12

    def test_vacuum_rabi_splitting(self):
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(2))
        h = hamiltonian_at(system, zero_field(), 0.0)
        # single-excitation block spans |g,1> and |e,0>
        space = system.hilbert
        idx = [1, space.n_fock]
        block = h[np.ix_(idx, idx)]
        ev = np.linalg.eigvalsh(block)
        np.testing.assert_allclose(ev, [-system.g, system.g], rtol=1e-12)

    def test_g_zero_limit_block_diagonal(self):
        # with negligible g and constant drive the TLS block decouples
        system = weak_cavity_system(delta_omega_c=10.0 * GHZ)
        omega = 3.0 * GHZ
        field = constant_field(omega, 1e-11)
        h = hamiltonian_at(system, field, 5e-12)
        space = system.hilbert
        # coupling between different Fock numbers only via g (here ~1 rad/s)
        assert abs(h[0, space.n_fock]) == pytest.approx(0.5 * omega, rel=1e-9)
        assert abs(h[1, space.n_fock]) <= system.g + 1e-9


class TestPropagationLimits:
    def test_ground_state_is_dark(self):
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(2))
        field = zero_field()
        traj = propagate(system, field, PHONONS_OFF)
        assert traj.excited_pop.max() < 1e-12
        assert traj.photon_number.max() < 1e-12
        np.testing.assert_allclose(traj.states[-1], traj.states[0], atol=1e-10)

    def test_resonant_pi_pulse_full_inversion(self):
        t_p = 4e-12
        omega0 = np.pi / (np.pi * t_p)  # area = pi
        system = weak_cavity_system()
        field = sech_field(omega0, t_p)
        traj = propagate(system, field, PHONONS_OFF, grid=field.grid)
        assert traj.excited_pop.max() == pytest.approx(1.0, abs=1e-3)

    def test_purcell_decay_rate(self):
        system = SystemSpec(g=2.0 * GHZ, kappa=50.0 * GHZ, hilbert=HilbertSpec(1))
        space = system.hilbert
        rho0 = np.zeros((space.dim, space.dim), dtype=complex)
        rho0[space.n_fock, space.n_fock] = 1.0  # |e,0>
        rate = 4.0 * system.g**2 / system.kappa
        grid = TimeGrid(0.0, 0.5 / rate, 200)
        traj = propagate(system, zero_field(0.0, grid.t_end), PHONONS_OFF, rho0=rho0, grid=grid)
        ref = np.exp(-rate * grid.times)
        assert np.max(np.abs(traj.excited_pop - ref) / ref) < 0.05

    def test_unitary_limit_preserves_purity(self):
        system = weak_cavity_system()
        t_p = 4e-12
        omega0 = 0.5 * np.pi / (np.pi * t_p)  # pi/2 pulse: maximal coherence
        field = sech_field(omega0, t_p)
        traj = propagate(system, field, PHONONS_OFF, grid=field.grid, tol=1e-10)
        purity = np.einsum("ij,ji->", traj.states[-1], traj.states[-1]).real
        assert purity == pytest.approx(1.0, abs=1e-6)


class TestRedfield:
    def test_disabled_gives_zero_superoperator(self):
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(1))
        h = hamiltonian_at(system, zero_field(), 0.0)
        dis = redfield_dissipator(system, PHONONS_OFF, h)
        rho = ground_state(system.hilbert)
        assert np.all(dis(rho) == 0.0)

    def test_zero_temperature_relaxes_to_lower_dressed_state(self):
        system = weak_cavity_system()
        omega = 150.0 * GHZ
        phonon = PhononSpec(temperature=0.0, coupling_scale=1.0)
        field = constant_field(omega, 4e-10)
        traj = propagate(system, field, phonon, grid=TimeGrid(0.0, 4e-10, 200))
        r = partial_trace_tls(traj.states[-1], system.hilbert)
        upper = np.array([1.0, 1.0]) / np.sqrt(2)  # dressed |+> for real drive
        p_up = (upper.conj() @ r @ upper).real
        assert p_up < 1e-3

    def test_dressed_boltzmann_steady_state(self):
        system = weak_cavity_system()
        omega = 150.0 * GHZ
        phonon = PhononSpec(temperature=4.2, coupling_scale=1.0)
        field = constant_field(omega, 6e-10)
        traj = propagate(system, field, phonon, grid=TimeGrid(0.0, 6e-10, 300))
        r = partial_trace_tls(traj.states[-1], system.hilbert)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        p_plus = (plus.conj() @ r @ plus).real
        p_minus = (minus.conj() @ r @ minus).real
        boltzmann = np.exp(-HBAR * omega / (KB * phonon.temperature))
        assert p_plus / p_minus == pytest.approx(boltzmann, abs=1e-3)

    def test_secular_variant_matches_steady_state(self):
        system = weak_cavity_system()
        omega = 150.0 * GHZ
        phonon = PhononSpec(temperature=4.2, coupling_scale=1.0)
        field = constant_field(omega, 6e-10)
        traj = propagate(system, field, phonon, grid=TimeGrid(0.0, 6e-10, 300), secular=True)
        r = partial_trace_tls(traj.states[-1], system.hilbert)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        ratio = (plus.conj() @ r @ plus).real / (minus.conj() @ r @ minus).real
        assert ratio == pytest.approx(np.exp(-HBAR * omega / (KB * 4.2)), abs=1e-3)

    def test_preserves_hermiticity(self):
        cfg = blue_case(amplitude_pi=8.0)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        h = hamiltonian_at(system, field, 0.0)
        dis = redfield_dissipator(system, cfg.phonon(), h)
        rng = np.random.default_rng(5)
        m = rng.normal(size=(system.hilbert.dim,) * 2) + 1j * rng.normal(
            size=(system.hilbert.dim,) * 2
        )
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        d = dis(rho)
        assert np.abs(d - d.conj().T).max() < 1e-12 * np.abs(d).max()

    def test_matches_four_term_form_on_any_matrix(self):
        # the tail builds L_T from basis matrices, so the map must be the
        # textbook one on non-Hermitian complex matrices as well
        cfg = blue_case(amplitude_pi=8.0)
        system, phonon = cfg.system(), cfg.phonon()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        h = hamiltonian_at(system, field, 2e-12)
        ev, vec = np.linalg.eigh(h)
        a = sigma_minus(system.hilbert).conj().T @ sigma_minus(system.hilbert)
        gam = bath_rate(phonon, ev[None, :] - ev[:, None])
        lam = vec @ ((vec.conj().T @ a @ vec) * (0.5 * gam)) @ vec.conj().T
        lam_d = lam.conj().T
        rng = np.random.default_rng(8)
        x = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        want = lam @ x @ a + a @ x @ lam_d - a @ lam @ x - x @ lam_d @ a
        got = redfield_dissipator(system, phonon, h)(x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("temperature", [4.2, 0.0])
    def test_continuous_at_degenerate_eigenbasis(self, temperature):
        # at dwc = 0, |g,0> and |e,n_max> both sit at zero energy in H0
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(2))
        phonon = PhononSpec(temperature=temperature)
        h0 = hamiltonian_at(system, zero_field(), 0.0)
        rng = np.random.default_rng(13)
        m = rng.normal(size=h0.shape) + 1j * rng.normal(size=h0.shape)
        rho = m @ m.conj().T / np.trace(m @ m.conj().T)
        d0 = redfield_dissipator(system, phonon, h0)(rho)
        for _ in range(2):
            v = rng.normal(size=h0.shape) + 1j * rng.normal(size=h0.shape)
            v = (v + v.conj().T) / np.linalg.norm(v + v.conj().T, 2)
            d = redfield_dissipator(system, phonon, h0 + 1e-9 * system.kappa * v)(rho)
            assert np.abs(d - d0).max() <= 1e-6 * np.abs(d0).max()

    def test_degenerate_cell_emits_no_warning(self):
        system = SystemSpec(g=4.0 * GHZ, kappa=25.0 * GHZ, hilbert=HilbertSpec(2))
        field = constant_field(50.0 * GHZ, 2e-11, n=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = propagate(system, field, PhononSpec(), grid=TimeGrid(0.0, 4e-11, 50))
        assert traj.photons_out > 0.0


class TestStateInvariants:
    def test_trace_and_positivity_along_trajectory(self):
        cfg = blue_case(amplitude_pi=8.0, tol=1e-9, n_traj_points=300)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        traj = propagate(system, field, cfg.phonon(), tol=cfg.tol)
        traces = np.einsum("tii->t", traj.states).real
        assert np.abs(traces - 1.0).max() < 1e-8
        # non-secular Redfield is not completely positive; transient
        # mid-pulse negativity up to ~1.4e-5 is structural, so the
        # along-trajectory floor is recalibrated to -5e-5 (the final state
        # is still held to -1e-6 inside propagate)
        for rho in traj.states[:: len(traj.states) // 20]:
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -5e-5

    def test_positivity_floor_phonon_free(self):
        # the pure-Lindblad generator is completely positive: the original
        # -1e-6 floor holds along the whole trajectory
        cfg = blue_case(amplitude_pi=8.0, phonon_enabled=False)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        traj = propagate(system, field, cfg.phonon(), tol=1e-9)
        for rho in traj.states[:: len(traj.states) // 30]:
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-6

    def test_tolerance_validation(self):
        cfg = blue_case()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        with pytest.raises(ValueError):
            propagate(cfg.system(), field, PHONONS_OFF, tol=1e-3)

    def test_halving_tol_changes_pi_e_below_1e5(self):
        cfg = blue_case(amplitude_pi=6.0)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        tail = 16.0 / system.emission_rate
        grid = TimeGrid(field.grid.t_start, field.grid.t_end + tail, 2000)
        pi_vals = []
        for tol in (1e-8, 5e-9):
            traj = propagate(system, field, cfg.phonon(), grid=grid, tol=tol)
            pi_vals.append(traj.photons_out)
        assert abs(pi_vals[0] - pi_vals[1]) < 1e-5


class TestRingdownTail:
    def test_closed_tail_matches_direct_integration(self):
        cfg = blue_case(amplitude_pi=8.0, n_field_points=4096)
        system, phonon = cfg.system(), cfg.phonon()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        rho_t = propagate(system, field, phonon, grid=field.grid).states[-1]
        t0 = field.grid.t_end
        span = 40.0 / system.emission_rate
        grid = TimeGrid(t0, t0 + span, 400)
        # the drive window ends where the grid starts: the photon count and
        # every sample come from the closed tail (one solve, expm powers)
        closed = propagate(system, zero_field(t0 - span, t0), phonon, rho0=rho_t, grid=grid)
        # the same zero drive over the whole grid: RK45 integrates the tail
        direct = propagate(
            system, zero_field(t0, t0 + span), phonon, rho0=rho_t, grid=grid, tol=1e-12
        )
        assert closed.photons_out > 0.01  # photons left at the end of the window
        assert abs(closed.photons_out - direct.photons_out) < 1e-9
        assert np.abs(closed.states - direct.states).max() < 1e-9


class TestMirrorSymmetry:
    def test_phonon_free_blue_red_equivalence(self):
        amps = 7.5
        blue = blue_case(amplitude_pi=amps, phonon_enabled=False)
        red = red_case(amplitude_pi=amps, phonon_enabled=False, delta_omega_L_GHz=-88.0)
        trajs = []
        for cfg in (blue, red):
            system = cfg.system()
            field = intracavity_field_numeric(
                cfg.pulse(), cfg.excitation_mode(), cfg.field_grid()
            )
            tail = 16.0 / system.emission_rate
            grid = TimeGrid(field.grid.t_start, field.grid.t_end + tail, 800)
            trajs.append(propagate(system, field, cfg.phonon(), grid=grid, tol=1e-12))
        b, r = trajs
        # populations and photon flux are invariant under the mirror; at
        # tol = 1e-12 each trajectory carries a few 1e-8 of residual RK45
        # global error, which bounds how closely the two runs can agree
        assert np.abs(b.excited_pop - r.excited_pop).max() < 5e-8
        assert np.abs(b.photon_number - r.photon_number).max() < 5e-8
        assert abs(b.photons_out - r.photons_out) < 5e-8
