"""Master-equation propagation: limits with closed-form oracles."""

import gc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cavex import dynamics
from cavex.config import apply_override, blue_case, load_config, red_case
from cavex.dynamics import (
    TABLE_STEP,
    Generator,
    PropagationError,
    RedfieldTable,
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
        traj = propagate(system, field, PHONONS_OFF).cells[0]
        assert traj.excited_pop.max() < 1e-12
        assert traj.photon_number.max() < 1e-12
        np.testing.assert_allclose(traj.states[-1], traj.states[0], atol=1e-10)

    def test_resonant_pi_pulse_full_inversion(self):
        t_p = 4e-12
        omega0 = np.pi / (np.pi * t_p)  # area = pi
        system = weak_cavity_system()
        field = sech_field(omega0, t_p)
        traj = propagate(system, field, PHONONS_OFF, grid=field.grid).cells[0]
        assert traj.excited_pop.max() == pytest.approx(1.0, abs=1e-3)

    def test_purcell_decay_rate(self):
        system = SystemSpec(g=2.0 * GHZ, kappa=50.0 * GHZ, hilbert=HilbertSpec(1))
        space = system.hilbert
        rho0 = np.zeros((space.dim, space.dim), dtype=complex)
        rho0[space.n_fock, space.n_fock] = 1.0  # |e,0>
        rate = 4.0 * system.g**2 / system.kappa
        grid = TimeGrid(0.0, 0.5 / rate, 200)
        traj = propagate(system, zero_field(0.0, grid.t_end), PHONONS_OFF, rho0=rho0, grid=grid).cells[0]
        ref = np.exp(-rate * grid.times)
        assert np.max(np.abs(traj.excited_pop - ref) / ref) < 0.05

    def test_unitary_limit_preserves_purity(self):
        system = weak_cavity_system()
        t_p = 4e-12
        omega0 = 0.5 * np.pi / (np.pi * t_p)  # pi/2 pulse: maximal coherence
        field = sech_field(omega0, t_p)
        traj = propagate(system, field, PHONONS_OFF, grid=field.grid, tol=1e-10).cells[0]
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
        traj = propagate(system, field, phonon, grid=TimeGrid(0.0, 4e-10, 200)).cells[0]
        r = partial_trace_tls(traj.states[-1], system.hilbert)
        upper = np.array([1.0, 1.0]) / np.sqrt(2)  # dressed |+> for real drive
        p_up = (upper.conj() @ r @ upper).real
        assert p_up < 1e-3

    def test_dressed_boltzmann_steady_state(self):
        system = weak_cavity_system()
        omega = 150.0 * GHZ
        phonon = PhononSpec(temperature=4.2, coupling_scale=1.0)
        field = constant_field(omega, 6e-10)
        traj = propagate(system, field, phonon, grid=TimeGrid(0.0, 6e-10, 300)).cells[0]
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
        traj = propagate(system, field, replace(phonon, secular=True), grid=TimeGrid(0.0, 6e-10, 300)).cells[0]
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

    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_matches_four_term_form_on_any_matrix(self, n_max):
        # the tail builds L_T from basis matrices, so the map must be the
        # textbook one on non-Hermitian complex matrices as well
        cfg = blue_case(amplitude_pi=8.0, n_max=n_max)
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

    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_secular_matches_pauli_form_on_any_matrix(self, n_max):
        # rates W[m, n] = gamma(E_n - E_m) |A_mn|^2 carry |n> to |m>; each
        # eigenbasis coherence decays at the mean of its two outgoing rates
        cfg = blue_case(amplitude_pi=8.0, n_max=n_max)
        system, phonon = cfg.system(), cfg.phonon()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        h = hamiltonian_at(system, field, 2e-12)
        ev, vec = np.linalg.eigh(h)
        sm = sigma_minus(system.hilbert)
        a = vec.conj().T @ sm.conj().T @ sm @ vec
        w = bath_rate(phonon, ev[None, :] - ev[:, None]) * np.abs(a) ** 2
        leaving = w.sum(axis=0)
        rng = np.random.default_rng(8)
        x = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        r = vec.conj().T @ x @ vec
        d = np.empty_like(r)
        for m in range(len(ev)):
            for n in range(len(ev)):
                d[m, n] = -0.5 * (leaving[m] + leaving[n]) * r[m, n]
            d[m, m] += sum(w[m, n] * r[n, n] for n in range(len(ev)))
        want = vec @ d @ vec.conj().T
        got = redfield_dissipator(system, replace(phonon, secular=True), h)(x)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("secular", [False, True])
    def test_stack_equals_each_matrix_alone(self, secular):
        # propagate builds the maps of a (stages, cells) drive stack at once,
        # one per stage: each is redfield_dissipator's at the stage's drive,
        # and each matrix of a stack gets its own map, bit for bit
        cfg = blue_case(secular=secular)
        system, phonon, n_fock = cfg.system(), cfg.phonon(), cfg.system().hilbert.n_fock
        gen, rng = Generator(system), np.random.default_rng(17)
        omega = rng.uniform(0.0, 400.0 * GHZ, (5, 3)) * np.exp(2j * np.pi * rng.uniform(size=(5, 3)))
        rho = np.array([random_density_matrix(rng, system.hilbert.dim) for _ in omega[0]])
        basis = dynamics._eigenbasis(phonon, gen.hamiltonian(omega), n_fock)
        if secular:
            stage_map = dynamics._secular(*basis)
        else:
            lam = dynamics._lambda(*basis)
            lam_d, sign = lam.conj().swapaxes(-1, -2).copy(), dynamics._coupling_sign(system.hilbert.dim, n_fock)

            def stage_map(rho, s):
                return dynamics._commutator(lam[s], lam_d[s], sign, rho)

        for s, stage in enumerate(omega):
            stacked = stage_map(rho, s)
            assert np.array_equal(stacked, redfield_dissipator(system, phonon, gen.hamiltonian(stage))(rho))
            for k, w in enumerate(stage):
                assert np.array_equal(stacked[k], redfield_dissipator(system, phonon, gen.hamiltonian(w))(rho[k]))

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
            traj = propagate(system, field, PhononSpec(), grid=TimeGrid(0.0, 4e-11, 50)).cells[0]
        assert traj.photons_out > 0.0


def random_density_matrix(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def table_map(table, omega, rho):
    """The table's map at one drive value, through the lookup and the
    commutator that propagate's drift runs."""
    lam = table.lam(np.array([omega]))
    lam_d, sign = lam.conj().swapaxes(-1, -2).copy(), dynamics._coupling_sign(len(rho), len(rho) // 2)
    return dynamics._commutator(lam[0], lam_d[0], sign, rho)


def blue_field(amplitude_pi, **overrides):
    cfg = blue_case(amplitude_pi=amplitude_pi, **overrides)
    return cfg, intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())


class TestRedfieldTable:
    @pytest.mark.parametrize("n_max", [3, 5])
    def test_matches_per_call_map_on_random_drive(self, n_max):
        # the eigenbasis map of gen.hamiltonian(omega) is the oracle: at the
        # nodes only the U(1) phase acts, between them the cubic rule too;
        # the first ten intervals are where a weak cell reads
        cfg, field = blue_field(12.0, n_max=n_max)
        system, phonon = cfg.system(), cfg.phonon()
        gen = Generator(system)
        table = RedfieldTable(phonon, [gen], field.magnitude_bound()[0])
        rng = np.random.default_rng(21)
        for r_nodes, bound in ((rng.integers(0, table.cubic.shape[1] + 1, 10) * TABLE_STEP, 1e-13),
                               (rng.uniform(0.0, field.magnitude_bound()[0], 10), 1e-8),
                               (rng.uniform(0.0, 10 * TABLE_STEP, 10), 1e-8)):
            for r in r_nodes:
                omega = r * np.exp(2j * np.pi * rng.uniform())
                rho = random_density_matrix(rng, system.hilbert.dim)
                want = redfield_dissipator(system, phonon, gen.hamiltonian(omega))(rho)
                got = table_map(table, omega, rho)
                assert np.abs(got - want).max() <= bound * np.abs(want).max()

    def test_covers_the_interpolated_field_without_extrapolating(self):
        # at() overshoots the largest sample between samples (by ~1e-6 of
        # the peak here); the table must end past every |Omega| it returns
        cfg, field = blue_field(12.0)
        system = cfg.system()
        peak = np.abs(field.envelope).argmax()
        times = np.linspace(*field.grid.times[[peak - 3, peak + 3]], 3001)
        largest = max(abs(field.at(t)) for t in times)
        assert largest > np.abs(field.envelope).max()
        table = RedfieldTable(cfg.phonon(), [Generator(system)], field.magnitude_bound()[0])
        assert largest < table.cubic.shape[1] * TABLE_STEP  # the last interior node

    def test_one_bath_rate_call_per_cell(self, monkeypatch):
        # one bath_rate call and one eigh batch, no larger than the one the
        # row's strongest cell builds alone; the drift calls neither
        calls, nodes = [], []
        monkeypatch.setattr(dynamics, "bath_rate", lambda *a: calls.append(1) or bath_rate(*a))
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: nodes.append(a.size // a.shape[-1] ** 2) or eigh(a))
        cfg, field = blue_field(1.0, n_field_points=4096)
        system, amplitudes = cfg.system(), np.linspace(0.5, 12.0, 8)
        grid = dynamics.ringdown_grid(system, field, 2)
        propagate(system, field, cfg.phonon(), grid=grid, amplitudes=amplitudes)
        assert len(calls) == 1
        row_nodes = nodes[:]
        nodes.clear()
        propagate(system, field, cfg.phonon(), grid=grid, amplitudes=amplitudes[-1:])
        assert len(row_nodes) == 1 and row_nodes[0] <= nodes[0]

    def test_lookup_does_not_depend_on_the_table_size(self):
        # the invariant behind a cell equalling its own run: every node and
        # interval a small table holds is the same in a larger one
        cfg, field = blue_field(3.0)
        system, phonon = cfg.system(), cfg.phonon()
        gen, bound = Generator(system), field.magnitude_bound()[0]
        small, large = (RedfieldTable(phonon, [gen], r) for r in (bound, 4.0 * bound))
        assert small.cubic.shape[1] < large.cubic.shape[1]
        rng = np.random.default_rng(8)
        omega = rng.uniform(0.0, bound, (6, 5)) * np.exp(2j * np.pi * rng.uniform(size=(6, 5)))
        for got, want in zip(small.lam(omega), large.lam(omega)):
            assert np.array_equal(got, want)

    def test_gathered_phase_equals_the_power_form(self):
        # lam takes each distinct power of the U(1) phase once and gathers it;
        # the oracle is lam with phase ** exponent taken entry by entry
        cfg, field = blue_field(6.0)
        system = cfg.system()
        table = RedfieldTable(cfg.phonon(), [Generator(system)], field.magnitude_bound()[0])
        rng = np.random.default_rng(22)
        drawn = rng.uniform(0.0, field.magnitude_bound()[0], (6, 8)) * np.exp(2j * np.pi * rng.uniform(size=(6, 8)))
        drawn[0, :4] = 0.0, -0.0, 5e-324 - 5e-324j, -1e-310 + 3e-320j  # zero and subnormal
        drawn[1, :2] = complex(np.nan, 0.0), complex(np.nan, np.nan)
        for omega in (drawn, drawn[:, :1], drawn[0, 0]):
            r = np.abs(omega)
            x = r / TABLE_STEP
            i = np.fmin(x, table.cubic.shape[1] - 1).astype(np.intp)
            lam = np.matmul((x - i)[..., None, None] ** np.arange(4), table.cubic[0, i])
            safe = np.where(r > 0.0, r, 1.0)
            phase = np.where(r > 0.0, omega.real / safe + 1j * (omega.imag / safe), 1.0)
            want = lam.reshape(r.shape + table.exponent.shape) * phase[..., None, None] ** table.exponent
            got = table.lam(omega)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_field_builds_a_valid_table_and_emits_nothing(self):
        cfg, field = blue_field(0.0)
        system, phonon = cfg.system(), cfg.phonon()
        assert field.magnitude_bound()[0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero
            table = RedfieldTable(phonon, [Generator(system)], 0.0)
            assert table.cubic.shape[1] == 1 and np.all(np.isfinite(table.cubic))
            rho = random_density_matrix(np.random.default_rng(4), system.hilbert.dim)
            want = redfield_dissipator(system, phonon, Generator(system).h0)(rho)
            assert np.abs(table_map(table, 0.0, rho) - want).max() <= 1e-13 * np.abs(want).max()
            assert propagate(system, field, phonon).cells[0].photons_out == 0.0


# two or three systems on one Hilbert space, as a block of a cavity or coupling sweep mixes them
SYSTEMS = st.lists(st.tuples(st.integers(-4, 4).map(lambda q: 10.0 * q), st.sampled_from([2.0, 4.0, 6.0]),
                             st.sampled_from([0.0, 1.0])), min_size=2, max_size=3)


def block_systems(drawn):
    return [blue_case(delta_omega_c_GHz=dwc, g_GHz=g, gamma_bg_GHz=gamma_bg).system() for dwc, g, gamma_bg in drawn]


class Stop(Exception):
    pass


def block_drift(systems, phonon, field, amplitudes, columns):
    """propagate's drive and drift for a block of cells, one system each,
    taken where it hands them to the integrator."""
    box = {}

    def grab(drive, drift, *args):
        box.update(drive=drive, drift=drift)
        raise Stop

    with mock.patch.object(dynamics, "_dormand_prince", grab), pytest.raises(Stop):
        propagate(systems, field, phonon, grid=field.grid, amplitudes=amplitudes, columns=columns)
    return box["drive"], box["drift"]


class TestBlockLaws:
    @settings(max_examples=10, deadline=None)
    @given(drawn=SYSTEMS, seed=st.integers(0, 2**32 - 1))
    def test_stacked_table_reads_each_cells_own_map(self, drawn, seed):
        # U(1) covariance per system: the map one lam call reads for each
        # cell is redfield_dissipator of that cell's own system at its Omega,
        # within TestRedfieldTable's bounds
        systems, phonon = block_systems(drawn), blue_case().phonon()
        gens = [Generator(system) for system in systems]
        rng = np.random.default_rng(seed)
        r_max = 40 * TABLE_STEP
        table = RedfieldTable(phonon, gens, r_max)
        dim = systems[0].hilbert.dim
        sign = dynamics._coupling_sign(dim, gens[0].n_fock)
        for r, bound in ((rng.integers(0, 41, len(gens)) * TABLE_STEP, 1e-13), (rng.uniform(0.0, r_max, len(gens)), 1e-8)):
            omega = r * np.exp(2j * np.pi * rng.uniform(size=len(gens)))
            lam = table.lam(omega[None], np.arange(len(gens)))[0]
            for j, (system, gen) in enumerate(zip(systems, gens)):
                rho = random_density_matrix(rng, dim)
                want = redfield_dissipator(system, phonon, gen.hamiltonian(omega[j]))(rho)
                got = dynamics._commutator(lam[j], lam[j].conj().T.copy(), sign, rho)
                assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @settings(max_examples=10, deadline=None)
    @given(drawn=SYSTEMS, seed=st.integers(0, 2**32 - 1))
    def test_drift_is_hermitian_traceless_and_counts_each_cells_photons(self, drawn, seed):
        # under every map, on a block that mixes systems: the drift of a
        # Hermitian unit-trace state is Hermitian and traceless, and its
        # photon row is kappa Tr(n rho) of the cell's own system
        systems = block_systems(drawn)
        rng = np.random.default_rng(seed)
        n = len(systems)
        field = IntracavityField(TimeGrid(0.0, 1e-10, 64),
                                 np.ones((64, n)) * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        dim = systems[0].hilbert.dim
        n_op = Generator(systems[0]).n_op
        for phonon in (PHONONS_OFF, PhononSpec(), PhononSpec(secular=True)):
            amplitudes = 100 * GHZ * rng.uniform(0.0, 1.0, n)
            drive, drift = block_drift(systems, phonon, field, amplitudes, np.arange(n))
            drive(np.arange(n), np.full((n, 5), 5e-11))
            rho = np.array([random_density_matrix(rng, dim) for _ in range(n)])
            y = np.hstack([rho.reshape(n, -1), np.zeros((n, 1))]).astype(complex)
            for s in range(5):
                dy = drift(y, s)
                d_rho = dy[:, :-1].reshape(n, dim, dim)
                scale = np.abs(d_rho).max(axis=(1, 2))
                assert np.all(np.abs(d_rho - d_rho.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-12 * scale)
                assert np.all(np.abs(np.einsum("kii->k", d_rho)) <= 1e-12 * scale)
                photons = [system.kappa * np.trace(n_op @ r).real for system, r in zip(systems, rho)]
                np.testing.assert_allclose(dy[:, -1], photons, rtol=1e-13, atol=0)


class TestStateInvariants:
    def test_trace_and_positivity_along_trajectory(self):
        cfg = blue_case(amplitude_pi=8.0, tol=1e-9, n_traj_points=300)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        traj = propagate(system, field, cfg.phonon(), tol=cfg.tol).cells[0]
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
        traj = propagate(system, field, cfg.phonon(), tol=1e-9).cells[0]
        for rho in traj.states[:: len(traj.states) // 30]:
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-6

    @pytest.mark.parametrize("tol, raises", [(1e-8, True), (1e-6, False)])
    @pytest.mark.usefixtures("leaky_generator")
    def test_trace_leak_fails_a_two_point_grid(self, tol, raises):
        # the guard holds the drift to 1e-8 from tol = 1e-8 down only
        cfg = blue_case(amplitude_pi=2.0, phonon_enabled=False, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        grid = dynamics.ringdown_grid(system, field, 2)
        if raises:
            with pytest.raises(PropagationError, match="trace drift .* exceeds 1e-8"):
                propagate(system, field, PHONONS_OFF, grid=grid, tol=tol)
        else:
            propagate(system, field, PHONONS_OFF, grid=grid, tol=tol)

    def test_integrator_reads_the_trace_of_every_accepted_step(self):
        # Tr = 1 + eps sin(w t) over one period: back at 1 at the end, so only
        # the steps see each cell's drift of eps
        eps, w = np.array([1e-6, 1e-4]), 2 * np.pi

        stages = {}

        def drive(cells, times):
            stages["t"], stages["eps"] = np.asarray(times).T, eps[cells]

        def drift(y, s, out=None):
            dy = np.zeros_like(y) if out is None else out[:, 0]
            dy[:] = 0.0
            dy[:, 0] = stages["eps"] * w * np.cos(w * stages["t"][s])
            return dy

        y0 = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
        out = np.empty((2, 1, 1), dtype=complex)
        y_end, _, trace_drift, failures = dynamics._dormand_prince(
            drive, drift, y0, 0.0, 1.0, np.zeros(1), out, slice(0, 1), 1e-8, 1e-10, 1 / 64)
        assert failures == [None, None]
        assert np.abs(y_end[:, 0] - 1.0).max() < 1e-9
        np.testing.assert_allclose(trace_drift, eps, rtol=1e-3)

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
            traj = propagate(system, field, cfg.phonon(), grid=grid, tol=tol).cells[0]
            pi_vals.append(traj.photons_out)
        assert abs(pi_vals[0] - pi_vals[1]) < 1e-5


def tail_generators(cfg):
    """L_T times a sweep's tail span (16 lifetimes, a two-point grid) and
    times the default grid's dt, each as propagate hands it to expm."""
    system = cfg.system()
    field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
    calls, expm = [], dynamics.expm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "expm", lambda m: calls.append(m) or expm(m))
        two_point = dynamics.ringdown_grid(system, field, 2)
        propagate(system, field, cfg.phonon(), grid=two_point, amplitudes=(0.0,))
        span = calls.pop()
        propagate(system, field, cfg.phonon(), amplitudes=(0.0,))
    return span, calls[-1]


class TestExpm:
    FIGS1BLUE = Path(__file__).resolve().parents[1] / "configs" / "figS1blue.ini"

    @pytest.mark.parametrize("n_max", [3, 5])
    @pytest.mark.parametrize("case", ["blue", "red_nophonon", "figS1blue-25", "figS1blue+25"])
    def test_matches_scipy_on_the_tail_generators(self, case, n_max):
        import scipy.linalg

        if case == "blue":
            cfg = blue_case(n_max=n_max, n_field_points=4096)
        elif case == "red_nophonon":
            cfg = red_case(n_max=n_max, phonon_enabled=False, n_field_points=4096)
        else:
            cfg = apply_override(load_config(self.FIGS1BLUE), "system.delta_omega_c_GHz", float(case[-3:]))
            cfg = apply_override(apply_override(cfg, "solver.n_max", n_max), "solver.n_field_points", 4096)
        # the s squarings of scaling and squaring can grow the Pade result's
        # rounding error 2^s-fold: s = 0 to 2 at dt (|L_T dt|_1 <= 15) and up to
        # 11 at the span (|L_T t|_1 up to 8.4e3, figS1blue at n_max 5).
        # Measured against scipy: at most 1.3e-15 at dt and 1.8e-14 at the span
        span, step = tail_generators(cfg)
        for m, bound in ((step, 5e-15), (span, 1e-13)):
            exact = scipy.linalg.expm(m)
            assert np.abs(dynamics.expm(m) - exact).max() <= bound * np.abs(exact).max()

    def test_zero_matrix_gives_the_identity(self):
        # a tail sample at t_w itself must be rho_T, bit for bit
        for dim in (4, 145):
            np.testing.assert_array_equal(dynamics.expm(np.zeros((dim, dim), dtype=complex)), np.eye(dim))


class TestRingdownTail:
    def test_closed_tail_matches_direct_integration(self):
        cfg = blue_case(amplitude_pi=8.0, n_field_points=4096)
        system, phonon = cfg.system(), cfg.phonon()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        rho_t = propagate(system, field, phonon, grid=field.grid).cells[0].states[-1]
        t0 = field.grid.t_end
        span = 40.0 / system.emission_rate
        grid = TimeGrid(t0, t0 + span, 400)
        # the drive window is 1 fs of zero field at the grid's start: the
        # photon count and every later sample come from the closed tail (one
        # solve, expm powers)
        closed = propagate(system, zero_field(t0, t0 + 1e-15), phonon, rho0=rho_t, grid=grid).cells[0]
        # the same zero drive over the whole grid: RK45 integrates the tail
        direct = propagate(
            system, zero_field(t0, t0 + span), phonon, rho0=rho_t, grid=grid, tol=1e-12
        ).cells[0]
        assert closed.photons_out > 0.01  # photons left at the end of the window
        assert abs(closed.photons_out - direct.photons_out) < 1e-9
        assert np.abs(closed.states - direct.states).max() < 1e-9

    @pytest.mark.parametrize(
        "phonon", [PHONONS_OFF, PhononSpec(), PhononSpec(secular=True)], ids=["phonon-free", "non-secular", "secular"]
    )
    def test_tail_generator_is_the_drift_of_a_zero_drive(self, phonon, monkeypatch):
        # each system's L_T holds, bit for bit, the drift of a zero-drive stage
        # over the rows of the identity. Read where the tail uses it: its state
        # block as the first expm argument, scaled by the power of two from t_w
        # to the first tail sample, and its photon row through the photons
        # each cell emits past t_w
        systems = block_systems([(0.0, 4.0, 0.0), (30.0, 6.0, 1.0)])
        dim = systems[0].hilbert.dim
        d2 = dim ** 2
        field = zero_field(0.0, 2.0**-50)
        grid = TimeGrid(0.0, 2.0**-48, 3)  # t_w = 2^-50, samples at 2^-49 and 2^-48
        expm_args, solved, ends = [], [], []
        expm, solve, dormand_prince = dynamics.expm, np.linalg.solve, dynamics._dormand_prince
        monkeypatch.setattr(dynamics, "expm", lambda m: expm_args.append(m) or expm(m))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(solve(a, b)) or solved[-1])
        monkeypatch.setattr(dynamics, "_dormand_prince", lambda *a: ends.append(dormand_prince(*a)) or ends[-1])
        rho0 = random_density_matrix(np.random.default_rng(5), dim)
        row = propagate([systems[0], systems[1], systems[0]], field, phonon, rho0=rho0, grid=grid,
                        amplitudes=(1.0, 2.0, 3.0))
        monkeypatch.undo()
        y = ends[0][0]
        for j, members in enumerate(([0, 2], [1])):
            cells = np.arange(d2 + 1)
            drive, drift = block_drift([systems[j]] * (d2 + 1), phonon, field, np.ones(d2 + 1), 0)
            drive(cells, np.zeros((d2 + 1, 1)))
            l_tail = drift(np.eye(d2 + 1, dtype=complex), 0).T
            l_rho, flux = l_tail[:d2, :d2], l_tail[d2, :d2]
            assert (expm_args[j] * 2.0**50).tobytes() == l_rho.tobytes()
            # the tail's second solve of system j is its cells' x: L_T x = rho_ss - rho_T
            photons = y[members, d2].real + (flux @ solved[2 * j + 1]).real
            assert [row.cells[k].photons_out for k in members] == photons.tolist()


class TestRow:
    def test_amplitudes_scale_the_field(self):
        # a row cell is the single cell driven by the scaled field
        cfg = blue_case(amplitude_pi=1.0, phonon_enabled=False, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        row = propagate(system, field, PHONONS_OFF, amplitudes=(2.0, 5.0))
        assert row.states.shape == (2, 600, system.hilbert.dim, system.hilbert.dim)
        for amp, traj in zip((2.0, 5.0), row.cells):
            assert traj.unit_field is field and traj.column == 0 and traj.amplitude == amp
            alone = propagate(system, IntracavityField(field.grid, amp * field.envelope), PHONONS_OFF).cells[0]
            assert abs(traj.photons_out - alone.photons_out) < 1e-12
            assert np.shares_memory(traj.states, row.states)

    def test_cells_share_the_row_field_and_a_two_point_tail_pays_one_expm(self, monkeypatch):
        # each cell keeps the row's unit field and scales it on read; a tail
        # of one sample is one expm, with no power of expm(L_T dt)
        cfg = blue_case(amplitude_pi=1.0, phonon_enabled=False, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        calls, expm = [], dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda m: calls.append(m) or expm(m))
        grid = dynamics.ringdown_grid(system, field, 2)
        row = propagate(system, field, PHONONS_OFF, grid=grid, amplitudes=(2.0, 5.0))
        assert len(calls) == 1
        assert all(traj.unit_field is field for traj in row.cells)
        sampled = propagate(system, field, PHONONS_OFF, amplitudes=(2.0, 5.0))
        assert len(calls) == 3
        for short, long in zip(row.cells, sampled.cells):
            assert short.photons_out == long.photons_out
            assert short.rhs_calls == long.rhs_calls
            np.testing.assert_array_equal(short.states[0], long.states[0])
            np.testing.assert_allclose(short.states[-1], long.states[-1], rtol=0, atol=1e-12)

    def test_block_product_matches_each_rows_sparse_product_and_checks_its_input(self, monkeypatch):
        # each row times its own generator, from one single-vector kernel call
        # on the block-diagonal triplet: the bytes of scipy.sparse's product
        # row by row, on one generator or three
        gens = [Generator(blue_case(**kw).system()) for kw in
                (dict(), dict(delta_omega_c_GHz=30.0, g_GHz=6.0), dict(gamma_bg_GHz=1.0))]
        n = gens[0].terms.shape[1]
        y = np.random.default_rng(2).normal(size=(5, n)) + 1j * np.random.default_rng(3).normal(size=(5, n))
        for rows in ([0], [0, 0, 0], [2, 0, 1, 1, 2]):
            block = dynamics._block_diagonal([gens[j].csr for j in rows], n)
            want = np.array([scipy.sparse.csr_array(gens[j].terms) @ y[k] for k, j in enumerate(rows)])
            out = np.empty((len(rows), 3, n), dtype=complex)
            assert dynamics._apply_block(block, y[: len(rows)], out) is out
            assert out.reshape(len(rows), -1).tobytes() == want.tobytes()
            # without the private kernel the sparse operator runs the same one
            with monkeypatch.context() as m:
                m.setattr(dynamics, "CSR_MATVEC", None)
                again = dynamics._apply_block(block, y[: len(rows)], np.empty_like(out))
            assert again.tobytes() == out.tobytes()
        # the kernel reads and writes unchecked: another size or layout is refused
        for rows, out in ((y[:4], np.empty((5, 3, n), dtype=complex)), (y, np.empty((4, 3, n), dtype=complex)),
                          (y, np.empty((5, 3, n))), (y[:, :-1], np.empty((5, 3, n - 1), dtype=complex)),
                          (y.T.copy().T, np.empty((5, 3, n), dtype=complex))):
            with pytest.raises(ValueError, match="C-contiguous complex"):
                dynamics._apply_block(block, rows, out)

    @pytest.mark.parametrize(
        "cfg",
        [blue_case(), red_case(), blue_case(n_max=5, gamma_bg_GHz=1.0, delta_omega_c_GHz=30.0)],
        ids=["blue", "red", "n_max5-gamma_bg-dwc"],
    )
    def test_csr_triplet_is_scipys_canonical_form(self, cfg):
        # the kernel reads the bytes scipy.sparse.csr_array(terms) would hold
        gen = Generator(cfg.system())
        want = scipy.sparse.csr_array(gen.terms)
        for got, name in zip(gen.csr, ("indptr", "indices", "data")):
            assert got.dtype == getattr(want, name).dtype
            np.testing.assert_array_equal(got, getattr(want, name))

    def test_a_grid_that_starts_after_the_drive_window_fails_first(self, monkeypatch):
        # the integration starts at the grid's first sample: a later start
        # would drop the drive before it (photons_out fell from 0.99 to 8e-6
        # on a grid starting mid-window, and to 0.0 on one past the pulse)
        monkeypatch.setattr(dynamics, "_dormand_prince", lambda *a: pytest.fail("integrated"))
        cfg = blue_case(phonon_enabled=False, n_field_points=4096)
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        start, end = field.grid.t_start, field.grid.t_end
        for late in (0.5 * (start + end), end + 1e-12):
            with pytest.raises(ValueError, match=f"starts at {late:.9g} s, after the drive window starts at {start:.9g} s"):
                propagate(cfg.system(), field, PHONONS_OFF, grid=TimeGrid(late, end + 1e-10, 2))

    def test_cells_on_several_systems_take_one_space_and_an_explicit_grid(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_dormand_prince", lambda *a: pytest.fail("integrated"))
        field = IntracavityField(TimeGrid(0.0, 1.0, 64), np.ones((64, 1), dtype=complex))
        one, other = weak_cavity_system(), weak_cavity_system(g=2.0)
        with pytest.raises(ValueError, match="explicit grid"):
            propagate([one, other], field, PHONONS_OFF, amplitudes=(1.0, 2.0))
        with pytest.raises(ValueError, match="one Hilbert space"):
            propagate([one, weak_cavity_system(n_max=2)], field, PHONONS_OFF, grid=field.grid, amplitudes=(1.0, 2.0))
        with pytest.raises(ValueError, match="broadcast"):
            propagate([one, other, one], field, PHONONS_OFF, grid=field.grid, amplitudes=(1.0, 2.0))

    @pytest.mark.parametrize("columns", [[-1, 1], [0, 2]])
    def test_a_column_outside_the_stack_fails_first(self, columns, monkeypatch):
        # a negative column would read one from the end, one past the stack
        # would fail inside the drive: both are refused before any integration
        monkeypatch.setattr(dynamics, "_dormand_prince", lambda *a: pytest.fail("integrated"))
        field = IntracavityField(TimeGrid(0.0, 1.0, 64), np.ones((64, 2), dtype=complex))
        bad = min(columns) if min(columns) < 0 else max(columns)
        with pytest.raises(ValueError, match=f"column {bad} is outside the field's 2 columns"):
            propagate(weak_cavity_system(), field, PHONONS_OFF, amplitudes=(1.0, 2.0), columns=columns)

    @pytest.mark.parametrize("columns", [[0, 1, 1, 0], [0, 1]])
    def test_columns_that_do_not_broadcast_against_the_amplitudes_fail_first(self, columns, monkeypatch):
        # one column per amplitude, or one for all: a list of another length
        # is refused before any integration, not cut short or read past
        monkeypatch.setattr(dynamics, "_dormand_prince", lambda *a: pytest.fail("integrated"))
        field = IntracavityField(TimeGrid(0.0, 1.0, 64), np.ones((64, 2), dtype=complex))
        with pytest.raises(ValueError, match="broadcast"):
            propagate(weak_cavity_system(), field, PHONONS_OFF, amplitudes=(1.0, 2.0, 3.0), columns=columns)

    def test_negative_amplitude_reads_its_table_inside_its_range(self):
        # -a * field differs from a * field by the U(1) phase e^{i pi N}:
        # same |Omega|, so the same table, steps and populations
        cfg = blue_case(amplitude_pi=1.0, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        pos, neg = propagate(system, field, cfg.phonon(), amplitudes=(4.0, -4.0)).cells
        assert neg.rhs_calls == pos.rhs_calls
        assert abs(neg.photons_out - pos.photons_out) < 1e-12
        assert np.abs(neg.excited_pop - pos.excited_pop).max() < 1e-12

    @pytest.mark.parametrize(
        "phonon", [PHONONS_OFF, PhononSpec(), PhononSpec(secular=True)], ids=["phonon-free", "non-secular", "secular"]
    )
    def test_failing_cell_is_named_and_fails_alone(self, phonon):
        # a cell whose drive is not finite fails its step control under
        # every phonon map; the others are integrated as they would be alone.
        # A finite amplitude whose |Omega| bound overflows does not size the
        # Redfield table: its drive overflows too, and it fails alone as well
        cfg = blue_case(amplitude_pi=1.0, phonon_enabled=False, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        for amplitudes, cell in (((2.0, np.nan, 3.0), 1), ((2.0, 3.0, 1e300), 2), ((np.nan, 2.0, 3.0), 0)):
            with warnings.catch_warnings():
                if np.isfinite(amplitudes[cell]):  # the overflowing drive's arithmetic warns
                    warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
                with pytest.raises(PropagationError, match="step size") as info:
                    propagate(system, field, phonon, amplitudes=amplitudes)
            assert info.value.cell == cell

    def test_the_table_goes_with_its_block(self, monkeypatch):
        # propagate's drive and drift make no reference cycle: the Redfield
        # table, which holds the drive, is freed as the block's result is
        # dropped, without the cyclic garbage collector
        tables = []

        class Recorded(RedfieldTable):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(weakref.ref(self))

        monkeypatch.setattr(dynamics, "RedfieldTable", Recorded)
        cfg = blue_case(tol=1e-6, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        gc.collect()
        gc.disable()
        try:
            row = propagate(system, field, cfg.phonon(), grid=dynamics.ringdown_grid(system, field, 2),
                            tol=cfg.tol, amplitudes=(1.0, 4.0, 7.0))
            del row
            assert len(tables) == 1 and tables[0]() is None
        finally:
            gc.enable()

    @staticmethod
    def assert_one_build_per_drive_evaluation(monkeypatch, owner, name, secular, amplitudes):
        """owner.name, spied on in a tol = 1e-6 blue row, is called once per
        drive evaluation with the row's whole (stages, cells) drive stack:
        twice for the initial step, once on the five stage times of each
        attempt (of the cells still running), once for the tail.
        redfield_dissipator is not called."""
        shapes, method = [], getattr(owner, name)

        def spy(*args):  # the drive stack is its first array argument
            shapes.append(next(a for a in args if isinstance(a, np.ndarray)).shape[:2])
            return method(*args)

        monkeypatch.setattr(owner, name, spy)
        monkeypatch.setattr(dynamics, "redfield_dissipator", lambda *a: pytest.fail("built alone"))
        cfg = blue_case(amplitude_pi=1.0, secular=secular, tol=1e-6, n_field_points=4096)
        system = cfg.system()
        field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
        row = propagate(system, field, cfg.phonon(), grid=dynamics.ringdown_grid(system, field, 2),
                        tol=cfg.tol, amplitudes=amplitudes)
        attempts = max((traj.rhs_calls - 2) // 6 for traj in row.cells)  # of the longest-running cell
        n_cells = len(amplitudes)
        assert len(shapes) == 2 + attempts + 1
        assert shapes[:2] == [(1, n_cells)] * 2 and shapes[-1] == (1, 1)
        running = [cells for stages, cells in shapes[2:-1] if stages == 5]
        assert len(running) == attempts and running[0] == n_cells and running == sorted(running, reverse=True)

    @pytest.mark.parametrize("amplitudes", [(4.0,), (1.0, 4.0, 7.0)])
    def test_secular_map_is_built_once_per_stage(self, amplitudes, monkeypatch):
        # one eigenbasis per drive evaluation, for all its stages and cells
        self.assert_one_build_per_drive_evaluation(monkeypatch, dynamics, "_eigenbasis", True, amplitudes)

    @pytest.mark.parametrize("amplitudes", [(4.0,), (1.0, 4.0, 7.0)])
    def test_table_is_read_once_per_drive_evaluation(self, amplitudes, monkeypatch):
        # one Lambda read per drive evaluation, for all its stages and cells
        self.assert_one_build_per_drive_evaluation(monkeypatch, RedfieldTable, "lam", False, amplitudes)


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
            trajs.append(propagate(system, field, cfg.phonon(), grid=grid, tol=1e-12).cells[0])
        b, r = trajs
        # populations and photon flux are invariant under the mirror; at
        # tol = 1e-12 each trajectory carries a few 1e-8 of residual RK45
        # global error, which bounds how closely the two runs can agree
        assert np.abs(b.excited_pop - r.excited_pop).max() < 5e-8
        assert np.abs(b.photon_number - r.photon_number).max() < 5e-8
        assert abs(b.photons_out - r.photons_out) < 5e-8

    # detunings (GHz) drawn from the recipes' axes: fig3a's laser, fig4's
    # excitation-mode and figS1's cavity detunings; a failure is reported
    # unshrunk, since shrinking would run tight cells for minutes
    @settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.generate))
    @given(dwl=st.sampled_from(range(-120, 121, 5)), dwe=st.sampled_from(range(-100, 101, 10)),
           dwc=st.sampled_from(range(-30, 31, 5)))
    def test_mirror_law(self, dwl, dwe, dwc):
        # without phonons, negating every detuning conjugates the master
        # equation: photons and populations do not change, within the bounds
        # of the fixed blue/red pair above at the same tol
        trajs = []
        for sign in (1.0, -1.0):
            cfg = blue_case(amplitude_pi=7.5, phonon_enabled=False, tol=1e-12, delta_omega_L_GHz=sign * dwl,
                            delta_omega_e_GHz=sign * dwe, delta_omega_c_GHz=sign * dwc)
            field = intracavity_field_numeric(cfg.pulse(), cfg.excitation_mode(), cfg.field_grid())
            trajs.append(propagate(cfg.system(), field, cfg.phonon(), tol=cfg.tol).cells[0])
        b, r = trajs
        assert b.grid == r.grid
        assert np.abs(b.excited_pop - r.excited_pop).max() < 5e-8
        assert np.abs(b.photon_number - r.photon_number).max() < 5e-8
        assert abs(b.photons_out - r.photons_out) < 5e-8
