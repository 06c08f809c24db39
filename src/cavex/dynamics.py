"""Master-equation propagation of the driven emitter-cavity system.

The frame rotates at the emitter frequency.  The Hamiltonian is

    H(t)/hbar = dwc a^dag a + g (a^dag sigma- + a sigma+)
                + 1/2 [Omega(t) sigma+ + Omega*(t) sigma-]

where Omega(t) is the conjugate of the stored intra-cavity envelope: the
stored envelope carries the phase e^{+i dwL t}, while a laser above the
emitter must drive sigma+ with e^{-i dwL t}.  This orientation is what
produces the observed blue/red phonon asymmetry (damping when collecting on
the upper mode, plateau on the lower).

Dissipation: kappa D[a] for collection-mode leakage, gamma_bg D[sigma-] for
background decay, and a time-local non-secular Bloch-Redfield dissipator in
the instantaneous eigenbasis of H(t) with coupling A = sigma+ sigma-.

One Generator per SystemSpec holds L0 and the drive superoperators; the
emitted photon count is part of the state, and the ring-down tail is closed.
"""

from dataclasses import dataclass, field as _dfield
from functools import lru_cache

import numpy as np
import scipy.sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm, lu_factor, lu_solve
from scipy.sparse.linalg import expm_multiply

from .observables import purcell_rate
from .phonons import bath_rate
from .pulses import IntracavityField, TimeGrid
from .qcore import HilbertSpec, annihilation, ground_state, sigma_minus


class PropagationError(RuntimeError):
    """Integration failed or violated a state invariant."""


@dataclass(frozen=True)
class SystemSpec:
    """Emitter-cavity parameters (angular frequencies, rad/s)."""

    g: float = 2 * np.pi * 4e9
    kappa: float = 2 * np.pi * 25e9
    delta_omega_c: float = 0.0
    delta_omega_e: float = 0.0
    gamma_bg: float = 0.0
    hilbert: HilbertSpec = _dfield(default_factory=HilbertSpec)

    def __post_init__(self):
        if self.g <= 0 or self.kappa <= 0:
            raise ValueError("g and kappa must be positive")
        if self.gamma_bg < 0:
            raise ValueError("gamma_bg must be non-negative")

    @property
    def emission_rate(self):
        """Purcell rate into the (possibly detuned) collection mode plus
        background decay."""
        return purcell_rate(self.g, self.kappa, self.delta_omega_c) + self.gamma_bg


@dataclass(frozen=True)
class Trajectory:
    grid: TimeGrid
    states: np.ndarray = _dfield(repr=False)  # (n_t, dim, dim)
    photon_number: np.ndarray = _dfield(repr=False)
    excited_pop: np.ndarray = _dfield(repr=False)
    field: IntracavityField = _dfield(repr=False)  # the drive it was propagated under
    photons_out: float  # kappa * integral of <a^dag a> from grid.t_start to infinity


def ringdown_grid(system, field, n_points):
    """Output grid: the field window extended by 16 emission lifetimes, so
    the samples show the collection mode ringing down."""
    tail = 16.0 / system.emission_rate
    return TimeGrid(field.grid.t_start, field.grid.t_end + tail, n_points)


class Generator:
    """Superoperators on y = [vec(rho), photons], vec(A rho B) = kron(A, B.T)
    vec(rho).  ``terms`` stacks L0 and the parts multiplying Omega and
    conj(Omega) as a sparse matrix: unpinned BLAS threads the dense product."""

    def __init__(self, system):
        space = system.hilbert
        eye, a, sm = np.eye(space.dim), annihilation(space), sigma_minus(space)
        ad, self.sm, self.sp = a.conj().T, sm, sm.conj().T
        self.pop, self.n_op = self.sp @ sm, ad @ a
        self.h0 = system.delta_omega_c * self.n_op + system.g * (ad @ sm + a @ self.sp)

        def commutator(x):  # rho -> -i [x, rho]
            return -1j * (np.kron(x, eye) - np.kron(eye, x.T))

        def lindblad(c):  # rho -> c rho c^dag - {c^dag c, rho} / 2
            cdc = c.conj().T @ c
            return np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))

        d2 = len(eye) ** 2
        terms = np.zeros((3, d2 + 1, d2 + 1), dtype=complex)
        l0 = commutator(self.h0) + system.kappa * lindblad(a) + system.gamma_bg * lindblad(sm)
        terms[0, :d2, :d2] = l0
        terms[0, d2, :d2] = system.kappa * self.n_op.T.ravel()  # photons' = kappa <n>
        terms[1:, :d2, :d2] = 0.5 * commutator(self.sp), 0.5 * commutator(sm)
        self.terms = scipy.sparse.csr_array(terms.reshape(3 * (d2 + 1), d2 + 1))
        for x in (self.sm, self.sp, self.pop, self.n_op, self.h0, self.terms.data):
            x.flags.writeable = False  # shared by every caller of ``generator``

    def hamiltonian(self, omega):
        return self.h0 + 0.5 * omega * self.sp + 0.5 * np.conj(omega) * self.sm


@lru_cache(maxsize=2)
def generator(system):
    """The Generator of a SystemSpec, built once and shared."""
    return Generator(system)


def hamiltonian_at(system, field, t):
    """H(t)/hbar as a dense Hermitian matrix."""
    return generator(system).hamiltonian(np.conj(field.at(t)))


def redfield_dissipator(system, phonon, h_now, secular=False):
    """Action of the phonon dissipator built from the instantaneous eigenbasis.

    Returns a function rho -> d(rho)/dt contribution, linear in rho.  With
    coupling A = sigma+ sigma- and one-sided rates gamma(w) at the
    eigenfrequency differences, the non-secular form uses
    Lambda = sum_{mn} A_mn gamma(w_nm)/2 |m><n| (in the eigenbasis):

        D rho = Lambda rho A + A rho Lambda^dag - A Lambda rho - rho Lambda^dag A
              = [Lambda rho - rho Lambda^dag, A]

    which preserves Hermiticity exactly.  Degenerate eigenvalues need no
    care: Lambda = 1/2 sum_ab gamma(e_b - e_a) P_a A P_b depends only on the
    eigenprojectors P_a, and gamma is smooth through zero.  The secular
    variant keeps only population transfer between eigenstates
    (rate-equation limit).
    """
    if not phonon.enabled:
        return lambda rho: 0.0
    pop = generator(system).pop

    ev, vec = np.linalg.eigh(h_now)
    w_nm = ev[None, :] - ev[:, None]  # element [m, n] = E_n - E_m
    a_eig = vec.conj().T @ pop @ vec
    gam = bath_rate(phonon, w_nm)

    if secular:
        # population rates W_{m<-n} = gamma(w_nm) |A_mn|^2, plus decay of
        # eigenbasis coherences at the mean outgoing rate
        w_rates = gam * np.abs(a_eig) ** 2
        out = w_rates.sum(axis=0)  # total leaving each eigenstate
        deph = 0.5 * (out[:, None] + out[None, :])  # its diagonal is out itself

        def apply_secular(rho):
            r_eig = vec.conj().T @ rho @ vec
            return vec @ (np.diag(w_rates @ np.diag(r_eig)) - deph * r_eig) @ vec.conj().T

        return apply_secular

    lam = vec @ (a_eig * (0.5 * gam)) @ vec.conj().T
    lam_d = lam.conj().T

    def apply(rho):
        z = lam @ rho - rho @ lam_d
        return z @ pop - pop @ z

    return apply


def propagate(system, field, phonon, rho0=None, grid=None, tol=1e-8, secular=False):
    """Integrate the master equation; return a Trajectory sampled on grid.

    grid (default: ``ringdown_grid``, 600 points) only sets the samples.  RK45
    covers the drive window to ``field.grid.t_end`` at rtol = tol, atol two
    decades tighter (most matrix elements are far below unit scale); past it
    the tail is closed exactly, and ``photons_out`` counts the whole ring-down.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    gen, dim, d2 = generator(system), system.hilbert.dim, system.hilbert.dim ** 2
    rho0 = ground_state(system.hilbert) if rho0 is None else rho0
    grid = ringdown_grid(system, field, 600) if grid is None else grid

    def drift(omega, y, dis=None):
        l0_y, plus_y, minus_y = (gen.terms @ y).reshape(3, d2 + 1)
        dy = l0_y + omega * plus_y + np.conj(omega) * minus_y
        if phonon.enabled:
            dis = dis or redfield_dissipator(system, phonon, gen.hamiltonian(omega), secular)
            dy[:d2] += dis(y[:d2].reshape(dim, dim)).ravel()
        return dy

    def rhs(t, y):
        return drift(np.conj(field.at(t)), y)

    times = grid.times
    states = np.empty((len(times), dim, dim), dtype=complex)
    t_w = max(field.grid.t_end, grid.t_start)  # the drive is zero from here on
    n_in = int(np.searchsorted(times, t_w))  # samples before t_w; the tail has the rest
    y = np.append(rho0.ravel(), 0.0).astype(complex)
    if t_w > grid.t_start:
        # cap the step so the adaptive integrator cannot leap over the whole
        # pulse window: a step whose stage points all land where the field is
        # zero reports zero local error and would be accepted
        max_step = (field.grid.t_end - field.grid.t_start) / 64.0
        sol = solve_ivp(rhs, (grid.t_start, t_w), y, method="RK45", rtol=tol, atol=1e-2 * tol,
                        t_eval=np.append(times[:n_in], t_w), max_step=max_step)
        if not sol.success:
            raise PropagationError(f"integrator failed: {sol.message}")
        states[:n_in] = sol.y[:d2, :n_in].T.reshape(-1, dim, dim)
        y = sol.y[:, -1]

    # the constant tail generator, column by column from the same drift
    dis = redfield_dissipator(system, phonon, gen.h0, secular)
    l_tail = np.column_stack([drift(0.0, e, dis) for e in np.eye(d2 + 1, dtype=complex)])
    l_rho, flux = l_tail[:d2, :d2], l_tail[d2, :d2]
    # L_T rho_ss = 0, Tr rho_ss = 1 and L_T x = rho_ss - rho_T, Tr x = 0: the
    # rho_00 row is redundant (L_T preserves the trace), so Tr takes its place
    lu = lu_factor(np.vstack([np.eye(dim).ravel(), l_rho[1:]]))
    rho_ss = lu_solve(lu, np.eye(d2)[0])
    n_ss = (flux @ rho_ss).real / system.kappa
    if not abs(n_ss) <= 1e-10:  # NaN too: a singular L_T has no unique steady state
        raise PropagationError(f"steady state holds {n_ss:.2e} photons: no finite yield")
    x = lu_solve(lu, np.append(0.0, (rho_ss - y[:d2])[1:]))
    photons_out = float(y[d2].real + (flux @ x).real)

    if n_in < len(times):
        # samples past the window: powers of P = expm(L_T dt), written in place
        tail, power = states[n_in:].reshape(-1, d2), expm(l_rho * grid.dt)
        tail[0] = expm_multiply(l_rho * (times[n_in] - t_w), y[:d2])
        for k in range(1, len(tail)):
            np.matmul(power, tail[k - 1], out=tail[k])

    trace_drift = np.abs(np.einsum("tii->t", states).real - 1.0).max()
    if trace_drift > 1e-8 and tol <= 1e-8:
        raise PropagationError(f"trace drift {trace_drift:.2e} exceeds 1e-8")
    final_min_eig = np.linalg.eigvalsh(0.5 * (states[-1] + states[-1].conj().transpose())).min()
    if final_min_eig < -1e-6:
        raise PropagationError(f"state eigenvalue {final_min_eig:.2e} below -1e-6")

    photon, excited = (np.einsum("tij,ji->t", states, op).real for op in (gen.n_op, gen.pop))
    return Trajectory(grid, states, photon, excited, field, photons_out)
