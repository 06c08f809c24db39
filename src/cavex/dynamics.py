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
"""

import warnings
from dataclasses import dataclass, field as _dfield

import numpy as np
from scipy.integrate import solve_ivp

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


def ringdown_grid(system, field, n_points):
    """The field window extended by 16 emission lifetimes, so the collection
    mode has fully rung down by the last sample."""
    tail = 16.0 / system.emission_rate
    return TimeGrid(field.grid.t_start, field.grid.t_end + tail, n_points)


class _Operators:
    """Cached operator set for one SystemSpec."""

    def __init__(self, system):
        space = system.hilbert
        self.a = annihilation(space)
        self.ad = self.a.conj().T
        self.sm = sigma_minus(space)
        self.sp = self.sm.conj().T
        self.n_op = self.ad @ self.a
        self.pop = self.sp @ self.sm
        self.h_static = system.delta_omega_c * self.n_op + system.g * (
            self.ad @ self.sm + self.a @ self.sp
        )


def hamiltonian_at(system, field, t, _ops=None):
    """H(t)/hbar as a dense Hermitian matrix."""
    ops = _ops or _Operators(system)
    omega = np.conj(field.at(t))
    return ops.h_static + 0.5 * omega * ops.sp + 0.5 * np.conj(omega) * ops.sm


def redfield_dissipator(system, phonon, h_now, _ops=None, secular=False, _warned=None):
    """Action of the phonon dissipator built from the instantaneous eigenbasis.

    Returns a function rho -> d(rho)/dt contribution.  With coupling
    A = sigma+ sigma- and one-sided rates gamma(w) at the eigenfrequency
    differences, the non-secular form uses Lambda = sum_{mn} A_mn
    gamma(w_nm)/2 |m><n| (in the eigenbasis):

        D rho = Lambda rho A + A rho Lambda^dag - A Lambda rho
                - rho Lambda^dag A

    which preserves Hermiticity exactly.  The secular variant keeps only
    population transfer between eigenstates (rate-equation limit).
    """
    ops = _ops or _Operators(system)
    if not phonon.enabled:
        return lambda rho: 0.0

    ev, vec = np.linalg.eigh(h_now)
    w_nm = ev[None, :] - ev[:, None]  # element [m, n] = E_n - E_m
    if _warned is not None and not _warned[0]:
        off = ~np.eye(len(ev), dtype=bool)
        if np.any(np.abs(w_nm[off]) < 1e-6 * system.kappa):
            warnings.warn(
                "near-degenerate instantaneous eigenbasis; Redfield rates "
                "remain well-defined by continuity",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned[0] = True
    a_eig = vec.conj().T @ ops.pop @ vec
    gam = bath_rate(phonon, w_nm)

    if secular:
        # population rates W_{m<-n} = gamma(w_nm) |A_mn|^2, plus decay of
        # eigenbasis coherences at the mean outgoing rate
        w_rates = gam * np.abs(a_eig) ** 2
        out = w_rates.sum(axis=0)  # total leaving each eigenstate

        def apply_secular(rho):
            r_eig = vec.conj().T @ rho @ vec
            pops = np.real(np.diag(r_eig))
            dpop = w_rates @ pops - out * pops
            d_eig = np.diag(dpop).astype(complex)
            deph = 0.5 * (out[:, None] + out[None, :])
            d_eig -= deph * (r_eig - np.diag(np.diag(r_eig)))
            return vec @ d_eig @ vec.conj().T

        return apply_secular

    lam = vec @ (a_eig * (0.5 * gam)) @ vec.conj().T
    lam_d = lam.conj().T
    pop = ops.pop

    def apply(rho):
        return lam @ rho @ pop + pop @ rho @ lam_d - pop @ lam @ rho - rho @ lam_d @ pop

    return apply


def propagate(system, field, phonon, rho0=None, grid=None, tol=1e-8, secular=False):
    """Integrate the master equation over the grid and return a Trajectory.

    grid defaults to ``ringdown_grid`` with 600 points.  tol is the rtol of
    the adaptive RK45 integrator; atol is set two decades tighter because
    most matrix elements are far below unit scale during the ring-down tail.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    ops = _Operators(system)
    dim = system.hilbert.dim
    if rho0 is None:
        rho0 = ground_state(system.hilbert)
    if grid is None:
        grid = ringdown_grid(system, field, 600)

    kappa = system.kappa
    gamma_bg = system.gamma_bg
    a, ad, sm, sp = ops.a, ops.ad, ops.sm, ops.sp
    n_op, pop = ops.n_op, ops.pop
    warned = [False]

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = hamiltonian_at(system, field, t, _ops=ops)
        drho = -1j * (h @ rho - rho @ h)
        drho += kappa * (a @ rho @ ad) - 0.5 * kappa * (n_op @ rho + rho @ n_op)
        if gamma_bg:
            drho += gamma_bg * (sm @ rho @ sp) - 0.5 * gamma_bg * (pop @ rho + rho @ pop)
        if phonon.enabled:
            dis = redfield_dissipator(
                system, phonon, h, _ops=ops, secular=secular, _warned=warned
            )
            drho += dis(rho)
        return drho.ravel()

    # cap the step so the adaptive integrator cannot leap over the whole
    # pulse window: a step whose stage points all land where the field is
    # zero reports zero local error and would be accepted
    max_step = (field.grid.t_end - field.grid.t_start) / 64.0
    sol = solve_ivp(
        rhs,
        (grid.t_start, grid.t_end),
        rho0.ravel(),
        method="RK45",
        rtol=tol,
        atol=1e-2 * tol,
        t_eval=grid.times,
        max_step=max_step,
    )
    if not sol.success:
        raise PropagationError(f"integrator failed: {sol.message}")
    states = np.ascontiguousarray(sol.y.T).reshape(-1, dim, dim)

    trace_drift = np.abs(np.einsum("tii->t", states).real - 1.0).max()
    if trace_drift > 1e-8 and tol <= 1e-8:
        raise PropagationError(f"trace drift {trace_drift:.2e} exceeds 1e-8")
    final_min_eig = np.linalg.eigvalsh(0.5 * (states[-1] + states[-1].conj().transpose())).min()
    if final_min_eig < -1e-6:
        raise PropagationError(f"state eigenvalue {final_min_eig:.2e} below -1e-6")

    photon = np.einsum("tij,ji->t", states, n_op).real
    excited = np.einsum("tij,ji->t", states, pop).real
    return Trajectory(grid, states, photon, excited, field)
