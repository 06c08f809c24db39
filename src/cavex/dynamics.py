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
background decay, and a time-local Bloch-Redfield dissipator in the
instantaneous eigenbasis of H(t) with coupling A = sigma+ sigma-.

A ``propagate`` call integrates a block of cells on one generator: each
cell is an amplitude times one column of a stack of fields (a single cell is
a block of one, a single field a stack of one).  It builds one Generator
(L0, drive superoperators) and, for the non-secular map, one RedfieldTable
holding Lambda in |Omega| for every cell.  Each drive evaluation writes the
weights of the generator's terms for all its stages and cells in place, and
builds the phonon map of all of them at once: the table's Lambda and
Lambda^dag stacks, or the secular map (``PhononSpec.secular``) of one
eigenbasis of all the stages' H; the drift reads a stage by its index.  An
in-house Dormand-Prince loop (``_dormand_prince``) steps every cell over the
drive window with its own step control, so a cell's numbers do not depend on
its block.  The photon count is part of the state, and the ring-down tail,
whose generator does not depend on the drive, is closed once for the block.
"""

import importlib.util
import os
import sys
from bisect import bisect_right
from dataclasses import dataclass, field as _dfield
from functools import cached_property
from importlib.machinery import PathFinder
from math import inf, nextafter, sqrt

import numpy as np

from .observables import purcell_rate
from .phonons import bath_rate
from .pulses import CUBIC_POWERS, IntracavityField, TimeGrid, hermite_cubic
from .qcore import HilbertSpec, annihilation, ground_state, sigma_minus


# rad/s between the Redfield table's nodes k * TABLE_STEP in |Omega|, a fifth of
# the default g.  The error falls as the step's fourth power; here it moves pi_e
# by at most 3e-12 (4.2e-9 relative between nodes, where the tests allow 1e-8)
TABLE_STEP = 5e9

# The Dormand-Prince 5(4) tableau as scipy's RK45 writes it (C, A, B, the
# error weights E and the dense-output matrix P of Shampine, Math. Comp. 46,
# 135 (1986)).  scipy.integrate is not imported for it: it would double the
# time of `import cavex`.
RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]], dtype=complex)
# the tableau as complex matmul operands on [y, k_0, ..., k_6]: the rows of
# A (stages 1 to 5) and B, each with y's weight 1, then E
RK_W = np.zeros((8, 8), dtype=complex)
RK_W[1:6, 1:6], RK_W[6, 1:7], RK_W[7, 1:] = RK_A[1:], RK_B, RK_E
RK_W[1:7, 0] = 1.0
TOO_SMALL = "integrator failed: required step size is less than spacing between numbers."


# b_0 .. b_13 of the [13/13] Pade approximant to e^x, divided by b_0 so that
# e^0 is the identity exactly, and the 1-norm up to which it meets double
# precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005))
PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
THETA13 = 5.371920351148152


def expm(a):
    """The matrix exponential e^a by scaling and squaring with the [13/13]
    Pade approximant (Higham 2005): a is scaled by 2^-s into the 1-norm ball
    of THETA13, and the approximant is squared s times."""
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / THETA13))) if THETA13 < norm < inf else 0
    a = a / 2.0**s
    b, eye = PADE13, np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _csr_kernel():
    """scipy's private CSR multi-vector product, or None if this scipy has
    none that takes the arguments scipy 1.17 takes and gets a small product
    right: it is not public API, and scipy.sparse's operator is the fallback.

    The extension scipy/sparse/_sparsetools is loaded alone, from its file:
    ``import scipy.sparse`` would cost about 120 ms more, most of it
    scipy's array-API layer loading numpy.f2py, numpy.testing and numpy.ma.
    If scipy.sparse is loaded already, its own extension is used."""
    try:
        module = sys.modules.get("scipy.sparse._sparsetools")
        if module is None:
            # found in scipy's folder as `import` finds it, without importing scipy
            folder = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
            spec = PathFinder.find_spec("scipy.sparse._sparsetools", [folder])
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # left in sys.modules, it would keep a later `import scipy.sparse`
            # from binding scipy.sparse._sparsetools; scipy loads its own
            sys.modules.pop(spec.name, None)
        csr_matvecs = module.csr_matvecs

        out = np.zeros(4, dtype=complex)  # [[1, 0], [0, 2]] @ [[1, 2], [3, 4]]
        csr_matvecs(2, 2, 2, np.array([0, 1, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32),
                    np.array([1.0, 2.0], dtype=complex), np.arange(1.0, 5.0).astype(complex), out)
    except (ImportError, AttributeError, TypeError, ValueError):  # gone, or called otherwise
        return None
    return csr_matvecs if out.tolist() == [1, 2, 6, 8] else None


CSR_MATVECS = _csr_kernel()


def __getattr__(name):
    # bench/tracing.py wraps dynamics.solve_ivp by name and nothing here calls
    # it: it is bound on first access, so `import cavex` does not import
    # scipy.integrate
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class PropagationError(ArithmeticError):
    """Integration failed or violated a state invariant; ``cell`` is the index
    of the failing cell in its block."""

    def __init__(self, message, cell=0):
        super().__init__(message)
        self.cell = cell


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
    unit_field: IntracavityField = _dfield(repr=False)  # the block's stack of fields at unit amplitude
    column: int  # the cell's field is this column of unit_field
    amplitude: float  # the cell drives with amplitude * unit_field.at(t, column)
    photons_out: float  # kappa * integral of <a^dag a> from grid.t_start to infinity
    rhs_calls: int  # drift evaluations over the drive window: two for the initial step, six per attempt


def ringdown_grid(system, field, n_points):
    """Output grid: the field window extended by 16 emission lifetimes, so
    the samples show the collection mode ringing down."""
    tail = 16.0 / system.emission_rate
    return TimeGrid(field.grid.t_start, field.grid.t_end + tail, n_points)


class Generator:
    """Superoperators on y = [vec(rho), photons], vec(A rho B) = kron(A, B.T)
    vec(rho).  ``terms`` stacks L0 and the parts multiplying Omega and
    conj(Omega) as one dense array of shape (3 (d2 + 1), d2 + 1); ``apply``
    multiplies by its nonzero entries (``csr``): unpinned BLAS threads the
    dense product."""

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
        self.terms = terms.reshape(3 * (d2 + 1), d2 + 1)
        self._transposed = None  # apply's buffers for its last number of rows

    @cached_property
    def csr(self):
        """``terms`` in compressed sparse rows (indptr, indices, data), taken
        when ``apply`` first runs, so an edit of ``terms`` before that is
        applied: nonzero entries in row-major order, int32 indices, which is
        the canonical form scipy.sparse.csr_array(terms) holds."""
        rows, cols = np.nonzero(self.terms)
        indptr = np.searchsorted(rows, np.arange(len(self.terms) + 1)).astype(np.int32)
        return indptr, cols.astype(np.int32), self.terms[rows, cols]

    def hamiltonian(self, omega):
        """H(Omega)/hbar for each Omega of the array omega: shape omega.shape + (dim, dim)."""
        omega = np.asarray(omega)[..., None, None]
        return self.h0 + 0.5 * omega * self.sp + 0.5 * np.conj(omega) * self.sm

    def apply(self, y, out=None):
        """The three terms applied to each row of y: shape (rows, 3, d2 + 1),
        written to out (C-contiguous, of that shape) if given.  scipy's CSR
        kernel (CSR_MATVECS) multiplies ``csr`` by the rows: a single row is
        a column as it lies, and the kernel writes out in place; several rows
        go through transposed buffers, kept for the next call on as many
        rows.  Without the kernel, scipy.sparse is imported here and its
        operator runs the same kernel on the same triplet."""
        n_out, n = self.terms.shape
        if y.ndim != 2 or y.shape[1] != n:  # the kernel reads n values per row unchecked
            raise ValueError(f"rows of length {n} expected, got shape {y.shape}")
        rows = len(y)
        if out is None:
            out = np.empty((rows, 3, n), dtype=complex)
        elif out.shape != (rows, 3, n) or out.dtype != complex or not out.flags.c_contiguous:  # written unchecked
            raise ValueError(f"out must be a C-contiguous complex array of shape {(rows, 3, n)}")
        indptr, indices, data = self.csr
        if CSR_MATVECS is None:
            import scipy.sparse

            product = scipy.sparse.csr_array((data, indices, indptr), shape=self.terms.shape)
            out.reshape(rows, n_out)[...] = (product @ np.ascontiguousarray(y.T, dtype=complex)).T
        elif rows == 1:
            out.fill(0.0)  # the kernel adds the product to out
            CSR_MATVECS(n_out, n, 1, indptr, indices, data, np.ascontiguousarray(y, dtype=complex).reshape(-1),
                        out.reshape(-1))
        else:
            if self._transposed is None or self._transposed[0].shape[1] != rows:
                self._transposed = np.empty((n, rows), dtype=complex), np.empty((n_out, rows), dtype=complex)
            y_t, out_t = self._transposed
            y_t[...] = y.T
            out_t.fill(0.0)
            CSR_MATVECS(n_out, n, rows, indptr, indices, data, y_t.reshape(-1), out_t.reshape(-1))
            out.reshape(rows, n_out)[...] = out_t.T
        return out


def hamiltonian_at(system, field, t):
    """H(t)/hbar as a dense Hermitian matrix."""
    return Generator(system).hamiltonian(np.conj(field.at(t)))


def _eigenbasis(phonon, h, n_fock):
    """Per matrix of the stack h: eigenvectors, A = sigma+ sigma- (the projector
    onto the indices >= n_fock) in them, and gamma(E_n - E_m) at [m, n].  Non-finite
    entries are decomposed as zeros: the drive that made them fails its own cell."""
    ev, vec = np.linalg.eigh(np.where(np.isfinite(h), h, 0.0))
    up = vec[..., n_fock:, :]
    return vec, up.conj().swapaxes(-1, -2) @ up, bath_rate(phonon, ev[..., None, :] - ev[..., :, None])


def _lambda(vec, a_eig, gam):
    """Lambda = sum_mn A_mn gamma(w_nm)/2 |m><n|, from the eigenbasis back."""
    return vec @ (a_eig * (0.5 * gam)) @ vec.conj().swapaxes(-1, -2)


def _coupling_sign(dim, n_fock):
    """A_jj - A_ii for A = sigma+ sigma-, the projector onto the indices >=
    n_fock: [z, A]_ij = z_ij (A_jj - A_ii)."""
    a_diag = (np.arange(dim) >= n_fock).astype(float)
    return a_diag[None, :] - a_diag[:, None]


def _commutator(lam, lam_d, sign, rho):
    """[Lambda rho - rho Lambda^dag, A] for lam = Lambda and lam_d =
    Lambda^dag (broadcast against rho), and sign from ``_coupling_sign``."""
    z = lam @ rho
    z -= rho @ lam_d
    z *= sign
    return z


def _secular(vec, a_eig, gam):
    """The secular map of each stage vec[s], as one function (rho, s):
    population rates W_{m<-n} = gamma(w_nm) |A_mn|^2 between eigenstates,
    plus decay of eigenbasis coherences at the mean outgoing rate."""
    w_rates = gam * np.abs(a_eig) ** 2
    out = w_rates.sum(axis=-2)  # total leaving each eigenstate
    deph = 0.5 * (out[..., :, None] + out[..., None, :])  # its diagonal is out itself
    vec_d, diag = vec.conj().swapaxes(-1, -2), np.diag_indices(vec.shape[-1])

    def apply(rho, s):
        r_eig = vec_d[s] @ rho @ vec[s]
        gain = np.zeros_like(r_eig)
        gain[(...,) + diag] = (w_rates[s] @ r_eig[(...,) + diag][..., None])[..., 0]
        return vec[s] @ (gain - deph[s] * r_eig) @ vec_d[s]

    return apply


def redfield_dissipator(system, phonon, h_now):
    """Action of the phonon dissipator built from the instantaneous eigenbasis.

    Returns a function rho -> d(rho)/dt contribution, linear in rho, for
    each matrix of the stack h_now (broadcast against rho).  With
    coupling A = sigma+ sigma- and one-sided rates gamma(w) at the
    eigenfrequency differences, the non-secular form uses
    Lambda = sum_{mn} A_mn gamma(w_nm)/2 |m><n| (in the eigenbasis):

        D rho = Lambda rho A + A rho Lambda^dag - A Lambda rho - rho Lambda^dag A
              = [Lambda rho - rho Lambda^dag, A]

    which preserves Hermiticity exactly.  Degenerate eigenvalues need no
    care: Lambda = 1/2 sum_ab gamma(e_b - e_a) P_a A P_b depends only on the
    eigenprojectors P_a, and gamma is smooth through zero.  The secular
    variant (``phonon.secular``) keeps only population transfer between
    eigenstates (rate-equation limit).  One entry of the maps ``propagate`` builds.
    """
    if not phonon.enabled:
        return lambda rho: 0.0
    n_fock = system.hilbert.n_fock
    basis = _eigenbasis(phonon, h_now[None], n_fock)
    if phonon.secular:
        secular = _secular(*basis)
        return lambda rho: secular(rho, 0)
    lam = _lambda(*basis)[0]
    lam_d, sign = lam.conj().swapaxes(-1, -2).copy(), _coupling_sign(lam.shape[-1], n_fock)
    return lambda rho: _commutator(lam, lam_d, sign, rho)


class RedfieldTable:
    """Lambda of the non-secular map, read from a table in r = |Omega| that
    every cell of a block shares.

    N = a^dag a + sigma+ sigma- commutes with h0 and A, and sigma+ raises it by
    one, so H(r e^{i phi}) = U H(r) U^dag with U = e^{i phi N}, and Lambda
    follows: Lambda(Omega)_jk = (Omega/r)^(N_j - N_k) Lambda(r)_jk, where
    Lambda(r) is real and depends on the system and the phonon spec alone.
    The table samples it at the nodes k TABLE_STEP up to the first past r_max,
    plus two guard nodes past each end (one batched eigh, one bath_rate call),
    and keeps the drive's C1 cubic Hermite rule (``hermite_cubic``) on each
    interval from 0 to the last interior node; the guard nodes give the end
    slopes.  No node or cubic depends on r_max, so a cell reads the same
    numbers from any table that covers its drive.
    """

    def __init__(self, system, phonon, gen, r_max):
        # nodes -2 .. n + 2 for n = int(r_max / TABLE_STEP) + 1: r_max < n TABLE_STEP
        r = np.arange(-2, int(r_max / TABLE_STEP) + 4) * TABLE_STEP
        h = gen.h0.real + 0.5 * r[:, None, None] * (gen.sp + gen.sm).real
        lam = _lambda(*_eigenbasis(phonon, h, system.hilbert.n_fock))
        # (interval, power, dim * dim): the linear guard intervals are never read
        self.cubic = hermite_cubic(lam.reshape(len(r), -1))[2:-2]
        n_exc = np.rint(np.diag(gen.n_op + gen.pop).real).astype(int)
        self.exponent = n_exc[:, None] - n_exc[None, :]  # N_j - N_k
        # the few distinct exponents, and where each entry reads its power
        self.powers = np.arange(self.exponent.min(), self.exponent.max() + 1)
        self.gather = self.exponent - self.powers[0]

    def lam(self, omega):
        """Lambda(Omega), of shape omega.shape + (dim, dim); non-finite for a non-finite Omega."""
        r = np.abs(omega)
        x = r / TABLE_STEP
        i = np.fmin(x, len(self.cubic) - 1).astype(np.intp)  # fmin: NaN reads the last interval
        powers = (x - i)[..., None, None] ** CUBIC_POWERS
        lam = np.matmul(powers, self.cubic[i])
        # the U(1) phase Omega / r, by components: a complex division
        # overflows for a subnormal r; at r = 0 Lambda is real
        positive = r > 0.0
        safe = np.where(positive, r, 1.0)
        phase = np.where(positive, omega.real / safe + 1j * (omega.imag / safe), 1.0)
        # each distinct power once, gathered: the same floats as phase ** exponent
        return lam.reshape(r.shape + self.exponent.shape) * (phase[..., None] ** self.powers)[..., self.gather]


@dataclass(frozen=True)
class Row:
    """The cells of one ``propagate`` call, cell k driven by amplitudes[k] times its field."""

    states: np.ndarray = _dfield(repr=False)  # (n_cells, n_t, dim, dim)
    cells: tuple = _dfield(repr=False)  # one Trajectory per cell; its states are a view of these


def propagate(system, field, phonon, rho0=None, grid=None, tol=1e-8, amplitudes=(1.0,), columns=0):
    """Integrate the master equation for a block of cells; return a Row of
    their Trajectories sampled on grid.

    Cell k is driven by amplitudes[k] times column columns[k] of the stack
    field (columns broadcasts against amplitudes and lies in [0, n_fields),
    or raises ValueError; by default every cell reads the first column); the
    cells are integrated together.  A cell's numbers do not depend on the
    block it is in.

    grid (default: ``ringdown_grid``, 600 points) only sets the samples.  RK45
    (``_dormand_prince``) covers the drive window to ``field.grid.t_end`` at
    rtol = tol, atol two decades tighter (most matrix elements are far below
    unit scale); past it the tail is closed exactly, and ``photons_out``
    counts the whole ring-down.  The trace guard reads every accepted step
    of the window and every sample, so a two-point grid (a sweep's, which
    keeps only ``photons_out``) is still checked along the whole window.  A
    failure raises a PropagationError whose ``cell`` is the first failing
    cell of the block.

    A drive evaluation reads the field once (``at``) for every running cell
    at the stage times of one attempt, and writes its weights (1, Omega,
    Omega*) and phonon map to buffers that are rebuilt only when a cell
    finishes; the sign mask of the commutator with A is built once per call.
    The non-secular table covers the largest finite bound |a| r_max of the
    cells: a cell whose bound overflows fails its own step control.
    """
    if not 1e-12 <= tol <= 1e-4:
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    amps = np.array(amplitudes, dtype=float)
    cols = np.broadcast_to(np.asarray(columns, dtype=np.intp), amps.shape)
    n_columns = field.envelope.shape[1]
    outside = cols[(cols < 0) | (cols >= n_columns)]
    if outside.size:  # a negative one would read a column from the end
        raise ValueError(f"column {outside[0]} is outside the field's {n_columns} columns")
    gen, dim, d2, n_fock = Generator(system), system.hilbert.dim, system.hilbert.dim ** 2, system.hilbert.n_fock
    rho0 = ground_state(system.hilbert) if rho0 is None else rho0
    grid = ringdown_grid(system, field, 600) if grid is None else grid

    table = None
    if phonon.enabled and not phonon.secular:
        # a negative amplitude drives -|a| field: its |Omega| is bounded by |a| r_max;
        # a cell whose bound is not finite fails its own drive and does not size the table
        bound = np.abs(amps) * field.magnitude_bound()[cols]
        table = RedfieldTable(system, phonon, gen, bound.max(initial=0.0, where=np.isfinite(bound)))
    sign = _coupling_sign(dim, n_fock)

    # what a drive evaluation fills in place, for drift to read by stage: the
    # weights (1, Omega, Omega*) of the generator's terms, (stages, cells, 1, 3),
    # and the phonon map, Lambda and Lambda^dag (stages, cells, dim, dim) or the
    # secular map's function; the generator's product goes to `applied`
    weights = applied = lam = lam_d = secular = None
    running = amp_c = col_c = None  # the cells of the last drive call, with their amplitudes and columns

    def buffers(n_cells, n_rows):
        nonlocal weights, applied
        weights = np.ones((len(RK_C) - 1, n_cells, 1, 3), dtype=complex)
        applied = np.empty((n_rows, 3, d2 + 1), dtype=complex)

    def stages(omega):
        """Evaluate the drive omega (stages, cells) for drift."""
        nonlocal lam, lam_d, secular
        w = weights[: len(omega), :, 0]
        w[..., 1] = omega
        np.conjugate(omega, out=w[..., 2])
        if table is not None:
            lam = table.lam(omega)
            lam_d = lam.conj().swapaxes(-1, -2).copy()
        elif phonon.enabled:
            secular = _secular(*_eigenbasis(phonon, gen.hamiltonian(omega), n_fock))

    def drive(cells, times):
        """Evaluate the drive of the given cells at times (cells, stages)."""
        nonlocal running, amp_c, col_c
        if cells is not running:  # the first call, or a cell has finished
            running, amp_c, col_c = cells, amps[cells, None], cols[cells, None]
            buffers(len(cells), len(cells))
        omega = field.at(times, col_c)
        np.multiply(amp_c, omega, out=omega)
        stages(np.conjugate(omega, out=omega).T)

    def drift(y, s, out=None):
        """dy/dt of each row of y, one cell each, under stage s of the last
        drive evaluation, written to out (rows, 1, d2 + 1) if given."""
        # applied is contiguous for any number of rows: matmul's arithmetic follows the layout
        dy = np.matmul(weights[s], gen.apply(y, applied), out=out)[:, 0]
        if lam is not None:
            dy[:, :d2] += _commutator(lam[s], lam_d[s], sign, y[:, :d2].reshape(-1, dim, dim)).reshape(-1, d2)
        elif secular is not None:
            dy[:, :d2] += secular(y[:, :d2].reshape(-1, dim, dim), s).reshape(-1, d2)
        return dy

    times = grid.times
    n_cells, n_t = len(amps), len(times)
    states = np.empty((n_cells, n_t, dim, dim), dtype=complex)
    t_w = max(field.grid.t_end, grid.t_start)  # the drive is zero from here on
    n_in = int(np.searchsorted(times, t_w))  # samples before t_w; the tail has the rest
    y = np.tile(np.append(rho0.ravel(), 0.0).astype(complex), (n_cells, 1))
    nfev, failures, step_drift = [0] * n_cells, [None] * n_cells, [0.0] * n_cells
    if t_w > grid.t_start:
        # cap the step so the adaptive integrator cannot leap over the whole
        # pulse window: a step whose stage points all land where the field is
        # zero reports zero local error and would be accepted
        max_step = (field.grid.t_end - field.grid.t_start) / 64.0
        window = states[:, :n_in].reshape(n_cells, n_in, d2)
        y, nfev, step_drift, failures = _dormand_prince(drive, drift, y, grid.t_start, t_w, times[:n_in], window,
                                                        slice(0, d2, dim + 1), tol, 1e-2 * tol, max_step)

    # the constant tail generator, column by column from the same drift: one
    # cell's zero drive, broadcast over the identity's rows
    buffers(1, d2 + 1)
    stages(np.zeros((1, 1)))
    l_tail = drift(np.eye(d2 + 1, dtype=complex), 0).T
    applied = gen._transposed = None  # the tail's product buffers, not read again: 0.47 MB at n_max = 3
    l_rho, flux = l_tail[:d2, :d2], l_tail[d2, :d2]
    # L_T rho_ss = 0, Tr rho_ss = 1 and L_T x = rho_ss - rho_T, Tr x = 0: the
    # rho_00 row is redundant (L_T preserves the trace), so Tr takes its place.
    # A singular L_T has no unique steady state: solve raises LinAlgError
    m_ss = np.vstack([np.eye(dim).ravel(), l_rho[1:]])
    rho_ss = np.linalg.solve(m_ss, np.eye(d2)[0])
    n_ss = (flux @ rho_ss).real / system.kappa
    if not abs(n_ss) <= 1e-10:  # NaN too
        raise PropagationError(f"steady state holds {n_ss:.2e} photons: no finite yield")
    y[[k for k, failure in enumerate(failures) if failure]] = 0.0  # their tails go unread
    rhs = rho_ss - y[:, :d2]
    rhs[:, 0] = 0.0
    photons_out = (y[:, d2].real + (flux @ np.linalg.solve(m_ss, rhs.T)).real).tolist()

    if n_in < n_t:
        # samples past the window, written in place: the first one is
        # expm(L_T (t - t_w)) rho_T, and sample j + m is P^m times sample j for
        # P = expm(L_T dt), so m doubles: one matrix product per cell each time
        tail = states[:, n_in:].reshape(n_cells, -1, d2)
        np.matmul(expm(l_rho * (times[n_in] - t_w)), y[:, :d2, None], out=tail[:, :1].swapaxes(1, 2))
        if tail.shape[1] > 1:  # a one-sample tail needs no P
            power, m = expm(l_rho * grid.dt).T, 1
            while m < tail.shape[1]:
                n_new = min(m, tail.shape[1] - m)
                np.matmul(tail[:, :n_new], power, out=tail[:, m : m + n_new])
                power, m = power @ power, 2 * m

    cells = []
    for k, (cell_states, failure) in enumerate(zip(states, failures)):
        if failure:
            raise PropagationError(failure, cell=k)
        trace_drift = max(step_drift[k], np.abs(np.einsum("tii->t", cell_states).real - 1.0).max())
        if trace_drift > 1e-8 and tol <= 1e-8:
            raise PropagationError(f"trace drift {trace_drift:.2e} exceeds 1e-8", cell=k)
        final = cell_states[-1]
        final_min_eig = np.linalg.eigvalsh(0.5 * (final + final.conj().T)).min()
        if final_min_eig < -1e-6:
            raise PropagationError(f"state eigenvalue {final_min_eig:.2e} below -1e-6", cell=k)
        photon, excited = (np.einsum("tij,ji->t", cell_states, op).real for op in (gen.n_op, gen.pop))
        cells.append(Trajectory(grid, cell_states, photon, excited, field, int(cols[k]), float(amps[k]),
                                photons_out[k], nfev[k]))
    return Row(states, tuple(cells))


def _rms(x):
    """RMS norm of each row of the complex array x, as a list."""
    v = x.view(float)
    return [sqrt(a / x.shape[1]) for a in np.add.reduce(v * v, axis=1).tolist()]


def _dormand_prince(drive, drift, y0, t0, t_bound, t_eval, out, diag, rtol, atol, max_step):
    """RK45 over [t0, t_bound] for each row of y0, one cell each.

    The Dormand-Prince 5(4) pair (J. Comput. Appl. Math. 6, 19 (1980)) with
    scipy's RK45 tableau, dense output and step control (Hairer, Norsett and
    Wanner, Solving ODEs I, Sec. II.4): the initial-step rule, safety 0.9,
    factor limits 0.2 and 10 and no growth right after a rejection, the RMS
    error norm, the max_step cap and the clip to t_bound.  Every cell keeps
    its own t, step and accept/reject decision, so it takes the steps it
    would take alone.  Only the state arithmetic is shared, and it is
    written so that a cell's numbers are bit for bit the same in any block:
    cells lie on the leading axis and meet only in elementwise operations
    and in per-cell matrix products.

    drive(cells, times) evaluates the drive of the given cells at times
    (cells, stages), and drift(y, s, out) writes the derivative of each row
    of y under stage s of the last evaluation to out (rows, 1, n), or
    returns it without out.  An attempt evaluates the drive once, at t + c h
    for the five c of RK_C[1:]: its last drift, at t + h, reads the fifth
    stage again (first same as last).  The stages, the tableau times h and
    the buffers of the error norm live in one workspace, built when the set
    of running cells changes; an attempt writes them in place.  The dense
    output fills the leading columns of out[cell, j] at t_eval[j].  The
    entries y[diag] of a row sum to the trace of its state.  Returns the
    states at t_bound, the RHS evaluations of each cell, its largest
    |trace - 1| over its accepted steps and, per cell, None or why it failed
    (its state at t_bound is then meaningless).
    """
    n_cells, n = y0.shape
    cells = np.arange(n_cells)  # the original index of each row still running
    nfev, failures, y_end = [2] * n_cells, [None] * n_cells, y0.copy()
    trace_drift = [0.0] * n_cells
    samples, interval = t_eval.tolist(), t_bound - t0

    # initial step (Hairer, Norsett and Wanner, Sec. II.4)
    y = y0
    drive(cells, np.full((n_cells, 1), t0))
    f = drift(y, 0)
    scale = atol + np.abs(y) * rtol
    d1 = _rms(f / scale)
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, interval) for a, b in zip(_rms(y / scale), d1)]
    h0_col = np.array(h0)[:, None]
    drive(cells, t0 + h0_col)
    f1 = drift(y + h0_col * f, 0)
    d2 = _rms((f1 - f) / scale)
    h_abs = [min(100 * h, max(1e-6, h * 1e-3) if a <= 1e-15 and b / h <= 1e-15 else (0.01 / max(a, b / h)) ** 0.2,
                 interval, max_step) for h, a, b in zip(h0, d1, d2)]

    # per cell: t, the next attempt's step (in [min_step, max_step] at t0 and after
    # an accept), whether the step had a rejection, its smallest step, its next sample
    t, rejected, next_sample = [t0] * n_cells, [False] * n_cells, [0] * n_cells
    min_step = [10 * abs(nextafter(t0, inf) - t0)] * n_cells
    abs_y = np.abs(y)
    finished = [c for c, h in enumerate(h_abs) if not h > 0.0]  # NaN: f is not finite
    for c in finished:
        failures[c] = TOO_SMALL
    h_abs = [min(max(h, min_step[0]), max_step) for h in h_abs]
    k = None
    while True:
        if finished or k is None:  # the set of running cells changes: a new workspace
            if finished:  # these cells stop: drop their rows
                y_end[cells[finished]] = y[finished]
                keep = [c for c in range(len(cells)) if c not in finished]
                cells, y, f, abs_y = cells[keep], y[keep], f[keep], abs_y[keep]
                t, h_abs, rejected, min_step, next_sample = (
                    [v[c] for c in keep] for v in (t, h_abs, rejected, min_step, next_sample))
            if not len(cells):
                return y_end, nfev, trace_drift, failures
            ids, n_run = cells.tolist(), len(cells)
            k = np.empty((n_run, 8, n), dtype=complex)  # y, then the stages k_0 .. k_6
            k[:, 0], k[:, 1] = y, f
            y, f = k[:, 0], k[:, 1]
            wh = np.empty((n_run, 8, 8), dtype=complex)  # per cell: the tableau times h, y's weight kept at 1
            wh[:, :, 0] = RK_W[:, 0]
            stage, y_new, error = (np.empty((n_run, 1, n), dtype=complex) for _ in range(3))
            abs_new, scale = np.empty((n_run, n)), np.empty((n_run, n))
            # stage s + 1 from y and the stages before it, and where its drift goes
            combos = [(wh[:, s : s + 1, : s + 1], k[:, : s + 1], k[:, s + 1 : s + 2]) for s in range(1, 6)]
            wh_new, k_new, wh_err, k_last = wh[:, 6:7, :7], k[:, :7], wh[:, 7:], k[:, 7:]
            stage_row, new_row, error_row = stage[:, 0], y_new[:, 0], error[:, 0]
        t_new = [min(tc + hc, t_bound) for tc, hc in zip(t, h_abs)]
        h_abs = [tn - tc for tn, tc in zip(t_new, t)]

        h, t_old = np.array(h_abs)[:, None], np.array(t)
        drive(cells, t_old[:, None] + h * RK_C[1:])
        np.multiply(RK_W[:, 1:], h[:, :, None], out=wh[:, :, 1:])
        for s, (wh_s, k_s, k_out) in enumerate(combos):
            np.matmul(wh_s, k_s, out=stage)
            drift(stage_row, s, k_out)
        np.matmul(wh_new, k_new, out=y_new)
        drift(new_row, 4, k_last)
        np.abs(new_row, out=abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        scale *= rtol
        scale += atol
        np.matmul(wh_err, k, out=error)
        errors = _rms(np.divide(error_row, scale, out=error_row))
        traces = np.add.reduce(new_row[:, diag], axis=1).real.tolist()  # read for the accepted rows

        accepted, finished, dense_rows, dense_at = [], [], [], []
        for c, err in enumerate(errors):
            nfev[ids[c]] += 6
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs[c] *= min(1, factor) if rejected[c] else factor
                accepted.append(c)
                trace_drift[ids[c]] = max(trace_drift[ids[c]], abs(traces[c] - 1.0))
                stop = bisect_right(samples, t_new[c])
                dense_rows += [c] * (stop - next_sample[c])
                dense_at += range(next_sample[c], stop)
                next_sample[c] = stop
                t[c], rejected[c] = t_new[c], False
                min_step[c] = 10 * abs(nextafter(t[c], inf) - t[c])
                h_abs[c] = min(max(h_abs[c], min_step[c]), max_step)
                if t[c] == t_bound:
                    finished.append(c)
            else:
                h_abs[c] *= max(0.2, 0.9 * err ** -0.2)
                rejected[c] = True
                if h_abs[c] < min_step[c]:
                    failures[ids[c]] = TOO_SMALL
                    finished.append(c)
        if dense_rows:
            # RK45's quartic dense output on the accepted steps: y plus the
            # stages weighted by P [x, x^2, x^3, x^4] h at x = (t_j - t) / h
            rows = np.array(dense_rows)
            x = (t_eval[dense_at] - t_old[rows]) / h[rows, 0]
            weights = np.matmul(x[:, None, None] ** np.arange(1, 5), RK_P.T) * h[rows, None]
            dense = y[rows] + np.matmul(weights, k[rows, 1:])[:, 0]
            out[cells[rows], dense_at] = dense[:, : out.shape[2]]
        if len(accepted) == n_run:
            y[...], f[...] = new_row, k[:, 7]
            abs_y, abs_new = abs_new, abs_y
        else:
            y[accepted], f[accepted], abs_y[accepted] = new_row[accepted], k[accepted, 7], abs_new[accepted]
