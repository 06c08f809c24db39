"""Classical intra-cavity drive construction.

The input laser pulse is filtered by the excitation cavity mode.  Two
independent routes produce the filtered field:

- ``intracavity_field_analytic``: closed form in terms of 2F1(1,1;c;z),
- ``intracavity_field_numeric``: direct causal convolution with the cavity
  impulse response, fourth-order in the grid step (the oracle; also the
  only route for non-sech shapes).

The solver reads a field through ``IntracavityField.at``, a C1 cubic
Hermite interpolation that is fourth-order as well: ``hermite_cubic``, the
rule the Redfield table of ``cavex.dynamics`` reads its samples by too.

All envelopes are complex positive-frequency envelopes in the frame rotating
at the emitter frequency; the stored phase factor is e^{+i dwL t}.
"""

from dataclasses import dataclass, field as _dfield
from functools import cached_property

import numpy as np

from .specfun import gauss_2f1_11, sech

SECH_AMPLITUDE_FWHM = 2.0 * np.arccosh(2.0)  # FWHM of sech(t/tp) in units of tp


class FieldShapeError(ValueError):
    """Operation requires a different pulse shape."""


class GridResolutionError(ValueError):
    """Time grid too coarse or too short for the requested field."""


@dataclass(frozen=True)
class PulseSpec:
    """Input laser pulse.

    t_p is the time constant of the sech envelope sech(t/t_p); for Gaussian
    shapes it is the intensity FWHM.  amplitude is the pulse area (rad) that
    the drive envelope integrates to in the transparent-cavity limit; the
    dipole moment is absorbed into it.  delta_omega_L = omega_L - omega_0
    (rad/s) is the laser detuning from the emitter.
    """

    shape: str = "Sech"  # Sech | Gaussian | ChirpedGaussian
    t_p: float = 4.2e-12
    delta_omega_L: float = 0.0
    amplitude: float = np.pi
    chirp_rate: float = 0.0

    def __post_init__(self):
        if self.shape not in ("Sech", "Gaussian", "ChirpedGaussian"):
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.t_p <= 0:
            raise ValueError("t_p must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")


@dataclass(frozen=True)
class CavityModeSpec:
    """Excitation cavity mode: detuning from the emitter and linewidth."""

    delta_omega_e: float = 0.0
    kappa: float = 2 * np.pi * 25e9

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError("t_start must precede t_end")
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")

    @property
    def times(self):
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @cached_property
    def dt(self):
        return (self.t_end - self.t_start) / (self.n_points - 1)


def hermite_cubic(samples):
    """The C1 cubic Hermite rule on uniformly spaced samples, along the first
    axis: out[i, p] is the coefficient of f^p on interval i, f = (t - t_i) / dt,
    any trailing axes of samples carried along.

    The slopes are fourth-order central differences of the six nearest
    samples, so the rule is fourth-order accurate; the two intervals at each
    end, which lack them, are linear.
    """
    e = np.asarray(samples)
    coef = np.zeros((len(e) - 1, 4) + e.shape[1:], dtype=np.result_type(e, float))
    # built in place, in the operation order of the plain expressions, so the
    # slopes d are the only array allocated beside coef: columns 1 and 3 serve
    # as scratch before their own values are written
    c0, c1, c2, c3 = (coef[:, p] for p in range(4))
    d = np.subtract(e[:-4], e[4:], dtype=coef.dtype)  # slopes times dt at 2 .. n-3
    d += np.multiply(np.subtract(e[3:-1], e[1:-3], out=c1[:-3]), 8.0, out=c1[:-3])
    d /= 12.0
    d0, d1, e0, e1 = d[:-1], d[1:], e[2:-3], e[3:-2]
    c0[...] = e[:-1]
    np.subtract(e[1:], e[:-1], out=c1)  # linear where no cubic is set below
    c1, c2, c3 = c1[2:-2], c2[2:-2], c3[2:-2]
    c1[...] = d0
    np.multiply(np.subtract(e1, e0, out=c2), 3.0, out=c2)  # 3 (e1 - e0) - 2 d0 - d1
    c2 -= np.multiply(d0, 2.0, out=c3)
    c2 -= d1
    np.multiply(np.subtract(e0, e1, out=c3), 2.0, out=c3)  # 2 (e0 - e1) + d0 + d1
    c3 += d0
    c3 += d1
    return coef


@dataclass(frozen=True)
class IntracavityField:
    """A stack of drive envelopes on grid, of shape (n_points, n_fields), read
    one column per cell (``at``'s column); a 1-D envelope is a stack of one."""

    grid: TimeGrid
    envelope: np.ndarray = _dfield(repr=False)

    def __post_init__(self):
        if len(self.envelope) != self.grid.n_points:
            raise ValueError("envelope length must match grid")
        object.__setattr__(self, "envelope", np.reshape(self.envelope, (self.grid.n_points, -1)))

    def boundary_leak(self):
        """Each column's largest boundary magnitude relative to its peak (0 for a zero column)."""
        mag = np.abs(self.envelope)
        peak = mag.max(axis=0)
        return np.divide(np.maximum(mag[0], mag[-1]), peak, out=np.zeros_like(peak), where=peak > 0)

    def magnitude_bound(self):
        """An upper bound on |at(t, column)| over the grid for each column, read
        off each interval's cubic p: |p| <= max(|p(0)|, |p(1)|) + 4/27 (|p'(0)|
        + |p'(1)|), as the Hermite weights of the two values are non-negative
        and sum to one, and those of the slopes stay within 4/27.  One column at
        a time, so the temporaries are one field's size."""
        bounds = []
        for c in np.moveaxis(self._cubic, 2, 0):
            ends = np.maximum(np.abs(c[:, 0]), np.abs(c.sum(axis=1)))
            slopes = np.abs(c[:, 1]) + np.abs(c[:, 1] + 2.0 * c[:, 2] + 3.0 * c[:, 3])
            bounds.append((ends + 4.0 / 27.0 * slopes).max())
        return np.array(bounds)

    @cached_property
    def _cubic(self):
        """Row i holds the cubic (c_0, c_1, c_2, c_3) of interval i, of each
        column along a last axis: one build for the whole stack."""
        return hermite_cubic(self.envelope)

    def at(self, t, column=0):
        """Envelope at time t (a scalar or an array) by the C1 cubic Hermite
        rule of ``hermite_cubic``; zero outside the grid.  column (integers
        broadcast against t) names the envelope of the stack read at each t.

        The integrator meets no kink at the samples.  The two intervals at
        each end, where the envelope is below 1e-6 of its peak, are linear.
        """
        g = self.grid
        t = np.asarray(t, dtype=float)
        inside = (t > g.t_start) & (t < g.t_end)  # False for NaN as well
        x = np.where(inside, (t - g.t_start) / g.dt, 0.0)
        i = np.minimum(x.astype(np.intp), g.n_points - 2)
        value = np.matmul((x - i)[..., None, None] ** np.arange(4), self._cubic[i, :, column][..., None])
        return np.where(inside, value[..., 0, 0], 0.0)[()]


def default_field_grid(pulse, mode, n_points=8192):
    """Grid covering the pulse tails and the cavity ring-down.

    Sized so the field envelope is below 1e-6 of its peak at both ends:
    sech tails need ~16 t_p; the ring-down needs ~30/kappa past the pulse.
    """
    t0 = -16.0 * pulse.t_p - 6.0 / mode.kappa
    t1 = +16.0 * pulse.t_p + 30.0 / mode.kappa
    return TimeGrid(t0, t1, n_points)


def input_envelope(pulse, t):
    """Complex rotating-frame envelope of the input pulse at time t.

    The sech envelope is (pi t_p)^-1 sech(t/t_p) e^{i dwL t}, unit area
    before amplitude scaling.  Gaussian shapes use intensity-FWHM t_p and
    the same unit-area normalization; the chirped variant adds the phase
    e^{i chirp_rate t^2 / 2}.
    """
    t = np.asarray(t, dtype=float)
    phase = np.exp(1j * pulse.delta_omega_L * t)
    if pulse.shape == "Sech":
        env = sech(t / pulse.t_p) / (np.pi * pulse.t_p)
    else:
        # intensity FWHM t_p -> field std sigma
        sigma = pulse.t_p / (2.0 * np.sqrt(np.log(2.0)))
        env = np.exp(-0.5 * (t / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        if pulse.shape == "ChirpedGaussian":
            phase = phase * np.exp(0.5j * pulse.chirp_rate * t**2)
    return pulse.amplitude * env * phase


def cavity_impulse_response(mode, tau):
    """Positive-frequency impulse response Theta(tau) e^{-kappa tau/2} e^{i dwe tau}."""
    tau = np.asarray(tau, dtype=float)
    out = np.exp(np.where(tau >= 0, -0.5 * mode.kappa * tau, -np.inf)) * np.exp(
        1j * mode.delta_omega_e * tau
    )
    return np.where(tau >= 0, out, 0.0)


def intracavity_field_numeric(pulse, mode, grid):
    """Filtered drive by causal convolution with the cavity response.

    One FFT convolution with the trapezoid weights, plus the
    Euler-Maclaurin end term dt^2/12 (lam E_in - E_in') at the kernel's kink
    tau = 0 (lam = -kappa/2 + i dwe), so the quadrature is O(dt^4); the end
    term at the grid start is dropped, as the input is negligible there.
    Normalized by kappa/2 so that in the transparent limit kappa -> infinity
    the output equals the input envelope.
    """
    t = grid.times
    dt = grid.dt
    dw_el = pulse.delta_omega_L - mode.delta_omega_e
    # resolution: >= 20 points per period of the fastest scale
    fastest = max(abs(dw_el), mode.kappa)
    if fastest > 0 and dt > 2.0 * np.pi / fastest / 20.0:
        raise GridResolutionError(
            f"grid dt={dt:.3e}s does not resolve 2*pi/{fastest:.3e} with 20 points"
        )
    if dt > pulse.t_p / 20.0:
        raise GridResolutionError(f"grid dt={dt:.3e}s does not resolve t_p={pulse.t_p:.3e}s")
    e_in = input_envelope(pulse, t)
    h = cavity_impulse_response(mode, t - t[0])
    # linear, not circular, convolution: zero-pad to the power of two >= 2N - 1
    n = 1 << (2 * len(t) - 2).bit_length()
    conv = np.fft.ifft(np.fft.fft(e_in, n) * np.fft.fft(h, n))[: len(t)] * dt
    # trapezoid endpoint correction for the half-weight samples
    conv -= 0.5 * dt * (e_in * h[0] + e_in[0] * h)
    # Euler-Maclaurin end term at the kernel's kink tau = 0, where h' = lam h
    lam = -0.5 * mode.kappa + 1j * mode.delta_omega_e
    conv += dt**2 / 12.0 * (lam * e_in - np.gradient(e_in, dt, edge_order=2))
    return IntracavityField(grid, 0.5 * mode.kappa * conv)


def intracavity_field_analytic(pulse, mode, grid):
    """Closed-form filtered drive for a sech input pulse.

    With j = 1 + (kappa/2 + i dw_EL) t_p and z(t) = (1 + tanh(t/t_p))/2:

        E(t) = amplitude * e^{i dwL t} * kappa sech(t/t_p) / (2 pi j)
               * 2F1(1, 1; 1 + j/2; z(t))

    z and w = 1-z are evaluated from logistic forms so no accuracy is lost
    as z -> 1.  The normalization constant relative to the convolution
    definition is exactly 1 (asserted against the numeric oracle by tests).
    """
    if pulse.shape != "Sech":
        raise FieldShapeError("analytic filter defined for sech pulses only")
    t = grid.times
    dw_el = pulse.delta_omega_L - mode.delta_omega_e
    j = 1.0 + (0.5 * mode.kappa + 1j * dw_el) * pulse.t_p
    c = 1.0 + 0.5 * j
    x = t / pulse.t_p
    z = 1.0 / (1.0 + np.exp(-2.0 * x))
    w = 1.0 / (1.0 + np.exp(2.0 * x))
    f = np.array([gauss_2f1_11(c, zz, ww) for zz, ww in zip(z, w)])
    env = (
        pulse.amplitude
        * mode.kappa
        * sech(x)
        / (2.0 * np.pi * j)
        * f
        * np.exp(1j * pulse.delta_omega_L * t)
    )
    return IntracavityField(grid, env)


def pulse_area(field):
    """Integral of |envelope| over the grid, in units of pi: one per column,
    each reduced on its own, as a reduction along the stack's first axis sums
    in another order."""
    times = field.grid.times
    return np.array([np.trapezoid(np.abs(column), times) for column in field.envelope.T]) / np.pi


def finesse_enhancement(finesse):
    """Intra-cavity field amplitude enhancement sqrt(2 F / pi)."""
    if finesse <= 0:
        raise ValueError("finesse must be positive")
    return np.sqrt(2.0 * finesse / np.pi)
