"""Classical intra-cavity drive construction.

The input laser pulse is filtered by the excitation cavity mode.  Two
independent routes produce the filtered field:

- ``intracavity_field_analytic``: closed form in terms of 2F1(1,1;c;z),
- ``intracavity_field_numeric``: direct causal convolution with the cavity
  impulse response, fourth-order in the grid step (the oracle; also the
  only route for non-sech shapes).

The solver reads a field through ``IntracavityField.at``, a C1 cubic
Hermite interpolation that is fourth-order as well.

All envelopes are complex positive-frequency envelopes in the frame rotating
at the emitter frequency; the stored phase factor is e^{+i dwL t}.
"""

from dataclasses import dataclass, field as _dfield
from functools import cached_property

import numpy as np
import scipy.fft

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


@dataclass(frozen=True)
class IntracavityField:
    grid: TimeGrid
    envelope: np.ndarray = _dfield(repr=False)

    def __post_init__(self):
        if len(self.envelope) != self.grid.n_points:
            raise ValueError("envelope length must match grid")

    def boundary_leak(self):
        """Largest boundary magnitude relative to the peak."""
        peak = np.abs(self.envelope).max()
        if peak == 0:
            return 0.0
        return max(abs(self.envelope[0]), abs(self.envelope[-1])) / peak

    def at(self, t):
        """Envelope at time t by C1 cubic Hermite interpolation; zero outside the grid.

        The slopes are fourth-order central differences of the six nearest
        samples, so the drive is fourth-order accurate and the integrator
        meets no kink at the samples.  The two intervals at each end, where
        the envelope is below 1e-6 of its peak, are linear.
        """
        g = self.grid
        if t <= g.t_start or t >= g.t_end:
            return 0.0 + 0.0j
        x = (t - g.t_start) / g.dt
        i = min(int(x), g.n_points - 2)
        f = float(x - i)  # a numpy scalar would make the complex arithmetic below slow
        if i < 2 or i > g.n_points - 4:
            return self.envelope[i] * (1.0 - f) + self.envelope[i + 1] * f
        em2, em1, e0, e1, e2, e3 = self.envelope[i - 2 : i + 4].tolist()
        d0 = (em2 - e2 + 8.0 * (e1 - em1)) / 12.0  # slopes times dt
        d1 = (em1 - e3 + 8.0 * (e2 - e0)) / 12.0
        c2 = 3.0 * (e1 - e0) - 2.0 * d0 - d1
        c3 = 2.0 * (e0 - e1) + d0 + d1
        return e0 + f * (d0 + f * (c2 + f * c3))


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
    # linear, not circular, convolution: zero-pad to at least 2N - 1 points
    n = scipy.fft.next_fast_len(2 * len(t) - 1)
    conv = scipy.fft.ifft(scipy.fft.fft(e_in, n) * scipy.fft.fft(h, n))[: len(t)] * dt
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
    """Integral of |envelope| over the grid, in units of pi."""
    return np.trapezoid(np.abs(field.envelope), field.grid.times) / np.pi


def finesse_enhancement(finesse):
    """Intra-cavity field amplitude enhancement sqrt(2 F / pi)."""
    if finesse <= 0:
        raise ValueError("finesse must be positive")
    return np.sqrt(2.0 * finesse / np.pi)
