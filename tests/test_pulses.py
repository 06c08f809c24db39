"""Cavity-filtered drive field: closed form against the convolution oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavex.config import apply_override, blue_case, load_config, red_case
from cavex.pulses import (
    CavityModeSpec,
    FieldShapeError,
    GridResolutionError,
    IntracavityField,
    PulseSpec,
    TimeGrid,
    cavity_impulse_response,
    default_field_grid,
    finesse_enhancement,
    hermite_cubic,
    input_envelope,
    intracavity_field_analytic,
    intracavity_field_numeric,
    pulse_area,
)

GHZ = 2 * np.pi * 1e9
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def relative_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def normalized_shape(env):
    return env / np.linalg.norm(env)


class TestClosedFormParameter:
    def test_j_resonant_reference(self):
        # j = 1 + kappa t_p / 2 for zero laser-cavity detuning
        kappa = 25.0 * GHZ
        t_p = 4.2e-12
        j = 1.0 + (0.5 * kappa + 0.0j) * t_p
        assert j.real == pytest.approx(1.3299, abs=5e-4)
        assert j.imag == 0.0


class TestTransparentLimit:
    def test_very_broad_cavity_passes_input(self):
        t_p = 4.2e-12
        pulse = PulseSpec(t_p=t_p, delta_omega_L=0.0, amplitude=np.pi)
        mode = CavityModeSpec(delta_omega_e=0.0, kappa=1000.0 / t_p)
        grid = TimeGrid(-12 * t_p, 12 * t_p, 2**17)
        out = intracavity_field_numeric(pulse, mode, grid)
        ref = input_envelope(pulse, grid.times)
        mask = np.abs(ref) > 1e-3 * np.abs(ref).max()
        assert np.max(np.abs(out.envelope[:, 0] - ref)[mask] / np.abs(ref)[mask]) < 5e-3

    def test_quasi_static_long_pulse(self):
        pulse = PulseSpec(t_p=2e-9, delta_omega_L=0.0, amplitude=np.pi)
        mode = CavityModeSpec(delta_omega_e=0.0, kappa=25.0 * GHZ)
        grid = TimeGrid(-20e-9, 20e-9, 32768)
        out = intracavity_field_numeric(pulse, mode, grid)
        ref = input_envelope(pulse, grid.times)
        assert relative_l2(out.envelope[:, 0], ref) < 5e-3


class TestImpulseResponse:
    def test_causality(self):
        mode = CavityModeSpec(kappa=25.0 * GHZ)
        tau = np.array([-1e-12, -1e-15])
        np.testing.assert_array_equal(cavity_impulse_response(mode, tau), 0.0)

    def test_value_at_origin_and_decay(self):
        mode = CavityModeSpec(delta_omega_e=0.0, kappa=2.0e10)
        assert cavity_impulse_response(mode, 0.0) == pytest.approx(1.0)
        assert abs(cavity_impulse_response(mode, 1e-10)) == pytest.approx(np.exp(-1.0))

    def test_delta_like_input_reproduces_response(self):
        mode = CavityModeSpec(delta_omega_e=-50.0 * GHZ, kappa=25.0 * GHZ)
        grid = TimeGrid(-4e-12, 120e-12, 65536)
        pulse = PulseSpec(t_p=40 * grid.dt, amplitude=np.pi)
        out = intracavity_field_numeric(pulse, mode, grid)
        t = grid.times
        ref = cavity_impulse_response(mode, t)
        late = t > 25 * pulse.t_p  # past the short input pulse
        ratio = out.envelope[late, 0] / ref[late]
        assert np.max(np.abs(ratio - ratio[0])) / np.abs(ratio[0]) < 5e-3


class TestConvolution:
    def test_matches_direct_convolution(self):
        mode = CavityModeSpec(delta_omega_e=-50.0 * GHZ, kappa=25.0 * GHZ)
        grid = TimeGrid(-30e-12, 60e-12, 1001)
        pulse = PulseSpec(t_p=2e-12, delta_omega_L=88.0 * GHZ, amplitude=np.pi)
        e_in = input_envelope(pulse, grid.times)
        h = cavity_impulse_response(mode, grid.times - grid.times[0])
        conv = np.convolve(e_in, h)[: grid.n_points] * grid.dt
        conv -= 0.5 * grid.dt * (e_in * h[0] + e_in[0] * h)
        lam = -0.5 * mode.kappa + 1j * mode.delta_omega_e
        conv += grid.dt**2 / 12 * (lam * e_in - np.gradient(e_in, grid.dt, edge_order=2))
        out = intracavity_field_numeric(pulse, mode, grid).envelope[:, 0]
        np.testing.assert_allclose(out, 0.5 * mode.kappa * conv, rtol=0, atol=1e-12 * np.abs(out).max())

    @pytest.mark.parametrize("case", [blue_case, red_case])
    @pytest.mark.parametrize("n_points", [4096, 6000, 8192])
    def test_equals_the_scipy_fft_convolution(self, case, n_points):
        # numpy's FFT at the power of two >= 2N - 1 is scipy.fft at
        # next_fast_len(2N - 1), the same length for 4096 and 8192 points; at
        # 6000 points (16384 against 12000) the field moved by at most 7.1e-16
        # of its peak over the shipped recipes
        import scipy.fft

        cfg = case()
        pulse, mode = cfg.pulse(), cfg.excitation_mode()
        grid = default_field_grid(pulse, mode, n_points)
        e_in = input_envelope(pulse, grid.times)
        h = cavity_impulse_response(mode, grid.times - grid.times[0])
        n = scipy.fft.next_fast_len(2 * n_points - 1)
        conv = scipy.fft.ifft(scipy.fft.fft(e_in, n) * scipy.fft.fft(h, n))[:n_points] * grid.dt
        conv -= 0.5 * grid.dt * (e_in * h[0] + e_in[0] * h)
        lam = -0.5 * mode.kappa + 1j * mode.delta_omega_e
        conv += grid.dt**2 / 12.0 * (lam * e_in - np.gradient(e_in, grid.dt, edge_order=2))
        expected = 0.5 * mode.kappa * conv
        out = intracavity_field_numeric(pulse, mode, grid).envelope[:, 0]
        if n & (n - 1) == 0:  # a power of two, the length numpy's FFT takes
            np.testing.assert_array_equal(out, expected)
        else:
            np.testing.assert_allclose(out, expected, rtol=0, atol=2e-15 * np.abs(out).max())

    def test_import_leaves_scipy_signal_unloaded(self):
        # cavex loads no scipy module: scipy.signal or scipy.integrate would
        # each double `import cavex` or more, scipy.fft, scipy.linalg and
        # scipy.special added about 40 % to it, and scipy.sparse 120 ms.  The
        # CSR kernel is loaded alone, and a later `import scipy.sparse` still
        # binds its own extension; the names of any loaded modules are printed
        code = "\n".join([
            "import sys, numpy as np, cavex, cavex.cli",
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "assert cavex.dynamics.CSR_MATVEC is not None",
            "import scipy.sparse",
            "product = scipy.sparse.csr_array(np.diag([1.0, 2.0])) @ np.array([[1.0, 2.0], [3.0, 4.0]])",
            "assert scipy.sparse._sparsetools.csr_matvecs is not None and product.tolist() == [[1, 2], [6, 8]]",
        ])
        assert run_python(code) == ""

    def test_kernel_of_a_loaded_scipy_sparse_is_reused(self):
        # with scipy.sparse imported first, cavex takes the extension module
        # scipy bound (a stand-in here, so a second load would show) and
        # leaves it in sys.modules
        code = "\n".join([
            "import sys, types, scipy.sparse",
            "real = scipy.sparse._sparsetools",
            "stand_in = types.ModuleType(real.__name__)",
            "stand_in.csr_matvec = lambda *args: real.csr_matvec(*args)",
            "sys.modules[real.__name__] = stand_in",
            "import cavex",
            "print(cavex.dynamics.CSR_MATVEC is stand_in.csr_matvec, sys.modules.get(real.__name__) is stand_in)",
        ])
        assert run_python(code) == "True True"


def run_python(code):
    """Run code in a fresh interpreter with cavex's source on the path; its stripped stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout.strip()


def compare_routes(pulse, mode, span_factor=16.0, ring=10.0, n_fine=2**17, stride=64):
    """Numeric route on a fine grid (controls quadrature error), analytic
    route evaluated on every ``stride``-th point of the same grid."""
    t0 = -span_factor * pulse.t_p
    t1 = span_factor * pulse.t_p + ring / mode.kappa
    fine = TimeGrid(t0, t1, n_fine + 1)
    coarse = TimeGrid(t0, t1, n_fine // stride + 1)
    num = intracavity_field_numeric(pulse, mode, fine).envelope[::stride]
    ana = intracavity_field_analytic(pulse, mode, coarse).envelope
    return ana, num


class TestAnalyticNumericEquivalence:
    def test_reference_curve(self):
        pulse = PulseSpec(t_p=4.2e-12, delta_omega_L=88.0 * GHZ, amplitude=np.pi)
        mode = CavityModeSpec(delta_omega_e=-25.0 * GHZ, kappa=25.0 * GHZ)
        ana, num = compare_routes(pulse, mode)
        assert relative_l2(normalized_shape(ana), normalized_shape(num)) < 1e-6

    def test_normalization_constant_is_one(self):
        # not just the shape: the absolute scales of the two routes agree
        pulse = PulseSpec(t_p=3.0e-12, delta_omega_L=60.0 * GHZ, amplitude=2 * np.pi)
        mode = CavityModeSpec(delta_omega_e=-40.0 * GHZ, kappa=30.0 * GHZ)
        ana, num = compare_routes(pulse, mode)
        assert relative_l2(ana, num) < 1e-6

    def test_hundred_random_draws(self):
        rng = np.random.default_rng(20250823)
        worst = 0.0
        for _ in range(100):
            t_p = 10 ** rng.uniform(np.log10(1.0), np.log10(8.0)) * 1e-12
            kappa = rng.uniform(0.1, 5.0) / t_p
            dw_el = rng.uniform(-5.0, 5.0) / t_p
            dw_l = rng.uniform(-3.0, 3.0) / t_p
            pulse = PulseSpec(t_p=t_p, delta_omega_L=dw_l, amplitude=np.pi)
            mode = CavityModeSpec(delta_omega_e=dw_l - dw_el, kappa=kappa)
            ana, num = compare_routes(pulse, mode)
            err = relative_l2(normalized_shape(ana), normalized_shape(num))
            worst = max(worst, err)
        assert worst < 1e-6

    @pytest.mark.parametrize(
        "recipe, dwl, dwe",
        [("fig2c", 88.0, -50.0), ("fig3a", 120.0, -100.0), ("fig4", -120.0, 100.0), ("figS1blue", 0.0, 0.0)],
    )
    def test_default_grid_matches_to_1e7_of_peak(self, recipe, dwl, dwe):
        # the end-corrected quadrature is fourth-order: 8192 points carry
        # the convolution well below the solver's own error
        cfg = apply_override(load_config(CONFIGS / f"{recipe}.ini"), "pulse.delta_omega_L_GHz", dwl)
        cfg = apply_override(cfg, "system.delta_omega_e_GHz", dwe)
        pulse, mode, grid = cfg.pulse(), cfg.excitation_mode(), cfg.field_grid()
        assert grid.n_points == 8192
        ana = intracavity_field_analytic(pulse, mode, grid).envelope
        num = intracavity_field_numeric(pulse, mode, grid).envelope
        assert np.abs(num - ana).max() <= 1e-7 * np.abs(ana).max()

    def test_analytic_requires_sech(self):
        pulse = PulseSpec(shape="Gaussian", t_p=4.2e-12)
        mode = CavityModeSpec(kappa=25.0 * GHZ)
        with pytest.raises(FieldShapeError):
            intracavity_field_analytic(pulse, mode, default_field_grid(pulse, mode))


class TestFieldProperties:
    def _pair(self, amplitude):
        pulse = PulseSpec(t_p=4.2e-12, delta_omega_L=88.0 * GHZ, amplitude=amplitude)
        mode = CavityModeSpec(delta_omega_e=-50.0 * GHZ, kappa=25.0 * GHZ)
        grid = default_field_grid(pulse, mode)
        return pulse, mode, grid

    def test_linearity_both_routes(self):
        p1, mode, grid = self._pair(np.pi)
        p2, _, _ = self._pair(2 * np.pi)
        for route in (intracavity_field_numeric, intracavity_field_analytic):
            e1 = route(p1, mode, grid).envelope
            e2 = route(p2, mode, grid).envelope
            np.testing.assert_allclose(e2, 2.0 * e1, rtol=1e-12, atol=1e-12)

    def test_causal_peak_delay(self):
        pulse = PulseSpec(t_p=4.2e-12, delta_omega_L=0.0, amplitude=np.pi)
        mode = CavityModeSpec(delta_omega_e=0.0, kappa=25.0 * GHZ)
        grid = default_field_grid(pulse, mode)
        out = intracavity_field_numeric(pulse, mode, grid)
        t = grid.times
        t_peak_in = t[np.argmax(np.abs(input_envelope(pulse, t)))]
        t_peak_out = t[np.argmax(np.abs(out.envelope))]
        assert t_peak_out >= t_peak_in

    def test_spectral_lorentzian_filter(self):
        pulse = PulseSpec(t_p=4.2e-12, delta_omega_L=88.0 * GHZ, amplitude=np.pi)
        mode = CavityModeSpec(delta_omega_e=-50.0 * GHZ, kappa=25.0 * GHZ)
        grid = TimeGrid(-120e-12, 400e-12, 2**17)
        out = intracavity_field_numeric(pulse, mode, grid)
        e_in = input_envelope(pulse, grid.times)
        omega = 2 * np.pi * np.fft.fftfreq(grid.n_points, grid.dt)
        filt = 1.0 / (0.5 * mode.kappa + 1j * (omega - mode.delta_omega_e))
        pred = np.fft.fft(e_in) * filt
        meas = np.fft.fft(out.envelope[:, 0])
        # compare shapes after least-squares scaling
        scale = np.vdot(pred, meas) / np.vdot(pred, pred)
        assert np.linalg.norm(meas - scale * pred) / np.linalg.norm(meas) < 1e-4

    def test_boundary_leak_small_on_default_grid(self):
        pulse, mode, grid = self._pair(np.pi)
        out = intracavity_field_numeric(pulse, mode, grid)
        assert out.boundary_leak()[0] < 1e-6

    def test_interpolation_outside_grid_is_zero(self):
        _, mode, grid = self._pair(np.pi)
        field = IntracavityField(grid, np.ones(grid.n_points, dtype=complex))
        assert field.at(grid.t_start - 1e-12) == 0.0
        assert field.at(grid.t_end + 1e-12) == 0.0


class TestInterpolation:
    def test_reproduces_a_cubic_at_interior_points(self):
        grid = TimeGrid(-1.0, 2.0, 31)
        coef = [1.0 + 2.0j, -0.5, 0.3 - 1.0j, 0.7j]
        field = IntracavityField(grid, np.polyval(coef[::-1], grid.times))
        # the two intervals at each end are linear
        t = np.random.default_rng(7).uniform(grid.t_start + 2 * grid.dt, grid.t_end - 3 * grid.dt, 200)
        got = np.array([field.at(x) for x in t])
        exact = np.polyval(coef[::-1], t)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(field.envelope).max()
        # the builder carries trailing axes along: samples of shape (n, 2, 2)
        # hold four cubics, and each interval's coefficients reproduce all four
        cubics = np.array([coef, np.conj(coef), [0.0, 1.0, -2.0, 0.5], [3.0, 0.0, 0.0, -1.0j]])
        samples = np.stack([np.polyval(c[::-1], grid.times) for c in cubics], axis=-1).reshape(-1, 2, 2)
        table = hermite_cubic(samples)
        assert table.shape == (grid.n_points - 1, 4, 2, 2)
        x = (t - grid.t_start) / grid.dt
        i = x.astype(int)
        got = np.einsum("tp,tpjk->tjk", (x - i)[:, None] ** np.arange(4), table[i])
        exact = np.stack([np.polyval(c[::-1], t) for c in cubics], axis=-1).reshape(-1, 2, 2)
        assert np.abs(got - exact).max() <= 1e-12 * np.abs(samples).max()

    def test_value_and_slope_continuous_across_samples(self):
        grid = TimeGrid(0.0, 63.0, 64)  # dt = 1
        rng = np.random.default_rng(11)
        field = IntracavityField(grid, rng.normal(size=64) + 1j * rng.normal(size=64))
        h = 1e-6
        for k in range(3, 61):
            t = grid.times[k]
            assert field.at(t) == pytest.approx(field.envelope[k, 0], abs=1e-12)
            left = (field.at(t) - field.at(t - h)) / h
            right = (field.at(t + h) - field.at(t)) / h
            assert abs(field.at(t + h) - field.at(t - h)) < 1e-4
            assert abs(right - left) < 1e-3

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False, allow_subnormal=False),
            min_size=2,
            max_size=40,
        )
    )
    def test_magnitude_bound_holds_between_samples(self, values):
        # the Redfield table ends at the bound: |at(t)| must not pass it on
        # any interval, the linear ones at each end included
        field = IntracavityField(TimeGrid(0.0, 1.0, len(values)), np.array(values))
        t = np.linspace(0.0, 1.0, 50 * (len(values) - 1) + 1)
        assert np.abs(field.at(t)).max() <= field.magnitude_bound()[0] * (1.0 + 1e-12)

    def test_a_stack_reads_each_column_as_its_own_field(self):
        # the solver reads a block's fields as one stack: every value and
        # pulse area is bit for bit that of the column alone (a trapezoid
        # along the stack's first axis is not: it differs on a column here),
        # each boundary leak equal, a zero column's 0, and each bound to an ulp
        grid = TimeGrid(0.0, 63.0, 64)
        rng = np.random.default_rng(5)
        columns = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        columns = np.hstack([columns, np.zeros((64, 1))])
        stack = IntracavityField(grid, columns)
        alone = [IntracavityField(grid, column.copy()) for column in columns.T]
        assert stack.envelope.shape == (64, 4) and all(field.envelope.shape == (64, 1) for field in alone)
        t = rng.uniform(-1.0, 64.0, (5, 6))
        which = rng.integers(0, 4, (5, 1))
        got = stack.at(t, which)
        for row, j in enumerate(which[:, 0]):
            assert np.array_equal(got[row], alone[j].at(t[row]))
        assert np.array_equal(pulse_area(stack), [pulse_area(field)[0] for field in alone])
        assert np.array_equal(stack.boundary_leak(), [field.boundary_leak()[0] for field in alone])
        assert stack.boundary_leak()[3] == 0.0
        np.testing.assert_allclose(stack.magnitude_bound(), [field.magnitude_bound()[0] for field in alone], rtol=1e-15)

    @pytest.mark.parametrize("shape, real", [((8192,), False), ((8192, 4), False), ((260, 64), True)])
    def test_hermite_cubic_equals_the_plain_expressions(self, shape, real):
        # the in-place build keeps the arithmetic of the whole-array
        # expressions, so every coefficient is the same float
        rng = np.random.default_rng(17)
        e = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = np.zeros((len(e) - 1, 4) + e.shape[1:], dtype=e.dtype)
        expected[:, 0] = e[:-1]
        expected[:, 1] = e[1:] - e[:-1]
        d = (e[:-4] - e[4:] + 8.0 * (e[3:-1] - e[1:-3])) / 12.0
        d0, d1, e0, e1 = d[:-1], d[1:], e[2:-3], e[3:-2]
        expected[2:-2, 1] = d0
        expected[2:-2, 2] = 3.0 * (e1 - e0) - 2.0 * d0 - d1
        expected[2:-2, 3] = 2.0 * (e0 - e1) + d0 + d1
        got = hermite_cubic(e)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    def test_error_falls_fourth_order_with_dt(self):
        def sech_field(n):
            grid = TimeGrid(-16.0, 16.0, n)
            return IntracavityField(grid, np.exp(2j * grid.times) / np.cosh(grid.times))

        t = np.linspace(-10.0, 10.0, 1001) + 1e-3
        exact = np.exp(2j * t) / np.cosh(t)
        errs = [
            np.abs(np.array([field.at(x) for x in t]) - exact).max()
            for field in (sech_field(257), sech_field(513))
        ]
        assert errs[0] >= 12.0 * errs[1]


class TestGridValidation:
    def test_coarse_grid_rejected(self):
        pulse = PulseSpec(t_p=4.2e-12, delta_omega_L=88.0 * GHZ)
        mode = CavityModeSpec(delta_omega_e=-50.0 * GHZ, kappa=25.0 * GHZ)
        with pytest.raises(GridResolutionError):
            intracavity_field_numeric(pulse, mode, TimeGrid(-80e-12, 80e-12, 64))

    def test_unresolved_pulse_rejected(self):
        pulse = PulseSpec(t_p=1e-14, delta_omega_L=0.0)
        mode = CavityModeSpec(kappa=2.0e10)
        with pytest.raises(GridResolutionError):
            intracavity_field_numeric(pulse, mode, TimeGrid(-1e-11, 1e-11, 512))


class TestPulseArea:
    def test_zero_amplitude(self):
        grid = TimeGrid(-1e-11, 1e-11, 256)
        field = IntracavityField(grid, np.zeros(256, dtype=complex))
        assert pulse_area(field) == 0.0

    def test_bare_sech_area(self):
        # integral of Omega0 sech(t/t_p) is Omega0 pi t_p
        t_p = 4.2e-12
        omega0 = 3.7e11
        grid = TimeGrid(-25 * t_p, 25 * t_p, 8192)
        env = omega0 / np.cosh(grid.times / t_p) + 0.0j
        field = IntracavityField(grid, env)
        assert pulse_area(field) == pytest.approx(omega0 * t_p, rel=1e-6)

    def test_scaling(self):
        grid = TimeGrid(-1e-11, 1e-11, 512)
        env = np.exp(-((grid.times / 3e-12) ** 2)) * (1 + 1j)
        a1 = pulse_area(IntracavityField(grid, env))
        a2 = pulse_area(IntracavityField(grid, 2 * env))
        assert a2 == pytest.approx(2 * a1, rel=1e-12)


class TestFinesse:
    def test_values(self):
        assert finesse_enhancement(500.0) == pytest.approx(17.8412, abs=1e-3)
        assert finesse_enhancement(np.pi / 2) == pytest.approx(1.0)
        assert finesse_enhancement(2 * np.pi) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            finesse_enhancement(0.0)
