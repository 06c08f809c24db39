"""Phonon spectral density and thermal rates against arithmetic oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavex.phonons import (
    EV,
    HBAR,
    KB,
    PhononSpec,
    bath_rate,
    spectral_density,
)

GHZ = 2 * np.pi * 1e9

# Peak of J(omega) for the default GaAs constants, located by an
# independent dense scan (2e6 points) of the closed-form expression.
PEAK_OMEGA_GHZ = 287.955  # omega_peak / 2 pi
PEAK_J = 4.28010e10  # rad/s rate density at the peak

UNIT_SCALE = PhononSpec(coupling_scale=1.0)


def reference_j(spec, w):
    """Independent inline evaluation of the spectral density."""
    fe = spec.d_e * np.exp(-(w * spec.r_e) ** 2 / (4 * spec.c_s**2))
    fh = spec.d_h * np.exp(-(w * spec.r_h) ** 2 / (4 * spec.c_s**2))
    return w**3 / (4 * np.pi**2 * spec.rho_mass * HBAR * spec.c_s**5) * (fe - fh) ** 2


class TestSpectralDensity:
    def test_zero_frequency(self):
        assert spectral_density(PhononSpec(), 0.0) == 0.0

    def test_cubic_low_frequency_scaling(self):
        spec = PhononSpec()
        w = 1e7  # far below the form-factor cutoff
        assert spectral_density(spec, 2 * w) / spectral_density(spec, w) == pytest.approx(
            8.0, rel=1e-6
        )

    def test_peak_location_and_value(self):
        spec = PhononSpec()
        w = np.linspace(0.0, 8.0 * spec.c_s / min(spec.r_e, spec.r_h), 2_000_001)
        j = spectral_density(spec, w)
        wp, jp = w[np.argmax(j)], j.max()
        assert wp / GHZ == pytest.approx(PEAK_OMEGA_GHZ, rel=1e-4)
        assert jp == pytest.approx(PEAK_J, rel=1e-4)

    def test_matches_independent_formula(self):
        spec = PhononSpec()
        w = np.linspace(0, 8 * spec.c_s / spec.r_h, 500)
        np.testing.assert_allclose(spectral_density(spec, w), reference_j(spec, w), rtol=1e-12)

    def test_gaussian_suppression_past_cutoff(self):
        spec = PhononSpec()
        w_far = 8.0 * spec.c_s / min(spec.r_e, spec.r_h)
        assert spectral_density(spec, w_far) < 1e-6 * PEAK_J

    def test_nonnegative_everywhere(self):
        spec = PhononSpec()
        w = np.linspace(0, 1e13, 2000)
        assert (spectral_density(spec, w) >= 0).all()

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            spectral_density(PhononSpec(), -1.0)


class TestBathRate:
    def test_absorption_vanishes_at_zero_temperature(self):
        spec = PhononSpec(temperature=0.0, coupling_scale=1.0)
        assert bath_rate(spec, -2e11) == 0.0

    @pytest.mark.parametrize(
        "T, w, nbar",
        [
            # hbar 2pi 88 GHz / (k 4.2 K) = 1.00555569...; nbar = 1/(e^x - 1)
            (4.2, 88.0 * GHZ, 0.576892304986772),
            # hbar omega / k T = ln 2  ->  nbar = 1
            (4.2, np.log(2.0) * KB * 4.2 / HBAR, 1.0),
            (0.0, 1e11, 0.0),
        ],
        ids=["88GHz", "ln2", "zero_temperature"],
    )
    def test_absorption_is_thermal_occupation(self, T, w, nbar):
        spec = PhononSpec(temperature=T, coupling_scale=1.0)
        ratio = bath_rate(spec, -w) / (2 * np.pi * spectral_density(spec, w))
        assert ratio == pytest.approx(nbar, rel=1e-12)

    def test_zero_frequency_rate(self):
        assert bath_rate(UNIT_SCALE, 0.0) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(w=st.floats(1e9, 1e13), T=st.floats(0.5, 50.0))
    def test_detailed_balance(self, w, T):
        spec = PhononSpec(temperature=T, coupling_scale=1.0)
        down = bath_rate(spec, w)
        up = bath_rate(spec, -w)
        boltzmann = np.exp(-HBAR * w / (KB * T))
        assert abs(up - down * boltzmann) <= 1e-12 * max(down, 1.0)

    def test_detailed_balance_log_grid(self):
        spec = PhononSpec(temperature=4.2, coupling_scale=1.0)
        for w in np.logspace(9, 13, 60):
            down = bath_rate(spec, w)
            up = bath_rate(spec, -w)
            assert abs(up - down * np.exp(-HBAR * w / (KB * 4.2))) <= 1e-12 * max(down, 1.0)

    def test_peak_rate_composition(self):
        # gamma(peak) = 2 pi J_peak (nbar + 1), composed from the two oracles
        spec = UNIT_SCALE
        wp = PEAK_OMEGA_GHZ * GHZ
        nbar = 1.0 / np.expm1(HBAR * wp / (KB * 4.2))
        expected = 2 * np.pi * reference_j(spec, wp) * (nbar + 1.0)
        assert bath_rate(spec, wp) == pytest.approx(expected, rel=1e-10)

    def test_disabled_returns_exact_zero(self):
        spec = PhononSpec(enabled=False)
        w = np.linspace(-1e12, 1e12, 101)
        np.testing.assert_array_equal(bath_rate(spec, w), 0.0)

    def test_coupling_scale_is_linear(self):
        w = 2e11
        full = bath_rate(PhononSpec(coupling_scale=1.0), w)
        quarter = bath_rate(PhononSpec(coupling_scale=0.25), w)
        assert quarter == pytest.approx(0.25 * full, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        spec = PhononSpec()
        w = np.array([-3e11, -1e10, -1e-310, 0.0, 1e-310, 1e10, 3e11])
        vec = bath_rate(spec, w)
        for i, wi in enumerate(w):
            assert vec[i] == bath_rate(spec, float(wi))


class TestSpecValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PhononSpec(r_e=0.0)
        with pytest.raises(ValueError):
            PhononSpec(temperature=-1.0)
        with pytest.raises(ValueError):
            PhononSpec(coupling_scale=-0.1)
