# cavex pins the BLAS threads only if it is imported before numpy, so the
# tests run with one BLAS thread, as the command line and the benchmark do
import cavex  # noqa: F401

import pytest

from cavex import dynamics


@pytest.fixture
def leaky_generator(monkeypatch):
    """Make propagate build a Generator whose rho_00 grows at 1e3 / s, so
    that the trace drifts by about 1e-6 over a blue-case cell."""

    class Leaky(dynamics.Generator):
        def __init__(self, system):
            super().__init__(system)
            self.terms[0, 0] += 1e3

    monkeypatch.setattr(dynamics, "Generator", Leaky)
