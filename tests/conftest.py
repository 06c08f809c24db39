# cavex pins the BLAS threads only if it is imported before numpy, so the
# tests run with one BLAS thread, as the command line and the benchmark do
import cavex  # noqa: F401

import pytest
from hypothesis import settings

# property tests draw the same examples on every run and keep no example
# database, so a run's result does not depend on the runs before it
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

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
