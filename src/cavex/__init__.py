"""Simulator for cavity-filtered picosecond excitation of a two-level emitter.

The package models a two-level emitter coupled to one quantized cavity mode
(the collection mode) and driven classically by the intra-cavity field of a
second, frequency-split mode (the excitation mode).  It provides:

- closed-form and numerical construction of the cavity-filtered drive field,
- Lindblad + Bloch-Redfield master-equation propagation with an acoustic
  phonon bath,
- figures of merit (population inversion, collection branching, photon
  creation efficiency),
- parameter-sweep machinery and a command line interface.
"""

import os

# one BLAS thread: no matrix in cavex is larger than 65x65, and threaded
# products stall when sweep workers share the cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .specfun import gauss_2f1_11, sech
from .pulses import (
    PulseSpec,
    CavityModeSpec,
    TimeGrid,
    IntracavityField,
    input_envelope,
    cavity_impulse_response,
    intracavity_field_analytic,
    intracavity_field_numeric,
    pulse_area,
    finesse_enhancement,
    default_field_grid,
)
from .qcore import HilbertSpec, annihilation, sigma_minus, expectation, partial_trace_tls
from .phonons import PhononSpec, spectral_density, thermal_occupation, bath_rate
from .dynamics import SystemSpec, Trajectory, hamiltonian_at, propagate
from .observables import (
    FigureOfMerit,
    purcell_rate,
    purcell_factor,
    beta_collection,
    bloch_trajectory,
    figure_of_merit,
)
from .config import (
    RunConfig,
    SweepSpec,
    ConfigError,
    load_config,
    load_sweep,
    apply_override,
    blue_case,
    red_case,
)
from .sweeps import (
    SweepResult,
    run_cell,
    run_sweep,
    power_sweep,
    detuning_amplitude_map,
    modesplit_map,
    cavity_detuning_map,
    fock_convergence,
)
