"""Batch execution over parameter grids.

Every figure-class result is a rectangular sweep of independent single-cell
simulations, and every sweep runs through the one executor ``run_sweep``;
the figure-class functions (power curves, laser- and cavity-detuning maps,
mode-splitting maps) only build its SweepSpec and add metadata.  Cells are
deterministic functions of the immutable RunConfig, so they may run in any
order and on any number of workers; results are gathered by cell index,
making the output independent of scheduling.
"""

import time
from dataclasses import dataclass, field as _dfield
from multiprocessing import get_context

import numpy as np

from . import __version__
from .config import SweepSpec, apply_override
from .dynamics import propagate, ringdown_grid
from .observables import beta_collection, figure_of_merit
from .pulses import intracavity_field_numeric, pulse_area


class SweepCellError(RuntimeError):
    """A cell simulation failed; the message carries its coordinates."""


@dataclass(frozen=True)
class SweepResult:
    axes: tuple  # ((path, values), ...) in row-major order
    values: np.ndarray = _dfield(repr=False)  # shape = axis lengths
    metadata: dict = _dfield(default_factory=dict)

    def __post_init__(self):
        shape = tuple(len(v) for _, v in self.axes)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != axes {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sweep produced non-finite cells")


def run_cell(config):
    """One full simulation: filtered field, propagation, figures of merit."""
    pulse = config.pulse()
    mode = config.excitation_mode()
    system = config.system()
    phonon = config.phonon()
    field = intracavity_field_numeric(pulse, mode, config.field_grid())
    grid = ringdown_grid(system, field, config.n_traj_points)
    traj = propagate(system, field, phonon, grid=grid, tol=config.tol, secular=config.secular)
    fom = figure_of_merit(traj, system)
    return fom, pulse_area(field), traj


def _cell_value(config, reduce_kind, amplitude_grid):
    if reduce_kind == "MaxOverAmplitude":
        best = 0.0
        for amp in amplitude_grid:
            fom, _, _ = run_cell(apply_override(config, "pulse.amplitude_pi", amp))
            best = max(best, fom.eta_c)
        return best
    fom, _, _ = run_cell(config)
    return fom.pi_e if reduce_kind == "PiE" else fom.eta_c


def _worker(args):
    idx, config, reduce_kind, amplitude_grid = args
    try:
        return idx, _cell_value(config, reduce_kind, amplitude_grid)
    except Exception as exc:  # re-raised with coordinates by the gatherer
        return idx, exc


def run_sweep(config, spec, workers=1):
    """Execute a SweepSpec and return a SweepResult.

    In a ``cavity_map`` both polarization modes shift together with the
    cavity: setting ``system.delta_omega_c_GHz`` also moves
    ``system.delta_omega_e_GHz``, keeping the config's offset between them.
    """
    axis1 = np.asarray(spec.axis1_values, dtype=float)
    axis2 = np.asarray(spec.axis2_values, dtype=float) if spec.axis2_path else None
    offset = config.delta_omega_e_GHz - config.delta_omega_c_GHz

    def override(cfg, path, value):
        cfg = apply_override(cfg, path, value)
        if spec.kind == "cavity_map" and path == "system.delta_omega_c_GHz":
            cfg = apply_override(cfg, "system.delta_omega_e_GHz", cfg.delta_omega_c_GHz + offset)
        return cfg

    cells = []
    if axis2 is None:
        for i, v1 in enumerate(axis1):
            cells.append(((i,), override(config, spec.axis1_path, v1)))
        shape = (len(axis1),)
    else:
        for i, v1 in enumerate(axis1):
            cfg1 = override(config, spec.axis1_path, v1)
            for j, v2 in enumerate(axis2):
                cells.append(((i, j), override(cfg1, spec.axis2_path, v2)))
        shape = (len(axis1), len(axis2))

    t0 = time.monotonic()
    values = np.full(shape, np.nan)
    jobs = [(idx, cfg, spec.reduce, spec.amplitude_grid) for idx, cfg in cells]
    if workers > 1:
        with get_context("spawn").Pool(workers) as pool:
            results = pool.map(_worker, jobs)
    else:
        results = map(_worker, jobs)
    for idx, val in results:
        if isinstance(val, Exception):
            raise SweepCellError(f"cell {idx} failed: {val}") from val
        values[idx] = val

    axes = [(spec.axis1_path, tuple(axis1))]
    if axis2 is not None:
        axes.append((spec.axis2_path, tuple(axis2)))
    meta = {
        "config_hash": config.hash(),
        "version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "kind": spec.kind,
        "reduce": spec.reduce,
    }
    return SweepResult(tuple(axes), values, meta)


# convenience wrappers for the figure classes ---------------------------

def power_sweep(config, amplitudes_pi, workers=1):
    """pi_e (and eta_c via beta_c) versus input pulse area."""
    spec = SweepSpec(
        kind="power",
        axis1_path="pulse.amplitude_pi",
        axis1_values=tuple(amplitudes_pi),
        reduce="PiE",
    )
    res = run_sweep(config, spec, workers)
    beta = beta_collection(config.system())
    res.metadata["beta_c"] = beta
    res.metadata["eta_c"] = tuple(beta * res.values)
    # the filtered field is linear in the input amplitude: one build at
    # unit area gives every row's intra-cavity area
    unit = apply_override(config, "pulse.amplitude_pi", 1.0)
    field = intracavity_field_numeric(unit.pulse(), unit.excitation_mode(), unit.field_grid())
    area = pulse_area(field)
    res.metadata["intracavity_area_pi"] = tuple(area * float(amp) for amp in amplitudes_pi)
    return res


def detuning_amplitude_map(config, laser_detunings_GHz, amplitudes_pi, workers=1):
    """pi_e over (laser detuning x amplitude); metadata carries row maxima."""
    spec = SweepSpec(
        kind="detuning_map",
        axis1_path="pulse.delta_omega_L_GHz",
        axis1_values=tuple(laser_detunings_GHz),
        axis2_path="pulse.amplitude_pi",
        axis2_values=tuple(amplitudes_pi),
        reduce="PiE",
    )
    res = run_sweep(config, spec, workers)
    res.metadata["row_maxima"] = tuple(res.values.max(axis=1))
    return res


def modesplit_map(config, splittings_GHz, laser_detunings_GHz, amplitude_grid_pi, workers=1):
    """eta_c maximized over amplitude per (mode splitting x laser detuning)."""
    spec = SweepSpec(
        kind="modesplit_map",
        axis1_path="system.delta_omega_e_GHz",
        axis1_values=tuple(splittings_GHz),
        axis2_path="pulse.delta_omega_L_GHz",
        axis2_values=tuple(laser_detunings_GHz),
        reduce="MaxOverAmplitude",
        amplitude_grid=tuple(amplitude_grid_pi),
    )
    return run_sweep(config, spec, workers)


def cavity_detuning_map(config, cavity_detunings_GHz, amplitudes_pi, workers=1):
    """eta_c over (cavity detuning x amplitude) at fixed laser detuning.

    Detuning the cavity moves both polarization modes together: the
    excitation mode keeps its configured offset from the collection mode.
    """
    spec = SweepSpec(
        kind="cavity_map",
        axis1_path="system.delta_omega_c_GHz",
        axis1_values=tuple(cavity_detunings_GHz),
        axis2_path="pulse.amplitude_pi",
        axis2_values=tuple(amplitudes_pi),
        reduce="EtaC",
    )
    return run_sweep(config, spec, workers)


def fock_convergence(config, delta_tol=1e-4):
    """Re-run one representative cell with n_max + 2; report the pi_e shift."""
    fom_a, _, _ = run_cell(config)
    cfg_b = apply_override(config, "solver.n_max", config.n_max + 2)
    fom_b, _, _ = run_cell(cfg_b)
    delta = abs(fom_b.pi_e - fom_a.pi_e)
    return {
        "n_max": config.n_max,
        "n_max_check": config.n_max + 2,
        "pi_e": fom_a.pi_e,
        "pi_e_check": fom_b.pi_e,
        "delta": delta,
        "converged": bool(delta < delta_tol),
    }
