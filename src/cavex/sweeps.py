"""Batch execution over parameter grids.

Every figure-class result is a rectangular sweep of independent single-cell
simulations.  Every sweep, whether a ``cavex sweep`` recipe or a Python
call, runs through the one executor ``run_sweep``, which honours the spec's
axis paths and reduction and derives the metadata from the spec alone.  The
figure-class functions (power curves, laser- and cavity-detuning maps,
mode-splitting maps) only build a SweepSpec for it.

A job is a row: consecutive cells (in row-major order) that differ only in
``pulse.amplitude_pi``, at most ROW_CELLS of them.  The filtered field is
linear in the amplitude, so a row builds its field once at unit amplitude
and ``propagate`` integrates its cells together.  A job keeps only each
cell's pi_e or eta_c, so it stores no samples: the row is propagated on the
two ends of its ring-down grid.  Each cell keeps its own steps, so its value
is bit for bit that of ``run_cell``, whatever row it is in.  Cells are
deterministic functions of the immutable RunConfig, so the rows may run in
any order and on any number of workers; results are gathered by cell index,
making the output independent of scheduling.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as _dfield, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from . import __version__
from .config import SweepSpec, apply_override
from .dynamics import propagate, ringdown_grid
from .observables import beta_collection, figure_of_merit
from .pulses import intracavity_field_numeric, pulse_area

FOCK_TOL = 1e-4  # the largest pi_e shift from n_max to n_max + 2 that counts as converged
# the most cells one job integrates together.  A cell added 2.8 MB to a job's
# peak when the cap was set (2000 samples of states, Redfield table, scaled
# field); with no samples, one shared field and one Redfield table per job,
# fig2c row jobs of 1, 2 and 8 cells holding the 12 pi cell peak at 1.86,
# 1.86 and 1.88 MB (tracemalloc), mostly the table build on top of the field.
# The cap was set, and not measured since, on the full fig2c and fig3a
# recipes (2 workers, 2 vCPU): caps 6 to 13 took the same wall time within
# the runs' spread, and 8 was the largest cap whose peak RSS stayed within
# 2 % of the code it replaced; 10 reached +10 % and 13 +18 %.
ROW_CELLS = 8


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
    return _run_row((config,))[0]


def _run_row(configs, n_points=None):
    """Cells that differ only in pulse.amplitude_pi, simulated together: one
    field build at unit amplitude and one propagate call, on the ring-down
    grid of n_points samples (default: the first config's n_traj_points).
    Returns the (fom, intra-cavity area, traj) of each cell."""
    unit = replace(configs[0], amplitude_pi=1.0)
    system = unit.system()
    field = intracavity_field_numeric(unit.pulse(), unit.excitation_mode(), unit.field_grid())
    grid = ringdown_grid(system, field, n_points or unit.n_traj_points)
    amps = tuple(config.amplitude_pi for config in configs)
    row = propagate(system, field, unit.phonon(), grid=grid, tol=unit.tol, amplitudes=amps)
    area = pulse_area(field)
    return [(figure_of_merit(traj, system), area * traj.amplitude, traj) for traj in row.cells]


def _row_values(configs, reduce_kind):
    """The (value, intra-cavity area) of each cell of a row job: its pi_e
    or eta_c.  A sweep keeps no samples, so the row is propagated on the
    two ends of its ring-down grid."""
    value = "pi_e" if reduce_kind == "PiE" else "eta_c"
    return tuple((getattr(fom, value), area) for fom, area, _ in _run_row(configs, 2))


def _rows(cells):
    """The jobs: runs of consecutive cells that differ only in the amplitude,
    each split into near-equal parts of at most ROW_CELLS cells."""
    runs = []
    for config in cells:
        if runs and replace(config, amplitude_pi=runs[-1][0].amplitude_pi) == runs[-1][0]:
            runs[-1].append(config)
        else:
            runs.append([config])
    jobs = []
    for run in runs:
        parts = -(-len(run) // ROW_CELLS)
        bounds = [len(run) * i // parts for i in range(parts + 1)]
        jobs += [tuple(run[a:b]) for a, b in zip(bounds, bounds[1:])]
    return jobs


def run_sweep(config, spec, workers=1):
    """Execute a SweepSpec and return a SweepResult.

    Every job is one row of cells (see the module docstring);
    ``MaxOverAmplitude`` runs its ``amplitude_grid`` as a last axis of
    ``EtaC`` cells and keeps the maximum.  The first failed cell in
    row-major order stops the sweep; a dead worker fails its row's first cell.

    In a ``cavity_map`` both polarization modes shift together with the
    cavity: setting ``system.delta_omega_c_GHz`` also moves
    ``system.delta_omega_e_GHz``, keeping the config's offset between them.

    The metadata follows the spec: a power curve (one axis,
    ``pulse.amplitude_pi``, reduced to ``PiE``) adds ``beta_c``, ``eta_c``
    and the intra-cavity area that each cell's row job reports; a
    ``detuning_map`` adds the maximum over each row of its first axis.
    """
    axes = spec.axes
    cell_axes, reduce_kind = axes, spec.reduce
    if spec.reduce == "MaxOverAmplitude":
        cell_axes += (("pulse.amplitude_pi", spec.amplitude_grid),)
        reduce_kind = "EtaC"
    offset = config.delta_omega_e_GHz - config.delta_omega_c_GHz

    def override(cfg, path, value):
        cfg = apply_override(cfg, path, value)
        if spec.kind == "cavity_map" and path == "system.delta_omega_c_GHz":
            cfg = apply_override(cfg, "system.delta_omega_e_GHz", cfg.delta_omega_c_GHz + offset)
        return cfg

    # every cell's config, in row-major order
    cells = [config]
    for path, points in cell_axes:
        cells = [override(cfg, path, v) for cfg in cells for v in points]
    shape = tuple(len(points) for _, points in cell_axes)

    t0 = time.monotonic()
    cell_out = np.full((len(cells), 2), np.nan)  # each cell's (value, intra-cavity area)
    jobs = _rows(cells)
    job = partial(_row_values, reduce_kind=reduce_kind)
    # a dead worker breaks the executor: its cells fail, none is respawned
    spawn = get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) if workers > 1 else nullcontext() as pool:
        results = pool.map(job, jobs) if pool else map(job, jobs)
        start = 0
        for row in jobs:
            try:
                cell_out[start : start + len(row)] = next(results)
            except Exception as exc:
                if pool:  # stop the running rows, cancel those not yet started
                    for proc in pool._processes.values():
                        proc.terminate()
                    pool.shutdown(cancel_futures=True)
                # a PropagationError names the failing cell of its row
                idx = tuple(int(i) for i in np.unravel_index(start + getattr(exc, "cell", 0), shape))
                raise SweepCellError(f"cell {idx} failed: {exc}") from exc
            start += len(row)
    values, areas = cell_out.T
    values = values.reshape(shape)
    if spec.reduce == "MaxOverAmplitude":
        values = values.max(axis=-1)

    meta = {
        "config_hash": config.hash(),
        "version": __version__,
        "wall_time_s": time.monotonic() - t0,
        "kind": spec.kind,
        "reduce": spec.reduce,
    }
    if [path for path, _ in axes] == ["pulse.amplitude_pi"] and spec.reduce == "PiE":
        beta = beta_collection(config.system())
        meta.update(beta_c=beta, eta_c=tuple(beta * values), intracavity_area_pi=tuple(areas.tolist()))
    if spec.kind == "detuning_map":
        meta["row_maxima"] = tuple(values.reshape(len(values), -1).max(axis=1))
    return SweepResult(axes, values, meta)


# SweepSpec builders for the figure classes ------------------------------

def power_sweep(config, amplitudes_pi, workers=1):
    """pi_e (and eta_c via beta_c) versus input pulse area."""
    spec = SweepSpec(
        kind="power",
        axis1_path="pulse.amplitude_pi",
        axis1_values=tuple(amplitudes_pi),
        reduce="PiE",
    )
    return run_sweep(config, spec, workers)


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
    return run_sweep(config, spec, workers)


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


def fock_convergence(config):
    """Re-run one representative cell with n_max + 2; report the pi_e shift.
    Both cells run as sample-free row jobs: only their pi_e is read."""
    ((pi_e, _),) = _row_values((config,), "PiE")
    ((pi_e_check, _),) = _row_values((apply_override(config, "solver.n_max", config.n_max + 2),), "PiE")
    delta = abs(pi_e_check - pi_e)
    return {
        "n_max": config.n_max,
        "n_max_check": config.n_max + 2,
        "pi_e": pi_e,
        "pi_e_check": pi_e_check,
        "delta": delta,
        "converged": bool(delta < FOCK_TOL),
    }
