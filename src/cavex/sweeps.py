"""Batch execution over parameter grids.

Every figure-class result is a rectangular sweep of independent single-cell
simulations.  Every sweep, whether a ``cavex sweep`` recipe or a Python
call, runs through the one executor ``run_sweep``, which honours the spec's
axis paths and reduction and derives the metadata from the spec alone.  The
figure-class functions (power curves, laser- and cavity-detuning maps,
mode-splitting maps) only build a SweepSpec for it.

A job is a block: consecutive cells (in row-major order) on one Hilbert
space, at most ROW_CELLS of them on at most ROW_SYSTEMS systems.  They share
the Hilbert space, the phonon map, the tolerance and the grids
(``_block_key``) and may differ in the drive (the amplitude, the laser
detuning, the excitation mode's detuning, the pulse shape and chirp) and in
the system (the cavity detuning, g, kappa, gamma_bg): each cell runs under
its own generator.  The filtered field is linear in the amplitude, so a
block builds one field at unit amplitude per distinct (pulse, excitation
mode), stacks them as the columns of one field, and ``propagate`` integrates
its cells together, each under its own column and system.
A job keeps only each cell's pi_e or eta_c, so it stores no samples: the
block is propagated on the two ends of its drive window, which every system
shares.  Each cell keeps
its own steps, so its value is bit for bit that of ``run_cell``, whatever
block it is in.  Cells are deterministic functions of the immutable
RunConfig, so the blocks may run in any order and on any number of workers;
results are gathered by cell index, making the output independent of
scheduling.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass, field as _dfield, replace
from functools import partial

import numpy as np

from . import __version__
from .config import SweepSpec, apply_override
from .dynamics import propagate, ringdown_grid
from .observables import beta_collection, figure_of_merit
from .pulses import IntracavityField, TimeGrid, intracavity_field_numeric, pulse_area

FOCK_TOL = 1e-4  # the largest pi_e shift from n_max to n_max + 2 that counts as converged
# the most cells one job integrates together.  Full fig4 (6300 phonon cells)
# through `cavex sweep --workers 2`, 2 vCPU, BLAS pinned, wall s and the
# largest worker's peak RSS, one session: 27.8-32.8 at 32 (five runs,
# 47.5-48.1 MB), 31.5 and 33.4 at 64 (54.2 MB), 27.0 and 30.8 at 128
# (66.5-68.1 MB): past 32 a larger cap no longer pays.  A job's tracemalloc
# peak grows with its distinct fields (about 0.75 MB each at 8192 points: its
# column of the stack, of the cubic and of the cubic build): 32 phonon cells
# at 12 pi on 32 fields and one system peak at 25.9 MB.
ROW_CELLS = 32
# the most distinct systems one job holds.  A job's peak grows with them too
# (a generator's dense terms, 0.2 MB, and a Redfield table with its build):
# 32 phonon cells at 12 pi on one field peak at 16.1 MB on 8 systems and 62.0
# on 32; 32 fields on 8 systems, the worst job the two bounds allow, at 39.2.
# No shipped recipe puts more than two systems in a job, and 8 keeps a
# cavity-detuning row (a system per detuning, the amplitude innermost) in one.
ROW_SYSTEMS = 8


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


def _run_row(configs, sampled=True):
    """A block of cells with one ``_block_key``, simulated together: one field
    build at unit amplitude per distinct (pulse, excitation mode) and one
    propagate call, each cell under its own system.  A sampled block is
    propagated on the ring-down grid of its first cell's system, at its
    n_traj_points; a sample-free one on the two ends of the drive window,
    which every system shares.  Returns the (fom, intra-cavity area, traj)
    of each cell, its fom under its own system (beta_c reads the excitation
    mode).  A field that cannot be built fails the first cell that reads it,
    once the cells before that one have run: one of them may fail first."""
    fields, column, columns = [], {}, []  # the distinct fields; (pulse, mode) -> index; each cell's index
    for k, config in enumerate(configs):
        unit = replace(config, amplitude_pi=1.0)
        key = (unit.pulse(), unit.excitation_mode())
        if key not in column:
            try:
                fields.append(intracavity_field_numeric(*key, unit.field_grid()))
            except ValueError as exc:  # a GridResolutionError
                if k:
                    _run_row(configs[:k], sampled)
                exc.cell = k
                raise
            column[key] = len(column)
        columns.append(column[key])
    field = IntracavityField(fields[0].grid, np.hstack([f.envelope for f in fields]))
    fields.clear()  # the stack, a column each, replaces them
    areas = pulse_area(field)
    systems = [_generator_system(config) for config in configs]
    first = configs[0]
    if sampled:
        grid = ringdown_grid(systems[0], field, first.n_traj_points)
    else:
        grid = TimeGrid(field.grid.t_start, field.grid.t_end, 2)
    amps = tuple(config.amplitude_pi for config in configs)
    block = propagate(systems, field, first.phonon(), grid=grid, tol=first.tol, amplitudes=amps, columns=columns)
    return [(figure_of_merit(traj, config.system()), areas[traj.column] * traj.amplitude, traj)
            for config, traj in zip(configs, block.cells)]


def _row_values(configs, reduce_kind):
    """The (value, intra-cavity area) of each cell of a block job: its pi_e
    or eta_c.  A sweep keeps no samples, so the block is sample-free."""
    value = "pi_e" if reduce_kind == "PiE" else "eta_c"
    return tuple((getattr(fom, value), area) for fom, area, _ in _run_row(configs, False))


def _generator_system(config):
    """The system of a cell's generator: the excitation mode's detuning
    reaches the field and beta_c alone, so cells that differ in it share one."""
    return replace(config.system(), delta_omega_e=0.0)


def _block_key(config):
    """What the cells of one job share: the Hilbert space, the phonon map,
    the tolerance, and the field and output grids.  Their systems may differ:
    each cell runs under its own generator."""
    try:
        return config.system().hilbert, config.phonon(), config.tol, config.field_grid(), config.n_traj_points
    except ValueError:  # an invalid spec: the cell is a job of its own, which fails naming it
        return object()


def _rows(cells, jobs=1):
    """The jobs: runs of consecutive cells with one ``_block_key`` and at most
    ROW_SYSTEMS distinct systems, each split into near-equal parts of at most
    ROW_CELLS cells, and the largest parts split further until there are at
    least `jobs` of them (or one per cell)."""
    runs, last, systems = [], None, set()  # systems: the distinct ones of the last run, once it has two cells
    for config in cells:
        key = _block_key(config)
        if runs and key == last:  # a valid spec
            system = _generator_system(config)
            systems = systems or {_generator_system(runs[-1][0])}
            if system in systems or len(systems) < ROW_SYSTEMS:
                runs[-1].append(config)
                systems.add(system)
                continue
            systems = {system}
        else:
            systems = set()
        runs.append([config])
        last = key
    parts = [-(-len(run) // ROW_CELLS) for run in runs]
    while sum(parts) < min(jobs, len(cells)):
        k = max(range(len(runs)), key=lambda k: len(runs[k]) / parts[k])
        parts[k] += 1
    out = []
    for run, n in zip(runs, parts):
        bounds = [len(run) * i // n for i in range(n + 1)]
        out += [tuple(run[a:b]) for a, b in zip(bounds, bounds[1:])]
    return out


def run_sweep(config, spec, workers=1):
    """Execute a SweepSpec and return a SweepResult.

    Every job is one block of cells (see the module docstring); with
    several workers the sweep is cut into at least two jobs per worker, so
    the cores stay busy.  ``MaxOverAmplitude`` runs its ``amplitude_grid``
    as a last axis of ``EtaC`` cells and keeps the maximum.  The first
    failed cell in row-major order stops the sweep; a dead worker fails its
    block's first cell.

    In a ``cavity_map`` both polarization modes shift together with the
    cavity: setting ``system.delta_omega_c_GHz`` also moves
    ``system.delta_omega_e_GHz``, keeping the config's offset between them.

    The metadata follows the spec: a power curve (one axis,
    ``pulse.amplitude_pi``, reduced to ``PiE``) adds ``beta_c``, ``eta_c``
    and the intra-cavity area that each cell's block job reports; a
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
    jobs = _rows(cells, 2 * workers if workers > 1 else 1)
    job = partial(_row_values, reduce_kind=reduce_kind)
    # a dead worker breaks the executor: its cells fail, none is respawned
    executor = nullcontext()
    if workers > 1:  # imported here: a serial sweep's interpreter skips about 15 ms of imports
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        executor = ProcessPoolExecutor(workers, mp_context=get_context("spawn"))
    with executor as pool:
        results = pool.map(job, jobs) if pool else map(job, jobs)
        start = 0
        for block in jobs:
            try:
                cell_out[start : start + len(block)] = next(results)
            except Exception as exc:
                if pool:  # stop the running blocks, cancel those not yet started
                    for proc in pool._processes.values():
                        proc.terminate()
                    pool.shutdown(cancel_futures=True)
                # a PropagationError, or a field that cannot be built, names the failing cell of its block
                idx = tuple(int(i) for i in np.unravel_index(start + getattr(exc, "cell", 0), shape))
                raise SweepCellError(f"cell {idx} failed: {exc}") from exc
            start += len(block)
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
    Both cells run as sample-free jobs: only their pi_e is read."""
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
