"""Command line interface.

Subcommands: simulate (one trajectory), bloch (mechanism comparison over
pulse areas), sweep (figure-recipe grids), convergence (Fock-truncation
check).  ``sweep`` hands the recipe's [sweep] section to ``run_sweep`` as
written and alone takes ``--workers``.  All quantities are written in
experimental conventions: times in ps, frequencies in GHz (omega / 2 pi),
pulse areas in units of pi.

Exit codes: 0 success, 1 numerical failure, 2 validation failure.  A failed
sweep cell exits with the code of the error that made it fail.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config, load_sweep
from .dynamics import PropagationError, propagate
from .observables import bloch_trajectory
from .pulses import IntracavityField, TimeGrid, input_envelope, intracavity_field_numeric
from .sweeps import SweepCellError, fock_convergence, run_cell, run_sweep

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2


def _write_csv(path, header, rows):
    """One row per line, scientific notation with 9 significant digits."""
    np.savetxt(path, rows, fmt="%.8e", delimiter=",", header=",".join(header), comments="")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trajectory_rows(traj, bloch):
    """The (n, 8) array of TRAJECTORY_HEADER columns; bloch is the trajectory's
    Bloch series."""
    times = traj.grid.times
    env = np.array([traj.field.at(t) for t in times], dtype=complex)
    return np.column_stack(
        [times * 1e12, traj.excited_pop, traj.photon_number, bloch, env.real, env.imag]
    )


TRAJECTORY_HEADER = ("t_ps", "rho_ee", "photon_number", "sx", "sy", "sz", "field_re", "field_im")


def cmd_simulate(config, out_dir, formats):
    fom, area_pi, traj = run_cell(config)
    if "csv" in formats:
        bloch = bloch_trajectory(traj, config.system().hilbert)
        _write_csv(out_dir / "trajectory.csv", TRAJECTORY_HEADER, _trajectory_rows(traj, bloch))
    if "json" in formats:
        _write_json(
            out_dir / "summary.json",
            {
                "pi_e": fom.pi_e,
                "beta_c": fom.beta_c,
                "eta_c": fom.eta_c,
                "pulse_area_pi": area_pi,
                "max_rho_ee": fom.max_excited_pop,
                "config_hash": config.hash(),
                "version": __version__,
            },
        )
    print(f"pi_e={fom.pi_e:.6f} beta_c={fom.beta_c:.6f} eta_c={fom.eta_c:.6f}")
    return EXIT_OK


def _mechanism_config(config, mechanism):
    if mechanism == "Resonant":
        return replace(config, pulse_shape="Gaussian", delta_omega_L_GHz=0.0, chirp_rate_ps2=0.0)
    if mechanism == "Chirped":
        if config.chirp_rate_ps2 == 0.0:
            raise ConfigError("pulse.chirp_rate_ps2: Chirped mechanism requires a nonzero chirp")
        # while the chirp sweeps through resonance the non-secular rates are
        # ill-conditioned (the dressed splitting crosses zero); the secular
        # rate-equation form is the controlled limit there
        return replace(
            config, pulse_shape="ChirpedGaussian", delta_omega_L_GHz=0.0, secular=True
        )
    return config  # CavityFiltered: standard filtered path


def _bloch_field(config, mechanism):
    """Drive field for one mechanism: cavity-filtered for CavityFiltered,
    the bare input envelope otherwise (free-space drive)."""
    pulse = config.pulse()
    mode = config.excitation_mode()
    grid = config.field_grid()
    if mechanism == "CavityFiltered":
        return intracavity_field_numeric(pulse, mode, grid)
    return IntracavityField(grid, input_envelope(pulse, grid.times))


def cmd_bloch(config, mechanism, areas_pi, out_dir, formats):
    config = _mechanism_config(config, mechanism)
    # the comparison concerns the driven emitter itself; the collection
    # mode only filters the drive, so its coupling is made negligible
    system = replace(config, g_GHz=1e-6).system()
    phonon = config.phonon()
    endpoints = []
    for area in areas_pi:
        cfg = replace(config, amplitude_pi=float(area))
        field = _bloch_field(cfg, mechanism)
        # stop at the end of the pulse window: the Bloch picture describes
        # the state the pulse prepares, before the slow cavity emission
        grid = TimeGrid(field.grid.t_start, field.grid.t_end, cfg.n_traj_points)
        traj = propagate(system, field, phonon, grid=grid, tol=cfg.tol, secular=cfg.secular)
        bloch = bloch_trajectory(traj, system.hilbert)
        tag = f"{mechanism.lower()}_area{area:g}pi"
        if "csv" in formats:
            rows = _trajectory_rows(traj, bloch)
            _write_csv(out_dir / f"bloch_{tag}.csv", TRAJECTORY_HEADER, rows)
        endpoints.append(
            {
                "area_pi": float(area),
                "sx": float(bloch[-1, 0]),
                "sy": float(bloch[-1, 1]),
                "sz": float(bloch[-1, 2]),
                "rho_ee": float(traj.excited_pop[-1]),
            }
        )
    if "json" in formats:
        _write_json(
            out_dir / f"bloch_{mechanism.lower()}_endpoints.json",
            {"mechanism": mechanism, "endpoints": endpoints, "version": __version__},
        )
    for ep in endpoints:
        print(f"area={ep['area_pi']:g}pi rho_ee={ep['rho_ee']:.6f}")
    return EXIT_OK


def cmd_sweep(config, spec, out_dir, formats, workers):
    result = run_sweep(config, spec, workers)
    if "csv" in formats:
        header = tuple(path for path, _ in result.axes) + ("value",)
        points = np.meshgrid(*(values for _, values in result.axes), indexing="ij")
        rows = np.column_stack([p.ravel() for p in points] + [result.values.ravel()])
        _write_csv(out_dir / "map.csv", header, rows)
    if "json" in formats:
        meta = dict(result.metadata)
        meta["axes"] = [{"path": p, "values": list(v)} for p, v in result.axes]
        _write_json(out_dir / "map.json", meta)
    print(
        f"sweep {result.metadata['kind']}: {result.values.size} cells, "
        f"max={result.values.max():.6f}, wall={result.metadata['wall_time_s']:.1f}s"
    )
    return EXIT_OK


def cmd_convergence(config, out_dir, formats):
    report = fock_convergence(config)
    if "json" in formats:
        _write_json(out_dir / "convergence.json", report)
    print(
        f"n_max={report['n_max']} vs {report['n_max_check']}: "
        f"|delta pi_e| = {report['delta']:.2e}"
    )
    if not report["converged"]:
        print(f"error: pi_e not converged at n_max={report['n_max']}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def seed_check(config):
    """Debug dump: rerun a small cell twice and verify bitwise determinism."""
    small = replace(config, amplitude_pi=min(config.amplitude_pi, 2.0), n_traj_points=200)
    fom_a, area_a, traj_a = run_cell(small)
    fom_b, area_b, traj_b = run_cell(small)
    identical = bool(
        fom_a.pi_e == fom_b.pi_e
        and area_a == area_b
        and np.array_equal(traj_a.states, traj_b.states)
    )
    print(f"config_hash={small.hash()}")
    print(f"pi_e={fom_a.pi_e:.8e} pulse_area_pi={area_a:.8e}")
    print(f"deterministic={identical}")
    return EXIT_OK if identical else EXIT_NUMERICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cavex",
        description="Cavity-filtered picosecond excitation of a two-level emitter.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="INI configuration file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            action="append",
            dest="formats",
            help="restrict output formats (repeatable; default: both)",
        )
        p.add_argument(
            "--seed-check",
            action="store_true",
            help="debug: verify bitwise determinism of a small cell, then exit",
        )

    common(sub.add_parser("simulate", help="run one trajectory"))
    p_bloch = sub.add_parser("bloch", help="mechanism comparison over pulse areas")
    common(p_bloch)
    p_bloch.add_argument(
        "--mechanism",
        choices=("Resonant", "Chirped", "CavityFiltered"),
        default="CavityFiltered",
    )
    p_bloch.add_argument(
        "--areas",
        type=float,
        nargs="+",
        default=[0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0],
        help="input pulse areas in units of pi",
    )
    p_sweep = sub.add_parser("sweep", help="run the [sweep] recipe in the config file")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
    common(sub.add_parser("convergence", help="Fock-truncation convergence check"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        if args.seed_check:
            return seed_check(config)
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)
        formats = tuple(args.formats) if args.formats else ("csv", "json")
        if args.command == "simulate":
            return cmd_simulate(config, out_dir, formats)
        if args.command == "bloch":
            return cmd_bloch(config, args.mechanism, args.areas, out_dir, formats)
        if args.command == "sweep":
            if not args.config:
                raise ConfigError("sweep: --config with a [sweep] section is required")
            if args.workers < 1:
                raise ConfigError(f"--workers: must be at least 1, got {args.workers}")
            spec = load_sweep(args.config)
            return cmd_sweep(config, spec, out_dir, formats, args.workers)
        if args.command == "convergence":
            return cmd_convergence(config, out_dir, formats)
        raise AssertionError(f"unhandled command {args.command}")
    except (PropagationError, SweepCellError, ArithmeticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def _exit_code(exc):
    """Numerical or validation failure; a failed sweep cell is classified
    by the error that made it fail."""
    if isinstance(exc, SweepCellError):
        exc = exc.__cause__
    numerical = isinstance(exc, np.linalg.LinAlgError)  # a ValueError too
    return EXIT_VALIDATION if isinstance(exc, ValueError) and not numerical else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
