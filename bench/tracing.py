"""Per-layer tracing of cavex from outside the package.

``Tracer.install()`` replaces public functions and module attributes of
cavex with timing wrappers; ``uninstall()`` puts the originals back.  Each
wrapper opens a span: its duration counts toward its key, and toward the
child time of the span that encloses it, so a key's self time is its
duration minus that of the spans it encloses.  Spans live in memory only.
"""

import os
from collections import defaultdict
from time import perf_counter

from cavex import cli, config, dynamics, observables, pulses, sweeps

SWEEP_EXECUTORS = (
    "power_sweep",
    "detuning_amplitude_map",
    "modesplit_map",
    "cavity_detuning_map",
    "run_sweep",
    "run_cell",
)


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.stack = []  # child time of each open span
        self.patches = []
        self.pulse_end = None  # field.grid.t_end of the cell being propagated
        self.rhs_pulse = 0
        self.rhs_tail = 0
        self.states_bytes = 0
        self.bytes_written = 0

    def timed(self, key, fn, after=None):
        def wrapper(*args, **kwargs):
            self.stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self.stack.pop()
                self.total[key] += dur
                self.self_time[key] += dur - child
                self.calls[key] += 1
                if self.stack:
                    self.stack[-1] += dur
            return after(args, out) if after else out

        return wrapper

    def _wrap(self, owner, name, factory):
        original = getattr(owner, name)
        self.patches.append((owner, name, original))
        setattr(owner, name, factory(original))

    def _patch(self, owner, name, key, after=None):
        self._wrap(owner, name, lambda fn: self.timed(key, fn, after))

    def _propagate(self, fn):
        timed = self.timed("dynamics.propagate", fn)

        def wrapper(system, field, *args, **kwargs):
            self.pulse_end = field.grid.t_end
            traj = timed(system, field, *args, **kwargs)
            self.states_bytes += traj.states.nbytes
            return traj

        return wrapper

    def _solve_ivp(self, fn):
        def wrapper(fun, *args, **kwargs):
            rhs = self.timed("dynamics.rhs", fun)
            pulse_end = self.pulse_end

            def counted(t, y):
                if t <= pulse_end:
                    self.rhs_pulse += 1
                else:
                    self.rhs_tail += 1
                return rhs(t, y)

            return fn(counted, *args, **kwargs)

        return wrapper

    def _written(self, args, out):
        self.bytes_written += os.path.getsize(args[0])
        return out

    def install(self):
        for name in SWEEP_EXECUTORS:
            self._patch(sweeps, name, "sweeps")
        self._patch(cli, "run_cell", "sweeps")
        for owner in (sweeps, cli):
            self._patch(owner, "intracavity_field_numeric", "pulses.field_build")
            self._wrap(owner, "propagate", self._propagate)
        self._patch(pulses.IntracavityField, "at", "pulses.field_at")
        self._wrap(dynamics, "solve_ivp", self._solve_ivp)
        self._patch(dynamics, "hamiltonian_at", "dynamics.hamiltonian")
        self._patch(
            dynamics,
            "redfield_dissipator",
            "dynamics.redfield_build",
            after=lambda args, apply: self.timed("dynamics.redfield_apply", apply),
        )
        self._patch(dynamics, "bath_rate", "phonons.bath_rate")
        self._patch(sweeps, "figure_of_merit", "observables.fom")
        self._patch(cli, "bloch_trajectory", "observables.bloch")
        self._patch(observables, "partial_trace_tls", "qcore.partial_trace")
        self._patch(cli, "_write_csv", "cli.write", after=self._written)
        self._patch(cli, "_write_json", "cli.write", after=self._written)
        self._patch(sweeps, "apply_override", "config.apply_override")
        self._patch(config, "apply_override", "config.apply_override")

    def uninstall(self):
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)

    def metrics(self, cells):
        """Per-layer figures of a traced run over the given number of cells."""
        t, n = self.total, self.calls
        rhs_calls = n["dynamics.rhs"]
        per_cell = {
            "sweeps.self_s": (self.self_time["sweeps"], "s/cell"),
            "pulses.field_builds_per_cell": (n["pulses.field_build"], "count/cell"),
            "pulses.field_build_s": (t["pulses.field_build"], "s/cell"),
            "pulses.field_at_calls": (n["pulses.field_at"], "count/cell"),
            "pulses.field_at_s": (t["pulses.field_at"], "s/cell"),
            "dynamics.propagate_s": (t["dynamics.propagate"], "s/cell"),
            "dynamics.rhs_calls_per_cell": (rhs_calls, "count/cell"),
            "dynamics.rhs_calls_pulse": (self.rhs_pulse, "count/cell"),
            "dynamics.rhs_calls_tail": (self.rhs_tail, "count/cell"),
            "dynamics.solver_overhead_s": (t["dynamics.propagate"] - t["dynamics.rhs"], "s/cell"),
            "dynamics.hamiltonian_s": (t["dynamics.hamiltonian"], "s/cell"),
            "dynamics.redfield_build_s": (t["dynamics.redfield_build"], "s/cell"),
            "dynamics.redfield_apply_s": (t["dynamics.redfield_apply"], "s/cell"),
            "dynamics.states_mb": (self.states_bytes / 1e6, "MB/cell"),
            "phonons.bath_rate_calls": (n["phonons.bath_rate"], "count/cell"),
            "phonons.bath_rate_s": (t["phonons.bath_rate"], "s/cell"),
            "observables.fom_s": (t["observables.fom"], "s/cell"),
            "observables.bloch_s": (t["observables.bloch"], "s/cell"),
            "qcore.partial_trace_calls": (n["qcore.partial_trace"], "count/cell"),
            "cli.write_s": (self.self_time["cli.write"], "s/cell"),
            "cli.bytes_written": (self.bytes_written, "B/cell"),
            "config.apply_override_calls": (n["config.apply_override"], "count/cell"),
        }
        out = {name: (value / cells, unit) for name, (value, unit) in per_cell.items()}
        out["dynamics.rhs_us_per_call"] = (1e6 * t["dynamics.rhs"] / max(rhs_calls, 1), "us")
        return out
