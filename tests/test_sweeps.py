"""Sweep engine: determinism, metadata, refinement, convergence."""

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavex import dynamics, sweeps
from cavex.config import ConfigError, SweepSpec, apply_override, blue_case, load_config, red_case
from cavex.dynamics import PropagationError
from cavex.pulses import GridResolutionError, IntracavityField, intracavity_field_numeric, pulse_area
from cavex.sweeps import (
    SweepCellError,
    SweepResult,
    cavity_detuning_map,
    detuning_amplitude_map,
    fock_convergence,
    modesplit_map,
    power_sweep,
    run_cell,
    run_sweep,
)

FAST = dict(n_traj_points=600, n_field_points=4096)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestSweepResult:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SweepResult((("pulse.amplitude_pi", (1.0, 2.0)),), np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SweepResult((("pulse.amplitude_pi", (1.0, 2.0)),), np.array([1.0, np.nan]))


class TestPowerSweep:
    def test_zero_amplitude_gives_zero(self):
        res = power_sweep(blue_case(**FAST), [0.0, 4.0])
        assert res.values[0] == 0.0
        assert res.values[1] > 0.0

    def test_metadata_carries_efficiency_and_areas(self):
        cfg = blue_case(**FAST)
        res = power_sweep(cfg, [0.0, 4.0])
        assert res.metadata["beta_c"] == pytest.approx(17.0 / 18.0)
        assert res.metadata["eta_c"][1] == pytest.approx(
            res.metadata["beta_c"] * res.values[1]
        )
        # input area 4 pi filters down to a smaller intra-cavity area
        assert 0.0 < res.metadata["intracavity_area_pi"][1] < 4.0
        assert "config_hash" in res.metadata and "wall_time_s" in res.metadata

    @pytest.mark.parametrize("row_cells, jobs", [(8, 1), (2, 2)])
    def test_one_field_build_per_row_job(self, monkeypatch, row_cells, jobs):
        # a row builds its field once, at unit amplitude, and reports its
        # cells' intra-cavity areas: the power metadata builds none
        calls = []
        build = sweeps.intracavity_field_numeric
        monkeypatch.setattr(
            sweeps, "intracavity_field_numeric", lambda *args: calls.append(args) or build(*args)
        )
        monkeypatch.setattr(sweeps, "ROW_CELLS", row_cells)
        power_sweep(blue_case(phonon_enabled=False, **FAST), [0.0, 1.0, 2.0])
        assert len(calls) == jobs
        assert all(pulse.amplitude == np.pi for pulse, _, _ in calls)
        # a block builds one field per distinct (laser, excitation mode) pair
        run_row, builds = sweeps._run_row, []

        def counted(configs, *args):
            before = len(calls)
            out = run_row(configs, *args)
            pairs = {(cfg.delta_omega_L_GHz, cfg.delta_omega_e_GHz) for cfg in configs}
            builds.append((len(calls) - before, len(pairs)))
            return out

        monkeypatch.setattr(sweeps, "_run_row", counted)
        modesplit_map(blue_case(phonon_enabled=False, **FAST), [-50.0, 30.0], [60.0, 96.0], [2.0])
        assert len(builds) == 4 // min(row_cells, 4)
        assert all(built == pairs for built, pairs in builds) and builds[0][1] == min(row_cells, 4)

    @pytest.mark.parametrize("case", [blue_case, red_case])
    def test_intracavity_area_matches_per_amplitude_builds(self, case):
        cfg = case(phonon_enabled=False, **FAST)
        amps = [0.0, 1.5, 4.0]
        res = power_sweep(cfg, amps)
        reference = []
        for amp in amps:
            cell = apply_override(cfg, "pulse.amplitude_pi", amp)
            mode, grid = cell.excitation_mode(), cell.field_grid()
            reference.append(pulse_area(intracavity_field_numeric(cell.pulse(), mode, grid))[0])
        areas = res.metadata["intracavity_area_pi"]
        np.testing.assert_allclose(areas, reference, rtol=1e-12, atol=0)
        assert areas[0] == 0.0


class TestRows:
    """A row of amplitudes is integrated together, and each of its cells is
    bit for bit the cell that run_cell computes alone."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(phonon_enabled=False),
            dict(),
            dict(secular=True, tol=1e-6),
        ],
        ids=["phonon-free", "non-secular", "secular"],
    )
    def test_every_cell_equals_its_own_run_cell(self, overrides):
        cfg = blue_case(**FAST, **overrides)
        row = [apply_override(cfg, "pulse.amplitude_pi", amp) for amp in (3.0, 0.0, 7.0)]
        results = sweeps._run_row(row)
        for (fom, area, traj), cell in zip(results, row):
            alone_fom, alone_area, alone = run_cell(cell)
            assert fom.pi_e == alone_fom.pi_e
            assert traj.rhs_calls == alone.rhs_calls
            assert area == alone_area
            np.testing.assert_array_equal(traj.states, alone.states)
        assert results[1][0].pi_e == 0.0
        # the sample-free row job gives run_cell's values bit for bit
        alone = [run_cell(cell) for cell in row]
        for kind, value in (("PiE", "pi_e"), ("EtaC", "eta_c")):
            got = sweeps._row_values(row, kind)
            assert got == tuple((getattr(fom, value), area) for fom, area, _ in alone)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(phonon_enabled=False),
            dict(),
            dict(secular=True, tol=1e-6),
        ],
        ids=["phonon-free", "non-secular", "secular"],
    )
    def test_every_cell_of_a_block_equals_its_own_run_cell(self, overrides):
        # a fig4-like block: two excitation-mode detunings x two laser
        # detunings x two amplitudes, four fields in one propagate call
        cfg = blue_case(**FAST, **overrides)
        block = [
            apply_override(apply_override(apply_override(cfg, "system.delta_omega_e_GHz", dwe),
                                          "pulse.delta_omega_L_GHz", dwl), "pulse.amplitude_pi", amp)
            for dwe in (-50.0, 30.0) for dwl in (60.0, 96.0) for amp in (2.0, 7.0)
        ]
        assert sweeps._rows(block) == [tuple(block)]
        results = sweeps._run_row(block)
        for (fom, area, traj), cell in zip(results, block):
            alone_fom, alone_area, alone = run_cell(cell)
            assert fom == alone_fom  # pi_e, and eta_c under the cell's own beta_c
            assert traj.rhs_calls == alone.rhs_calls
            assert area == alone_area
            np.testing.assert_array_equal(traj.states, alone.states)
            assert traj.amplitude == alone.amplitude
            np.testing.assert_array_equal(traj.unit_field.envelope[:, traj.column], alone.unit_field.envelope[:, 0])
        assert len({fom.beta_c for fom, _, _ in results}) == 2

    @settings(max_examples=10, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(  # on the recipes' steps
                st.integers(-48, 48).map(lambda q: q / 4),  # amplitude_pi in [-12, 12], of either sign
                st.integers(-24, 24).map(lambda q: 5.0 * q),  # delta_omega_L_GHz
                st.integers(-20, 20).map(lambda q: 5.0 * q),  # delta_omega_e_GHz
                st.integers(-5, 5).map(lambda q: q / 10),  # chirp_rate_ps2, read by a chirped block only
            ),
            min_size=1,
            max_size=5,
        ),
        chirped=st.booleans(),
    )
    def test_every_cell_of_a_random_block_equals_its_own_block_of_one(self, cells, chirped):
        # the law a block rests on, under all three phonon maps: the cells,
        # drawn in a random order, are propagated as one block of their
        # stacked unit fields, and each one's photons_out, rhs_calls and
        # states are its own _run_row((config,), 2) bit for bit.  No config
        # holds a negative amplitude, so such a cell's block of one is
        # propagated the same way at that amplitude
        shape = dict(pulse_shape="ChirpedGaussian") if chirped else dict(pulse_shape="Sech")
        for overrides in (dict(phonon_enabled=False), dict(), dict(secular=True)):
            configs = [
                blue_case(amplitude_pi=abs(amp), delta_omega_L_GHz=dwl, delta_omega_e_GHz=dwe,
                          chirp_rate_ps2=chirp if chirped else 0.0, tol=1e-6, n_field_points=4096,
                          **shape, **overrides)
                for amp, dwl, dwe, chirp in cells
            ]
            amplitudes = [amp for amp, _, _, _ in cells]
            block = self.signed_block(configs, amplitudes)
            for config, amp, traj in zip(configs, amplitudes, block):
                if np.copysign(1.0, amp) > 0:
                    alone = sweeps._run_row((config,), 2)[0][2]
                else:
                    alone = self.signed_block([config], [amp])[0]
                assert traj.photons_out == alone.photons_out
                assert traj.rhs_calls == alone.rhs_calls
                assert traj.states.tobytes() == alone.states.tobytes()

    @staticmethod
    def signed_block(configs, amplitudes):
        """The cells of configs driven by the given amplitudes, of either
        sign, in one propagate call as _run_row makes it: each cell's unit
        field a column of the stack, on the two ends of the ring-down grid."""
        fields = [intracavity_field_numeric(c.pulse(), c.excitation_mode(), c.field_grid())
                  for c in (replace(config, amplitude_pi=1.0) for config in configs)]
        stack = IntracavityField(fields[0].grid, np.hstack([f.envelope for f in fields]))
        first = configs[0]
        system = first.system()
        return sweeps.propagate(system, stack, first.phonon(), grid=dynamics.ringdown_grid(system, stack, 2),
                                tol=first.tol, amplitudes=amplitudes, columns=range(len(configs))).cells

    def test_row_jobs_propagate_two_samples_and_run_cell_its_n_traj_points(self, monkeypatch):
        propagate, points = sweeps.propagate, []

        def recorded(*args, grid, **kwargs):
            points.append(grid.n_points)
            return propagate(*args, grid=grid, **kwargs)

        monkeypatch.setattr(sweeps, "propagate", recorded)
        cfg = blue_case(phonon_enabled=False, **FAST)
        power_sweep(cfg, [1.0, 2.0])
        fock_convergence(cfg)
        assert points == [2, 2, 2]
        _, _, traj = run_cell(cfg)
        assert points[-1] == FAST["n_traj_points"] == len(traj.states)

    def test_split_rows_give_the_values_of_one_row(self, monkeypatch):
        cfg = blue_case(phonon_enabled=False, **FAST)
        amps = [0.0, 1.0, 2.5, 4.0, 5.5]
        whole = power_sweep(cfg, amps)
        monkeypatch.setattr(sweeps, "ROW_CELLS", 2)
        assert [len(row) for row in sweeps._rows([cfg] * 5)] == [1, 2, 2]
        split = power_sweep(cfg, amps)
        np.testing.assert_array_equal(split.values, whole.values)
        alone = [run_cell(apply_override(cfg, "pulse.amplitude_pi", amp))[0].pi_e for amp in amps]
        assert whole.values.tolist() == alone

    def test_jobs_follow_the_generator_inputs(self):
        # the laser detuning, the excitation mode's detuning, the amplitude
        # and the chirp reach only the drive: their cells share one job
        cfg = blue_case(**FAST)
        drive = [
            apply_override(apply_override(apply_override(cfg, "system.delta_omega_e_GHz", dwe),
                                          "pulse.delta_omega_L_GHz", dwl), "pulse.amplitude_pi", amp)
            for dwe in (-50.0, 30.0) for dwl in (80.0, 96.0) for amp in (1.0, 2.0)
        ]
        drive[-1] = apply_override(drive[-1], "pulse.chirp_rate_ps2", 0.5)
        assert sweeps._rows(drive) == [tuple(drive)]
        # what the generator, the Redfield table or a grid reads starts a new job
        for path, value in (
            ("system.delta_omega_c_GHz", 10.0),
            ("solver.n_max", 4),
            ("pulse.t_p_ps", 4.4),
            ("solver.n_field_points", 8192),
            ("solver.n_traj_points", 2000),
            ("solver.tol", 1e-7),
            ("phonon.temperature_K", 10.0),
            ("phonon.secular", True),
        ):
            other = apply_override(cfg, path, value)
            assert [len(job) for job in sweeps._rows([cfg, cfg, other, other, cfg])] == [2, 2, 1], path

    def test_a_sweep_has_at_least_the_jobs_asked_for(self):
        cfg = blue_case(**FAST)
        cells = [apply_override(cfg, "pulse.amplitude_pi", amp) for amp in range(8)]
        assert [len(job) for job in sweeps._rows(cells, 4)] == [2, 2, 2, 2]
        assert [len(job) for job in sweeps._rows(cells[:3], 4)] == [1, 1, 1]
        # the largest parts are split first: 6 + 2 cells on two generators
        other = [apply_override(cell, "system.delta_omega_c_GHz", 10.0) for cell in cells[:2]]
        jobs = sweeps._rows(cells[:6] + other, 4)
        assert [len(job) for job in jobs] == [2, 2, 2, 2] and jobs[-1] == tuple(other)

    def test_failing_cell_inside_a_row_names_its_coordinates(self, monkeypatch):
        # both detuning rows are one job; it fails from the second row's 2 pi
        # cell on: the error names that cell, the first failing one in
        # row-major order
        calls = []

        def failing(*args, amplitudes, **kwargs):
            calls.append(amplitudes)
            raise PropagationError("trace drift 1e-7 exceeds 1e-8", cell=amplitudes.index(2.0, 3))

        monkeypatch.setattr(sweeps, "propagate", failing)
        spec = SweepSpec(
            kind="detuning_map",
            axis1_path="pulse.delta_omega_L_GHz",
            axis1_values=(80.0, 96.0),
            axis2_path="pulse.amplitude_pi",
            axis2_values=(1.0, 2.0, 3.0),
        )
        with pytest.raises(SweepCellError, match=r"cell \(1, 1\) failed: trace drift"):
            run_sweep(blue_case(phonon_enabled=False, **FAST), spec)
        assert calls == [(1.0, 2.0, 3.0, 1.0, 2.0, 3.0)]

    @pytest.mark.parametrize("fails_first", [False, True])
    def test_field_that_cannot_be_built_fails_its_own_cell(self, monkeypatch, fails_first):
        # at 1000 GHz the laser is not resolved on the field grid: its first
        # cell fails, unless a cell before it in the same job fails first
        if fails_first:
            def failing(*args, amplitudes, **kwargs):
                raise PropagationError("trace drift 1e-7 exceeds 1e-8", cell=len(amplitudes) - 1)

            monkeypatch.setattr(sweeps, "propagate", failing)
        spec = SweepSpec(
            kind="detuning_map",
            axis1_path="pulse.delta_omega_L_GHz",
            axis1_values=(80.0, 1000.0),
            axis2_path="pulse.amplitude_pi",
            axis2_values=(1.0, 2.0),
        )
        with pytest.raises(SweepCellError, match=r"cell \(0, 1\)" if fails_first else r"cell \(1, 0\)") as info:
            run_sweep(blue_case(phonon_enabled=False, **FAST), spec)
        assert isinstance(info.value.__cause__, PropagationError if fails_first else GridResolutionError)

    def test_invalid_spec_fails_its_own_cell(self):
        # the config accepts 1e-320 ps, which underflows to 0 s in the pulse spec
        spec = SweepSpec(kind="power", axis1_path="pulse.t_p_ps", axis1_values=(3.6, 1e-320))
        with pytest.raises(SweepCellError, match=r"cell \(1,\) failed: t_p must be positive"):
            run_sweep(blue_case(phonon_enabled=False, **FAST), spec)

    @pytest.mark.parametrize("tol, raises", [(1e-8, True), (1e-6, False)])
    @pytest.mark.usefixtures("leaky_generator")
    def test_trace_leak_fails_the_sweep(self, tol, raises):
        # the sample-free row job keeps the trace guard, from tol = 1e-8 down
        cfg = blue_case(phonon_enabled=False, tol=tol, **FAST)
        if raises:
            with pytest.raises(SweepCellError, match=r"cell \(0,\) failed: trace drift .* exceeds 1e-8"):
                power_sweep(cfg, [2.0, 3.0])
        else:
            assert power_sweep(cfg, [2.0, 3.0]).values.min() > 0.0


class TestMetadataFollowsTheSpec:
    @pytest.fixture(autouse=True)
    def stub_cells(self, monkeypatch):
        monkeypatch.setattr(
            sweeps, "_row_values", lambda row, reduce_kind: tuple((cfg.amplitude_pi, 0.0) for cfg in row)
        )

    def test_power_metadata_needs_an_amplitude_axis_reduced_to_pi_e(self):
        cfg = blue_case(**FAST)
        amplitude = SweepSpec(kind="power", axis1_values=(0.0, 4.0))
        assert set(run_sweep(cfg, amplitude).metadata) >= {"beta_c", "eta_c", "intracavity_area_pi"}
        width = SweepSpec(kind="power", axis1_path="pulse.t_p_ps", axis1_values=(3.0, 4.0))
        eta_c = SweepSpec(kind="power", axis1_values=(0.0, 4.0), reduce="EtaC")
        for spec in (width, eta_c):
            assert "intracavity_area_pi" not in run_sweep(cfg, spec).metadata

    def test_row_maxima_of_a_one_axis_detuning_map(self):
        spec = SweepSpec(kind="detuning_map", axis1_values=(1.0, 3.0))
        res = run_sweep(blue_case(**FAST), spec)
        assert res.metadata["row_maxima"] == (1.0, 3.0)


class TestRunCell:
    def test_detuned_cavity_rings_down_over_16_emission_lifetimes(self):
        cfg = blue_case(phonon_enabled=False, delta_omega_c_GHz=10.0, amplitude_pi=2.0, **FAST)
        _, _, traj = run_cell(cfg)
        t_end = cfg.field_grid().t_end + 16.0 / cfg.system().emission_rate
        assert traj.grid.t_end == pytest.approx(t_end, rel=1e-12)

    def test_pi_e_does_not_depend_on_output_sampling(self):
        # a figS1blue corner (dwc = +28.8 GHz, the excitation mode moved
        # with it): a trapezoid over 2000 samples misses about 1e-4 of its
        # Rabi-modulated flux, while the flux integrated as state does not
        # see the output grid at all
        cfg = blue_case(
            t_p_ps=4.4,
            delta_omega_L_GHz=35.0,
            delta_omega_c_GHz=28.8,
            delta_omega_e_GHz=-21.2,
            amplitude_pi=10.5,
            phonon_enabled=False,
            n_field_points=4096,
        )
        pi_e = [run_cell(replace(cfg, n_traj_points=n))[0].pi_e for n in (600, 2000, 32000)]
        assert max(pi_e) - min(pi_e) <= 1e-12


    def test_leaves_no_cycle_holding_its_field_or_table(self, monkeypatch):
        # reference counting alone frees a cell's field envelope and Redfield
        # table once its result is dropped: no cycle waits for the collector
        refs, build, table = [], sweeps.intracavity_field_numeric, dynamics.RedfieldTable

        def recorded(make, key):
            def wrapper(*args):
                made = make(*args)
                refs.append(weakref.ref(key(made)))
                return made

            return wrapper

        monkeypatch.setattr(sweeps, "intracavity_field_numeric", recorded(build, lambda f: f.envelope))
        monkeypatch.setattr(dynamics, "RedfieldTable", recorded(table, lambda t: t))
        gc.disable()
        try:
            result = run_cell(blue_case(amplitude_pi=2.0, **FAST))
            del result
            assert len(refs) == 2
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestAgainstFilterEquationReference:
    """pi_e against an independent integration that carries the cavity
    filter equation as state (no field grid, no interpolation), DOP853 at
    rtol 1e-10; the values are frozen here."""

    @pytest.mark.parametrize(
        "recipe, overrides, reference",
        [
            ("fig2c", {"pulse.amplitude_pi": 10.0}, 0.9592952576),
            ("fig3a", {"pulse.delta_omega_L_GHz": 60.0, "pulse.amplitude_pi": 6.0}, 0.9005013055),
            (
                "default",
                {
                    "phonon.enabled": False,
                    "system.delta_omega_c_GHz": 3.0,
                    "pulse.amplitude_pi": 9.0,
                    "solver.tol": 1e-12,
                },
                0.9844419820,
            ),
        ],
        ids=["fig2c-blue-phonon", "fig3a-phonon-free", "default-phonon-free-tight"],
    )
    def test_pi_e_within_1e7_of_reference(self, recipe, overrides, reference):
        cfg = load_config(CONFIGS / f"{recipe}.ini")
        for path, value in overrides.items():
            cfg = apply_override(cfg, path, value)
        assert abs(run_cell(cfg)[0].pi_e - reference) <= 1e-7


class TestDeterminismAndWorkers:
    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(
                kind="detuning_map",
                axis1_path="pulse.delta_omega_L_GHz",
                axis1_values=(80.0, 96.0),
                axis2_path="pulse.amplitude_pi",
                axis2_values=(2.0, 8.0),
            ),
            SweepSpec(
                kind="modesplit_map",
                axis1_path="system.delta_omega_e_GHz",
                axis1_values=(-50.0,),
                axis2_path="pulse.delta_omega_L_GHz",
                axis2_values=(80.0, 96.0),
                reduce="MaxOverAmplitude",
                amplitude_grid=(2.0, 8.0),
            ),
        ],
        ids=["detuning_map", "MaxOverAmplitude"],
    )
    def test_worker_count_does_not_change_values(self, spec):
        cfg = blue_case(**FAST)
        serial = run_sweep(cfg, spec, workers=1)
        parallel = run_sweep(cfg, spec, workers=2)
        np.testing.assert_array_equal(serial.values, parallel.values)

    def test_repeated_run_bit_identical(self):
        cfg = blue_case(**FAST)
        a = power_sweep(cfg, [2.0, 6.0])
        b = power_sweep(cfg, [2.0, 6.0])
        np.testing.assert_array_equal(a.values, b.values)
        assert a.metadata["config_hash"] == b.metadata["config_hash"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_aborts_with_coordinates(self, workers):
        cfg = blue_case(**FAST)
        # a 0.01 ps pulse cannot be resolved on the fixed field grid, so
        # that cell fails during simulation (not during validation)
        spec = SweepSpec(
            kind="power",
            axis1_path="pulse.t_p_ps",
            axis1_values=(0.01, 3.6),
        )
        with pytest.raises(SweepCellError, match=r"cell \(0,\)") as info:
            run_sweep(cfg, spec, workers=workers)
        assert isinstance(info.value.__cause__, GridResolutionError)

    def test_failed_cell_stops_the_running_cells(self):
        # cell 0 fails at once while the other worker runs a cell of a few
        # seconds: the sweep must raise before that cell could finish
        cfg = blue_case(amplitude_pi=20.0, n_max=10, tol=1e-12, n_traj_points=600)
        t0 = time.perf_counter()
        run_cell(apply_override(cfg, "pulse.t_p_ps", 3.6))
        serial = time.perf_counter() - t0
        spec = SweepSpec(kind="power", axis1_path="pulse.t_p_ps", axis1_values=(0.01, 3.6, 4.0, 4.4))
        t0 = time.perf_counter()
        with pytest.raises(SweepCellError, match=r"cell \(0,\)"):
            run_sweep(cfg, spec, workers=2)
        assert time.perf_counter() - t0 < serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_axis_value_names_its_key(self, value):
        spec = SweepSpec(kind="power", axis1_path="pulse.amplitude_pi", axis1_values=(value,))
        with pytest.raises(ConfigError, match="pulse.amplitude_pi: must be finite"):
            run_sweep(blue_case(**FAST), spec)

    def test_unguarded_script_fails_instead_of_respawning(self, tmp_path):
        # spawn workers re-import the script, which starts the sweep again
        # while they bootstrap: each worker dies, and the sweep must say so
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from cavex.config import blue_case\n"
            "from cavex.sweeps import power_sweep\n"
            "cfg = blue_case(phonon_enabled=False, n_traj_points=600, n_field_points=4096)\n"
            "power_sweep(cfg, [1.0, 2.0], workers=2)\n",
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen([sys.executable, str(script)], cwd=tmp_path, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the sweep was still running after 60 s")
        assert proc.returncode != 0
        assert "terminated abruptly" in err

    def test_invalid_axis_value_rejected_before_running(self):
        from cavex.config import ConfigError

        cfg = blue_case(**FAST)
        for path, values in (("pulse.amplitude_pi", (-4.0, 2.0)), ("phonon.temperature_K", (4.2, -1.0))):
            spec = SweepSpec(kind="power", axis1_path=path, axis1_values=values)
            with pytest.raises(ConfigError, match=path):
                run_sweep(cfg, spec)


class TestDetuningMap:
    def test_row_maxima_metadata(self):
        res = detuning_amplitude_map(blue_case(**FAST), [84.0, 92.0], [4.0, 8.0, 12.0])
        assert res.values.shape == (2, 3)
        np.testing.assert_allclose(res.metadata["row_maxima"], res.values.max(axis=1))


class TestModesplitMap:
    def test_monotone_amplitude_refinement(self):
        cfg = blue_case(**FAST)
        coarse = modesplit_map(cfg, [-50.0], [88.0], [4.0, 8.0])
        dense = modesplit_map(cfg, [-50.0], [88.0], [2.0, 4.0, 6.0, 8.0])
        assert dense.values[0, 0] >= coarse.values[0, 0]

    def test_entry_is_the_largest_eta_c_over_its_grid(self):
        cfg = blue_case(phonon_enabled=False, **FAST)
        grid = [2.0, 5.0, 9.0]
        res = modesplit_map(cfg, [-30.0], [60.0], grid)
        cfg = apply_override(cfg, "system.delta_omega_e_GHz", -30.0)
        cfg = apply_override(cfg, "pulse.delta_omega_L_GHz", 60.0)
        eta_c = [run_cell(apply_override(cfg, "pulse.amplitude_pi", amp))[0].eta_c for amp in grid]
        assert res.values[0, 0] == max(eta_c)


class TestCavityDetuningMap:
    def test_zero_amplitude_column_and_offset(self):
        cfg = blue_case(**FAST)
        res = cavity_detuning_map(cfg, [-10.0, 10.0], [0.0, 6.0])
        np.testing.assert_array_equal(res.values[:, 0], 0.0)
        assert (res.values[:, 1] > 0.0).all()
        assert res.axes[0][0] == "system.delta_omega_c_GHz"

    def test_run_sweep_cavity_map_moves_both_modes(self):
        # the excitation mode follows the cavity in the executor itself, so a
        # cavity_map spec and the wrapper give the same cells
        cfg = blue_case(**FAST)
        spec = SweepSpec(
            kind="cavity_map",
            axis1_path="system.delta_omega_c_GHz",
            axis1_values=(-10.0, 10.0),
            axis2_path="pulse.amplitude_pi",
            axis2_values=(4.0,),
            reduce="EtaC",
        )
        np.testing.assert_array_equal(
            run_sweep(cfg, spec).values, cavity_detuning_map(cfg, [-10.0, 10.0], [4.0]).values
        )


class TestFockConvergence:
    def test_weak_drive_converges_at_n1(self):
        report = fock_convergence(blue_case(amplitude_pi=0.2, n_max=1, **FAST))
        assert report["converged"]
        assert report["n_max_check"] == 3

    def test_strong_drive_needs_more_than_n1(self):
        report = fock_convergence(blue_case(amplitude_pi=6.0, n_max=1, **FAST))
        assert not report["converged"]
        assert report["n_max"] == 1

    def test_strong_drive_converges_at_default(self):
        report = fock_convergence(blue_case(amplitude_pi=6.0, **FAST))
        assert report["converged"]

    def test_null_drive_exact(self):
        report = fock_convergence(blue_case(amplitude_pi=0.0, n_max=1, **FAST))
        assert report["delta"] == 0.0
