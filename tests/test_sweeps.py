"""Sweep engine: determinism, metadata, refinement, convergence."""

import numpy as np
import pytest

from cavex import sweeps
from cavex.config import SweepSpec, apply_override, blue_case, red_case
from cavex.pulses import intracavity_field_numeric, pulse_area
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

    def test_one_field_build_per_cell_plus_one(self, monkeypatch):
        calls = []
        build = sweeps.intracavity_field_numeric
        monkeypatch.setattr(
            sweeps, "intracavity_field_numeric", lambda *args: calls.append(args) or build(*args)
        )
        power_sweep(blue_case(phonon_enabled=False, **FAST), [0.0, 1.0, 2.0])
        assert len(calls) == 3 + 1

    @pytest.mark.parametrize("case", [blue_case, red_case])
    def test_intracavity_area_matches_per_amplitude_builds(self, case):
        cfg = case(phonon_enabled=False, **FAST)
        amps = [0.0, 1.5, 4.0]
        res = power_sweep(cfg, amps)
        reference = []
        for amp in amps:
            cell = apply_override(cfg, "pulse.amplitude_pi", amp)
            mode, grid = cell.excitation_mode(), cell.field_grid()
            reference.append(pulse_area(intracavity_field_numeric(cell.pulse(), mode, grid)))
        areas = res.metadata["intracavity_area_pi"]
        np.testing.assert_allclose(areas, reference, rtol=1e-12, atol=0)
        assert areas[0] == 0.0


class TestRunCell:
    def test_detuned_cavity_rings_down_over_16_emission_lifetimes(self):
        cfg = blue_case(phonon_enabled=False, delta_omega_c_GHz=10.0, amplitude_pi=2.0, **FAST)
        _, _, traj = run_cell(cfg)
        t_end = cfg.field_grid().t_end + 16.0 / cfg.system().emission_rate
        assert traj.grid.t_end == pytest.approx(t_end, rel=1e-12)


class TestDeterminismAndWorkers:
    def test_worker_count_does_not_change_values(self):
        cfg = blue_case(**FAST)
        spec = SweepSpec(
            kind="detuning_map",
            axis1_path="pulse.delta_omega_L_GHz",
            axis1_values=(80.0, 96.0),
            axis2_path="pulse.amplitude_pi",
            axis2_values=(2.0, 8.0),
        )
        serial = run_sweep(cfg, spec, workers=1)
        parallel = run_sweep(cfg, spec, workers=2)
        np.testing.assert_array_equal(serial.values, parallel.values)

    def test_repeated_run_bit_identical(self):
        cfg = blue_case(**FAST)
        a = power_sweep(cfg, [2.0, 6.0])
        b = power_sweep(cfg, [2.0, 6.0])
        np.testing.assert_array_equal(a.values, b.values)
        assert a.metadata["config_hash"] == b.metadata["config_hash"]

    def test_failed_cell_aborts_with_coordinates(self):
        cfg = blue_case(**FAST)
        # a 0.01 ps pulse cannot be resolved on the fixed field grid, so
        # that cell fails during simulation (not during validation)
        spec = SweepSpec(
            kind="power",
            axis1_path="pulse.t_p_ps",
            axis1_values=(0.01, 3.6),
        )
        with pytest.raises(SweepCellError, match=r"cell \(0,\)"):
            run_sweep(cfg, spec)

    def test_invalid_axis_value_rejected_before_running(self):
        from cavex.config import ConfigError

        cfg = blue_case(**FAST)
        spec = SweepSpec(
            kind="power",
            axis1_path="pulse.amplitude_pi",
            axis1_values=(-4.0, 2.0),
        )
        with pytest.raises(ConfigError, match="amplitude_pi"):
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
