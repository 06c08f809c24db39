"""Configuration parsing, unit conversion, and the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cavex import cli, sweeps
from cavex.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from cavex.config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    apply_override,
    load_config,
    load_sweep,
)
from cavex.dynamics import PropagationError
from cavex.observables import beta_collection

GHZ = 2 * np.pi * 1e9

FAST_INI = """
[pulse]
amplitude_pi = 2.0
[solver]
n_field_points = 4096
n_traj_points = 300
"""


NO_PHONON_SWEEP = """
[phonon]
enabled = false
[sweep]
"""


def write_ini(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestUnitConversion:
    def test_frequencies_are_ordinary_ghz(self):
        cfg = RunConfig(kappa_GHz=25.0, g_GHz=4.0)
        system = cfg.system()
        assert system.kappa == pytest.approx(2 * np.pi * 25e9)
        assert system.g == pytest.approx(2 * np.pi * 4e9)

    def test_fwhm_width_converts_to_time_constant(self):
        cfg = RunConfig(t_p_ps=3.6)
        # FWHM of the sech amplitude: t_p = 2 arccosh(2) tau
        assert cfg.t_p_seconds == pytest.approx(3.6e-12 / (2 * np.arccosh(2.0)))

    def test_time_constant_convention_passes_through(self):
        cfg = RunConfig(t_p_ps=1.5, width_convention="time_constant")
        assert cfg.t_p_seconds == 1.5e-12

    def test_gaussian_width_not_rescaled(self):
        cfg = RunConfig(pulse_shape="Gaussian", t_p_ps=3.6)
        assert cfg.t_p_seconds == 3.6e-12

    def test_amplitude_in_units_of_pi(self):
        assert RunConfig(amplitude_pi=10.0).pulse().amplitude == pytest.approx(10 * np.pi)

    def test_chirp_rate_ps2_to_si(self):
        assert RunConfig(
            pulse_shape="ChirpedGaussian", chirp_rate_ps2=2.0
        ).pulse().chirp_rate == pytest.approx(2.0e24)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pulse_shape="Square"),
            dict(width_convention="fw"),
            dict(t_p_ps=0.0),
            dict(amplitude_pi=-1.0),
            dict(kappa_GHz=-25.0),
            dict(tol=1e-2),
            dict(tol=1e-13),
            dict(n_max=0),
        ],
    )
    def test_bad_field_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)

    def test_override_unknown_path(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_override(RunConfig(), "pulse.nope", 1.0)

    def test_override_bad_boolean(self):
        with pytest.raises(ConfigError, match="boolean"):
            apply_override(RunConfig(), "phonon.enabled", "maybe")


class TestIniRoundTrip:
    def test_values_and_case_sensitive_keys(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
[pulse]
shape = Sech
t_p_ps = 4.4
delta_omega_L_GHz = 35.0
amplitude_pi = 6.0
[system]
kappa_GHz = 20.0
delta_omega_e_GHz = -40.0
[phonon]
enabled = false
[solver]
tol = 1e-10
n_max = 4
""",
        )
        cfg = load_config(path)
        assert cfg.t_p_ps == 4.4
        assert cfg.delta_omega_L_GHz == 35.0
        assert cfg.kappa_GHz == 20.0
        assert cfg.delta_omega_e_GHz == -40.0
        assert cfg.phonon_enabled is False
        assert cfg.tol == 1e-10
        assert cfg.n_max == 4

    def test_unspecified_keys_keep_defaults(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, "[pulse]\namplitude_pi = 1.0\n"))
        assert cfg.kappa_GHz == RunConfig().kappa_GHz

    def test_unknown_key_is_error(self, tmp_path):
        path = write_ini(tmp_path, "[pulse]\nbandwidth = 3\n")
        with pytest.raises(ConfigError, match="pulse.bandwidth"):
            load_config(path)

    def test_missing_file_is_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_hash_is_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.hash() == b.hash()
        assert a.hash() != RunConfig(amplitude_pi=9.0).hash()


class TestSweepSpec:
    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ConfigError, match="monotone"):
            SweepSpec(kind="power", axis1_values=(1.0, 3.0, 2.0))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            SweepSpec(kind="power", axis1_values=())

    def test_max_over_amplitude_needs_grid(self):
        with pytest.raises(ConfigError, match="amplitude_grid"):
            SweepSpec(
                kind="modesplit_map",
                axis1_values=(1.0,),
                reduce="MaxOverAmplitude",
            )

    def test_load_sweep_section(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
[sweep]
kind = power
axis1_path = pulse.amplitude_pi
axis1_values = 0 2 4
""",
        )
        spec = load_sweep(path)
        assert spec.kind == "power"
        assert spec.axis1_values == (0.0, 2.0, 4.0)

    def test_load_sweep_rejects_keys_it_would_ignore(self, tmp_path):
        typo = write_ini(tmp_path, "[sweep]\naxis1_values = 1 2\nreduc = EtaC\n", name="typo.ini")
        with pytest.raises(ConfigError, match="sweep.reduc"):
            load_sweep(typo)
        orphan = write_ini(tmp_path, "[sweep]\naxis1_values = 1 2\naxis2_values = 3 4\n", name="orphan.ini")
        with pytest.raises(ConfigError, match="axis2_path"):
            load_sweep(orphan)

    @pytest.mark.parametrize("key", ["axis1_values", "axis2_values", "amplitude_grid"])
    def test_non_numeric_value_names_its_key(self, tmp_path, key):
        lists = {"axis1_values": "1 2", "axis2_values": "1 2", "amplitude_grid": "1 2", key: "1 x"}
        body = "[sweep]\naxis2_path = pulse.amplitude_pi\n"
        path = write_ini(tmp_path, body + "".join(f"{k} = {v}\n" for k, v in lists.items()))
        with pytest.raises(ConfigError, match=f"sweep.{key}: .*'x'"):
            load_sweep(path)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    def test_load_sweep_missing_section(self, tmp_path):
        path = write_ini(tmp_path, "[pulse]\namplitude_pi = 1\n")
        with pytest.raises(ConfigError, match="sweep"):
            load_sweep(path)


class TestCliSimulate:
    def test_writes_trajectory_and_summary(self, tmp_path):
        cfg = write_ini(tmp_path, FAST_INI)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t_ps,rho_ee,photon_number,sx,sy,sz,field_re,field_im"
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) >= {"pi_e", "beta_c", "eta_c", "pulse_area_pi", "config_hash"}
        assert 0.0 < summary["pi_e"] <= 1.0
        assert summary["beta_c"] == pytest.approx(17.0 / 18.0)

    def test_nine_significant_digits(self, tmp_path):
        cfg = write_ini(tmp_path, FAST_INI)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        first = (out / "trajectory.csv").read_text().splitlines()[1]
        for cell in first.split(","):
            mantissa = cell.split("e")[0].replace("-", "")
            assert len(mantissa.replace(".", "")) == 9

    def test_zero_amplitude_gives_null_trajectory(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            "[pulse]\namplitude_pi = 0.0\n[solver]\nn_field_points = 4096\nn_traj_points = 300\n",
        )
        out = tmp_path / "out0"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pi_e"] == 0.0
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 1], 0.0)  # rho_ee
        np.testing.assert_array_equal(data[:, 2], 0.0)  # photon number

    def test_format_restriction(self, tmp_path):
        cfg = write_ini(tmp_path, FAST_INI)
        out = tmp_path / "json_only"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"])
        assert (out / "summary.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_builds_the_field_once(self, tmp_path, monkeypatch):
        calls = []
        for module in (sweeps, cli):
            build = module.intracavity_field_numeric
            monkeypatch.setattr(
                module,
                "intracavity_field_numeric",
                lambda *args, build=build: calls.append(args) or build(*args),
            )
        cfg = write_ini(tmp_path, FAST_INI)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 1

    def test_seed_check_deterministic(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, FAST_INI)
        assert main(["simulate", "--config", str(cfg), "--seed-check"]) == EXIT_OK
        assert "deterministic=True" in capsys.readouterr().out


class TestCliErrors:
    def test_bad_config_exits_validation(self, tmp_path):
        cfg = write_ini(tmp_path, "[pulse]\namplitude_pi = -3\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    def test_unknown_key_exits_validation(self, tmp_path):
        cfg = write_ini(tmp_path, "[pulse]\nbogus = 1\n")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "error", [PropagationError("the tail has no finite yield"), np.linalg.LinAlgError("eigh")]
    )
    def test_numerical_failures_exit_numerical(self, tmp_path, monkeypatch, error):
        def fail(config):
            raise error

        monkeypatch.setattr(cli, "run_cell", fail)
        cfg = write_ini(tmp_path, FAST_INI)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL

    def test_output_section_is_rejected(self, tmp_path, monkeypatch):
        # --out and --format are the output settings; an [output] key is unknown
        monkeypatch.chdir(tmp_path)
        cfg = write_ini(tmp_path, FAST_INI + "[output]\ndirectory = elsewhere\n")
        with pytest.raises(ConfigError, match="output.directory"):
            load_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--out", "o"]) == EXIT_VALIDATION
        assert not (tmp_path / "elsewhere").exists()

    def test_workers_belongs_to_sweep_alone(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--workers", "7"])
        assert exit_info.value.code == EXIT_VALIDATION

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_a_config_error(self, tmp_path, capsys, workers):
        recipe = write_ini(tmp_path, FAST_INI + "[sweep]\nkind = power\naxis1_values = 0\n")
        code = main(["sweep", "--config", str(recipe), "--out", str(tmp_path / "s"), "--workers", workers])
        assert code == EXIT_VALIDATION
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "s" / "map.csv").exists()

    def test_failed_sweep_cell_exits_with_its_cause(self, tmp_path, capsys):
        # a field grid this coarse fails validation inside the cell; the
        # sweep reports it as simulate does, with the cell's coordinates
        body = FAST_INI.replace("4096", "256")
        cfg = write_ini(tmp_path, body)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        recipe = write_ini(
            tmp_path, body + "[sweep]\nkind = power\naxis1_values = 2\n", name="recipe.ini"
        )
        assert main(["sweep", "--config", str(recipe), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
        assert "cell (0,)" in capsys.readouterr().err

    def test_sweep_requires_config(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_chirped_mechanism_requires_chirp(self, tmp_path):
        cfg = write_ini(tmp_path, FAST_INI)
        code = main(
            ["bloch", "--config", str(cfg), "--mechanism", "Chirped",
             "--out", str(tmp_path / "b"), "--areas", "2"]
        )
        assert code == EXIT_VALIDATION


class TestCliSweep:
    def test_power_sweep_outputs(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            FAST_INI
            + """
[sweep]
kind = power
axis1_path = pulse.amplitude_pi
axis1_values = 0 4
""",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "pulse.amplitude_pi,value"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == 0.0
        assert float(lines[2].split(",")[1]) > 0.0
        meta = json.loads((out / "map.json").read_text())
        assert meta["kind"] == "power"
        assert meta["axes"][0]["path"] == "pulse.amplitude_pi"

    def test_detuning_map_recipe_sweeps_its_own_axes(self, tmp_path):
        cfg = write_ini(
            tmp_path,
            FAST_INI
            + NO_PHONON_SWEEP
            + """kind = detuning_map
axis1_path = pulse.delta_omega_L_GHz
axis1_values = 88
axis2_path = system.delta_omega_c_GHz
axis2_values = 0 5
reduce = EtaC
""",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "pulse.delta_omega_L_GHz,system.delta_omega_c_GHz,value"
        base = load_config(cfg)
        for line, dwc in zip(lines[1:], (0.0, 5.0)):
            fom, _, _ = sweeps.run_cell(apply_override(base, "system.delta_omega_c_GHz", dwc))
            assert line == f"{88.0:.8e}" + "," + f"{dwc:.8e}" + "," + f"{fom.eta_c:.8e}"
        assert json.loads((out / "map.json").read_text())["reduce"] == "EtaC"

    def test_cavity_map_recipe_honours_its_reduction(self, tmp_path):
        recipe = FAST_INI + NO_PHONON_SWEEP + """kind = cavity_map
axis1_path = system.delta_omega_c_GHz
axis1_values = -10 10
axis2_path = pulse.amplitude_pi
axis2_values = 3
"""
        maps = {}
        for reduce in ("PiE", "EtaC"):
            cfg = write_ini(tmp_path, recipe + f"reduce = {reduce}\n", name=f"{reduce}.ini")
            out = tmp_path / reduce
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert json.loads((out / "map.json").read_text())["reduce"] == reduce
            maps[reduce] = np.loadtxt(out / "map.csv", delimiter=",", skiprows=1)
        base = load_config(cfg)
        for pi_e, eta_c in zip(maps["PiE"], maps["EtaC"]):
            # both polarization modes move with the cavity; the excitation
            # mode sits 50 GHz below the collection mode by default
            cell = apply_override(base, "system.delta_omega_c_GHz", pi_e[0])
            cell = apply_override(cell, "system.delta_omega_e_GHz", pi_e[0] - 50.0)
            beta = beta_collection(cell.system())
            assert pi_e[2] != eta_c[2]
            assert pi_e[2] == pytest.approx(eta_c[2] / beta, rel=1e-8)

    def test_two_axis_csv_is_row_major(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            sweeps,
            "_cell_value",
            lambda config, reduce_kind, grid: config.delta_omega_c_GHz * 10 + config.delta_omega_L_GHz,
        )
        cfg = write_ini(
            tmp_path,
            """[sweep]
kind = detuning_map
axis1_path = system.delta_omega_c_GHz
axis1_values = 1 2
axis2_path = pulse.delta_omega_L_GHz
axis2_values = 3 4 5
""",
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (out / "map.csv").read_text().splitlines()
        assert lines[0] == "system.delta_omega_c_GHz,pulse.delta_omega_L_GHz,value"
        rows = [(a, b, a * 10 + b) for a in (1.0, 2.0) for b in (3.0, 4.0, 5.0)]
        assert lines[1:] == [",".join(f"{x:.8e}" for x in row) for row in rows]


class TestCliBloch:
    BLOCH_INI = """
[pulse]
t_p_ps = 3.6
delta_omega_L_GHz = 88.0
chirp_rate_ps2 = {chirp}
[system]
delta_omega_e_GHz = -50.0
[solver]
n_field_points = 4096
n_traj_points = 300
"""

    def _endpoints(self, tmp_path, mechanism, areas, chirp=0.0):
        cfg = write_ini(tmp_path, self.BLOCH_INI.format(chirp=chirp))
        out = tmp_path / f"bloch_{mechanism}"
        argv = ["bloch", "--config", str(cfg), "--mechanism", mechanism,
                "--out", str(out), "--areas", *[str(a) for a in areas]]
        assert main(argv) == EXIT_OK
        payload = json.loads((out / f"bloch_{mechanism.lower()}_endpoints.json").read_text())
        return {ep["area_pi"]: ep for ep in payload["endpoints"]}

    def test_resonant_rabi_returns_to_ground(self, tmp_path):
        eps = self._endpoints(tmp_path, "Resonant", [1.0, 2.0])
        assert eps[1.0]["rho_ee"] > 0.9
        assert eps[2.0]["rho_ee"] < 0.1

    def test_chirped_inversion_robust_to_area(self, tmp_path):
        eps = self._endpoints(tmp_path, "Chirped", [4.0, 6.0], chirp=2.0)
        # adiabatic rapid passage: inversion independent of exact area
        assert eps[4.0]["rho_ee"] > 0.9
        assert eps[6.0]["rho_ee"] > 0.9

    def test_filtered_detuned_plateau(self, tmp_path):
        eps = self._endpoints(tmp_path, "CavityFiltered", [8.0, 10.0])
        assert abs(eps[8.0]["rho_ee"] - eps[10.0]["rho_ee"]) < 0.05


class TestBlasThreads:
    VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

    def import_cavex(self, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = f"import os, cavex; print(*(os.environ[v] for v in {self.VARS!r}))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        return out.stdout.split()

    def test_import_pins_one_thread(self):
        assert self.import_cavex() == ["1", "1", "1", "1"]

    def test_preset_value_is_kept(self):
        assert self.import_cavex(OPENBLAS_NUM_THREADS="3") == ["1", "3", "1", "1"]
