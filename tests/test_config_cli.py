"""Configuration parsing, unit conversion, and the command line interface."""

import json

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
from cavex.observables import TruncatedTrajectoryError

GHZ = 2 * np.pi * 1e9

FAST_INI = """
[pulse]
amplitude_pi = 2.0
[solver]
n_field_points = 4096
n_traj_points = 300
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
[output]
formats = json
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
        assert cfg.formats == ("json",)

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
        # where and how results are written is not part of the physics
        assert a.hash() == RunConfig(out_dir="elsewhere").hash()
        assert a.hash() == RunConfig(formats=("json",)).hash()


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
        "error", [TruncatedTrajectoryError("rings down late"), np.linalg.LinAlgError("eigh")]
    )
    def test_numerical_failures_exit_numerical(self, tmp_path, monkeypatch, error):
        def fail(config):
            raise error

        monkeypatch.setattr(cli, "run_cell", fail)
        cfg = write_ini(tmp_path, FAST_INI)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_NUMERICAL

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
