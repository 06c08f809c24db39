"""Run configuration: flat INI sections in, module specs out.

Units at the config surface follow experimental conventions: ordinary
frequencies in GHz (converted internally via x 2*pi to rad/s), times in ps,
lengths in nm, temperatures in K, pulse areas in units of pi.

Pulse-width convention: ``pulse.t_p_ps`` is the full width at half maximum
of the sech field envelope, the width a mode-locked-laser autocorrelation
quotes.  The sech time constant used in all formulas is
t_p_ps / (2 arccosh 2).  Set ``pulse.width_convention = time_constant`` to
pass the time constant directly.
"""

import configparser
import hashlib
import json
from dataclasses import dataclass, field as _dfield, replace

import numpy as np

from .phonons import DEFAULT_COUPLING_SCALE, EV, PhononSpec
from .pulses import SECH_AMPLITUDE_FWHM, CavityModeSpec, PulseSpec, default_field_grid
from .dynamics import SystemSpec
from .qcore import HilbertSpec

GHZ = 2.0 * np.pi * 1e9


class ConfigError(ValueError):
    """Invalid or inconsistent configuration; message names the key path."""


@dataclass(frozen=True)
class RunConfig:
    # pulse
    pulse_shape: str = "Sech"
    t_p_ps: float = 3.6
    width_convention: str = "fwhm"  # fwhm | time_constant
    delta_omega_L_GHz: float = 88.0
    amplitude_pi: float = 10.0
    chirp_rate_ps2: float = 0.0  # rad/ps^2
    # system
    g_GHz: float = 4.0
    kappa_GHz: float = 25.0
    delta_omega_c_GHz: float = 0.0
    delta_omega_e_GHz: float = -50.0
    gamma_bg_GHz: float = 0.0
    # phonon
    phonon_enabled: bool = True
    r_e_nm: float = 5.9
    r_h_nm: float = 3.6
    d_e_eV: float = 7.0
    d_h_eV: float = -3.5
    density_kg_m3: float = 5370.0
    c_s_m_s: float = 5110.0
    temperature_K: float = 4.2
    coupling_scale: float = DEFAULT_COUPLING_SCALE
    secular: bool = False
    # grid / solver
    n_field_points: int = 8192
    n_traj_points: int = 2000
    tol: float = 1e-8
    n_max: int = 3

    def __post_init__(self):
        if self.pulse_shape not in ("Sech", "Gaussian", "ChirpedGaussian"):
            raise ConfigError(f"pulse.shape: unknown shape {self.pulse_shape!r}")
        if self.width_convention not in ("fwhm", "time_constant"):
            raise ConfigError("pulse.width_convention: must be fwhm or time_constant")
        if self.t_p_ps <= 0:
            raise ConfigError("pulse.t_p_ps: must be positive")
        if self.amplitude_pi < 0:
            raise ConfigError("pulse.amplitude_pi: must be non-negative")
        if self.kappa_GHz <= 0 or self.g_GHz <= 0:
            raise ConfigError("system.kappa_GHz and system.g_GHz: must be positive")
        for path in ("phonon.r_e_nm", "phonon.r_h_nm", "phonon.density_kg_m3", "phonon.c_s_m_s"):
            if getattr(self, path.partition(".")[2]) <= 0:
                raise ConfigError(f"{path}: must be positive")
        for path in ("system.gamma_bg_GHz", "phonon.temperature_K", "phonon.coupling_scale"):
            if getattr(self, path.partition(".")[2]) < 0:
                raise ConfigError(f"{path}: must be non-negative")
        if not 1e-12 <= self.tol <= 1e-4:
            raise ConfigError("solver.tol: must lie in [1e-12, 1e-4]")
        if self.n_max < 1:
            raise ConfigError("solver.n_max: must be at least 1")
        for key in ("n_field_points", "n_traj_points"):
            if getattr(self, key) < 2:
                raise ConfigError(f"solver.{key}: must be at least 2")

    # spec builders -----------------------------------------------------
    @property
    def t_p_seconds(self):
        t = self.t_p_ps * 1e-12
        if self.width_convention == "fwhm" and self.pulse_shape == "Sech":
            t /= SECH_AMPLITUDE_FWHM
        return t

    def pulse(self):
        return PulseSpec(
            shape=self.pulse_shape,
            t_p=self.t_p_seconds,
            delta_omega_L=self.delta_omega_L_GHz * GHZ,
            amplitude=self.amplitude_pi * np.pi,
            chirp_rate=self.chirp_rate_ps2 * 1e24,
        )

    def excitation_mode(self):
        return CavityModeSpec(
            delta_omega_e=self.delta_omega_e_GHz * GHZ, kappa=self.kappa_GHz * GHZ
        )

    def system(self):
        return SystemSpec(
            g=self.g_GHz * GHZ,
            kappa=self.kappa_GHz * GHZ,
            delta_omega_c=self.delta_omega_c_GHz * GHZ,
            delta_omega_e=self.delta_omega_e_GHz * GHZ,
            gamma_bg=self.gamma_bg_GHz * GHZ,
            hilbert=HilbertSpec(self.n_max),
        )

    def phonon(self):
        return PhononSpec(
            r_e=self.r_e_nm * 1e-9,
            r_h=self.r_h_nm * 1e-9,
            d_e=self.d_e_eV * EV,
            d_h=self.d_h_eV * EV,
            rho_mass=self.density_kg_m3,
            c_s=self.c_s_m_s,
            temperature=self.temperature_K,
            enabled=self.phonon_enabled,
            coupling_scale=self.coupling_scale,
            secular=self.secular,
        )

    def field_grid(self):
        return default_field_grid(self.pulse(), self.excitation_mode(), self.n_field_points)

    def hash(self):
        """Digest of every field."""
        fields = {k: getattr(self, k) for k in self.__dataclass_fields__}
        payload = json.dumps(fields, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# key path <-> dataclass field mapping for INI parsing and sweep axes
_KEYMAP = {
    "pulse.shape": ("pulse_shape", str),
    "pulse.t_p_ps": ("t_p_ps", float),
    "pulse.width_convention": ("width_convention", str),
    "pulse.delta_omega_L_GHz": ("delta_omega_L_GHz", float),
    "pulse.amplitude_pi": ("amplitude_pi", float),
    "pulse.chirp_rate_ps2": ("chirp_rate_ps2", float),
    "system.g_GHz": ("g_GHz", float),
    "system.kappa_GHz": ("kappa_GHz", float),
    "system.delta_omega_c_GHz": ("delta_omega_c_GHz", float),
    "system.delta_omega_e_GHz": ("delta_omega_e_GHz", float),
    "system.gamma_bg_GHz": ("gamma_bg_GHz", float),
    "phonon.enabled": ("phonon_enabled", bool),
    "phonon.r_e_nm": ("r_e_nm", float),
    "phonon.r_h_nm": ("r_h_nm", float),
    "phonon.D_e_eV": ("d_e_eV", float),
    "phonon.D_h_eV": ("d_h_eV", float),
    "phonon.density_kg_m3": ("density_kg_m3", float),
    "phonon.c_s_m_s": ("c_s_m_s", float),
    "phonon.temperature_K": ("temperature_K", float),
    "phonon.coupling_scale": ("coupling_scale", float),
    "phonon.secular": ("secular", bool),
    "solver.n_field_points": ("n_field_points", int),
    "solver.n_traj_points": ("n_traj_points", int),
    "solver.tol": ("tol", float),
    "solver.n_max": ("n_max", int),
}


def _coerce(caster, raw, path):
    if caster is bool:
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{path}: expected a boolean, got {raw!r}")
    if isinstance(raw, (bool, np.bool_)):  # float(True) would read it as 1.0
        raise ConfigError(f"{path}: expected a number, got {raw!r}")
    try:
        value = float(raw) if caster is int else caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if caster is int and not value.is_integer():
        raise ConfigError(f"{path}: expected an integer, got {raw!r}")
    if caster is float and not np.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {raw!r}")
    return int(value) if caster is int else value


def apply_override(config, path, value):
    """Return a copy of config with the keyed value replaced."""
    if path not in _KEYMAP:
        raise ConfigError(f"{path}: unknown config key")
    name, caster = _KEYMAP[path]
    return replace(config, **{name: _coerce(caster, value, path)})


def _read_ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (GHz suffixes)
    if not parser.read(path):
        raise ConfigError(f"{path}: cannot read INI file")
    return parser


def load_config(path):
    """Parse an INI file into a RunConfig; unknown keys are errors."""
    parser = _read_ini(path)
    config = RunConfig()
    for section in parser.sections():
        if section == "sweep":
            continue  # handled by load_sweep
        for key, raw in parser.items(section):
            config = apply_override(config, f"{section}.{key}", raw)
    return config


@dataclass(frozen=True)
class SweepSpec:
    """One- or two-axis sweep over config key paths."""

    kind: str  # power | detuning_map | modesplit_map | cavity_map
    axis1_path: str = "pulse.amplitude_pi"
    axis1_values: tuple = ()
    axis2_path: str = ""
    axis2_values: tuple = ()
    reduce: str = "PiE"  # PiE | EtaC | MaxOverAmplitude
    amplitude_grid: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "detuning_map", "modesplit_map", "cavity_map"):
            raise ConfigError(f"sweep.kind: unknown kind {self.kind!r}")
        if len(self.axis1_values) == 0:
            raise ConfigError("sweep.axis1_values: empty axis")
        if self.axis2_path and len(self.axis2_values) == 0:
            raise ConfigError("sweep.axis2_values: empty axis")
        if len(self.axis2_values) and not self.axis2_path:
            raise ConfigError("sweep.axis2_path: required by axis2_values")
        for vals, label in ((self.axis1_values, "axis1"), (self.axis2_values, "axis2")):
            arr = np.asarray(vals, dtype=float)  # apply_override rejects non-finite values
            if arr.size > 1 and not (np.all(np.diff(arr) > 0) or np.all(np.diff(arr) < 0)):
                raise ConfigError(f"sweep.{label}_values: must be strictly monotone")
        if self.reduce not in ("PiE", "EtaC", "MaxOverAmplitude"):
            raise ConfigError(f"sweep.reduce: unknown reduction {self.reduce!r}")
        if self.reduce == "MaxOverAmplitude" and len(self.amplitude_grid) == 0:
            raise ConfigError("sweep.amplitude_grid: required for MaxOverAmplitude")

    @property
    def axes(self):
        """((path, values), ...) of the swept axes, in row-major order."""
        axes = ((self.axis1_path, self.axis1_values),)
        if self.axis2_path:
            axes += ((self.axis2_path, self.axis2_values),)
        return tuple((path, tuple(float(v) for v in values)) for path, values in axes)


def _parse_values(key, raw):
    return tuple(_coerce(float, x, f"sweep.{key}") for x in raw.replace(",", " ").split())


def load_sweep(path):
    """Parse the [sweep] section of a recipe INI into a SweepSpec; unknown
    keys are errors."""
    parser = _read_ini(path)
    if "sweep" not in parser:
        raise ConfigError(f"{path}: missing [sweep] section")
    lists = ("axis1_values", "axis2_values", "amplitude_grid")
    kwargs = {"kind": "power"}
    for key, raw in parser["sweep"].items():
        if key not in SweepSpec.__dataclass_fields__:
            raise ConfigError(f"sweep.{key}: unknown sweep key")
        kwargs[key] = _parse_values(key, raw) if key in lists else raw
    return SweepSpec(**kwargs)


def blue_case(**overrides):
    """Collection on the upper mode: laser blue of the emitter, excitation
    mode 50 GHz below."""
    base = RunConfig(delta_omega_L_GHz=88.0, delta_omega_e_GHz=-50.0)
    return replace(base, **overrides) if overrides else base


def red_case(**overrides):
    """Collection on the lower mode: laser red of the emitter, excitation
    mode 50 GHz above."""
    base = RunConfig(delta_omega_L_GHz=-82.0, delta_omega_e_GHz=50.0)
    return replace(base, **overrides) if overrides else base
