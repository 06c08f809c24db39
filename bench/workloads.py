"""The three seeded workloads of the benchmark and their output checks.

Each workload draws its inputs from the axis ranges of the shipped
``configs/*.ini`` recipes.  Every seed gives other inputs, but a run should
cost the same whatever the seed, so the draws are balanced:

- round k's draw is point k of a shifted Kronecker (golden-ratio)
  sequence whose shift is taken from the seed, so consecutive rounds cover
  each range evenly, and a run draws only the rounds it uses;
- within a round, amplitudes are stratified with antithetic offsets (see
  ``strata``): a cell's cost grows about linearly with its amplitude, and
  the round's total then does not move with the draw;
- detunings whose cost grows with their square (the cavity detuning
  lengthens the ring-down as 1 + (2 dwc / kappa)^2; the mode splitting
  acts alike) come in pairs, one negative and one positive, stratified the
  same way in the square;
- a fig4 laser detuning comes with its mirror -dwL, so each mode splitting
  meets the laser once on its own side of the emitter and once opposite.

A workload object offers:

- ``draw(seed, out_dir)``: keeps the seed and the output directory; the
  constructor loads the recipes;
- ``round(k)``: the inputs of round k, made when asked for (the
  ``simulate_tight`` INI files are written here, outside the timed call);
- ``warm_up()``: a small untimed call through the same code paths;
- ``run(rnd)``: one round through cavex's public API, returning
  ``(cells, record)``;
- ``check(records, reference)``: raises CheckError on a wrong output and
  returns the check figures.
"""

import configparser
import json

import numpy as np

from cavex import cli, sweeps
from cavex.config import apply_override, load_config, load_sweep

PI_E_TOL = 1e-4  # drive-interpolation term of the error budget (README)


class CheckError(AssertionError):
    """An output of cavex failed a correctness check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def kronecker(seed, stream, k, dim):
    """Point k (from 0) in [0, 1)^dim of the R_dim sequence with a seeded shift."""
    phi = 2.0
    for _ in range(64):  # root of x^(dim+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = phi ** -np.arange(1.0, dim + 1)
    shift = np.random.default_rng([seed, stream]).random(dim)
    return (shift + (k + 1) * alpha) % 1.0


def span(values, u):
    """Map u in [0, 1) onto the range of a recipe axis."""
    lo, hi = min(values), max(values)
    return float(lo + (hi - lo) * u)


def strata(lo, hi, k, u):
    """k increasing values, one in each of k equal strata of [lo, hi).

    The offsets within the strata alternate between u and 1 - u, so for
    even k their sum is the same for every u.
    """
    offsets = [u if j % 2 == 0 else 1.0 - u for j in range(k)]
    return tuple(float(lo + (hi - lo) * (j + 0.05 + 0.9 * v) / k) for j, v in enumerate(offsets))


def signed_pair(values, u):
    """A negative and a positive detuning within the range of a symmetric
    recipe axis, stratified in their square."""
    top = max(abs(v) for v in values)
    low, high = strata(0.0, top * top, 2, u)
    return (-float(np.sqrt(low)), float(np.sqrt(high)))


def mirror_pair(values, u):
    """-x and +x for x drawn within the range of a symmetric recipe axis."""
    (x,) = strata(0.0, max(abs(v) for v in values), 1, u)
    return (-x, x)


def beta_purcell(cfg):
    """Collection branching ratio from the Purcell factors of both modes."""

    def rate(det):
        return 4.0 * cfg.g_GHz**2 / cfg.kappa_GHz / (1.0 + (2.0 * det / cfg.kappa_GHz) ** 2)

    r_c, r_e = rate(cfg.delta_omega_c_GHz), rate(cfg.delta_omega_e_GHz)
    return r_c / (r_c + r_e + cfg.gamma_bg_GHz)


def check_values(values, what):
    values = np.asarray(values, dtype=float)
    require(np.all(np.isfinite(values)), f"{what}: non-finite value")
    require(np.all(values >= 0.0), f"{what}: negative value {values.min():.3e}")


def check_reference(cfg, got, reference, scale=1.0):
    """Compare a cavex pi_e (times scale) with the independent reference.

    The reference's trapezoid over cavex's output grid carries the same
    output-sampling term, so what is left is the drive-interpolation and
    solver part of the budget, PI_E_TOL.  Returns the pi_e error against
    the exact reference.
    """
    exact, sampled = reference(cfg)
    require(
        abs(got - scale * sampled) <= PI_E_TOL * scale,
        f"pi_e {got / scale:.9f} vs reference {sampled:.9f} (exact {exact:.9f}) "
        f"differs by more than {PI_E_TOL:g}",
    )
    return abs(got - scale * exact) / scale


class Workload:
    def draw(self, seed, out_dir):
        self.seed, self.out_dir = seed, out_dir


class PowerPhonon(Workload):
    """Blue and red phonon power sweeps plus fig4 MaxOverAmplitude entries."""

    def __init__(self, root):
        self.blue = load_config(root / "configs/fig2c.ini")
        self.red = load_config(root / "configs/fig2d.ini")
        self.fig4 = load_config(root / "configs/fig4.ini")
        self.power = load_sweep(root / "configs/fig2c.ini").axis1_values
        self.grid = load_sweep(root / "configs/fig4.ini")

    def round(self, k):
        power, grid = self.power, self.grid
        u = kronecker(self.seed, 1, k, 4)
        return {
            "amps": (0.0,) + strata(min(power), max(power), 2, u[0]),
            "dwe": signed_pair(grid.axis1_values, u[1]),
            "dwl": mirror_pair(grid.axis2_values, u[2]),
            "grid": strata(min(grid.amplitude_grid), max(grid.amplitude_grid), 2, u[3]),
        }

    def warm_up(self):
        sweeps.power_sweep(self.blue, [1.0])
        sweeps.modesplit_map(self.fig4, [-50.0], [88.0], [1.0])

    def run(self, rnd):
        blue = sweeps.power_sweep(self.blue, rnd["amps"])
        red = sweeps.power_sweep(self.red, rnd["amps"])
        split = sweeps.modesplit_map(self.fig4, rnd["dwe"], rnd["dwl"], rnd["grid"])
        return 2 * len(rnd["amps"]) + split.values.size * len(rnd["grid"]), (rnd, blue, red, split)

    def check(self, records, reference):
        for rnd, *results in records:
            amps = np.asarray(rnd["amps"])
            for base, res in zip((self.blue, self.red), results):
                check_values(res.values, "power sweep pi_e")
                require(res.values[0] == 0.0, f"pi_e at zero amplitude is {res.values[0]!r}")
                beta = beta_purcell(base)
                require(abs(res.metadata["beta_c"] - beta) <= 1e-12, "beta_c differs from the Purcell formula")
                require(
                    np.allclose(res.metadata["eta_c"], beta * res.values, rtol=1e-12, atol=0.0),
                    "eta_c != beta_c * pi_e",
                )
                area = np.asarray(res.metadata["intracavity_area_pi"])
                require(area[0] == 0.0, "intracavity area at zero amplitude is not 0")
                slope = area[1:] / amps[1:]
                require(np.ptp(slope) <= 1e-9 * slope.max(), "intracavity area is not linear in amplitude")
            check_values(results[2].values, "MaxOverAmplitude eta_c")
        # spot cells of round 0: the largest power-sweep pi_e, and the first
        # fig4 entry over its whole inner grid
        rnd, blue, red, split = records[0]
        base, res = max(((self.blue, blue), (self.red, red)), key=lambda pair: pair[1].values.max())
        j = int(np.argmax(res.values))
        cfg = apply_override(base, "pulse.amplitude_pi", rnd["amps"][j])
        errs = [check_reference(cfg, res.values[j], reference)]
        cfg = apply_override(self.fig4, "system.delta_omega_e_GHz", rnd["dwe"][0])
        cfg = apply_override(cfg, "pulse.delta_omega_L_GHz", rnd["dwl"][0])
        beta = beta_purcell(cfg)
        refs = [reference(apply_override(cfg, "pulse.amplitude_pi", a)) for a in rnd["grid"]]
        best = max(sampled for _, sampled in refs) * beta
        require(
            abs(split.values[0, 0] - best) <= PI_E_TOL * beta,
            f"MaxOverAmplitude eta_c {split.values[0, 0]:.9f} vs reference {best:.9f}",
        )
        errs.append(abs(split.values[0, 0] / beta - max(exact for exact, _ in refs)))
        return {"pi_e_abs_err_max": max(errs), "mirror_abs_diff_max": 0.0}


class MapNoPhonon(Workload):
    """Phonon-free laser-detuning and cavity-detuning rows (fig3a, figS1)."""

    def __init__(self, root):
        self.fig3a = load_config(root / "configs/fig3a.ini")
        self.s1 = [
            apply_override(load_config(root / f"configs/{name}.ini"), "phonon.enabled", False)
            for name in ("figS1blue", "figS1red")
        ]
        self.laser = load_sweep(root / "configs/fig3a.ini")
        self.cavity = load_sweep(root / "configs/figS1blue.ini")

    def round(self, k):
        laser, cavity = self.laser, self.cavity
        u = kronecker(self.seed, 2, k, 3)
        return {
            "dwl": span(laser.axis1_values, u[0]),
            "dwc": signed_pair(cavity.axis1_values, u[1]),
            "side": k % 2,
            "amps": (0.0,) + strata(min(laser.axis2_values), max(laser.axis2_values), 4, u[2]),
        }

    def warm_up(self):
        sweeps.detuning_amplitude_map(self.fig3a, [60.0], [1.0])
        sweeps.cavity_detuning_map(self.s1[0], [0.0], [1.0])

    def run(self, rnd):
        laser = sweeps.detuning_amplitude_map(self.fig3a, [rnd["dwl"]], rnd["amps"])
        cavity = sweeps.cavity_detuning_map(self.s1[rnd["side"]], rnd["dwc"], rnd["amps"])
        return (1 + len(rnd["dwc"])) * len(rnd["amps"]), (rnd, laser, cavity)

    def _cavity_cell(self, rnd, amp):
        base = self.s1[rnd["side"]]
        offset = base.delta_omega_e_GHz - base.delta_omega_c_GHz
        cfg = apply_override(base, "system.delta_omega_c_GHz", rnd["dwc"][0])
        cfg = apply_override(cfg, "system.delta_omega_e_GHz", rnd["dwc"][0] + offset)
        return apply_override(cfg, "pulse.amplitude_pi", amp)

    def check(self, records, reference):
        for rnd, laser, cavity in records:
            for res, what in ((laser, "fig3a pi_e"), (cavity, "figS1 eta_c")):
                check_values(res.values, what)
                require(np.all(res.values[:, 0] == 0.0), f"{what} at zero amplitude is not 0")
            require(
                tuple(laser.metadata["row_maxima"]) == tuple(laser.values.max(axis=1)),
                "row_maxima differs from the row maxima",
            )
        rnd, laser, cavity = records[0]
        j = int(np.argmax(laser.values[0]))
        cfg = apply_override(self.fig3a, "pulse.delta_omega_L_GHz", rnd["dwl"])
        cfg = apply_override(cfg, "pulse.amplitude_pi", rnd["amps"][j])
        errs = [check_reference(cfg, laser.values[0, j], reference)]
        j = int(np.argmax(cavity.values[0]))
        cfg = self._cavity_cell(rnd, rnd["amps"][j])
        errs.append(check_reference(cfg, cavity.values[0, j], reference, scale=beta_purcell(cfg)))
        return {"pi_e_abs_err_max": max(errs), "mirror_abs_diff_max": 0.0}


class SimulateTight(Workload):
    """Mirror pairs of ``cavex simulate`` cells at solver.tol = 1e-12.

    A round is two mirror pairs, (dwL, dwe, dwc) and (-dwL, -dwe, -dwc):
    one at the blue and one at the red operating point of fig2c and fig2d
    (dwL, dwe), their amplitudes and cavity detunings drawn as stratified
    pairs.  At this tolerance a cell's cost follows the drive: it doubles between
    (dwL, dwe) = (0, 0) and (120, 100) GHz, and it grows with the amplitude
    up to about 6 pi and flattens above.  So the amplitudes come from the
    upper half of the fig2c axis, where the inversion maxima lie, and the
    cavity detunings from +-5 GHz, the centre of the figS1 axis: the
    ring-down tail grows as 1 + (2 dwc / kappa)^2, 6.8 times at its ends.
    """

    DWC_GHZ = 5.0

    def __init__(self, root):
        self.base = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        self.base.optionxform = str
        self.base.read(root / "configs/default.ini")
        self.points = [
            (cfg.delta_omega_L_GHz, cfg.delta_omega_e_GHz)
            for cfg in (load_config(root / f"configs/{name}.ini") for name in ("fig2c", "fig2d"))
        ]
        self.power = load_sweep(root / "configs/fig2c.ini").axis1_values

    def round(self, k):
        top = max(self.power)
        u = kronecker(self.seed, 3, k, 2)
        amps = strata(top / 2.0, top, 2, u[0])
        dwcs = signed_pair((self.DWC_GHZ,), u[1])
        cells = []
        for p, ((dwl, dwe), amp, dwc) in enumerate(zip(self.points, amps, dwcs)):
            for side, sign in (("a", 1.0), ("b", -1.0)):
                name = f"r{k:02d}p{p}{side}"
                cells.append((name, self._write_ini(name, (sign * dwl, sign * dwe, sign * dwc), amp)))
        return cells

    def _write_ini(self, name, det, amp, tol="1e-12"):
        ini = configparser.ConfigParser()
        ini.optionxform = str
        ini.read_dict(self.base)
        ini["pulse"]["delta_omega_L_GHz"] = repr(det[0])
        ini["pulse"]["amplitude_pi"] = repr(amp)
        ini["system"]["delta_omega_e_GHz"] = repr(det[1])
        ini["system"]["delta_omega_c_GHz"] = repr(det[2])
        ini["phonon"]["enabled"] = "false"
        ini["solver"]["tol"] = tol
        path = self.out_dir / f"{name}.ini"
        with open(path, "w", encoding="utf-8") as fh:
            ini.write(fh)
        return path

    def _simulate(self, ini, out):
        code = cli.main(["simulate", "--config", str(ini), "--out", str(out)])
        require(code == 0, f"cavex simulate {ini.name} exited {code}")

    def warm_up(self):
        ini = self._write_ini("warm_up", (88.0, -50.0, 0.0), 1.0, tol="1e-8")
        self._simulate(ini, self.out_dir / "warm_up")

    def run(self, rnd):
        for name, ini in rnd:
            self._simulate(ini, self.out_dir / name)
        return len(rnd), rnd

    def _check_cell(self, name, ini):
        """Check one simulate output against its own CSV; return its pi_e."""
        out = self.out_dir / name
        summary = json.loads((out / "summary.json").read_text())
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        t, rho_ee, n, sz = table[:, 0], table[:, 1], table[:, 2], table[:, 5]
        cfg = load_config(ini)
        check_values([summary["pi_e"]], "simulate pi_e")
        require(abs(summary["eta_c"] - beta_purcell(cfg) * summary["pi_e"]) <= 1e-12, "eta_c != beta_c * pi_e")
        # the CSV keeps 9 significant digits: relative 5e-9 on every value and time
        flux = cfg.kappa_GHz * 2e-3 * np.pi * n
        trapz = np.trapezoid(flux, t)
        bound = 5e-9 * (np.trapezoid(np.abs(flux), t) + np.abs(t).max() * np.abs(np.diff(flux)).sum())
        require(
            abs(trapz - summary["pi_e"]) <= 2.0 * bound,
            f"{name}: pi_e {summary['pi_e']!r} vs CSV trapezoid {float(trapz)!r}",
        )
        sz_err = np.abs(sz - (2.0 * rho_ee - 1.0)) - 5e-9 * (np.abs(sz) + 2.0 * np.abs(rho_ee))
        require(sz_err.max() <= 1e-9, f"{name}: sz != 2 rho_ee - 1 (excess {sz_err.max():.2e})")
        return summary["pi_e"]

    def check(self, records, reference):
        mirror = 0.0
        for rnd in records:
            for (name, ini), (mirror_name, mirror_ini) in zip(rnd[::2], rnd[1::2]):
                diff = abs(self._check_cell(name, ini) - self._check_cell(mirror_name, mirror_ini))
                require(diff <= 1e-8, f"{name}: mirror pair differs by {diff:.2e}")
                mirror = max(mirror, diff)
        name, ini = records[0][0]
        got = json.loads((self.out_dir / name / "summary.json").read_text())["pi_e"]
        err = check_reference(load_config(ini), got, reference)
        return {"pi_e_abs_err_max": err, "mirror_abs_diff_max": mirror}


WORKLOADS = {"power_phonon": PowerPhonon, "map_nophonon": MapNoPhonon, "simulate_tight": SimulateTight}
