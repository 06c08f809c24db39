"""Recipe witness: every shipped figure recipe, cut down, through `cavex sweep`.

Usage, from the root of a checkout:

    python3 tools/recipe_witness.py run OUT.json [--root CHECKOUT]
    python3 tools/recipe_witness.py compare BEFORE.json AFTER.json

``run`` takes each ``configs/*.ini`` of CHECKOUT (default: this checkout)
that has a ``[sweep]`` section, cuts it to the first two axis-1 values, the
first three axis-2 values and the first two ``amplitude_grid`` points, sets
``solver.n_field_points = 4096`` and ``solver.n_traj_points = 600``, and runs
``cavex sweep`` on it with CHECKOUT's own sources, one serial process per
recipe with the BLAS threads pinned to 1.  It writes every cut map to
OUT.json as ``{recipe: {"header": [...], "rows": [...]}}``, each row the
cell's axis values from ``map.csv`` and its value at full precision: the
value that CHECKOUT's ``run_sweep`` computes on the cut recipe, which must
equal the 9 significant digits of ``map.csv``.

For every recipe reduced to ``PiE`` or ``EtaC``, ``run`` also stores the
``exact`` value of ``bench/reference.py`` (an independent integration that
carries the cavity filter equation as state) for the cut map's largest
cell, times ``beta_c`` for an ``EtaC`` map.

``compare`` prints, per recipe, the largest |difference| between the map
values of two such files and the cell where it occurs, then the value of
each reference cell in both files next to its reference, and last a line
naming the recipes whose maps are bit-identical (every value the same
float, max |diff| = 0).  It exits
1 if any reference cell lies farther from its reference in AFTER than in
BEFORE by more than 1e-9.
"""

import argparse
import configparser
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CUTS = {"axis1_values": 2, "axis2_values": 3, "amplitude_grid": 2}
SOLVER = {"n_field_points": "4096", "n_traj_points": "600"}
DRIFT = 1e-9  # how much farther from its reference a cell may move

# run with the checkout's src/ on the path: argv is the cut recipe; prints
# run_sweep's values on it in row-major order, at full precision
VALUES = """
import json, sys
from cavex import load_config, load_sweep, run_sweep
print(json.dumps(run_sweep(load_config(sys.argv[1]), load_sweep(sys.argv[1])).values.ravel().tolist()))
"""

# run with the checkout's src/ and bench/ on the path: argv is the cut
# recipe and the cell's {axis path: value}; prints the reference map value,
# or nothing for a recipe reduced to neither PiE nor EtaC
REFERENCE = """
import json, sys
import reference
from cavex import apply_override, beta_collection, load_config, load_sweep
cfg, spec = load_config(sys.argv[1]), load_sweep(sys.argv[1])
if spec.reduce not in ("PiE", "EtaC"):
    sys.exit()
offset = cfg.delta_omega_e_GHz - cfg.delta_omega_c_GHz
for path, value in json.loads(sys.argv[2]).items():
    cfg = apply_override(cfg, path, value)
    if spec.kind == "cavity_map" and path == "system.delta_omega_c_GHz":
        cfg = apply_override(cfg, "system.delta_omega_e_GHz", cfg.delta_omega_c_GHz + offset)
scale = beta_collection(cfg.system()) if spec.reduce == "EtaC" else 1.0
print(repr(scale * reference.pi_e(cfg)[0]))
"""


def cut_recipe(src, dst):
    """Write the cut copy of recipe `src` to `dst`; False if it has no sweep."""
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    ini.optionxform = str
    ini.read(src)
    if "sweep" not in ini:
        return False
    for key, n in CUTS.items():
        if key in ini["sweep"]:
            ini["sweep"][key] = " ".join(ini["sweep"][key].replace(",", " ").split()[:n])
    if "solver" not in ini:
        ini["solver"] = {}
    ini["solver"].update(SOLVER)
    with open(dst, "w", encoding="utf-8") as fh:
        ini.write(fh)
    return True


def run(root, out):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(root / "bench"))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    maps = {}

    def python(what, *argv):
        done = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{what} exited {done.returncode}\n{done.stderr}")
        return done.stdout

    with tempfile.TemporaryDirectory() as tmp:
        for recipe in sorted((root / "configs").glob("*.ini")):
            ini = Path(tmp) / recipe.name
            if not cut_recipe(recipe, ini):
                continue
            out_dir = Path(tmp) / recipe.stem
            python(f"{recipe.name}: cavex sweep", "-m", "cavex.cli", "sweep", "--config", str(ini),
                   "--out", str(out_dir), "--format", "csv")
            with open(out_dir / "map.csv", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            values = json.loads(python(f"{recipe.name}: run_sweep", "-c", VALUES, str(ini)))
            if len(values) != len(rows) or any(f"{v:.8e}" != row[-1] for v, row in zip(values, rows)):
                sys.exit(f"{recipe.name}: map.csv does not hold run_sweep's values to 9 digits")
            rows = [[float(x) for x in row[:-1]] + [v] for row, v in zip(rows, values)]
            maps[recipe.stem] = {"header": header, "rows": rows}
            cell = max(rows, key=lambda row: row[-1])[:-1]
            reference = python(f"{recipe.name}: reference", "-c", REFERENCE, str(ini),
                               json.dumps(dict(zip(header, cell))))
            if reference.strip():
                maps[recipe.stem]["reference"] = {"cell": cell, "value": float(reference)}
            print(f"{recipe.stem}: {len(rows)} cells", file=sys.stderr)
    Path(out).write_text(json.dumps(maps, indent=1) + "\n", encoding="utf-8")


def compare(before, after):
    a = json.loads(Path(before).read_text(encoding="utf-8"))
    b = json.loads(Path(after).read_text(encoding="utf-8"))
    print(f"{'recipe':12s} {'cells':>5s} {'max |diff|':>11s}  at")
    names, identical = sorted(set(a) | set(b)), []
    for name in names:
        if name not in a or name not in b or a[name]["header"] != b[name]["header"]:
            print(f"{name:12s} not comparable: missing from one file or different axes")
            continue
        rows_a, rows_b = a[name]["rows"], b[name]["rows"]
        if [r[:-1] for r in rows_a] != [r[:-1] for r in rows_b]:
            print(f"{name:12s} not comparable: different cells")
            continue
        diff, row = max((abs(ra[-1] - rb[-1]), ra) for ra, rb in zip(rows_a, rows_b))
        cell = ", ".join(f"{p}={v:g}" for p, v in zip(a[name]["header"], row[:-1]))
        print(f"{name:12s} {len(rows_a):5d} {diff:11.3e}  {cell}")
        if diff == 0:
            identical.append(name)
    print(f"\n{'recipe':12s} {'before':>13s} {'after':>13s} {'reference':>13s} {'after-ref':>10s}  cell")
    drifted = []
    for name in sorted(b):
        if "reference" not in b[name] or name not in a:
            continue
        ref = b[name]["reference"]
        key = tuple(ref["cell"])
        va = {tuple(r[:-1]): r[-1] for r in a[name]["rows"]}.get(key)
        if va is None:
            print(f"{name:12s} reference cell missing from {before}")
            continue
        vb = {tuple(r[:-1]): r[-1] for r in b[name]["rows"]}[key]
        vr = ref["value"]
        cell = ", ".join(f"{p}={v:g}" for p, v in zip(b[name]["header"], key))
        print(f"{name:12s} {va:13.10f} {vb:13.10f} {vr:13.10f} {vb - vr:+10.2e}  {cell}")
        if abs(vb - vr) > abs(va - vr) + DRIFT:
            drifted.append(name)
    if drifted:
        print(f"moved away from the reference by more than {DRIFT:g}: {', '.join(drifted)}")
    print(f"bit-identical, {len(identical)} of {len(names)}: {', '.join(identical) or 'none'}")
    return 1 if drifted else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the cut recipes and write their map values")
    p_run.add_argument("out", type=Path)
    p_run.add_argument("--root", type=Path, default=Path.cwd(), help="checkout to run")
    p_cmp = sub.add_parser("compare", help="largest difference per recipe")
    p_cmp.add_argument("before", type=Path)
    p_cmp.add_argument("after", type=Path)
    args = parser.parse_args()
    if args.command == "run":
        run(args.root.resolve(), args.out)
    else:
        sys.exit(compare(args.before, args.after))


if __name__ == "__main__":
    main()
