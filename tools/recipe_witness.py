"""Recipe witness: every shipped figure recipe, cut down, through `cavex sweep`.

Usage, from the root of a checkout:

    python3 tools/recipe_witness.py run OUT.json [--root CHECKOUT]
    python3 tools/recipe_witness.py compare BEFORE.json AFTER.json

``run`` takes each ``configs/*.ini`` of CHECKOUT (default: this checkout)
that has a ``[sweep]`` section, cuts it to the first two axis-1 values, the
first three axis-2 values and the first two ``amplitude_grid`` points, sets
``solver.n_field_points = 4096`` and ``solver.n_traj_points = 600``, and runs
``cavex sweep`` on it with CHECKOUT's own sources, one serial process per
recipe with the BLAS threads pinned to 1.  It writes the values of every
``map.csv`` to OUT.json as ``{recipe: {"header": [...], "rows": [...]}}``.

``compare`` prints, per recipe, the largest |difference| between the map
values of two such files and the cell where it occurs.
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
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    maps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for recipe in sorted((root / "configs").glob("*.ini")):
            ini = Path(tmp) / recipe.name
            if not cut_recipe(recipe, ini):
                continue
            out_dir = Path(tmp) / recipe.stem
            cmd = [sys.executable, "-m", "cavex.cli", "sweep", "--config", str(ini),
                   "--out", str(out_dir), "--format", "csv"]
            done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{recipe.name}: cavex sweep exited {done.returncode}\n{done.stderr}")
            with open(out_dir / "map.csv", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            maps[recipe.stem] = {"header": header, "rows": [[float(x) for x in row] for row in rows]}
            print(f"{recipe.stem}: {len(rows)} cells", file=sys.stderr)
    Path(out).write_text(json.dumps(maps, indent=1) + "\n", encoding="utf-8")


def compare(before, after):
    a = json.loads(Path(before).read_text(encoding="utf-8"))
    b = json.loads(Path(after).read_text(encoding="utf-8"))
    print(f"{'recipe':12s} {'cells':>5s} {'max |diff|':>11s}  at")
    for name in sorted(set(a) | set(b)):
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
        compare(args.before, args.after)


if __name__ == "__main__":
    main()
