"""cavex benchmark: one serial, BLAS-pinned process per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload power_phonon --seed 1 --seconds 25 --trace 0

Workloads (bench/workloads.py, bench/README.md): power_phonon,
map_nophonon, simulate_tight.  A run

1. starts PROBES fresh interpreters that each import cavex, load the
   workload's recipes and make its seeded inputs (setup_s is their median);
2. does the same set-up in this process, then an untimed warm-up;
3. runs whole rounds of the workload through cavex's public API, and stops
   once the elapsed time plus half a mean round reaches --seconds (at least
   one round), so the timed part ends as near --seconds as whole rounds
   allow;
4. checks every output: properties, plus an independent reference
   (bench/reference.py) on spot cells;
5. prints one JSON line: with --trace 0 the end-to-end metrics setup_s,
   cells_per_s and peak_rss_mb; with --trace 1 the per-layer metrics of a
   run traced from outside (bench/tracing.py) and the tracing overhead.

Exit codes: 0 when every check holds, 1 when a check fails (the JSON line is
printed with "correct": false), 2 when the checkout holds no cavex sources.
"""

import os

# pinned before numpy is first imported, here and in the probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
PROBES = 5


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("power_phonon", "map_nophonon", "simulate_tight"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def probe(args, out_dir):
    """Median set-up stage times over PROBES fresh interpreters."""
    runs = []
    for k in range(PROBES):
        probe_dir = out_dir / f"probe{k}"
        probe_dir.mkdir()
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed), str(probe_dir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
        shutil.rmtree(probe_dir)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def timed_rounds(workload, seconds):
    """Whole rounds until elapsed time plus half a mean round reaches `seconds`.

    Round k's inputs are made before its timer starts.  Returns the records,
    and the cells and seconds of each round.
    """
    records, cells, times = [], [], []
    for k in itertools.count():
        rnd = workload.round(k)
        t0 = perf_counter()
        n, record = workload.run(rnd)
        times.append(perf_counter() - t0)
        cells.append(n)
        records.append(record)
        elapsed = sum(times)
        if elapsed + 0.5 * elapsed / len(times) >= seconds:
            break
    return records, cells, times


def main():
    args = parse_args()
    if not (ROOT / "src" / "cavex" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no cavex checkout (src/cavex, configs)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore", RuntimeWarning)  # near-degenerate eigenbasis notices

    import cavex

    if not Path(cavex.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported cavex from {cavex.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import reference
    from workloads import WORKLOADS, CheckError

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    try:
        stages = probe(args, out_dir)
        workload = WORKLOADS[args.workload](ROOT)
        workload.draw(args.seed, out_dir)
        workload.warm_up()
        metrics = {}
        if args.trace:
            from tracing import Tracer

            # the overhead compares round 0 untraced with round 0 traced
            rnd = workload.round(0)
            t0 = perf_counter()
            workload.run(rnd)
            untraced_s = perf_counter() - t0
            tracer = Tracer()
            tracer.install()
            try:
                records, cells, times = timed_rounds(workload, args.seconds)
            finally:
                tracer.uninstall()
            metrics.update(tracer.metrics(sum(cells)))
            traced, untraced = cells[0] / times[0], cells[0] / untraced_s
            metrics["trace.cells_per_s_traced"] = (traced, "cells/s")
            metrics["trace.cells_per_s_untraced"] = (untraced, "cells/s")
            metrics["trace.overhead_pct"] = (100.0 * (untraced / traced - 1.0), "%")
            metrics["setup.import_s"] = (stages["import_s"], "s")
            metrics["config.load_s"] = (stages["config_s"], "s")
        else:
            records, cells, times = timed_rounds(workload, args.seconds)
            metrics["setup_s"] = (stages["total_s"], "s")
            metrics["cells_per_s"] = (sum(cells) / sum(times), "cells/s")
            # ru_maxrss never falls: read now, it is the peak of set-up and
            # timed rounds, before the checks allocate their own
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        correct = True
        try:
            checks = workload.check(records, reference.pi_e)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        else:
            if args.trace:
                metrics["check.pi_e_abs_err_max"] = (checks["pi_e_abs_err_max"], "1")
                metrics["check.mirror_abs_diff_max"] = (checks["mirror_abs_diff_max"], "1")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": sum(cells),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
