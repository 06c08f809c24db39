"""Set-up probe: one fresh interpreter's set-up for a workload, by stage.

Usage (from the checkout root):
    python3 bench/probe.py <workload> <seed> <out_dir>

Imports cavex, loads the workload's recipes and makes the inputs of its
first round, then prints {"import_s", "config_s", "inputs_s", "total_s"} as JSON.
bench/run.py starts it several times per run for the setup_s metric.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import cavex  # noqa: E402,F401

T_IMPORT = perf_counter()

import json  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(name, seed, out_dir):
    t0 = perf_counter()
    workload = WORKLOADS[name](ROOT)
    t1 = perf_counter()
    workload.draw(seed, Path(out_dir))
    workload.round(0)
    t2 = perf_counter()
    return {
        "import_s": T_IMPORT - T0,
        "config_s": t1 - t0,
        "inputs_s": t2 - t1,
        "total_s": t2 - T0,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
