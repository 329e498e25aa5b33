"""Run the benchmark on several seeds and summarize each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload grid spherical subspace \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

Each (workload, seed) is one ``run.py --trace 0`` run of ``run_seconds``
(from BENCHMARK.json).  For every end-to-end metric it reports the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound.  With ``--trace-seed`` it
adds one ``--trace 1`` run per workload for the per-layer numbers.  The
output file also records the machine and the pinned thread environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            result = bench(workload, seed, trace=0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bounds[name], "values": vals}
            print(f"  {workload:10s} {name:12s} median {median:12.6g}  spread "
                  f"{rows[name]['spread']:.4f}  (bound {bounds[name]})", file=sys.stderr)
        summary[workload] = {"seeds": args.seeds, "end_to_end": rows}
        if args.trace_seed is not None:
            traced = bench(workload, args.trace_seed, trace=1)
            summary[workload]["per_layer"] = {
                "seed": args.trace_seed,
                **{k: v["value"] for k, v in traced["metrics"].items()},
            }
    if args.out:
        env = json.loads((HERE / "workloads.json").read_text())["env"]
        payload = {"machine": machine(), "env": env, "run_seconds": SPEC["run_seconds"],
                   "workloads": summary}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
