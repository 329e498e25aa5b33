"""Per-stage time of certifying one spec: block fill, projection, Kolmogorov
sort and histogram, for the cltbounds checkout on PYTHONPATH.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/stage_split.py \
        --kind lp_ball --p 2 --n 100 --N 200000 --repeats 5

One streamed pass over ``iter_sample_blocks`` times each block's fill (the
generator step) apart from its projection onto the grid's four thetas; then
every projection row goes through ``kolmogorov_vs_normal`` and
``tv_vs_normal_histogram``.  Prints one JSON object with the median and
quartiles of each stage over the repeats, in seconds.  It uses only names
that predate streaming certification, so it times older checkouts as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from cltbounds.certify import resolve_theta
from cltbounds.empirical import ProjectionSample, kolmogorov_vs_normal, tv_vs_normal_histogram
from cltbounds.samplers import DistributionSpec, Kind, iter_sample_blocks

THETAS = ["diagonal", "random(101)", "random(102)", "random(103)"]


def one_pass(spec: DistributionSpec, n_samples: int, seed: int) -> dict[str, float]:
    thetas = np.column_stack([resolve_theta(t, spec.n)[0] for t in THETAS])
    out = np.empty((thetas.shape[1], n_samples))
    times = dict.fromkeys(("fill_s", "project_s", "ks_s", "hist_s"), 0.0)
    blocks = iter_sample_blocks(spec, n_samples, seed)
    lo = 0
    while True:
        start = time.perf_counter()
        block = next(blocks, None)
        times["fill_s"] += time.perf_counter() - start
        if block is None:
            break
        start = time.perf_counter()
        out[:, lo : lo + len(block)] = (block @ thetas).T
        times["project_s"] += time.perf_counter() - start
        lo += len(block)
        del block
    for row in out:
        ps = ProjectionSample(values=row)
        start = time.perf_counter()
        kolmogorov_vs_normal(ps)
        times["ks_s"] += time.perf_counter() - start
        start = time.perf_counter()
        tv_vs_normal_histogram(ps)
        times["hist_s"] += time.perf_counter() - start
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="lp_ball", choices=[k.value for k in Kind])
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--N", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    spec = DistributionSpec(kind=Kind(args.kind), n=args.n, p=args.p)
    runs = [one_pass(spec, args.N, args.seed + r) for r in range(args.repeats)]
    stages = {}
    for key in runs[0]:
        values = sorted(run[key] for run in runs)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        stages[key] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    print(json.dumps({"spec": spec.to_dict(), "N": args.N, "thetas": THETAS,
                      "repeats": args.repeats, "stages": stages}))


if __name__ == "__main__":
    main()
