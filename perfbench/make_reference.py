"""Rebuild ``perfbench/reference/<workload>.json`` from untraced passes.

Run from the root of a checkout at the commit whose outputs define correct:

    python3 perfbench/make_reference.py --workload grid --seeds 11 12 13 14 15

Each seed runs one pass.  Exact quantities must agree across seeds; Monte
Carlo quantities are averaged, with their seed-to-seed standard deviation
(bounds) or the mean reported standard error over sqrt(seeds) (diagnostic
ratios).  Each ``unconditional[monte-carlo]`` cell also records the same
bound evaluated on closed-form lp moments (``bound_exact``), which is what a
report that switched to exact moments must reproduce.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

import check
import run


def lp_exact_moments(kind: str, p: float, n: int) -> tuple[float, float, float]:
    """(E X_1^4, Cov(X_1^2, X_2^2), E|X_1|^3) of the isotropic lp ball or cone.

    For the unit body, X = G / S^(1/p) with G_i i.i.d. of density
    ~ exp(-|t|^p), and X is independent of S ~ Gamma(b), b = n/p + 1 (ball)
    or n/p (cone), so E prod |X_i|^a_i = prod G((a_i+1)/p)/G(1/p) * G(b)/G(b + sum a_i/p).
    """
    b = n / p + (1.0 if kind == "lp_ball" else 0.0)

    def moment(*powers):
        log = sum(math.lgamma((a + 1) / p) - math.lgamma(1 / p) for a in powers)
        return math.exp(log + math.lgamma(b) - math.lgamma(b + sum(powers) / p))

    var = moment(2)
    return moment(4) / var**2, moment(2, 2) / var**2 - 1.0, moment(3) / var**1.5


def exact_unconditional_bound(cell: dict) -> float:
    from cltbounds.bounds import bound_unconditional
    from cltbounds.certify import resolve_theta

    theta, _ = resolve_theta(cell["theta"], cell["n"])
    fourth, sq_cov, third = lp_exact_moments(cell["kind"], float(cell["p"]), cell["n"])
    return bound_unconditional(theta, fourth, sq_cov, third).value


def _single(values, what: str, atol: float = 0.0):
    if max(values) - min(values) > atol:
        raise SystemExit(f"{what} differs across seeds: {values}")
    return values[0]


def aggregate(kind: str, runs: list[dict]) -> dict:
    keys = runs[0].keys()
    if any(r.keys() != keys for r in runs):
        raise SystemExit(f"{kind}: operations differ across seeds")
    out = {}
    for key in sorted(keys):
        obs = [r[key] for r in runs]

        def mean(field):
            return statistics.fmean(o[field] for o in obs)

        def mean_se(field):
            return statistics.fmean(o[field] for o in obs) / math.sqrt(len(obs))

        if kind == "certify":
            names = {o["bound_name"] for o in obs}
            if len(names) != 1 or not all(o["passed"] for o in obs):
                raise SystemExit(f"{key}: bound names {names} or a failing verdict")
            ref = {
                "bound_name": names.pop(),
                "empirical": mean("empirical"),
                "empirical_kind": obs[0]["empirical_kind"],
                "N": obs[0]["N"],
            }
            if check.MONTE_CARLO in ref["bound_name"]:
                ref["bound"] = mean("bound")
                ref["bound_sd"] = statistics.stdev(o["bound"] for o in obs)
                ref["bound_exact"] = exact_unconditional_bound(obs[0]["cell"])
            else:
                ref["bound"] = _single([o["bound"] for o in obs], key)
        elif kind == "tv-exact":
            ref = {"tv": _single([o["tv"] for o in obs], key, atol=1e-12)}
        elif kind == "scan-ank":
            ref = {"fraction": mean("fraction"), "n_subspaces": obs[0]["n_subspaces"]}
        else:
            names = ("ratio",) if kind == "reflection" else check.ROTATION_RATIOS
            ref = {}
            for name in names:
                ref[name] = mean(name)
                ref[f"{name}_se"] = mean_se(f"{name}_se")
        out[key] = ref
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(run.WORKLOADS["workloads"]))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 3:
        parser.error("need at least three seeds")
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    steps = run.WORKLOADS["workloads"][args.workload]["steps"]
    work = root / run.WORK_DIR / f"reference-{args.workload}"
    observed = {step["name"]: [] for step in steps}
    for seed in args.seeds:
        result = run.run_pass(args.workload, seed, root, work, reference=None)
        print(f"seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)
        for step in steps:
            observed[step["name"]].append(check.observe(check.output_kind(step), work / step["name"]))
    reference = {
        "workload": args.workload,
        "seeds": args.seeds,
        "steps": {
            step["name"]: aggregate(check.output_kind(step), observed[step["name"]])
            for step in steps
        },
    }
    path = run.HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
