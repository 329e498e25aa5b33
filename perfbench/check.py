"""Correctness check of one workload step's output against its reference.

Each step writes one output file.  ``observe`` reads it into one record per
operation (a certify cell, a tv-exact row, a scan-ank row or a diagnostic
row); ``compare`` checks a record against the committed reference.  The
tolerances hold for any workload seed and for any change that only alters
the random stream:

* exact quantities (exact-provenance bounds, quadrature TV) must match to a
  fixed relative or absolute precision;
* an empirical Kolmogorov distance may move by twice the DKW band of its
  sample size, and a histogram TV by twice the multinomial L1 deviation
  bound (Weissman et al. 2003) of its bin count, both at ``DEVIATION_DELTA``;
* a ``unconditional[monte-carlo]`` bound must lie between the closed-form
  value of the same bound (computed from exact lp moments when the
  reference was made) and the Monte Carlo reference, widened by
  ``MC_SIGMAS`` seed-to-seed standard deviations; a report that switched
  to exact moments must match that closed form;
* a diagnostic ratio must lie within ``Z_LIMIT`` combined standard errors of
  the reference, and an Ank fraction within three binomial standard errors.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EXACT_RTOL = 1e-9
TV_EXACT_ATOL = 1e-8
DEVIATION_DELTA = 1e-6
MC_SIGMAS = 8.0
Z_LIMIT = 6.0
MONTE_CARLO = "[monte-carlo]"

OUTPUT_FILES = {
    "certify": "certify.json",
    "tv-exact": "tv_exact.csv",
    "scan-ank": "ank_scan.csv",
    "reflection": "reflection_diagnostics.csv",
    "rotation": "rotation_diagnostics.csv",
}
ROTATION_RATIOS = ("r1", "r2", "r3")


def output_kind(step: dict) -> str:
    """Which output file a workload step writes."""
    if step["command"] == "diagnose":
        return step["config"]["experiment"]
    return step["command"]


def dkw_band(n_samples: int, delta: float = DEVIATION_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def l1_deviation(n_samples: int, delta: float = DEVIATION_DELTA) -> float:
    """Weissman bound on ||P_hat - P||_1 for the CLI's ceil(N^(1/3)) bins."""
    bins = math.ceil(n_samples ** (1.0 / 3.0))
    return math.sqrt(2.0 * (bins * math.log(2.0) + math.log(1.0 / delta)) / n_samples)


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cell_key(report: dict) -> str:
    spec = report["spec"]
    p = f" p={spec['p']}" if "p" in spec else ""
    return f"{spec['kind']}{p} n={report['n']} theta={report['theta']}"


def observe(kind: str, out_dir: Path) -> dict[str, dict]:
    """Read a step's output into {operation key: observed values}.

    Raises OSError or ValueError (including JSON and key errors) when the
    file is missing or malformed.
    """
    path = out_dir / OUTPUT_FILES[kind]
    if kind == "certify":
        with open(path) as fh:
            payload = json.load(fh)
        return {
            _cell_key(r): {
                "passed": r["passed"],
                "margin": r["margin"],
                "bound_name": r["bound_name"],
                "bound": r["bound"]["value"],
                "empirical": r["empirical"]["point_estimate"],
                "empirical_kind": r["empirical"]["kind"],
                "N": r["N"],
                "cell": {"kind": r["spec"]["kind"], "p": r["spec"].get("p"), "n": r["n"],
                         "theta": r["theta"]},
            }
            for r in payload["reports"]
        }
    rows = _csv_rows(path)
    if kind == "tv-exact":
        return {
            f"n={r['n']}": {"tv": float(r["tv_exact"]), "bound": float(r["bound_8_over_n_minus_1"])}
            for r in rows
        }
    if kind == "scan-ank":
        return {
            f"n={r['n']}": {"fraction": float(r["fraction"]), "n_subspaces": int(r["n_subspaces"])}
            for r in rows
        }
    if kind == "reflection":
        return {
            f"theta={r['theta']}": {
                "ratio": float(r["slope_over_expected"]),
                "ratio_se": float(r["slope_se"]) / float(r["expected_slope"]),
            }
            for r in rows
        }
    if kind == "rotation":
        return {
            f"eps={r['eps']}": {
                f"{name}{suffix}": float(r[f"{name}{suffix}"])
                for name in ROTATION_RATIOS
                for suffix in ("", "_se")
            }
            for r in rows
        }
    raise ValueError(f"unknown output kind {kind!r}")


def operations(kind: str, ref: dict) -> int:
    """How many operations one reference record stands for."""
    return ref["n_subspaces"] if kind == "scan-ank" else 1


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _check_certify(obs: dict, ref: dict) -> list[str]:
    problems = []
    if not obs["passed"] or not obs["margin"] >= 0.0:
        problems.append(f"verdict FAIL (margin {obs['margin']:.6g})")
    name, value = obs["bound_name"], obs["bound"]
    if MONTE_CARLO not in ref["bound_name"]:
        if name != ref["bound_name"] or not _rel(value, ref["bound"]) <= EXACT_RTOL:
            problems.append(f"bound {name}={value!r}, reference {ref['bound_name']}={ref['bound']!r}")
    elif name.split("[")[0] != ref["bound_name"].split("[")[0]:
        problems.append(f"bound route {name}, reference {ref['bound_name']}")
    elif MONTE_CARLO not in name:
        if not _rel(value, ref["bound_exact"]) <= EXACT_RTOL:
            problems.append(f"bound {name}={value!r}, closed form {ref['bound_exact']!r}")
    else:
        spread = MC_SIGMAS * ref["bound_sd"]
        lo = min(ref["bound_exact"], ref["bound"]) - spread
        hi = ref["bound"] + spread
        if not lo <= value <= hi:
            problems.append(f"Monte Carlo bound {value:.6g} outside [{lo:.6g}, {hi:.6g}]")
    if obs["empirical_kind"] != ref["empirical_kind"] or obs["N"] != ref["N"]:
        problems.append(f"empirical {obs['empirical_kind']} at N={obs['N']}")
    else:
        band = dkw_band if ref["empirical_kind"] == "kolmogorov" else l1_deviation
        tol = 2.0 * band(ref["N"])
        if not abs(obs["empirical"] - ref["empirical"]) <= tol:
            problems.append(
                f"empirical {obs['empirical']:.6g} vs reference {ref['empirical']:.6g} (tol {tol:.3g})"
            )
    return problems


def _z_problems(obs: dict, ref: dict, names) -> list[str]:
    problems = []
    for name in names:
        se = math.hypot(obs[f"{name}_se"], ref[f"{name}_se"])
        if not abs(obs[name] - ref[name]) <= Z_LIMIT * se:
            problems.append(f"{name} {obs[name]:.6g} vs reference {ref[name]:.6g} (se {se:.3g})")
    return problems


def compare(kind: str, obs: dict, ref: dict) -> tuple[int, list[str]]:
    """(failed operations, problems) of one observed record against its reference."""
    if kind == "certify":
        problems = _check_certify(obs, ref)
    elif kind == "tv-exact":
        problems = []
        if not abs(obs["tv"] - ref["tv"]) <= TV_EXACT_ATOL:
            problems.append(f"tv {obs['tv']!r} vs reference {ref['tv']!r}")
        if not obs["tv"] <= obs["bound"]:
            problems.append(f"tv {obs['tv']:.6g} exceeds 8/(n-1)")
    elif kind == "scan-ank":
        count = ref["n_subspaces"]
        frac, want = obs["fraction"], ref["fraction"]
        if obs["n_subspaces"] != count:
            return count, [f"{obs['n_subspaces']} subspaces, reference {count}"]
        tol = 3.0 * math.sqrt(max(want * (1.0 - want), 1.0 / count) / count)
        if not abs(frac - want) <= tol:
            return count, [f"fraction {frac:.4f} vs reference {want:.4f} (tol {tol:.3g})"]
        bad = round((1.0 - frac) * count)
        return bad, [f"{bad} subspaces above eps"] if bad else []
    elif kind == "reflection":
        problems = _z_problems(obs, ref, ("ratio",))
    else:
        problems = _z_problems(obs, ref, ROTATION_RATIOS)
    return (1 if problems else 0), problems


def check_step(kind: str, out_dir: Path, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one step's output against its reference.

    A missing or malformed output fails every operation of the step; a
    missing or unexpected operation fails too.
    """
    attempted = sum(operations(kind, ref) for ref in reference.values())
    try:
        observed = observe(kind, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"{kind}: unreadable output ({exc!r})"]
    failed, problems = 0, []
    for key, ref in reference.items():
        if key not in observed:
            failed += operations(kind, ref)
            problems.append(f"{kind} {key}: missing")
            continue
        bad, found = compare(kind, observed[key], ref)
        failed += bad
        problems += [f"{kind} {key}: {p}" for p in found]
    for key in observed.keys() - reference.keys():
        attempted += 1
        failed += 1
        problems.append(f"{kind} {key}: not in the reference")
    return attempted, failed, problems
