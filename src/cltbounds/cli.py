"""Reproducible experiment runner.

One JSON config document describes a run; command-line flags only override
config fields.  Exit codes are a stable contract: 0 pass, 1 certification
failure, 2 config error, 3 no applicable bound, 4 internal error (a bug:
the traceback is printed, and the config is not to blame).

At the top this module imports the standard library and ``contract`` only;
each command imports the modules it runs, so ``--version``, ``--help``,
``report`` and an argument error load no numpy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from pathlib import Path

from .contract import (
    REPORT_SCHEMA,
    InapplicableBoundError,
    InsufficientDataError,
    SymmetryError,
    version_string,
)

EXIT_OK = 0
EXIT_CERTIFICATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERNAL_ERROR = 4


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required field {key!r}")
    return cfg[key]


def _nonempty_list(value, key: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key!r} must be a non-empty list")
    return value


def _spec_from_config(d, **fields) -> DistributionSpec:
    """The spec of a config distribution object, ``fields`` set over its own."""
    from .exact import DistributionSpec

    if not isinstance(d, dict):
        raise ConfigError(f"a distribution must be a JSON object, got {d!r}")
    d = {**d, **fields}
    _integer(d.get("n"), "'n'")
    p = d.get("p")  # a JSON number; from_dict also parses a string ("inf")
    if not (p is None or isinstance(p, (int, float, str)) and not isinstance(p, bool)):
        raise ConfigError(f"'p' must be a number, got {p!r}")
    try:
        return DistributionSpec.from_dict(d)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid distribution: {exc}") from exc


def _integer(value, name: str, least: float = -math.inf) -> int:
    """A config integer: an int that is not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        floor = "" if least == -math.inf else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")
    return value


def _positive_int(cfg: dict, key: str, least: int = 1) -> int:
    return _integer(_require(cfg, key), repr(key), least)


def _number(value, name: str, lo: float, hi: float) -> float:
    """A config number or numeric string, not a bool, strictly between lo and hi."""
    try:
        if isinstance(value, bool):  # float(True) would read 1.0
            raise TypeError
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not lo < number < hi:
        raise ConfigError(f"{name} must lie in ({lo}, {hi}), got {value!r}")
    return number


def _seed(cfg: dict) -> int:
    return _integer(cfg.get("seed", 0), "'seed'")


def _theta(theta_spec, n: int):
    from .certify import resolve_theta

    try:
        return resolve_theta(theta_spec, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid theta for n={n}: {exc}") from exc


def _path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return Path(value)


def _check_out_dir(cfg: dict) -> None:
    """Fail before computing if the output directory cannot be made: it, or
    else its nearest existing ancestor, must be a writable directory."""
    out = base = _path(cfg.get("out", "."), "'out'")
    while not base.exists() and base != base.parent:
        base = base.parent
    if not base.is_dir() or not os.access(base, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot make output directory {str(out)!r}: "
                          f"{str(base)!r} is not a writable directory")


def _out_dir(cfg: dict) -> Path:
    out = _path(cfg.get("out", "."), "'out'")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc}") from exc
    return out


def _workers() -> int:
    value = os.environ.get("CLTBOUNDS_THREADS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"CLTBOUNDS_THREADS must be a positive integer, got {value!r}")
    return workers


def _cmd_sample(cfg: dict) -> int:
    from .core import summarize
    from .samplers import sample

    spec = _spec_from_config(_require(cfg, "distribution"))
    n_samples = _positive_int(cfg, "N", least=2)  # the summary's covariance fields need two
    seed = _seed(cfg)
    out = _out_dir(cfg)
    batch = sample(spec, n_samples, seed)
    exponent = "" if spec.p is None else f"_p{float(spec.p)}"  # one file per lp exponent
    stem = f"{spec.kind.value}_n{spec.n}{exponent}_N{n_samples}_seed{seed}"
    batch.save(out / f"{stem}.bin")
    summary = summarize(batch)
    payload = {
        "version": version_string(),
        "config": cfg,
        "spec": batch.spec.to_dict(),
        "summary": summary.to_dict(),
    }
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {stem}.bin and {stem}.json to {out}")
    for key, value in summary.to_dict().items():
        print(f"  {key}: {value}")
    return EXIT_OK


def _expand_distributions(cfg: dict) -> list[DistributionSpec]:
    entries = _nonempty_list(_require(cfg, "distributions"), "distributions")
    specs = []
    for entry in entries:
        ns = entry.get("n") if isinstance(entry, dict) else None  # refused as a spec below
        n_values = ns if isinstance(ns, list) else [ns]
        if not n_values:
            raise ConfigError(f"invalid n in distribution entry {entry!r}")
        for n in n_values:
            specs.append(_spec_from_config(entry, n=n))
    return specs


def _cell_line(r: dict) -> str:
    """The PASS/FAIL line of one cell, from its ``BoundReport.to_dict()`` record."""
    spec = r["spec"]
    state = "PASS" if r["passed"] else "FAIL"
    extra = " (vacuous)" if r.get("vacuous") else ""
    p = f"(p={spec['p']})" if "p" in spec else ""
    return (
        f"{state}{extra} {spec['kind']}{p} n={r['n']} theta={r['theta']}: "
        f"empirical={r['empirical']['point_estimate']:.5f} "
        f"bound={r['bound']['value']:.5f} [{r['bound_name']}]"
    )


def _cmd_certify(cfg: dict) -> int:
    from .certify import certify_grid, reports_to_csv, reports_to_json
    from .empirical import DEFAULT_DELTA

    if "constants" in cfg:  # ignoring it would let an old forcing config pass
        raise ConfigError(
            "'constants' was removed: every gating bound carries the source's "
            "explicit constants; delete the field"
        )
    specs = _expand_distributions(cfg)
    thetas = _nonempty_list(cfg.get("theta", ["diagonal"]), "theta")
    n_samples = _positive_int(cfg, "N")
    seed = _seed(cfg)
    delta = _number(cfg.get("delta", DEFAULT_DELTA), "'delta'", 0.0, 1.0)
    workers = _workers()

    for spec in specs:  # fail fast, before any sampling
        for theta in thetas:
            _theta(theta, spec.n)
    _check_out_dir(cfg)
    # checks every route and the sample minimum of its estimator before any draw
    reports = certify_grid(specs, thetas, N=n_samples, seed=seed, delta=delta, workers=workers)
    out = _out_dir(cfg)  # only now, so a config error leaves no directory behind
    reports_to_json(reports, out / "certify.json", config=cfg)
    reports_to_csv(reports, out / "certify.csv")
    for r in reports:
        print(_cell_line(r.to_dict()))
    n_failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - n_failed}/{len(reports)} cells passed; wrote {out / 'certify.json'}")
    return EXIT_OK if n_failed == 0 else EXIT_CERTIFICATION_FAILED


def _cmd_scan_ank(cfg: dict) -> int:
    from .subspaces import ank_to_csv, check_ank_samples, estimate_Ank

    n_list = _nonempty_list(_require(cfg, "n_list"), "n_list")
    template = _require(cfg, "distribution")
    k = _positive_int(cfg, "k")
    eps = _number(_require(cfg, "eps"), "'eps'", 0.0, math.inf)
    n_subspaces = _positive_int(cfg, "n_subspaces")
    n_samples = _positive_int(cfg, "N")
    n_dirs = None if cfg.get("n_dirs") is None else _positive_int(cfg, "n_dirs")
    seed = _seed(cfg)
    specs = [_spec_from_config(template, n=n) for n in n_list]
    for spec in specs:  # fail fast, before any sampling or quadrature
        if k > spec.n:
            raise ConfigError(f"'k' must not exceed n, got k={k}, n={spec.n}")
        check_ank_samples(spec, k, n_samples)  # InsufficientDataError, SymmetryError: exit 2
    workers = _workers()
    _check_out_dir(cfg)
    results = []
    for spec in specs:
        est = estimate_Ank(
            spec, k=k, eps=eps, n_subspaces=n_subspaces, N=n_samples,
            seed=seed, n_dirs=n_dirs, workers=workers,
        )
        results.append(est)
        print(
            f"n={spec.n} k={k} eps={eps}: fraction={est.fraction:.3f} "
            f"(max sup={est.sup_distances.max():.4f}) [{est.label}]"
        )
    out = _out_dir(cfg)  # only now, so an error leaves no directory behind
    ank_to_csv(results, out / "ank_scan.csv")
    print(f"wrote {out / 'ank_scan.csv'}")
    return EXIT_OK


def _cmd_diagnose(cfg: dict) -> int:
    from .empirical import streaming_pair_square_covariance
    from .exact import Kind
    from .subspaces import (
        reflection_frame,
        reflection_pair_diagnostics,
        rotation_pair_diagnostics,
    )

    experiment = cfg.get("experiment", "reflection")
    seed = _seed(cfg)
    workers = _workers()
    _check_out_dir(cfg)
    if experiment == "reflection":
        spec = _spec_from_config(_require(cfg, "distribution"))
        n_samples = _positive_int(cfg, "N")
        frame = reflection_frame(spec.kind)  # the law decides it; lp_surface has none
        if cfg.get("frame") not in (None, frame):
            raise ConfigError(f"'frame' follows from the law: the {spec.kind.value} reflection "
                              f"pair reflects in the {frame!r} frame, got {cfg['frame']!r}")
        theta_specs = _nonempty_list(cfg.get("theta", ["e1"]), "theta")
        thetas = [_theta(theta_spec, spec.n) for theta_spec in theta_specs]
        diags = reflection_pair_diagnostics(
            spec, [theta for theta, _ in thetas], n_samples, seed, workers=workers
        )
        name = "reflection_diagnostics.csv"
        header = ["theta", "slope", "expected_slope", "slope_over_expected", "slope_se",
                  "intercept", "var_conditional", "third_abs", "sup_abs"]
        rows = []
        for (_, label), diag in zip(thetas, diags):
            rows.append(
                [label, diag.slope, 2.0 / spec.n, diag.slope * spec.n / 2.0, diag.slope_se,
                 diag.intercept, diag.var_conditional, diag.third_abs, diag.sup_abs]
            )
            print(
                f"theta={label}: slope={diag.slope:.6f} expected={2.0 / spec.n:.6f} "
                f"ratio={diag.slope * spec.n / 2.0:.4f} (se {diag.slope_se * spec.n / 2.0:.4f})"
            )
    elif experiment == "rotation":
        spec = _spec_from_config(_require(cfg, "distribution"))
        n_samples = _positive_int(cfg, "N")
        eps_list = _nonempty_list(cfg.get("eps_list", [0.2, 0.1, 0.05]), "eps_list")
        eps_list = [_number(eps, "'eps_list' entry", 0.0, 0.5) for eps in eps_list]
        diags = rotation_pair_diagnostics(spec, eps_list, n_samples, seed, workers=workers)
        name = "rotation_diagnostics.csv"
        header = ["eps", "r1", "r1_se", "r2", "r2_se", "r3", "r3_se"]
        rows = [[d.eps, d.r1, d.r1_se, d.r2, d.r2_se, d.r3, d.r3_se] for d in diags]
        for d in diags:
            print(
                f"eps={d.eps}: r1={d.r1:.4f}(se {d.r1_se:.4f}) "
                f"r2={d.r2:.4f}(se {d.r2_se:.4f}) r3={d.r3:.5f}"
            )
    elif experiment == "square-correlation":
        n_list = _nonempty_list(_require(cfg, "n_list"), "n_list")
        template = cfg.get("distribution", {"kind": "linf_exponential"})
        specs = [_spec_from_config(template, n=n) for n in n_list]
        if specs[0].kind is Kind.LP_SURFACE:
            raise ConfigError("square-correlation does not apply the lp_surface weights")
        n_samples = _positive_int(cfg, "N", least=2)  # a covariance needs two rows
        name = "square_correlation.csv"
        header = ["n", "cov_x1sq_x2sq", "se", "N", "seed"]
        rows = []
        for spec in specs:
            cov, se = streaming_pair_square_covariance(spec, n_samples, seed)
            rows.append([spec.n, cov, se, n_samples, seed])
            print(f"n={spec.n}: Cov(X1^2, X2^2) = {cov:.6f} (se {se:.2g})")
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")
    path = _out_dir(cfg) / name  # only now, so a config error leaves no directory behind
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(cfg: dict) -> int:
    path = _path(_require(cfg, "input"), "'input'")
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("malformed report: it must be a JSON object")
    schema = payload.get("schema")
    if type(schema) is not int or schema != REPORT_SCHEMA:
        raise ConfigError(f"report schema {schema!r} is not the schema {REPORT_SCHEMA} "
                          "this version reads; rerun certify to rewrite the report")
    cells = payload.get("reports")
    if not isinstance(cells, list) or not cells:  # certify writes one cell at least
        raise ConfigError("malformed report: 'reports' must be a non-empty list")
    for i, r in enumerate(cells):
        _check_cell(r, i)
    all_passed, n_passed = payload.get("all_passed"), sum(r["passed"] for r in cells)
    if type(all_passed) is not bool or all_passed != (n_passed == len(cells)):
        raise ConfigError(f"malformed report: all_passed is {all_passed!r} but "
                          f"{n_passed} of {len(cells)} cells passed")
    print(f"report from {payload.get('version', 'unknown version')}")
    for r in cells:
        print(_cell_line(r))
    print("all passed" if all_passed else "FAILURES PRESENT")
    return EXIT_OK


# the fields of a report cell that its line prints, each with its JSON type
_CELL_FIELDS = (
    (("spec", "kind"), str),
    (("n",), int),
    (("theta",), str),
    (("passed",), bool),
    (("empirical", "point_estimate"), float),
    (("bound", "value"), float),
    (("bound_name",), str),
)


def _check_cell(r, i: int) -> None:
    """Refuse report cell ``i`` unless each of its ``_CELL_FIELDS`` is there
    with its type: an int or float counts as a float, a bool as neither."""
    for path, kind in _CELL_FIELDS:
        value = r
        for key in path:
            if not isinstance(value, dict) or key not in value:
                raise ConfigError(f"malformed report: cell {i} has no {'.'.join(path)}")
            value = value[key]
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"malformed report: cell {i} {'.'.join(path)} is "
                              f"{value!r}, not a {kind.__name__}")


def _cmd_tv_exact(cfg: dict) -> int:
    """Convenience: quadrature-exact TV table for the laws with an exact TV."""
    from .exact import EXACT_LAWS, TV, exact_law, exact_tv_vs_normal

    # by default, the table's first law with an exact TV
    kind = cfg.get("kind", next(law.kind.value for law in EXACT_LAWS if TV in law.distances))
    n_list = _nonempty_list(_require(cfg, "n_list"), "n_list")
    for n in n_list:
        _integer(n, "'n_list' entry")
        try:
            exact_law(TV, kind, n)
        except ValueError as exc:  # no exact TV for kind, or n outside its range
            raise ConfigError(f"tv-exact: {exc}") from exc
    out = _out_dir(cfg)
    path = out / "tv_exact.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "n", "tv_exact", "bound_8_over_n_minus_1"])
        for n in n_list:
            tv = exact_tv_vs_normal(kind, n)
            writer.writerow([kind, n, tv, 8.0 / (n - 1)])
            print(f"{kind} n={n}: TV={tv:.6g} (8/(n-1)={8.0 / (n - 1):.6g})")
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "sample": _cmd_sample,
    "certify": _cmd_certify,
    "scan-ank": _cmd_scan_ank,
    "diagnose": _cmd_diagnose,
    "report": _cmd_report,
    "tv-exact": _cmd_tv_exact,
}


class _VersionAction(argparse.Action):
    """``--version``: print the version string, built only when asked for."""

    def __init__(self, option_strings, dest):
        super().__init__(option_strings, dest, nargs=0, default=argparse.SUPPRESS,
                         help="show program's version number and exit")

    def __call__(self, parser, namespace, values, option_string=None):
        print(version_string())
        parser.exit()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cltbounds",
        description="Samplers, bounds, and empirical certification for "
        "normal approximation of high-dimensional projections.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--input", help="override report input path")
    parser.add_argument("--version", action=_VersionAction)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        if args.input is not None:
            cfg["input"] = args.input
        cfg_command = cfg.get("command")
        if cfg_command is not None and cfg_command != args.command:
            raise ConfigError(
                f"config is for command {cfg_command!r} but {args.command!r} was requested"
            )
        try:
            return _COMMANDS[args.command](cfg)
        except (InsufficientDataError, SymmetryError) as exc:  # N too small, or law unsuited
            raise ConfigError(str(exc)) from exc
    except InapplicableBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in cltbounds, not a config problem", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
