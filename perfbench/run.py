"""The cltbounds benchmark: drive the real CLI on one workload and report.

Run from the root of a checkout (``src/cltbounds`` must be there):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

A workload is a closed loop with one client: the CLI invocations listed in
``workloads.json`` run one after another, each in a fresh process, with the
pinned thread environment of that file and the workload seed written into
every config.  A run makes ``round(seconds / pass_seconds)`` passes (at
least one), where ``pass_seconds`` is the workload's nominal pass time in
``workloads.json``: about ``--seconds`` of work on a 2-vCPU machine, and the
same work in every run.  Every output is checked against
``reference/<workload>.json``.

``--trace 0`` reports the end-to-end metrics, medians over the passes:
``wall_s`` (sum of the invocations' wall time), ``cpu_s`` (user+sys of the
child processes), ``peak_rss_mb`` (largest child ``ru_maxrss``),
``rows_per_s`` (sampled rows / wall_s) and ``setup_s`` (median wall time of
``SETUP_REPEATS`` runs of ``cltbounds --version``, taken before the loop).
``--trace 1`` alternates untraced and traced passes (half as many pairs)
and reports the per-layer metrics of the traced ones (see ``tracer.py``).

``--workload all`` runs every workload in turn and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
certify cell, a tv-exact row, a scan-ank subspace or a diagnostic row; it
fails on a non-zero exit, a non-PASS verdict or a reference mismatch.  The
exit code is 0 when every operation passed, 1 when some failed and 2 when
the checkout cannot be benchmarked at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
ENTRY = "import sys; from cltbounds.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 160.0
WORK_DIR = ".perfbench"


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env(root: Path, traced_spans: Path | None = None) -> dict:
    env = dict(os.environ)
    env.update(WORKLOADS["env"])
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # keep the CLI's `git describe` probe from searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    env.pop("PERFBENCH_SPANS", None)
    if traced_spans is not None:
        env["PERFBENCH_SPANS"] = str(traced_spans)
    return env


def invoke(args: list[str], root: Path, log: Path, spans: Path | None = None) -> dict:
    """Run one CLI invocation; wall time, CPU and peak RSS of that child alone."""
    if spans is None:
        argv = [sys.executable, "-c", ENTRY, *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), *args]
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root, spans), stdout=out, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def measure_setup(root: Path, work: Path) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        log = work / "version.log"
        run = invoke(["--version"], root, log)
        if run["code"] != 0 or not log.read_text().startswith("cltbounds"):
            raise BenchError(f"`cltbounds --version` failed: {log.read_text()[-400:]!r}")
        walls.append(run["wall_s"])
    return statistics.median(walls)


def sampled_rows(step: dict) -> int:
    """Rows of X the step samples (the input size behind rows_per_s)."""
    cfg = step["config"]
    if step["command"] == "certify":
        return sum(
            len(d["n"]) if isinstance(d["n"], list) else 1 for d in cfg["distributions"]
        ) * cfg["N"]
    if step["command"] == "scan-ank":
        return len(cfg["n_list"]) * cfg["N"]
    return cfg.get("N", 0)


def run_pass(name: str, seed: int, root: Path, work: Path, reference: dict | None,
             traced: bool = False) -> dict:
    """One pass of the workload's invocations, checked against the reference
    (outputs are left unchecked when it is None)."""
    result = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "rows": 0,
              "attempted": 0, "failed": 0, "problems": [], "spans": []}
    for step in WORKLOADS["workloads"][name]["steps"]:
        out = work / step["name"]
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = {"command": step["command"], **step["config"], "seed": seed, "out": str(out)}
        config_path = work / f"{step['name']}.json"
        config_path.write_text(json.dumps(config, indent=2))
        spans = out / "spans.json" if traced else None
        run = invoke([step["command"], "--config", str(config_path)], root,
                     out / "stdout.log", spans)
        for key in ("wall_s", "cpu_s"):
            result[key] += run[key]
        result["peak_rss_mb"] = max(result["peak_rss_mb"], run["peak_rss_mb"])
        result["rows"] += sampled_rows(step)
        if traced and spans.exists():
            result["spans"].append(json.loads(spans.read_text())["spans"])
        if reference is None:
            continue
        kind = check.output_kind(step)
        attempted, failed, problems = check.check_step(kind, out, reference[step["name"]])
        if run["code"] != 0:
            failed = attempted
            problems = [f"{step['name']}: exit code {run['code']}", *problems]
        result["attempted"] += attempted
        result["failed"] += failed
        result["problems"] += problems
    return result


def layer_metrics(processes: list[list[dict]], cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``_s`` = self busy CPU seconds)."""
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    batch_bytes = 0
    for spans in processes:
        children = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["cpu_end"] - s["cpu_start"]
        for s in spans:
            busy[s["layer"]] += s["cpu_end"] - s["cpu_start"] - children[s["id"]]
            calls[s["fn"]] += 1
            if s["fn"].startswith("bounds:bound_"):
                calls["bounds:eval"] += 1
            for key in ("rows", "flop", "points", "subspaces"):
                work[key] += s.get(key, 0)
            batch_bytes = max(batch_bytes, s.get("bytes", 0))
    calibrate, sample = busy["samplers.calibrate"], busy["samplers.sample"]
    return {
        "samplers.calibrate_s": calibrate,
        "samplers.calibrate_calls": calls["samplers:calibrate_isotropic"],
        "samplers.calibrate_share": calibrate / (calibrate + sample) if calibrate + sample else 0.0,
        "samplers.sample_s": sample,
        "samplers.sample_calls": calls["samplers:sample"],
        "samplers.sample_rows": work["rows"],
        "samplers.batch_mb": batch_bytes / 1e6,
        "core.summarize_s": busy["core.summarize"],
        "core.summarize_calls": calls["core:summarize"],
        "core.summarize_gflop": work["flop"] / 1e9,
        "empirical.project_s": busy["empirical.project"],
        "empirical.project_calls": calls["empirical:project"],
        "empirical.ks_s": busy["empirical.ks"],
        "empirical.ks_calls": calls["empirical:kolmogorov_vs_normal"],
        "empirical.ks_points": work["points"],
        "empirical.hist_s": busy["empirical.hist"],
        "empirical.hist_calls": calls["empirical:tv_vs_normal_histogram"],
        "bounds.eval_s": busy["bounds.eval"],
        "bounds.eval_calls": calls["bounds:eval"],
        "bounds.quad_s": busy["bounds.quad"],
        "bounds.quad_calls": calls["bounds:exact_tv_vs_normal"],
        "frames.geometry_s": busy["frames.geometry"],
        "frames.geometry_calls": calls["frames:simplex_geometry"],
        "subspaces.ank_s": busy["subspaces.ank"],
        "subspaces.ank_subspaces": work["subspaces"],
        "subspaces.haar_s": busy["subspaces.haar"],
        "subspaces.haar_calls": calls["subspaces:haar_orthogonal"],
        "subspaces.reflection_s": busy["subspaces.reflection"],
        "subspaces.rotation_s": busy["subspaces.rotation"],
        "certify.cell_s": busy["certify.cell"],
        "certify.cells": calls["certify:certify_cell"],
        "certify.write_s": busy["certify.write"],
        "certify.version_s": busy["certify.version"],
        "cli.self_s": busy["cli"],
        "trace.attributed_frac": sum(busy.values()) / cpu_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    reference = json.loads((HERE / "reference" / f"{name}.json").read_text())["steps"]
    work = root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = measure_setup(root, work)
    plain, traced = [], []
    # a fixed pass count, not a deadline, so every run of a commit does the same work
    nominal = WORKLOADS["workloads"][name]["pass_seconds"] * (2 if trace else 1)
    for _ in range(max(1, round(seconds / nominal))):
        plain.append(run_pass(name, seed, root, work, reference, traced=False))
        if trace:
            traced.append(run_pass(name, seed, root, work, reference, traced=True))
    passes = plain + traced
    summary = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]],
        "passes": len(plain),
        "rows": plain[0]["rows"],
    }
    if trace:
        layers = [layer_metrics(p["spans"], p["cpu_s"]) for p in traced]
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0
        )
    else:
        metrics = {
            key: statistics.median(p[key] for p in plain)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        metrics["rows_per_s"] = statistics.median(p["rows"] / p["wall_s"] for p in plain)
        metrics["setup_s"] = setup_s
    summary["metrics"] = metrics
    return summary


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_table(name: str, seed: int, summary: dict, units: dict[str, str]) -> None:
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"== {name} (seed {seed}): {summary['passes']} pass(es), "
          f"{summary['rows']} sampled rows per pass")
    for key, value in summary["metrics"].items():
        print(f"  {key:28s} {value:14.6g} {units.get(key, '')}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} ratio ({failed}/{attempted} operations)")
    for problem in summary["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["workloads"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cltbounds" / "cli.py").is_file():
        print("error: run from the root of a cltbounds checkout (src/cltbounds is missing)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS["workloads"]) if args.workload == "all" else [args.workload]
    units = metric_units(bool(args.trace))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
            print_table(name, args.seed, results[name], units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())

    def tagged(metrics):
        return {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload == "all":
        line["metrics"] = {name: tagged(r["metrics"]) for name, r in results.items()}
    else:
        line["metrics"] = tagged(results[args.workload]["metrics"])
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
