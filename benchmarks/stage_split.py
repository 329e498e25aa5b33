"""Per-stage time of the certification and subspace pipelines, for the
cltbounds checkout on PYTHONPATH.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/stage_split.py \
        --kind lp_ball --p 2 --n 100 --N 200000 --repeats 5
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/stage_split.py \
        --mode subspace --kind lp_ball --p inf --n 100 --N 200000 --repeats 5
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/stage_split.py \
        --mode spherical --kind sphere_shell --n 100 --N 1000000 --repeats 5

``--mode certify`` (the default) makes one streamed pass over the sample
pieces (``samplers.map_sample_blocks`` at one worker) that times each
piece's fill (the time between two pieces: a chunk of rows, or a
spherical law's block) apart from its projection onto the grid's four
thetas, and apart from the count pass that certification runs on each
piece of projections, ``empirical.add_ks_counts``, plus
``kolmogorov_from_counts`` of each row's counts (``counts_s``).  Before
that pass it times the projections as certification draws them, one
``samplers.map_projection_blocks`` pass on the same spec and thetas that
keeps no piece (``projections_s``), and the tracemalloc peak in MB of a
second, traced pass (``projections_peak_mb``; the timed pass runs
untraced): every fill of n-wide rows, its rows and its projections alike,
goes through the samplers' one chunk driver, which hands over each chunk
of at most ``CHUNK_ROWS`` rows and ``CHUNK_VALUES`` values as it is drawn,
so that peak grows neither with N nor with n, and for the simplex, the
p = 2 lp laws and the lp laws at any other finite p (which project their
unscaled exponentials or generalized-Gaussian chunks and scale the
projections, with no row scaling) that pass has its own fill, so it is not
``fill_s + project_s``.

``--mode subspace`` times scan-ank at k = 1 the same way: the fill, the
projection onto the 32 stacked subspace lines and the lines' count pass,
``add_ks_counts`` of each block plus ``kolmogorov_from_counts`` of each
line (``ank_*_s``), then the whole ``estimate_Ank`` call
(``ank_total_s``).  On a law whose lines ``estimate_Ank`` evaluates exactly
(the cube), that call runs no sampled stage: ``ank_exact_s`` times
``exact.exact_kolmogorov`` on the 32 lines one after another, and the
sampled stages show what the sampled path would cost.  Every
``*_total_s`` passes ``CLTBOUNDS_THREADS`` as ``workers``.  It times the
whole reflection step of ``diagnose`` (``reflection_total_s``: the three
thetas e1, diagonal and random(42) of criterion 05 on the given spec, in
the frame of its law), and the tracemalloc peak in MB of a second, traced
call (``reflection_peak_mb``; the timed call runs untraced): the per-block
sums and bin totals, plus a chunk of rows, its frame indices and its
projections per worker.  For the rotation
diagnostics it times the two-frame draws (``rotation_frames_s``:
``subspaces._rotation_frames``, one per ``CHUNK_ROWS``-row chunk, drawn after
that chunk's rows from the block's Generator and shared by the three angles,
as the rotation pass draws them) over the reduced sphere-shell rows of the
same n and N (``subspaces._rotation_rows``, untimed, one chunk at a time), and
the whole rotation step (``rotation_total_s``).

``--mode spherical`` takes a spherically symmetric kind and the spherical
workload's two thetas (e1 and diagonal): it times the full fill of every
n-dimensional row and its projection, as above, then the histogram as
certification streams it: the reduced-law draw of each block of
projections through ``samplers.map_projection_blocks``, ``CHUNK_ROWS`` rows
at a time into the block (``reduced_draw_s``, the time between two pieces,
each a block),
apart from the block's ``empirical.add_ks_counts`` into the (2,
``KS_COUNTS``) count table, plus ``tv_from_counts`` of each row
(``hist_s``).  Last it takes the tracemalloc
peak in MB of a traced ``certify_grid`` call on the spec and thetas
(``certify_peak_mb``): its count table, a block of projections, a chunk of
the reduced draw and the temporaries of one block's counts, never the (2, N)
projections.

``--mode startup`` measures what each command pays before its work: the
wall time of a fresh interpreter that imports ``cltbounds.cli``
(``import_s``), runs ``cltbounds --version`` (``version_s``), imports
numpy alone (``numpy_s``), or runs one command on a tiny config
(``certify_s`` on a cube and a sphere,
``certify-spherical_s`` on the three spherical laws alone, ``scan-ank_s``,
``diagnose-reflection_s``, ``diagnose-rotation_s``, ``tv-exact_s``), each
with the thread pins and ``PYTHONDONTWRITEBYTECODE`` of ``perfbench/run.py``;
and, in this process, ``exact_tv_vs_normal`` over the tv-exact workload's
``n_list`` (``tv_exact_inprocess_s``, after one warm-up call).  It also lists
the scipy packages each fresh process loaded, which should be none: no
command loads scipy (the Kolmogorov statistic of ``certify_s`` and
``scan-ank_s`` is numpy and the standard library).  ``import_s`` and
``version_s`` load no numpy, and every computing command does, so
``numpy_s`` is the floor a command pays: its time above ``numpy_s`` is the
cltbounds modules it loads plus its own work.  The spec options are unused.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/stage_split.py \
        --mode startup --repeats 10

Prints one JSON object with the median and quartiles of each stage over the
repeats, in seconds (``*_mb`` stages in MB).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import cltbounds
from cltbounds import subspaces
from cltbounds.certify import certify_grid, resolve_theta
from cltbounds.empirical import (
    KS_COUNTS,
    add_ks_counts,
    kolmogorov_from_counts,
    tv_from_counts,
)
from cltbounds.exact import (
    SPHERICAL_KINDS,
    DistributionSpec,
    Kind,
    exact_kolmogorov,
    exact_tv_vs_normal,
)
from cltbounds.samplers import (
    BLOCK_ROWS,
    CHUNK_ROWS,
    block_seed,
    derive_seed,
    map_projection_blocks,
    map_sample_blocks,
)

THETAS = ["diagonal", "random(101)", "random(102)", "random(103)"]
SPHERICAL_THETAS = ["e1", "diagonal"]
N_SUBSPACES = 32
ANGLES = [0.2, 0.1, 0.05]
REFLECTION_THETAS = ["e1", "diagonal", "random(42)"]
WORKERS = int(os.environ.get("CLTBOUNDS_THREADS", "1"))
TV_N_LIST = [10, 20, 25, 50, 100, 200, 400, 500, 1000]  # the tv-exact workload's
STARTUP_CONFIGS = {
    "certify": ("certify", {
        "distributions": [{"kind": "lp_ball", "p": "inf", "n": 6},
                          {"kind": "sphere_shell", "n": 6}],
        "theta": ["e1"], "N": 10_000}),
    "certify-spherical": ("certify", {
        "distributions": [{"kind": "sphere_shell", "n": 6}, {"kind": "ball_uniform", "n": 6},
                          {"kind": "spherical_exponential", "n": 30}],
        "theta": ["e1"], "N": 10_000}),
    "scan-ank": ("scan-ank", {
        "distribution": {"kind": "lp_ball", "p": "inf"}, "n_list": [6], "k": 1, "eps": 0.1,
        "n_subspaces": 2, "N": 10_000}),
    "diagnose-reflection": ("diagnose", {
        "experiment": "reflection", "distribution": {"kind": "lp_ball", "p": "inf", "n": 6},
        "theta": ["e1"], "N": 10_000}),
    "diagnose-rotation": ("diagnose", {
        "experiment": "rotation", "distribution": {"kind": "sphere_shell", "n": 6},
        "eps_list": [0.1], "N": 10_000}),
    "tv-exact": ("tv-exact", {"kind": "sphere_shell", "n_list": [10]}),
}
# runs CODE in a fresh interpreter, then prints the loaded scipy modules
PROBE = """import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
CLI_PROBE = """from cltbounds.cli import main
try:
    code = main({argv!r})
except SystemExit as exc:
    code = exc.code
assert code == 0, code
"""


def stream(spec: DistributionSpec, n_samples: int, seed: int, directions: np.ndarray,
           times: dict[str, float], prefix: str = "",
           counts: np.ndarray | None = None) -> None:
    """Projects every sample piece onto the (n, D) directions, keeping none;
    adds the fill time (from the end of one piece's projection to the
    arrival of the next) and the projection time to ``times``, and, given a
    (D, KS_COUNTS) table ``counts``, adds each piece of projections to it,
    timed as ``counts_s``."""
    mark = [time.perf_counter()]

    def take(rows: slice, piece: np.ndarray) -> None:
        start = time.perf_counter()
        times[prefix + "fill_s"] += start - mark[0]
        projected = piece @ directions
        mark[0] = time.perf_counter()
        times[prefix + "project_s"] += mark[0] - start
        if counts is not None:
            start = mark[0]
            add_ks_counts(counts, projected)
            mark[0] = time.perf_counter()
            times[prefix + "counts_s"] += mark[0] - start

    map_sample_blocks(spec, n_samples, seed, take)  # one worker: pieces in order


def read_counts(counts: np.ndarray, times: dict[str, float], key: str) -> None:
    """``kolmogorov_from_counts`` of each row of ``counts``, timed into ``key``."""
    start = time.perf_counter()
    for row in counts:
        kolmogorov_from_counts(row)
    times[key] += time.perf_counter() - start


def certify_pass(spec: DistributionSpec, n_samples: int, seed: int) -> dict[str, float]:
    thetas = np.column_stack([resolve_theta(t, spec.n)[0] for t in THETAS])
    times = dict.fromkeys(("fill_s", "project_s", "counts_s"), 0.0)
    start = time.perf_counter()
    map_projection_blocks(spec, thetas, n_samples, seed, lambda rows, piece: None)
    times["projections_s"] = time.perf_counter() - start
    tracemalloc.start()  # a second, traced pass: tracing slows every allocation
    try:
        map_projection_blocks(spec, thetas, n_samples, seed, lambda rows, piece: None)
        times["projections_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    counts = np.zeros((thetas.shape[1], KS_COUNTS), dtype=np.int64)
    stream(spec, n_samples, seed, thetas, times, counts=counts)
    read_counts(counts, times, "counts_s")
    return times


def spherical_pass(spec: DistributionSpec, n_samples: int, seed: int) -> dict[str, float]:
    thetas = np.column_stack([resolve_theta(t, spec.n)[0] for t in SPHERICAL_THETAS])
    times = dict.fromkeys(("fill_s", "project_s", "reduced_draw_s", "hist_s"), 0.0)
    stream(spec, n_samples, seed, thetas, times)
    counts = np.zeros((thetas.shape[1], KS_COUNTS), dtype=np.int64)
    mark = [time.perf_counter()]

    def add(rows: slice, block: np.ndarray) -> None:
        start = time.perf_counter()
        times["reduced_draw_s"] += start - mark[0]
        add_ks_counts(counts, block)
        mark[0] = time.perf_counter()
        times["hist_s"] += mark[0] - start

    map_projection_blocks(spec, thetas, n_samples, seed, add)
    start = time.perf_counter()
    for row in counts:
        tv_from_counts(row)
    times["hist_s"] += time.perf_counter() - start
    tracemalloc.start()  # a traced certification of the same draw: tracing slows every allocation
    try:
        certify_grid([spec], SPHERICAL_THETAS, n_samples, seed)
        times["certify_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    return times


def subspace_pass(spec: DistributionSpec, n_samples: int, seed: int) -> dict[str, float]:
    times = dict.fromkeys(("ank_fill_s", "ank_project_s", "ank_counts_s"), 0.0)
    lines = np.column_stack([
        subspaces.random_subspace(spec.n, 1, derive_seed(seed, s))[0]
        for s in range(N_SUBSPACES)
    ])
    counts = np.zeros((N_SUBSPACES, KS_COUNTS), dtype=np.int64)
    stream(spec, n_samples, seed, lines, times, prefix="ank_", counts=counts)
    read_counts(counts, times, "ank_counts_s")
    if subspaces.check_ank_samples(spec, 1, n_samples):
        start = time.perf_counter()
        for line in lines.T:
            exact_kolmogorov(spec, line)
        times["ank_exact_s"] = time.perf_counter() - start
    start = time.perf_counter()
    subspaces.estimate_Ank(spec, k=1, eps=0.1, n_subspaces=N_SUBSPACES, N=n_samples,
                           seed=seed, workers=WORKERS)
    times["ank_total_s"] = time.perf_counter() - start

    thetas = [resolve_theta(t, spec.n)[0] for t in REFLECTION_THETAS]
    start = time.perf_counter()
    subspaces.reflection_pair_diagnostics(spec, thetas, n_samples, seed, workers=WORKERS)
    times["reflection_total_s"] = time.perf_counter() - start
    tracemalloc.start()  # a second, traced call: tracing slows every allocation
    try:
        subspaces.reflection_pair_diagnostics(spec, thetas, n_samples, seed, workers=WORKERS)
        times["reflection_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()

    shell = DistributionSpec(kind=Kind.SPHERE_SHELL, n=spec.n)
    times["rotation_frames_s"] = 0.0
    for block, lo in enumerate(range(0, n_samples, BLOCK_ROWS)):
        # each chunk's frames follow its rows on the block's Generator, as in the pass
        rng = np.random.default_rng(block_seed(seed, block))
        count = min(BLOCK_ROWS, n_samples - lo)
        for m in (min(CHUNK_ROWS, count - at) for at in range(0, count, CHUNK_ROWS)):
            x0, _, r_perp = subspaces._rotation_rows(rng, shell, m)
            start = time.perf_counter()
            subspaces._rotation_frames(rng, x0, r_perp, spec.n)
            times["rotation_frames_s"] += time.perf_counter() - start
    start = time.perf_counter()
    subspaces.rotation_pair_diagnostics(shell, ANGLES, n_samples, seed, workers=WORKERS)
    times["rotation_total_s"] = time.perf_counter() - start
    return times


def probe(code: str, root: Path, env: dict) -> tuple[float, list[str]]:
    """Wall time of a fresh interpreter running ``code`` in ``root``, and the
    scipy modules it loaded."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code)], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"probe failed:\n{code}\n{proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def startup_pass(root: Path, env: dict, out: Path) -> tuple[dict[str, float], dict[str, list]]:
    """Fresh-process wall times and scipy packages per probe, plus the
    in-process tv-exact time."""
    probes = {"import": "import cltbounds.cli", "version": CLI_PROBE.format(argv=["--version"]),
              "numpy": "import numpy"}
    for name, (command, cfg) in STARTUP_CONFIGS.items():
        path = out / f"{name}.json"
        path.write_text(json.dumps({**cfg, "out": str(out / name)}))
        probes[name] = CLI_PROBE.format(argv=[command, "--config", str(path)])
    times, packages = {}, {}
    for name, code in probes.items():
        times[f"{name}_s"], loaded = probe(code, root, env)
        packages[name] = sorted({m.split(".")[1] for m in loaded if m.count(".") == 1
                                 and not m.split(".")[1].startswith("_")})
    exact_tv_vs_normal("sphere_shell", 3)  # warm-up
    start = time.perf_counter()
    for n in TV_N_LIST:
        exact_tv_vs_normal("sphere_shell", n)
    times["tv_exact_inprocess_s"] = time.perf_counter() - start
    return times, packages


def quartiles(runs: list[dict[str, float]]) -> dict[str, dict[str, float]]:
    stages = {}
    for key in runs[0]:
        values = sorted(run[key] for run in runs)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        stages[key] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return stages


def startup(repeats: int) -> dict:
    root = Path(cltbounds.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "GIT_CEILING_DIRECTORIES": str(root.parent), "CLTBOUNDS_THREADS": str(WORKERS)}
    env.update({f"{lib}_NUM_THREADS": "1" for lib in ("OPENBLAS", "OMP", "MKL")})
    with tempfile.TemporaryDirectory() as tmp:
        runs = [startup_pass(root, env, Path(tmp)) for _ in range(repeats)]
    return {"mode": "startup", "workers": WORKERS, "tv_n_list": TV_N_LIST,
            "repeats": repeats, "stages": quartiles([times for times, _ in runs]),
            "scipy_packages": runs[-1][1]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", default="certify",
                        choices=["certify", "subspace", "spherical", "startup"])
    parser.add_argument("--kind", default="lp_ball", choices=[k.value for k in Kind])
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--n", type=int, default=100)
    parser.add_argument("--N", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if args.mode == "startup":
        print(json.dumps(startup(args.repeats)))
        return
    spec = DistributionSpec(kind=Kind(args.kind), n=args.n, p=args.p)
    if args.mode == "spherical" and spec.kind not in SPHERICAL_KINDS:
        parser.error(f"--mode spherical needs a spherically symmetric kind, got {args.kind}")
    one_pass = {"certify": certify_pass, "subspace": subspace_pass,
                "spherical": spherical_pass}[args.mode]
    stages = quartiles([one_pass(spec, args.N, args.seed + r) for r in range(args.repeats)])
    setup = {
        "certify": {"thetas": THETAS},
        "subspace": {"n_subspaces": N_SUBSPACES, "reflection_thetas": REFLECTION_THETAS,
                     "angles": ANGLES, "rotation_kind": "sphere_shell", "workers": WORKERS},
        "spherical": {"thetas": SPHERICAL_THETAS},
    }[args.mode]
    print(json.dumps({"mode": args.mode, "spec": spec.to_dict(), "N": args.N, **setup,
                      "repeats": args.repeats, "stages": stages}))


if __name__ == "__main__":
    main()
