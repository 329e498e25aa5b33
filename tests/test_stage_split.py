"""``benchmarks/stage_split.py`` imports cltbounds functions by name and calls
them directly: each of its pipeline modes must run to completion and report
its stages, and ``subspace`` on the simplex too, whose reflection step maps
each drawn edge index to its two vertices.  Renaming or deleting what it
calls fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "stage_split.py"

SUBSPACE_STAGES = {"ank_fill_s", "ank_project_s", "ank_counts_s", "ank_total_s",
                   "reflection_total_s", "reflection_peak_mb", "rotation_frames_s",
                   "rotation_total_s"}

# case -> (mode, spec options, stages reported)
MODES = {
    "certify": ("certify", ["--kind", "lp_ball", "--p", "2"],
                {"fill_s", "project_s", "counts_s", "projections_s", "projections_peak_mb"}),
    # the cube's lines are evaluated exactly as well
    "subspace": ("subspace", ["--kind", "lp_ball", "--p", "inf"], SUBSPACE_STAGES | {"ank_exact_s"}),
    "subspace-simplex": ("subspace", ["--kind", "simplex"], SUBSPACE_STAGES),
    "spherical": ("spherical", ["--kind", "sphere_shell"],
                  {"fill_s", "project_s", "hist_s", "reduced_draw_s", "certify_peak_mb"}),
    # every probe is a fresh process that must exit 0; numpy_s imports numpy alone
    "startup": ("startup", [], {"import_s", "version_s", "numpy_s", "certify_s",
                                "certify-spherical_s", "scan-ank_s", "diagnose-reflection_s",
                                "diagnose-rotation_s", "tv-exact_s", "tv_exact_inprocess_s"}),
}


@pytest.mark.parametrize("case", sorted(MODES))
def test_mode_runs(case):
    mode, spec_args, stages = MODES[case]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "CLTBOUNDS_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--mode", mode, *spec_args,
         "--n", "8", "--N", "20000", "--repeats", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    assert report["mode"] == mode
    assert set(report["stages"]) == stages
