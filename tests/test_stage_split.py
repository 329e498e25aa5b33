"""``benchmarks/stage_split.py`` imports cltbounds functions by name and calls
them directly: each of its pipeline modes must run to completion and report
its stages.  Renaming or deleting what it calls fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "stage_split.py"

MODES = {
    "certify": (["--kind", "lp_ball", "--p", "2"],
                {"fill_s", "project_s", "ks_s", "hist_s", "projections_s"}),
    "subspace": (["--kind", "lp_ball", "--p", "inf"],
                 {"ank_fill_s", "ank_project_s", "ank_ks_s", "ank_ks_threaded_s", "ank_exact_s",
                  "ank_total_s", "reflection_total_s", "rotation_frames_s", "rotation_total_s"}),
    "spherical": (["--kind", "sphere_shell"], {"fill_s", "project_s", "hist_s", "reduced_draw_s"}),
    # every probe is a fresh CLI process that must exit 0
    "startup": ([], {"import_s", "version_s", "certify_s", "certify-spherical_s", "scan-ank_s",
                     "diagnose-reflection_s", "diagnose-rotation_s", "tv-exact_s",
                     "tv_exact_inprocess_s"}),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_runs(mode):
    spec_args, stages = MODES[mode]
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
