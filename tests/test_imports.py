"""Each command loads only the scipy modules it calls: importing cltbounds
loads none, scipy.special loads at first use, and no command loads
scipy.integrate or scipy.optimize.  Every such case runs in a fresh
interpreter, since this one has scipy loaded.

Every name in a cltbounds module's ``__all__`` resolves.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cltbounds

SRC = str(Path(cltbounds.__file__).resolve().parents[1])

# runs the code in CODE, then prints the loaded scipy modules as JSON
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(code: str, cwd: Path) -> list[str]:
    """Loaded scipy modules after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC, "CLTBOUNDS_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(argv: list[str], cwd: Path) -> list[str]:
    """Loaded scipy modules after ``cltbounds <argv>`` exits 0."""
    return run_fresh(
        "from cltbounds.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "assert code == 0, code",
        cwd,
    )


def write_config(tmp_path: Path, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg, "out": str(tmp_path / "out")}))
    return str(path)


QUADRATURE = {"scipy.integrate", "scipy.optimize"}

SAMPLE = {"distribution": {"kind": "lp_ball", "p": 3.0, "n": 6}, "N": 5000}

REPORT = {
    "spec": {"kind": "lp_ball"},
    "n": 6,
    "theta": "e1",
    "passed": True,
    "empirical": {"point_estimate": 0.01},
    "bound": {"value": 0.5},
    "bound_name": "unconditional[exact]",
}

DIAGNOSE = {
    "reflection": {
        "experiment": "reflection",
        "distribution": {"kind": "lp_ball", "p": "inf", "n": 6},
        "theta": ["e1", "diagonal"],
        "N": 5000,
    },
    "rotation": {
        "experiment": "rotation",
        "distribution": {"kind": "sphere_shell", "n": 6},
        "eps_list": [0.2, 0.1],
        "N": 5000,
    },
}

CERTIFY = {
    "distributions": [{"kind": "lp_ball", "p": "inf", "n": 6}, {"kind": "sphere_shell", "n": 6}],
    "theta": ["e1"],
    "N": 10_000,
}

SCAN_ANK = {
    "distribution": {"kind": "lp_ball", "p": "inf"},
    "n_list": [6],
    "k": 1,
    "eps": 0.1,
    "n_subspaces": 2,
    "N": 5000,
}

TV_EXACT = {"kind": "sphere_shell", "n_list": [5]}


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(cltbounds.__path__)))
def test_all_names_resolve(module):
    # a name left in __all__ after its definition goes breaks `import *`
    mod = importlib.import_module(f"cltbounds.{module}")
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", ["cltbounds", "cltbounds.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert run_fresh(f"import {module}", tmp_path) == []


def test_version_loads_no_scipy(tmp_path):
    assert run_cli(["--version"], tmp_path) == []


def test_sample_and_report_load_no_scipy(tmp_path):
    assert run_cli(["sample", "--config", write_config(tmp_path, SAMPLE)], tmp_path) == []
    report = tmp_path / "certify.json"
    report.write_text(json.dumps({"reports": [REPORT], "all_passed": True}))
    assert run_cli(["report", "--input", str(report)], tmp_path) == []


@pytest.mark.parametrize("experiment", sorted(DIAGNOSE))
def test_diagnose_loads_no_scipy(experiment, tmp_path):
    config = write_config(tmp_path, DIAGNOSE[experiment])
    assert run_cli(["diagnose", "--config", config], tmp_path) == []


@pytest.mark.parametrize(
    "command, cfg", [("certify", CERTIFY), ("scan-ank", SCAN_ANK), ("tv-exact", TV_EXACT)]
)
def test_statistics_load_only_special(command, cfg, tmp_path):
    loaded = set(run_cli([command, "--config", write_config(tmp_path, cfg)], tmp_path))
    assert "scipy.special" in loaded
    assert not loaded & QUADRATURE


def test_lazy_import_on_worker_threads_keeps_reports(tmp_path):
    # two specs on two workers reach their first Kolmogorov statistic, and so
    # the scipy.special import, at about the same time
    loaded = run_fresh(
        "import math\n"
        "from cltbounds.certify import certify_grid\n"
        "from cltbounds.samplers import DistributionSpec, Kind\n"
        "assert 'scipy.special' not in sys.modules\n"
        "specs = [DistributionSpec(Kind.LP_BALL, 6, p=math.inf),\n"
        "         DistributionSpec(Kind.LP_CONE, 6, p=1.0)]\n"
        "runs = [[r.to_dict() for r in certify_grid(specs, ['e1', 'diagonal'], N=20000,\n"
        "                                             seed=5, workers=w)] for w in (2, 1)]\n"
        "assert runs[0] == runs[1]",
        tmp_path,
    )
    assert "scipy.special" in loaded
