"""No command loads scipy: importing cltbounds, every command (the N-point
Kolmogorov statistic included: it takes the exact Phi from the standard
library at the few points that can hold its supremum) and the version probe
load no scipy module, and every command runs where ``import scipy`` fails.

Only computing commands load numpy: importing cltbounds or its CLI,
``--version``, ``--help``, ``report`` and an argument error load none, and
``--version`` and ``report`` run where ``import numpy`` fails.  A command
loads only the cltbounds modules it runs.  Every such case runs in a fresh
interpreter, since this one has numpy and scipy loaded.

Every name in the package's and each cltbounds module's ``__all__``
resolves, and the package imports exactly the third-party modules that
pyproject.toml declares.
"""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cltbounds

SRC = str(Path(cltbounds.__file__).resolve().parents[1])

# runs the code in CODE, then prints the loaded modules of PACKAGE as JSON
PROBE = """
import json, sys
{code}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == {package!r})))
"""


def run_fresh(code: str, cwd: Path, package: str = "scipy") -> list[str]:
    """Loaded modules of ``package`` after ``code`` runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC, "CLTBOUNDS_THREADS": "2"}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code, package=package)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(argv: list[str], cwd: Path, package: str = "scipy", exit_code: int = 0) -> list[str]:
    """Loaded modules of ``package`` after ``cltbounds <argv>`` exits ``exit_code``."""
    return run_fresh(
        "from cltbounds.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {exit_code}, code",
        cwd,
        package,
    )


def write_config(tmp_path: Path, cfg: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**cfg, "out": str(tmp_path / "out")}))
    return str(path)


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

# the histogram-TV route only
SPHERICAL_CERTIFY = {
    **CERTIFY,
    "distributions": [
        {"kind": "sphere_shell", "n": 6},
        {"kind": "ball_uniform", "n": 6},
        {"kind": "spherical_exponential", "n": 30},
    ],
}

SCAN_ANK = {
    "distribution": {"kind": "lp_ball", "p": 3.0},
    "n_list": [6],
    "k": 1,
    "eps": 0.1,
    "n_subspaces": 2,
    "N": 5000,
}

# the cube's lines take the exact path, the others the sampled KS statistic
CUBE_SCAN_ANK = {**SCAN_ANK, "distribution": {"kind": "lp_ball", "p": "inf"}}

TV_EXACT = {"kind": "sphere_shell", "n_list": [5]}


@pytest.mark.parametrize(
    "module",
    ["cltbounds", *sorted(f"cltbounds.{m.name}" for m in pkgutil.iter_modules(cltbounds.__path__))],
    ids=lambda module: module.removeprefix("cltbounds."),
)
def test_all_names_resolve(module):
    # a name left in __all__ after its definition goes breaks `import *`;
    # the package's names each resolve on first use
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cltbounds import *", namespace)
    assert set(cltbounds.__all__) <= set(namespace)
    assert set(cltbounds.__all__) <= set(dir(cltbounds))


def test_import_reaches_every_module_but_the_cli(tmp_path):
    # as when the package imported each module: `import cltbounds` alone
    # reaches them as attributes, and `import *` binds them
    modules = sorted(m.name for m in pkgutil.iter_modules(cltbounds.__path__) if m.name != "cli")
    run_fresh(
        "import cltbounds\n"
        f"assert [m for m in {modules!r} if not hasattr(cltbounds, m)] == []\n"
        f"assert set({modules!r}) <= set(cltbounds.__all__)",
        tmp_path,
    )


def test_runtime_imports_are_the_declared_dependencies():
    # an import that no requirement covers fails only where it is not
    # installed; a requirement that no module imports is a cost for nothing
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
                for r in requirements}
    imported = set()
    for path in Path(cltbounds.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) - {"cltbounds"} == declared == {"numpy"}


@pytest.mark.parametrize("module", ["cltbounds", "cltbounds.cli"])
def test_import_loads_no_scipy(module, tmp_path):
    assert run_fresh(f"import {module}", tmp_path) == []


def test_version_loads_no_scipy(tmp_path):
    assert run_cli(["--version"], tmp_path) == []


def test_sample_and_report_load_no_scipy(tmp_path):
    assert run_cli(["sample", "--config", write_config(tmp_path, SAMPLE)], tmp_path) == []
    report = tmp_path / "certify.json"
    report.write_text(json.dumps({"schema": 1, "reports": [REPORT], "all_passed": True}))
    assert run_cli(["report", "--input", str(report)], tmp_path) == []


@pytest.mark.parametrize("experiment", sorted(DIAGNOSE))
def test_diagnose_loads_no_scipy(experiment, tmp_path):
    config = write_config(tmp_path, DIAGNOSE[experiment])
    assert run_cli(["diagnose", "--config", config], tmp_path) == []


def test_cube_scan_ank_loads_no_scipy(tmp_path):
    config = write_config(tmp_path, CUBE_SCAN_ANK)
    assert run_cli(["scan-ank", "--config", config], tmp_path) == []


@pytest.mark.parametrize("command, cfg", [("certify", SPHERICAL_CERTIFY), ("tv-exact", TV_EXACT)])
def test_few_point_commands_load_no_scipy(command, cfg, tmp_path):
    assert run_cli([command, "--config", write_config(tmp_path, cfg)], tmp_path) == []


@pytest.mark.parametrize("command, cfg", [("certify", CERTIFY), ("scan-ank", SCAN_ANK)])
def test_statistics_load_no_scipy(command, cfg, tmp_path):
    # the cube and the sphere on certify's Kolmogorov and histogram routes,
    # and scan-ank's sampled Kolmogorov statistics
    assert run_cli([command, "--config", write_config(tmp_path, cfg)], tmp_path) == []


def test_every_command_runs_where_scipy_cannot_load(tmp_path):
    square_correlation = {"experiment": "square-correlation", "n_list": [4], "N": 5000}
    configs = [("sample", SAMPLE), ("certify", CERTIFY), ("scan-ank", SCAN_ANK),
               ("scan-ank", CUBE_SCAN_ANK), ("diagnose", DIAGNOSE["reflection"]),
               ("diagnose", DIAGNOSE["rotation"]), ("diagnose", square_correlation),
               ("tv-exact", TV_EXACT)]
    argvs = []
    for i, (command, cfg) in enumerate(configs):
        (tmp_path / str(i)).mkdir()
        argvs.append([command, "--config", write_config(tmp_path / str(i), cfg)])
    argvs.append(["report", "--input", str(tmp_path / "1" / "out" / "certify.json")])
    loaded = run_fresh(
        "sys.modules['scipy'] = None  # so that import scipy raises ImportError\n"
        "from cltbounds.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "del sys.modules['scipy']",
        tmp_path,
    )
    assert loaded == []


def test_lazy_import_on_worker_threads_keeps_reports(tmp_path):
    # two specs on two workers reach their first Kolmogorov statistic at
    # about the same time
    loaded = run_fresh(
        "import math\n"
        "from cltbounds.certify import certify_grid\n"
        "from cltbounds.samplers import DistributionSpec, Kind\n"
        "specs = [DistributionSpec(Kind.LP_BALL, 6, p=math.inf),\n"
        "         DistributionSpec(Kind.LP_CONE, 6, p=1.0)]\n"
        "runs = [[r.to_dict() for r in certify_grid(specs, ['e1', 'diagonal'], N=20000,\n"
        "                                             seed=5, workers=w)] for w in (2, 1)]\n"
        "assert runs[0] == runs[1]",
        tmp_path,
    )
    assert loaded == []


def write_report(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "certify.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("module", ["cltbounds", "cltbounds.cli"])
def test_import_loads_no_numpy(module, tmp_path):
    assert run_fresh(f"import {module}", tmp_path, "numpy") == []


@pytest.mark.parametrize(
    "argv, exit_code",
    [(["--version"], 0), (["--help"], 0), (["no-such-command"], 2), (["certify", "--seed"], 2)],
    ids=["version", "help", "unknown-command", "missing-value"],
)
def test_non_computing_invocations_load_no_numpy(argv, exit_code, tmp_path):
    assert run_cli(argv, tmp_path, "numpy", exit_code) == []


@pytest.mark.parametrize("all_passed, exit_code", [(True, 0), (False, 2)],
                         ids=["valid", "malformed"])
def test_report_loads_no_numpy(all_passed, exit_code, tmp_path):
    # a malformed report: all_passed disagrees with its one passing cell
    report = write_report(tmp_path, {"schema": 1, "reports": [REPORT], "all_passed": all_passed})
    assert run_cli(["report", "--input", report], tmp_path, "numpy", exit_code) == []


def test_version_and_report_run_where_numpy_cannot_load(tmp_path):
    report = write_report(tmp_path, {"schema": 1, "reports": [REPORT], "all_passed": True})
    loaded = run_fresh(
        "sys.modules['numpy'] = None  # so that import numpy raises ImportError\n"
        "from cltbounds.cli import main\n"
        f"assert main(['report', '--input', {report!r}]) == 0\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "del sys.modules['numpy']",
        tmp_path,
        "numpy",
    )
    assert loaded == []


@pytest.mark.parametrize(
    "command, cfg, unused",
    [("certify", CERTIFY, {"subspaces"}), ("tv-exact", TV_EXACT, {"certify", "subspaces"})],
)
def test_command_loads_only_the_modules_it_runs(command, cfg, unused, tmp_path):
    loaded = run_cli([command, "--config", write_config(tmp_path, cfg)], tmp_path, "cltbounds")
    assert {f"cltbounds.{module}" for module in unused}.isdisjoint(loaded), loaded
