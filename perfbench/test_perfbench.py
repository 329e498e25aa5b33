"""Tests of the benchmark itself: reproducibility of the reports it checks,
and that its checker and span arithmetic do what they claim.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import check
import make_reference
import run

ROOT = run.HERE.parent
TINY_GRID = {
    "command": "certify",
    "distributions": [
        {"kind": "lp_ball", "p": "inf", "n": [6]},
        {"kind": "lp_ball", "p": 2.0, "n": [6, 12]},
        {"kind": "lp_cone", "p": 1.0, "n": [6]},
        {"kind": "simplex", "n": [6]},
    ],
    "theta": ["diagonal", "random(101)"],
    "N": 20000,
    "delta": 0.001,
}


def certify(tmp_path, name: str, seed: int, threads: int = 2) -> dict:
    """Run the tiny grid through the CLI; return the certify.json payload."""
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps({**TINY_GRID, "seed": seed, "out": str(out)}))
    env = run.child_env(ROOT)
    env["CLTBOUNDS_THREADS"] = str(threads)
    subprocess.run(
        [sys.executable, "-c", run.ENTRY, "certify", "--config", str(config)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    return json.loads((out / "certify.json").read_text())


def normalized(payload: dict) -> dict:
    """Drop the fields that legitimately differ between identical runs."""
    payload = {k: v for k, v in payload.items() if k not in ("version", "run", "timing")}
    payload["config"] = {k: v for k, v in payload["config"].items() if k != "out"}
    payload["reports"] = [{k: v for k, v in r.items() if k != "timing"} for r in payload["reports"]]
    return payload


def test_same_seed_gives_identical_reports(tmp_path):
    first = certify(tmp_path, "a", seed=5)
    second = certify(tmp_path, "b", seed=5)
    assert normalized(first) == normalized(second)
    assert normalized(certify(tmp_path, "c", seed=6)) != normalized(first)


def test_thread_count_does_not_change_reports(tmp_path):
    assert normalized(certify(tmp_path, "one", seed=5, threads=1)) == normalized(
        certify(tmp_path, "two", seed=5, threads=2)
    )


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """A reference built from three seeds plus the output of a fourth."""
    sys.path.insert(0, str(ROOT / "src"))
    tmp = tmp_path_factory.mktemp("ref")
    runs = []
    for seed in (1, 2, 3, 4):
        certify(tmp, f"s{seed}", seed)
        runs.append(check.observe("certify", tmp / f"s{seed}"))
    return make_reference.aggregate("certify", runs[:3]), tmp / "s4"


def _tampered(out_dir, tmp_path, edit) -> object:
    payload = json.loads((out_dir / "certify.json").read_text())
    edit(payload["reports"])
    target = tmp_path / "tampered"
    target.mkdir()
    (target / "certify.json").write_text(json.dumps(payload))
    return target


def _cell(reports, kind, p=None):
    return next(r for r in reports if r["spec"]["kind"] == kind and r["spec"].get("p") == p)


TAMPERS = {
    "verdict": lambda rs: rs[0].update(passed=False),
    "negative-margin": lambda rs: rs[0].update(margin=-1e-3),
    "exact-bound": lambda rs: _cell(rs, "simplex")["bound"].update(
        value=_cell(rs, "simplex")["bound"]["value"] * (1 + 1e-6)),
    "monte-carlo-bound": lambda rs: _cell(rs, "lp_ball", 2.0)["bound"].update(
        value=_cell(rs, "lp_ball", 2.0)["bound"]["value"] * 2),
    "empirical": lambda rs: rs[0]["empirical"].update(
        point_estimate=rs[0]["empirical"]["point_estimate"] + 0.1),
    "missing-cell": lambda rs: rs.pop(),
}


def test_checker_accepts_an_untampered_report(tiny_reference):
    reference, out_dir = tiny_reference
    attempted, failed, problems = check.check_step("certify", out_dir, reference)
    assert (attempted, failed, problems) == (len(reference), 0, [])


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_checker_flags_a_tampered_report(tiny_reference, tmp_path, tamper):
    reference, out_dir = tiny_reference
    attempted, failed, problems = check.check_step(
        "certify", _tampered(out_dir, tmp_path, TAMPERS[tamper]), reference
    )
    assert attempted == len(reference)
    assert failed == 1 and len(problems) >= 1


def test_checker_accepts_the_closed_form_bound(tiny_reference, tmp_path):
    """A report whose lp bound switched to exact moments still passes."""
    reference, out_dir = tiny_reference

    def to_exact(reports):
        for r in reports:
            if "[monte-carlo]" in r["bound_name"]:
                spec = r["spec"]
                cell = {"kind": spec["kind"], "p": spec["p"], "n": r["n"], "theta": r["theta"]}
                r["bound"]["value"] = make_reference.exact_unconditional_bound(cell)
                r["bound_name"] = "unconditional[exact]"

    _, failed, problems = check.check_step("certify", _tampered(out_dir, tmp_path, to_exact), reference)
    assert (failed, problems) == (0, [])


def test_diagnostic_ratios_use_combined_standard_errors():
    ref = {"ratio": 1.0, "ratio_se": 0.01}
    assert check.compare("reflection", {"ratio": 1.05, "ratio_se": 0.01}, ref)[0] == 0
    assert check.compare("reflection", {"ratio": 1.2, "ratio_se": 0.01}, ref)[0] == 1
    assert check.compare("reflection", {"ratio": float("nan"), "ratio_se": 0.01}, ref)[0] == 1


def test_self_time_subtracts_children_on_the_same_process():
    def span(id_, parent, layer, fn, cpu):
        return {"id": id_, "parent": parent, "layer": layer, "fn": fn,
                "cpu_start": cpu[0], "cpu_end": cpu[1]}

    spans = [
        span(1, None, "cli", "cli:main", (0.0, 10.0)),
        span(2, 1, "samplers.sample", "samplers:sample", (1.0, 7.0)),
        span(3, 2, "samplers.calibrate", "samplers:calibrate_isotropic", (1.0, 3.0)),
    ]
    metrics = run.layer_metrics([spans], cpu_s=12.5)
    assert metrics["cli.self_s"] == 4.0
    assert metrics["samplers.sample_s"] == 4.0
    assert metrics["samplers.calibrate_s"] == 2.0
    assert metrics["samplers.calibrate_share"] == pytest.approx(1 / 3)
    assert metrics["trace.attributed_frac"] == pytest.approx(10.0 / 12.5)
