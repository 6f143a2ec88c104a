"""Mutation self-test of the benchmark's output checks.

Each test makes real artifacts with the ringmot CLI at small sizes, shows
that the checker accepts them, then tampers with one artifact and shows the
checker (or the byte-identity gate) reports a failure.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from ringmot.cli import main as cli  # noqa: E402


def _spec(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _edit_json(path: Path, **changes) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(changes)
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture()
def inputs(tmp_path):
    return {
        "density": _spec(tmp_path, "cosine.json", workloads.cosine_density()),
        "ring": _spec(tmp_path, "ring.json", workloads.RING_INVERSE),
        "torus_square": _spec(tmp_path, "torus_square.json", workloads.TORUS_SQUARE),
    }


def test_lp_value_shift_fails(tmp_path, inputs):
    common = ["--density", inputs["density"], "--cost", inputs["ring"], "--n", "2", "--m", "8"]
    seidl, lp = tmp_path / "seidl", tmp_path / "lp"
    assert cli(["seidl-plan", *common, "--out", str(seidl)]) == 0
    assert cli(["mmot-solve", *common, "--out", str(lp)]) == 0
    params = {"n": 2, "m": 8, "seidl": "seidl"}
    earlier = {"seidl": seidl}
    assert checks.check("seidl", seidl, {}, {}) == []
    assert checks.check("mmot", lp, params, earlier) == []

    value = json.loads((lp / "result.json").read_text())["value"]
    _edit_json(lp / "result.json", value=value + 1e-3)
    problems = checks.check("mmot", lp, params, earlier)
    assert any("Seidl plan cost" in p for p in problems)
    assert any("dual value" in p for p in problems)


def test_plan_marginal_tamper_fails(tmp_path, inputs):
    common = ["--density", inputs["density"], "--cost", inputs["ring"], "--n", "2", "--m", "8"]
    seidl, lp = tmp_path / "seidl", tmp_path / "lp"
    assert cli(["seidl-plan", *common, "--out", str(seidl)]) == 0
    assert cli(["mmot-solve", *common, "--out", str(lp)]) == 0
    lines = (lp / "plan.csv").read_text().splitlines()
    x1, x2, wt = lines[1].split(",")
    lines[1] = ",".join([x1, x2, repr(float(wt) + 1e-6)])
    (lp / "plan.csv").write_text("\n".join(lines) + "\n")
    problems = checks.check("mmot", lp, {"n": 2, "m": 8, "seidl": "seidl"}, {"seidl": seidl})
    assert any("marginal" in p for p in problems)


@pytest.mark.parametrize(
    "cost, expect, flipped",
    [("ring", "well_ordering", "violated"), ("torus_square", "violated", "well_ordering")],
)
def test_flipped_verdict_fails(tmp_path, inputs, cost, expect, flipped):
    out = tmp_path / "wo"
    assert cli(["check-wellordering", "--cost", inputs[cost], "--grid", "8",
                "--expect", expect, "--out", str(out)]) == 0
    assert checks.check("wellorder", out, {"expect": expect}, {}) == []
    _edit_json(out / "report.json", verdict=flipped)
    assert checks.check("wellorder", out, {"expect": expect}, {})


def test_counterexample_that_does_not_violate_fails(tmp_path, inputs):
    out = tmp_path / "wo"
    assert cli(["check-wellordering", "--cost", inputs["torus_square"], "--grid", "8",
                "--expect", "violated", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    cx = dict(report["counterexample"], nested=min(report["counterexample"]["near"],
                                                   report["counterexample"]["far"]))
    _edit_json(out / "report.json", counterexample=cx)
    assert checks.check("wellorder", out, {"expect": "violated"}, {})


@pytest.fixture()
def potential(tmp_path, inputs):
    out = tmp_path / "pot"
    assert cli(["kantorovich", "--density", inputs["density"], "--cost", inputs["ring"],
                "--n", "2", "--grid", "64", "--out", str(out)]) == 0
    params = {"n": 2, "cost": workloads.RING_INVERSE}
    assert checks.check("kantorovich", out, params, {}) == []
    return out, params


def test_certificate_not_passed_fails(potential):
    out, params = potential
    _edit_json(out / "certificate.json", passed=False)
    assert checks.check("kantorovich", out, params, {}) == ["certificate passed is False"]


def test_raised_potential_fails_recomputed_margin(potential):
    out, params = potential
    lines = (out / "potential.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    body = [f"{x},{float(v) + 0.5!r}" for x, v in rows]
    (out / "potential.csv").write_text("\n".join([lines[0], *body]) + "\n")
    problems = checks.check("kantorovich", out, params, {})
    assert any("recomputed feasibility margin" in p for p in problems)


def test_slope_outside_window_fails(tmp_path, inputs):
    out = tmp_path / "sc"
    assert cli(["semiclassical", "--density", inputs["density"], "--cost", inputs["ring"],
                "--n", "2", "--m", "64", "--eps", workloads.EPS, "--out", str(out)]) == 0
    assert checks.check("semiclassical", out, {}, {}) == []
    _edit_json(out / "slope.json", slope=0.3)
    assert checks.check("semiclassical", out, {}, {})


def test_one_changed_byte_fails_identity_gate(tmp_path, inputs):
    out = tmp_path / "wo"
    assert cli(["check-wellordering", "--cost", inputs["ring"], "--grid", "8",
                "--out", str(out)]) == 0
    reference = checks.artifact_hashes(out)
    assert "manifest.json" not in reference

    _edit_json(out / "manifest.json", timestamp="later")
    assert checks.changed(reference, checks.artifact_hashes(out)) == []

    data = bytearray((out / "report.json").read_bytes())
    data[-2] ^= 0x01
    (out / "report.json").write_bytes(bytes(data))
    assert checks.changed(reference, checks.artifact_hashes(out)) == ["report.json"]


def test_missing_artifact_is_a_failure_not_a_crash(tmp_path):
    problems = checks.check("semiclassical", tmp_path, {}, {})
    assert problems and "unreadable" in problems[0]


def test_independent_ring_cost_matches_ringmot(inputs):
    from ringmot.costs import cost_from_spec

    x = np.linspace(0.0, 2 * np.pi, 33)
    for spec in (workloads.RING_INVERSE, workloads.RING_EXP2):
        ours = checks.ring_cost(spec, x[:, None], x[None, :])
        theirs = cost_from_spec(spec).pair_matrix(x)
        finite = np.isfinite(theirs)
        assert np.array_equal(finite, np.isfinite(ours))
        assert np.allclose(ours[finite], theirs[finite], rtol=1e-12, atol=0)
