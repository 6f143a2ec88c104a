import json
from pathlib import Path

import numpy as np
import pytest

from ringmot.cli import main
from ringmot.costs import WELL_ORDER_GRID_GUARD
from ringmot.measure1d import GridDensity
from ringmot.mmot import SIMPLEX_COUNTERS
from ringmot.seidl import plan_from_csv


@pytest.fixture()
def specs(tmp_path):
    ring = {"kind": "ring", "profile": {"kind": "inverse", "params": {"scale": 1.0}}}
    cost = tmp_path / "ring.json"
    cost.write_text(json.dumps(ring))
    density = tmp_path / "uniform.json"
    density.write_text(json.dumps(GridDensity.uniform().to_spec()))
    return {"cost": str(cost), "density": str(density), "dir": tmp_path}


def run(args):
    return main(args)


def data_files(out: Path):
    return sorted(p for p in out.iterdir() if p.name != "manifest.json")


class TestExitCodes:
    def test_expected_verdict(self, specs, tmp_path):
        out = tmp_path / "ok"
        code = run(["check-wellordering", "--cost", specs["cost"], "--grid", "16",
                    "--expect", "well_ordering", "--out", str(out)])
        assert code == 0

    def test_verdict_mismatch_is_failure(self, specs, tmp_path):
        out = tmp_path / "bad"
        code = run(["check-wellordering", "--cost", specs["cost"], "--grid", "16",
                    "--expect", "violated", "--out", str(out)])
        assert code == 1

    def test_missing_file(self, specs, tmp_path, capsys):
        code = run(["mmot-solve", "--density", str(tmp_path / "nope.json"),
                    "--cost", specs["cost"], "--n", "2", "--m", "4",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_malformed_json(self, specs, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ring",,}')
        code = run(["check-wellordering", "--cost", str(bad), "--out", str(tmp_path / "y")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_non_optimal_lp_writes_strict_json(self, specs, tmp_path):
        # n=3 on two atoms: every cell repeats an atom, so the LP is infeasible
        out = tmp_path / "infeasible"
        code = run(["mmot-solve", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "3", "--m", "2", "--out", str(out)])
        assert code == 1

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        result = json.loads((out / "result.json").read_text(), parse_constant=reject)
        assert result["status"] == "infeasible"
        assert result["value"] is None
        for key, name in result.items():
            if key.endswith("_csv"):
                assert (out / name).exists(), name
        assert not (out / "plan.csv").exists() and not (out / "duals.csv").exists()

    def test_guard_violation(self, specs, tmp_path, capsys):
        code = run(["mmot-solve", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "3", "--m", "60", "--out", str(tmp_path / "z")])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    def test_wellordering_grid_guard(self, specs, tmp_path, capsys):
        size = WELL_ORDER_GRID_GUARD + 1
        code = run(["check-wellordering", "--cost", specs["cost"], "--grid", str(size),
                    "--out", str(tmp_path / "g")])
        assert code == 2
        assert f"grid_size = {size} exceeds" in capsys.readouterr().err


class TestArtifacts:
    def test_plan_roundtrip(self, specs, tmp_path):
        out = tmp_path / "plan"
        assert run(["seidl-plan", "--density", specs["density"], "--n", "2", "--m", "4",
                    "--cost", specs["cost"], "--out", str(out)]) == 0
        plan = plan_from_csv(out / "plan.csv")
        assert plan.atoms.shape == (4, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cost"] == pytest.approx(1.0)

    def test_mmot_outputs(self, specs, tmp_path):
        out = tmp_path / "mmot"
        assert run(["mmot-solve", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "2", "--m", "4", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["status"] == "optimal"
        assert result["value"] == pytest.approx(1.0, abs=1e-12)
        assert (out / "plan.csv").exists() and (out / "duals.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {specs["density"], specs["cost"]}
        simplex = manifest["stages"]["simplex"]
        assert set(simplex) == {"iterations", "phase1_pivots", "degenerate_pivots", "lex_ties", "start"}
        assert simplex["iterations"] == result["iterations"]
        assert (simplex["start"], simplex["phase1_pivots"]) == ("staircase", 0)
        assert "stages" not in result

    def test_kantorovich_certificate(self, specs, tmp_path):
        out = tmp_path / "kant"
        assert run(["kantorovich", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "2", "--grid", "64", "--m", "8", "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["passed"] is True
        rows = (out / "potential.csv").read_text().strip().splitlines()
        assert rows[0] == "x,v" and len(rows) == 65
        stage = json.loads((out / "manifest.json").read_text())["stages"]["kantorovich"]
        assert set(stage) == {
            "iterations", "residual_history", "repaired", "margin_truncated", "margin_full",
            "lp_truncated", "lp_full", "tile", "tiles_scanned", "tiles_total",
        }
        assert stage["iterations"] == cert["iterations"] == len(stage["residual_history"])
        assert stage["residual_history"][-1] == cert["residual"]
        assert stage["margin_truncated"] == cert["margin"]
        assert stage["margin_full"] >= stage["margin_truncated"]
        for lp in ("lp_truncated", "lp_full"):
            assert set(stage[lp]) == set(SIMPLEX_COUNTERS)
        assert (stage["tile"], stage["tiles_scanned"], stage["tiles_total"]) == (8, 0, 0)

    def test_kantorovich_stage_n3(self, specs, tmp_path):
        out = tmp_path / "kant3"
        assert run(["kantorovich", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "3", "--grid", "24", "--m", "6", "--out", str(out)]) == 0
        stage = json.loads((out / "manifest.json").read_text())["stages"]["kantorovich"]
        transforms = stage["iterations"] + stage["repaired"]  # converged: one per iteration
        assert stage["tiles_total"] == transforms * 24 * (24 // 8) ** 2
        assert transforms * 24 <= stage["tiles_scanned"] < stage["tiles_total"]

    def test_semiclassical_outputs(self, specs, tmp_path):
        out = tmp_path / "semi"
        assert run(["semiclassical", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "2", "--eps", "1e-1,1e-2", "--m", "16", "--out", str(out)]) == 0
        slope = json.loads((out / "slope.json").read_text())
        assert slope["reference"] == pytest.approx(1.0, abs=1e-6)
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert rows[0] == "eps,eta,kinetic,interaction,bound"
        assert len(rows) == 3
        stage = json.loads((out / "manifest.json").read_text())["stages"]["semiclassical"]
        assert set(stage) == {"alpha", "cap", "rows", "states", "coords", "quad_grid", "pair_grid"}
        assert stage["coords"] == 16   # uniform n = 2: x and x + pi share the 16 atom nodes
        assert stage["cap"] == stage["alpha"] / 8
        assert [r["eps"] for r in stage["rows"]] == [0.1, 0.01]
        assert all(r["reach"] == int(np.ceil(r["eta"] * 4096 / (2 * np.pi))) for r in stage["rows"])
        assert (stage["quad_grid"], stage["pair_grid"]) == (4096, 1024)
        # the 1024 interaction midpoints sit at 5 phases from the z-grid; each of
        # the 16 z-tiles contracts at most every coordinate
        assert all(r["phases"] == 5 for r in stage["rows"])
        assert all(0 < r["tile_coords"] <= 16 * stage["coords"] for r in stage["rows"])
        assert stage["states"] == len({r["eta"] for r in stage["rows"]} | {stage["cap"]})

    @pytest.mark.parametrize(
        "eps, named", [("1e-1,nan", "nan"), ("1e-1,inf", "inf"), ("1e-1,1e-1", "0.1")],
        ids=["nan", "inf", "duplicate"],
    )
    def test_semiclassical_bad_eps(self, specs, tmp_path, capsys, eps, named):
        out = tmp_path / "semi"
        code = run(["semiclassical", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "2", "--eps", eps, "--m", "16", "--out", str(out)])
        assert code == 2
        assert f"eps = {named}" in capsys.readouterr().err
        assert not (out / "curve.csv").exists()

    def test_semiclassical_bounded_cost(self, specs, tmp_path):
        # a bounded cost has no support threshold; the curve prices it as given
        torus = {"kind": "torus", "profile": {"kind": "linear",
                                              "params": {"intercept": np.pi, "slope": 1.0}}}
        cost = tmp_path / "torus.json"
        cost.write_text(json.dumps(torus))
        out = tmp_path / "semi"
        assert run(["semiclassical", "--density", specs["density"], "--cost", str(cost),
                    "--n", "2", "--eps", "1e-1,1e-2", "--m", "16", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "curve.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 5) and np.all(np.isfinite(rows))
        reference = json.loads((out / "slope.json").read_text())["reference"]
        assert np.all(rows[:, 4] > reference)

    def test_semiclassical_radius_rejected(self, specs, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["semiclassical", "--density", specs["density"], "--cost", specs["cost"],
                 "--eps", "1e-1", "--radius", "0.5", "--out", str(tmp_path / "semi")])
        assert info.value.code == 2
        assert "unrecognized arguments: --radius" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "cmd",
        [
            ["check-wellordering", "--cost", "{cost}", "--grid", "16", "--seed", "7"],
            ["seidl-plan", "--density", "{density}", "--n", "2", "--m", "4"],
            ["swap-demo", "--members", "1,3,4,8,9,11,12"],
            ["mmot-solve", "--density", "{density}", "--cost", "{cost}", "--n", "2", "--m", "4"],
            ["kantorovich", "--density", "{density}", "--cost", "{cost}",
             "--n", "2", "--grid", "32", "--m", "4"],
            pytest.param(
                ["kantorovich", "--density", "{density}", "--cost", "{cost}",
                 "--n", "3", "--grid", "24", "--m", "6"],
                id="kantorovich-n3",
            ),
            ["semiclassical", "--density", "{density}", "--cost", "{cost}",
             "--n", "2", "--eps", "1e-1,1e-2", "--m", "8"],
            pytest.param(
                ["semiclassical", "--density", "{density}", "--cost", "{cost}",
                 "--n", "3", "--eps", "1e-1,1e-2", "--m", "9"],
                id="semiclassical-n3",
            ),
        ],
        ids=lambda c: c[0],
    )
    def test_byte_identical_reruns(self, specs, tmp_path, cmd):
        args = [a.format(**specs) for a in cmd]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        files1, files2 = data_files(out1), data_files(out2)
        assert [p.name for p in files1] == [p.name for p in files2]
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes(), p1.name
        # manifests agree up to timing fields
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):
            m.pop("timestamp")
            m.pop("wall_time_s")
            m["parameters"].pop("out")
        assert m1 == m2
