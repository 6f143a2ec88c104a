import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringmot
from ringmot import costs, seidl, semiclassical
from ringmot.cli import main
from ringmot.config import TWO_PI
from ringmot.costs import WELL_ORDER_GRID_GUARD
from ringmot.measure1d import GridDensity
from ringmot.mmot import LP_CELL_GUARD
from ringmot.seidl import SYMMETRIZED_ATOM_GUARD, plan_from_csv
from ringmot.semiclassical import KERNEL_GUARD


# strictly well-ordering on its window [0, 1], and defined there only
GRAPH_01 = {"kind": "graph", "window": [0, 1], "f": {"kind": "exp"}, "g": {"kind": "exp"}}


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


def written(out: Path):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


def strict_json(path: Path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant} in {path.name}")

    return json.loads(path.read_text(), parse_constant=reject)


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
        result = strict_json(out / "result.json")
        assert result["status"] == "infeasible"
        assert result["value"] is None
        for key, name in result.items():
            if key.endswith("_csv"):
                assert (out / name).exists(), name
        assert not (out / "plan.csv").exists() and not (out / "duals.csv").exists()

    def test_unrenderable_artifact_writes_nothing(self, tmp_path, capsys):
        # coincident points under the ring cost give an infinite paired cost
        out = tmp_path / "coincident"
        code = run(["swap-demo", "--members", "1,2", "--points", "1,1,2,3", "--out", str(out)])
        assert code == 2
        assert "trace.json" in capsys.readouterr().err
        assert written(out) == []

    @pytest.mark.parametrize("grid", [0, 1, 2])
    def test_kantorovich_grid_below_three(self, specs, tmp_path, capsys, grid):
        out = tmp_path / "kant"
        code = run(["kantorovich", "--density", specs["density"], "--cost", specs["cost"],
                    "--grid", str(grid), "--out", str(out)])
        assert code == 2
        assert f"grid_size = {grid}" in capsys.readouterr().err
        assert written(out) == []

    def test_guard_violation(self, specs, tmp_path, capsys):
        code = run(["mmot-solve", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "3", "--m", "60", "--out", str(tmp_path / "z")])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["seidl-plan", "mmot-solve", "kantorovich"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_density_value(self, specs, tmp_path, capsys, command, bad):
        spec = GridDensity.cosine(num_nodes=9, amplitude=0.5).to_spec()
        spec["values"][3] = bad
        density = tmp_path / "bad_density.json"
        density.write_text(json.dumps(spec))
        out = tmp_path / "out"
        code = run([command, "--density", str(density), "--cost", specs["cost"],
                    "--n", "2", "--m", "4", "--out", str(out)])
        assert code == 2
        assert f"density values must be finite: index 3 holds {bad}" in capsys.readouterr().err
        assert written(out) == []

    def test_unordered_table_rejected(self, tmp_path, capsys):
        table = {"kind": "table", "params": {"xs": [0, 3.3, 2.0, 3.5], "ys": [3, 0, 2, 0]}}
        cost = tmp_path / "torus_table.json"
        cost.write_text(json.dumps({"kind": "torus", "profile": table}))
        out = tmp_path / "wo"
        assert run(["check-wellordering", "--cost", str(cost), "--grid", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "table xs must be strictly increasing: index 2 holds 2.0 after 3.3" in err
        assert written(out) == []

    @pytest.mark.parametrize("spec, named", [
        ({"kind": "ring"}, "ring cost spec needs the key 'profile'"),
        ({"kind": "torus", "profile": {"kind": "table", "params": {"ys": [1.0, 0.0]}}},
         "table profile params needs the key 'xs'"),
        ({"kind": "graph", "window": [0, None], "f": {"kind": "exp"}, "g": {"kind": "exp"}},
         "graph cost window must be numeric, got None"),
        ({"kind": "ring", "profile": {"kind": "inverse", "params": {"scal": 1.0}}},
         "inverse profile has no parameter 'scal'"),
        ({"kind": "ring", "profile": {"kind": "exp", "params": {"rate": "fast"}}},
         "exp profile parameter 'rate' must be numeric, got 'fast'"),
        ({"kind": "sum", "terms": [{"kind": "ring", "profile": {"kind": "inverse"}}], "weights": 1},
         "sum cost spec 'weights' must be a list, got 1"),
        ([{"kind": "ring", "profile": {"kind": "inverse"}}], "cost spec must be a JSON object, got a list"),
        ({"kind": "truncated", "h": 0, "base": {"kind": "ring", "profile": {"kind": "inverse"}}},
         "truncation level must be positive"),
        ({"kind": "truncated", "h": True, "base": {"kind": "ring", "profile": {"kind": "inverse"}}},
         "truncated cost h must be numeric, got True"),
        ({"kind": "truncated", "h": 2.0}, "truncated cost spec needs the key 'base'"),
    ], ids=["no-profile", "table-no-xs", "window-null", "unknown-param", "non-numeric",
            "scalar-weights", "list", "truncated-h-zero", "truncated-h-bool", "truncated-no-base"])
    def test_malformed_cost_spec(self, tmp_path, capsys, spec, named):
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps(spec))
        out = tmp_path / "wo"
        assert run(["check-wellordering", "--cost", str(cost), "--grid", "16", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert written(out) == []

    @pytest.mark.parametrize("spec, named", [
        ({"nodes": [0.0, TWO_PI], "values": None}, "density spec 'values' must be a list, got None"),
        ({"nodes": [0.0, TWO_PI], "values": [True, 1.0]}, "density values must be numeric, got True"),
        ({"nodes": ["0", TWO_PI], "values": [1.0, 1.0]}, "density nodes must be numeric, got '0'"),
        ({"nodes": [0.0, TWO_PI], "values": [1.0, 1.0], "periodic": "no"},
         "density spec 'periodic' must be a bool, got 'no'"),
        ([[0.0, TWO_PI], [1.0, 1.0]], "density spec must be a JSON object, got a list"),
        ({"nodes": [0.0, math.pi, TWO_PI], "values": [1.0, math.nan, 1.0]},
         "density values must be finite: index 1 holds nan"),
    ], ids=["values-null", "bool-value", "string-node", "periodic-string", "list", "nan"])
    def test_malformed_density_spec(self, tmp_path, capsys, spec, named):
        density = tmp_path / "density.json"
        density.write_text(json.dumps(spec))
        out = tmp_path / "plan"
        assert run(["seidl-plan", "--density", str(density), "--n", "2", "--m", "4",
                    "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert written(out) == []

    @pytest.mark.parametrize("cmd", [
        ["seidl-plan", "--density", "{density}", "--n", "2", "--m", "4"],
        ["mmot-solve", "--density", "{density}", "--n", "2", "--m", "4"],
        ["semiclassical", "--density", "{density}", "--n", "2", "--m", "8", "--eps", "1e-1"],
        ["swap-demo", "--members", "1,3"],
    ], ids=["seidl-plan", "mmot-solve", "semiclassical", "swap-demo"])
    def test_graph_cost_outside_window(self, specs, tmp_path, capsys, cmd):
        # every command evaluates the cost at points past the window's end 1
        cost = tmp_path / "graph01.json"
        cost.write_text(json.dumps(GRAPH_01))
        out = tmp_path / "out"
        argv = [arg.format(density=specs["density"]) for arg in cmd]
        assert run([*argv, "--cost", str(cost), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "graph cost is defined on [0.0, 1.0] only, not at " in err
        assert float(err.rsplit(" ", 1)[1]) > 1.0
        assert written(out) == []

    def test_graph_cost_checked_at_table_breakpoints(self, tmp_path, capsys):
        # f peaks at 5 between its 17 window samples; g's table ends short of hypot(4, 5)
        f = {"kind": "table", "params": {"xs": [0, 0.1, 0.125, 0.15, 4], "ys": [0, 0, 5, 0, 0]}}
        g = {"kind": "table", "params": {"xs": [0, 4.5], "ys": [1, 0]}}
        cost = tmp_path / "peak.json"
        cost.write_text(json.dumps({"kind": "graph", "window": [0, 4], "f": f, "g": g}))
        out = tmp_path / "out"
        assert run(["check-wellordering", "--cost", str(cost), "--grid", "64", "--out", str(out)]) == 2
        assert ("graph profiles not evaluable on the window: table profile is defined on "
                "[0.0, 4.5] only, not at 4.80") in capsys.readouterr().err
        assert written(out) == []

    @pytest.mark.parametrize("cmd", [
        ["mmot-solve", "--density", "{density}", "--n", "2", "--m", "4"],
        ["seidl-plan", "--density", "{density}", "--n", "2", "--m", "4"],
        ["check-wellordering", "--grid", "16"],
        ["kantorovich", "--density", "{density}", "--n", "2", "--grid", "32"],
        ["semiclassical", "--density", "{density}", "--n", "2", "--m", "8", "--eps", "1e-1"],
    ], ids=["mmot-solve", "seidl-plan", "check-wellordering", "kantorovich", "semiclassical"])
    @pytest.mark.parametrize("params, named", [
        ('{"rate": -1000.0, "scale": -1.0}', "w at (0.7853981633974483,) is -inf"),
        ('{"rate": NaN}', "w at (0.0,) is nan"),
        ('{"rate": Infinity}', "w at (0.0,) is nan"),
    ], ids=["neg-inf", "nan", "infinity"])
    def test_nan_or_neg_inf_cost_writes_nothing(self, specs, tmp_path, capsys, cmd, params, named):
        # unrefused, the LP drops the -inf cells as if +inf and calls the neg-inf cost optimal at -2.0
        cost = tmp_path / "bad.json"
        cost.write_text(f'{{"kind": "ring", "profile": {{"kind": "exp", "params": {params}}}}}')
        out = tmp_path / "out"
        argv = [arg.format(density=specs["density"]) for arg in cmd]
        assert run([*argv, "--cost", str(cost), "--out", str(out)]) == 2
        assert f"error: ring cost must not be NaN or -inf: {named}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", [
        ["check-wellordering", "--grid", "16"],
        ["seidl-plan", "--density", "{density}", "--n", "2", "--m", "4"],
        ["mmot-solve", "--density", "{density}", "--n", "2", "--m", "4"],
    ], ids=["check-wellordering", "seidl-plan", "mmot-solve"])
    def test_infinite_sum_weight_refused_at_load(self, specs, tmp_path, capsys, cmd):
        # unrefused, the sum is +inf on every pair: mmot-solve called it infeasible (exit 1,
        # artifacts written) and the others failed to write inf as strict JSON
        terms = [{"kind": "ring", "profile": {"kind": "inverse"}},
                 {"kind": "ring", "profile": {"kind": "exp"}}]
        cost = tmp_path / "sum.json"
        cost.write_text(json.dumps({"kind": "sum", "weights": [1.0, math.inf], "terms": terms}))
        out = tmp_path / "out"
        argv = [arg.format(density=specs["density"]) for arg in cmd]
        assert run([*argv, "--cost", str(cost), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: cone_combine weights must be finite and positive: "
                                           "weight 1 is inf\n")
        assert not out.exists()

    def test_strict_verdict_needs_strict(self, tmp_path, capsys):
        cost = tmp_path / "graph01.json"
        cost.write_text(json.dumps(GRAPH_01))
        argv = ["check-wellordering", "--cost", str(cost), "--grid", "16",
                "--expect", "strictly_well_ordering"]
        out = tmp_path / "plain"
        assert run([*argv, "--out", str(out)]) == 2
        assert "--expect strictly_well_ordering needs --strict" in capsys.readouterr().err
        assert written(out) == []
        out = tmp_path / "strict"
        assert run([*argv, "--strict", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["verdict"] == "strictly_well_ordering"

    @pytest.mark.parametrize("cmd, named", [
        (["kantorovich", "--n", "2", "--grid", "2048"],
         "grid^2 = 2048^2 = 4194304 exceeds the 1048576 guard"),
        (["kantorovich", "--n", "100000", "--grid", "3"], "grid^99999 = 3^99999 exceeds the 1048576 guard"),
        (["seidl-plan", "--n", "10", "--m", "10", "--symmetrize"],
         "n! * m = 10! * 10 = 36288000 exceeds the 200000 guard"),
        (["semiclassical", "--n", "0", "--eps", "0.1"],
         "need n >= 2 marginals and m a positive multiple of n: got n = 0, m = 64"),
    ], ids=["kantorovich", "kantorovich-huge-n", "seidl-plan-symmetrize", "semiclassical-n0"])
    def test_size_guard_writes_nothing(self, specs, tmp_path, capsys, cmd, named):
        out = tmp_path / "guarded"
        code = run([*cmd, "--density", specs["density"], "--cost", specs["cost"], "--out", str(out)])
        assert code == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert written(out) == []

    @pytest.mark.parametrize("cmd, sizes, named, work", [
        (["mmot-solve", "--n", "2", "--m", "448"], (447 ** 2, 448 ** 2, LP_CELL_GUARD),
         "m^n = 448^2 = 200704 exceeds the 200000 guard", (seidl, "quantize")),
        (["kantorovich", "--n", "2", "--grid", "64", "--m", "448"], (447 ** 2, 448 ** 2, LP_CELL_GUARD),
         "m^n = 448^2 = 200704 exceeds the 200000 guard", (costs, "support_thresholds")),
        (["seidl-plan", "--n", "3", "--m", "33336", "--symmetrize"],
         (6 * 33333, 6 * 33336, SYMMETRIZED_ATOM_GUARD),
         "n! * m = 3! * 33336 = 200016 exceeds the 200000 guard", (seidl, "staircase")),
        (["semiclassical", "--n", "2", "--m", "8178", "--eps", "0.1"], (8176 * 513, 8178 * 513, KERNEL_GUARD),
         "coords * (2 reach + 1) = 8178 * 513 = 4195314 exceeds the 4194304 guard",
         (semiclassical, "seidl_plan")),
    ], ids=["mmot-solve", "kantorovich-m", "seidl-plan-symmetrize", "semiclassical"])
    def test_guard_trips_before_any_work(self, monkeypatch, specs, tmp_path, capsys, cmd, sizes, named, work):
        # the first size past the limit trips (one step fewer is inside), before the
        # guarded command's first step of work runs
        inside, past, limit = sizes
        assert inside <= limit < past

        def no_work(*args, **kwargs):
            raise AssertionError(f"{cmd[0]} started work before its size guard")

        monkeypatch.setattr(*work, no_work)
        out = tmp_path / "guarded"
        code = run([*cmd, "--density", specs["density"], "--cost", specs["cost"], "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert written(out) == []

    def test_out_of_memory_writes_nothing(self, monkeypatch, specs, tmp_path, capsys):
        def refused(*args):
            raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000, 2, 2)")

        monkeypatch.setattr(seidl, "staircase", refused)
        out = tmp_path / "oom"
        code = run(["seidl-plan", "--density", specs["density"], "--n", "2", "--m", "4", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 7.45 GiB for an "
                                           "array with shape (1000000000, 2, 2)\n")
        assert written(out) == []

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

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 9), (4, 8)])
    def test_symmetrized_plan(self, specs, tmp_path, n, m):
        density = tmp_path / "cosine.json"
        density.write_text(json.dumps(GridDensity.cosine().to_spec()))
        args = ["seidl-plan", "--density", str(density), "--n", str(n), "--m", str(m),
                "--cost", specs["cost"]]
        plain, sym = tmp_path / "plain", tmp_path / "sym"
        assert run(args + ["--out", str(plain)]) == 0
        assert run(args + ["--symmetrize", "--out", str(sym)]) == 0
        base, full = plan_from_csv(plain / "plan.csv"), plan_from_csv(sym / "plan.csv")
        rows = math.factorial(n) * m
        assert full.atoms.shape == (rows, n)
        np.testing.assert_allclose(full.weights, 1.0 / rows, rtol=1e-15, atol=0)
        # coordinate k of the n! permutations takes each plain column (n-1)! times
        everything = np.sort(np.tile(base.atoms.ravel(), math.factorial(n - 1)))
        for k in range(n):
            assert np.array_equal(np.sort(full.atoms[:, k]), everything), k
        summary = json.loads((sym / "summary.json").read_text())
        assert summary["atoms"] == rows
        plain_cost = json.loads((plain / "summary.json").read_text())["cost"]
        assert summary["cost"] == pytest.approx(plain_cost, rel=1e-12, abs=0)

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
        # in process numpy loads before ringmot.cli, so the BLAS default could not apply
        assert manifest["blas_threads"] is None
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
            "seed_period_defect", "iterations", "residual_history",
            "lp_truncated", "lp_full", "tile", "tiles_scanned", "tiles_total",
        }
        assert stage["iterations"] == cert["iterations"] == len(stage["residual_history"])
        assert stage["residual_history"][-1] == cert["residual"]
        for lp in ("lp_truncated", "lp_full"):
            assert set(stage[lp]) == {"iterations", "phase1_pivots", "degenerate_pivots", "lex_ties", "start"}
        assert (stage["tile"], stage["tiles_scanned"], stage["tiles_total"]) == (8, 0, 0)

    def test_kantorovich_stage_n3(self, specs, tmp_path):
        out = tmp_path / "kant3"
        assert run(["kantorovich", "--density", specs["density"], "--cost", specs["cost"],
                    "--n", "3", "--grid", "24", "--m", "6", "--out", str(out)]) == 0
        stage = json.loads((out / "manifest.json").read_text())["stages"]["kantorovich"]
        transforms = stage["iterations"]  # converged: one per iteration
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
        assert all(set(r) == {"eps", "eta", "reach", "pair_cells"} for r in stage["rows"])
        # a coordinate's window on the pair grid holds reach nodes at the defaults
        assert all(r["pair_cells"] % r["reach"] ** 2 == 0 for r in stage["rows"])
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

    def test_semiclassical_seam_jump_rejected(self, specs, tmp_path, capsys):
        # rho jumps from 1.5 to 0.5 where 2*pi meets 0: sqrt(rho) is not in H^1 of the
        # ring, so no trial state has finite kinetic energy and no bound is written
        density = tmp_path / "seam.json"
        density.write_text(json.dumps({"nodes": [0.0, np.pi, 2 * np.pi], "values": [0.5, 1.0, 1.5]}))
        out = tmp_path / "semi"
        code = run(["semiclassical", "--density", str(density), "--cost", specs["cost"],
                    "--n", "2", "--eps", "1e-1,1e-2", "--m", "16", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "seam" in err and "np.float64" not in err
        assert not out.exists()

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


# one or two argument lists per subcommand, "{cost}" and "{density}" filled from specs
DETERMINISM_COMMANDS = [
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
]


class TestDeterminism:
    @pytest.mark.parametrize("cmd", DETERMINISM_COMMANDS, ids=lambda c: c[0])
    def test_byte_identical_reruns(self, specs, tmp_path, cmd):
        args = [a.format(**specs) for a in cmd]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        files1, files2 = data_files(out1), data_files(out2)
        assert [p.name for p in files1] == [p.name for p in files2]
        for p1, p2 in zip(files1, files2):
            assert p1.read_bytes() == p2.read_bytes(), p1.name
        for path in [*files1, out1 / "manifest.json"]:
            if path.suffix == ".json":
                strict_json(path)
        # manifests agree up to timing fields
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        for m in (m1, m2):
            m.pop("timestamp")
            m.pop("wall_time_s")
            m["parameters"].pop("out")
        assert m1 == m2

    @pytest.mark.parametrize("cmd", DETERMINISM_COMMANDS, ids=lambda c: c[0])
    def test_module_run_matches_in_process(self, specs, tmp_path, cmd):
        # python -m runs entry(), which freezes the heap; main() in process leaves the collector alone
        args = [a.format(**specs) for a in cmd]
        main_out, module_out = tmp_path / "main", tmp_path / "module"
        assert run(args + ["--out", str(main_out)]) == 0
        fresh_python(["-m", "ringmot.cli", *args, "--out", str(module_out)], fresh_env())
        files = data_files(main_out)
        assert [p.name for p in files] == [p.name for p in data_files(module_out)]
        for path in files:
            assert path.read_bytes() == (module_out / path.name).read_bytes(), path.name


# Run in a fresh interpreter: import the package, then ringmot.cli, then every
# subcommand but swap-demo, reporting the ringmot modules and numpy.ma loaded
# after each phase, whether the package import loaded numpy, and the BLAS
# thread variable the CLI import left.
STARTUP_PROBE = """
import json, os, sys
import ringmot
package_numpy = "numpy" in sys.modules
import ringmot.cli

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("ringmot.") or m in ("numpy.ma", "dataclasses", "_hashlib"))

report = {"package_numpy": package_numpy, "import": loaded(),
          "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
          "grid_density": ringmot.GridDensity is ringmot.measure1d.GridDensity}
report["codes"] = [ringmot.cli.main(args) for args in json.loads(sys.argv[1])]
report["run"] = loaded()
print(json.dumps(report))
"""

# the modules perfbench/tracer.py looks up in sys.modules right after import
TRACED_MODULES = ["ringmot." + m for m in (
    "measure1d", "costs", "seidl", "mmot", "simplex", "kantorovich", "semiclassical")]


def fresh_env(blas_threads=None):
    """This process's environment with ringmot's source first on PYTHONPATH and
    OPENBLAS_NUM_THREADS set to ``blas_threads`` (removed if None)."""
    src = str(Path(ringmot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def fresh_python(argv, env):
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestStartup:
    def test_command_path_skips_swaplab_and_numpy_ma(self, specs, tmp_path):
        common = ["--density", specs["density"], "--cost", specs["cost"]]
        commands = [
            ["seidl-plan", *common, "--n", "2", "--m", "8"],
            ["mmot-solve", *common, "--n", "2", "--m", "6"],
            ["kantorovich", *common, "--n", "2", "--grid", "32", "--m", "4"],
            ["semiclassical", *common, "--n", "2", "--eps", "1e-1,1e-2", "--m", "8"],
            ["check-wellordering", "--cost", specs["cost"], "--grid", "16"],
        ]
        for k, args in enumerate(commands):
            args += ["--out", str(tmp_path / f"out{k}")]
        stdout = fresh_python(["-c", STARTUP_PROBE, json.dumps(commands)], fresh_env())
        report = json.loads(stdout.splitlines()[-1])
        assert report["package_numpy"] is False
        assert report["blas"] == "1"
        assert report["grid_density"] is True
        assert set(TRACED_MODULES) <= set(report["import"])
        assert "ringmot.swaplab" not in report["import"]
        assert "dataclasses" not in report["import"]
        assert "_hashlib" not in report["import"]   # OpenSSL is mapped only to hash the inputs
        assert report["codes"] == [0] * len(commands)
        assert "ringmot.swaplab" not in report["run"]
        assert "numpy.ma" not in report["run"]
        assert "dataclasses" not in report["run"]
        for k in range(len(commands)):
            manifest = json.loads((tmp_path / f"out{k}" / "manifest.json").read_text())
            assert manifest["blas_threads"] == "1"

    def test_preset_blas_threads_kept(self):
        probe = ("import json, os, ringmot.cli; "
                 "print(json.dumps([os.environ['OPENBLAS_NUM_THREADS'], ringmot.cli.BLAS_THREADS]))")
        assert json.loads(fresh_python(["-c", probe], fresh_env("2"))) == ["2", "2"]

    def test_lp_bytes_do_not_depend_on_blas_default(self, tmp_path):
        # the LP's pivots follow OpenBLAS's thread count; unset must mean one thread
        density = tmp_path / "cosine08.json"
        density.write_text(json.dumps(GridDensity.cosine(amplitude=0.8).to_spec()))
        cost = tmp_path / "ring.json"
        cost.write_text(json.dumps(
            {"kind": "ring", "profile": {"kind": "inverse", "params": {"scale": 1.0}}}))
        outs = {}
        for label, threads in (("unset", None), ("one", "1")):
            outs[label] = tmp_path / label
            fresh_python(["-m", "ringmot.cli", "mmot-solve", "--density", str(density),
                          "--cost", str(cost), "--n", "3", "--m", "48",
                          "--out", str(outs[label])], fresh_env(threads))
        for name in ("result.json", "plan.csv", "duals.csv"):
            assert (outs["unset"] / name).read_bytes() == (outs["one"] / name).read_bytes(), name

    def test_cli_import_registers_solver_modules_unexecuted(self):
        probe = """
import json, sys, types
import ringmot, ringmot.cli
names = json.loads(sys.argv[1])
report = {"registered": [m for m in names if m in sys.modules],
          "executed": [m for m in names if type(sys.modules.get(m)) is types.ModuleType],
          "on_package": ringmot.__dict__.get("costs") is sys.modules["ringmot.costs"]}
from ringmot.kantorovich import certify_potential
report["library"] = [certify_potential.__name__, ringmot.costs.load_cost.__name__]
print(json.dumps(report))
"""
        stdout = fresh_python(["-c", probe, json.dumps(TRACED_MODULES)], fresh_env())
        report = json.loads(stdout.splitlines()[-1])
        assert report["registered"] == TRACED_MODULES
        assert report["executed"] == []
        assert report["on_package"] is True
        assert report["library"] == ["certify_potential", "load_cost"]

    def test_plain_import_executes_eagerly(self):
        # costs needs measure1d's GridDensity for an annotation only
        probe = ("import json, sys, types, ringmot.costs; print(json.dumps(["
                 "type(sys.modules['ringmot.costs']) is types.ModuleType, "
                 "'ringmot.measure1d' in sys.modules]))")
        assert json.loads(fresh_python(["-c", probe], fresh_env())) == [True, False]

    @pytest.mark.parametrize(
        "cmd, executed",
        [
            (["check-wellordering", "--cost", "{cost}", "--grid", "16"], ["costs"]),
            (["seidl-plan", "--density", "{density}", "--n", "2", "--m", "4"],
             ["costs", "measure1d", "seidl"]),
            (["mmot-solve", "--density", "{density}", "--cost", "{cost}", "--n", "2", "--m", "4"],
             ["costs", "measure1d", "mmot", "seidl", "simplex"]),
            (["kantorovich", "--density", "{density}", "--cost", "{cost}",
              "--n", "2", "--grid", "32", "--m", "4"],
             ["costs", "kantorovich", "measure1d", "mmot", "seidl", "simplex"]),
            (["semiclassical", "--density", "{density}", "--cost", "{cost}",
              "--n", "2", "--eps", "1e-1,1e-2", "--m", "8"],
             ["costs", "measure1d", "seidl", "semiclassical"]),
        ],
        ids=["check-wellordering", "seidl-plan", "mmot-solve", "kantorovich", "semiclassical"],
    )
    def test_manifest_lists_executed_modules(self, specs, tmp_path, cmd, executed):
        args = [a.format(**specs) for a in cmd]
        # python -m, and the console script's own call: import ringmot.cli, then entry()
        entries = {"module": ["-m", "ringmot.cli"],
                   "script": ["-c", "import sys, ringmot.cli; sys.exit(ringmot.cli.entry())"]}
        for label, entry in entries.items():
            fresh_python([*entry, *args, "--out", str(tmp_path / label)], fresh_env())
            manifest = json.loads((tmp_path / label / "manifest.json").read_text())
            assert manifest["modules"] == ["ringmot." + m for m in executed], label


# Run in a fresh interpreter after the entry given as argv[1]: at exit, report
# whether the collector is on, the permanent generation's size and how many
# objects the shutdown collections would still walk.
ENTRY_PROBE = """
import atexit, gc, json, runpy, sys
atexit.register(lambda: print(json.dumps(
    {"enabled": gc.isenabled(), "frozen": gc.get_freeze_count(), "walked": len(gc.get_objects())})))
how, sys.argv = sys.argv[1], ["ringmot", *sys.argv[2:]]
if how == "module":
    runpy.run_module("ringmot.cli", run_name="__main__")
else:
    from ringmot.cli import entry
    sys.exit(entry())
"""


class TestProcessEntry:
    def test_main_leaves_collector_alone(self, specs, tmp_path):
        before = gc.isenabled(), gc.get_freeze_count()
        assert run(["check-wellordering", "--cost", specs["cost"], "--grid", "16",
                    "--out", str(tmp_path / "out")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("how", ["module", "entry"])
    def test_exit_heap_frozen_collector_on(self, specs, tmp_path, how):
        # python -m disables the collector for its imports; entry() turns it back
        # on and freezes the heap before main() and again after it
        stdout = fresh_python(["-c", ENTRY_PROBE, how, "check-wellordering", "--cost", specs["cost"],
                               "--grid", "16", "--out", str(tmp_path / "out")], fresh_env())
        report = json.loads(stdout.splitlines()[-1])
        assert report["enabled"] is True
        assert report["frozen"] > 10_000
        assert report["walked"] < 100, report
        assert json.loads((tmp_path / "out" / "report.json").read_text())["verdict"] == "well_ordering"
