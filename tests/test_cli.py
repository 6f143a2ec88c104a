import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringmot
from ringmot.cli import main
from ringmot.costs import WELL_ORDER_GRID_GUARD
from ringmot.measure1d import GridDensity
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
    ], ids=["no-profile", "table-no-xs", "window-null", "unknown-param", "non-numeric",
            "scalar-weights", "list"])
    def test_malformed_cost_spec(self, tmp_path, capsys, spec, named):
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps(spec))
        out = tmp_path / "wo"
        assert run(["check-wellordering", "--cost", str(cost), "--grid", "16", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
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
            "margin_truncated", "margin_full", "lp_truncated", "lp_full", "tile", "tiles_scanned",
            "tiles_total",
        }
        assert stage["iterations"] == cert["iterations"] == len(stage["residual_history"])
        assert stage["residual_history"][-1] == cert["residual"]
        assert stage["margin_truncated"] == cert["margin"]
        assert stage["margin_full"] >= stage["margin_truncated"]
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
                  if m.startswith("ringmot.") or m in ("numpy.ma", "dataclasses"))

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
             ["costs", "measure1d", "pairgrid", "seidl", "semiclassical"]),
        ],
        ids=["check-wellordering", "seidl-plan", "mmot-solve", "kantorovich", "semiclassical"],
    )
    def test_manifest_lists_executed_modules(self, specs, tmp_path, cmd, executed):
        args = [a.format(**specs) for a in cmd]
        # python -m, and the console script's own call: import ringmot.cli, then main()
        entries = {"module": ["-m", "ringmot.cli"],
                   "script": ["-c", "import sys, ringmot.cli; sys.exit(ringmot.cli.main())"]}
        for label, entry in entries.items():
            fresh_python([*entry, *args, "--out", str(tmp_path / label)], fresh_env())
            manifest = json.loads((tmp_path / label / "manifest.json").read_text())
            assert manifest["modules"] == ["ringmot." + m for m in executed], label
