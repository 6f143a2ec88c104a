"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ringmot.cli import main as cli_main
from ringmot.costs import (
    ExpProfile,
    InverseProfile,
    LinearProfile,
    PowerProfile,
    check_well_ordering,
    cone_combine,
    make_graph_cost,
    make_ring_cost,
    make_torus_cost,
    support_thresholds,
    truncate,
)
from ringmot.kantorovich import certify_potential
from ringmot.measure1d import GridDensity
from ringmot.mmot import quantize, solve_mmot
from ringmot.seidl import plan_cost, seidl_plan
from ringmot.semiclassical import (
    GammaEta,
    Mollifier,
    kinetic_energy,
    marginal_identity_check,
    support_separation,
    upper_bound_curve,
)
from ringmot.swaplab import Bipartition, cumulative_f, oscillation, reduce_to_wellordered

from conftest import TWO_PI
from test_costs import random_convex_graph_cost

GOLDEN = Path(__file__).parent / "golden" / "figure1_trace.json"


def report(criterion, name, detail=""):
    print(f"ACCEPTANCE {criterion} ({name}): PASS {detail}".rstrip())


def test_criterion_1_seidl_optimality(uniform, cosine):
    started = time.monotonic()
    costs = {
        "ring-inverse": make_ring_cost(InverseProfile()),
        "ring-exp2": make_ring_cost(ExpProfile(rate=2.0)),
        "torus-linear": make_torus_cost(LinearProfile(np.pi, 1.0)),
    }
    densities = {
        "uniform": uniform,
        "cosine": cosine,
        "random": GridDensity.random_positive(2027),
    }
    worst = 0.0
    count = 0
    # atom counts must be multiples of n so all marginals share one atom set;
    # for n = 3 the spanned range of {4, 6, 8} maps to {6, 9, 12}
    m_grid = {2: (4, 6, 8), 3: (6, 9, 12)}
    for wname, w in costs.items():
        for rname, rho in densities.items():
            for n in (2, 3):
                for m in m_grid[n]:
                    sol = solve_mmot(quantize(rho, m), n, w)
                    assert sol.status == "optimal", (wname, rname, n, m)
                    cost = plan_cost(seidl_plan(rho, n, m), w)
                    diff = abs(sol.value - cost)
                    assert diff <= 1e-7, (wname, rname, n, m, diff)
                    worst = max(worst, diff)
                    count += 1
    elapsed = time.monotonic() - started
    assert count == 54
    assert elapsed <= 60.0
    report(1, "seidl-optimality", f"54 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_necessity(uniform):
    w = make_graph_cost(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        PowerProfile(2.0),
        (0.0, TWO_PI),
    )
    sol = solve_mmot(quantize(uniform, 4), 2, w)
    seidl_cost = plan_cost(seidl_plan(uniform, 2, 4), w)
    excess = seidl_cost - sol.value
    assert excess >= 1e-3
    checker = check_well_ordering(w, grid_size=32)
    assert checker.verdict == "violated"
    assert checker.counterexample is not None
    report(2, "necessity", f"suboptimality {excess:.3f}, counterexample found")


def test_criterion_3_swap_engine(ring_inverse, ring_exp2, torus_linear):
    started = time.monotonic()
    rng = np.random.default_rng(314)
    for _ in range(10_000):
        n = int(rng.integers(2, 17))
        members = tuple(rng.choice(np.arange(1, 2 * n + 1), n, replace=False))
        a = Bipartition(n, members)
        f = cumulative_f(a)
        assert set(np.abs(np.diff(f.values))) == {1}
        assert cumulative_f(a.complement()).values == tuple(-v for v in f.values)
        trace = reduce_to_wellordered(a)
        oscs = [trace.initial.oscillation] + [s.oscillation for s in trace.steps]
        assert all(b < a_ for a_, b in zip(oscs, oscs[1:]))
        assert trace.num_steps <= n - 1
        assert trace.terminal in ("odd", "even")
    costs = (ring_inverse, ring_exp2, torus_linear)
    for trial in range(1_000):
        n = int(rng.integers(2, 6))
        x = np.sort(rng.uniform(0, TWO_PI, 2 * n))
        members = tuple(rng.choice(np.arange(1, 2 * n + 1), n, replace=False))
        trace = reduce_to_wellordered(Bipartition(n, members), x, costs[trial % 3])
        seq = [trace.initial.paired_cost] + [s.paired_cost for s in trace.steps]
        for c0, c1 in zip(seq, seq[1:]):
            assert c1 <= c0 + 1e-9 or np.isinf(c0)
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0
    report(3, "swap-engine", f"10^4 bipartitions + 10^3 traces, {elapsed:.1f}s")


def test_criterion_4_figure_reproduction(tmp_path):
    out = tmp_path / "fig"
    code = cli_main(["swap-demo", "--members", "1,3,4,8,9,11,12", "--out", str(out)])
    assert code == 0
    produced = (out / "trace.json").read_bytes()
    assert produced == GOLDEN.read_bytes()
    trace = json.loads(produced)
    assert trace["num_steps"] == 2
    assert trace["steps"][0]["members"] == [1, 3, 5, 8, 9, 11, 13]
    assert trace["steps"][1]["members"] == list(range(2, 15, 2))
    assert trace["terminal"] == "even"
    report(4, "figure-reproduction", "golden trace byte-identical")


def test_criterion_5_truncation_equivalence(uniform, cosine08, ring_inverse):
    combo = cone_combine(
        [ring_inverse, make_torus_cost(LinearProfile(np.pi, 1.0))], [1.0, 1.0]
    )
    instances = [
        (uniform, ring_inverse, 2, np.pi / 4, 8),
        (uniform, ring_inverse, 3, np.pi / 8, 6),
        (cosine08, ring_inverse, 2, np.pi / 8, 8),
        (GridDensity.random_positive(2027), ring_inverse, 2, np.pi / 8, 8),
        (uniform, combo, 2, np.pi / 4, 6),
        (cosine08, ring_inverse, 3, np.pi / 16, 6),
    ]
    worst = 0.0
    for rho, w, n, r, m in instances:
        kappa = rho.concentration(r)
        assert kappa < 1.0 / n
        th = support_thresholds(rho, w, r, n)
        w_h = truncate(w, th.h)
        marg = quantize(rho, m)
        full = solve_mmot(marg, n, w)
        trunc = solve_mmot(marg, n, w_h)
        assert full.status == trunc.status == "optimal"
        diff = abs(full.value - trunc.value)
        assert diff <= 1e-7
        worst = max(worst, diff)
        i, j = np.triu_indices(n, k=1)
        pair_costs = w(trunc.plan.atoms[:, i], trunc.plan.atoms[:, j])
        assert np.max(pair_costs) <= th.h
    report(5, "truncation-equivalence", f"6 instances, worst value gap {worst:.2e}")


def test_criterion_6_kantorovich_certification(uniform, ring_inverse):
    started = time.monotonic()
    cert = certify_potential(uniform, ring_inverse, 2, grid_size=128, m=8)
    fp = cert.fixed_point
    assert fp.residual <= 1e-6
    assert fp.margin >= -1e-6
    assert cert.gap <= 10.0 / 128 + 10.0 / 8
    assert cert.gap >= -1e-9
    assert cert.oscillation_report.passed        # oscillation within the cost bound
    assert cert.oscillation_report.box_passed    # sharper normalized box
    assert cert.oscillation_report.oscillation <= cert.truncation_level  # pair-level check, stronger
    assert cert.untruncate.passed
    elapsed = time.monotonic() - started
    assert elapsed <= 120.0
    report(
        6,
        "kantorovich-certification",
        f"residual {fp.residual:.1e}, margin {fp.margin:.1e}, "
        f"gap {cert.gap:.2e} <= {cert.gap_tol:.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_gamma_eta_identities(uniform, cosine08):
    chi = Mollifier.bump()
    worst_marginal = 0.0
    worst_kinetic = 0.0
    for rho, m in ((uniform, 64), (cosine08, 512)):
        plan = seidl_plan(rho, 2, m)
        gamma = GammaEta(plan, rho, chi, support_separation(plan) / 8)
        worst_marginal = max(worst_marginal, marginal_identity_check(gamma, 256))
        worst_kinetic = max(worst_kinetic, kinetic_energy(gamma).relative_mismatch)
    assert worst_marginal <= 1e-4
    assert worst_kinetic <= 1e-3

    plan = seidl_plan(cosine08, 2, 32)
    gamma = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
    rng = np.random.default_rng(99)
    lim = gamma.alpha - 4 * gamma.eta
    x1 = rng.uniform(0.0, TWO_PI, 10_000)
    x2 = np.mod(x1 + rng.uniform(-lim, lim, 10_000), TWO_PI)
    vals = gamma.density_at(np.stack([x1, x2], axis=1))
    assert np.max(np.abs(vals)) == 0.0
    report(
        7,
        "gamma-eta-identities",
        f"marginal {worst_marginal:.1e}, kinetic {worst_kinetic:.1e}, "
        "10^4 forbidden tuples at zero",
    )


def test_criterion_8_semiclassical_rate(uniform, cosine08, ring_inverse):
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    slopes = {}
    for name, rho, r in (("uniform", uniform, np.pi / 4), ("cosine", cosine08, np.pi / 8)):
        th = support_thresholds(rho, ring_inverse, r, 2)
        w_h = truncate(ring_inverse, th.h)
        curve = upper_bound_curve(rho, w_h, 2, eps, m=64)
        assert len(curve.points) == len(eps)
        bounds = [p.bound for p in curve.points]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))  # decreasing in the list
        assert all(p.bound >= curve.reference - 1e-9 for p in curve.points)
        assert 0.4 <= curve.slope <= 0.6, curve.slope
        slopes[name] = curve.slope
    report(
        8,
        "semiclassical-rate",
        "slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        + " (exact constrained-search energies are not reproducible at desk "
        "scale; only the trial-state upper bound is certified)",
    )


def test_criterion_9_convex_graph_costs():
    for seed in range(20):
        w = random_convex_graph_cost(seed)
        rep = check_well_ordering(w, grid_size=64, n_random=10_000, seed=seed)
        assert rep.verdict == "well_ordering", (seed, rep.counterexample)
        assert rep.counterexample is None
    report(9, "convex-graph-costs", "20 seeded pairs, zero counterexamples")


def test_criterion_10_cli_determinism(tmp_path):
    ring = {"kind": "ring", "profile": {"kind": "inverse", "params": {"scale": 1.0}}}
    cost = tmp_path / "ring.json"
    cost.write_text(json.dumps(ring))
    density = tmp_path / "uniform.json"
    density.write_text(json.dumps(GridDensity.uniform().to_spec()))
    commands = [
        ["check-wellordering", "--cost", str(cost), "--grid", "24", "--seed", "11"],
        ["seidl-plan", "--density", str(density), "--n", "2", "--m", "6",
         "--cost", str(cost)],
        ["swap-demo", "--members", "1,3,4,8,9,11,12"],
        ["mmot-solve", "--density", str(density), "--cost", str(cost),
         "--n", "2", "--m", "6"],
        ["kantorovich", "--density", str(density), "--cost", str(cost),
         "--n", "2", "--grid", "64", "--m", "8"],
        ["semiclassical", "--density", str(density), "--cost", str(cost),
         "--n", "2", "--eps", "1e-1,1e-2,1e-3", "--m", "16"],
    ]
    for idx, cmd in enumerate(commands):
        out1 = tmp_path / f"r{idx}a"
        out2 = tmp_path / f"r{idx}b"
        assert cli_main(cmd + ["--out", str(out1)]) == 0, cmd
        assert cli_main(cmd + ["--out", str(out2)]) == 0, cmd
        names1 = sorted(p.name for p in out1.iterdir() if p.name != "manifest.json")
        names2 = sorted(p.name for p in out2.iterdir() if p.name != "manifest.json")
        assert names1 == names2 and names1, cmd
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (cmd, name)
    report(10, "cli-determinism", "6 commands, byte-identical reruns")
