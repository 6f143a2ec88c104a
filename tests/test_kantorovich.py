import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ringmot.costs import (
    CostModel,
    ExpProfile,
    InverseProfile,
    PowerProfile,
    make_ring_cost,
    make_torus_cost,
    truncate,
)
from ringmot.errors import DomainError, SizeGuardError
from ringmot.kantorovich import (
    TILE,
    Potential,
    _doubled_pair_matrix,
    _min_plus,
    averaged_iteration,
    c_transform,
    certify_potential,
    comotion_potential,
    density_pairing,
    duality_gap,
    feasibility_margin,
    oscillation_bound_check,
    staircase_value,
    uniform_grid,
    untruncate_certificate,
)
from ringmot.measure1d import GridDensity
from ringmot.mmot import quantize, solve_mmot, symmetrized_duals
from ringmot.seidl import plan_cost, seidl_plan

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def ring10(ring_inverse):
    return truncate(ring_inverse, 10.0)


def zero_potential(size=65):
    return Potential(uniform_grid(size), np.zeros(size))


# bounded costs for the one-step feasibility of the averaged iteration
ONE_STEP_COSTS = {
    "ring-inverse-50": truncate(make_ring_cost(InverseProfile()), 50.0),
    "ring-exp": make_ring_cost(ExpProfile()),
    "torus-square": make_torus_cost(PowerProfile(2.0)),
}


def random_starts(count=20, size=17):
    """Seeded starts in [-3, 3], most of them infeasible for the costs above."""
    rng = np.random.default_rng(0)
    return [Potential(uniform_grid(size), rng.uniform(-3.0, 3.0, size)) for _ in range(count)]


class TestCTransform:
    def test_of_zero_hits_antipode(self, ring10):
        # grid includes exact antipodes, where the chord cost is minimal
        uc = c_transform(zero_potential(65), ring10, 2)
        assert np.allclose(uc.values, 1.0, atol=1e-12)

    def test_shift_covariance(self, ring10):
        v = zero_potential(33)
        base = c_transform(v, ring10, 2)
        for n, c in ((2, 0.7), (3, -0.4), (4, 0.3)):
            lifted = c_transform(Potential(v.grid, v.values + c), ring10, n)
            plain = c_transform(v, ring10, n)
            assert np.allclose(lifted.values, plain.values - (n - 1) * c, atol=1e-12)

    def test_non_uniform_grid_rejected(self, ring10):
        grid = uniform_grid(33)
        grid[20] += 1e-6
        for n in (2, 3):
            with pytest.raises(DomainError, match="uniform grid: step 19"):
                c_transform(Potential(grid, np.zeros(33)), ring10, n)

    def test_double_transform_dominates_feasible(self, ring10):
        rng = np.random.default_rng(4)
        v = Potential(uniform_grid(33), rng.uniform(-1.0, 0.2, 33))
        margin = feasibility_margin(v, ring10, 2)
        if margin < 0:  # make it feasible by shifting down
            v = Potential(v.grid, v.values + margin / 2 - 1e-12)
        uc = c_transform(v, ring10, 2)
        assert np.all(v.values <= uc.values + 1e-12)

    def test_min_plus_matches_brute_force_n4(self, ring10):
        # reference: every grid 4-tuple of c_4 = sum over pairs of 2 w
        rng = np.random.default_rng(23)
        grid = uniform_grid(9)
        v = Potential(grid, rng.uniform(-1.0, 1.0, 9))
        pair2 = 2.0 * np.asarray(ring10.pair_matrix(grid))
        best_x = np.full(9, np.inf)
        for tup in itertools.product(range(9), repeat=4):
            cost = sum(pair2[tup[i], tup[j]] for i in range(4) for j in range(i + 1, 4))
            best_x[tup[0]] = min(best_x[tup[0]], cost - sum(v.values[j] for j in tup[1:]))
        assert np.allclose(c_transform(v, ring10, 4).values, best_x, atol=1e-12)
        assert feasibility_margin(v, ring10, 4) == pytest.approx(
            float(np.min(best_x - v.values)), abs=1e-12
        )

    def test_guard_names_size(self, ring10):
        with pytest.raises(SizeGuardError, match=r"1001\^2 = 1002001 exceeds .* 1000000"):
            c_transform(zero_potential(1001), ring10, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_cost_taken_as_given(self, ring_inverse, n):
        # the inclusive grid of g nodes holds g - 1 ring points; the +inf diagonal
        # leaves a finite tuple at every x once there are n of them, and the
        # transform is then the one of a truncation above every finite cell
        rng = np.random.default_rng(n)
        for g in range(2, 12):
            v = Potential(uniform_grid(g), rng.uniform(-1.0, 1.0, g))
            if g - 1 < n:
                with pytest.raises(DomainError, match="potential values must be finite"):
                    c_transform(v, ring_inverse, n)
                continue
            got = c_transform(v, ring_inverse, n).values
            assert np.array_equal(got, c_transform(v, truncate(ring_inverse, 1e6), n).values), g

    def test_randomized_covariance_and_monotonicity(self, ring10):
        rng = np.random.default_rng(17)
        grid = uniform_grid(33)
        for _ in range(100):
            u = Potential(grid, rng.uniform(-1.0, 1.0, 33))
            c = float(rng.uniform(-2.0, 2.0))
            uc = c_transform(u, ring10, 2)
            shifted = c_transform(Potential(grid, u.values + c), ring10, 2)
            assert np.allclose(shifted.values, uc.values - c, atol=1e-12)
            margin = feasibility_margin(u, ring10, 2)
            if margin >= 0:
                assert np.all(u.values <= uc.values + 1e-12)

    def test_regularity_modulus(self, uniform, ring10):
        cert = certify_potential(uniform, make_ring_cost(InverseProfile()), 2, 64, 8)
        v = cert.potential
        pair = 2.0 * np.asarray(ring10.pair_matrix(v.grid))
        cost_modulus = np.max(np.abs(np.diff(pair, axis=0)), axis=1)
        assert np.all(np.abs(np.diff(v.values)) <= cost_modulus + 1e-9)


class TestAveragedIteration:
    def test_feasibility_preserved_by_half_step(self, ring10):
        rng = np.random.default_rng(9)
        grid = uniform_grid(49)
        u = Potential(grid, rng.uniform(-0.5, 0.0, 49))
        m0 = feasibility_margin(u, ring10, 2)
        if m0 < 0:
            u = Potential(grid, u.values + m0 / 2)
        uc = c_transform(u, ring10, 2)
        vbar = Potential(grid, (u.values + uc.values) / 2)
        assert feasibility_margin(vbar, ring10, 2) >= -1e-12

    def test_converges_from_lp_duals(self, uniform, ring10):
        sol = solve_mmot(quantize(uniform, 8), 2, ring10)
        grid = uniform_grid(128)
        v0 = Potential(grid, np.interp(grid, sol.marginal.atoms, symmetrized_duals(sol)))
        v, report = averaged_iteration(v0, ring10, 2, max_iters=200, tol=1e-6)
        assert report.converged and report.iterations <= 200
        vc = c_transform(v, ring10, 2)
        assert np.max(np.abs(v.values - vc.values)) <= 2e-6

    def test_converges_from_zero(self, cosine, ring10):
        v, report = averaged_iteration(zero_potential(64), ring10, 2, max_iters=400, tol=1e-6)
        assert report.converged

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("max_iters", [0, 3, 400], ids=["repaired", "stopped", "converged"])
    def test_report_margin_is_feasibility_margin(self, ring10, n, max_iters):
        # max_iters = 0 returns the infeasible start as it is; a run that stops
        # unconverged takes one transform more than it has iterations
        grid = uniform_grid(33)
        v0 = Potential(grid, np.random.default_rng(1).uniform(-3.0, 3.0, 33))
        v, report = averaged_iteration(v0, ring10, n, max_iters)
        assert np.array_equal(v.values, v0.values) == (max_iters == 0)
        assert report.converged == (max_iters == 400)
        assert report.margin == feasibility_margin(v, ring10, n)
        assert (report.margin < -1e-12) == (max_iters == 0)  # every step is feasible
        transforms = report.iterations + (not report.converged)
        if n == 2:
            assert (report.tiles_scanned, report.tiles_total) == (0, 0)
        else:
            assert report.tiles_total == transforms * 33 * (-(-33 // TILE)) ** 2
            assert transforms * 33 <= report.tiles_scanned <= report.tiles_total

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("cost", list(ONE_STEP_COSTS))
    def test_one_step_is_feasible(self, cost, n):
        # c_n is symmetric, so v_c(x_i) + sum_{j != i} v(x_j) <= c_n(x) for each i;
        # summed over i, ((n-1) v + v_c) / n is feasible whatever v was
        w = ONE_STEP_COSTS[cost]
        starts = random_starts()
        assert min(feasibility_margin(v0, w, n) for v0 in starts) < 0
        for v0 in starts:
            v, report = averaged_iteration(v0, w, n, max_iters=1)
            assert report.iterations == 1 and report.margin == feasibility_margin(v, w, n)
            assert report.margin >= -1e-12

    @pytest.mark.parametrize("cost", ["ring-inverse-50", "torus-square"])
    def test_mistaken_weight_is_infeasible(self, cost):
        # the weight must be 1/n: (v + v_c) / 2 at n = 4 leaves start 3 far from feasible
        w = ONE_STEP_COSTS[cost]
        v0 = random_starts()[3]
        half = Potential(v0.grid, (v0.values + c_transform(v0, w, 4).values) / 2)
        assert feasibility_margin(half, w, 4) < -1.0

    def test_symmetric_density_symmetric_fixed_point(self, cosine, ring10):
        # the iteration map commutes with x -> 2*pi - x; degenerate LP duals
        # need not be symmetric, so symmetrize the start before iterating
        sol = solve_mmot(quantize(cosine, 8), 2, ring10)
        grid = uniform_grid(65)
        raw = np.interp(grid, sol.marginal.atoms, symmetrized_duals(sol))
        v0 = Potential(grid, (raw + raw[::-1]) / 2)
        v, report = averaged_iteration(v0, ring10, 2, max_iters=300, tol=1e-8)
        assert np.max(np.abs(v.values - v.values[::-1])) <= 1e-6


def loop_min_plus(pair2, u, k):
    """The per-x recursion the tiled k=2 kernel replaced, kept as its reference."""
    if k == 1:
        return (pair2 - u[None, :]).min(axis=1)
    out = np.empty(u.size)
    for x in range(u.size):
        out[x] = np.min(pair2[x] - u + loop_min_plus(pair2, u - pair2[x], k - 1))
    return out


class TestTiledMinPlus:
    @pytest.mark.parametrize("truncated", [True, False], ids=["ring10", "ring_inverse"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("g", [2, 3, 7, 8, 9, 17, 33, 64, 65])
    def test_matches_parent_loop(self, ring10, ring_inverse, g, k, truncated):
        # the untruncated cost puts +inf on the diagonal, and at k=3 -inf into u
        w = ring10 if truncated else ring_inverse
        grid = uniform_grid(g)
        pair = _doubled_pair_matrix(grid, w, k + 1)
        rng = np.random.default_rng(100 * g + k)
        for u in (rng.uniform(-2.0, 2.0, g), 0.7 * np.cos(grid) - 0.2 * np.sin(3 * grid)):
            with np.errstate(invalid="raise"):  # an inf - inf would raise here
                got, scanned, total = _min_plus(pair, u, k)
                want = loop_min_plus(pair.full, u, k)
            assert not np.any(np.isnan(got))
            assert np.array_equal(got, want)
            if k == 1:
                assert (scanned, total) == (0, 0)
            else:
                assert total == g ** (k - 1) * (-(-g // TILE)) ** 2
                assert g ** (k - 1) <= scanned <= total


class TestMarginAndGap:
    def test_zero_potential_nonneg_cost(self, ring10):
        assert feasibility_margin(zero_potential(33), ring10, 2) >= 0.0

    def test_constructed_infeasible(self, ring10):
        big = 10.0 + 1.0  # above sup(c_2)/2 everywhere
        v = Potential(uniform_grid(33), np.full(33, big))
        assert feasibility_margin(v, ring10, 2) < 0

    def test_gap_of_zero_potential_is_value(self, uniform, ring10):
        sol = solve_mmot(quantize(uniform, 8), 2, ring10)
        gap = duality_gap(uniform, zero_potential(64), sol.value, 2)
        assert gap == pytest.approx(sol.value)

    def test_weak_duality_against_plans(self, cosine, ring10):
        cert = certify_potential(cosine, make_ring_cost(InverseProfile()), 2, 64, 8)
        for m in (4, 8, 12):
            plan = seidl_plan(cosine, 2, m)
            lhs = plan_cost(plan, ring10) - 2 * density_pairing(cosine, cert.potential)
            assert lhs >= -5e-2  # quantized marginal differs from rho by O(1/m)

    def test_needle_infeasibility_found_exactly(self, uniform, ring10):
        # v = 1.3 on one equilateral triple only: margin 3 * 2/sqrt(3) - 3 * 1.3
        g = 301
        values = np.zeros(g)
        values[[7, 107, 207]] = 1.3
        v = Potential(uniform_grid(g), values)
        assert feasibility_margin(v, ring10, 3) == pytest.approx(6 / np.sqrt(3) - 3.9, abs=1e-12)


class TestPinned:
    """Fixed points compared exactly, so that a kernel change cannot move them unnoticed."""

    @staticmethod
    def assert_pinned(rho, w, golden):
        pinned = json.loads((GOLDEN / golden).read_text())
        cert = certify_potential(rho, w, 3, grid_size=64)
        assert cert.potential.values.tolist() == pinned["values"]
        assert cert.fixed_point.margin == pinned["margin"]
        assert cert.fixed_point.iterations == pinned["iterations"]

    def test_potential_pinned(self, cosine, ring_inverse):
        # the pair matrix read off one cost row; values taken when that path came in
        self.assert_pinned(cosine, ring_inverse, "potential_cosine_n3_g64_grid_matrix.json")

    def test_potential_pinned_dense(self, cosine, ring_inverse, monkeypatch):
        # the cost evaluated on every grid pair; values taken before the tiled min-plus
        monkeypatch.setattr(CostModel, "grid_matrix", CostModel.pair_matrix)
        self.assert_pinned(cosine, ring_inverse, "potential_cosine_n3_g64.json")


class TestComotionSeed:
    def test_uniform_n2_seed_is_constant(self, uniform, ring_inverse):
        # T x = x + pi, where the chord is longest and d1 w vanishes
        v, defect = comotion_potential(uniform, ring_inverse, 2, uniform_grid(64))
        assert defect == 0.0 and np.ptp(v.values) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("density", ["uniform", "cosine08", "random7"])
    def test_period_defect(self, request, ring_inverse, density, n):
        # a dropped or sign-flipped k term leaves a defect above 2 at n >= 3
        rho = GridDensity.random_positive(7) if density == "random7" else request.getfixturevalue(density)
        _, defect = comotion_potential(rho, ring_inverse, n, uniform_grid(33))
        assert defect <= 1e-6


# the `potential` benchmark cases on ring inverse: n, grid, and the density, cosine 0.8 or
# the workload's seeded density k at a seed, GridDensity.random_positive([seed, k])
POTENTIAL_CASES = [pytest.param(2, 1024, None, id="n2-g1024-cosine")] + [
    pytest.param(n, g, [seed, k], id=f"n{n}-g{g}-seed{seed}")
    for seed in (1, 2, 3) for n, g, k in ((2, 512, 0), (3, 128, 1), (3, 256, 2))
]


class TestStaircaseReference:
    @pytest.mark.parametrize("n,g,seed", POTENTIAL_CASES)
    def test_potential_cases(self, ring_inverse, n, g, seed):
        rho = GridDensity.cosine(amplitude=0.8) if seed is None else GridDensity.random_positive(seed)
        cert = certify_potential(rho, ring_inverse, n, grid_size=g)
        fp = cert.fixed_point
        assert cert.passed() and fp.converged
        assert fp.iterations <= (6 if n == 2 else 18)
        # weak duality against the grid staircase: gap >= mass * margin, and the margin is
        # zero up to rounding
        assert fp.margin >= -1e-14 and cert.gap >= -1e-12
        # measured at most 1.4e-6 at n = 2; a dropped or sign-flipped seed term gave 1.2e-3 to 0.52
        assert cert.gap <= (1e-4 if n == 2 else 1e-3)

    def test_lp_value_below_the_pairing(self, ring_inverse):
        # seed 3, n = 2, g = 512: the fixed point beats what the m = 8 LP resolves, so a gap
        # priced against the LP value would be negative; against the staircase it is not
        rho = GridDensity.random_positive([3, 0])
        cert = certify_potential(rho, ring_inverse, 2, grid_size=512)
        pairing = 2 * density_pairing(rho, cert.potential)
        assert cert.lp_truncated.value < pairing - 3e-4
        assert 0.0 <= cert.gap <= 1e-5 and cert.passed()
        assert cert.gap_reference == staircase_value(
            rho, cert.potential.grid, truncate(ring_inverse, cert.truncation_level), 2)


class TestOscillation:
    def test_constant_potential(self, uniform):
        # recentered to 2 <rho, v> = 4, v is the constant 4 / 2, inside the box [-2.5, 2.5]
        v = Potential(uniform_grid(17), np.full(17, 2.0))
        rep = oscillation_bound_check(v, 5.0, 2, uniform, 4.0)
        assert rep.passed and rep.oscillation == 0.0
        assert rep.box_passed and rep.box_low == rep.box_high == pytest.approx(2.0, abs=1e-12)

    def test_adversarial_fails(self, uniform):
        values = np.linspace(0.0, 20.0, 17)
        rep = oscillation_bound_check(Potential(uniform_grid(17), values), 10.0, 2, uniform, 20.0)
        assert not rep.passed and not rep.box_passed

    def test_box_for_certified_potential(self, uniform, ring_inverse):
        cert = certify_potential(uniform, ring_inverse, 2, 64, 8)
        assert cert.oscillation_report.passed
        assert cert.oscillation_report.box_passed


class TestCertification:
    def test_uniform_full_pipeline(self, uniform, ring_inverse):
        cert = certify_potential(uniform, ring_inverse, 2, grid_size=128, m=8)
        assert cert.fixed_point.residual <= 1e-6
        assert cert.fixed_point.margin >= -1e-6
        assert -1e-9 <= cert.gap <= cert.gap_tol
        assert cert.untruncate.passed
        assert cert.passed()
        # normalization within the gap budget
        pairing = 2 * density_pairing(uniform, cert.potential)
        assert abs(pairing - cert.lp_truncated.value) <= cert.gap_tol

    @pytest.mark.parametrize("n", [2, 3])
    def test_gap_tol_rejects_lowered_potential(self, cosine, ring_inverse, n):
        # lowered by 0.5/n the potential stays feasible, but its gap grows by about 0.5,
        # past the grid budget 10/g
        cert = certify_potential(cosine, ring_inverse, n, grid_size=48, m=6)
        assert cert.gap_tol == 10.0 / 48 and cert.passed()
        lowered = Potential(cert.potential.grid, cert.potential.values - 0.5 / n)
        assert duality_gap(cosine, lowered, cert.gap_reference, n) > cert.gap_tol

    def test_untruncate_rejects_bad_gap(self, uniform, ring_inverse):
        # lowered by 1e-3 the potential stays feasible, and its gap grows by about 2e-3
        cert = certify_potential(uniform, ring_inverse, 2, 64, 8)
        lowered = Potential(cert.potential.grid, cert.potential.values - 1e-3)
        for v, passed in ((cert.potential, True), (lowered, False)):
            rep = untruncate_certificate(
                v, ring_inverse, cert.fixed_point.margin, uniform, 2,
                cert.lp_truncated.value, cert.lp_full.value, gap_tol=1e-3,
            )
            assert rep.passed == passed

    def test_dual_refinement_converges(self, uniform, ring_inverse):
        # LP duals at finer quantizations approach the fixed point
        cert = certify_potential(uniform, ring_inverse, 2, 64, 8)
        w_h = truncate(ring_inverse, cert.truncation_level)
        grid = cert.potential.grid
        sups = []
        for m in (4, 8, 16):
            sol = solve_mmot(quantize(uniform, m), 2, w_h)
            v_m = np.interp(grid, sol.marginal.atoms, symmetrized_duals(sol))
            sups.append(float(np.max(np.abs(v_m - cert.potential.values))))
        assert sups[2] <= sups[0] + 1e-12
