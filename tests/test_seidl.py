import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmot.cli import render_artifact
from ringmot.costs import LinearProfile, make_ring_cost
from ringmot.errors import ConstructionError, DomainError, SizeGuardError
from ringmot.measure1d import GridDensity
from ringmot.mmot import quantize, solve_mmot
from ringmot.seidl import DiscretePlan, SeidlMap, mass_staircase, plan_cost, plan_from_csv, seidl_plan

from conftest import TWO_PI


class TestMap:
    def test_uniform_half_turn(self, uniform):
        T = SeidlMap(uniform, 2)
        xs = np.linspace(0.1, 3.0, 50)
        assert np.allclose(T(xs), np.mod(xs + np.pi, TWO_PI), atol=1e-11)

    def test_uniform_third_turn(self, uniform):
        T = SeidlMap(uniform, 3)
        assert T(0.1) == pytest.approx(0.1 + TWO_PI / 3, abs=1e-11)

    def test_cosine_at_origin(self, cosine):
        T = SeidlMap(cosine, 2)
        assert abs(cosine.cdf(T(0.0)) - 0.5) <= 1e-12

    def test_identity_iterate(self, cosine):
        T = SeidlMap(cosine, 3)
        assert T.iterate(0, 1.234) == 1.234

    def test_one_marginal_rejected(self, uniform):
        with pytest.raises(DomainError, match="n >= 2"):
            SeidlMap(uniform, 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_iterate_is_composition(self, n):
        T = SeidlMap(GridDensity.random_positive(3), n)
        xs = T.rho.quantile((np.arange(40) + 0.5) / 40)  # midpoint quantiles: off the segment boundaries
        composed = xs
        for k in range(1, n):
            composed = T(composed)
            assert np.max(np.abs(T.iterate(k, xs) - composed)) <= 1e-12, k

    def test_uniform_two_quarter_shifts(self, uniform):
        T = SeidlMap(uniform, 4)
        assert T.iterate(2, 0.0) == pytest.approx(np.pi, abs=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(2, 5), x=st.floats(0.01, 6.2))
    def test_full_cycle_returns(self, seed, n, x):
        rho = GridDensity.random_positive(seed)
        T = SeidlMap(rho, n)
        assert T.iterate(n, x) == pytest.approx(x, abs=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), n=st.integers(2, 4))
    def test_monotone_on_segments_and_conjugacy(self, seed, n):
        rho = GridDensity.random_positive(seed)
        T = SeidlMap(rho, n)
        b = np.asarray(rho.segments(n))
        for i in range(n):
            xs = np.linspace(b[i], b[i + 1], 258)[1:-1]  # 256 interior samples
            vals = T(xs)
            assert np.all(np.diff(vals) > 0)
            shift = rho.cdf(np.asarray(T(xs))) - rho.cdf(xs)
            expected = 1.0 / n if i < n - 1 else 1.0 / n - 1.0
            assert np.max(np.abs(shift - expected)) <= 1e-9


class TestPlan:
    def test_uniform_n2_m4_atoms(self, uniform):
        plan = seidl_plan(uniform, 2, 4)
        expect = np.array(
            [[1, 5], [3, 7], [5, 1], [7, 3]], dtype=float) * (np.pi / 4)
        assert np.allclose(plan.atoms, expect, atol=1e-10)
        assert np.allclose(plan.weights, 0.25)

    def test_uniform_n3_m3_cyclic(self, uniform):
        plan = seidl_plan(uniform, 3, 3)
        expect = {(1, 3, 5), (3, 5, 1), (5, 1, 3)}
        got = {tuple(np.round(a / (np.pi / 3)).astype(int)) for a in plan.atoms}
        assert got == expect

    def test_cosine_marginal_quantization(self, cosine):
        plan = seidl_plan(cosine, 2, 8)
        for col in range(2):
            atoms = np.sort(plan.atoms[:, col])
            # empirical CDF of the atoms tracks the density CDF within 1/m
            emp = (np.arange(8) + 1) / 8
            gap = np.max(np.abs(cosine.cdf(atoms) - (emp - 0.5 / 8)))
            assert gap <= 1.0 / 8

    def test_m_constraints(self, uniform):
        with pytest.raises(DomainError):
            seidl_plan(uniform, 3, 8)
        with pytest.raises(DomainError):
            seidl_plan(uniform, 3, 2)

    def test_weights_validate(self):
        with pytest.raises(ConstructionError):
            DiscretePlan(np.array([[0.0, 1.0]]), np.array([0.5]))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ConstructionError, match="plan weights must be finite: index 0 holds nan"):
            DiscretePlan([[0.1, 0.2]], [np.nan])

    def test_make_and_replace_check(self):
        plan = DiscretePlan([[0.1, 0.2]], [1.0])
        with pytest.raises(ConstructionError, match="sum to 1"):
            plan._replace(weights=np.array([5.0]))
        with pytest.raises(ConstructionError, match="plan weights must be finite"):
            DiscretePlan._make([np.array([[0.1, 0.2]]), np.array([np.nan])])
        assert np.array_equal(plan._replace(atoms=np.array([[0.3, 0.4]])).atoms, [[0.3, 0.4]])

    def test_non_finite_atoms_rejected(self):
        with pytest.raises(ConstructionError, match=r"plan atoms must be finite: index \(0, 0\) holds nan"):
            DiscretePlan([[np.nan, 0.2]], [1.0])

    def test_csv_roundtrip(self, uniform, tmp_path):
        plan = seidl_plan(uniform, 2, 4)
        path = tmp_path / "plan.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(render_artifact("plan.csv", plan.table()))
        again = plan_from_csv(path)
        assert np.array_equal(again.atoms, plan.atoms)
        assert np.array_equal(again.weights, plan.weights)


class TestPlanCost:
    def test_linear_profile_zero(self, uniform):
        plan = seidl_plan(uniform, 2, 4)
        w = make_ring_cost(LinearProfile(2.0, 1.0))
        # antipodal pairs sit at chord 2 where the profile vanishes; the cost
        # is pointwise non-negative so this is also the global optimum
        assert plan_cost(plan, w) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_profile_unit(self, uniform, ring_inverse):
        plan = seidl_plan(uniform, 2, 4)
        assert plan_cost(plan, ring_inverse) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_pair_infinite(self, ring_inverse):
        plan = DiscretePlan(np.array([[1.0, 1.0], [2.0, 5.0]]), np.array([0.5, 0.5]))
        assert plan_cost(plan, ring_inverse) == np.inf

    def test_permutation_symmetry(self, cosine, ring_inverse):
        plan = seidl_plan(cosine, 3, 6)
        sym = plan.symmetrized()
        assert sym.weights.size == 6 * 6
        assert plan_cost(sym, ring_inverse) == pytest.approx(
            plan_cost(plan, ring_inverse), abs=1e-12
        )

    def test_symmetrize_guard(self, cosine):
        # 10! * 10 atoms of 10 coordinates would be 2.9 GB; the guard trips first
        tracemalloc.start()
        try:
            named = r"^n! \* m = 10! \* 10 = 36288000 exceeds the 200000 guard$"
            with pytest.raises(SizeGuardError, match=named):
                seidl_plan(cosine, 10, 10, symmetrize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_matches_lp_oracle(self, cosine, ring_inverse):
        value = solve_mmot(quantize(cosine, 6), 2, ring_inverse).value
        assert plan_cost(seidl_plan(cosine, 2, 6), ring_inverse) == pytest.approx(
            value, abs=1e-7
        )


class TestMassStaircase:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_marginals_are_the_weights(self, uniform, cosine, n):
        # trapezoid grid measures; cosine's touches zero at the grid point pi
        for rho in (uniform, cosine, GridDensity.random_positive(7)):
            for g in (9, 64, 257):
                grid = np.linspace(0.0, TWO_PI, g)
                mu = np.full(g, grid[1]) * rho.density(grid)
                mu[[0, -1]] /= 2
                cells, mass = mass_staircase(mu, n)
                assert cells.shape[0] <= n * g and np.all(mass > 0)
                for k in range(n):
                    got = np.bincount(cells[:, k], weights=mass, minlength=g)
                    assert np.max(np.abs(got - mu)) <= 1e-15

    @pytest.mark.parametrize("n,m", [(2, 8), (3, 12), (4, 8)])
    def test_equal_weights_give_the_seidl_rows(self, n, m):
        # the shifted cumulative sums meet only up to rounding, leaving crumbs of ~1e-17
        cells, mass = mass_staircase(np.full(m, 1.0 / m), n)
        rows = (np.arange(m)[:, None] + np.arange(n) * (m // n)) % m
        big = mass > 1e-15
        assert np.array_equal(cells[big], rows)
        assert np.allclose(mass[big], 1.0 / m, rtol=0, atol=1e-15)
