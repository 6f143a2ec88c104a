import numpy as np
import pytest

import ringmot.mmot
import ringmot.simplex
from ringmot.costs import (
    CostModel,
    ExpProfile,
    InverseProfile,
    LinearProfile,
    PowerProfile,
    make_graph_cost,
    make_ring_cost,
    support_thresholds,
    truncate,
)
from ringmot.errors import DomainError, SizeGuardError, StateError
from ringmot.measure1d import GridDensity
from ringmot.mmot import DiscreteMarginal, quantize, solve_mmot, symmetrized_duals
from ringmot.seidl import plan_cost, seidl_plan, staircase
from ringmot.simplex import solve_equality_lp

from conftest import TWO_PI


class TestQuantize:
    def test_uniform_four(self, uniform):
        marg = quantize(uniform, 4)
        expect = np.array([1, 3, 5, 7]) * np.pi / 4
        assert np.allclose(marg.atoms, expect, atol=1e-12)
        assert marg.m == 4

    def test_single_atom_median(self, uniform):
        marg = quantize(uniform, 1)
        assert marg.atoms[0] == pytest.approx(np.pi)

    def test_cosine_cdf_gap(self, cosine):
        m = 8
        marg = quantize(cosine, m)
        emp = (np.arange(m) + 0.5) / m
        assert np.max(np.abs(cosine.cdf(marg.atoms) - emp)) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteMarginal(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_atoms_rejected(self, bad):
        with pytest.raises(DomainError, match=f"index 1 holds {bad}"):
            DiscreteMarginal(np.array([1.0, bad, 2.0]))


class TestSolveByHand:
    def test_two_by_two(self, ring_inverse):
        marg = DiscreteMarginal(np.array([0.0, np.pi]))
        sol = solve_mmot(marg, 2, ring_inverse)
        assert sol.status == "optimal"
        # a staircase cell lies on the infinite diagonal, so phase 1 runs
        assert sol.simplex["start"] == "artificial"
        # diagonal cells are +inf, so half the mass sits on each off-diagonal cell
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sorted(map(tuple, sol.plan.atoms.tolist())) == [
            (0.0, np.pi),
            (np.pi, 0.0),
        ]
        # any optimal dual vertex: feasible on every finite pair, tight in value
        v = symmetrized_duals(sol)
        pair = ring_inverse.pair_matrix(marg.atoms)
        finite = np.isfinite(pair)
        assert np.all(2.0 * pair[finite] - (v[:, None] + v[None, :])[finite] >= -1e-12)
        assert 2 * v.sum() / marg.m == pytest.approx(sol.value, abs=1e-12)

    def test_constant_shift_breaks_normalization(self, ring_inverse):
        marg = DiscreteMarginal(np.array([0.0, np.pi]))
        sol = solve_mmot(marg, 2, ring_inverse)
        v = symmetrized_duals(sol) + 1.0
        assert 2 * v.sum() / marg.m != pytest.approx(sol.value, abs=1e-6)

    def test_antipodal_linear(self, uniform):
        # pointwise c_2 >= 2 (4 - 2) = 4 and the half-turn matching attains it
        w = make_ring_cost(LinearProfile(4.0, 1.0))
        sol = solve_mmot(quantize(uniform, 4), 2, w)
        assert sol.value == pytest.approx(4.0, abs=1e-12)

    def test_equilateral_triple(self, uniform, ring_inverse):
        sol = solve_mmot(quantize(uniform, 3), 3, ring_inverse)
        assert sol.value == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-12)


class TestCertificates:
    @pytest.mark.parametrize("n,m", [(2, 4), (2, 8), (3, 6)])
    def test_residuals(self, cosine, ring_inverse, n, m):
        sol = solve_mmot(quantize(cosine, m), n, ring_inverse)
        res = sol.residuals
        assert res["primal_violation"] <= 1e-9
        assert res["dual_infeasibility"] <= 1e-7
        assert res["support_slackness"] <= 1e-7
        assert res["duality_gap"] <= 1e-7

    @pytest.mark.parametrize(
        "field,residual", [("x", "primal_violation"), ("y", "dual_infeasibility")]
    )
    def test_perturbed_simplex_result_raises(
        self, monkeypatch, cosine, ring_inverse, field, residual
    ):
        exact = ringmot.mmot.solve_equality_lp

        def perturbed(*args, **kwargs):
            res = exact(*args, **kwargs)
            return res._replace(**{field: getattr(res, field) * (1.0 + 1e-3)})

        monkeypatch.setattr(ringmot.mmot, "solve_equality_lp", perturbed)
        with pytest.raises(StateError, match=residual):
            solve_mmot(quantize(cosine, 6), 2, ring_inverse)

    def test_dual_feasibility_all_cells(self, uniform):
        w = make_ring_cost(LinearProfile(4.0, 1.0))
        sol = solve_mmot(quantize(uniform, 4), 2, w)
        v = symmetrized_duals(sol)
        pair = w.pair_matrix(sol.marginal.atoms)
        gaps = 2.0 * pair - v[:, None] - v[None, :]
        assert np.min(gaps) >= -1e-7

    def test_weak_duality(self, cosine, ring_inverse):
        sol = solve_mmot(quantize(cosine, 6), 2, ring_inverse)
        dual_obj = 2 * symmetrized_duals(sol).sum() / sol.marginal.m
        assert dual_obj <= sol.value + 1e-7

    def test_duals_require_optimal(self, ring_inverse):
        marg = DiscreteMarginal(np.array([1.0, 2.0]))
        sol = solve_mmot(marg, 3, ring_inverse)  # pigeonhole: all cells infinite
        assert sol.status == "infeasible"
        with pytest.raises(StateError):
            symmetrized_duals(sol)


class TestGuardsAndEdgeCases:
    def test_size_guard(self, uniform, ring_inverse):
        with pytest.raises(SizeGuardError, match=r"^m\^n = 60\^3 = 216000 exceeds the 200000 guard$"):
            solve_mmot(quantize(uniform, 60), 3, ring_inverse)

    def test_infeasible_when_marginal_too_coarse(self, ring_inverse):
        marg = DiscreteMarginal(np.array([0.5, 4.0]))
        assert solve_mmot(marg, 3, ring_inverse).status == "infeasible"


class TestSimplexAgainstBruteForce:
    """Uniform-weight two-marginal plans are mixtures of permutation
    matchings, so exhaustive assignment search is an independent oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_symmetric_costs(self, seed):
        from itertools import permutations

        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 6))
        atoms = np.sort(rng.uniform(0.1, TWO_PI - 0.1, m))
        sym = rng.uniform(0.0, 5.0, (m, m))
        table = (sym + sym.T) / 2

        def raw(x, y, atoms=atoms, table=table):
            i = np.searchsorted(atoms, np.asarray(x, dtype=float))
            j = np.searchsorted(atoms, np.asarray(y, dtype=float))
            return table[np.clip(i, 0, m - 1), np.clip(j, 0, m - 1)]

        w = CostModel(kind="tabular", raw=raw, domain=(0.0, TWO_PI))
        marg = DiscreteMarginal(atoms)
        sol = solve_mmot(marg, 2, w)
        brute = min(
            sum(2.0 * table[i, p[i]] for i in range(m)) / m
            for p in permutations(range(m))
        )
        assert sol.value == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m", [8, 16, 32])
    @pytest.mark.parametrize("profile", [InverseProfile(), ExpProfile(rate=1.0)], ids=["inverse", "exp"])
    def test_matches_linear_sum_assignment(self, seed, m, profile):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        w = make_ring_cost(profile)
        marg = quantize(GridDensity.random_positive(seed), m)
        pair = np.asarray(w.pair_matrix(marg.atoms), dtype=float)
        finite = np.isfinite(pair)
        pair = np.where(finite, pair, 1e6 * pair[finite].max())  # the LP drops these cells
        i, j = scipy_optimize.linear_sum_assignment(pair)
        assert solve_mmot(marg, 2, w).value == pytest.approx(2.0 / m * pair[i, j].sum(), abs=1e-9)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n,m", [(2, 4), (2, 8), (3, 6)])
    def test_seidl_matches_lp(self, cosine, ring_inverse, n, m):
        sol = solve_mmot(quantize(cosine, m), n, ring_inverse)
        assert plan_cost(seidl_plan(cosine, n, m), ring_inverse) == pytest.approx(
            sol.value, abs=1e-7
        )

    def test_necessity_square_diff(self, uniform):
        w = make_graph_cost(
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            PowerProfile(2.0),
            (0.0, TWO_PI),
        )
        sol = solve_mmot(quantize(uniform, 4), 2, w)
        seidl_cost = plan_cost(seidl_plan(uniform, 2, 4), w)
        # staying put is free for an attractive cost; the half-turn plan is
        # not, so the simplex must leave the staircase it starts from
        assert sol.simplex["start"] == "staircase"
        assert sol.value == pytest.approx(0.0, abs=1e-10)
        assert seidl_cost - sol.value >= 1e-3

    def test_truncation_equivalence(self, uniform, ring_inverse):
        th = support_thresholds(uniform, ring_inverse, np.pi / 4, 2)
        w_h = truncate(ring_inverse, th.h)
        marg = quantize(uniform, 8)
        full = solve_mmot(marg, 2, ring_inverse)
        trunc = solve_mmot(marg, 2, w_h)
        assert abs(full.value - trunc.value) <= 1e-7
        for atoms in trunc.plan.atoms:
            assert ring_inverse(atoms[0], atoms[1]) <= th.h


def _dense(rows, coeffs, n_rows):
    A = np.zeros((n_rows, rows.shape[0]))
    for j, (r, a) in enumerate(zip(rows, coeffs)):
        A[r[r >= 0], j] = a[r >= 0]
    return A


def _transport_lp(rng, n, m):
    """All n*m marginal rows (so n - 1 are redundant), random costs and weights."""
    weights = rng.uniform(0.5, 1.5, m)
    weights /= weights.sum()
    digits = np.stack(np.meshgrid(*([np.arange(m)] * n), indexing="ij"), axis=-1).reshape(-1, n)
    rows = digits + m * np.arange(n)
    coeffs = np.ones(rows.shape)
    c = rng.uniform(0.0, 3.0, rows.shape[0])
    return rows, coeffs, c, np.tile(weights, n)


class TestEqualityLP:
    """solve_equality_lp on hand-made LPs, without the transport layer."""

    def test_infeasible(self):
        # x0 = 1 and x0 = 2 in two rows
        rows, coeffs = np.array([[0, 1]]), np.ones((1, 2))
        res = solve_equality_lp(rows, coeffs, np.array([1.0]), np.array([1.0, 2.0]))
        assert res.status == "infeasible"
        assert res.objective == np.inf

    def test_improving_ray(self):
        # x0 - x1 = 0: minimizing -x0 moves along the ray x0 = x1 forever
        rows, coeffs = np.array([[0], [0]]), np.array([[1.0], [-1.0]])
        res = solve_equality_lp(rows, coeffs, np.array([-1.0, 0.0]), np.array([0.0]))
        assert res.status == "unbounded-guard"

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve_equality_lp(np.array([[0]]), np.ones((1, 1)), np.ones(1), np.array([-1.0]))

    def test_table_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"rows \(2, 2\) and coeffs \(2, 3\)"):
            solve_equality_lp(np.zeros((2, 2), int), np.ones((2, 3)), np.ones(2), np.ones(1))

    def test_cost_length_rejected(self):
        # a c of the wrong length would misprice the artificial columns
        with pytest.raises(ValueError, match=r"c has shape \(2,\), expected \(3,\)"):
            solve_equality_lp(np.zeros((3, 1), int), np.ones((3, 1)), np.ones(2), np.ones(1))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match=r"K >= 1 .* \(3, 0\)"):
            solve_equality_lp(np.zeros((3, 0), int), np.ones((3, 0)), np.ones(3), np.ones(1))

    @pytest.mark.parametrize("bad", [2, -2])
    def test_row_index_out_of_range_rejected(self, bad):
        rows = np.array([[0, 1], [1, bad]])
        with pytest.raises(ValueError, match=rf"row index {bad} .* m = 2"):
            solve_equality_lp(rows, np.ones((2, 2)), np.ones(2), np.ones(2))

    def test_redundant_row_keeps_artificial(self):
        # rows 0 and 1 are both x0 + x1 + x2 = 1, so one basis slot stays
        # with an artificial at zero; only one structural variable is positive
        rows = np.array([[0, 1], [0, 1], [0, 1]])
        coeffs = np.ones((3, 2))
        c = np.array([3.0, 1.0, 2.0])
        res = solve_equality_lp(rows, coeffs, c, np.array([1.0, 1.0]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.x, [0.0, 1.0, 0.0], atol=1e-12)
        A = _dense(rows, coeffs, 2)
        assert np.min(c - A.T @ res.y) >= -1e-12          # dual feasible
        assert np.dot(res.y, [1.0, 1.0]) == pytest.approx(res.objective, abs=1e-12)

    @pytest.mark.parametrize("n,m,seed", [(2, 5, 0), (2, 8, 1), (3, 4, 2), (3, 5, 3)])
    def test_matches_highs(self, n, m, seed):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rows, coeffs, c, b = _transport_lp(np.random.default_rng(seed), n, m)
        res = solve_equality_lp(rows, coeffs, c, b)
        assert res.status == "optimal"
        ref = scipy_optimize.linprog(
            c, A_eq=_dense(rows, coeffs, b.size), b_eq=b, bounds=(0, None), method="highs"
        )
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-9)


class TestStartGuard:
    """A given start is checked before any pivot, and each fault names itself."""

    @staticmethod
    def _lp():
        # columns e0, e1, e0 + e1 (twice), e0 - e1; b = (1, 1)
        rows = np.array([[0, -1], [1, -1], [0, 1], [0, 1], [0, 1]])
        coeffs = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        return rows, coeffs, np.ones(5), np.ones(2)

    def test_feasible_start_skips_phase1(self):
        res = solve_equality_lp(*self._lp(), start=[0, 1])
        assert res.status == "optimal"
        assert res.phase1_pivots == 0
        assert res.objective == pytest.approx(1.0, abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(ValueError, match=r"start has shape \(3,\), expected \(2,\)"):
            solve_equality_lp(*self._lp(), start=[0, 1, 2])

    def test_repeated_column(self):
        with pytest.raises(ValueError, match="start repeats column 1"):
            solve_equality_lp(*self._lp(), start=[1, 1])

    @pytest.mark.parametrize("bad", [5, -1])
    def test_column_out_of_range(self, bad):
        with pytest.raises(ValueError, match=rf"start column {bad} is not in \[0, 5\)"):
            solve_equality_lp(*self._lp(), start=[0, bad])

    def test_singular_basis(self):
        with pytest.raises(ValueError, match=r"\(2 x 2\) is singular"):
            solve_equality_lp(*self._lp(), start=[2, 3])

    def test_negative_basic_solution(self):
        # x0 e0 + x4 (e0 - e1) = (1, 1) needs x4 = -1
        with pytest.raises(ValueError, match=r"x_B = -1\.000e\+00 at column 4"):
            solve_equality_lp(*self._lp(), start=[0, 4])


class TestStartSoundness:
    def test_beale_cycling_lp(self):
        # Beale (1955) in equality form at its slack basis x1, x2, x3: every
        # pivot ties in the ratio test at zero, and lowest-index tie-breaks
        # cycle. The optimum is x4 = x6 = 1, x1 = 3/4 at -5/4.
        A = np.array([
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ])
        c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        rows = np.where(A.T != 0, np.arange(3), -1)
        res = solve_equality_lp(rows, A.T.copy(), c, np.array([0.0, 0.0, 1.0]), start=[0, 1, 2])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.25, abs=1e-12)
        assert np.allclose(res.x, [0.75, 0, 0, 1, 0, 1, 0], atol=1e-12)
        assert res.lex_ties >= 1

    @pytest.mark.parametrize("n,m", [(2, 8), (2, 7), (3, 9), (3, 7), (4, 8), (4, 10)])
    def test_staircase_is_a_basis(self, n, m):
        cells, mass = staircase(m, n)
        assert cells.shape == (m + (n - 1) * (m - 1), n)
        assert np.min(mass) >= 0.0
        assert np.unique(np.ravel_multi_index(cells.T, (m,) * n)).size == cells.shape[0]
        # marginal incidence of the cells, all n*m rows: full column rank
        A = np.zeros((n * m, cells.shape[0]))
        for i in range(n):
            A[i * m + cells[:, i], np.arange(cells.shape[0])] = 1.0
        assert np.linalg.matrix_rank(A) == cells.shape[0]
        assert np.allclose(A @ mass, np.full(n * m, 1.0 / m), atol=1e-15)

    def test_closed_form_is_the_north_west_corner(self):
        # the north-west-corner rule on equal masses, walked step by step: each cell
        # takes the smallest residual, then the lowest-index marginal that it
        # exhausted and that is not at its last atom moves on
        def north_west_corner(m, n):
            w = np.full(m, 1.0 / m)
            shift = np.arange(n) * m // n
            step = np.zeros(n, dtype=np.intp)
            residual = w[shift]
            cells, mass = [], []
            while True:
                cells.append((step + shift) % m)
                mass.append(residual.min())
                residual = residual - mass[-1]
                open_ = step < m - 1
                if not open_.any():
                    return np.array(cells), np.array(mass)
                i = int(np.argmin(np.where(open_, residual, np.inf)))
                step[i] += 1
                residual[i] = w[(step[i] + shift[i]) % m]

        for n in range(2, 7):
            for m in range(1, 41):
                cells, mass = staircase(m, n)
                ref_cells, ref_mass = north_west_corner(m, n)
                assert cells.dtype == ref_cells.dtype and np.array_equal(cells, ref_cells), (n, m)
                assert mass.tobytes() == ref_mass.tobytes(), (n, m)

    @pytest.mark.parametrize("n,m", [(2, 8), (3, 12), (4, 8), (4, 12),
                                     (2, 48), (3, 24), (3, 63), (5, 10)])
    def test_seidl_cells_carry_the_mass(self, uniform, cosine, n, m):
        # the staircase's mass-1/m cells are the index shift j -> j + k m/n mod m, and
        # seidl_plan puts each of them bitwise on the LP's atoms
        cells, mass = staircase(m, n)
        on = mass > 0
        assert np.array_equal(cells[on], (np.arange(m)[:, None] + np.arange(n) * (m // n)) % m)
        assert np.all(mass[on] == 1.0 / m) and np.all(mass[~on] == 0.0)
        for rho in (uniform, cosine, GridDensity.random_positive(7)):
            marg = quantize(rho, m)
            plan = seidl_plan(rho, n, m)
            assert np.array_equal(plan.atoms, marg.atoms[cells[on]])
            assert np.all(plan.weights == 1.0 / m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cells_finite_from_m_2n(self, uniform, ring_inverse, n):
        for m in range(2 * n, 2 * n + 6):
            marg = quantize(uniform, m)
            cells, _ = staircase(m, n)
            pair = ring_inverse.pair_matrix(marg.atoms)
            cost = sum(pair[cells[:, i], cells[:, j]] for i in range(n) for j in range(i + 1, n))
            assert np.all(np.isfinite(cost)), m
        assert solve_mmot(quantize(uniform, 2 * n - 1), n, ring_inverse).simplex["start"] == "artificial"

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n,m,cost", [(2, 16, "ring_inverse"), (3, 12, "ring_exp2"),
                                          (4, 8, "ring_inverse"), (4, 10, "ring_exp2")])
    def test_warm_matches_cold(self, monkeypatch, request, seed, n, m, cost):
        w = request.getfixturevalue(cost)
        marg = quantize(GridDensity.random_positive(seed), m)
        warm = solve_mmot(marg, n, w)
        exact = ringmot.mmot.solve_equality_lp
        monkeypatch.setattr(ringmot.mmot, "solve_equality_lp",
                            lambda *args, start=None: exact(*args))
        cold = solve_mmot(marg, n, w)
        assert (warm.simplex["start"], warm.simplex["phase1_pivots"]) == ("staircase", 0)
        assert cold.simplex["phase1_pivots"] > 0
        assert warm.value == pytest.approx(cold.value, abs=1e-9)


class TestPivotSequence:
    """Pivot counts of small fixed LPs. Counts swing widely under small
    input changes, so any change to the start, pricing or the ratio test
    shows up here before it shows up in the CLI bytes."""

    @pytest.mark.parametrize(
        "n,m,cost,pivots",
        [(2, 16, "ring_inverse", 8), (3, 12, "ring_exp2", 28), (4, 8, "ring_inverse", 44)],
    )
    def test_iterations_pinned(self, request, cosine, n, m, cost, pivots):
        sol = solve_mmot(quantize(cosine, m), n, request.getfixturevalue(cost))
        assert sol.status == "optimal"
        assert sol.simplex["iterations"] == pivots

    @pytest.mark.parametrize(
        "n,m,cost,degenerate,lex_ties",
        [
            # from the optimal Seidl start every pivot is degenerate and tied
            (2, 16, "ring_inverse", 7, 7),
            (3, 12, "ring_exp2", 27, 27),
            (4, 8, "ring_inverse", 43, 43),
        ],
    )
    def test_counters_pinned(self, request, cosine, n, m, cost, degenerate, lex_ties):
        sol = solve_mmot(quantize(cosine, m), n, request.getfixturevalue(cost))
        s = sol.simplex
        assert (s["start"], s["phase1_pivots"], s["degenerate_pivots"], s["lex_ties"]) == (
            "staircase", 0, degenerate, lex_ties
        )

    @pytest.mark.parametrize("max_pivots,phase1", [(3, 4), (46, 46)])
    def test_guard_stop_is_not_infeasible(self, monkeypatch, max_pivots, phase1):
        # from the artificial start the guard trips in phase 1 (3) or on the
        # first phase-2 pass (46); a transport LP is feasible, so neither
        # stop may read as infeasible
        monkeypatch.setattr(ringmot.simplex, "MAX_PIVOTS", max_pivots)
        res = solve_equality_lp(*_transport_lp(np.random.default_rng(0), 2, 8))
        assert res.status == "unbounded-guard"
        assert res.phase1_pivots == phase1
        assert res.iterations == max_pivots + 1
