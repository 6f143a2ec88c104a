from itertools import combinations_with_replacement

import numpy as np
import pytest

from ringmot.config import TOL
from ringmot.costs import (
    WELL_ORDER_GRID_GUARD,
    CostModel,
    ExpProfile,
    InverseProfile,
    LinearProfile,
    PowerProfile,
    TableProfile,
    WellOrderReport,
    _exchange_gaps,
    check_translation_invariant_criterion,
    check_well_ordering,
    cone_combine,
    cost_from_spec,
    envelopes,
    make_graph_cost,
    make_ring_cost,
    make_torus_cost,
    support_thresholds,
    torus_distance,
    truncate,
)
from ringmot.errors import (
    ConcentrationError,
    ConstructionError,
    DomainError,
    SizeGuardError,
    ThresholdNotFoundError,
)

from conftest import TWO_PI


def flat(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def square_diff_cost(window=(0.0, TWO_PI)):
    return make_graph_cost(flat, PowerProfile(2.0), window)


class TestTorusDistance:
    def test_wraparound(self):
        assert torus_distance(0.0, 3 * np.pi / 2) == pytest.approx(np.pi / 2)

    def test_zero(self):
        assert torus_distance(1.23, 1.23) == 0.0

    def test_min_of_branches(self):
        assert torus_distance(np.pi / 3, 5 * np.pi / 3) == pytest.approx(2 * np.pi / 3)


class TestRingCost:
    def test_inverse_antipodal(self, ring_inverse):
        assert ring_inverse(0.0, np.pi) == pytest.approx(0.5)

    def test_linear_antipodal(self):
        w = make_ring_cost(LinearProfile(2.0, 1.0))
        assert w(0.0, np.pi) == pytest.approx(0.0)

    def test_inverse_quarter(self, ring_inverse):
        assert ring_inverse(0.0, np.pi / 2) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_infinity_locus(self, ring_inverse):
        assert np.isinf(ring_inverse(1.0, 1.0))
        assert np.isinf(ring_inverse(0.0, TWO_PI))


class TestGraphAndTorusCost:
    def test_graph_coincident(self):
        w = make_graph_cost(lambda x: np.exp(-np.asarray(x, dtype=float)),
                            lambda d: 1.0 / (1.0 + np.asarray(d, dtype=float)),
                            window=(0.0, 5.0))
        assert w(0.0, 0.0) == pytest.approx(1.0)

    def test_torus_linear(self, torus_linear):
        assert torus_linear(0.0, 3 * np.pi / 2) == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("window", [(4.0, 0.0), (1.0, 1.0), (0.0, np.inf), (np.nan, 4.0)])
    def test_graph_window_rejected(self, window):
        lo, hi = window
        with pytest.raises(ConstructionError, match=rf"graph window \[{lo}, {hi}\] needs finite ends"):
            square_diff_cost(window)

    def test_graph_hyperbola(self):
        w = make_graph_cost(lambda x: 1.0 / np.asarray(x, dtype=float),
                            InverseProfile(), window=(0.5, 4.0))
        assert w(1.0, 2.0) == pytest.approx(2.0 / np.sqrt(5.0))


class TestConeCombine:
    def test_identity(self, ring_inverse):
        combined = cone_combine([ring_inverse], [1.0])
        xs = np.linspace(0.1, 6.0, 17)
        assert np.allclose(combined(xs, xs[::-1]), ring_inverse(xs, xs[::-1]))

    def test_halved(self, ring_inverse):
        half = cone_combine([ring_inverse], [0.5])
        assert half(0.0, np.pi) == pytest.approx(0.25)

    def test_sum_of_wellordering_is_wellordering(self, ring_inverse, torus_linear):
        combined = cone_combine([ring_inverse, torus_linear], [1.0, 1.0])
        report = check_well_ordering(combined, grid_size=24)
        assert report.verdict == "well_ordering"

    def test_empty_rejected(self):
        with pytest.raises(ConstructionError):
            cone_combine([], [])


class TestWellOrdering:
    def test_ring_inverse(self, ring_inverse):
        report = check_well_ordering(ring_inverse, grid_size=32)
        assert report.verdict == "well_ordering"
        assert report.margin >= 0.0

    def test_guard_names_size(self, ring_inverse):
        size = WELL_ORDER_GRID_GUARD + 1
        named = rf"grid_size = {size} exceeds the {WELL_ORDER_GRID_GUARD} guard"
        with pytest.raises(SizeGuardError, match=named):
            check_well_ordering(ring_inverse, grid_size=size)

    def test_square_diff_violated(self):
        report = check_well_ordering(square_diff_cost((0.0, 1.0)), grid_size=16)
        assert report.verdict == "violated"
        assert report.counterexample is not None

    def test_square_diff_spec_quadruple(self):
        # the documented violating quadruple, checked by direct arithmetic
        w = square_diff_cost((0.0, 1.0))
        x1, x2, x3, x4 = 0.0, 0.2, 0.5, 1.0
        nested = w(x1, x3) + w(x2, x4)
        near = w(x1, x2) + w(x3, x4)
        assert nested == pytest.approx(0.25 + 0.64)
        assert near == pytest.approx(0.04 + 0.25)
        assert nested > near

    def test_one_body_cost_all_pairings_equal(self):
        triv = CostModel(kind="trivial", raw=lambda x, y: np.sin(x) + np.sin(y),
                         domain=(0.0, TWO_PI))
        report = check_well_ordering(triv, grid_size=20, strict=True)
        assert report.verdict == "well_ordering"
        assert report.margin == pytest.approx(0.0, abs=1e-12)

    def test_report_invariant(self):
        with pytest.raises(ConstructionError):
            WellOrderReport("violated", -1.0, None, 8, 0, 0)

    def test_strict_graph_cost(self):
        w = make_graph_cost(lambda x: np.exp(-np.asarray(x, dtype=float)),
                            lambda d: np.exp(-np.asarray(d, dtype=float)),
                            window=(0.0, 4.0))
        report = check_well_ordering(w, grid_size=16, strict=True)
        assert report.verdict in ("well_ordering", "strictly_well_ordering")


def brute_force_gaps(C, strict):
    """Itertools reference for the scan: minimum near and far gaps of one pair
    matrix over every sorted index quadruple with a finite nested sum."""
    q = np.array(list(combinations_with_replacement(range(C.shape[0]), 4)))
    i, j, k, l = q.T
    nested = C[i, k] + C[j, l]
    counted = np.isfinite(nested)
    near_ok = counted & ~(strict & (j == k))
    far_ok = counted & ~(strict & ((i == j) | (k == l)))
    with np.errstate(invalid="ignore"):
        near = np.where(near_ok, C[i, j] + C[k, l] - nested, np.inf)
        far = np.where(far_ok, C[i, l] + C[j, k] - nested, np.inf)
    return float(near.min()), float(far.min())


def scan_cost(name):
    one_body = CostModel(kind="one-body", raw=lambda x, y: np.sin(x) + np.sin(y),
                         domain=(0.0, TWO_PI))
    return {
        "ring-inverse": make_ring_cost(InverseProfile()),  # +inf diagonal and 0/2pi cell
        "torus-linear": make_torus_cost(LinearProfile(np.pi, 1.0)),
        "torus-square": make_torus_cost(PowerProfile(2.0)),
        "convex-graph": random_convex_graph_cost(0),
        "one-body": one_body,
    }[name]


class TestExchangeScan:
    """The O(G^3) pair-matrix scan against an itertools brute force."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("grid_size", [8, 16, 24])
    @pytest.mark.parametrize(
        "name", ["ring-inverse", "torus-linear", "torus-square", "convex-graph", "one-body"]
    )
    def test_matches_brute_force(self, name, grid_size, strict):
        w = scan_cost(name)
        xs = np.linspace(*w.domain, grid_size)
        C = w.pair_matrix(xs)
        scan = _exchange_gaps(C[None])[0].min(axis=0)
        near, far = scan[2:] if strict else scan[:2]
        ref_near, ref_far = brute_force_gaps(C, strict)
        for got, ref in ((near, ref_near), (far, ref_far)):
            assert got == ref if np.isinf(ref) else got == pytest.approx(ref, abs=1e-12)

        margin = min(brute_force_gaps(C, False))
        strict_margin = min(brute_force_gaps(C, True))
        if margin < -TOL.well_order_slack:
            expected = "violated"
        elif strict and strict_margin > TOL.well_order_slack:
            expected = "strictly_well_ordering"
        else:
            expected = "well_ordering"
        report = check_well_ordering(w, grid_size=grid_size, strict=strict, n_random=0)
        assert report.verdict == expected
        reported = margin if expected == "violated" else max(margin, 0.0)
        assert report.margin == pytest.approx(reported, abs=1e-12)


def tabular_cost(table, domain=(0.0, 1.0)):
    """Cost looked up from a symmetric table at the nearest grid index."""
    lo, hi = domain
    last = table.shape[0] - 1

    def raw(x, y):
        i = np.clip(np.rint((x - lo) / (hi - lo) * last).astype(int), 0, last)
        j = np.clip(np.rint((y - lo) / (hi - lo) * last).astype(int), 0, last)
        return table[i, j]

    return CostModel(kind="tabular", raw=raw, domain=domain)


class TestCertificateMutations:
    """Perturbed costs must turn the well-ordering certificate into a violation."""

    def test_raised_grid_pair_is_violated(self):
        xs = np.linspace(0.0, 1.0, 16)
        table = np.exp(-np.abs(xs[:, None] - xs[None, :]))
        assert check_well_ordering(tabular_cost(table), grid_size=16).verdict == "well_ordering"
        table[3, 9] = table[9, 3] = table[3, 9] + 0.05
        w = tabular_cost(table)
        report = check_well_ordering(w, grid_size=16)
        assert report.verdict == "violated"
        cx = report.counterexample
        x1, x2, x3, x4 = cx["points"]
        assert x1 <= x2 <= x3 <= x4
        assert cx["nested"] == w(x1, x3) + w(x2, x4)
        assert cx["near"] == w(x1, x2) + w(x3, x4)
        assert cx["far"] == w(x1, x4) + w(x2, x3)
        assert min(cx["near"], cx["far"]) - cx["nested"] == pytest.approx(report.margin, abs=1e-12)

    def test_dent_between_grid_distances_needs_random_sets(self):
        # a tent bump on the torus-linear profile, zero at every grid distance
        grid_size = 16
        h = TWO_PI / (grid_size - 1)

        def g(d):
            d = np.asarray(d, dtype=float)
            return np.pi - d + 0.3 * np.maximum(0.0, 1.0 - np.abs(d - 2.5 * h) / (0.4 * h))

        w = make_torus_cost(g)
        assert check_well_ordering(w, grid_size=grid_size, n_random=0).verdict == "well_ordering"
        assert check_well_ordering(w, grid_size=grid_size, seed=7).verdict == "violated"


class TestTranslationInvariantCriterion:
    def test_torus_metric_profile(self):
        # pi - |t|_T, the V-shaped profile of the decreasing torus cost
        report = check_translation_invariant_criterion(
            lambda t: np.abs(np.asarray(t, dtype=float) - np.pi), (0.0, TWO_PI), grid_size=48
        )
        assert report.verdict == "well_ordering"

    def test_square_violated_by_shift_condition(self):
        # d0 = d1 = 0.1, delta = 0.2: 2 * 0.09 > 2 * 0.01
        g = lambda t: np.asarray(t, dtype=float) ** 2
        assert g(0.1 + 0.2) + g(0.1 + 0.2) > g(0.1) + g(0.1)
        report = check_translation_invariant_criterion(g, (0.0, 1.0), grid_size=32)
        assert report.verdict == "violated"

    def test_exponential_profile(self):
        report = check_translation_invariant_criterion(
            lambda t: np.exp(-np.asarray(t, dtype=float)), (0.0, 100.0), grid_size=32
        )
        assert report.verdict == "well_ordering"

    def test_strict_mode(self):
        strictly = check_translation_invariant_criterion(
            lambda t: np.exp(-np.asarray(t, dtype=float)), (0.0, 10.0),
            grid_size=32, strict=True,
        )
        assert strictly.verdict == "strictly_well_ordering"
        # piecewise-linear V-profile: convex but nowhere strictly convex
        flat = check_translation_invariant_criterion(
            lambda t: np.abs(np.asarray(t, dtype=float) - np.pi), (0.0, TWO_PI),
            grid_size=32, strict=True,
        )
        assert flat.verdict == "well_ordering"

    def test_agrees_with_quadruple_checker(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            # random mixture of convex hinges, made decreasing or bent upward
            knots = np.sort(rng.uniform(0.2, TWO_PI, 3))
            amps = rng.uniform(0.1, 1.0, 3)
            bend = rng.choice([0.0, rng.uniform(0.5, 1.5)])

            def g(t, knots=knots, amps=amps, bend=bend):
                t = np.asarray(t, dtype=float)
                out = sum(a * np.maximum(0.0, k - t) for a, k in zip(amps, knots))
                return out + bend * t**2

            report_g = check_translation_invariant_criterion(g, (0.0, TWO_PI), grid_size=24)
            model = CostModel(
                kind="even-profile",
                raw=lambda x, y, g=g: g(np.abs(x - y)),
                domain=(0.0, TWO_PI),
            )
            report_w = check_well_ordering(model, grid_size=24, seed=trial)
            assert report_g.verdict == report_w.verdict, (knots, amps, bend)


class TestEnvelopes:
    def test_ring_inverse_at_pi(self, ring_inverse):
        env = envelopes(ring_inverse)
        assert env.m_at(np.pi) == pytest.approx(0.5, abs=1e-6)
        assert env.M_at(np.pi) == pytest.approx(0.5, abs=1e-6)

    def test_torus_linear_mid(self, torus_linear):
        env = envelopes(torus_linear)
        assert env.M_at(np.pi / 2) == pytest.approx(np.pi / 2, abs=2e-2)

    def test_ring_two_minus_chord(self):
        env = envelopes(make_ring_cost(LinearProfile(2.0, 1.0)))
        assert env.M_at(np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_and_sandwich(self, ring_inverse):
        env = envelopes(ring_inverse)
        assert np.all(env.distances[1:] >= env.distances[:-1])
        assert np.all(env.prefix_min[1:] <= env.prefix_min[:-1])   # +inf at distance 0
        assert np.all(env.suffix_max[1:] <= env.suffix_max[:-1])
        xs = np.arange(256) * (TWO_PI / 256)
        w = ring_inverse(xs[:, None], xs[None, :]).ravel()
        d = torus_distance(xs[:, None], xs[None, :]).ravel()
        off = d > 0
        assert np.all(env.m_at(d[off]) <= w[off])
        assert np.all(env.M_at(d[off]) >= w[off])


class TestTruncate:
    def test_pointwise_min(self, ring_inverse):
        w10 = truncate(ring_inverse, 10.0)
        assert w10(0.0, np.pi) == pytest.approx(0.5)
        x = 0.05  # chord ~ 0.05, inverse ~ 20
        assert w10(0.0, x) == pytest.approx(10.0)
        assert ring_inverse(0.0, x) > 10.0

    def test_bounded_on_samples(self, ring_inverse):
        w10 = truncate(ring_inverse, 10.0)
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(0, TWO_PI, (2, 10_000))
        vals = w10(xs, ys)
        assert np.max(vals) <= 10.0 + 1e-12
        base = ring_inverse(xs, ys)
        low = base <= 10.0
        assert np.allclose(vals[low], base[low])


class TestSupportThresholds:
    def test_concentration_error(self, uniform, ring_inverse):
        with pytest.raises(ConcentrationError):
            support_thresholds(uniform, ring_inverse, np.pi / 2, 2)

    def test_uniform_n2(self, uniform, ring_inverse):
        th = support_thresholds(uniform, ring_inverse, np.pi / 4, 2)
        assert np.isfinite(th.h) and th.h > 0
        assert th.beta / 2 <= np.pi / 4
        env = envelopes(ring_inverse)
        assert env.m_at(th.beta) > th.cost_bound / (1 - 2 * th.kappa)

    def test_h_grows_with_n(self, uniform, ring_inverse):
        th2 = support_thresholds(uniform, ring_inverse, np.pi / 4, 2)
        th3 = support_thresholds(uniform, ring_inverse, np.pi / 8, 3)
        assert th3.h > th2.h

    def test_bounded_cost_has_no_threshold(self, uniform, torus_linear):
        with pytest.raises(ThresholdNotFoundError):
            support_thresholds(uniform, torus_linear, np.pi / 4, 2)

    def test_not_found_names_r_and_kappa(self, uniform, torus_linear):
        # m(beta) <= pi for pi - d, against 2 (pi - r) / (1 - 2 kappa) = 3 pi at r = pi/4
        with pytest.raises(ThresholdNotFoundError) as info:
            support_thresholds(uniform, torus_linear, np.pi / 4, 2)
        message = str(info.value)
        assert "n = 2" in message and "r = 0.785398" in message and "kappa = 0.25" in message
        assert f"= {3 * np.pi:.6g}" in message and f"is {np.pi:.6g}" in message

    @pytest.mark.xfail(
        strict=True,
        reason="sampled m(beta) is +inf below the first sampled distance, so a singular "
        "cost gets beta = pi/256 whatever the bound; needs the interval bounds of ROADMAP item 1",
    )
    def test_support_condition_holds_at_returned_beta(self, uniform, ring_inverse):
        # the infimum of the decreasing profile over distances [0, beta] is its value at beta
        th = support_thresholds(uniform, ring_inverse, 1.0, 3)
        assert ring_inverse(0.0, th.beta) > th.cost_bound / (1 - 3 * th.kappa)


def grid_kind(kind, g):
    """The inclusive potential grid or the periodic midpoint grid with g nodes."""
    if kind == "inclusive":
        return np.linspace(0.0, TWO_PI, g)
    return (np.arange(g) + 0.5) * (TWO_PI / g)


class TestGridMatrix:
    """One cost row against the dense pair matrix on uniform grids."""

    @staticmethod
    def cost(name, ring_inverse, ring_exp2, torus_linear):
        return {
            "ring-inverse": ring_inverse,
            "ring-exp": ring_exp2,
            "torus-linear": torus_linear,
            "torus-square": make_torus_cost(PowerProfile(2.0)),
            "sum": cone_combine([ring_inverse, torus_linear], [1.0, 0.5]),
            "truncated": truncate(ring_inverse, 3.0),
            "ring-table": make_ring_cost(TableProfile((0.0, 0.5, 1.0, 2.0), (4.0, 2.0, 1.0, 0.5))),
            "torus-power-neg": make_torus_cost(PowerProfile(-0.5)),
        }[name]

    @pytest.mark.parametrize("kind", ["inclusive", "midpoint"])
    @pytest.mark.parametrize("g", [2, 3, 8, 1024])
    @pytest.mark.parametrize(
        "name",
        ["ring-inverse", "ring-exp", "torus-linear", "torus-square", "sum", "truncated",
         "ring-table", "torus-power-neg"],
    )
    def test_matches_pair_matrix(self, name, g, kind, ring_inverse, ring_exp2, torus_linear):
        w = self.cost(name, ring_inverse, ring_exp2, torus_linear)
        assert w.translation_invariant
        xs = grid_kind(kind, g)
        got, dense = w.grid_matrix(xs), w.pair_matrix(xs)
        assert got.shape == (g, g)
        assert np.array_equal(np.isinf(got), np.isinf(dense))
        finite = np.isfinite(dense)
        # the atol floor only serves torus-linear's zero at distance pi, which the
        # midpoint grid holds for even g: the row gives 0, fl(xs[i] - xs[j]) 4.4e-16
        assert np.allclose(got[finite], dense[finite], rtol=1e-12, atol=1e-15)
        assert np.array_equal(got, got.T)
        offset = np.abs(np.arange(g)[:, None] - np.arange(g)[None, :])
        assert np.array_equal(got, got[0][offset])  # Toeplitz: one value per offset

    @pytest.mark.parametrize("kind", ["inclusive", "midpoint"])
    def test_graph_cost_is_dense(self, kind, ring_inverse):
        xs = grid_kind(kind, 64)
        for name in ("graph", "graph-sum", "graph-truncated"):
            w, _ = graph_cost(name, ring_inverse)
            assert not w.translation_invariant, name
            assert np.array_equal(w.grid_matrix(xs), w.pair_matrix(xs)), name

    def test_non_uniform_grid_rejected(self, ring_inverse):
        xs = grid_kind("inclusive", 64)
        xs[10] += 1e-6
        with pytest.raises(DomainError, match=r"uniform grid: step 9 \(xs\[9\]"):
            ring_inverse.grid_matrix(xs)

    def test_raw_cost_not_translation_invariant(self):
        # symmetric but not a function of x - y: w(0, 1/4) != w(1/4, 1/2)
        w = CostModel(kind="one-body", raw=lambda x, y: np.sin(x) + np.sin(y),
                      domain=(0.0, TWO_PI))
        assert not w.translation_invariant
        xs = grid_kind("inclusive", 16)
        assert np.array_equal(w.grid_matrix(xs), w.pair_matrix(xs))


class TestSymmetryAndSerialization:
    @pytest.mark.parametrize(
        "kind", ["ring", "torus", "graph", "sum", "truncated", "graph-sum", "graph-truncated"]
    )
    def test_symmetry_on_random_pairs(self, kind, ring_inverse, torus_linear):
        pointwise = None
        if kind.startswith("graph"):
            w, pointwise = graph_cost(kind, ring_inverse)
        else:
            w = {
                "ring": ring_inverse,
                "torus": torus_linear,
                "sum": cone_combine([ring_inverse, torus_linear], [1.0, 0.5]),
                "truncated": truncate(ring_inverse, 3.0),
            }[kind]
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(0, TWO_PI, (2, 10_000))
        assert np.array_equal(w(xs, ys), w(ys, xs))
        if pointwise is not None:
            assert np.array_equal(w(xs, ys), pointwise(xs, ys))

    def test_asymmetric_raw_rejected(self):
        with pytest.raises(ConstructionError, match="not exactly symmetric") as err:
            CostModel(kind="skew", raw=lambda x, y: np.exp(-(x - y)), domain=(0.0, TWO_PI))
        assert "np.float64" not in str(err.value)

    def test_spec_parses_to_the_built_cost(self, ring_inverse, torus_linear):
        ring = {"kind": "ring", "profile": {"kind": "inverse"}}
        torus = {"kind": "torus", "profile": {"kind": "linear", "params": {"intercept": np.pi}}}
        spec = {"kind": "sum", "weights": [2.0, 0.5], "terms": [ring, torus]}
        xs = np.linspace(0.3, 5.9, 23)
        combined = cone_combine([ring_inverse, torus_linear], [2.0, 0.5])
        for parsed, built in ((cost_from_spec(ring), ring_inverse), (cost_from_spec(spec), combined)):
            assert np.array_equal(parsed(xs, xs[::-1]), built(xs, xs[::-1]))

    def test_table_profile_range_error(self):
        profile = TableProfile((0.0, 1.0), (1.0, 0.0))
        with pytest.raises(ConstructionError):
            profile(2.0)
        with pytest.raises(ConstructionError, match="not evaluable on"):
            make_torus_cost(profile)  # torus distances reach pi

    @pytest.mark.parametrize(
        "xs,ys,message",
        [
            ((0.0, 3.3, 2.0, 3.5), (3.0, 0.0, 2.0, 0.0), "xs must be strictly increasing: index 2"),
            ((0.0, 1.0, 1.0), (1.0, 0.5, 0.0), "xs must be strictly increasing: index 2"),
            ((0.0, np.nan, 2.0), (1.0, 0.5, 0.0), "xs must be finite: index 1"),
            ((0.0, 1.0, 2.0), (1.0, 0.5, np.inf), "ys must be finite: index 2"),
            ((0.0, 1.0), (1.0, 0.5, 0.0), "as many ys as xs"),
            ((0.0,), (1.0,), "at least two"),
        ],
    )
    def test_table_profile_validated(self, xs, ys, message):
        with pytest.raises(ConstructionError, match=message):
            TableProfile(xs, ys)


class TestAppendixGraphCosts:
    """Convex non-increasing (f, g) pairs give exchange-valid graph costs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_convex_pairs(self, seed):
        w = random_convex_graph_cost(seed)
        report = check_well_ordering(w, grid_size=24, seed=seed)
        assert report.verdict == "well_ordering", report.counterexample

    def test_named_tabulated_profiles(self):
        # piecewise-linear samples of classic convex non-increasing shapes
        xs = np.linspace(0.0, 8.0, 129)
        tables = {
            "exp": TableProfile(tuple(xs), tuple(np.exp(-xs))),
            "inv1p": TableProfile(tuple(xs), tuple(1.0 / (1.0 + xs))),
            "hinge": TableProfile(tuple(xs), tuple(np.maximum(0.0, 1.0 - xs / 4.0))),
        }
        for fname, f in tables.items():
            for gname, g in tables.items():
                w = make_graph_cost(f, g, (0.0, 4.0))
                report = check_well_ordering(w, grid_size=16, seed=1)
                assert report.verdict == "well_ordering", (fname, gname)


def graph_cost(name, ring_inverse):
    """A graph cost on [0, 2*pi], alone, summed with the ring cost or truncated,
    with the pointwise evaluation the combined raw cost must match bit for bit."""
    graph = random_convex_graph_cost(1, window_hi=TWO_PI)
    if name == "graph-sum":
        combined = cone_combine([graph, ring_inverse], [1.0, 0.5])
        return combined, lambda x, y: 1.0 * graph(x, y) + 0.5 * ring_inverse(x, y)
    if name == "graph-truncated":
        return truncate(graph, 6.0), lambda x, y: np.minimum(graph(x, y), 6.0)
    return graph, graph


def random_convex_graph_cost(seed, window_hi=None):
    """Graph cost from seeded convex non-increasing hinge mixtures."""
    rng = np.random.default_rng(seed)
    hi = window_hi if window_hi is not None else rng.uniform(2.0, 6.0)

    def hinge_mixture(rng, hi):
        knots = np.sort(rng.uniform(0.1, hi, 4))
        amps = rng.uniform(0.05, 1.0, 4)

        def fn(t, knots=knots, amps=amps):
            t = np.asarray(t, dtype=float)
            return sum(a * np.maximum(0.0, k - t) for a, k in zip(amps, knots))

        return fn

    f = hinge_mixture(rng, hi)
    diag = np.hypot(hi, f(0.0))
    g = hinge_mixture(rng, float(diag) + 1.0)
    return make_graph_cost(f, g, (0.0, hi))
