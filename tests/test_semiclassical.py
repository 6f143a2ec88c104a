import dataclasses

import numpy as np
import pytest

from ringmot import semiclassical
from ringmot.config import TOL
from ringmot.costs import support_thresholds, truncate
from ringmot.errors import ConstructionError, DomainError, RegimeError
from ringmot.measure1d import GridDensity
from ringmot.seidl import DiscretePlan, plan_cost, seidl_plan
from ringmot.semiclassical import (
    TILE,
    GammaEta,
    Mollifier,
    _wrap,
    interaction_energy,
    kinetic_energy,
    marginal_identity_check,
    midpoint_pair_matrix,
    periodicity_defect,
    sqrt_density_dirichlet,
    support_separation,
    upper_bound_curve,
)

from conftest import TWO_PI


@pytest.fixture(scope="module")
def chi():
    return Mollifier.bump()


@pytest.fixture(scope="module")
def truncated_ring(ring_inverse):
    rho = GridDensity.uniform()
    th = support_thresholds(rho, ring_inverse, np.pi / 4, 2)
    return truncate(ring_inverse, th.h)


class TestMollifier:
    def test_normalized_square(self, chi):
        h = np.diff(chi.t)
        v = chi.values
        sq = np.sum(h * (v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)
        assert abs(sq - 1.0) <= 1e-10

    def test_even_and_supported(self, chi):
        assert np.max(np.abs(chi.values - chi.values[::-1])) <= 1e-12
        assert chi.chi(1.5) == 0.0 and chi.chi(-1.5) == 0.0

    def test_dirichlet_positive(self, chi):
        assert chi.dirichlet > 0


class TestSupportSeparation:
    def test_uniform_pairs(self, uniform):
        assert support_separation(seidl_plan(uniform, 2, 4)) == pytest.approx(np.pi)

    def test_uniform_triples(self, uniform):
        assert support_separation(seidl_plan(uniform, 3, 3)) == pytest.approx(2 * np.pi / 3)

    def test_coincident_pair(self):
        plan = DiscretePlan(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert support_separation(plan) == 0.0


class TestRegime:
    def test_eta_too_large(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 4)
        with pytest.raises(RegimeError):
            GammaEta(plan, uniform, chi, np.pi / 4)

    def test_positive_density_required(self, cosine, chi):
        plan = seidl_plan(cosine, 2, 4)
        with pytest.raises(DomainError):
            GammaEta(plan, cosine, chi, 0.1)


class TestDiagonalDensity:
    def test_far_from_support_is_zero(self, uniform, chi):
        plan = DiscretePlan(np.array([[np.pi / 2, 3 * np.pi / 2]]), np.array([1.0]))
        g = GammaEta(plan, uniform, chi, 0.2)
        # both coordinates more than 2 eta away from both smeared points
        assert g.density_at(np.array([[0.1, np.pi - 0.1]]))[0] == 0.0

    def test_total_mass(self, uniform, cosine08, chi):
        for rho in (uniform, cosine08):
            plan = seidl_plan(rho, 2, 64)
            g = GammaEta(plan, rho, chi, support_separation(plan) / 8)
            assert abs(g.total_mass(256) - 1.0) <= 1e-6

    def test_swap_symmetry(self, cosine08, chi):
        plan = seidl_plan(cosine08, 2, 8)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        pts = np.array([[0.8, 2.9], [1.9, 4.4]])
        swapped = pts[:, ::-1]
        assert np.allclose(g.density_at(pts), g.density_at(swapped), atol=1e-15)

    def test_support_localization(self, cosine08, chi):
        plan = seidl_plan(cosine08, 2, 32)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        rng = np.random.default_rng(7)
        lim = g.alpha - 4 * g.eta
        x1 = rng.uniform(0.0, TWO_PI, 1000)
        x2 = np.mod(x1 + rng.uniform(-lim, lim, 1000), TWO_PI)
        vals = g.density_at(np.stack([x1, x2], axis=1))
        assert np.max(np.abs(vals)) == 0.0


class TestBumpWindow:
    """PB evaluated on the bump's window equals the dense (points x z-grid) matrix."""

    @staticmethod
    def compare(g):
        z = g.zgrid
        nodes = z[[0, 1, 1000, 2047, z.size - 1]]
        half = np.concatenate([nodes + g.dz / 2, nodes - g.dz / 2])
        p = np.concatenate([[0.0, TWO_PI, -0.3, TWO_PI + 0.3], nodes, half])
        dense = g.chi.chi_sq(_wrap(p[:, None] - z[None, :]) / g.eta) / g.eta
        return np.array_equal(g._pb_outer(p), dense)

    @pytest.mark.parametrize("share", [1 / 8, 0.249])
    def test_matches_dense(self, uniform, cosine08, chi, share):
        for rho in (uniform, cosine08):
            plan = seidl_plan(rho, 2, 64)
            assert self.compare(GammaEta(plan, rho, chi, share * support_separation(plan)))

    def test_narrower_window_fails(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 64)
        g = GammaEta(plan, uniform, chi, support_separation(plan) / 8)
        g.offsets = g.offsets[1:-1]
        assert not self.compare(g)


class TestTiledBMatrix:
    """b_matrix contracted per z-tile equals the dense PB matrix times columns.T."""

    @staticmethod
    def dense_reference(g, xs):
        z = g.zgrid
        pb = g.chi.chi_sq(_wrap(xs[:, None] - z[None, :]) / g.eta) / g.eta
        return (pb * g.dz) @ g.columns.T

    @staticmethod
    def point_sets(g):
        rng = np.random.default_rng(5)
        # points whose nearest node is a tile's first or last node: their
        # windows reach the ends of the tile's z-range
        edges = g.zgrid[[0, TILE - 1, TILE, 7 * TILE - 1, 7 * TILE, g.zgrid.size - 1]]
        shifted = np.concatenate([edges + 0.49 * g.dz, edges - 0.49 * g.dz])
        return {
            "midpoints": semiclassical._midpoints(1024),
            "unsorted": np.concatenate(
                [rng.uniform(-0.5, TWO_PI + 0.5, 300), rng.permutation(shifted)]
            ),
            "ends": np.array([0.0, TWO_PI]),
            "duplicates": np.array([1.0, 4.0, 1.0, 1.0, 4.0]),
            "single": np.array([2.0]),
            "empty": np.array([]),
        }

    @pytest.mark.parametrize("share", [1 / 8, 0.249])
    @pytest.mark.parametrize("n, m", [(2, 64), (3, 63)])
    def test_matches_dense(self, cosine08, chi, n, m, share):
        plan = seidl_plan(cosine08, n, m)
        g = GammaEta(plan, cosine08, chi, share * support_separation(plan))
        for name, xs in self.point_sets(g).items():
            got, ref = g.b_matrix(xs), self.dense_reference(g, xs)
            assert got.shape == ref.shape == (xs.size, g.coords.size), name
            assert np.array_equal(got == 0.0, ref == 0.0), name
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), name

    def test_wrapping_tile_range_rejected(self, monkeypatch, uniform, chi):
        plan = seidl_plan(uniform, 2, 64)
        monkeypatch.setattr(semiclassical, "TOL", dataclasses.replace(TOL, quad_grid=256))
        reach = int(np.ceil(0.3 / (TWO_PI / 256)))
        with pytest.raises(ConstructionError, match=f"{TILE + 2 * reach + 1}.*256"):
            GammaEta(plan, uniform, chi, 0.3)


def roll_correlate(samples, offsets, kernel, dz):
    """The per-offset np.roll loop that `_correlate` replaced, as a reference."""
    out = np.zeros(samples.size)
    for off, kv in zip(offsets, kernel):
        if kv != 0.0:
            out += kv * np.roll(samples, -off)
    return out * dz


class TestCorrelate:
    @pytest.mark.parametrize("reach", [0, 1, 7, 241])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_roll_loop(self, reach, sign):
        rng = np.random.default_rng(reach)
        samples = rng.standard_normal(TOL.quad_grid)
        offsets = sign * np.arange(-reach, reach + 1)
        kernel = rng.standard_normal(offsets.size)
        kernel[::3] = 0.0   # skipped terms stay skipped
        dz = TWO_PI / TOL.quad_grid
        got = semiclassical._correlate(samples, offsets, kernel, dz)
        assert np.array_equal(got, roll_correlate(samples, offsets, kernel, dz))

    def test_reach_beyond_samples_rejected(self):
        with pytest.raises(DomainError, match="reach 9 exceeds the 8 samples"):
            semiclassical._correlate(np.ones(8), np.arange(-9, 10), np.ones(19), 1.0)


class TestMarginalIdentity:
    def test_uniform(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 64)
        g = GammaEta(plan, uniform, chi, support_separation(plan) / 8)
        assert marginal_identity_check(g, 256) <= 1e-4

    def test_cosine(self, cosine08, chi):
        plan = seidl_plan(cosine08, 2, 512)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        assert marginal_identity_check(g, 256) <= 1e-4

    def test_near_regime_boundary(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 64)
        g = GammaEta(plan, uniform, chi, 0.249 * support_separation(plan))
        assert marginal_identity_check(g, 256) <= 1e-4

    def test_three_marginals(self, uniform, cosine08, chi):
        # the atom count must resolve the bump widths or the coordinate sums
        # alias; at m = 513 both identities hold with room to spare
        for rho in (uniform, cosine08):
            plan = seidl_plan(rho, 3, 513)
            g = GammaEta(plan, rho, chi, support_separation(plan) / 8)
            assert marginal_identity_check(g, 128) <= 1e-4
            assert abs(g.total_mass(128) - 1.0) <= 1e-6
            assert kinetic_energy(g).relative_mismatch <= 1e-3


class TestKinetic:
    def test_uniform_closed_form(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 16)
        eta = 0.3
        g = GammaEta(plan, uniform, chi, eta)
        report = kinetic_energy(g)
        assert report.exact == pytest.approx(2 * chi.dirichlet / eta**2, rel=1e-12)
        assert report.relative_mismatch <= 1e-3

    def test_eta_scaling(self, uniform, chi):
        plan = seidl_plan(uniform, 2, 16)
        k1 = kinetic_energy(GammaEta(plan, uniform, chi, 0.4)).exact
        k2 = kinetic_energy(GammaEta(plan, uniform, chi, 0.2)).exact
        assert k2 == pytest.approx(4 * k1, rel=1e-12)

    def test_cosine_both_sides(self, cosine08, chi):
        plan = seidl_plan(cosine08, 2, 256)
        g = GammaEta(plan, cosine08, chi, 0.1)
        report = kinetic_energy(g)
        assert report.relative_mismatch <= 1e-3

    def test_sqrt_dirichlet_needs_positive(self, cosine):
        with pytest.raises(DomainError):
            sqrt_density_dirichlet(cosine)


class TestPeriodicity:
    def test_seam_defect(self, cosine08, chi):
        plan = seidl_plan(cosine08, 2, 16)
        g = GammaEta(plan, cosine08, chi, 0.2)
        assert periodicity_defect(g) <= 1e-8


class TestUpperBound:
    def test_linearity_in_eps(self, uniform, chi, truncated_ring):
        plan = seidl_plan(uniform, 2, 16)
        g = GammaEta(plan, uniform, chi, 0.3)
        kin = kinetic_energy(g).exact
        inter = interaction_energy(g, midpoint_pair_matrix(truncated_ring))
        eps = 0.01
        assert (2 * eps * kin + inter) - (eps * kin + inter) == pytest.approx(eps * kin)

    def test_smearing_gap_quadratic(self, uniform, chi, truncated_ring):
        plan = seidl_plan(uniform, 2, 16)
        ref = plan_cost(plan, truncated_ring)
        gaps = []
        for eta in (0.2, 0.1, 0.05):
            g = GammaEta(plan, uniform, chi, eta)
            gaps.append(interaction_energy(g, midpoint_pair_matrix(truncated_ring)) - ref)
        assert gaps[0] > gaps[1] > gaps[2] > 0
        order = np.polyfit(np.log([0.2, 0.1, 0.05]), np.log(gaps), 1)[0]
        assert 1.5 <= order <= 2.5

    def test_curve_slope_and_monotonicity(self, uniform, truncated_ring):
        curve = upper_bound_curve(uniform, truncated_ring, 2, [1e-1, 1e-2, 1e-3, 1e-4], m=16)
        bounds = [p.bound for p in curve.points]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(p.bound >= curve.reference for p in curve.points)
        assert 0.4 <= curve.slope <= 0.6

    def test_cost_matrix_built_once_per_curve(self, uniform, truncated_ring):
        # the translation-invariant pair matrix is read off one 1024-point row
        shapes = []

        def raw(x, y):
            w = truncated_ring.raw(x, y)
            shapes.append(np.shape(w))
            return w

        counting = dataclasses.replace(truncated_ring, raw=raw)
        upper_bound_curve(uniform, counting, 2, [1e-1, 1e-2, 1e-3, 1e-4], m=16)
        assert shapes.count((1024,)) == 1
        assert (1024, 1024) not in shapes

    # (kinetic, interaction, bound) per eps = 1e-1 .. 1e-4 at n=2, m=64 on the
    # ring-inverse cost truncated as in acceptance criterion 8
    PINNED = {
        "uniform": (np.pi / 4, [
            (39.913791551524405, 1.0090516482915408, 5.000430803443981),
            (126.21849135600303, 1.0028208957877331, 2.2650058093477634),
            (399.13791551524406, 1.0008880003157685, 1.4000259158310127),
            (1262.18491356003, 1.0002803741569648, 1.1264988655129677),
        ]),
        "cosine08": (np.pi / 8, [
            (114.09008042956552, 1.1732524672198048, 12.582260510176358),
            (360.35206053062524, 1.167382154534516, 4.7709027598407685),
            (1139.1008187530365, 1.1655513640193789, 2.3046521827724153),
            (3601.720619763634, 1.1649749205672992, 1.5251469825436628),
        ]),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_curve_pinned(self, name, request, ring_inverse):
        rho = request.getfixturevalue(name)
        radius, pinned = self.PINNED[name]
        w_h = truncate(ring_inverse, support_thresholds(rho, ring_inverse, radius, 2).h)
        curve = upper_bound_curve(rho, w_h, 2, [1e-1, 1e-2, 1e-3, 1e-4], m=64)
        got = [(p.kinetic, p.interaction, p.bound) for p in curve.points]
        assert np.allclose(got, pinned, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_state_per_distinct_eta(self, name, request, monkeypatch, chi, ring_inverse):
        rho = request.getfixturevalue(name)
        built = []

        class Counting(GammaEta):
            def __init__(self, *args):
                built.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(semiclassical, "GammaEta", Counting)
        radius = self.PINNED[name][0]
        w_h = truncate(ring_inverse, support_thresholds(rho, ring_inverse, radius, 2).h)
        curve = upper_bound_curve(rho, w_h, 2, [1e-1, 1e-2, 1e-3, 1e-4], m=64)
        # the probe at alpha / 8 is the largest-eps row's state
        assert curve.points[0].eta == curve.cap
        assert len(built) == len(set(built)) == curve.states == 4
        plan = seidl_plan(rho, 2, 64)
        for p in curve.points:
            g = GammaEta(plan, rho, chi, p.eta)
            assert p.kinetic == kinetic_energy(g).exact
            assert p.reach == g.reach

    @pytest.mark.parametrize(
        "eps, named",
        [([1e-1, float("nan")], "eps = nan"), ([1e-1, float("inf")], "eps = inf"),
         ([1e-1, 1e-2, 1e-1], "eps = 0.1 is repeated"), ([1e-1, 0.0], "eps = 0.0"),
         ([], "empty")],
        ids=["nan", "inf", "duplicate", "zero", "empty"],
    )
    def test_bad_eps_rejected(self, uniform, truncated_ring, eps, named):
        with pytest.raises(DomainError, match=named):
            upper_bound_curve(uniform, truncated_ring, 2, eps, m=16)

    def test_unbounded_cost_rejected(self, ring_inverse):
        with pytest.raises(DomainError):
            midpoint_pair_matrix(ring_inverse)
