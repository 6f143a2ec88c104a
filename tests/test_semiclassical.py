import tracemalloc

import numpy as np
import pytest

from ringmot import semiclassical
from ringmot.config import TOL
from ringmot.costs import CostModel, ExpProfile, make_graph_cost, support_thresholds, truncate
from ringmot.errors import DomainError, RegimeError, SizeGuardError
from ringmot.measure1d import GridDensity
from ringmot.seidl import DiscretePlan, plan_cost, seidl_plan
from ringmot.semiclassical import (
    PAIR_GRID,
    GammaEta,
    Mollifier,
    _wrap,
    interaction_energy,
    kinetic_energy,
    marginal_identity_check,
    midpoint_pair_matrix,
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
        assert chi.t[0] == -1.0 and chi.t[-1] == 1.0
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

    def test_kernel_guard_on_coordinates(self, monkeypatch, uniform, chi):
        # GammaEta checks its own 64 coordinates x (2 reach + 1) window floats
        plan = seidl_plan(uniform, 2, 64)
        reach = GammaEta(plan, uniform, chi, 0.1).reach
        monkeypatch.setattr(semiclassical, "KERNEL_GUARD", 64 * (2 * reach + 1) - 1)
        named = rf"^coords \* \(2 reach \+ 1\) = 64 \* {2 * reach + 1} = {64 * (2 * reach + 1)} exceeds"
        with pytest.raises(SizeGuardError, match=named):
            GammaEta(plan, uniform, chi, 0.1)

    @pytest.mark.parametrize("n, m", [(2, 8176), (3, 12228)])
    def test_kernel_guard_before_the_plan(self, monkeypatch, uniform, ring_inverse, n, m):
        # the largest m inside the guard passes it; the next multiple of n trips before seidl_plan
        reach = -(-TOL.quad_grid // (8 * n))
        assert m * (2 * reach + 1) <= semiclassical.KERNEL_GUARD < (m + n) * (2 * reach + 1)

        def planned(*args):
            raise AssertionError("the plan was built")

        monkeypatch.setattr(semiclassical, "seidl_plan", planned)
        with pytest.raises(AssertionError, match="the plan was built"):
            upper_bound_curve(uniform, ring_inverse, n, [0.1], m=m)
        with pytest.raises(SizeGuardError, match=rf"= {m + n} \* {2 * reach + 1} = "):
            upper_bound_curve(uniform, ring_inverse, n, [0.1], m=m + n)

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

    def test_density_at_peak_memory(self, cosine08, chi):
        # b_matrix evaluates the bump windows of B_ROWS points at a time and places
        # them on the z-grid (16.8 MB), so the peak (25.6 MB measured) is that block
        # plus B of the 2 * 5000 points; one product of all points would hold a
        # 328 MB (points x 4096) matrix, and the windows of all points 24 MB
        plan = seidl_plan(cosine08, 2, 32)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        x = np.random.default_rng(3).uniform(0.0, TWO_PI, (5000, 2))
        tracemalloc.start()
        try:
            g.density_at(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


def dense_pb(g, p):
    """PB(p - z) on the whole z-grid, at the argument (phi - o dz) / eta for node base + o."""
    gz = g.zgrid.size
    base = np.mod(np.rint(p / g.dz - 0.5).astype(int), gz)
    phase = _wrap(p - g.zgrid[base])
    o = np.mod(np.arange(gz)[None, :] - base[:, None] + gz // 2, gz) - gz // 2
    return g.chi.chi_sq((phase[:, None] - o * g.dz) / g.eta) / g.eta


def scattered(g, base, windows):
    """Window rows placed on the whole z-grid, zero elsewhere."""
    out = np.zeros((base.size, g.zgrid.size))
    out[np.arange(base.size)[:, None], g._window_nodes(base)] = windows
    return out


class TestBumpWindow:
    """PB evaluated on the bump's window equals the dense (points x z-grid) matrix."""

    @staticmethod
    def compare(g):
        z = g.zgrid
        nodes = z[[0, 1, 1000, 2047, z.size - 1]]
        half = np.concatenate([nodes + g.dz / 2, nodes - g.dz / 2])
        p = np.concatenate([[0.0, TWO_PI, -0.3, TWO_PI + 0.3], nodes, half])
        return np.array_equal(scattered(g, *g._windows(p)), dense_pb(g, p))

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

    def test_one_bump_row_per_phase(self, monkeypatch, cosine08, chi):
        # the pair grid's nodes all sit at one phase from the z-grid, so its
        # windows evaluate the bump once, at that one offset
        plan = seidl_plan(cosine08, 2, 64)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        sizes = []
        chi_sq = Mollifier.chi_sq

        def counting(self, x):
            sizes.append(np.size(x))
            return chi_sq(self, x)

        monkeypatch.setattr(Mollifier, "chi_sq", counting)
        g.pair_windows(1024)
        assert sizes == [2 * g.reach]


class TestTiledBMatrix:
    """b_matrix equals the dense PB matrix, evaluated at each node's offset, times the dense columns."""

    @staticmethod
    def dense_reference(g, xs):
        columns = scattered(g, g.coord_base, g.coord_windows)
        return (dense_pb(g, xs) * g.dz) @ columns.T

    @staticmethod
    def point_sets(g):
        rng = np.random.default_rng(5)
        # points at the phase extremes of nodes by the seam and inside
        edges = g.zgrid[[0, 1, 255, 256, 1791, g.zgrid.size - 1]]
        shifted = np.concatenate([edges + 0.49 * g.dz, edges - 0.49 * g.dz])
        return {
            "midpoints": semiclassical.midpoints(1024),
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

    def test_phase_argument_bound(self, cosine08, chi):
        # (phi - o dz) / eta against wrap(x - z_{b+o}) / eta: equal up to rounding,
        # with the same window zeros
        for n, m, share in [(2, 64, 1 / 8), (2, 64, 0.249), (3, 63, 1 / 8), (3, 63, 0.249)]:
            plan = seidl_plan(cosine08, n, m)
            g = GammaEta(plan, cosine08, chi, share * support_separation(plan))
            for name, xs in {**self.point_sets(g), "coords": g.coords}.items():
                base = np.mod(np.rint(xs / g.dz - 0.5).astype(int), g.zgrid.size)
                phase = _wrap(xs - g.zgrid[base])
                new = (phase[:, None] - g.offsets * g.dz) / g.eta
                old = _wrap(xs[:, None] - g.zgrid[g._window_nodes(base)]) / g.eta
                assert np.all(np.abs(new - old) <= 8 * np.spacing(np.pi) / g.eta), name
                assert np.array_equal(chi.chi_sq(new) == 0.0, chi.chi_sq(old) == 0.0), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_point_rejected(self, uniform, chi, bad):
        plan = seidl_plan(uniform, 2, 64)
        g = GammaEta(plan, uniform, chi, support_separation(plan) / 8)
        with pytest.raises(DomainError, match=f"points must be finite: index 0 holds {bad}"):
            g.b_matrix(np.array([bad, 1.0]))
        with pytest.raises(DomainError, match=rf"points must be finite: index \(1, 0\) holds {bad}"):
            g.density_at(np.array([[1.0, 4.0], [bad, 2.0]]))


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

    def test_peak_memory(self, cosine08, chi):
        # B is read on the coordinates' windows: the dense (256 x 4096) and
        # (4096 x coords) products of b_matrix peaked at 28 MB here
        plan = seidl_plan(cosine08, 2, 512)
        g = GammaEta(plan, cosine08, chi, support_separation(plan) / 8)
        tracemalloc.start()
        try:
            marginal_identity_check(g, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("check", [GammaEta.coordinate_masses, GammaEta.total_mass,
                                       marginal_identity_check],
                             ids=["coordinate_masses", "total_mass", "marginal_identity_check"])
    def test_grid_must_divide_quad_grid(self, uniform, chi, check):
        g = GammaEta(seidl_plan(uniform, 2, 16), uniform, chi, 0.1)
        with pytest.raises(DomainError, match="100-node pair grid .* 4096-node z-grid"):
            check(g, 100)

    @pytest.mark.xfail(
        strict=True,
        reason="at the bounds sizes (cosine 0.8, n = 2, m = 64) the atom spacing does not resolve "
        "eta, so the defect reads 3.9e-2 to 0.52; ROADMAP item 7 chooses m from eta",
    )
    def test_states_of_the_bounds_curve(self, monkeypatch, cosine08, ring_inverse):
        built = []

        class Recording(GammaEta):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(semiclassical, "GammaEta", Recording)
        upper_bound_curve(cosine08, ring_inverse, 2, [1e-1, 1e-2, 1e-3, 1e-4], m=64)
        assert len(built) == 4
        assert max(marginal_identity_check(g, 256) for g in built) <= 1e-4


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
    def test_seam_jump_rejected(self, chi):
        # rho jumps where 2*pi meets 0, so sqrt(rho) is not in H^1 of the ring
        rho = GridDensity.from_values([0.0, np.pi, TWO_PI], [0.5, 1.0, 1.5])
        with pytest.raises(DomainError, match="seam") as err:
            GammaEta(seidl_plan(rho, 2, 16), rho, chi, 0.05)
        message = str(err.value)
        assert f"rho(0) = {0.5 / TWO_PI!r}" in message
        assert f"rho(2*pi) = {1.5 / TWO_PI!r}" in message
        assert "np.float64" not in message


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

    def test_n3_plan_prices_the_m_atoms(self, cosine08, ring_inverse):
        # every coordinate of the n = 3 plan is one of the m quantized atoms
        curve = upper_bound_curve(cosine08, ring_inverse, 3, [1e-1, 1e-2], m=63)
        assert curve.coords == 63

    def test_cost_matrix_built_once_per_curve(self, uniform, truncated_ring):
        # the translation-invariant pair matrix is read off one 1024-point row
        shapes = []

        def profile(d):
            shapes.append(np.shape(d))
            return truncated_ring.profile(d)

        counting = truncated_ring._replace(profile=profile)
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

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["uniform", "cosine08"])
    def test_bare_cost_matches_truncated(self, name, n, request, ring_inverse):
        # the disjoint regime weights no pair near x = y, so the truncation changes no bit
        rho = request.getfixturevalue(name)
        w_h = truncate(ring_inverse, support_thresholds(rho, ring_inverse, np.pi / 8, n).h)
        eps = [1e-1, 1e-2, 1e-3, 1e-4]
        bare = upper_bound_curve(rho, ring_inverse, n, eps, m=24)
        assert bare == upper_bound_curve(rho, w_h, n, eps, m=24)

    def test_singular_diagonal_zeroed(self, ring_inverse):
        # a distance cost is kept as its one cost row, row[j] = w(x_0, x_j)
        row = midpoint_pair_matrix(ring_inverse)
        assert row.shape == (PAIR_GRID,) and row[0] == 0.0
        grid = ring_inverse.grid_matrix(semiclassical.midpoints(PAIR_GRID))
        assert np.array_equal(row[1:], grid[0, 1:])

    def test_off_diagonal_inf_rejected(self):
        sticky = CostModel("sticky", profile=lambda d: np.where(d < 0.1, np.inf, 1.0))
        with pytest.raises(DomainError, match=r"= inf at cell \(0, 1\)"):
            midpoint_pair_matrix(sticky)

    def test_graph_off_diagonal_inf_rejected(self):
        # a graph cost keeps its dense matrix, checked cell by cell
        sticky = make_graph_cost(np.zeros_like, lambda r: np.where(r < 0.1, np.inf, 1.0))
        pair = midpoint_pair_matrix(make_graph_cost(np.zeros_like, lambda r: 1.0 + 0.0 * r))
        assert pair.shape == (PAIR_GRID, PAIR_GRID)
        with pytest.raises(DomainError, match=r"= inf at cell \(0, 1\)"):
            midpoint_pair_matrix(sticky)


def seeded_graph_cost(seed):
    """Graph cost on [0, 2 pi] whose f is a seeded convex non-increasing hinge mixture."""
    rng = np.random.default_rng(seed)
    knots, amps = np.sort(rng.uniform(0.1, TWO_PI, 4)), rng.uniform(0.05, 1.0, 4)

    def f(t):
        return np.sum(amps * np.maximum(0.0, knots - np.asarray(t, dtype=float)[..., None]), axis=-1)

    return make_graph_cost(f, ExpProfile(rate=1.0))


def dense_interaction(g, w):
    """The interaction as the full product d.T @ M @ d on the pair grid, M from `grid_matrix`."""
    xs = semiclassical.midpoints(PAIR_GRID)
    m = w.grid_matrix(xs)
    m[np.eye(PAIR_GRID, dtype=bool) & np.isposinf(m)] = 0.0
    d = g.b_matrix(xs) * (g.rho.density(xs) * (TWO_PI / PAIR_GRID))[:, None]
    e = d.T @ m @ d
    i, j = np.triu_indices(g.n, k=1)
    per_atom = 2.0 * e[g.coord_index[:, i], g.coord_index[:, j]].sum(axis=1)
    return float(np.dot(g.plan.weights, per_atom))


class TestBandedInteraction:
    """interaction_energy prices each atom's coordinate pairs on their pair-grid windows."""

    RTOL = 1e-13   # relative bound against the dense product
    EPS = [1e-1, 1e-2, 1e-3, 1e-4]

    @pytest.fixture(scope="class")
    def costs(self, ring_inverse, ring_exp2, torus_linear):
        return {"ring-inverse": ring_inverse, "ring-exp": ring_exp2,
                "torus-linear": torus_linear, "graph": seeded_graph_cost(3)}

    @pytest.mark.parametrize("name", ["ring-inverse", "ring-exp", "torus-linear", "graph"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_product(self, costs, cosine08, chi, name, n):
        w = costs[name]
        plan = seidl_plan(cosine08, n, 24)
        curve = upper_bound_curve(cosine08, w, n, self.EPS, m=24)
        pair = midpoint_pair_matrix(w)
        for eta in (support_separation(plan) / 8, curve.points[-1].eta):
            g = GammaEta(plan, cosine08, chi, eta)
            dense = dense_interaction(g, w)
            assert interaction_energy(g, pair) == pytest.approx(dense, rel=self.RTOL, abs=0.0)
        assert curve.points[-1].eta < curve.cap

    @pytest.mark.parametrize("name", ["ring-inverse", "graph"])
    def test_seam_windows(self, costs, uniform, chi, name):
        # both atoms have a coordinate whose 2 eta window wraps around 0 = 2 pi
        plan = DiscretePlan(np.array([[TWO_PI - 0.05, np.pi - 0.05], [0.03, np.pi + 0.03]]),
                            np.array([0.5, 0.5]))
        w = costs[name]
        for eta in (0.05, 0.2):
            g = GammaEta(plan, uniform, chi, eta)
            dense = dense_interaction(g, w)
            assert interaction_energy(g, midpoint_pair_matrix(w)) == pytest.approx(
                dense, rel=self.RTOL, abs=0.0)

    @pytest.mark.parametrize("name", ["ring-inverse", "graph"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_near_regime_boundary(self, costs, cosine08, chi, name, n):
        # at eta near alpha / 4 the windows of a pair nearly touch, and some blocks
        # hold cells across the seam, which the disjoint supports weight by 0
        plan = seidl_plan(cosine08, n, 24)
        g = GammaEta(plan, cosine08, chi, 0.249 * support_separation(plan))
        dense = dense_interaction(g, costs[name])
        assert interaction_energy(g, midpoint_pair_matrix(costs[name])) == pytest.approx(
            dense, rel=self.RTOL, abs=0.0)

    def test_pair_cells(self, cosine08, chi, ring_inverse):
        # each distinct coordinate pair of an atom is priced once, on a W x W block
        plan = seidl_plan(cosine08, 3, 24)
        eta = support_separation(plan) / 8
        g = GammaEta(plan, cosine08, chi, eta)
        interaction_energy(g, midpoint_pair_matrix(ring_inverse))
        pairs = {tuple(sorted(row[[i, j]])) for row in g.coord_index for i, j in ((0, 1), (0, 2), (1, 2))}
        # the 4 reach z-steps of a correlation's support span reach pair-grid steps,
        # no more than the floor(4 eta / dx) + 1 nodes within 2 eta of a coordinate
        assert g.pair_windows(PAIR_GRID)[0].shape[1] == g.reach <= int(4 * eta / (TWO_PI / PAIR_GRID)) + 1
        assert g.pair_cells == len(pairs) * g.reach**2
        curve = upper_bound_curve(cosine08, ring_inverse, 3, self.EPS, m=24)
        assert curve.points[0].eta == eta and curve.points[0].pair_cells == g.pair_cells
        assert all(p.pair_cells < PAIR_GRID**2 for p in curve.points)

    def test_peak_memory(self, uniform, ring_inverse):
        # no array of PAIR_GRID^2 entries (8.4 MB) is built for a distance cost
        upper_bound_curve(uniform, ring_inverse, 2, self.EPS, m=16)
        tracemalloc.start()
        try:
            upper_bound_curve(uniform, ring_inverse, 2, self.EPS, m=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def window_misses(g, nodes, windows, k=PAIR_GRID):
    """Largest gap between the windows and b_matrix's columns on the k-node grid, relative
    to each column's peak; inf where the zeros differ or b_matrix is nonzero off a window."""
    b = g.b_matrix(semiclassical.midpoints(k))
    cols = np.arange(g.coords.size)[:, None]
    inside = b[nodes, cols]
    b[nodes, cols] = 0.0
    if np.any(b != 0.0) or not np.array_equal(windows == 0.0, inside == 0.0):
        return np.inf
    return float(np.max(np.abs(windows - inside) / np.max(np.abs(inside), axis=1, keepdims=True)))


class TestPairWindows:
    """pair_windows, the correlation of one bump row with each coordinate's z-window,
    holds every nonzero of the dense b_matrix on the pair grid."""

    SEAM = DiscretePlan(np.array([[TWO_PI - 0.05, np.pi - 0.05], [0.03, np.pi + 0.03]]), np.array([0.5, 0.5]))

    @staticmethod
    def states(rho, chi, seam=True):
        for n, m in ((2, 64), (3, 63)):
            plan = seidl_plan(rho, n, m)
            for share in (1 / 8, 0.249):
                yield f"n={n} eta={share}", GammaEta(plan, rho, chi, share * support_separation(plan))
        for eta in (0.05, 0.2) if seam else ():   # a coordinate of each atom wraps around the seam
            yield f"seam eta={eta}", GammaEta(TestPairWindows.SEAM, rho, chi, eta)

    def test_matches_b_matrix(self, cosine08, chi):
        for name, g in self.states(cosine08, chi):
            nodes, windows = g.pair_windows(PAIR_GRID)
            assert nodes.shape == windows.shape == (g.coords.size, g.reach), name
            assert window_misses(g, nodes, windows) <= 1e-13, name

    @pytest.mark.parametrize("side", [0, -1], ids=["first", "last"])
    def test_window_one_node_short_fails(self, cosine08, chi, side):
        # the seam plan's four coordinates all leave their windows' first node 0
        for name, g in self.states(cosine08, chi, seam=False):
            nodes, windows = g.pair_windows(PAIR_GRID)
            keep = np.delete(np.arange(nodes.shape[1]), side)
            assert window_misses(g, nodes[:, keep], windows[:, keep]) == np.inf, name

    @pytest.mark.parametrize("quad_grid, k", [(4096, 128), (4096, 256), (3072, 1024), (1024, 1024)],
                             ids=["r=32", "r=16", "r=3", "r=1"])
    def test_other_sub_lattices(self, monkeypatch, uniform, chi, quad_grid, k):
        # the pair-grid nodes sit (r - 1) / 2 z-steps past the z-grid: between two
        # z-nodes for even r, on one for odd r
        monkeypatch.setattr(semiclassical, "TOL", TOL._replace(quad_grid=quad_grid))
        plan = seidl_plan(uniform, 3, 24)
        for share in (1 / 8, 0.249):
            g = GammaEta(plan, uniform, chi, share * support_separation(plan))
            assert window_misses(g, *g.pair_windows(k), k) <= 1e-13

    def test_pair_grid_must_divide_quad_grid(self, uniform, chi):
        g = GammaEta(seidl_plan(uniform, 2, 16), uniform, chi, 0.1)
        with pytest.raises(DomainError, match="1000-node pair grid .* 4096-node z-grid"):
            interaction_energy(g, np.zeros(1000))
