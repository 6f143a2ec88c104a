import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmot.errors import ConstructionError, DegenerateQuantileError, DomainError
from ringmot.measure1d import GridDensity, density_from_spec

from conftest import TWO_PI, bisect_quantile, riemann_cdf, window_mass


class TestCdf:
    def test_uniform_midpoint(self, uniform):
        assert uniform.cdf(np.pi) == pytest.approx(0.5, abs=1e-14)

    def test_zero_at_origin(self, uniform, cosine):
        assert uniform.cdf(0.0) == 0.0
        assert cosine.cdf(0.0) == 0.0

    def test_full_mass(self, cosine):
        assert cosine.cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_against_riemann_oracle(self, cosine):
        # oracle frozen from the midpoint Riemann sum of the same interpolant
        for x in (1.0, np.pi, 4.5):
            assert cosine.cdf(x) == pytest.approx(riemann_cdf(cosine, x), abs=1e-8)

    def test_cosine_against_closed_form(self, cosine):
        # (x + sin x) / (2 pi) for the smooth density; tabulation error O(h^2)
        for x in (1.0, np.pi, 4.5):
            assert cosine.cdf(x) == pytest.approx((x + np.sin(x)) / TWO_PI, abs=1e-4)
        assert cosine.cdf(np.pi) == pytest.approx(0.5, abs=1e-12)  # exact by symmetry

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform.cdf(-0.5)
        with pytest.raises(DomainError):
            uniform.cdf(7.0)


class TestSlope:
    def test_slope_of_the_piece_the_cdf_uses(self, cosine):
        x = np.concatenate((cosine.nodes, np.linspace(0.0, TWO_PI, 97)))
        k = np.clip(np.searchsorted(cosine.nodes, x, side="right") - 1, 0, cosine.nodes.size - 2)
        assert np.array_equal(cosine.slope(x), np.diff(cosine.values)[k] / np.diff(cosine.nodes)[k])
        assert isinstance(cosine.slope(1.0), float)

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError, match="slope argument outside"):
            uniform.slope(7.0)


class TestQuantile:
    def test_uniform_quarter(self, uniform):
        assert uniform.quantile(0.25) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_endpoints(self, uniform, cosine):
        assert uniform.quantile(1.0) == TWO_PI
        assert cosine.quantile(1.0) == TWO_PI
        assert cosine.quantile(0.0) == 0.0

    def test_cosine_median_matches_bisection_oracle(self, cosine):
        x = cosine.quantile(0.5)
        assert abs(cosine.cdf(x) - 0.5) <= 1e-12
        # the density nearly vanishes at pi, so compare in cdf units via the oracle
        oracle = bisect_quantile(cosine, 0.5)
        assert abs(riemann_cdf(cosine, x, panels=200_000) - riemann_cdf(cosine, oracle, panels=200_000)) <= 1e-8

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform.quantile(1.5)

    def test_plateau_reported(self):
        nodes = np.array([0.0, 1.0, 2.0, TWO_PI])
        values = np.array([1.0, 0.0, 0.0, 1.0])
        rho = GridDensity.from_values(nodes, values, normalize=True)
        level = rho.cdf(1.0)
        with pytest.raises(DegenerateQuantileError):
            rho.quantile(level)
        # away from the plateau level the inverse is fine
        assert rho.cdf(rho.quantile(0.25)) == pytest.approx(0.25, abs=1e-12)


class TestSegments:
    def test_uniform_halves(self, uniform):
        assert uniform.segments(2) == pytest.approx((0, np.pi, TWO_PI))

    def test_uniform_quarters(self, uniform):
        expect = (0, np.pi / 2, np.pi, 3 * np.pi / 2, TWO_PI)
        assert uniform.segments(4) == pytest.approx(expect)

    def test_cosine_median_boundary(self, cosine):
        d = cosine.segments(2)
        assert abs(cosine.cdf(d[1]) - 0.5) <= 1e-12

    def test_needs_two(self, uniform):
        with pytest.raises(DomainError):
            uniform.segments(1)


class TestConcentration:
    def test_uniform_quarter(self, uniform):
        assert uniform.concentration(np.pi / 4) == pytest.approx(0.25, abs=1e-12)

    def test_uniform_full(self, uniform):
        assert uniform.concentration(np.pi) == pytest.approx(1.0, abs=1e-12)

    def test_cosine_peak_window(self, cosine):
        # the maximizing window sits at the density peak x = 0
        r = np.pi / 4
        got = cosine.concentration(r)
        oracle = window_mass(cosine, 0.0, r)
        assert got == pytest.approx(oracle, abs=1e-6)
        closed_form = (np.pi / 2 + 2 * np.sin(np.pi / 4)) / TWO_PI
        assert got == pytest.approx(closed_form, abs=1e-4)

    def test_narrow_tent_peak(self):
        # a tent of half-width 2 r centred between two of 4096 evenly spaced
        # centres, which a scan over those centres misses by about a fifth
        x0, w, r = 1000.5 * TWO_PI / 4096, 0.002, 0.001
        rho = GridDensity.from_values([0.0, x0 - w, x0, x0 + w, TWO_PI], [1.0, 1.0, 1e3, 1.0, 1.0],
                                      normalize=True)
        peak = (2 * r + (1e3 - 1.0) * (2 * r - r * r / w)) / (TWO_PI + (1e3 - 1.0) * w)
        assert rho.concentration(r) == pytest.approx(peak, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.001, 0.3, 3.0])
    def test_bounds_a_fine_scan(self, seed, r):
        rho = GridDensity.random_positive(seed)
        centers = np.arange(100_000) * (TWO_PI / 100_000)
        scan = np.max(rho.mass_between(np.mod(centers - r, TWO_PI), np.mod(centers + r, TWO_PI)))
        assert 0.0 <= rho.concentration(r) - scan <= 1e-9

    def test_domain_error(self, uniform):
        with pytest.raises(DomainError):
            uniform.concentration(0.0)
        with pytest.raises(DomainError):
            uniform.concentration(4.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.floats(0.001, 0.999))
def test_quantile_is_right_inverse(seed, q):
    rho = GridDensity.random_positive(seed)
    assert abs(rho.cdf(rho.quantile(q)) - q) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_roundtrip_and_monotone(seed):
    rho = GridDensity.random_positive(seed)
    xs = np.linspace(0.0, TWO_PI, 257)
    cdf = rho.cdf(xs)
    assert np.all(np.diff(cdf) >= 0)
    back = rho.quantile(cdf)
    assert np.max(np.abs(back - xs)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_segment_masses(seed, n):
    rho = GridDensity.random_positive(seed)
    b = np.asarray(rho.segments(n))
    assert b[0] == 0.0 and b[-1] == TWO_PI
    assert np.all(np.diff(b) > 0)
    masses = rho.cdf(b[1:]) - rho.cdf(b[:-1])
    assert np.max(np.abs(masses - 1.0 / n)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), r=st.floats(0.05, np.pi))
def test_concentration_monotone_subadditive(seed, r):
    rho = GridDensity.random_positive(seed)
    k_r = rho.concentration(r)
    k_half = rho.concentration(r / 2)
    assert 0.0 <= k_r <= 1.0
    assert k_half <= k_r + 1e-12
    assert k_r <= 2 * k_half + 1e-9


class TestConstruction:
    def test_mass_must_be_one(self):
        nodes = np.array([0.0, TWO_PI])
        with pytest.raises(ConstructionError):
            GridDensity(nodes, np.array([1.0, 1.0]))

    def test_negative_rejected(self):
        nodes = np.array([0.0, np.pi, TWO_PI])
        with pytest.raises(ConstructionError):
            GridDensity.from_values(nodes, np.array([1.0, -0.1, 1.0]), normalize=True)

    @pytest.mark.parametrize("field", ["nodes", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, field, bad):
        arrays = {"nodes": np.array([0.0, np.pi, TWO_PI]), "values": np.full(3, 1.0 / TWO_PI)}
        arrays[field][1] = bad
        match = f"density {field} must be finite: index 1 holds {bad}"
        with pytest.raises(ConstructionError, match=match):
            GridDensity(arrays["nodes"], arrays["values"])
        with pytest.raises(ConstructionError, match=match):
            density_from_spec({k: v.tolist() for k, v in arrays.items()})

    def test_immutable_and_picklable(self, cosine):
        with pytest.raises(AttributeError):
            cosine.values = cosine.values[::-1]
        again = pickle.loads(pickle.dumps(cosine))
        assert np.array_equal(again.cum, cosine.cum) and np.array_equal(again.slopes, cosine.slopes)

    def test_periodic_flag(self):
        spec = {"nodes": [0.0, np.pi, TWO_PI], "values": [2.0, 1.0, 1.0]}
        with pytest.raises(ConstructionError, match="equal endpoint values"):
            density_from_spec({**spec, "periodic": True})
        assert density_from_spec(spec).density(0.0) == pytest.approx(2.0 / (2.5 * np.pi))

    def test_loader_normalizes_to_unit_mass(self, tmp_path):
        spec = {"nodes": [0.0, np.pi, TWO_PI], "values": [3.0, 3.0, 3.0], "periodic": True}
        rho = density_from_spec(spec)
        assert rho.cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(rho.values, 1.0 / TWO_PI)
        path = tmp_path / "d.json"
        path.write_text(json.dumps(rho.to_spec()))
        from ringmot.measure1d import load_density

        again = load_density(path)
        assert np.allclose(again.values, rho.values)

    def test_replace_checks_and_rederives(self):
        with pytest.raises(ConstructionError, match="total mass"):
            GridDensity.uniform()._replace(values=np.array([1.0, 1.0]))
        assert np.array_equal(GridDensity.uniform()._replace(cum=np.array([0.0, 0.5])).cum, [0.0, 1.0])
        rho = GridDensity.uniform()._replace(nodes=np.array([0.0, np.pi, TWO_PI]),
                                             values=np.array([0.5, 1.5, 0.5]) / TWO_PI)
        assert rho.cdf(np.pi) == pytest.approx(0.5, abs=1e-15)
        assert np.array_equal(rho.cum, GridDensity(rho.nodes, rho.values).cum)
