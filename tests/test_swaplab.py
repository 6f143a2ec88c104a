import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringmot.costs import PowerProfile, make_graph_cost, make_torus_cost, LinearProfile
from ringmot.errors import ConstructionError, DomainError
from ringmot.swaplab import (
    Bipartition,
    StepFunction,
    bipartition_min_check,
    cumulative_f,
    even_bipartition,
    maximum_points,
    odd_bipartition,
    oscillation,
    paired_cost,
    reduce_to_wellordered,
    swap_step,
)

from conftest import TWO_PI

FIG_A = Bipartition(7, (1, 3, 4, 8, 9, 11, 12))


@st.composite
def bipartitions(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    members = draw(
        st.lists(st.integers(1, 2 * n), min_size=n, max_size=n, unique=True)
    )
    return Bipartition(n, tuple(members))


class TestCumulative:
    def test_worked_example(self):
        f = cumulative_f(FIG_A)
        assert f.values == (0, 1, 0, 1, 2, 1, 0, -1, 0, 1, 0, 1, 2, 1, 0)
        assert f.maximum == 2 and f.minimum == -1
        assert oscillation(f) == 3

    def test_alternating(self):
        f = cumulative_f(even_bipartition(5))
        assert all(v in (-1, 0) for v in f.values)
        assert oscillation(f) == 1

    def test_ramp(self):
        n = 6
        f = cumulative_f(Bipartition(n, tuple(range(1, n + 1))))
        assert f.maximum == n
        assert oscillation(f) == n

    def test_jump_validation(self):
        with pytest.raises(ConstructionError):
            StepFunction((0, 2, 0))

    @settings(max_examples=200, deadline=None)
    @given(a=bipartitions())
    def test_elementary_properties(self, a):
        f = cumulative_f(a)
        assert f.values[0] == 0 and f.values[-1] == 0
        assert set(np.abs(np.diff(f.values))) == {1}
        fc = cumulative_f(a.complement())
        assert fc.values == tuple(-v for v in f.values)


class TestMaximumPoints:
    def test_worked_example(self):
        mp = maximum_points(FIG_A)
        assert mp.side == "A" and mp.points == (4, 12)

    def test_alternating_all_odd(self):
        mp = maximum_points(odd_bipartition(4))
        assert mp.points == (1, 3, 5, 7)

    def test_single_peak(self):
        n = 5
        mp = maximum_points(Bipartition(n, tuple(range(1, n + 1))))
        assert mp.points == (n,)

    @settings(max_examples=200, deadline=None)
    @given(a=bipartitions())
    def test_successor_in_complement(self, a):
        mp = maximum_points(a)
        team = a if mp.side == "A" else a.complement()
        outside = set(range(1, 2 * a.n + 1)) - set(team.members)
        assert all(p + 1 in outside for p in mp.points)


class TestSwapStep:
    def test_worked_sequence(self):
        r1 = swap_step(FIG_A)
        assert r1.partition.members == (1, 3, 5, 8, 9, 11, 13)
        r2 = swap_step(r1.partition)
        assert r2.partition.members == tuple(range(2, 15, 2))
        assert r2.partition.is_even()

    def test_two_element_case(self):
        res = swap_step(Bipartition(2, (1, 2)))
        assert res.partition.members == (1, 3)
        assert res.partition.is_odd()

    def test_terminal_identity(self):
        res = swap_step(odd_bipartition(6))
        assert res.terminal and res.partition == odd_bipartition(6)

    @settings(max_examples=300, deadline=None)
    @given(a=bipartitions())
    def test_oscillation_strictly_decreases(self, a):
        f = cumulative_f(a)
        res = swap_step(a)
        if oscillation(f) <= 1:
            assert res.terminal
        else:
            assert oscillation(cumulative_f(res.partition)) < oscillation(f)
            assert len(res.partition.members) == a.n

    @settings(max_examples=200, deadline=None)
    @given(a=bipartitions())
    def test_termination_within_n_minus_one(self, a):
        trace = reduce_to_wellordered(a)
        assert trace.num_steps <= a.n - 1
        assert trace.terminal in ("odd", "even")


class TestReduction:
    def test_figure_sequence_with_costs(self, ring_inverse):
        x = np.arange(1, 15) * (TWO_PI / 15)
        trace = reduce_to_wellordered(FIG_A, x, ring_inverse)
        assert trace.num_steps == 2
        assert trace.steps[0].members == (1, 3, 5, 8, 9, 11, 13)
        assert trace.terminal == "even"
        costs = [trace.initial.paired_cost] + [s.paired_cost for s in trace.steps]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_terminal_input_empty_trace(self):
        trace = reduce_to_wellordered(odd_bipartition(4))
        assert trace.num_steps == 0 and trace.terminal == "odd"

    def test_two_pair_exchange_arithmetic(self):
        # one swap to the odd team; the cost drop is the pairing exchange
        w = make_torus_cost(LinearProfile(np.pi, 1.0))
        x = np.array([0.0, 0.1, 3.0, 3.1])
        a = Bipartition(2, (1, 2))
        trace = reduce_to_wellordered(a, x, w)
        assert trace.num_steps == 1 and trace.terminal == "odd"
        drop = trace.initial.paired_cost - trace.steps[0].paired_cost
        # pairs (1,2),(3,4) -> (1,3),(2,4): exchange difference of pair sums
        before = 2 * (w(x[0], x[1]) + w(x[2], x[3]))
        after = 2 * (w(x[0], x[2]) + w(x[1], x[3]))
        assert drop == pytest.approx(before - after, abs=1e-12)
        assert drop > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_positions_rejected(self, ring_inverse, bad):
        # NaN compares False against its neighbours, so sortedness alone lets it through
        x = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(DomainError, match=f"index 2 holds {bad}"):
            reduce_to_wellordered(Bipartition(2, (1, 2)), x, ring_inverse)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 5),
    )
    def test_cost_monotone_along_trace(self, ring_inverse, seed, n):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0, TWO_PI, 2 * n))
        members = tuple(rng.choice(np.arange(1, 2 * n + 1), n, replace=False))
        trace = reduce_to_wellordered(Bipartition(n, members), x, ring_inverse)
        costs = [trace.initial.paired_cost] + [s.paired_cost for s in trace.steps]
        for a, b in zip(costs, costs[1:]):
            assert b <= a + 1e-9 or np.isinf(a)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
    def test_strict_decrease_when_points_move(self, ring_inverse, seed, n):
        # interior distinct points, strictly exchange-decreasing cost: every
        # swap that changes the point multiset must strictly lower the cost
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(0.1, TWO_PI - 0.1, 2 * n))
        members = tuple(rng.choice(np.arange(1, 2 * n + 1), n, replace=False))
        a = Bipartition(n, members)
        trace = reduce_to_wellordered(a, x, ring_inverse)
        prev_members, prev_cost = trace.initial.members, trace.initial.paired_cost
        for step in trace.steps:
            moved = set(step.members) != set(prev_members)
            if moved and np.isfinite(prev_cost):
                scale = max(abs(prev_cost), 1.0)
                assert step.paired_cost < prev_cost + 1e-12 * scale
            prev_members, prev_cost = step.members, step.paired_cost


class TestBipartitionMinCheck:
    def test_n2_ring(self, ring_inverse):
        res = bipartition_min_check(np.array([0.0, 1.0, 2.0, 3.0]), ring_inverse)
        assert res.odd_even_minimal
        assert len(res.ranking) == 3

    def test_n3_random_ring(self, ring_inverse):
        rng = np.random.default_rng(12)
        x = np.sort(rng.uniform(0, TWO_PI, 6))
        res = bipartition_min_check(x, ring_inverse)
        assert res.odd_even_minimal
        assert len(res.ranking) == 10

    def test_square_diff_violates(self):
        w = make_graph_cost(
            lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            PowerProfile(2.0),
            (0.0, TWO_PI),
        )
        x = np.array([0.0, 0.1, 3.0, 3.1])
        res = bipartition_min_check(x, w)
        assert not res.odd_even_minimal
        assert res.violator is not None

    def test_guard(self, ring_inverse):
        with pytest.raises(DomainError):
            bipartition_min_check(np.sort(np.random.default_rng(0).uniform(0, 6, 14)), ring_inverse)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_positions_rejected(self, ring_inverse, bad):
        # a NaN used to pass the sortedness check and rank every split at +inf
        x = np.array([0.5, 1.0, bad, 3.0])
        with pytest.raises(DomainError, match=f"index 2 holds {bad}"):
            bipartition_min_check(x, ring_inverse)
