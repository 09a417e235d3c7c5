"""The worst case of a plan from the vertex table, against the lifted LP.

Off the greatest element, robust.worst_case_scenario reads the worst case of
a plan x off the |V| x T table V (a * x) of the per-period vertices, and
takes in each period the first vertex, in enumerate_vertices order, within
a relative tie tolerance of the period's maximum.  tests/oracles.py's
worst_case_lp solves the same maximum as one LP over the lifted set.  Sets
are simplices, budget sets and vertex hulls; plans and scalings come from
coarse grids, so tied vertices and zero gains are common.  Above the
enumeration guard the lifted LP itself answers.  Relabeling the producers
of a market on untied data permutes its plan and its worst case.
Hypothesis runs derandomized, so every run sees the same examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import worst_case_lp
from robust_peakload.geometry import (DimensionTooLarge, Polytope, enumerate_vertices,
                                      hull_to_inequalities, simplex)
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer, scaling_matrix
from robust_peakload.robust import (WORST_CASE_TIE_TOL, _corner, lifted_set,
                                    solve_robust_market_elastic, solve_robust_market_fixed,
                                    worst_case_scenario)

REL_TOL = 1e-12

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])


def budget(N, b):
    return Polytope(N, np.vstack([np.eye(N), np.ones((1, N))]),
                    np.concatenate([np.ones(N), [b]]))


@st.composite
def plans_off_the_corner(draw):
    """(market, plan x): N 2-5, T 1-6, a simplex, budget or hull set, and a
    plan and scalings from coarse grids."""
    N = draw(st.integers(2, 5))
    T = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["simplex", "budget", "hull"]))
    if kind == "simplex":
        uncertainty = simplex(N)
    elif kind == "budget":
        uncertainty = budget(N, draw(st.sampled_from([1.5, N - 0.5])))
    else:
        corner = draw(st.sampled_from([0.5, 0.75]))
        uncertainty = hull_to_inequalities(np.vstack([np.zeros(N), np.eye(N),
                                                      np.full(N, corner)]))
    producers = [Producer(1.0, 1.0, draw(st.sampled_from([0.0, 0.5, 1.0])))
                 for _ in range(N)]
    inst = MarketInstance(producers, Fixed(np.ones(T)), T, uncertainty)
    assert _corner(inst) is None
    x = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                               min_size=N * T, max_size=N * T))).reshape(N, T)
    return inst, x


class TestVertexTable:
    @PROPERTY
    @given(plans_off_the_corner())
    def test_matches_the_lifted_lp(self, case):
        inst, x = case
        value, worst = worst_case_scenario(inst, x)
        lp_value, _ = worst_case_lp(inst, x)
        assert abs(value - lp_value) <= REL_TOL * max(1.0, abs(lp_value))
        gains = scaling_matrix(inst) * x
        assert abs(value - float(np.sum(gains * worst))) <= REL_TOL * max(1.0, abs(value))
        assert lifted_set(inst).contains(worst.reshape(-1))
        # Each column is the first vertex, in enumerate_vertices order,
        # within the tie tolerance of its period's maximum.
        vertices = np.stack(enumerate_vertices(inst.uncertainty))
        for t in range(inst.T):
            values = vertices @ gains[:, t]
            near = values >= values.max() - WORST_CASE_TIE_TOL * np.abs(values).max()
            assert_array_equal(worst[:, t], vertices[np.flatnonzero(near)[0]])

    def test_zero_plan_takes_the_first_vertex(self):
        # Every vertex ties at zero gain: the origin, first in
        # lexicographic order, in every period.
        inst = MarketInstance([Producer(1.0, 1.0, 1.0) for _ in range(3)], Fixed([1.0, 2.0]),
                              2, budget(3, 2.0))
        value, worst = worst_case_scenario(inst, np.zeros((3, 2)))
        assert value == 0.0
        assert_array_equal(worst, np.zeros((3, 2)))

    def test_above_the_guard_solves_the_lifted_lp(self):
        # Thirteen producers: enumerate_vertices refuses the set, so the
        # lifted LP answers, the oracle's LP bit for bit.
        N, T = 13, 2
        rng = np.random.default_rng(5)
        inst = MarketInstance([Producer(1.0, 1.0, a) for a in rng.uniform(0.5, 1.5, N)],
                              Fixed(np.ones(T)), T, simplex(N))
        with pytest.raises(DimensionTooLarge):
            enumerate_vertices(inst.uncertainty)
        x = rng.uniform(0.0, 2.0, (N, T))
        value, worst = worst_case_scenario(inst, x)
        lp_value, lp_worst = worst_case_lp(inst, x)
        assert value == lp_value
        assert_array_equal(worst, lp_worst)


def _random_market(rng, N, T, elastic):
    producers = [Producer(*rng.uniform([0.1, 0.0, 0.2], [1.0, 1.0, 1.5])) for _ in range(N)]
    demand = (AffineElastic(rng.uniform(2.0, 6.0, T), rng.uniform(0.5, 2.0, T)) if elastic
              else Fixed(rng.uniform(0.5, 3.0, T)))
    return producers, demand


class TestRelabeling:
    @pytest.mark.parametrize("elastic", [False, True], ids=["fixed", "elastic"])
    @pytest.mark.parametrize("seed", range(12))
    def test_permutes_the_market_plan_and_worst_case(self, seed, elastic):
        # Producer i of the relabeled market is producer p[i] of the first,
        # and the set's coordinates follow: untied data give the same
        # plan and worst case, permuted.
        rng = np.random.default_rng([41, seed])
        N, T = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        points = np.vstack([np.zeros(N), np.eye(N), rng.uniform(0.2, 0.9, (2, N))])
        producers, demand = _random_market(rng, N, T, elastic)
        p = rng.permutation(N)
        solve = solve_robust_market_elastic if elastic else solve_robust_market_fixed
        first = MarketInstance(producers, demand, T, hull_to_inequalities(points))
        relabeled = MarketInstance([producers[i] for i in p], demand, T,
                                   hull_to_inequalities(points[:, p]))
        solution, E, worst = solve(first)
        solution_p, E_p, worst_p = solve(relabeled)
        assert abs(E - E_p) <= REL_TOL * max(1.0, abs(E))
        assert_allclose(solution_p.capacities, solution.capacities[p], rtol=0, atol=1e-9)
        assert_allclose(solution_p.production, solution.production[p], rtol=0, atol=1e-9)
        assert_allclose(solution_p.prices, solution.prices, rtol=0, atol=1e-9)
        assert_allclose(worst_p, worst[p], rtol=0, atol=REL_TOL)
