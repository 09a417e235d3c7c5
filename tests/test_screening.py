"""Property tests: the fixed-demand planners without a solver against their
LPs.

At production costs constant over the periods, market.solve_fixed_dispatch
takes screening curves over the sorted demands; on a per-period set that
contains its greatest element (a box), robust.solve_robust_cp_fixed is that
planner at the greatest element.  tests/oracles.py's fixed_planner_lp and
robust_planner_lp solve the same programs with the package's simplex.
Costs come from coarse grids, so tied screening curves and twin producers are
common; demands are either distinct or drawn from a small grid, so that tied
and zero-demand periods are common.  Hypothesis runs derandomized, so every
run sees the same examples.

Where the optimum is unique the outputs must match the LP: the value always,
the clearing prices when the demands are distinct and positive, and the
capacities when one producer's screening curve is least at the duration of
every layer of positive height.  Elsewhere the prices must be an optimal
dual by themselves (feasible, and pricing demand at the value), with one
price for each group of periods of equal demand: the documented tie rule.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import fixed_planner_lp, robust_planner_lp
from robust_peakload.geometry import box
from robust_peakload.market import (Fixed, MarketInstance, Producer, cost_matrix,
                                    solve_fixed_dispatch, total_cost)
from robust_peakload.robust import solve_robust_cp_fixed, solve_robust_market_fixed

REL_TOL = 1e-12

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def box_markets(draw):
    """A fixed-demand market over the unit box with constant scalings."""
    N = draw(st.integers(1, 5))
    T = draw(st.integers(1, 8))
    twins = N >= 2 and draw(st.booleans())
    producers = []
    for i in range(N):
        if twins and i == 1:
            producers.append(producers[0])
            continue
        producers.append(Producer(c_inv=draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])),
                                  c_var=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                                  a=draw(st.sampled_from([0.0, 0.5, 1.0]))))
    if draw(st.booleans()):
        d = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=T, max_size=T))
    else:
        d = draw(st.lists(st.floats(0.01, 5.0), min_size=T, max_size=T, unique=True))
    return MarketInstance(producers, Fixed(d), T, box(N))


def _scale(values):
    return max(1.0, float(np.max(np.abs(values), initial=0.0)))


def assert_matches_planner_lp(inst, costs, solution, oracle):
    """solution, the planner at constant costs (an N x T matrix of equal
    columns), against the LP's oracle solution; see the module docstring."""
    d = inst.demand.d
    c_inv = np.array([p.c_inv for p in inst.producers])
    c = costs[:, 0]
    value_tol = REL_TOL * _scale(oracle.objective)
    assert abs(solution.objective - oracle.objective) <= value_tol

    ranked = np.sort(d)[::-1]
    heights = ranked - np.append(ranked[1:], 0.0)
    curves = c_inv[:, None] + np.outer(c, np.arange(1, inst.T + 1))
    least = np.sum(curves <= curves.min(axis=0) + REL_TOL * _scale(curves), axis=0)
    if np.all(least[heights > 0.0] == 1):
        assert_allclose(solution.capacities, oracle.capacities, rtol=0,
                        atol=REL_TOL * _scale(d))

    pi = solution.prices
    price_tol = REL_TOL * _scale(oracle.prices)
    if np.unique(d).size == inst.T and np.all(d > 0.0):
        assert_allclose(pi, oracle.prices, rtol=0, atol=price_tol)
    # Dual feasibility: the margins over each producer's cost pay at most
    # its capacity cost.  Strong duality: demand priced at pi is the value.
    margins = np.maximum(pi[None, :] - c[:, None], 0.0).sum(axis=1)
    assert np.all(margins <= c_inv + price_tol)
    assert abs(float(d @ pi) - oracle.objective) <= value_tol
    for level in np.unique(d):
        group = pi[d == level]
        assert_array_equal(group, np.full(group.size, group[0]))


class TestScreeningCurves:
    @PROPERTY
    @given(box_markets())
    def test_matches_the_planner_lp(self, inst):
        for u in (None, np.ones((inst.N, inst.T))):
            costs = cost_matrix(inst, u)
            solution = solve_fixed_dispatch(inst, costs)
            assert_matches_planner_lp(inst, costs, solution, fixed_planner_lp(inst, costs))
            assert_allclose(solution.production.sum(axis=0), inst.demand.d, rtol=0,
                            atol=REL_TOL * _scale(inst.demand.d))
            assert np.all(solution.production <= solution.capacities[:, None])

    def test_tied_demands_share_the_mean_increment(self):
        # c_inv + k c_var: producer 0 (2 + k) is least for k <= 2, producer
        # 1 (3 + k/2) from k = 2 on (the lowest index takes the tie at 2),
        # so g = (3, 4, 4.5, 5) with increments (3, 1, 0.5, 0.5).  Demands
        # (3, 1, 3, 1): the layer of height 2 lasting 2 periods goes to
        # producer 0 and the base layer of height 1 to producer 1.  The
        # periods of demand 3 share (3 + 1) / 2 = 2, those of demand 1
        # share 0.5, and 2 * 3 * 2 + 2 * 1 * 0.5 = 13 is the plan's cost.
        inst = MarketInstance([Producer(2.0, 1.0), Producer(3.0, 0.5)],
                              Fixed([3.0, 1.0, 3.0, 1.0]), 4, box(2))
        solution = solve_fixed_dispatch(inst, cost_matrix(inst))
        assert_array_equal(solution.prices, [2.0, 0.5, 2.0, 0.5])
        assert_array_equal(solution.capacities, [2.0, 1.0])
        assert_array_equal(solution.production, [[2.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        assert solution.objective == 13.0


class TestBoxPlanner:
    @PROPERTY
    @given(box_markets())
    def test_matches_the_dualized_lp(self, inst):
        solution, C, worst_u = solve_robust_cp_fixed(inst)
        oracle, C_lp, _ = robust_planner_lp(inst)
        assert_matches_planner_lp(inst, cost_matrix(inst, np.ones((inst.N, inst.T))),
                                  solution, oracle)
        assert_array_equal(worst_u, np.ones((inst.N, inst.T)))
        assert abs(total_cost(inst, solution.production, solution.capacities, worst_u)
                   - C) <= REL_TOL * _scale(C)
        # The strict robust market is the same program: E = C, ratio 1.
        market, E, worst = solve_robust_market_fixed(inst)
        assert_array_equal(worst, worst_u)
        assert abs(E - C) <= REL_TOL * _scale(C)
        assert_array_equal(market.capacities, solution.capacities)
