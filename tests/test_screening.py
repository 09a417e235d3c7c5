"""Property tests: the planners without a solver against their programs.

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

At production costs constant over the periods market.solve_elastic_welfare
takes the elastic screening curves, a merit-order stack of capacity slices,
and the elastic planner on a box is that program at the greatest element;
tests/oracles.py's elastic_welfare_qp and robust_welfare_qp pose the welfare
QP and the dualized planner QP.  Markets hold up to 8 producers and 24
periods, from coarse grids (twin producers, zero capacity costs, slices tied
along whole intervals) or from continuous draws, with some periods whose
demand intercept lies below every cost.  Value and prices must match the
QP; capacities must match wherever either side proves its optimum unique;
and twins put all their capacity on the lower index, the documented tie
rule.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import elastic_welfare_qp, fixed_planner_lp, robust_planner_lp, robust_welfare_qp
from robust_peakload.geometry import box
from robust_peakload.market import (AffineElastic, Fixed, MarketInstance, Producer,
                                    _elastic_screening, cost_matrix, solve_elastic_welfare,
                                    solve_fixed_dispatch, total_cost, welfare)
from robust_peakload.poa import poa_elastic
from robust_peakload.robust import (solve_robust_cp_elastic, solve_robust_cp_fixed,
                                    solve_robust_market_elastic, solve_robust_market_fixed)

REL_TOL = 1e-12
PLAN_TOL = 1e-9

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


@st.composite
def elastic_box_markets(draw, max_producers=8, max_periods=24, coarse=None):
    """An elastic market over the unit box with constant scalings, from
    coarse grids or continuous draws (coarse None: either, drawn); producer
    1 may be a twin of producer 0, and some periods may have a demand
    intercept at or below every cost."""
    N = draw(st.integers(1, max_producers))
    T = draw(st.integers(1, max_periods))
    if coarse is None:
        coarse = draw(st.booleans())
    if coarse:
        c_inv = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        c_var = st.sampled_from([0.0, 0.5, 1.0, 1.5])
        a = st.sampled_from([0.0, 0.5, 1.0])
        alpha = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 4.0, 6.0])
        beta = st.sampled_from([0.5, 1.0, 2.0])
    else:
        c_inv = st.floats(0.01, 2.0)
        c_var = st.floats(0.0, 2.0)
        a = st.floats(0.0, 1.5)
        alpha = st.floats(-1.0, 8.0)
        beta = st.floats(0.2, 3.0)
    producers = [Producer(draw(c_inv), draw(c_var), draw(a)) for _ in range(N)]
    if N >= 2 and draw(st.booleans()):
        producers[1] = Producer(producers[0].c_inv, producers[0].c_var, producers[0].a)
    demand = AffineElastic(draw(st.lists(alpha, min_size=T, max_size=T)),
                           draw(st.lists(beta, min_size=T, max_size=T)))
    return MarketInstance(producers, demand, T, box(N))


def _twins(inst):
    """Whether producers 0 and 1 are twins."""
    if inst.N < 2:
        return False
    p, q = inst.producers[:2]
    return (p.c_inv, p.c_var, p.a) == (q.c_inv, q.c_var, q.a)


class TestElasticScreeningCurves:
    @PROPERTY
    @given(elastic_box_markets())
    def test_matches_the_welfare_qp(self, inst):
        # Nominal costs, and the strict costs of the market side, which on
        # a box are also the planner's costs at the greatest element.
        alpha = inst.demand.alpha
        for u in (None, np.ones((inst.N, inst.T))):
            costs = cost_matrix(inst, u)
            solution = solve_elastic_welfare(inst, costs)
            oracle, out = elastic_welfare_qp(inst, costs)
            assert abs(solution.objective - oracle.objective) <= REL_TOL * _scale(oracle.objective)
            assert_allclose(solution.prices, oracle.prices, rtol=0,
                            atol=REL_TOL * _scale(alpha))
            assert abs(welfare(inst, solution.production, solution.capacities, u)
                       - solution.objective) <= REL_TOL * _scale(solution.objective)
            assert np.all(solution.production >= 0.0)
            assert np.all(solution.production <= solution.capacities[:, None])
            _, unique = _elastic_screening(inst, costs)
            if unique or out.unique_optimum:
                assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=PLAN_TOL)
            if _twins(inst):
                assert solution.capacities[1] == 0.0
                assert not unique or solution.capacities[0] == 0.0

    def test_twins_put_their_capacity_on_the_lower_index(self):
        # Producers 0 and 2 are twins; producer 1 costs more to run, so
        # slices of the stack go first to the twins, all of them to 0.
        inst = MarketInstance([Producer(0.5, 0.5), Producer(0.1, 2.0), Producer(0.5, 0.5)],
                              AffineElastic([5.0, 3.0], [1.0, 1.0]), 2, box(3))
        solution, unique = _elastic_screening(inst, cost_matrix(inst))
        assert not unique
        assert solution.capacities[0] > 0.0 and solution.capacities[2] == 0.0
        oracle, _ = elastic_welfare_qp(inst, cost_matrix(inst))
        assert_allclose(solution.capacities[0] + solution.capacities[2],
                        oracle.capacities[0] + oracle.capacities[2], rtol=0, atol=PLAN_TOL)
        assert_allclose(solution.capacities[1], oracle.capacities[1], rtol=0, atol=PLAN_TOL)


class TestElasticBoxPlanner:
    @PROPERTY
    @given(elastic_box_markets(max_producers=4, max_periods=6, coarse=True))
    def test_matches_the_dualized_qp(self, inst):
        # The planner at the greatest element shares the market's welfare
        # solve: E is C, and the minimum-norm tie-break runs only on a plan
        # not proven unique.  Twins split evenly there.  Coarse grids only:
        # the dualized QP judges its adversary rows -a x + P'z >= 0 within
        # its feasibility tolerance, so an a near 1e-10 drawn from a
        # continuous range drops out of its value (by 5e-11 at 2 x 1).
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        oracle, C_qp, _ = robust_welfare_qp(inst)
        assert abs(C - C_qp) <= REL_TOL * _scale(C_qp)
        assert_allclose(solution.prices, oracle.prices, rtol=0,
                        atol=REL_TOL * _scale(inst.demand.alpha))
        assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=PLAN_TOL)
        assert_allclose(solution.production, oracle.production, rtol=0, atol=PLAN_TOL)
        assert_array_equal(worst_u, np.ones((inst.N, inst.T)))
        if _twins(inst):
            assert abs(solution.capacities[0] - solution.capacities[1]) <= PLAN_TOL
        _, E, _ = solve_robust_market_elastic(inst)
        assert E == C == poa_elastic(inst).C
