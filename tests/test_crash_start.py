"""Property tests: the dualized elastic planner, started from its crash LP's
vertex, against the same QP started cold from the origin.

solve_robust_cp_elastic poses, on a per-period set without a greatest
element, the fixed-demand robust planner LP at the crash demand (the
demand-curve intercepts at unit peak) and starts the welfare QP over
(x, y, z) from that LP's optimum.  tests/oracles.py's robust_welfare_qp
poses the same QP from the origin.  Both end at the same minimum-norm
optimum (the planner's tie-break runs unless its QP proves the optimum
unique), so value, prices and plan agree to rounding; the worst case may
differ at tied adversary optima, and is checked by the planner's own
readout.  Markets are drawn from coarse grids over the simplex, a budget
set and a vertex hull with no greatest element (like
instances/subsidy_example.json), with tied producers, periods whose curve
meets the price axis at or below zero, and quantities scaled by 1e-3 to
1e3.  Hypothesis runs derandomized, so every run sees the same examples.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import robust_planner_lp, robust_welfare_qp
from robust_peakload.geometry import Polytope, hull_to_inequalities, simplex
from robust_peakload.market import (AffineElastic, Fixed, MarketInstance, Producer,
                                    cost_matrix, scaling_matrix, welfare)
from robust_peakload.robust import _crash_start, _readout, lifted_set, solve_robust_cp_elastic

REL_TOL = 1e-12
PLAN_TOL = 1e-9

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def _budget(n, bound):
    return Polytope(n, np.vstack([np.eye(n), np.ones((1, n))]),
                    np.concatenate([np.ones(n), [bound]]))


def _hull(n, corner):
    """The hull of 0, the unit axis points and `corner` times the all-ones
    point: valid, and for corner < 1 without a greatest element."""
    return hull_to_inequalities(np.vstack([np.zeros(n), np.eye(n), np.full(n, corner)]))


@st.composite
def elastic_markets(draw):
    """An elastic market (N 1-5, T 1-6) over a simplex, budget or hull set."""
    N = draw(st.integers(1, 5))
    T = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["simplex", "budget", "hull"]))
    if kind == "simplex":
        uncertainty = simplex(N)
    elif kind == "budget":
        uncertainty = _budget(N, draw(st.sampled_from([1.5, 2.0])))
    else:
        uncertainty = _hull(N, draw(st.sampled_from([0.5, 0.75])))
    rows = [[draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
             draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
             draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))] for _ in range(N)]
    if N >= 2 and draw(st.booleans()):
        rows[1] = list(rows[0])
    producers = [Producer(c_inv, c_var, a) for c_inv, c_var, a in rows]
    alpha = np.array(draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                                   min_size=T, max_size=T)))
    if draw(st.booleans()):
        # No demand at any nonnegative price: crash demand 0 in this period.
        alpha[draw(st.integers(0, T - 1))] = draw(st.sampled_from([-1.0, 0.0]))
    beta = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                  min_size=T, max_size=T)))
    scale = draw(st.sampled_from([1e-3, 1e-1, 1.0, 10.0, 1e3]))
    return MarketInstance(producers, AffineElastic(alpha, beta / scale), T, uncertainty)


def _scale(values):
    return max(1.0, float(np.max(np.abs(values), initial=0.0)))


class TestCrashStart:
    @PROPERTY
    @given(elastic_markets())
    def test_matches_the_cold_qp(self, inst):
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        oracle, C_qp, _ = robust_welfare_qp(inst)
        assert abs(C - C_qp) <= REL_TOL * _scale(C_qp)
        # A price alpha - beta s is the difference of terms up to alpha.
        assert_allclose(solution.prices, oracle.prices, rtol=0,
                        atol=REL_TOL * _scale(inst.demand.alpha))
        plan_tol = PLAN_TOL * _scale(oracle.capacities)
        assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=plan_tol)
        assert_allclose(solution.production, oracle.production, rtol=0, atol=plan_tol)
        x, y = solution.production, solution.capacities
        _readout(lifted_set(inst), worst_u, lambda u: welfare(inst, x, y, u), C)

    @PROPERTY
    @given(elastic_markets())
    def test_start_is_the_fixed_demand_planner(self, inst):
        # The crash start is an optimum of the fixed-demand robust planner at
        # the crash demand: its cost c_var x + c_inv y + r z is that LP's value.
        N, T = inst.N, inst.T
        lifted = lifted_set(inst)
        start = _crash_start(inst, scaling_matrix(inst).reshape(-1), lifted)
        q = np.maximum(inst.demand.alpha, 0.0) / inst.demand.beta
        s0 = q / q.max() if q.max() > 0.0 else q
        assert_allclose(start[: N * T].reshape(N, T).sum(axis=0), s0, rtol=0, atol=1e-12)
        twin = MarketInstance(inst.producers, Fixed(s0), T, inst.uncertainty)
        _, value, _ = robust_planner_lp(twin)
        c_inv = np.array([p.c_inv for p in inst.producers])
        cost = np.concatenate([cost_matrix(inst).reshape(-1), c_inv, lifted.r])
        assert abs(cost @ start - value) <= REL_TOL * _scale(value)
