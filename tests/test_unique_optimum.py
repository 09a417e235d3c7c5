"""Property tests: the elastic planner skips its minimum-norm projection only
where that projection would not move the plan.

solve_robust_cp_elastic projects its optimum onto the minimum-norm point of
the optimal face (robust._min_norm_optimum) unless the planner QP proved
the optimum unique (SolveOutcome.unique_optimum); then the face is that one
point.  tests/oracles.py's robust_welfare_qp solves the dualized planner
over (x, y, z) cold, on every set, and always calls _min_norm_optimum, so
its plan is the projection whatever the planner's proof said.  Markets are
drawn from coarse grids over the simplex, a budget set, a vertex hull
without a greatest element and the box (the planner at its corner), with
twin producers that carry no uncertainty (a = 0, a face of optima), a
producer whose cost reaches the demand curve's intercept, and periods
whose curve meets the price axis at or below zero.  Hypothesis runs
derandomized, so every run sees the same examples.  The projection QP
itself, whose Q is positive definite, proves its own optimum unique.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import robust_welfare_qp
from robust_peakload import robust
from robust_peakload.geometry import Polytope, box, hull_to_inequalities, simplex
from robust_peakload.instancefile import load_instance
from robust_peakload.market import AffineElastic, MarketInstance, Producer
from robust_peakload.robust import solve_robust_cp_elastic

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
PLAN_TOL = 1e-9

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


def _uncertainty(draw, kind, n):
    if kind == "simplex":
        return simplex(n)
    if kind == "box":
        return box(n)
    if kind == "budget":
        return Polytope(n, np.vstack([np.eye(n), np.ones((1, n))]),
                        np.concatenate([np.ones(n), [draw(st.sampled_from([1.5, 2.0]))]]))
    corner = draw(st.sampled_from([0.5, 0.75]))
    return hull_to_inequalities(np.vstack([np.zeros(n), np.eye(n), np.full(n, corner)]))


@st.composite
def elastic_markets(draw):
    """An elastic market (N 1-4, T 1-4) over a simplex, budget, hull or box
    set."""
    N = draw(st.integers(1, 4))
    T = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["simplex", "budget", "hull", "box"]))
    alpha = np.array(draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                                   min_size=T, max_size=T)))
    rows = [[draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
             draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
             draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))] for _ in range(N)]
    if draw(st.booleans()):
        # A producer priced out of the market in every period.
        rows[-1][1] = float(alpha.max()) + draw(st.sampled_from([0.0, 1.0]))
    if N >= 2 and draw(st.booleans()):
        # Twins free of uncertainty: any split of their output is optimal.
        rows[0][2] = 0.0
        rows[1] = list(rows[0])
    if draw(st.booleans()):
        # No demand at any nonnegative price in this period.
        alpha[draw(st.integers(0, T - 1))] = draw(st.sampled_from([-1.0, 0.0]))
    beta = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                  min_size=T, max_size=T)))
    producers = [Producer(c_inv, c_var, a) for c_inv, c_var, a in rows]
    return MarketInstance(producers, AffineElastic(alpha, beta), T,
                          _uncertainty(draw, kind, N))


class TestUniqueOptimumSkip:
    @PROPERTY
    @given(elastic_markets())
    def test_plan_is_the_projection(self, inst):
        solution, C, _ = solve_robust_cp_elastic(inst)
        oracle, C_qp, _ = robust_welfare_qp(inst)
        assert abs(C - C_qp) <= 1e-12 * max(1.0, abs(C_qp))
        plan_tol = PLAN_TOL * max(1.0, float(np.max(oracle.capacities, initial=0.0)))
        assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=plan_tol)
        assert_allclose(solution.production, oracle.production, rtol=0, atol=plan_tol)


class TestProjectionProof:
    """The projection QP of _min_norm_optimum minimizes a weighted norm with
    positive weights: its Q is positive definite, so solve_qp proves its
    optimum unique from Q alone, even where the crossed-over face point
    leaves reduced costs at zero."""

    @pytest.mark.parametrize("name", ["twin_elastic.json", "subsidy_example.json"])
    def test_projection_reports_unique(self, monkeypatch, name):
        inst, _ = load_instance(INSTANCES / name)
        solve_qp, outcomes = robust.solve_qp, []

        def record(spec, start=None):
            outcomes.append(solve_qp(spec, start=start))
            return outcomes[-1]

        # In the elastic planner robust.solve_qp poses the projection alone.
        monkeypatch.setattr(robust, "solve_qp", record)
        solve_robust_cp_elastic(inst)
        assert len(outcomes) == 1
        assert outcomes[0].status == "optimal" and outcomes[0].unique_optimum
