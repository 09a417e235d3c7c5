"""Property tests: the closed-form pinned dispatch against the dense LP/QP.

market._dispatch solves production's best response at pinned capacities in
closed form over a stack of scenarios; tests/oracles.py's
pinned_program_dispatch solves the same program, one scenario at a time,
with the package's dense LP (fixed demand) or QP (elastic demand).  Costs,
capacities, scalings and scenarios come from coarse grids, so cost ties,
zero capacities and scenarios shared by twin producers are common; demand is
drawn to hit zero, sums of capacities (every merit-order breakpoint) and
a hair above the total capacity, and demand curves start at or below the
cheapest cost.  Hypothesis runs derandomized, so every run sees the same
examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import pinned_program_dispatch
from robust_peakload.geometry import box
from robust_peakload.market import (AffineElastic, Fixed, MarketInstance,
                                    Producer, _dispatch, cost_matrix)
from robust_peakload.robust import Infeasible, dispatch_at_capacity
from robust_peakload.subsidy import kkt_residuals, solve_fixed_capacity_welfare

MATCH_TOL = 1e-9
KKT_TOL = 1e-7
# Excess of demand over total capacity in the infeasible draws: far above
# the solvers' feasibility tolerances.
OVER = 1e-6

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

grid = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def pinned_cases(draw, elastic):
    """(instance over the unit box, capacities y, S x N x T scenarios)."""
    N = draw(st.integers(1, 4))
    T = draw(st.integers(1, 3))
    twins = N >= 2 and draw(st.booleans())
    producers = []
    for i in range(N):
        if twins and i == 1:
            producers.append(producers[0])
            continue
        by_period = draw(st.one_of(st.none(), st.lists(grid, min_size=T, max_size=T)))
        producers.append(Producer(c_inv=draw(grid), c_var=draw(grid), a=draw(grid),
                                  a_by_period=by_period))
    y = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                               min_size=N, max_size=N)))
    S = draw(st.integers(1, 3))
    u = np.array(draw(st.lists(grid, min_size=S * N * T,
                               max_size=S * N * T))).reshape(S, N, T)
    if twins:
        u[:, 1] = u[:, 0]
    if elastic:
        costs = cost_matrix(MarketInstance(producers, Fixed(np.zeros(T)), T, box(N)), u)
        cheapest = costs.min(axis=(0, 1))
        alpha = np.array([draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
                          if draw(st.booleans()) else cheapest[t] for t in range(T)])
        beta = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                      min_size=T, max_size=T)))
        demand = AffineElastic(alpha, beta)
    else:
        d = []
        for _ in range(T):
            kind = draw(st.sampled_from(["zero", "sum", "share", "over"]))
            if kind == "zero":
                d.append(0.0)
            elif kind == "sum":
                mask = draw(st.lists(st.booleans(), min_size=N, max_size=N))
                d.append(float(y[np.array(mask)].sum()))
            elif kind == "share":
                d.append(draw(st.sampled_from([0.25, 0.5, 0.75])) * float(y.sum()))
            else:
                d.append(float(y.sum()) + OVER)
        demand = Fixed(np.array(d))
    return MarketInstance(producers, demand, T, box(N)), y, u


def _untied(costs):
    """Mask of the (producer, period) entries whose cost no other producer
    shares in that period; x is unique there."""
    return (costs[:, None, :] == costs[None, :, :]).sum(axis=1) == 1


def _compare(inst, y, u):
    costs = cost_matrix(inst, u)
    out = _dispatch(inst, y, costs)
    for s in range(u.shape[0]):
        value, x, _ = pinned_program_dispatch(inst, y, costs[s])
        assert_allclose(out.value[s], value, atol=MATCH_TOL, rtol=0)
        untied = _untied(costs[s])
        assert_allclose(out.x[s][untied], x[untied], atol=MATCH_TOL, rtol=0)
    return out


@PROPERTY
@given(pinned_cases(elastic=False))
def test_fixed_dispatch_matches_lp(case):
    inst, y, u = case
    if np.any(inst.demand.d > y.sum()):
        with pytest.raises(Infeasible):
            _dispatch(inst, y, cost_matrix(inst, u))
        with pytest.raises(Infeasible):
            pinned_program_dispatch(inst, y, cost_matrix(inst, u[0]))
        return
    out = _compare(inst, y, u)
    assert np.all(out.x >= 0.0)
    assert np.all(out.x <= y[:, None] + MATCH_TOL)
    assert_allclose(out.x.sum(axis=1), np.broadcast_to(inst.demand.d, (len(u), inst.T)),
                    atol=MATCH_TOL, rtol=0)


@PROPERTY
@given(pinned_cases(elastic=True))
def test_elastic_dispatch_matches_qp(case):
    inst, y, u = case
    out = _compare(inst, y, u)
    demand = inst.demand
    for s in range(u.shape[0]):
        _, x, _ = pinned_program_dispatch(inst, y, cost_matrix(inst, u[s]))
        assert_allclose(out.pi[s], demand.alpha - demand.beta * x.sum(axis=0),
                        atol=MATCH_TOL, rtol=0)
        result = solve_fixed_capacity_welfare(inst, y, u[s])
        assert max(kkt_residuals(inst, y, result).values()) <= KKT_TOL


def test_demand_at_total_capacity_is_met():
    # Fixed demand equal to the total capacity is feasible: everything runs.
    inst = MarketInstance([Producer(0.0, 1.0), Producer(0.0, 0.5)],
                          Fixed(np.array([1.5])), 1, box(2))
    out = _dispatch(inst, np.array([1.0, 0.5]), cost_matrix(inst)[None])
    assert_allclose(out.x[0], [[1.0], [0.5]], atol=0)
    assert_allclose(out.value[0], 1.25, atol=1e-15)


def test_ties_fill_lower_index_first():
    # The documented tie rule; the value does not depend on it.
    inst = MarketInstance([Producer(0.0, 1.0), Producer(0.0, 1.0)],
                          Fixed(np.array([0.5])), 1, box(2))
    out = _dispatch(inst, np.array([1.0, 1.0]), cost_matrix(inst)[None])
    assert_allclose(out.x[0], [[0.5], [0.0]], atol=0)


def _elastic_instance():
    return MarketInstance([Producer(0.2, 0.0, 1.0), Producer(0.2, 0.5, 1.0)],
                          AffineElastic(np.array([3.0, 2.0]), np.array([1.0, 1.0])),
                          2, box(2))


# Each wrapper returns the value at the checked inputs.
WRAPPERS = {
    "dispatch_at_capacity": lambda inst, y, u: dispatch_at_capacity(inst, y, u)[0],
    "solve_fixed_capacity_welfare":
        lambda inst, y, u: solve_fixed_capacity_welfare(inst, y, u).value,
}


@pytest.mark.parametrize("wrapper", list(WRAPPERS))
@pytest.mark.parametrize("y, u, name", [
    ([np.nan, 1.0], np.zeros((2, 2)), "y_star"),
    ([np.inf, 1.0], np.zeros((2, 2)), "y_star"),
    ([1.0, 1.0, 1.0], np.zeros((2, 2)), "y_star"),
    ([1.0], np.zeros((2, 2)), "y_star"),
    ([-0.5, 1.0], np.zeros((2, 2)), "y_star"),
    ([1.0, 1.0], np.full((2, 2), np.nan), "scenario u"),
    ([1.0, 1.0], np.array([[0.5, np.inf], [0.0, 0.0]]), "scenario u"),
    ([1.0, 1.0], np.zeros((2, 3)), "scenario u"),
    ([1.0, 1.0], np.zeros(2), "scenario u"),
])
def test_bad_pinned_inputs_name_the_argument(wrapper, y, u, name):
    with pytest.raises(ValueError, match=name):
        WRAPPERS[wrapper](_elastic_instance(), np.array(y), u)


@pytest.mark.parametrize("wrapper", list(WRAPPERS))
def test_capacity_within_support_tolerance_is_clipped(wrapper):
    inst = _elastic_instance()
    u = np.zeros((2, 2))
    assert (WRAPPERS[wrapper](inst, np.array([-1e-12, 1.0]), u)
            == WRAPPERS[wrapper](inst, np.array([0.0, 1.0]), u))
