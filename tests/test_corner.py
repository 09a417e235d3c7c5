"""Property tests: the robust solves on a per-period set that contains its
greatest element m (box, VaR box) against the programs they no longer pose,
and the readouts that are one closed form on every set.

There m in every period is the worst case of every plan, so the elastic
planner is the welfare QP at costs c_var + a m over (x, y), and the
fixed-demand scenario form is the nominal planner at those costs.
tests/oracles.py's robust_welfare_qp poses the dualized planner over
(x, y, z) with its minimum-norm tie-break, and lifted_scenario_form the
scenario form with one production copy per lifted vertex.  Markets are
drawn from coarse grids, so tied demands are common; some hold a pair of
producers tied at m with different a, whose split only the tie-break
fixes, and some a varying a_by_period, which keeps costs varying over the
periods.  Off the corner (simplex, budget and vertex-hull sets) the
scenario form still reports the dispatch at its capacities, and the strict
markets value their plan at its worst case.  Hypothesis runs derandomized,
so every run sees the same examples.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (lifted_scenario_form, lifted_vertices, merit_order_dispatch,
                     robust_planner_lp, robust_welfare_qp)
from robust_peakload.geometry import (Polytope, box, enumerate_vertices,
                                      hull_to_inequalities, simplex)
from robust_peakload.market import (AffineElastic, Fixed, MarketInstance, Producer,
                                    _dispatch, cost_matrix, total_cost, welfare)
from robust_peakload.poa import poa_elastic, poa_fixed
from robust_peakload.risk import VarSpec, build_mvar_set
from robust_peakload.robust import (_corner, adjustable_scenario_form_fixed,
                                    solve_robust_cp_elastic, solve_robust_market_elastic,
                                    solve_robust_market_fixed)

REL_TOL = 1e-12
PLAN_TOL = 1e-9
# The lifted scenario form holds |V|^T production copies; past this many
# the value is checked against the static planner alone, which equals it
# on these sets.
LIFTED_COPIES = 64

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=120,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def corner_markets(draw, elastic):
    """A market over the unit box (N 1-4, T 1-4), or over a VaR box: the
    unit box with the VaR figures as scalings (risk.build_mvar_set)."""
    N = draw(st.integers(1, 4))
    T = draw(st.integers(1, 4))
    var = draw(st.booleans())
    scalings = [0.25, 0.5, 1.0, 1.5] if var else [0.0, 0.5, 1.0, 1.5]
    rows = [[draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
             draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
             draw(st.sampled_from(scalings))] for _ in range(N)]
    if N >= 2 and draw(st.booleans()):
        # Producers 0 and 1 cost the same at m, with different a.
        c_inv, c_var, a = rows[0]
        rows[0] = [c_inv, c_var + 0.5, a]
        rows[1] = [c_inv, c_var, a + 0.5]
    if var:
        uncertainty, scale = build_mvar_set(VarSpec(0.95, [a for _, _, a in rows]))
        producers = [Producer(c_inv, c_var, float(s))
                     for (c_inv, c_var, _), s in zip(rows, scale)]
    else:
        uncertainty = box(N)
        producers = [Producer(c_inv, c_var, a) for c_inv, c_var, a in rows]
        if T >= 2 and draw(st.booleans()):
            producers[-1].a_by_period = np.array(draw(st.lists(
                st.sampled_from(scalings), min_size=T, max_size=T, unique=True)))
    if elastic:
        demand = AffineElastic(draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                                             min_size=T, max_size=T)),
                               draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                             min_size=T, max_size=T)))
    else:
        demand = Fixed(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                     min_size=T, max_size=T)))
    return MarketInstance(producers, demand, T, uncertainty)


@st.composite
def off_corner_markets(draw, elastic):
    """A market (N 2-4, T 1-4) over a simplex, a budget set or a vertex
    hull, none of which holds its greatest element; every other draw has a
    twin of producer 0, whose split the dispatch's index rule fixes."""
    N = draw(st.integers(2, 4))
    T = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["simplex", "budget", "hull"]))
    if kind == "simplex":
        uncertainty = simplex(N)
    elif kind == "budget":
        uncertainty = Polytope(N, np.vstack([np.eye(N), np.ones((1, N))]),
                               np.concatenate([np.ones(N), [draw(st.sampled_from([1.5, N - 0.5]))]]))
    else:
        corner = draw(st.sampled_from([0.5, 0.75]))
        uncertainty = hull_to_inequalities(np.vstack([np.zeros(N), np.eye(N),
                                                      np.full(N, corner)]))
    producers = [Producer(draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
                          draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                          draw(st.sampled_from([0.0, 0.5, 1.0, 1.5]))) for _ in range(N)]
    if draw(st.booleans()):
        producers[-1] = Producer(producers[0].c_inv, producers[0].c_var, producers[0].a)
    if elastic:
        demand = AffineElastic(draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0]),
                                             min_size=T, max_size=T)),
                               draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                             min_size=T, max_size=T)))
    else:
        demand = Fixed(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                                     min_size=T, max_size=T)))
    inst = MarketInstance(producers, demand, T, uncertainty)
    assert _corner(inst) is None
    return inst


def _scale(values):
    return max(1.0, float(np.max(np.abs(values), initial=0.0)))


class TestElasticPlanner:
    @PROPERTY
    @given(corner_markets(elastic=True))
    def test_matches_the_dualized_qp(self, inst):
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        oracle, C_qp, _ = robust_welfare_qp(inst)
        assert abs(C - C_qp) <= REL_TOL * _scale(C_qp)
        assert_allclose(solution.prices, oracle.prices, rtol=0,
                        atol=REL_TOL * _scale(oracle.prices))
        assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=PLAN_TOL)
        assert_allclose(solution.production, oracle.production, rtol=0, atol=PLAN_TOL)
        assert_array_equal(worst_u, np.ones((inst.N, inst.T)))
        # The strict robust market is the same program: E is C.
        report = poa_elastic(inst)
        assert report.E == report.C == C
        if report.E > 0.0:
            assert report.ratio == 1.0


class TestScenarioForm:
    @PROPERTY
    @given(corner_markets(elastic=False))
    def test_is_the_nominal_planner_at_the_corner(self, inst):
        form = adjustable_scenario_form_fixed(inst)
        value, y, d = form["value"], form["capacities"], inst.demand.d
        c_inv = np.array([p.c_inv for p in inst.producers])
        tol = REL_TOL * _scale(value)
        _, C_lp, _ = robust_planner_lp(inst)
        assert abs(value - C_lp) <= tol
        vertices = enumerate_vertices(inst.uncertainty)
        if len(vertices) ** inst.T <= LIFTED_COPIES:
            assert abs(value - lifted_scenario_form(inst)) <= tol
            # The capacities are optimal: at them, the lifted program's
            # worst copy costs the optimum.
            worst = max(merit_order_dispatch(cost_matrix(inst, u), y, d)[0]
                        for u in lifted_vertices(inst))
            assert abs(c_inv @ y + worst - value) <= tol

        # Dual mass sits on m's row alone and prices the demand at the
        # value; the margins it leaves over m's costs pay no more than each
        # capacity cost, so padded with zeros it is an optimal dual.
        duals = form["clearing_duals"]
        (m_row,) = [v for v, u in enumerate(vertices) if np.all(u == 1.0)]
        assert not np.any(np.delete(duals, m_row, axis=0))
        assert abs(float(duals[m_row] @ d) - value) <= tol
        margins = np.maximum(duals[m_row] - cost_matrix(inst, form["scenarios"][m_row]), 0.0)
        assert np.all(margins.sum(axis=1) <= c_inv + tol)

        at_y = _dispatch(inst, y, cost_matrix(inst, form["scenarios"]))
        assert_array_equal(form["productions"], at_y.x)
        assert form["epigraph"] == at_y.period_values.max(axis=0).sum()

        report = poa_fixed(inst)
        assert report.E == report.C and report.ratio == 1.0


class TestOffTheCorner:
    @PROPERTY
    @given(off_corner_markets(elastic=False))
    def test_scenario_form_reports_the_dispatch(self, inst):
        form = adjustable_scenario_form_fixed(inst)
        at_y = _dispatch(inst, form["capacities"], cost_matrix(inst, form["scenarios"]))
        assert_array_equal(form["productions"], at_y.x)
        assert form["epigraph"] == at_y.period_values.max(axis=0).sum()

    @PROPERTY
    @given(st.booleans().flatmap(lambda elastic: off_corner_markets(elastic=elastic)))
    def test_strict_market_values_its_plan_at_the_worst_case(self, inst):
        fixed = isinstance(inst.demand, Fixed)
        solve, value_at = ((solve_robust_market_fixed, total_cost) if fixed
                           else (solve_robust_market_elastic, welfare))
        solution, E, worst = solve(inst)
        assert E == value_at(inst, solution.production, solution.capacities, worst)
