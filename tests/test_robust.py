"""Tests for robust linear programs and the robust market / planner solves."""

import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linprog

import robust_peakload
import oracles
from oracles import (compose_lifted, lifted_scenario_form, lifted_vertices,
                     merit_order_dispatch, per_period_index)
from robust_peakload import market, robust, solver
from robust_peakload.geometry import (
    Polytope,
    box,
    enumerate_vertices,
    hull_to_inequalities,
    simplex,
)
from robust_peakload.market import (
    AffineElastic,
    Fixed,
    MarketInstance,
    Producer,
    cost_matrix,
    solve_nominal_elastic,
    solve_nominal_fixed,
    total_cost,
    welfare,
)
from robust_peakload.robust import (
    Infeasible,
    RobustLp,
    SaddleViolated,
    Unbounded,
    adjustable_scenario_form_fixed,
    dispatch_at_capacity,
    lifted_set,
    solve_robust_cp_elastic,
    solve_robust_cp_fixed,
    solve_robust_lp,
    solve_robust_market_elastic,
    solve_robust_market_fixed,
    verify_adjustable_equivalence,
    worst_case_scenario,
)
from robust_peakload.solver import (LpSpec, NumericBreakdown, QpSpec, SolveOutcome,
                                    solve_lp, solve_qp)
from robust_peakload.subsidy import (_verification, build_price_functions,
                                     compute_subsidies, kkt_residuals,
                                     solve_fixed_capacity_welfare)

VALUE_TOL = 1e-7
SADDLE_TOL = 1e-6
CHAIN_TOL = 1e-7

N_RANDOM_TRIALS = 40


def two_producer_peak_instance():
    """N=2, T=1, d=2, unit capacity cost, fully uncertain unit-scale
    production costs over the 2-simplex."""
    return MarketInstance(
        producers=[Producer(c_inv=1.0, c_var=0.0, a=1.0),
                   Producer(c_inv=1.0, c_var=0.0, a=1.0)],
        demand=Fixed(np.array([2.0])),
        T=1,
        uncertainty=simplex(2),
    )


def two_period_reform_instance():
    """N=2, T=2, d=(1,2), unit costs, per-period 2-simplex uncertainty."""
    return MarketInstance(
        producers=[Producer(c_inv=1.0, c_var=1.0, a=1.0),
                   Producer(c_inv=1.0, c_var=1.0, a=1.0)],
        demand=Fixed(np.array([1.0, 2.0])),
        T=2,
        uncertainty=simplex(2),
    )


def elastic_hull_instance():
    """N=2, T=1, inverse demand 5 - s, capacity cost 0.2, cost scale 4,
    hull-generated uncertainty with vertices (0,0),(1,0),(0,1),(3/4,3/4)."""
    hull = hull_to_inequalities(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]]))
    return MarketInstance(
        producers=[Producer(c_inv=0.2, c_var=0.0, a=4.0),
                   Producer(c_inv=0.2, c_var=0.0, a=4.0)],
        demand=AffineElastic(np.array([5.0]), np.array([1.0])),
        T=1,
        uncertainty=hull,
    )


def twin_elastic_instance():
    """instances/twin_elastic.json: N=3, T=2 on the simplex, producers 0
    and 1 identical and free of uncertainty (a = 0), so any split of their
    output is optimal and the elastic planner's optimum is a face; producer
    2 is cheaper but uncertain.  The minimum-norm plan gives each twin
    capacity 1.225."""
    return MarketInstance(
        producers=[Producer(c_inv=0.2, c_var=0.5, a=0.0),
                   Producer(c_inv=0.2, c_var=0.5, a=0.0),
                   Producer(c_inv=0.05, c_var=0.1, a=0.5)],
        demand=AffineElastic(np.array([5.0, 3.0]), np.array([1.0, 1.0])),
        T=2,
        uncertainty=simplex(3),
    )


def large_units(inst, k=1e3):
    """inst with its demand in larger units: fixed demand times k, or the
    demand curve's intercepts times k and slopes divided by k, which scales
    the elastic quantities by about k^2 and the welfare by about k^3."""
    if isinstance(inst.demand, Fixed):
        demand = Fixed(inst.demand.d * k)
    else:
        demand = AffineElastic(inst.demand.alpha * k, inst.demand.beta / k)
    return dataclasses.replace(inst, demand=demand)


def random_uncertainty(rng, n):
    """Random valid uncertainty set: unit box cut by one halfspace that
    keeps the origin and all unit axis points inside."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return box(n)
    if kind == 1:
        return simplex(n)
    w = rng.uniform(0.2, 1.0, size=n)
    r = float(np.max(w) * rng.uniform(1.0, 1.6))
    P = np.vstack([np.eye(n), w[None, :]])
    return Polytope(n, P, np.concatenate([np.ones(n), [r]]))


def random_fixed_instance(rng):
    N = int(rng.integers(1, 4))
    T = int(rng.integers(1, 3))
    producers = [Producer(c_inv=float(rng.uniform(0.1, 1.5)),
                          c_var=float(rng.uniform(0.1, 2.0)),
                          a=float(rng.uniform(0.0, 1.5)))
                 for _ in range(N)]
    return MarketInstance(
        producers=producers,
        demand=Fixed(rng.uniform(0.5, 3.0, size=T)),
        T=T,
        uncertainty=random_uncertainty(rng, N),
    )


def random_elastic_instance(rng):
    N = int(rng.integers(1, 4))
    T = int(rng.integers(1, 3))
    producers = [Producer(c_inv=float(rng.uniform(0.1, 1.0)),
                          c_var=float(rng.uniform(0.1, 1.5)),
                          a=float(rng.uniform(0.0, 1.0)))
                 for _ in range(N)]
    return MarketInstance(
        producers=producers,
        demand=AffineElastic(rng.uniform(2.0, 6.0, size=T),
                             rng.uniform(0.5, 2.0, size=T)),
        T=T,
        uncertainty=random_uncertainty(rng, N),
    )


def random_robust_lp(rng):
    nx = int(rng.integers(1, 5))
    ny = int(rng.integers(0, 3))
    m = int(rng.integers(1, 5))
    A = rng.uniform(0.0, 2.0, size=(m, nx))
    A[np.arange(m), rng.integers(0, nx, size=m)] += 0.2
    B = rng.uniform(0.0, 1.5, size=(m, ny))
    return RobustLp(
        A=A,
        B=B,
        b=rng.uniform(0.2, 2.0, size=m),
        c=rng.uniform(0.0, 2.0, size=nx),
        d=rng.uniform(0.1, 1.5, size=ny),
        lam=rng.uniform(0.0, 2.0, size=nx),
        U=random_uncertainty(rng, nx),
    )


def assert_strict_worst_case(inst, solution, E, worst):
    """A strict market's worst case is the adversary's answer to its plan,
    bit for bit, and attains its worst-case value E: E is the plan's value
    at it bit for bit off the corner, and the plan's own objective, the
    same value up to rounding, at the corner."""
    assert_array_equal(worst, worst_case_scenario(inst, solution.production)[1])
    evaluate = total_cost if isinstance(inst.demand, Fixed) else welfare
    value = evaluate(inst, solution.production, solution.capacities, worst)
    if robust._corner(inst) is None:
        assert value == E
    else:
        assert_allclose(value, E, atol=SADDLE_TOL, rtol=0)


class TestRobustLp:
    def test_tight_two_producer_program(self):
        # min over x >= 0 with x1 + x2 >= 1 of max over the 2-simplex of
        # 0.99 u1 x1 + u2 x2.  Balancing 0.99 x1 = x2 gives value 0.99/1.99;
        # the box relaxation prices both coordinates fully and pays 0.99.
        p = RobustLp(A=np.array([[1.0, 1.0]]), B=np.zeros((1, 0)),
                     b=np.array([1.0]), c=np.zeros(2), d=np.zeros(0),
                     lam=np.array([0.99, 1.0]), U=simplex(2))
        report = solve_robust_lp(p)
        assert_allclose(report.val_R, 0.99 / 1.99, atol=VALUE_TOL)
        assert_allclose(report.val_B, 0.99, atol=VALUE_TOL)
        assert_allclose(report.val_Btilde, 0.99, atol=VALUE_TOL)
        assert_allclose(report.tau, 0.5, atol=1e-9)
        assert report.bound_ok
        assert report.val_B <= report.val_R / report.tau + CHAIN_TOL

    def test_zero_lam_collapses_to_nominal(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            p = random_robust_lp(rng)
            p.lam[:] = 0.0
            report = solve_robust_lp(p)
            nominal = solve_lp(LpSpec(
                "min", np.concatenate([p.c, p.d]), np.hstack([p.A, p.B]),
                p.b, [">="] * p.b.size))
            assert nominal.status == "optimal"
            assert_allclose(report.val_R, nominal.objective, atol=VALUE_TOL,
                            err_msg=f"trial {trial}")
            assert_allclose(report.val_Btilde, nominal.objective,
                            atol=VALUE_TOL, err_msg=f"trial {trial}")

    def test_box_uncertainty_closes_the_gap(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            p = random_robust_lp(rng)
            p = RobustLp(p.A, p.B, p.b, p.c, p.d, p.lam, box(p.c.size))
            report = solve_robust_lp(p)
            assert_allclose(report.val_R, report.val_Btilde, atol=VALUE_TOL,
                            err_msg=f"trial {trial}")
            assert_allclose(report.tau, 1.0, atol=1e-9)

    def test_value_chain_and_tau_bound(self):
        rng = np.random.default_rng(23)
        for trial in range(N_RANDOM_TRIALS):
            p = random_robust_lp(rng)
            report = solve_robust_lp(p)
            assert report.val_R <= report.val_B + CHAIN_TOL, f"trial {trial}"
            assert report.val_B <= report.val_Btilde + CHAIN_TOL, f"trial {trial}"
            assert report.bound_ok, f"trial {trial}"
            assert p.U.contains(report.worst_u, tol=1e-7), f"trial {trial}"

    def test_worst_scenario_attains_robust_value(self):
        rng = np.random.default_rng(31)
        for trial in range(N_RANDOM_TRIALS):
            p = random_robust_lp(rng)
            report = solve_robust_lp(p)
            out = solve_lp(LpSpec(
                "min", np.concatenate([p.c + p.lam * report.worst_u, p.d]),
                np.hstack([p.A, p.B]), p.b, [">="] * p.b.size))
            assert out.status == "optimal"
            assert out.objective <= report.val_R + SADDLE_TOL, f"trial {trial}"

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            RobustLp(A=np.ones((1, 1)), B=np.zeros((1, 0)), b=[1.0],
                     c=[-1.0], d=[], lam=[1.0], U=box(1))
        with pytest.raises(ValueError):
            RobustLp(A=np.ones((1, 1)), B=np.zeros((1, 0)), b=[1.0],
                     c=[1.0], d=[], lam=[1.0], U=box(2))

    def test_infeasible_raises(self):
        p = RobustLp(A=np.array([[-1.0]]), B=np.zeros((1, 0)), b=np.array([1.0]),
                     c=np.array([1.0]), d=np.zeros(0), lam=np.array([0.5]),
                     U=box(1))
        with pytest.raises(Infeasible):
            solve_robust_lp(p)


class TestScenarioHelpers:
    @pytest.mark.parametrize("N, T, U", [
        (3, 2, Polytope(3, np.vstack([np.eye(3), np.ones((1, 3))]), [1, 1, 1, 2])),
        (2, 3, simplex(2)),
        (3, 4, simplex(3)),
    ], ids=["budget-3x2", "simplex-2x3", "simplex-3x4"])
    def test_flattened_scenario_membership(self, N, T, U):
        # An N x T scenario flattens by u.reshape(-1), the order of the x
        # variables: it lies in the lifted set exactly when every period's
        # column lies in the per-period set.
        inst = MarketInstance(
            producers=[Producer(c_inv=1.0, c_var=1.0, a=1.0) for _ in range(N)],
            demand=Fixed(np.ones(T)), T=T, uncertainty=U)
        lifted = lifted_set(inst)
        rng = np.random.default_rng(29)
        vertices = np.array(enumerate_vertices(U))
        seen = set()
        for trial in range(200):
            # Columns near the boundary of U, a few pushed past it.
            weights = rng.dirichlet(np.full(len(vertices), 0.3), size=T)
            u = (weights @ vertices).T * np.where(rng.random(T) < 0.15, 1.2, 1.0)
            per_period = all(U.contains(u[:, t]) for t in range(T))
            assert lifted.contains(u.reshape(-1)) == per_period, f"trial {trial}"
            seen.add(per_period)
        assert seen == {True, False}
        for v in lifted_vertices(inst):
            assert lifted.contains(v.reshape(-1))

    def test_worst_case_scenario_matches_vertex_search(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            inst = random_fixed_instance(rng)
            x = rng.uniform(0.0, 2.0, size=(inst.N, inst.T))
            value, u = worst_case_scenario(inst, x)
            assert lifted_set(inst).contains(u.reshape(-1), tol=1e-7)
            best = max(
                float(np.sum((total_cost(inst, x, np.zeros(inst.N), v)
                              - total_cost(inst, x, np.zeros(inst.N)))))
                for v in lifted_vertices(inst))
            assert_allclose(value, best, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")


class TestRobustMarketFixed:
    def test_two_period_reform_prices(self):
        inst = two_period_reform_instance()
        solution, E, worst = solve_robust_market_fixed(inst)
        assert_strict_worst_case(inst, solution, E, worst)
        assert_allclose(solution.prices, [2.0, 3.0], atol=VALUE_TOL)
        assert_allclose(solution.capacities.sum(), 2.0, atol=VALUE_TOL)
        # Worst case adds the largest per-period production on top of the
        # deterministic cost 5 (capacity 2 plus base production 3).
        expected = 5.0 + solution.production.max(axis=0).sum()
        assert_allclose(E, expected, atol=VALUE_TOL)

    def test_market_dominates_planner(self):
        rng = np.random.default_rng(41)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_fixed_instance(rng)
            solution, E, worst = solve_robust_market_fixed(inst)
            assert_strict_worst_case(inst, solution, E, worst)
            _, C, _ = solve_robust_cp_fixed(inst)
            assert C <= E + CHAIN_TOL, f"trial {trial}"

    def test_wrong_demand_type_rejected(self):
        with pytest.raises(ValueError):
            solve_robust_market_fixed(elastic_hull_instance())


class TestRobustCpFixed:
    def test_two_producer_peak_plan(self):
        inst = two_producer_peak_instance()
        solution, C, worst_u = solve_robust_cp_fixed(inst)
        assert_allclose(C, 3.0, atol=VALUE_TOL)
        assert_allclose(solution.prices, [1.5], atol=VALUE_TOL)
        assert_allclose(solution.capacities, [1.0, 1.0], atol=VALUE_TOL)
        assert_allclose(worst_u.ravel(), [0.5, 0.5], atol=VALUE_TOL)
        assert_allclose(
            total_cost(inst, solution.production, solution.capacities, worst_u),
            C, atol=VALUE_TOL)

    def test_zero_scale_matches_nominal_planner(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            inst = random_fixed_instance(rng)
            for p in inst.producers:
                p.a = 0.0
            solution, C, _ = solve_robust_cp_fixed(inst)
            nominal = solve_nominal_fixed(inst)
            assert_allclose(C, nominal.objective, atol=VALUE_TOL,
                            err_msg=f"trial {trial}")

    def test_saddle_certificate_random(self):
        rng = np.random.default_rng(47)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_fixed_instance(rng)
            solution, C, worst_u = solve_robust_cp_fixed(inst)
            assert lifted_set(inst).contains(worst_u.reshape(-1),
                                             tol=1e-7), f"trial {trial}"
            cost_at_worst = total_cost(inst, solution.production,
                                       solution.capacities, worst_u)
            assert_allclose(cost_at_worst, C, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")

    def test_planner_pivot_count(self):
        # Pivots of the dualized planner LP are deterministic.  Summed over
        # these markets, on the primal path, they were 1677 with Bland's
        # rule on every pivot, 1595 with the slack start alone, 1038 with
        # the pricing rule alone and 653 with both; the condensed tableau's
        # rounding made that 630.  The cost is >= 0, so the LP is now solved
        # from its dual, which starts on its slacks: 121 + 110 + 130 + 199 =
        # 560 pivots, and 1334 with Bland's rule on every pivot, so the
        # bound fails if the pricing rule is lost.  TestDualPath in
        # test_solver.py checks that the dual path is taken.
        pivots = 0
        for spec in oracles.planner_lps():
            out = solve_lp(spec)
            assert out.status == "optimal"
            pivots += out.iterations
        assert pivots <= 800


class TestRobustElastic:
    def test_hull_instance_plan(self):
        inst = elastic_hull_instance()
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        assert_allclose(C, 1.62, atol=VALUE_TOL)
        assert_allclose(solution.capacities, [0.9, 0.9], atol=1e-6)
        assert_allclose(solution.prices, [3.2], atol=VALUE_TOL)
        assert_allclose(worst_u.ravel(), [0.75, 0.75], atol=1e-6)
        assert_allclose(
            welfare(inst, solution.production, solution.capacities, worst_u),
            C, atol=SADDLE_TOL)

    def test_hull_instance_market(self):
        inst = elastic_hull_instance()
        solution, E, worst = solve_robust_market_elastic(inst)
        assert_strict_worst_case(inst, solution, E, worst)
        assert_allclose(E, 0.32, atol=VALUE_TOL)
        assert_allclose(solution.production.sum(), 0.8, atol=VALUE_TOL)

    def test_zero_scale_matches_nominal_welfare(self):
        rng = np.random.default_rng(53)
        for trial in range(10):
            inst = random_elastic_instance(rng)
            for p in inst.producers:
                p.a = 0.0
            _, C, _ = solve_robust_cp_elastic(inst)
            nominal = solve_nominal_elastic(inst)
            assert_allclose(C, nominal.objective, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")

    def test_planner_dominates_market(self):
        rng = np.random.default_rng(59)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_elastic_instance(rng)
            solution, E, worst = solve_robust_market_elastic(inst)
            assert_strict_worst_case(inst, solution, E, worst)
            _, C, _ = solve_robust_cp_elastic(inst)
            assert E <= C + SADDLE_TOL, f"trial {trial}"

    @pytest.mark.parametrize("kind", ["simplex", "budget"])
    def test_large_units_pass_the_saddle_check(self, kind):
        # At a welfare of about 1e10 rounding alone leaves saddle gaps of
        # 1e-6 to 1e-5, about 1e-16 relative; an absolute tolerance of 1e-6
        # raised SaddleViolated on 18 of these 20 markets.
        rng = np.random.default_rng(11)
        workloads = _load_workloads()
        for trial in range(10):
            inst = large_units(workloads.elastic_market(rng, 4, 8, kind))
            solution, C, worst_u = solve_robust_cp_elastic(inst)
            gap = abs(welfare(inst, solution.production, solution.capacities, worst_u) - C)
            assert gap <= 1e-14 * abs(C), f"trial {trial}"
            if trial < 2:
                cert = verify_adjustable_equivalence(large_units(
                    workloads.elastic_market(rng, 3, 3, kind)))
                assert cert["dominated"] and cert["saddle_ok"], f"trial {trial}"

    def test_crash_start_passes_the_start_check_at_large_units(self):
        # With alpha and a times 1e9, the crash start's z grows with a while
        # the capacity rows' right-hand sides stay 0.  Judged against
        # 1 + max |b| alone, 4 of these 10 starts raised ValueError, which
        # the CLI reports as invalid input.  Judged relative to |A| |v|, as
        # the certificate judges the optimum, none does.  The planner still
        # fails on these markets (3 raise SaddleViolated, 1 Unbounded, the
        # rest as before), by the kernel's accuracy at such units, ROADMAP
        # item 14; only those errors may escape here.
        workloads = _load_workloads()
        for seed in range(10):
            inst = workloads.elastic_market(np.random.default_rng(seed), 3, 4, "simplex")
            inst = MarketInstance([Producer(p.c_inv, p.c_var, p.a * 1e9)
                                   for p in inst.producers],
                                  AffineElastic(inst.demand.alpha * 1e9, inst.demand.beta),
                                  inst.T, inst.uncertainty)
            try:
                solve_robust_cp_elastic(inst)
            except (SaddleViolated, Unbounded, NumericBreakdown):
                pass

    def test_saddle_certificate_random(self):
        rng = np.random.default_rng(61)
        for trial in range(20):
            inst = random_elastic_instance(rng)
            solution, C, worst_u = solve_robust_cp_elastic(inst)
            assert lifted_set(inst).contains(worst_u.reshape(-1),
                                             tol=1e-7), f"trial {trial}"
            welfare_at_worst = welfare(inst, solution.production,
                                       solution.capacities, worst_u)
            assert_allclose(welfare_at_worst, C, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")


def tight_robust_lp():
    """min over x >= 0 with x1 + x2 >= 1 of max over the 2-simplex of
    0.99 u1 x1 + u2 x2 (value 0.99/1.99, no certain cost)."""
    return RobustLp(A=np.array([[1.0, 1.0]]), B=np.zeros((1, 0)),
                    b=np.array([1.0]), c=np.zeros(2), d=np.zeros(0),
                    lam=np.array([0.99, 1.0]), U=simplex(2))


def _corrupt_adversary_duals(monkeypatch, name, rows, change):
    """Wrap robust.<name> so that its outcomes carry change(duals) on their
    last `rows` dual entries, the multipliers of the dualized adversary
    rows.  The robust program is the first solve through that binding (the
    elastic planner's crash LP goes through solve_lp), and its readout
    raises before any other."""
    original = getattr(robust, name)

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        duals = out.duals.copy()
        duals[-rows:] = change(duals[-rows:])
        return dataclasses.replace(out, duals=duals)

    monkeypatch.setattr(robust, name, corrupted)


class TestSingleWorstCasePath:
    """Every robust solve has one worst-case path: the planners read it off
    the duals of their dualized adversary, and a readout that fails its
    check raises SaddleViolated instead of being replaced."""

    # Shifted by 5 the multipliers leave every set in the unit box (the
    # elastic planner negates them); zeroed they stay in U but price none
    # of the surcharge the program value carries.
    @pytest.mark.parametrize("change, message", [
        (lambda duals: duals + 5.0, "leaves the uncertainty set"),
        (lambda duals: 0.0 * duals, "misses the program value"),
    ], ids=["shifted", "zeroed"])
    # In large units (a welfare of about 1e10 for cp_elastic) both changes
    # still exceed the saddle tolerance, relative to the program value.
    @pytest.mark.parametrize("solve, name, rows", [
        (lambda: solve_robust_cp_fixed(two_producer_peak_instance()), "_solve", 2),
        (lambda: solve_robust_cp_elastic(elastic_hull_instance()), "_solve", 2),
        (lambda: solve_robust_cp_fixed(large_units(two_producer_peak_instance())),
         "_solve", 2),
        (lambda: solve_robust_cp_elastic(large_units(elastic_hull_instance())),
         "_solve", 2),
        (lambda: solve_robust_lp(tight_robust_lp()), "solve_lp", 2),
    ], ids=["cp_fixed", "cp_elastic", "cp_fixed-1e3", "cp_elastic-1e3", "robust_lp"])
    def test_bad_dual_readout_raises(self, monkeypatch, solve, name, rows,
                                     change, message):
        _corrupt_adversary_duals(monkeypatch, name, rows, change)
        with pytest.raises(SaddleViolated, match=message):
            solve()

    def test_elastic_planner_solves_no_adversary_lp(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("adversary LP solved")

        # Built first: validating the instance's set solves its axis LPs.
        inst = elastic_hull_instance()
        monkeypatch.setattr(Polytope, "maximize", forbidden)
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        assert_allclose(C, 1.62, atol=VALUE_TOL)
        assert_allclose(
            welfare(inst, solution.production, solution.capacities, worst_u),
            C, atol=SADDLE_TOL)


class TestCanonicalizingSolves:
    """The two canonicalizing solves, the elastic planner's minimum-norm
    tie-break and the scenario form's minimum-norm duals, have no fallback:
    a failed solve raises NumericBreakdown.  The tie-break runs when the
    planner QP proves no unique optimum, and poses the optimal face with the
    T aggregate rows, not one Hessian row per production."""

    def test_tie_break_poses_t_aggregate_rows(self, monkeypatch):
        posed = {"planner": [], "tie-break": []}

        def recorder(key, solve):
            def record(spec, start=None):
                out = solve(spec, start=start)
                posed[key].append((spec, out))
                return out
            return record

        monkeypatch.setattr(market, "solve_qp", recorder("planner", market.solve_qp))
        monkeypatch.setattr(robust, "solve_qp", recorder("tie-break", robust.solve_qp))
        inst = twin_elastic_instance()
        solution, _, _ = solve_robust_cp_elastic(inst)
        ((planner, out),), ((tie_break, _),) = posed["planner"], posed["tie-break"]
        assert not out.unique_optimum
        assert_allclose(solution.capacities[:2], [1.225, 1.225], atol=1e-12)
        m, N, T = planner.n_rows, inst.N, inst.T
        assert tie_break.n_rows == m + T + 1
        assert tie_break.constraint_kinds[m:] == ("=",) * (T + 1)
        assert_array_equal(tie_break.constraint_matrix[:m], planner.constraint_matrix)
        aggregate = tie_break.constraint_matrix[m : m + T]
        assert_array_equal(aggregate[:, : N * T], np.tile(np.eye(T), N))
        assert not np.any(aggregate[:, N * T:])

    def test_unique_optimum_skips_the_tie_break(self, monkeypatch):
        def forbidden(spec, start=None):
            raise AssertionError("tie-break posed")

        inst = per_period_instance(np.random.default_rng(109), 3, 2, "simplex",
                                   elastic=True)
        oracle, C_qp, _ = oracles.robust_welfare_qp(inst)
        monkeypatch.setattr(robust, "solve_qp", forbidden)
        solution, C, _ = solve_robust_cp_elastic(inst)
        assert abs(C - C_qp) <= 1e-12 * abs(C_qp)
        assert_allclose(solution.capacities, oracle.capacities, rtol=0, atol=1e-9)

    def test_failed_tie_break_raises(self, monkeypatch):
        def not_optimal(spec, start=None):
            return SolveOutcome("infeasible", 0)

        monkeypatch.setattr(robust, "solve_qp", not_optimal)
        with pytest.raises(NumericBreakdown, match="projection"):
            solve_robust_cp_elastic(elastic_hull_instance())

    def test_missing_support_duals_raise(self, monkeypatch):
        # The duals QP is the only QP of the fixed-demand scenario form.
        def not_optimal(spec, start=None):
            return SolveOutcome("infeasible", 0)

        monkeypatch.setattr(robust, "solve_qp", not_optimal)
        with pytest.raises(NumericBreakdown, match="slack copies"):
            adjustable_scenario_form_fixed(two_producer_peak_instance())


class TestAdjustableEquivalence:
    def test_two_producer_peak_certificate(self):
        inst = two_producer_peak_instance()
        cert = verify_adjustable_equivalence(inst, samples=16)
        assert cert["demand_mode"] == "fixed"
        assert_allclose(cert["value"], 3.0, atol=VALUE_TOL)
        # Vertices come sorted: (0,0), (0,1), (1,0); past the investment
        # cost 2, the nominal scenario dispatches for 0, either concentrated
        # scenario forces production cost 1.
        assert_array_equal(cert["vertices"], [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert_allclose(cert["vertex_values"], [[0.0], [1.0], [1.0]], atol=VALUE_TOL)
        assert_allclose(cert["worst_vertex_value"], 3.0, atol=VALUE_TOL)
        assert cert["dominated"] and cert["saddle_ok"]

    def test_hull_instance_certificate(self):
        inst = elastic_hull_instance()
        cert = verify_adjustable_equivalence(inst, samples=16)
        assert cert["demand_mode"] == "elastic"
        assert_allclose(cert["value"], 1.62, atol=VALUE_TOL)
        # Period welfare before the investment cost 0.2 * (0.9 + 0.9).
        assert_allclose(sorted(cert["vertex_values"][:, 0]),
                        [1.98, 4.10, 4.10, 7.38], atol=1e-6)
        assert_allclose(cert["worst_vertex_value"], cert["value"], atol=1e-6)

    def test_random_instances_verify(self):
        rng = np.random.default_rng(67)
        for trial in range(12):
            inst = random_fixed_instance(rng)
            cert = verify_adjustable_equivalence(inst, samples=8, seed=trial)
            assert cert["dominated"] and cert["saddle_ok"], f"trial {trial}"
        for trial in range(8):
            inst = random_elastic_instance(rng)
            cert = verify_adjustable_equivalence(inst, samples=8, seed=trial)
            assert cert["dominated"] and cert["saddle_ok"], f"trial {trial}"

    def test_bad_sample_count_rejected(self):
        with pytest.raises(ValueError):
            verify_adjustable_equivalence(two_producer_peak_instance(), samples=0)

    def test_escaping_vertex_value_raises(self, monkeypatch):
        # A planner value below the worst vertex cost 3 is escaped by it.
        inst = two_producer_peak_instance()
        solution, C, worst_u = solve_robust_cp_fixed(inst)
        monkeypatch.setattr(robust, "solve_robust_cp_fixed",
                            lambda _: (solution, C - 1.0, worst_u))
        with pytest.raises(SaddleViolated, match="escape the planner value 2.0"):
            verify_adjustable_equivalence(inst, samples=4)

    def test_worst_u_missing_value_raises(self, monkeypatch):
        # The nominal scenario costs 2 at the planner's capacities, not C = 3.
        inst = two_producer_peak_instance()
        solution, C, worst_u = solve_robust_cp_fixed(inst)
        monkeypatch.setattr(robust, "solve_robust_cp_fixed",
                            lambda _: (solution, C, np.zeros_like(worst_u)))
        with pytest.raises(SaddleViolated, match="misses the planner value by 1.000e"):
            verify_adjustable_equivalence(inst, samples=4)

    def test_capacities_clipped_like_pinned_dispatch(self, monkeypatch):
        """The planner's capacities can carry entries like -2.6e-15; the
        certificate dispatches and reports them clipped at zero, exactly as
        dispatch_at_capacity does."""
        inst = per_period_instance(np.random.default_rng([107, 2, 2, True, True]),
                                   2, 2, "box", elastic=True)
        solution, C, worst_u = solve_robust_cp_elastic(inst)
        y = solution.capacities.copy()
        idle = int(np.argmin(np.abs(y)))
        assert abs(y[idle]) < 1e-12
        y[idle] = -2.6e-15
        monkeypatch.setattr(robust, "solve_robust_cp_elastic", lambda _: (
            dataclasses.replace(solution, capacities=y), C, worst_u))
        cert = verify_adjustable_equivalence(inst, samples=4)
        clipped = np.maximum(y, 0.0)
        assert np.all(cert["capacities"] >= 0.0)
        assert _bits(cert["capacities"]) == _bits(clipped)
        c_inv = np.array([p.c_inv for p in inst.producers])
        for v, periods in zip(enumerate_vertices(inst.uncertainty), cert["vertex_values"]):
            value, _ = dispatch_at_capacity(inst, clipped, np.repeat(v[:, None], inst.T, axis=1))
            assert _bits(value) == _bits(periods.sum() - c_inv @ clipped)


class TestScenarioForm:
    def test_two_producer_peak_duals(self):
        inst = two_producer_peak_instance()
        form = adjustable_scenario_form_fixed(inst)
        assert_allclose(form["value"], 3.0, atol=VALUE_TOL)
        assert_allclose(form["capacities"], [1.0, 1.0], atol=VALUE_TOL)
        assert_allclose(form["epigraph"], 1.0, atol=VALUE_TOL)
        by_scenario = {tuple(s.ravel()): form["clearing_duals"][j, 0]
                       for j, s in enumerate(form["scenarios"])}
        assert_allclose(by_scenario[(1.0, 0.0)], 0.75, atol=VALUE_TOL)
        assert_allclose(by_scenario[(0.0, 1.0)], 0.75, atol=VALUE_TOL)
        assert_allclose(by_scenario[(0.0, 0.0)], 0.0, atol=VALUE_TOL)

    def test_lower_bounds_strict_planner_value(self):
        # Scenario dispatch value is concave in the scenario, so restricting
        # the adversary to vertices can only lower the optimum.
        rng = np.random.default_rng(71)
        for trial in range(15):
            inst = random_fixed_instance(rng)
            form = adjustable_scenario_form_fixed(inst)
            _, C, _ = solve_robust_cp_fixed(inst)
            assert form["value"] <= C + SADDLE_TOL, f"trial {trial}"

    def test_exact_when_dispatch_is_forced(self):
        # Single producer: clearing pins production, the dispatch value is
        # linear in the scenario, and the vertex restriction is exact.
        rng = np.random.default_rng(79)
        for trial in range(10):
            T = int(rng.integers(1, 3))
            inst = MarketInstance(
                producers=[Producer(c_inv=float(rng.uniform(0.1, 1.0)),
                                    c_var=float(rng.uniform(0.1, 1.0)),
                                    a=float(rng.uniform(0.2, 1.5)))],
                demand=Fixed(rng.uniform(0.5, 2.0, size=T)),
                T=T,
                uncertainty=box(1),
            )
            form = adjustable_scenario_form_fixed(inst)
            _, C, _ = solve_robust_cp_fixed(inst)
            assert_allclose(form["value"], C, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")

    def test_scenario_dispatches_feasible(self):
        rng = np.random.default_rng(73)
        inst = random_fixed_instance(rng)
        form = adjustable_scenario_form_fixed(inst)
        for scenario, x in zip(form["scenarios"], form["productions"]):
            assert np.all(x <= form["capacities"][:, None] + 1e-9)
            assert_allclose(x.sum(axis=0), inst.demand.d, atol=1e-9)
            cost = total_cost(inst, x, np.zeros(inst.N), scenario)
            assert cost <= form["epigraph"] + 1e-7

    def test_elastic_demand_rejected(self):
        with pytest.raises(ValueError):
            adjustable_scenario_form_fixed(elastic_hull_instance())


DISPATCH_TOL = 1e-9


class TestDispatchAtCapacity:
    def test_fixed_dispatch_infeasible_capacity(self):
        inst = two_producer_peak_instance()
        with pytest.raises(Infeasible):
            dispatch_at_capacity(inst, np.array([0.5, 0.5]), None)

    def test_elastic_dispatch_zero_capacity(self):
        inst = elastic_hull_instance()
        value, x = dispatch_at_capacity(inst, np.zeros(2), None)
        assert_allclose(x, 0.0, atol=1e-12)
        assert_allclose(value, 0.0, atol=1e-12)

    @pytest.mark.parametrize("N, T, U", [(2, 2, "box"), (2, 3, "simplex"),
                                         (3, 2, "box")])
    def test_elastic_dispatch_matches_pinned_welfare(self, N, T, U):
        # The certificate and the subsidies evaluate one pinned program; at
        # every lifted vertex and at an interior mixture both readings agree.
        rng = np.random.default_rng(100 + 10 * N + T)
        inst = per_period_instance(rng, N, T, U, elastic=True)
        y = rng.uniform(0.2, 1.5, size=N)
        vertices = lifted_vertices(inst)
        weights = rng.dirichlet(np.ones(len(vertices)))
        mixture = sum(w * v for w, v in zip(weights, vertices))
        for u in vertices + [mixture]:
            value, x = dispatch_at_capacity(inst, y, u)
            pinned = solve_fixed_capacity_welfare(inst, y, u)
            assert_allclose(value, pinned.value, atol=DISPATCH_TOL, rtol=0)
            assert_allclose(x, pinned.x, atol=DISPATCH_TOL, rtol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_fixed_dispatch_matches_merit_order(self, seed):
        rng = np.random.default_rng(seed)
        N, T = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        inst = per_period_instance(rng, N, T, "box" if seed % 2 else "simplex",
                                   elastic=False)
        # Capacities that cover the peak demand with room to spare.
        y = rng.uniform(0.2, 1.0, size=N)
        y *= 1.25 * inst.demand.d.max() / y.sum()
        c_inv = np.array([p.c_inv for p in inst.producers])
        vertices = lifted_vertices(inst)
        weights = rng.dirichlet(np.ones(len(vertices)))
        mixture = sum(w * v for w, v in zip(weights, vertices))
        for u in vertices + [mixture]:
            value, _ = dispatch_at_capacity(inst, y, u)
            merit_cost, _ = merit_order_dispatch(cost_matrix(inst, u), y,
                                                 inst.demand.d)
            assert_allclose(value, c_inv @ y + merit_cost, atol=DISPATCH_TOL,
                            rtol=0)


# ---------------------------------------------------------------------------
# per-period scalings a_{i,t} against the vertex-epigraph programs

EPIGRAPH_TOL = 1e-9

# (N, T, uncertainty set): N != T both ways and N == T, box and simplex.
PER_PERIOD_SHAPES = [(N, T, U) for N, T in ((2, 3), (3, 2), (2, 2), (3, 3))
                     for U in ("box", "simplex")]


def per_period_instance(rng, N, T, U, elastic):
    """Random instance whose uncertainty scalings vary by period."""
    producers = [Producer(c_inv=float(rng.uniform(0.1, 1.0)),
                          c_var=float(rng.uniform(0.1, 1.5)),
                          a_by_period=rng.uniform(0.0, 1.5, size=T))
                 for _ in range(N)]
    if elastic:
        demand = AffineElastic(rng.uniform(2.0, 6.0, size=T),
                               rng.uniform(0.5, 2.0, size=T))
    else:
        demand = Fixed(rng.uniform(0.5, 3.0, size=T))
    uncertainty = box(N) if U == "box" else simplex(N)
    return MarketInstance(producers=producers, demand=demand, T=T,
                          uncertainty=uncertainty)


def epigraph_rows(inst):
    """Rows over (x_{i,t} producer-major, y, theta), all <= 0: one
    sum_{i,t} c_{i,t}(v) x_{i,t} - theta per lifted vertex v, then the
    capacity rows x_{i,t} - y_i."""
    N, T = inst.N, inst.T
    rows = []
    for v in lifted_vertices(inst):
        costs = cost_matrix(inst, v)
        row = np.zeros(N * T + N + 1)
        for i in range(N):
            for t in range(T):
                row[i * T + t] = costs[i, t]
        row[-1] = -1.0
        rows.append(row)
    for i in range(N):
        for t in range(T):
            row = np.zeros(N * T + N + 1)
            row[i * T + t] = 1.0
            row[N * T + i] = -1.0
            rows.append(row)
    return np.array(rows)


def fixed_epigraph_value(inst):
    """min c_inv' y + theta over the vertex epigraph, solved by HiGHS."""
    N, T = inst.N, inst.T
    clearing = np.zeros((T, N * T + N + 1))
    for t in range(T):
        for i in range(N):
            clearing[t, i * T + t] = 1.0
    c_inv = [p.c_inv for p in inst.producers]
    cost = np.concatenate([np.zeros(N * T), c_inv, [1.0]])
    A = epigraph_rows(inst)
    res = linprog(cost, A_ub=A, b_ub=np.zeros(A.shape[0]), A_eq=clearing,
                  b_eq=inst.demand.d, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


def elastic_epigraph_value(inst):
    """max sum_t (alpha_t s_t - beta_t s_t^2 / 2) - c_inv' y - theta over the
    vertex epigraph, with s_t = sum_i x_{i,t}."""
    N, T = inst.N, inst.T
    n = N * T + N + 1
    Q = np.zeros((n, n))
    cost = np.zeros(n)
    for t in range(T):
        for i in range(N):
            cost[i * T + t] = inst.demand.alpha[t]
            for j in range(N):
                Q[i * T + t, j * T + t] = -inst.demand.beta[t]
    cost[N * T : N * T + N] = [-p.c_inv for p in inst.producers]
    cost[-1] = -1.0
    A = epigraph_rows(inst)
    out = solve_qp(QpSpec("max", cost, A, np.zeros(A.shape[0]),
                          ["<="] * A.shape[0], quadratic_matrix=Q))
    assert out.status == "optimal"
    return out.objective


class TestPerPeriodScalings:
    """Planner values with a_{i,t} varying by period equal the optimum over
    the vertex epigraph of the lifted set, an independent formulation that
    applies the scalings through cost_matrix only."""

    @pytest.mark.parametrize("N, T, U", PER_PERIOD_SHAPES)
    def test_fixed_planner_matches_vertex_epigraph(self, N, T, U):
        rng = np.random.default_rng([71, N, T, U == "box"])
        for trial in range(3):
            inst = per_period_instance(rng, N, T, U, elastic=False)
            _, C, _ = solve_robust_cp_fixed(inst)
            assert_allclose(C, fixed_epigraph_value(inst), atol=EPIGRAPH_TOL,
                            rtol=0, err_msg=f"trial {trial}")

    @pytest.mark.parametrize("N, T, U", PER_PERIOD_SHAPES)
    def test_elastic_planner_matches_vertex_epigraph(self, N, T, U):
        rng = np.random.default_rng([73, N, T, U == "box"])
        for trial in range(2):
            inst = per_period_instance(rng, N, T, U, elastic=True)
            _, C, _ = solve_robust_cp_elastic(inst)
            assert_allclose(C, elastic_epigraph_value(inst), atol=EPIGRAPH_TOL,
                            rtol=0, err_msg=f"trial {trial}")


# ---------------------------------------------------------------------------
# lifted-vertex outputs composed from one pinned solve per per-period vertex

COMPOSITION_TOL = 1e-9
COMPOSITION_KKT_TOL = 1e-7

# T in {2, 3}, box and simplex; per_period_instance varies a and demand by period.
COMPOSITION_SHAPES = [(N, T, U) for N, T in ((2, 2), (2, 3), (3, 2))
                      for U in ("box", "simplex")]


def _count_solves(monkeypatch):
    """Wrap solve_lp and solve_qp at every module binding in the package;
    returns the list that each solver call appends (name, spec) to."""
    calls = []
    bound = 0
    for name in ("solve_lp", "solve_qp"):
        original = getattr(solver, name)

        def counted(*args, _original=original, **kwargs):
            calls.append((_original.__name__, args[0]))
            return _original(*args, **kwargs)

        for info in pkgutil.iter_modules(robust_peakload.__path__):
            module = importlib.import_module(f"robust_peakload.{info.name}")
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
                bound += 1
    assert bound >= 4  # solver, market, robust and geometry at least
    return calls


class TestPeriodComposition:
    """The certificate and the subsidies solve the pinned second stage once
    per per-period vertex and return data over those |V| vertices; composed
    into the lifted layout, it must equal the direct solve at every lifted
    vertex, in lifted_vertices order."""

    @pytest.mark.parametrize("elastic", [False, True], ids=["fixed", "elastic"])
    @pytest.mark.parametrize("N, T, U", COMPOSITION_SHAPES)
    def test_vertex_values_match_direct_dispatch(self, N, T, U, elastic):
        rng = np.random.default_rng([79, N, T, U == "box", elastic])
        inst = per_period_instance(rng, N, T, U, elastic=elastic)
        cert = verify_adjustable_equivalence(inst, samples=1)
        V = len(enumerate_vertices(inst.uncertainty))
        assert cert["vertices"].shape == (V, N)
        assert cert["vertex_values"].shape == (V, T)
        vertices = lifted_vertices(inst)
        assert_array_equal(compose_lifted(np.repeat(cert["vertices"][:, :, None], T, axis=2)),
                           vertices)
        c_inv = np.array([p.c_inv for p in inst.producers])
        investment = (-1.0 if elastic else 1.0) * (c_inv @ cert["capacities"])
        composed = investment + compose_lifted(cert["vertex_values"]).sum(axis=1)
        direct = [dispatch_at_capacity(inst, cert["capacities"], u)[0] for u in vertices]
        assert_allclose(composed, direct, atol=COMPOSITION_TOL, rtol=0)
        worst = min(direct) if elastic else max(direct)
        assert_allclose(cert["worst_vertex_value"], worst, atol=COMPOSITION_TOL, rtol=0)

    @pytest.mark.parametrize("N, T, U", COMPOSITION_SHAPES)
    def test_subsidy_results_match_direct_solves(self, N, T, U):
        rng = np.random.default_rng([83, N, T, U == "box"])
        inst = per_period_instance(rng, N, T, U, elastic=True)
        bundle = compute_subsidies(inst, audit_samples=0)
        assert np.any(bundle.y_star > 0.0)
        vertices = enumerate_vertices(inst.uncertainty)
        assert len(bundle.scenario_results) == len(vertices)
        for k, (res, v) in enumerate(zip(bundle.scenario_results, vertices)):
            u = np.repeat(v[:, None], T, axis=1)
            direct = solve_fixed_capacity_welfare(inst, bundle.y_star, u)
            for name in ("u", "x", "pi", "mu", "phi", "chi", "value"):
                assert_allclose(getattr(res, name), getattr(direct, name),
                                atol=COMPOSITION_TOL, rtol=0,
                                err_msg=f"{name} at vertex {k}")
            residuals = kkt_residuals(inst, bundle.y_star, res)
            assert max(residuals.values()) <= COMPOSITION_KKT_TOL, (k, residuals)

    def test_pinned_solve_counts(self, monkeypatch):
        # 2 x 4 box: 4 per-period vertices against 256 lifted ones.  The
        # pinned second stage is a closed form, so the certificate and the
        # subsidies make the planner's solver calls and no more, whatever
        # the number of samples.
        rng = np.random.default_rng(89)
        inst = per_period_instance(rng, 2, 4, "box", elastic=True)
        calls = _count_solves(monkeypatch)
        solve_robust_cp_elastic(inst)
        planner = len(calls)
        assert planner >= 1
        for samples in (3, 30):
            calls.clear()
            verify_adjustable_equivalence(inst, samples=samples)
            assert len(calls) == planner, samples
        for audit_samples in (5, 50):
            calls.clear()
            bundle = compute_subsidies(inst, audit_samples=audit_samples)
            assert len(calls) == planner, audit_samples
        assert len(bundle.scenario_results) == 4


def _load_workloads():
    """perfbench/workloads.py, loaded from the checkout as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_instances():
    """(id, instance) pairs: the instances of perfbench's adjustable_vertices
    workload for run seeds 1, 5 and 9173 (T <= 4; the rungs drawn from the
    fixed suite appear once), then the fixed and elastic instances of the
    COMPOSITION_SHAPES."""
    workloads = _load_workloads()
    cases = []
    for seed in (1, 5, 9173):
        for index, (N, T, kind, source, flows) in enumerate(workloads.ADJUSTABLE):
            if source == "suite" and seed != 1:
                continue
            rng = workloads._rng(source, seed, 3, index)
            for flow in flows:
                make = workloads.elastic_market if flow == "elastic" else workloads.fixed_market
                name = "elastic" if flow == "elastic" else "fixed"
                label = f"{source}{seed if source == 'seed' else ''}-{N}x{T}-{kind}-{name}"
                cases.append((label, make(rng, N, T, kind)))
    for N, T, U in COMPOSITION_SHAPES:
        for elastic in (False, True):
            rng = np.random.default_rng([107, N, T, U == "box", elastic])
            cases.append((f"shape-{N}x{T}-{U}-{'elastic' if elastic else 'fixed'}",
                          per_period_instance(rng, N, T, U, elastic=elastic)))
    return cases


ORACLE_CASES = _oracle_instances()


def _bits(value):
    """Bytes of a float array with signed zeros folded."""
    return (np.asarray(value, dtype=float) + 0.0).tobytes()


class TestComposedOracle:
    """Every output over the |V| per-period vertices, composed into the
    lifted layout by the oracle, equals bit for bit what the lifted |V|^T
    computation gives: the subsidies, the verification record, the result
    fields, the prices, the certificate's worst vertex value, and the
    scenario form's layout."""

    @pytest.mark.parametrize("inst", [inst for _, inst in ORACLE_CASES],
                             ids=[label for label, _ in ORACLE_CASES])
    def test_matches_composed_oracle(self, inst):
        T = inst.T
        V = len(enumerate_vertices(inst.uncertainty))
        vertices = lifted_vertices(inst)
        assert len(vertices) == V ** T

        # The certificate: the value at every lifted vertex, composed from
        # the period values, then its worst.
        cert = verify_adjustable_equivalence(inst, samples=8)
        fixed = isinstance(inst.demand, Fixed)
        c_inv = np.array([p.c_inv for p in inst.producers])
        values = ((1.0 if fixed else -1.0) * (c_inv @ cert["capacities"])
                  + compose_lifted(cert["vertex_values"]).sum(axis=1))
        worst = values.max() if fixed else values.min()
        assert _bits(cert["worst_vertex_value"]) == _bits(worst)
        gap = (1.0 if fixed else -1.0) * (np.append(cert["sample_values"], worst)
                                          - cert["value"])
        assert cert["dominated"] == bool(np.all(gap <= SADDLE_TOL))

        if fixed:
            # The scenario form's rows compose to the lifted vertices; its
            # composed productions are checked in TestScenarioFormByPeriod.
            form = adjustable_scenario_form_fixed(inst)
            assert form["scenarios"].shape == form["productions"].shape == (V, inst.N, T)
            assert _bits(compose_lifted(form["scenarios"])) == _bits(vertices)
            return

        bundle = compute_subsidies(inst, audit_samples=0)
        results = bundle.scenario_results
        assert len(results) == V
        lifted = [solve_fixed_capacity_welfare(inst, bundle.y_star, u) for u in vertices]
        for name in ("u", "x", "pi", "mu", "phi"):
            composed = compose_lifted(np.array([getattr(res, name) for res in results]))
            assert _bits(composed) == _bits([getattr(res, name) for res in lifted]), name
        mu = compose_lifted(np.array([res.mu for res in results]))
        assert _bits(mu.sum(axis=2) - c_inv) == _bits([res.chi for res in lifted])

        expected = oracles.lifted_subsidy_checks(inst, bundle.eta, bundle.y_star, lifted)
        assert _bits(bundle.eta) == _bits(expected["eta"])
        rng = np.random.default_rng(V ** T)
        for eta in (bundle.eta, np.zeros(inst.N), bundle.eta + rng.normal(0.0, 0.05, inst.N),
                    bundle.eta + 0.3):
            record, _ = _verification(inst, eta, bundle.y_star, results)
            expected = oracles.lifted_subsidy_checks(inst, eta, bundle.y_star, lifted)
            for key in ("worst_case_profits", "max_deviation_gain"):
                assert _bits(record[key]) == _bits(expected[key]), key
            assert record["is_equilibrium"] == expected["is_equilibrium"]

        table = build_price_functions(bundle)
        keys = [tuple(v.tolist()) for v in enumerate_vertices(inst.uncertainty)]
        assert sorted(table) == sorted(keys)
        for k, res in enumerate(lifted):
            for t, j in enumerate(per_period_index(k, V, T)):
                assert _bits(table[keys[j]][t]) == _bits(res.pi[t]), (k, t)


class TestScenarioFormByPeriod:
    """The scenario form is solved per (per-period vertex, period) copy; its
    value must equal the lifted-vertex program's, its |V| x T clearing
    duals must price the demand at that value, and its |V| x N x T
    productions, composed in lifted_vertices order, must be feasible and
    within the epigraph."""

    @staticmethod
    def form_and_instance(N, T, U):
        rng = np.random.default_rng([97, N, T, U == "box"])
        inst = per_period_instance(rng, N, T, U, elastic=False)
        return inst, adjustable_scenario_form_fixed(inst)

    @pytest.mark.parametrize("N, T, U", COMPOSITION_SHAPES)
    def test_value_matches_lifted_program(self, N, T, U):
        inst, form = self.form_and_instance(N, T, U)
        assert_allclose(form["value"], lifted_scenario_form(inst),
                        atol=COMPOSITION_TOL, rtol=0)

    @staticmethod
    def tied_form(seed):
        """A random_fixed_instance draw with N >= 2 whose last producer is a
        copy of its first, and its scenario form."""
        rng = np.random.default_rng([113, seed])
        inst = random_fixed_instance(rng)
        while inst.N < 2:
            inst = random_fixed_instance(rng)
        inst = dataclasses.replace(inst, producers=inst.producers[:-1] + inst.producers[:1])
        return inst, adjustable_scenario_form_fixed(inst)

    @pytest.mark.parametrize("case", [
        *(pytest.param(shape, id="-".join(map(str, shape))) for shape in COMPOSITION_SHAPES),
        *(pytest.param(seed, id=f"tied-{seed}") for seed in range(8)),
    ])
    def test_clearing_duals_price_the_demand(self, case):
        inst, form = (self.tied_form(case) if isinstance(case, int)
                      else self.form_and_instance(*case))
        duals = form["clearing_duals"]
        assert duals.shape == (len(enumerate_vertices(inst.uncertainty)), inst.T)
        assert_allclose(np.sum(duals * inst.demand.d[None, :]), form["value"],
                        atol=COMPOSITION_TOL, rtol=0)
        # theta_t is the largest copy cost of period t; a copy below it has
        # a slack epigraph row and carries no clearing-dual mass.
        copy_costs = np.sum(cost_matrix(inst, form["scenarios"]) * form["productions"],
                            axis=1)
        slack = copy_costs.max(axis=0) - copy_costs
        assert np.all(duals[slack > 1e-6 * (1.0 + abs(form["value"]))] == 0.0)

    @pytest.mark.parametrize("N, T, U", COMPOSITION_SHAPES)
    def test_composed_productions_feasible(self, N, T, U):
        inst, form = self.form_and_instance(N, T, U)
        V = len(enumerate_vertices(inst.uncertainty))
        assert form["scenarios"].shape == form["productions"].shape == (V, N, T)
        vertices = lifted_vertices(inst)
        zero = np.zeros(N)
        for k, (u, scenario, x) in enumerate(zip(vertices,
                                                 compose_lifted(form["scenarios"]),
                                                 compose_lifted(form["productions"]))):
            assert_array_equal(scenario, u)
            assert np.all(x >= -1e-9), k
            assert np.all(x <= form["capacities"][:, None] + 1e-9), k
            assert_allclose(x.sum(axis=0), inst.demand.d, atol=1e-9,
                            err_msg=f"vertex {k}")
            assert total_cost(inst, x, zero, u) <= form["epigraph"] + 1e-7, k

    def test_one_small_lp(self, monkeypatch):
        # 2 x 4 simplex: 3 per-period vertices, so 12 copies of 2
        # productions (12 * 4 = 48 rows) against 81 lifted copies of 8.  A
        # box holds its greatest element and poses the nominal planner
        # instead (TestCornerPaths).
        rng = np.random.default_rng(101)
        inst = per_period_instance(rng, 2, 4, "simplex", elastic=False)
        calls = _count_solves(monkeypatch)
        form = adjustable_scenario_form_fixed(inst)
        lps = [spec for name, spec in calls if name == "solve_lp" and np.any(spec.cost)]
        assert len(lps) == 1
        assert lps[0].n_rows == 3 * inst.T * (inst.N + 2)
        # The rest is the one minimum-norm dual QP, which finds its first
        # feasible point by its own phase 1, with no feasibility LP.
        names = [name for name, _ in calls]
        assert names.count("solve_qp") == 1
        assert names.count("solve_lp") == 1
        assert form["productions"].shape == (3, inst.N, inst.T)


def _qp_bytes(spec):
    """The bytes of every field of a QpSpec."""
    return [np.asarray(value).tobytes() for value in vars(spec).values()]


class TestMinNormDuals:
    """_min_norm_duals builds its QP from kind masks; it must pose the QP of
    the row-by-row oracle byte for byte and return the same duals, on the
    scenario-form LPs it canonicalizes, with and without the support
    restriction, and raise NumericBreakdown wherever the oracle finds no
    duals (returns None)."""

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_loop_oracle(self, monkeypatch, trial):
        rng = np.random.default_rng([103, trial])
        if trial < 12:
            N, T, U = COMPOSITION_SHAPES[trial % len(COMPOSITION_SHAPES)]
            inst = per_period_instance(rng, N, T, U, elastic=False)
        else:
            inst = random_fixed_instance(rng)
        forms = []
        original = robust._min_norm_duals

        def record(spec, outcome, rows):
            forms.append((spec, outcome, rows))
            return original(spec, outcome, rows)

        monkeypatch.setattr(robust, "_min_norm_duals", record)
        # The LP of the scenario form, which adjustable_scenario_form_fixed
        # does not pose on a box (its greatest element dominates).
        robust._vertex_scenario_form(inst, robust._constant_scenarios(inst))
        monkeypatch.undo()
        assert forms
        spec, outcome, rows = forms[0]
        for force_zero in (rows, []):
            posed = []

            def capture(qp, start=None):
                posed.append(qp)
                return solve_qp(qp, start=start)

            monkeypatch.setattr(robust, "solve_qp", capture)
            monkeypatch.setattr(oracles, "solve_qp", capture)
            expected = oracles.min_norm_duals_loop(spec, outcome, force_zero)
            if expected is None:
                with pytest.raises(NumericBreakdown, match="slack copies"):
                    robust._min_norm_duals(spec, outcome, force_zero)
            else:
                duals = robust._min_norm_duals(spec, outcome, force_zero)
                assert duals.tobytes() == expected.tobytes()
            monkeypatch.undo()
            assert len(posed) == 2
            assert _qp_bytes(posed[0]) == _qp_bytes(posed[1])

    # min x1 + x2 s.t. x1 >= 1, x2 >= 1: both rows bind at (1, 1) and price
    # one unit each.  With row 0's multiplier forced to zero the duals QP is
    # infeasible; with both forced no multiplier is left to price the cost.
    @pytest.mark.parametrize("force_zero", [[0], [0, 1]], ids=["infeasible_qp", "no_rows"])
    def test_no_duals_raise_like_the_oracle(self, force_zero):
        spec = LpSpec("min", [1.0, 1.0], np.eye(2), [1.0, 1.0], [">=", ">="])
        outcome = solver.solve_lp(spec)
        assert oracles.min_norm_duals_loop(spec, outcome, force_zero) is None
        with pytest.raises(NumericBreakdown, match="slack copies"):
            robust._min_norm_duals(spec, outcome, force_zero)

    def test_zero_duals_when_no_row_binds(self):
        # min x s.t. x <= 5: x = 0 with the row slack, reduced cost 1.  No
        # row participates, the duals QP has no variables, and zero duals
        # are optimal.
        spec = LpSpec("min", [1.0], [[1.0]], [5.0], ["<="])
        outcome = solver.solve_lp(spec)
        assert_array_equal(oracles.min_norm_duals_loop(spec, outcome, []), [0.0])
        assert_array_equal(robust._min_norm_duals(spec, outcome, []), [0.0])

    def test_forced_binding_row_raises(self):
        # min x s.t. x >= 3: x = 3 > 0 needs the row's multiplier 1 to price
        # the cost; with that multiplier forced to zero nothing prices it.
        spec = LpSpec("min", [1.0], [[1.0]], [3.0], [">="])
        outcome = solver.solve_lp(spec)
        with pytest.raises(NumericBreakdown, match="slack copies"):
            robust._min_norm_duals(spec, outcome, [0])


class TestQpFactorUpdates:
    """solve_qp pivots the condensed tableau instead of factoring its rows
    at each step: on the robust planner and its crash LP, on the same
    planner QP started cold with its tie-break (the oracle), and on the
    planner of a tied market with its tie-break, the SVD-based calls of
    solver.py number none for the LP and at most one per QP (the
    minimum-norm equality duals), and only for a QP with "=" rows.  The
    iteration counts are those of the kernels: 44 dual pivots for the crash
    LP and one step for the planner QP started at the LP's vertex, whose
    optimum it proves unique, so no tie-break runs; from the origin the
    planner QP takes 62 steps, and the oracle's tie-break, crossed over at
    its optimum, one.  The tied market (twin_elastic_instance) takes 9
    pivots, then 4 + 4 steps, the tie-break included."""

    def test_no_svd_per_step(self, monkeypatch):
        inst = _load_workloads().elastic_market(np.random.default_rng(3), 4, 8, "simplex")
        svd_calls = []
        for name in ("svd", "matrix_rank", "lstsq", "pinv"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                if Path(sys._getframe(1).f_code.co_filename).name == "solver.py":
                    svd_calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        solves = []

        def recorded(solve):
            def record(spec, **kwargs):
                before = len(svd_calls)
                out = solve(spec, **kwargs)
                solves.append((solve.__name__, out.iterations, "=" in spec.constraint_kinds,
                               len(svd_calls) - before))
                return out
            return record

        monkeypatch.setattr(market, "solve_qp", recorded(solver.solve_qp))
        monkeypatch.setattr(robust, "solve_qp", recorded(solver.solve_qp))
        monkeypatch.setattr(robust, "solve_lp", recorded(solver.solve_lp))
        solve_robust_cp_elastic(inst)
        oracles.robust_welfare_qp(inst)
        solve_robust_cp_elastic(twin_elastic_instance())
        assert [(name, iterations) for name, iterations, _, _ in solves] == [
            ("solve_lp", 44), ("solve_qp", 1),
            ("solve_qp", 62), ("solve_qp", 1),
            ("solve_lp", 9), ("solve_qp", 4), ("solve_qp", 4)]
        for name, _, has_eq, calls in solves:
            assert calls <= (1 if has_eq and name == "solve_qp" else 0)


class TestElasticPlannerSteps:
    """The elastic planner at 8x24 on box and budget sets, the shapes that
    were slow under the former working-set QP (ROADMAP item 3).  Its
    iteration counts are deterministic: with perfbench's generator and
    default_rng(3), the budget planner's crash LP takes 242 dual pivots,
    then the planner QP 9 steps (416 from the origin), and it proves its
    optimum unique, so no tie-break runs (it took 10 steps).  The dualized
    box planner took 402 + 355, and pricing by Bland's rule from the 61st
    stalled step on, as the simplex does, gave its tie-break 926, so a
    bound of 500 per QP catches a lost stall rule.  The planner at the
    box's greatest element took the welfare QP there (37 steps, unique,
    where the tie-break took 2); it now takes the screening curves, which
    prove the plan unique, and poses no QP.  The dualized program is posed,
    from the origin, by its oracle, which always runs the tie-break."""

    @pytest.mark.parametrize("kind, solve, qps", [("box", solve_robust_cp_elastic, 0),
                                                  ("budget", solve_robust_cp_elastic, 1),
                                                  ("box", oracles.robust_welfare_qp, 2)],
                             ids=["box", "budget", "box-dualized"])
    def test_step_counts(self, monkeypatch, kind, solve, qps):
        inst = _load_workloads().elastic_market(np.random.default_rng(3), 8, 24, kind)
        steps = []

        def recorded(spec, start=None):
            out = solver.solve_qp(spec, start=start)
            steps.append(out.iterations)
            return out

        monkeypatch.setattr(market, "solve_qp", recorded)
        monkeypatch.setattr(robust, "solve_qp", recorded)
        solve(inst)
        assert len(steps) == qps
        assert all(step <= 500 for step in steps), steps

    @pytest.mark.parametrize("kind, lps", [("simplex", 1), ("budget", 1), ("hull", 1),
                                           ("twin", 1), ("box", 0)])
    def test_solve_counts(self, monkeypatch, kind, lps):
        # The dualized planner poses its crash LP and the planner QP, and
        # the tie-break only where that QP proves no unique optimum: on the
        # hull market and the twin market, whose twin producers tie; the
        # planner at the box's greatest element takes the screening curves,
        # which prove this plan unique, and poses no LP and no QP.  Counted
        # inside solver, below every binding, after the set's validation.
        if kind == "hull":
            inst = elastic_hull_instance()
        elif kind == "twin":
            inst = twin_elastic_instance()
        else:
            inst = _load_workloads().elastic_market(np.random.default_rng(3), 3, 4, kind)
        counts = {"_lp_internal": 0, "_qp_internal": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(solver, name)):
                counts[_name] += 1
                return _original(*args)
            monkeypatch.setattr(solver, name, counted)
        solve_robust_cp_elastic(inst)
        qps = 2 if kind in ("hull", "twin") else lps
        assert counts == {"_lp_internal": lps, "_qp_internal": qps}
