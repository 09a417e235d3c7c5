"""Tests for robust linear programs and the robust market / planner solves."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog

from robust_peakload.geometry import (
    Polytope,
    box,
    hull_to_inequalities,
    simplex,
    tau,
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
    MarketRobustReport,
    RobustLp,
    SaddleViolated,
    adjustable_scenario_form_fixed,
    dispatch_at_capacity,
    lifted_set,
    lifted_vertices,
    market_robust_report,
    scenario_to_vector,
    solve_robust_cp_elastic,
    solve_robust_cp_fixed,
    solve_robust_lp,
    solve_robust_market_elastic,
    solve_robust_market_fixed,
    vector_to_scenario,
    verify_adjustable_equivalence,
    worst_case_scenario,
)
from robust_peakload.solver import (LpSpec, NumericBreakdown, QpSpec, solve_lp,
                                    solve_qp)

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
    def test_vector_scenario_round_trip(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            N, T = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            u = rng.uniform(0.0, 1.0, size=(N, T))
            vec = scenario_to_vector(u)
            assert vec.shape == (N * T,)
            # Period-major order: coordinate t*N + i holds u[i, t].
            for t in range(T):
                for i in range(N):
                    assert vec[t * N + i] == u[i, t]
            assert_allclose(vector_to_scenario(vec, N, T), u,
                            err_msg=f"trial {trial}")

    def test_worst_case_scenario_matches_vertex_search(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            inst = random_fixed_instance(rng)
            x = rng.uniform(0.0, 2.0, size=(inst.N, inst.T))
            value, u = worst_case_scenario(inst, x)
            assert lifted_set(inst).contains(scenario_to_vector(u), tol=1e-7)
            best = max(
                float(np.sum((total_cost(inst, x, np.zeros(inst.N), v)
                              - total_cost(inst, x, np.zeros(inst.N)))))
                for v in lifted_vertices(inst))
            assert_allclose(value, best, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")


class TestRobustMarketFixed:
    def test_two_period_reform_prices(self):
        inst = two_period_reform_instance()
        solution, E = solve_robust_market_fixed(inst)
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
            _, E = solve_robust_market_fixed(inst)
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
            assert lifted_set(inst).contains(scenario_to_vector(worst_u),
                                             tol=1e-7), f"trial {trial}"
            cost_at_worst = total_cost(inst, solution.production,
                                       solution.capacities, worst_u)
            assert_allclose(cost_at_worst, C, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")


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
        solution, E = solve_robust_market_elastic(inst)
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
            _, E = solve_robust_market_elastic(inst)
            _, C, _ = solve_robust_cp_elastic(inst)
            assert E <= C + SADDLE_TOL, f"trial {trial}"

    def test_saddle_certificate_random(self):
        rng = np.random.default_rng(61)
        for trial in range(20):
            inst = random_elastic_instance(rng)
            solution, C, worst_u = solve_robust_cp_elastic(inst)
            assert lifted_set(inst).contains(scenario_to_vector(worst_u),
                                             tol=1e-7), f"trial {trial}"
            welfare_at_worst = welfare(inst, solution.production,
                                       solution.capacities, worst_u)
            assert_allclose(welfare_at_worst, C, atol=SADDLE_TOL,
                            err_msg=f"trial {trial}")


class TestAdjustableEquivalence:
    def test_two_producer_peak_certificate(self):
        inst = two_producer_peak_instance()
        cert = verify_adjustable_equivalence(inst, samples=16)
        assert cert["demand_mode"] == "fixed"
        assert_allclose(cert["value"], 3.0, atol=VALUE_TOL)
        # Vertices come sorted: (0,0), (0,1), (1,0); the nominal scenario
        # dispatches for 2, either concentrated scenario forces cost 3.
        assert_allclose(cert["vertex_values"], [2.0, 3.0, 3.0], atol=VALUE_TOL)
        assert cert["dominated"] and cert["saddle_ok"]

    def test_hull_instance_certificate(self):
        inst = elastic_hull_instance()
        cert = verify_adjustable_equivalence(inst, samples=16)
        assert cert["demand_mode"] == "elastic"
        assert_allclose(cert["value"], 1.62, atol=VALUE_TOL)
        assert_allclose(sorted(cert["vertex_values"]),
                        [1.62, 3.74, 3.74, 7.02], atol=1e-6)
        assert_allclose(min(cert["vertex_values"]), cert["value"], atol=1e-6)

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
            form = adjustable_scenario_form_fixed(inst, canonical_duals=False)
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
        form = adjustable_scenario_form_fixed(inst, canonical_duals=False)
        for scenario, x in zip(form["scenarios"], form["productions"]):
            assert np.all(x <= form["capacities"][:, None] + 1e-9)
            assert_allclose(x.sum(axis=0), inst.demand.d, atol=1e-9)
            cost = total_cost(inst, x, np.zeros(inst.N), scenario)
            assert cost <= form["epigraph"] + 1e-7

    def test_elastic_demand_rejected(self):
        with pytest.raises(ValueError):
            adjustable_scenario_form_fixed(elastic_hull_instance())


class TestMarketRobustReport:
    def test_fixed_report(self):
        inst = two_period_reform_instance()
        report = market_robust_report(inst)
        assert isinstance(report, MarketRobustReport)
        assert report.C <= report.E + CHAIN_TOL
        assert_allclose(report.poa, report.E / report.C, atol=1e-12)
        t, _ = tau(lifted_set(inst))
        assert report.E <= report.C / t + CHAIN_TOL

    def test_elastic_report(self):
        inst = elastic_hull_instance()
        report = market_robust_report(inst)
        assert report.E <= report.C + SADDLE_TOL
        assert_allclose(report.poa, report.C / report.E, atol=1e-12)


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

    @pytest.mark.parametrize("N, T, U", [
        pytest.param(*shape, marks=pytest.mark.xfail(
            raises=NumericBreakdown, strict=True,
            reason="solve_qp stalls on the 521-row epigraph QP, whose start "
                   "point x = 0 has every row active"))
        if shape == (3, 3, "box") else shape
        for shape in PER_PERIOD_SHAPES])
    def test_elastic_planner_matches_vertex_epigraph(self, N, T, U):
        rng = np.random.default_rng([73, N, T, U == "box"])
        for trial in range(2):
            inst = per_period_instance(rng, N, T, U, elastic=True)
            _, C, _ = solve_robust_cp_elastic(inst)
            assert_allclose(C, elastic_epigraph_value(inst), atol=EPIGRAPH_TOL,
                            rtol=0, err_msg=f"trial {trial}")
