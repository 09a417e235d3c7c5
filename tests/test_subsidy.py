"""Tests for capacity subsidies, scenario prices, and the equilibrium
verification of the subsidized robust plan."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (compose_lifted, deviation_gain_grid, lifted_vertices,
                     per_period_index)
from robust_peakload.geometry import (box, enumerate_vertices,
                                      hull_to_inequalities, simplex)
from robust_peakload.market import (AffineElastic, Fixed, MarketInstance,
                                    Producer, cost_matrix)
from robust_peakload import subsidy
from robust_peakload.robust import _vertex_dispatch, solve_robust_cp_elastic
from robust_peakload.subsidy import (
    NotEquilibrium,
    _verification,
    build_price_functions,
    compute_subsidies,
    kkt_residuals,
    solve_fixed_capacity_welfare,
    verify_subsidized_equilibrium,
)

VALUE_TOL = 1e-7
KKT_TOL = 1e-7
PROFIT_TOL = 1e-6
N_RANDOM_TRIALS = 12

KKT_KEYS = (
    "stationarity_production",
    "stationarity_capacity",
    "feasibility_nonneg",
    "feasibility_capacity",
    "dual_nonneg_mu",
    "dual_nonneg_phi",
    "complementarity_capacity",
    "complementarity_nonneg",
)


def hull_example():
    U = hull_to_inequalities([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]])
    return MarketInstance(
        producers=[Producer(c_inv=0.2, c_var=0.0, a=4.0),
                   Producer(c_inv=0.2, c_var=0.0, a=4.0)],
        demand=AffineElastic(np.array([5.0]), np.array([1.0])),
        T=1, uncertainty=U)


def two_period_hull_example():
    """hull_example over two periods with different demand curves."""
    return dataclasses.replace(
        hull_example(), T=2,
        demand=AffineElastic(np.array([5.0, 4.0]), np.array([1.0, 1.5])))


def random_elastic_instance(rng):
    n = int(rng.integers(2, 4))
    T = int(rng.integers(1, 3))
    U = box(n) if rng.integers(0, 2) == 0 else simplex(n)
    producers = [Producer(c_inv=float(rng.uniform(0.05, 0.4)),
                          c_var=float(rng.uniform(0.0, 0.8)),
                          a=float(rng.uniform(0.0, 1.2)))
                 for _ in range(n)]
    alpha = rng.uniform(1.5, 4.0, size=T)
    beta = rng.uniform(0.5, 2.0, size=T)
    return MarketInstance(producers=producers,
                          demand=AffineElastic(alpha, beta),
                          T=T, uncertainty=U)


class TestFixedCapacityWelfare:
    def test_peak_scenario(self):
        inst = hull_example()
        res = solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]),
                                           np.array([[0.75], [0.75]]))
        assert_allclose(res.x, [[0.9], [0.9]], atol=VALUE_TOL)
        assert_allclose(res.pi, [3.2], atol=VALUE_TOL)
        assert_allclose(res.value, 1.62, atol=VALUE_TOL)

    def test_zero_scenario(self):
        inst = hull_example()
        res = solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]),
                                           np.zeros((2, 1)))
        assert_allclose(res.x, [[0.9], [0.9]], atol=VALUE_TOL)
        assert_allclose(res.pi, [3.2], atol=VALUE_TOL)
        assert_allclose(res.value, 7.02, atol=VALUE_TOL)

    def test_asymmetric_vertex(self):
        inst = hull_example()
        res = solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]),
                                           np.array([[1.0], [0.0]]))
        assert_allclose(res.x, [[0.1], [0.9]], atol=VALUE_TOL)
        assert_allclose(res.pi, [4.0], atol=VALUE_TOL)
        assert_allclose(res.value, 3.74, atol=VALUE_TOL)

    def test_kkt_residuals_each_condition(self):
        inst = hull_example()
        for u in lifted_vertices(inst):
            res = solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]), u)
            resid = kkt_residuals(inst, np.array([0.9, 0.9]), res)
            assert set(resid) == set(KKT_KEYS)
            for key in KKT_KEYS:
                assert resid[key] <= KKT_TOL, key

    def test_random_instances_satisfy_kkt(self):
        rng = np.random.default_rng(11)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_elastic_instance(rng)
            solution, _, _ = solve_robust_cp_elastic(inst)
            y_star = np.maximum(solution.capacities, 0.0)
            verts = lifted_vertices(inst)
            u = verts[int(rng.integers(0, len(verts)))]
            res = solve_fixed_capacity_welfare(inst, y_star, u)
            resid = kkt_residuals(inst, y_star, res)
            for key in KKT_KEYS:
                assert resid[key] <= KKT_TOL, f"trial {trial}: {key}"

    def test_scenario_outside_set_rejected(self):
        inst = hull_example()
        with pytest.raises(ValueError):
            solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]),
                                         np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("period", [0, 1])
    def test_scenario_outside_set_in_one_period_rejected(self, period):
        # Over two periods, a scenario that leaves U' in one period only.
        inst = two_period_hull_example()
        u = np.full((2, 2), 0.5)
        u[:, period] = 1.0
        with pytest.raises(ValueError, match="outside"):
            solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]), u)

    def test_input_validation(self):
        inst = hull_example()
        with pytest.raises(ValueError):
            solve_fixed_capacity_welfare(inst, np.array([0.9]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            solve_fixed_capacity_welfare(inst, np.array([-0.5, 0.9]),
                                         np.zeros((2, 1)))
        fixed = MarketInstance(
            producers=inst.producers, demand=Fixed(np.array([1.0])),
            T=1, uncertainty=inst.uncertainty)
        with pytest.raises(ValueError):
            solve_fixed_capacity_welfare(fixed, np.array([0.9, 0.9]),
                                         np.zeros((2, 1)))


class TestComputeSubsidies:
    def test_worked_example(self):
        bundle = compute_subsidies(hull_example(), audit_samples=32)
        assert_allclose(bundle.eta, [0.2, 0.2], atol=VALUE_TOL)
        assert_allclose(bundle.y_star, [0.9, 0.9], atol=1e-6)
        assert bundle.verification["is_equilibrium"]
        assert_allclose(bundle.verification["worst_case_profits"], [0.0, 0.0],
                        atol=PROFIT_TOL)
        assert_allclose(bundle.verification["max_deviation_gain"], [0.0, 0.0],
                        atol=PROFIT_TOL)
        assert not bundle.audit["flagged"]
        values = sorted(res.value for res in bundle.scenario_results)
        assert_allclose(values, [1.62, 3.74, 3.74, 7.02], atol=1e-6)

    def test_no_uncertainty_reduces_to_nominal_zero_profit(self):
        # Interior planner optimum prices at marginal plus investment cost,
        # so the single-scenario subsidy formula collapses to zero.
        inst = MarketInstance(
            producers=[Producer(c_inv=0.5, c_var=1.0, a=0.0),
                       Producer(c_inv=0.5, c_var=2.0, a=0.0)],
            demand=AffineElastic(np.array([4.0]), np.array([1.0])),
            T=1, uncertainty=box(2))
        bundle = compute_subsidies(inst, audit_samples=8)
        assert_allclose(bundle.eta, [0.0, 0.0], atol=PROFIT_TOL)
        assert bundle.verification["is_equilibrium"]
        res = bundle.scenario_results[0]
        assert_allclose(res.pi, [1.5], atol=1e-6)

    def test_idle_producer_gets_zero(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=0.1, c_var=0.5, a=0.0),
                       Producer(c_inv=2.0, c_var=3.5, a=0.0)],
            demand=AffineElastic(np.array([3.0]), np.array([1.0])),
            T=1, uncertainty=box(2))
        bundle = compute_subsidies(inst, audit_samples=0)
        assert bundle.y_star[1] == pytest.approx(0.0, abs=1e-9)
        assert bundle.eta[1] == 0.0
        assert bundle.verification["is_equilibrium"]

    def test_no_capacity_gives_trivial_bundle(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=0.5, c_var=1.0, a=0.0),
                       Producer(c_inv=0.5, c_var=1.0, a=0.0)],
            demand=AffineElastic(np.array([0.5]), np.array([1.0])),
            T=1, uncertainty=box(2))
        bundle = compute_subsidies(inst, audit_samples=0)
        assert_allclose(bundle.y_star, [0.0, 0.0], atol=1e-9)
        assert_allclose(bundle.eta, [0.0, 0.0], atol=1e-12)
        assert bundle.verification["is_equilibrium"]
        assert len(bundle.scenario_results) == len(enumerate_vertices(inst.uncertainty))

    def test_one_result_per_vertex(self):
        # 3 x 3 simplex: 4 per-period vertices, 4^3 lifted ones.
        rng = np.random.default_rng(13)
        inst = MarketInstance(
            producers=[Producer(c_inv=float(rng.uniform(0.05, 0.4)),
                                c_var=float(rng.uniform(0.0, 0.8)),
                                a=float(rng.uniform(0.2, 1.2))) for _ in range(3)],
            demand=AffineElastic(rng.uniform(1.5, 4.0, 3), rng.uniform(0.5, 2.0, 3)),
            T=3, uncertainty=simplex(3))
        bundle = compute_subsidies(inst, audit_samples=8)
        assert len(bundle.scenario_results) == len(enumerate_vertices(inst.uncertainty)) == 4
        for res in bundle.scenario_results:
            assert res.u.shape == res.x.shape == res.mu.shape == (3, 3)
            assert_array_equal(res.u, np.repeat(res.u[:, :1], 3, axis=1))
        assert bundle.verification["is_equilibrium"]

    def test_twelve_periods_stay_per_vertex(self):
        # 2 x 12 box: 4^12 (about 16.7 million) lifted vertices, 4 results.
        rng = np.random.default_rng(14)
        inst = MarketInstance(
            producers=[Producer(c_inv=0.2, c_var=0.3, a=1.0),
                       Producer(c_inv=0.3, c_var=0.1, a=1.5)],
            demand=AffineElastic(rng.uniform(2.0, 5.0, 12), rng.uniform(0.5, 2.0, 12)),
            T=12, uncertainty=box(2))
        bundle = compute_subsidies(inst, audit_samples=16)
        assert len(bundle.scenario_results) == 4
        record = verify_subsidized_equilibrium(inst, bundle)
        assert record["is_equilibrium"]
        assert not bundle.audit["flagged"]

    def test_tie_periods_contribute_nothing(self):
        # At the (1, 0) vertex producer 1 runs at a price exactly equal to
        # its cost, so dropping or keeping the tie period leaves the subsidy
        # formula's inner value at zero.
        inst = hull_example()
        res = solve_fixed_capacity_welfare(inst, np.array([0.9, 0.9]),
                                           np.array([[1.0], [0.0]]))
        margin = res.pi[0] - (0.0 + 4.0 * 1.0)
        assert margin == pytest.approx(0.0, abs=1e-9)
        with_tie = (4.0 * 1.0 - res.pi[0]) if res.x[0, 0] > 1e-9 else 0.0
        without_tie = 0.0
        assert with_tie == pytest.approx(without_tie, abs=1e-9)

    def test_worst_case_welfare_matches_planner(self):
        inst = hull_example()
        _, C, worst = solve_robust_cp_elastic(inst)
        bundle = compute_subsidies(inst, audit_samples=0)
        res = solve_fixed_capacity_welfare(inst, bundle.y_star, worst)
        assert_allclose(res.value, C, atol=1e-6)

    def test_random_instances_reach_equilibrium(self):
        rng = np.random.default_rng(12)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_elastic_instance(rng)
            bundle = compute_subsidies(inst, audit_samples=8)
            assert bundle.verification["is_equilibrium"], f"trial {trial}"
            record = verify_subsidized_equilibrium(inst, bundle)
            active = bundle.y_star > 1e-9
            assert_allclose(record["worst_case_profits"][active], 0.0,
                            atol=PROFIT_TOL, err_msg=f"trial {trial}")
            _, C, worst = solve_robust_cp_elastic(inst)
            res = solve_fixed_capacity_welfare(inst, bundle.y_star, worst)
            assert_allclose(res.value, C, atol=1e-6, err_msg=f"trial {trial}")

    def test_requires_elastic_demand(self):
        inst = hull_example()
        fixed = MarketInstance(producers=inst.producers,
                               demand=Fixed(np.array([1.0])),
                               T=1, uncertainty=inst.uncertainty)
        with pytest.raises(ValueError):
            compute_subsidies(fixed)


def unit_profits(inst, eta, results):
    """Margin earned per unit of own capacity at each lifted vertex's prices,
    net of c_inv - eta (|V|^T x N), with the per-period results composed
    into the lifted layout."""
    c_inv = np.array([p.c_inv for p in inst.producers])
    u = compose_lifted(np.array([res.u for res in results]))
    pi = compose_lifted(np.array([res.pi for res in results]))
    margins = pi[:, None, :] - cost_matrix(inst, u)
    return np.maximum(margins, 0.0).sum(axis=2) - (c_inv - eta)


class TestGridAndSamples:
    def test_compute_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="audit_samples"):
            compute_subsidies(hull_example(), audit_samples=-3)

    def test_exact_deviation_check_matches_grid_oracle(self):
        # Bundles with eta computed, perturbed, and raised on producers the
        # planner leaves idle (some instances get a producer too expensive to
        # build), so that deviation violations occur.  The exact check must
        # agree bit for bit with trying capacities on a grid over the
        # composed lifted vertices, signed zeros aside, and name the same
        # lifted vertex, by its per-period vertices.
        rng = np.random.default_rng(905)
        deviations = 0
        for trial in range(60):
            inst = random_elastic_instance(rng)
            if rng.integers(0, 2):
                inst.producers[-1] = dataclasses.replace(inst.producers[-1],
                                                         c_inv=10.0)
            bundle = compute_subsidies(inst, audit_samples=0)
            c_inv = np.array([p.c_inv for p in inst.producers])
            idle = bundle.y_star == 0.0
            raised = np.where(idle, c_inv + rng.uniform(-0.5, 0.5, inst.N),
                              bundle.eta)
            perturbed = bundle.eta + rng.normal(0.0, 0.05, inst.N)
            for eta in (bundle.eta, raised, perturbed):
                record, _ = _verification(inst, eta, bundle.y_star,
                                          bundle.scenario_results)
                try:
                    verify_subsidized_equilibrium(
                        inst, dataclasses.replace(bundle, eta=eta))
                    triple = None
                except NotEquilibrium as exc:
                    triple = (exc.producer, exc.scenario, exc.deviation)
                assert record["is_equilibrium"] == (triple is None)
                if triple is not None and triple[2] is not None:
                    deviations += 1
                profit = unit_profits(inst, eta, bundle.scenario_results)
                V = len(bundle.scenario_results)
                for grid in (2, 11, 101):
                    gain, first = deviation_gain_grid(profit, bundle.y_star, grid)
                    assert_array_equal(record["max_deviation_gain"] + 0.0,
                                       gain + 0.0, err_msg=f"trial {trial}")
                    if first is not None:
                        first = (first[0], per_period_index(first[1], V, inst.T),
                                 first[2])
                    if triple is None or triple[2] is not None:
                        assert triple == first, f"trial {trial}, grid {grid}"
        assert deviations >= 10


class TestInteriorAudit:
    def test_lowered_vertex_maximum_is_flagged(self):
        # On this instance no mixture beats the vertex maximum; against one
        # lowered by `drop`, the excess grows by `drop` with the same samples.
        inst = two_period_hull_example()
        y = compute_subsidies(inst, audit_samples=0).y_star
        constant, out = _vertex_dispatch(inst, y)
        vertex_max = subsidy._period_deficits(inst, constant, out).max(axis=0).sum(axis=-1)
        audit = subsidy._interior_audit(inst, y, vertex_max, 32, 0, constant)
        assert not audit["flagged"] and audit["max_excess"] <= PROFIT_TOL
        excess = {}
        for drop in (0.5, 1.0):
            with pytest.warns(UserWarning, match="exceeds the vertex maximum"):
                audit = subsidy._interior_audit(inst, y, vertex_max - drop, 32, 0, constant)
            assert audit["flagged"]
            assert PROFIT_TOL < audit["max_excess"] <= drop + PROFIT_TOL
            excess[drop] = audit["max_excess"]
        assert_allclose(excess[1.0] - excess[0.5], 0.5, atol=1e-12)


class TestVerification:
    def test_zero_subsidy_fails_zero_profit_check(self):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        stripped = dataclasses.replace(bundle, eta=np.zeros(2))
        with pytest.raises(NotEquilibrium) as info:
            verify_subsidized_equilibrium(inst, stripped)
        err = info.value
        assert err.deviation is None
        assert err.producer in (0, 1)
        # Unsubsidized worst-case profit is the lost investment cost.
        record, = [bundle.verification]
        assert_allclose(record["worst_case_profits"], [0.0, 0.0],
                        atol=PROFIT_TOL)

    def test_tampered_production_fails_structure_check(self):
        # At T = 1 and T = 2 the structure check reports the lifted vertex
        # with every period at the tampered result.
        for inst in (hull_example(), two_period_hull_example()):
            bundle = compute_subsidies(inst, audit_samples=0)
            tampered = [dataclasses.replace(res) for res in bundle.scenario_results]
            idle = int(np.argmin([res.u.sum() for res in tampered]))
            tampered[idle] = dataclasses.replace(tampered[idle],
                                                 x=np.zeros_like(tampered[idle].x))
            broken = dataclasses.replace(bundle, scenario_results=tampered)
            with pytest.raises(NotEquilibrium) as info:
                verify_subsidized_equilibrium(inst, broken)
            assert info.value.scenario == (idle,) * inst.T
            assert info.value.deviation is None

    @pytest.mark.parametrize("eta", [[np.nan, np.nan], [np.inf, 0.0],
                                     [0.2, -np.inf]])
    def test_non_finite_eta_rejected(self, eta):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        with pytest.raises(ValueError, match="eta"):
            verify_subsidized_equilibrium(inst, dataclasses.replace(bundle, eta=eta))

    @pytest.mark.parametrize("eta", [[0.2], [0.2, 0.2, 0.2], [[0.2, 0.2]]])
    def test_misshapen_eta_rejected(self, eta):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        with pytest.raises(ValueError, match="eta must list 2 values"):
            verify_subsidized_equilibrium(inst, dataclasses.replace(bundle, eta=eta))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda res: [], r"scenario_results must hold at least one result"),
        (lambda res: [dataclasses.replace(res[0], x=np.full_like(res[0].x, np.nan))]
         + res[1:], r"scenario_results\[0\]\.x must be finite"),
        (lambda res: [dataclasses.replace(res[0], pi=np.array([np.nan]))] + res[1:],
         r"scenario_results\[0\]\.pi must be finite"),
        (lambda res: [dataclasses.replace(res[0], u=np.full_like(res[0].u, np.nan))]
         + res[1:], r"scenario_results\[0\]\.u must be finite"),
        (lambda res: [dataclasses.replace(res[0], pi=np.array([3.2, 3.2]))] + res[1:],
         r"scenario_results\[0\]\.pi must have shape \(1,\)"),
        (lambda res: res[:1] + [dataclasses.replace(res[1], x=res[1].x.reshape(-1))]
         + res[2:], r"scenario_results\[1\]\.x must have shape \(2, 1\)"),
    ], ids=["empty", "nan-x", "nan-pi", "nan-u", "long-pi", "flat-x"])
    def test_corrupt_scenario_results_rejected(self, corrupt, message):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        broken = dataclasses.replace(bundle,
                                     scenario_results=corrupt(bundle.scenario_results))
        with pytest.raises(ValueError, match=message):
            verify_subsidized_equilibrium(inst, broken)

    def test_audit_disabled(self):
        bundle = compute_subsidies(hull_example(), audit_samples=0)
        assert bundle.audit["samples"] == 0
        assert not bundle.audit["flagged"]


class TestPriceFunctions:
    def test_table_gives_period_prices_per_vertex(self):
        # T = 2: each per-period vertex maps to the two prices of the
        # result at the scenario with both periods at it.
        inst = two_period_hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        table = build_price_functions(bundle)
        assert len(table) == 4
        for res in bundle.scenario_results:
            assert_array_equal(table[tuple(res.u[:, 0].tolist())], res.pi)

    def test_table_covers_all_vertices(self):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        table = build_price_functions(bundle)
        assert len(table) == 4
        prices = sorted(float(v[0]) for v in table.values())
        assert_allclose(prices, [3.2, 3.2, 4.0, 4.0], atol=VALUE_TOL)

    def test_zero_scenario_price(self):
        inst = hull_example()
        bundle = compute_subsidies(inst, audit_samples=0)
        table = build_price_functions(bundle)
        assert_allclose(table[(0.0, 0.0)], [3.2], atol=VALUE_TOL)

    def test_single_producer_matches_nominal(self):
        from robust_peakload.market import solve_nominal_elastic
        inst = MarketInstance(
            producers=[Producer(c_inv=0.3, c_var=1.0, a=0.0)],
            demand=AffineElastic(np.array([4.0]), np.array([1.0])),
            T=1, uncertainty=box(1))
        bundle = compute_subsidies(inst, audit_samples=0)
        table = build_price_functions(bundle)
        nominal = solve_nominal_elastic(inst)
        for pi in table.values():
            assert_allclose(pi, nominal.prices, atol=1e-6)
