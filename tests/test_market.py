import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import lp_bruteforce
from robust_peakload.geometry import box, simplex
from robust_peakload.market import (
    AffineElastic,
    BadMean,
    Fixed,
    MarketInstance,
    Producer,
    cost_matrix,
    solve_expected,
    solve_nominal_elastic,
    solve_nominal_fixed,
    total_cost,
    welfare,
)
from robust_peakload.solver import LpSpec

PRICE_TOL = 1e-7
OBJ_TOL = 1e-8


def single_producer_fixed(c_inv=1.0, c_var=1.0, a=0.0, d=(1.0,)):
    return MarketInstance([Producer(c_inv, c_var, a)], Fixed(list(d)),
                          len(d), box(1))


class TestNominalFixed:
    def test_single_producer_single_period(self):
        # Hand oracle: the planner LP in (x, y) has vertices (x, y) = (1, 1)
        # and nothing cheaper, so cost = c_inv + c_var = 2 and price 2.
        oracle_spec = LpSpec("min", [1.0, 1.0],
                             [[1.0, -1.0], [1.0, 0.0]], [0.0, 1.0], ["<=", "="])
        oracle = lp_bruteforce(oracle_spec)
        assert_allclose(oracle[0], 2.0, atol=1e-12)

        sol = solve_nominal_fixed(single_producer_fixed())
        assert_allclose(sol.objective, 2.0, atol=OBJ_TOL)
        assert_allclose(sol.capacities, [1.0], atol=1e-8)
        assert_allclose(sol.production, [[1.0]], atol=1e-8)
        assert_allclose(sol.prices, [2.0], atol=PRICE_TOL)

    def test_two_producers_two_periods_peak_pricing(self):
        # Capacity is paid for once and priced only in the peak period:
        # cost = (1 + 2) * c_var + 2 * c_inv = 5, prices (1, 2).
        inst = MarketInstance([Producer(1.0, 1.0), Producer(1.0, 1.0)],
                              Fixed([1.0, 2.0]), 2, box(2))
        sol = solve_nominal_fixed(inst)
        assert_allclose(sol.objective, 5.0, atol=OBJ_TOL)
        assert_allclose(sol.prices, [1.0, 2.0], atol=PRICE_TOL)
        assert_allclose(sol.production.sum(axis=0), [1.0, 2.0], atol=1e-8)
        assert_allclose(sol.capacities.sum(), 2.0, atol=1e-8)

    def test_zero_demand(self):
        sol = solve_nominal_fixed(single_producer_fixed(d=(0.0,)))
        assert_allclose(sol.objective, 0.0, atol=OBJ_TOL)
        assert_allclose(sol.capacities, [0.0], atol=1e-9)
        assert_allclose(sol.production, [[0.0]], atol=1e-9)

    def test_clearing_and_capacity_invariants(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            N = int(rng.integers(1, 4))
            T = int(rng.integers(1, 4))
            producers = [Producer(float(rng.uniform(0.1, 2.0)),
                                  float(rng.uniform(0.1, 2.0)))
                         for _ in range(N)]
            d = rng.uniform(0.0, 3.0, size=T)
            inst = MarketInstance(producers, Fixed(d), T, box(N))
            sol = solve_nominal_fixed(inst)
            assert_allclose(sol.production.sum(axis=0), d, atol=1e-9)
            assert np.all(sol.production <= sol.capacities[:, None] + 1e-9)
            assert np.all(sol.production >= -1e-9)
            recomputed = total_cost(inst, sol.production, sol.capacities)
            assert_allclose(recomputed, sol.objective, atol=1e-7)


class TestNominalElastic:
    def test_single_producer_first_order_condition(self):
        # Hand oracle: maximize 5x - x^2/2 - 0.2x; stationarity gives
        # xbar = 5 - 0.2 = 4.8, price 0.2, welfare 4.8^2/2 = 11.52.
        inst = MarketInstance([Producer(0.2, 0.0)],
                              AffineElastic([5.0], [1.0]), 1, box(1))
        sol = solve_nominal_elastic(inst)
        assert_allclose(sol.production.sum(), 4.8, atol=1e-8)
        assert_allclose(sol.prices, [0.2], atol=PRICE_TOL)
        assert_allclose(sol.objective, 11.52, atol=OBJ_TOL)

    def test_unprofitable_market_stays_idle(self):
        inst = MarketInstance([Producer(1.0, 1.0)],
                              AffineElastic([1.5], [1.0]), 1, box(1))
        sol = solve_nominal_elastic(inst)
        assert_allclose(sol.objective, 0.0, atol=OBJ_TOL)
        assert_allclose(sol.production, [[0.0]], atol=1e-8)

    def test_symmetric_split_preserves_total(self):
        single = MarketInstance([Producer(0.2, 0.0)],
                                AffineElastic([5.0], [1.0]), 1, box(1))
        double = MarketInstance([Producer(0.2, 0.0), Producer(0.2, 0.0)],
                                AffineElastic([5.0], [1.0]), 1, box(2))
        total_single = solve_nominal_elastic(single).production.sum()
        sol = solve_nominal_elastic(double)
        assert_allclose(sol.production.sum(), total_single, atol=1e-7)
        assert_allclose(sol.prices, [0.2], atol=PRICE_TOL)

    def test_price_curve_identity_and_welfare_evaluator(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            N = int(rng.integers(1, 4))
            T = int(rng.integers(1, 3))
            producers = [Producer(float(rng.uniform(0.05, 1.0)),
                                  float(rng.uniform(0.0, 1.0)))
                         for _ in range(N)]
            alpha = rng.uniform(0.5, 5.0, size=T)
            beta = rng.uniform(0.5, 2.0, size=T)
            inst = MarketInstance(producers, AffineElastic(alpha, beta), T, box(N))
            sol = solve_nominal_elastic(inst)
            xbar = sol.production.sum(axis=0)
            assert_allclose(sol.prices, alpha - beta * xbar, atol=1e-12)
            recomputed = welfare(inst, sol.production, sol.capacities)
            assert_allclose(recomputed, sol.objective, atol=1e-7)


class TestSolveExpected:
    def test_zero_mean_matches_nominal(self):
        inst = single_producer_fixed(a=1.0)
        nominal = solve_nominal_fixed(inst)
        expected = solve_expected(inst, np.zeros((1, 1)))
        assert_allclose(expected.objective, nominal.objective, atol=1e-9)
        assert_allclose(expected.prices, nominal.prices, atol=1e-9)

    def test_unit_mean_matches_shifted_costs(self):
        inst = MarketInstance([Producer(1.0, 1.0, 0.5), Producer(0.5, 1.5, 1.0)],
                              Fixed([1.0, 2.0]), 2, box(2))
        shifted = MarketInstance([Producer(1.0, 1.5), Producer(0.5, 2.5)],
                                 Fixed([1.0, 2.0]), 2, box(2))
        expected = solve_expected(inst, np.ones((2, 2)))
        nominal = solve_nominal_fixed(shifted)
        assert_allclose(expected.objective, nominal.objective, atol=1e-9)
        assert_allclose(expected.prices, nominal.prices, atol=1e-9)

    def test_half_mean_cost(self):
        # c_var + a * 0.5 = 1.5 per unit, plus c_inv = 1: total cost 2.5.
        inst = single_producer_fixed(a=1.0)
        sol = solve_expected(inst, np.full((1, 1), 0.5))
        assert_allclose(sol.objective, 2.5, atol=OBJ_TOL)

    def test_bad_mean_rejected(self):
        inst = single_producer_fixed(a=1.0)
        with pytest.raises(BadMean):
            solve_expected(inst, np.full((1, 1), 1.5))
        with pytest.raises(BadMean):
            solve_expected(inst, np.full((1, 1), -0.2))
        with pytest.raises(BadMean):
            solve_expected(inst, np.zeros((2, 1)))
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(BadMean):
                solve_expected(inst, np.full((1, 1), value))


class TestInstanceValidation:
    def test_cost_matrix_with_scenario(self):
        inst = MarketInstance([Producer(1.0, 1.0, 0.5), Producer(1.0, 2.0, 1.0)],
                              Fixed([1.0, 1.0]), 2, simplex(2))
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert_allclose(cost_matrix(inst, u), [[1.5, 1.0], [2.0, 3.0]])

    def test_per_period_scaling_override(self):
        producer = Producer(1.0, 1.0, 0.5, a_by_period=[0.5, 2.0])
        inst = MarketInstance([producer], Fixed([1.0, 1.0]), 2, box(1))
        u = np.ones((1, 2))
        assert_allclose(cost_matrix(inst, u), [[1.5, 3.0]])

    def test_uncertainty_report_recorded(self):
        inst = single_producer_fixed()
        assert inst.uncertainty_report.is_valid_uncertainty_set

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MarketInstance([Producer(1.0, 1.0)], Fixed([1.0]), 1, box(2))
        with pytest.raises(ValueError):
            MarketInstance([Producer(1.0, 1.0)], Fixed([1.0, 1.0]), 1, box(1))
        with pytest.raises(ValueError):
            AffineElastic([1.0], [0.0])
        with pytest.raises(ValueError, match="at least one producer"):
            MarketInstance([], Fixed([1.0]), 1, box(1))
        with pytest.raises(ValueError, match="at least one period"):
            MarketInstance([Producer(1.0, 1.0)], Fixed([]), 0, box(1))
        with pytest.raises(ValueError, match="one \\(alpha, beta\\) per period"):
            MarketInstance([Producer(1.0, 1.0)], AffineElastic([2.0], [1.0]), 2, box(1))
        with pytest.raises(ValueError, match="one scaling per period"):
            MarketInstance([Producer(1.0, 1.0, 0.5, a_by_period=[0.5])], Fixed([1.0, 1.0]),
                           2, box(1))
        with pytest.raises(ValueError, match="a_by_period must be finite and nonnegative"):
            Producer(1.0, 1.0, 0.5, a_by_period=[0.5, -1.0])
        for d in ([1.0, -1.0], [np.nan]):
            with pytest.raises(ValueError, match="fixed demand must be finite and nonnegative"):
                Fixed(d)
        with pytest.raises(ValueError, match="matching lengths"):
            AffineElastic([2.0, 3.0], [1.0])
        with pytest.raises(ValueError, match="demand curve parameters must be finite"):
            AffineElastic([np.inf], [1.0])
