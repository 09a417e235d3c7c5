"""Tests for risk-measure uncertainty sets: marginal value-at-risk boxes,
coherent scenario hulls, and their price-of-anarchy wiring."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from robust_peakload.geometry import (
    Polytope,
    box,
    enumerate_vertices,
    tau,
    validate,
)
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer
from robust_peakload.risk import (
    BadVar,
    CoherentSpec,
    DegenerateScenario,
    VarSpec,
    build_coherent_set,
    build_mvar_set,
    poa_with_risk_set,
)
from robust_peakload.robust import solve_robust_cp_fixed, solve_robust_market_fixed

VALUE_TOL = 1e-7
VERTEX_TOL = 1e-9
N_RANDOM_TRIALS = 20

HULL_SCENARIOS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]])


def free_simplex_Q(K):
    """Q with no extra rows; the builder intersects with the simplex."""
    return Polytope(K, np.zeros((0, K)), np.zeros(0))


def vertex_sets_match(U, expected, tol=VERTEX_TOL):
    found = enumerate_vertices(U)
    expected = [np.asarray(v, dtype=float) for v in expected]
    if len(found) != len(expected):
        return False
    for v in found:
        if not any(np.max(np.abs(v - w)) <= tol for w in expected):
            return False
    return True


def random_fixed_instance(rng, n):
    producers = [Producer(c_inv=float(rng.uniform(0.1, 1.0)),
                          c_var=float(rng.uniform(0.0, 1.0)))
                 for _ in range(n)]
    T = int(rng.integers(1, 3))
    d = rng.uniform(0.5, 2.5, size=T)
    return MarketInstance(producers=producers, demand=Fixed(d), T=T,
                          uncertainty=box(n))


class TestMvarSet:
    def test_two_producer_box(self):
        U, scale = build_mvar_set(VarSpec(0.05, [2.0, 5.0]))
        assert_allclose(scale, [2.0, 5.0])
        assert vertex_sets_match(U, [[0, 0], [1, 0], [0, 1], [1, 1]])
        assert tau(U)[0] == pytest.approx(1.0, abs=VALUE_TOL)

    def test_single_producer(self):
        U, scale = build_mvar_set(VarSpec(0.1, [3.0]))
        assert_allclose(scale, [3.0])
        assert vertex_sets_match(U, [[0.0], [1.0]])

    def test_bad_var(self):
        with pytest.raises(BadVar):
            VarSpec(0.0, [1.0, 2.0])
        with pytest.raises(BadVar):
            VarSpec(1.0, [1.0])
        with pytest.raises(BadVar):
            VarSpec(0.05, [1.0, 0.0])
        with pytest.raises(BadVar):
            VarSpec(0.05, [1.0, -2.0])

    def test_worst_case_gap_closes(self):
        # All-ones lies in the box, so market and planner worst cases agree.
        rng = np.random.default_rng(21)
        for trial in range(N_RANDOM_TRIALS):
            n = int(rng.integers(1, 4))
            inst = random_fixed_instance(rng, n)
            spec = VarSpec(0.05, rng.uniform(0.5, 3.0, size=n))
            rep = poa_with_risk_set(inst, spec)
            assert rep.tau == pytest.approx(1.0, abs=VALUE_TOL), f"trial {trial}"
            assert_allclose(rep.E, rep.C, atol=VALUE_TOL, err_msg=f"trial {trial}")


class TestCoherentSet:
    def test_full_simplex_reproduces_hull(self):
        spec = CoherentSpec(HULL_SCENARIOS, free_simplex_Q(4))
        U, m = build_coherent_set(spec)
        assert_allclose(m, [1.0, 1.0], atol=VALUE_TOL)
        assert vertex_sets_match(U, HULL_SCENARIOS, tol=1e-9)
        report = validate(U)
        assert report.is_valid_uncertainty_set
        assert tau(U)[0] == pytest.approx(0.75, abs=VALUE_TOL)

    def test_segment_rescales_to_itself(self):
        spec = CoherentSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), free_simplex_Q(2))
        U, m = build_coherent_set(spec)
        assert_allclose(m, [1.0, 1.0], atol=VALUE_TOL)
        assert vertex_sets_match(U, [[0.0, 0.0], [1.0, 1.0]])
        assert tau(U)[0] == pytest.approx(1.0, abs=VALUE_TOL)

    def test_single_distribution(self):
        scen = np.array([[0.0, 0.0], [1.0, 1.0]])
        q_hat = np.array([0.3, 0.7])
        Q = Polytope(2, np.vstack([np.eye(2), -np.eye(2)]),
                     np.concatenate([q_hat, -q_hat]))
        U, m = build_coherent_set(CoherentSpec(scen, Q))
        assert_allclose(m, [0.7, 0.7], atol=VALUE_TOL)
        assert vertex_sets_match(U, [[0.0, 0.0], [1.0, 1.0]])

    def test_scale_bounded_by_scenario_maxima(self):
        rng = np.random.default_rng(22)
        for trial in range(N_RANDOM_TRIALS):
            K = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            scen = rng.uniform(0.0, 2.0, size=(K, n))
            scen[0] = 0.0
            w = rng.uniform(0.1, 1.0, size=K)
            r = float(w.min() + 0.6 * (w.max() - w.min()))
            Q = Polytope(K, w[None, :], np.array([r]))
            _, m = build_coherent_set(CoherentSpec(scen, Q))
            assert np.all(m <= scen.max(axis=0) + VERTEX_TOL), f"trial {trial}"
            _, m_full = build_coherent_set(CoherentSpec(scen, free_simplex_Q(K)))
            assert_allclose(m_full, scen.max(axis=0), atol=VERTEX_TOL,
                            err_msg=f"trial {trial}")

    def test_output_always_validates(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            K = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            scen = rng.uniform(0.1, 2.0, size=(K, n))
            scen[0] = 0.0
            U, _ = build_coherent_set(CoherentSpec(scen, free_simplex_Q(K)))
            report = validate(U)
            assert report.is_valid_uncertainty_set, f"trial {trial}"
            assert_allclose(report.axis_projections, 1.0, atol=VERTEX_TOL,
                            err_msg=f"trial {trial}")

    def test_degenerate_coordinate_keeps_free_factor(self):
        scen = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(DegenerateScenario):
            U, m = build_coherent_set(CoherentSpec(scen, free_simplex_Q(2)))
        assert_allclose(m, [1.0, 0.0], atol=VALUE_TOL)
        report = validate(U)
        assert report.is_valid_uncertainty_set
        assert tau(U)[0] == pytest.approx(1.0, abs=VALUE_TOL)

    def test_rescaling_neutrality(self):
        # Solving with (rescaled set, a = scale) matches (raw hull, a = 1).
        scen = HULL_SCENARIOS * np.array([2.0, 5.0])
        U, m = build_coherent_set(CoherentSpec(scen, free_simplex_Q(4)))
        assert_allclose(m, [2.0, 5.0], atol=VALUE_TOL)
        producers_scaled = [Producer(c_inv=0.4, c_var=0.6, a=float(m[0])),
                            Producer(c_inv=0.7, c_var=0.3, a=float(m[1]))]
        scaled = MarketInstance(producers=producers_scaled,
                                demand=Fixed(np.array([1.5])), T=1,
                                uncertainty=U)
        from robust_peakload.geometry import hull_to_inequalities
        producers_raw = [Producer(c_inv=0.4, c_var=0.6, a=1.0),
                         Producer(c_inv=0.7, c_var=0.3, a=1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            raw = MarketInstance(producers=producers_raw,
                                 demand=Fixed(np.array([1.5])), T=1,
                                 uncertainty=hull_to_inequalities(scen))
        _, E_scaled, _ = solve_robust_market_fixed(scaled)
        _, E_raw, _ = solve_robust_market_fixed(raw)
        _, C_scaled, _ = solve_robust_cp_fixed(scaled)
        _, C_raw, _ = solve_robust_cp_fixed(raw)
        assert_allclose(E_scaled, E_raw, atol=VALUE_TOL)
        assert_allclose(C_scaled, C_raw, atol=VALUE_TOL)

    def test_four_coordinates_many_image_points(self):
        # Q caps every weight at 1/2, so its vertices are the 15 two-point
        # mixtures of 6 scenarios: 16 image points with the origin, over 4
        # active coordinates.
        rng = np.random.default_rng(24)
        scen = np.vstack([np.zeros(4), rng.uniform(0.1, 1.0, size=(5, 4))])
        Q = Polytope(6, np.eye(6), np.full(6, 0.5))
        U, m = build_coherent_set(CoherentSpec(scen, Q))
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        image = np.array([np.zeros(4)] + [(scen[i] + scen[j]) / 2 for i, j in pairs])
        assert_allclose(m, image.max(axis=0), atol=VALUE_TOL)
        scaled = image / m
        assert U.contains(scaled, tol=VERTEX_TOL)
        hull = ConvexHull(scaled)
        assert vertex_sets_match(U, scaled[hull.vertices])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CoherentSpec(np.array([[0.5, 0.0], [1.0, 1.0]]), free_simplex_Q(2))
        with pytest.raises(ValueError):
            CoherentSpec(np.array([[0.0], [-1.0]]), free_simplex_Q(2))
        with pytest.raises(ValueError):
            CoherentSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), free_simplex_Q(3))

    def test_empty_family_rejected(self):
        scen = np.array([[0.0, 0.0], [1.0, 1.0]])
        Q = Polytope(2, np.array([[-1.0, 0.0]]), np.array([-2.0]))
        with pytest.raises(ValueError, match="does not intersect the probability simplex"):
            build_coherent_set(CoherentSpec(scen, Q))


class TestPoaWithRiskSet:
    def test_var_spec_closes_gap(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=1.0, c_var=0.5),
                       Producer(c_inv=0.5, c_var=1.0)],
            demand=Fixed(np.array([2.0])), T=1, uncertainty=box(2))
        rep = poa_with_risk_set(inst, VarSpec(0.05, [2.0, 5.0]))
        assert rep.ratio == pytest.approx(1.0, abs=VALUE_TOL)
        assert rep.within_bound

    def test_coherent_hull_bound(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=1.0, c_var=0.5),
                       Producer(c_inv=0.5, c_var=1.0)],
            demand=Fixed(np.array([2.0])), T=1, uncertainty=box(2))
        rep = poa_with_risk_set(inst, CoherentSpec(HULL_SCENARIOS,
                                                   free_simplex_Q(4)))
        assert rep.tau == pytest.approx(0.75, abs=VALUE_TOL)
        assert rep.within_bound
        assert rep.ratio <= 1.0 / rep.tau + VALUE_TOL

    def test_zero_risk_reduces_to_nominal(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=1.0, c_var=0.5),
                       Producer(c_inv=0.5, c_var=1.0)],
            demand=Fixed(np.array([2.0])), T=1, uncertainty=box(2))
        scen = np.zeros((2, 2))
        with pytest.warns(DegenerateScenario):
            rep = poa_with_risk_set(inst, CoherentSpec(scen, free_simplex_Q(2)))
        assert rep.ratio == pytest.approx(1.0, abs=VALUE_TOL)

    def test_input_validation(self):
        elastic = MarketInstance(
            producers=[Producer(c_inv=0.2, c_var=0.0)],
            demand=AffineElastic(np.array([5.0]), np.array([1.0])),
            T=1, uncertainty=box(1))
        with pytest.raises(ValueError):
            poa_with_risk_set(elastic, VarSpec(0.05, [1.0]))
        fixed = MarketInstance(
            producers=[Producer(c_inv=0.2, c_var=0.5)],
            demand=Fixed(np.array([1.0])), T=1, uncertainty=box(1))
        with pytest.raises(TypeError):
            poa_with_risk_set(fixed, spec="not a spec")
        with pytest.raises(ValueError):
            poa_with_risk_set(fixed, VarSpec(0.05, [1.0, 2.0]))
