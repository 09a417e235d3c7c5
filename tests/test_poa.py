"""Tests for price-of-anarchy reports, bound certification, and the tight
and elastic instance families."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from robust_peakload.geometry import box, hull_to_inequalities, simplex, tau
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer
from robust_peakload.poa import (
    BadAlpha,
    BadDelta,
    BadParams,
    ZeroCost,
    elastic_family_values,
    gen_elastic_family,
    gen_tight_instance_fixed,
    gen_tight_instance_restricted,
    poa_elastic,
    poa_fixed,
    tight_fixed_values,
    tight_restricted_values,
)
from robust_peakload.robust import lifted_set

VALUE_TOL = 1e-7
CLOSED_FORM_TOL = 1e-6
ELASTIC_TOL = 1e-5
BOUND_TOL = 1e-7
N_RANDOM_TRIALS = 30


def random_fixed_instance(rng):
    n = int(rng.integers(2, 4))
    T = int(rng.integers(1, 3))
    kind = rng.integers(0, 2)
    U = box(n) if kind == 0 else simplex(n)
    producers = [Producer(c_inv=float(rng.uniform(0.1, 1.0)),
                          c_var=float(rng.uniform(0.0, 1.0)),
                          a=float(rng.uniform(0.0, 1.5)))
                 for _ in range(n)]
    d = rng.uniform(0.5, 3.0, size=T)
    return MarketInstance(producers=producers, demand=Fixed(d), T=T, uncertainty=U)


class TestTightFixed:
    def test_half_delta_two_simplex(self):
        # Market herds on the discounted producer: E = 1 - delta.
        rep = poa_fixed(gen_tight_instance_fixed(simplex(2), 0.5))
        assert_allclose(rep.E, 0.5, atol=VALUE_TOL)
        assert_allclose(rep.C, 1.0 / 3.0, atol=VALUE_TOL)
        assert_allclose(rep.ratio, 1.5, atol=VALUE_TOL)
        assert_allclose(rep.bound, 2.0, atol=VALUE_TOL)
        assert rep.rho is None
        assert rep.within_bound
        assert rep.demand_mode == "fixed"

    def test_ratio_approaches_bound(self):
        rep = poa_fixed(gen_tight_instance_fixed(simplex(2), 0.01))
        assert rep.ratio >= 1.98
        assert_allclose(rep.ratio, 1.99, atol=VALUE_TOL)

    def test_three_producer_simplex(self):
        rep = poa_fixed(gen_tight_instance_fixed(simplex(3), 0.1))
        assert_allclose(rep.tau, 1.0 / 3.0, atol=VALUE_TOL)
        assert rep.ratio >= 2.7
        assert_allclose(rep.ratio, 2.8, atol=VALUE_TOL)
        assert rep.within_bound

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(5)
        for trial in range(N_RANDOM_TRIALS):
            delta = float(rng.uniform(0.02, 0.98))
            rep = poa_fixed(gen_tight_instance_fixed(simplex(2), delta))
            cf = tight_fixed_values(delta)
            assert_allclose(rep.E, cf["E"], atol=CLOSED_FORM_TOL,
                            err_msg=f"trial {trial}")
            assert_allclose(rep.C, cf["C"], atol=CLOSED_FORM_TOL,
                            err_msg=f"trial {trial}")
            assert_allclose(rep.ratio, cf["ratio"], atol=CLOSED_FORM_TOL,
                            err_msg=f"trial {trial}")

    def test_all_ones_in_set_closes_gap(self):
        # Box contains the all-ones point, so tau = 1 and E = C.
        rep = poa_fixed(gen_tight_instance_fixed(box(2), 0.3))
        assert_allclose(rep.tau, 1.0, atol=VALUE_TOL)
        assert_allclose(rep.ratio, 1.0, atol=VALUE_TOL)

    def test_bad_delta(self):
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(BadDelta):
                gen_tight_instance_fixed(simplex(2), delta)
            with pytest.raises(BadDelta):
                tight_fixed_values(delta)


class TestTightRestricted:
    def test_unit_rho_small_delta(self):
        rep = poa_fixed(gen_tight_instance_restricted(simplex(2), 1.0, 0.01))
        cf = tight_restricted_values(1.0, 0.01)
        assert_allclose(rep.ratio, cf["ratio"], atol=CLOSED_FORM_TOL)
        # Ratio sits above the bound evaluated at rho * (1 - delta).
        assert rep.ratio >= (1.0 + 1.0 * 0.99) / (1.0 + 1.0 * 0.5) - CLOSED_FORM_TOL
        assert rep.rho == pytest.approx(1.0)
        assert_allclose(rep.bound, 4.0 / 3.0, atol=VALUE_TOL)
        assert rep.within_bound

    def test_rho_two(self):
        rep = poa_fixed(gen_tight_instance_restricted(simplex(2), 2.0, 0.1))
        assert rep.ratio >= 1.4
        cf = tight_restricted_values(2.0, 0.1)
        assert_allclose(rep.E, cf["E"], atol=CLOSED_FORM_TOL)
        assert_allclose(rep.C, cf["C"], atol=CLOSED_FORM_TOL)
        assert rep.within_bound

    def test_matches_closed_forms(self):
        rng = np.random.default_rng(6)
        for trial in range(N_RANDOM_TRIALS):
            rho = float(rng.uniform(0.2, 4.0))
            delta = float(rng.uniform(0.05, 0.95))
            rep = poa_fixed(gen_tight_instance_restricted(simplex(2), rho, delta))
            cf = tight_restricted_values(rho, delta)
            assert_allclose(rep.ratio, cf["ratio"], atol=CLOSED_FORM_TOL,
                            err_msg=f"trial {trial}")
            assert rep.within_bound, f"trial {trial}"

    def test_bad_params(self):
        with pytest.raises(BadParams):
            gen_tight_instance_restricted(simplex(2), 0.0, 0.5)
        with pytest.raises(BadParams):
            gen_tight_instance_restricted(simplex(2), 1.0, 1.0)
        with pytest.raises(BadParams):
            tight_restricted_values(-1.0, 0.5)
        for rho in (np.nan, np.inf):
            with pytest.raises(BadParams, match="rho"):
                gen_tight_instance_restricted(simplex(2), rho, 0.5)
            with pytest.raises(BadParams, match="rho"):
                tight_restricted_values(rho, 0.5)


class TestElasticFamily:
    def test_alpha_grid(self):
        for alpha in (0.25, 0.75, 1.5, 2.0, 5.0):
            rep = poa_elastic(gen_elastic_family(alpha))
            cf = elastic_family_values(alpha)
            assert_allclose(rep.E, cf["E"], atol=ELASTIC_TOL,
                            err_msg=f"alpha {alpha}")
            assert_allclose(rep.C, cf["C"], atol=ELASTIC_TOL,
                            err_msg=f"alpha {alpha}")

    def test_ratio_at_alpha_two(self):
        rep = poa_elastic(gen_elastic_family(2.0))
        assert_allclose(rep.ratio, 2.25, atol=1e-4)

    def test_unbounded_region(self):
        # Market shuts down while the planner still produces.
        rep = poa_elastic(gen_elastic_family(0.75))
        assert_allclose(rep.E, 0.0, atol=ELASTIC_TOL)
        assert_allclose(rep.C, 0.03125, atol=ELASTIC_TOL)
        assert np.isinf(rep.ratio)

    def test_no_production_region(self):
        rep = poa_elastic(gen_elastic_family(0.25))
        assert_allclose(rep.E, 0.0, atol=ELASTIC_TOL)
        assert_allclose(rep.C, 0.0, atol=ELASTIC_TOL)
        assert np.isnan(rep.ratio)

    def test_no_bound_reported(self):
        rep = poa_elastic(gen_elastic_family(2.0))
        assert rep.bound is None
        assert rep.within_bound is None
        assert rep.demand_mode == "elastic"

    def test_bad_alpha(self):
        for alpha in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(BadAlpha, match="alpha"):
                gen_elastic_family(alpha)
            with pytest.raises(BadAlpha, match="alpha"):
                elastic_family_values(alpha)
        with pytest.raises(ValueError):
            gen_elastic_family(1.0, epsilon=0.0)


class TestReportInvariants:
    def test_random_instances_within_bound(self):
        rng = np.random.default_rng(7)
        for trial in range(N_RANDOM_TRIALS):
            inst = random_fixed_instance(rng)
            try:
                rep = poa_fixed(inst)
            except ZeroCost:
                continue
            assert rep.ratio >= 1.0 - BOUND_TOL, f"trial {trial}"
            assert rep.within_bound, f"trial {trial}"
            t, _ = tau(inst.uncertainty)
            assert_allclose(rep.tau, t, atol=VALUE_TOL, err_msg=f"trial {trial}")
            assert rep.ratio <= 1.0 / t + BOUND_TOL, f"trial {trial}"

    def test_restricted_bound_tighter(self):
        rep = poa_fixed(gen_tight_instance_restricted(simplex(2), 1.5, 0.2))
        assert rep.rho == pytest.approx(1.5)
        assert rep.bound < 1.0 / rep.tau

    def test_zero_cost_raises(self):
        inst = MarketInstance(
            producers=[Producer(c_inv=0.0, c_var=0.0, a=1.0),
                       Producer(c_inv=0.0, c_var=0.0, a=1.0)],
            demand=Fixed(np.array([0.0])), T=1, uncertainty=simplex(2))
        with pytest.raises(ZeroCost) as info:
            poa_fixed(inst)
        assert info.value.E == pytest.approx(0.0, abs=VALUE_TOL)

    def test_two_period_fixed_ratio(self):
        # T = 2: the bound holds with tau of the lifted set U x U.
        inst = MarketInstance(
            producers=[Producer(c_inv=1.0, c_var=1.0, a=1.0),
                       Producer(c_inv=1.0, c_var=1.0, a=1.0)],
            demand=Fixed(np.array([1.0, 2.0])), T=2, uncertainty=simplex(2))
        rep = poa_fixed(inst)
        assert rep.C <= rep.E + BOUND_TOL
        assert_allclose(rep.ratio, rep.E / rep.C, atol=1e-12)
        t, _ = tau(lifted_set(inst))
        assert rep.E <= rep.C / t + BOUND_TOL

    def test_elastic_hull_ratio(self):
        # Hull-generated set with vertices (0,0), (1,0), (0,1), (3/4,3/4):
        # the planner's welfare 1.62 is at least the market's 0.32.
        hull = hull_to_inequalities(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]]))
        inst = MarketInstance(
            producers=[Producer(c_inv=0.2, c_var=0.0, a=4.0),
                       Producer(c_inv=0.2, c_var=0.0, a=4.0)],
            demand=AffineElastic(np.array([5.0]), np.array([1.0])), T=1,
            uncertainty=hull)
        rep = poa_elastic(inst)
        assert_allclose([rep.E, rep.C], [0.32, 1.62], atol=VALUE_TOL)
        assert rep.E <= rep.C + BOUND_TOL
        assert_allclose(rep.ratio, rep.C / rep.E, atol=1e-12)

    def test_demand_mode_mismatch(self):
        fixed_inst = gen_tight_instance_fixed(simplex(2), 0.5)
        elastic_inst = gen_elastic_family(2.0)
        with pytest.raises(ValueError):
            poa_elastic(fixed_inst)
        with pytest.raises(ValueError):
            poa_fixed(elastic_inst)
