import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import maximin_coordinate_grid
from robust_peakload.geometry import (
    DimensionTooLarge,
    EmptySet,
    Polytope,
    box,
    enumerate_vertices,
    hull_to_inequalities,
    lift_product,
    simplex,
    tau,
    validate,
)
from robust_peakload.solver import LpSpec, solve_lp

TAU_TOL = 1e-9

HULL_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]])


def in_convex_hull(point, vertices, tol=1e-8):
    # Feasibility LP: point = sum_j lambda_j v_j with lambda in the simplex.
    V = np.asarray(vertices, dtype=float)
    k = V.shape[0]
    A = np.vstack([V.T, np.ones((1, k))])
    b = np.concatenate([np.asarray(point, dtype=float), [1.0]])
    out = solve_lp(LpSpec("min", np.zeros(k), A, b, ["="] * A.shape[0]))
    return out.status == "optimal" and out.certificate["primal_residual"] <= tol


class TestTau:
    def test_unit_box(self):
        for n in (1, 2, 4):
            t, witness = tau(box(n))
            assert_allclose(t, 1.0, atol=TAU_TOL)
            assert_allclose(witness, np.ones(n), atol=1e-8)

    def test_two_simplex(self):
        t, witness = tau(simplex(2))
        assert_allclose(t, 0.5, atol=TAU_TOL)
        assert_allclose(witness, [0.5, 0.5], atol=1e-8)

    def test_skewed_hull_matches_grid_oracle(self):
        U = hull_to_inequalities(HULL_POINTS)
        grid_value = maximin_coordinate_grid(U.P, U.r, resolution=1001)
        assert abs(grid_value - 0.75) <= 2e-3
        t, witness = tau(U)
        assert_allclose(t, 0.75, atol=TAU_TOL)
        assert_allclose(witness, [0.75, 0.75], atol=1e-8)

    def test_empty_set_raises(self):
        with pytest.raises(EmptySet):
            tau(Polytope(1, [[1.0]], [-1.0]))

    def test_all_ones_membership_forces_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = rng.uniform(0.1, 1.0, size=n)
            cut_rhs = float(a.sum())  # keeps the all-ones point feasible
            P = np.vstack([np.eye(n), a])
            r = np.concatenate([np.ones(n), [cut_rhs]])
            t, _ = tau(Polytope(n, P, r))
            assert_allclose(t, 1.0, atol=1e-8)

    def test_valid_sets_obey_dimension_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0.1, 1.0, size=n)
            cut_rhs = float(a.max()) * rng.uniform(1.0, 2.0)
            P = np.vstack([np.eye(n), a])
            r = np.concatenate([np.ones(n), [cut_rhs]])
            U = Polytope(n, P, r)
            report = validate(U)
            assert report.is_valid_uncertainty_set
            t, witness = tau(U)
            assert 1.0 / n - 1e-9 <= t <= 1.0 + 1e-9
            assert_allclose(np.min(witness), t, atol=1e-8)


class TestEnumerateVertices:
    def test_two_simplex(self):
        verts = enumerate_vertices(simplex(2))
        assert_allclose(verts, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]], atol=1e-9)

    def test_unit_box_corners(self):
        verts = enumerate_vertices(box(2))
        assert_allclose(verts, [[0, 0], [0, 1], [1, 0], [1, 1]], atol=1e-9)

    def test_skewed_hull_recovers_generators(self):
        U = hull_to_inequalities(HULL_POINTS)
        verts = np.array(enumerate_vertices(U))
        expected = HULL_POINTS[np.lexsort(HULL_POINTS.T[::-1])]
        assert_allclose(verts, expected, atol=1e-9)

    def test_guard_on_dimension(self):
        with pytest.raises(DimensionTooLarge):
            enumerate_vertices(box(13))

    def test_vertices_feasible_and_span_witness(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            n_cuts = int(rng.integers(1, 3))
            A = rng.uniform(0.1, 1.0, size=(n_cuts, n))
            rhs = A.max(axis=1) * rng.uniform(1.0, 1.8, size=n_cuts)
            P = np.vstack([np.eye(n), A])
            r = np.concatenate([np.ones(n), rhs])
            U = Polytope(n, P, r)
            verts = enumerate_vertices(U)
            assert len(verts) >= n + 1
            for v in verts:
                assert np.all(v >= -1e-12)
                assert np.all(U.P @ v <= U.r + 1e-9)
            t, witness = tau(U)
            assert in_convex_hull(witness, verts)


class TestValidate:
    def test_standard_simplex_valid(self):
        report = validate(simplex(2))
        assert report.is_valid_uncertainty_set
        assert report.contains_zero
        assert report.inside_unit_box
        assert_allclose(report.axis_projections, [1.0, 1.0], atol=1e-9)

    def test_shrunk_simplex_invalid(self):
        U = Polytope(2, [[1.0, 1.0]], [0.5])
        with pytest.warns(UserWarning):
            report = validate(U)
        assert not report.is_valid_uncertainty_set
        assert report.contains_zero
        assert report.inside_unit_box
        assert_allclose(report.axis_projections, [0.5, 0.5], atol=1e-9)

    def test_skewed_hull_valid(self):
        report = validate(hull_to_inequalities(HULL_POINTS))
        assert report.is_valid_uncertainty_set

    def test_oversized_box_flagged(self):
        U = Polytope(1, [[1.0]], [1.5])
        with pytest.warns(UserWarning):
            report = validate(U)
        assert not report.inside_unit_box
        assert not report.is_valid_uncertainty_set


class TestLiftProduct:
    def test_single_period_is_identity(self):
        U = simplex(2)
        lifted = lift_product(U, 1)
        assert lifted.dimension == 2
        assert_allclose(lifted.P, U.P)
        assert_allclose(lifted.r, U.r)

    def test_two_period_simplex_block_structure(self):
        # Coordinate i*T + t is base coordinate i in period t: P is
        # kron(P', I_T), row k*T + t is row k of P' in period t.
        lifted = lift_product(simplex(2), 2)
        assert lifted.dimension == 4
        expected_P = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        assert_allclose(lifted.P, expected_P)
        assert_allclose(lifted.r, [1.0, 1.0])

    def test_tau_invariant_under_lift(self):
        t3, _ = tau(lift_product(simplex(2), 3))
        assert_allclose(t3, 0.5, atol=TAU_TOL)
        U = hull_to_inequalities(HULL_POINTS)
        for T in (1, 2, 3):
            t, _ = tau(lift_product(U, T))
            assert_allclose(t, 0.75, atol=TAU_TOL)


class TestHullConversion:
    def test_guard_above_three(self):
        with pytest.raises(DimensionTooLarge):
            hull_to_inequalities(np.eye(4))

    def test_round_trip_on_random_full_dim_hulls(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(2, 4))
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(n + 1, 7)), n))
            U = hull_to_inequalities(pts)
            verts = np.array(enumerate_vertices(U))
            # Every generator is inside; every vertex is a generator hull point.
            for p in pts:
                assert U.contains(p, tol=1e-7)
            for v in verts:
                assert in_convex_hull(v, pts)

    def test_degenerate_segment(self):
        U = hull_to_inequalities(np.array([[0.0, 0.0], [1.0, 1.0]]))
        verts = np.array(enumerate_vertices(U))
        assert_allclose(verts, [[0.0, 0.0], [1.0, 1.0]], atol=1e-9)
        assert U.contains([0.5, 0.5])
        assert not U.contains([0.6, 0.4], tol=1e-7)

    def test_contains_a_stack_of_points(self):
        # A stack holds when every row does.
        U = simplex(2)
        inside = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        assert U.contains(inside)
        for row in range(3):
            stack = inside.copy()
            stack[row] = [0.6, 0.6]
            assert not U.contains(stack, tol=1e-7)
        assert not U.contains(np.array([[0.5, 0.5], [-0.1, 0.0]]), tol=1e-7)

    def test_single_point(self):
        U = hull_to_inequalities(np.array([[0.25, 0.75]]))
        assert U.contains([0.25, 0.75])
        assert not U.contains([0.25, 0.74], tol=1e-7)
        verts = enumerate_vertices(U)
        assert len(verts) == 1
        assert_allclose(verts[0], [0.25, 0.75], atol=1e-9)


class TestPolytopeData:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="P must be m x dimension with matching r"):
            Polytope(2, np.ones((1, 2)), [1.0, 1.0])
        with pytest.raises(ValueError, match="P must be m x dimension with matching r"):
            Polytope(3, np.ones((1, 2)), [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="polytope data must be finite"):
            Polytope(2, [[1.0, np.nan]], [1.0])
        with pytest.raises(ValueError, match="polytope data must be finite"):
            Polytope(2, [[1.0, 1.0]], [np.inf])
