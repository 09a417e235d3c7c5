import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.spatial import ConvexHull

from oracles import maximin_coordinate_grid, vertices_by_bases
from robust_peakload import geometry
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
from robust_peakload.risk import _simplex_restricted
from robust_peakload.solver import LpSpec, solve_lp

TAU_TOL = 1e-9
MAXIMIZE_TOL = 1e-9

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

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


@st.composite
def enumeration_sets(draw):
    """Sets small enough for the basis oracle: box, simplex and budget sets
    and integer rows (degenerate vertices, unbounded sets too), each as it
    is or with repeated rows, with the equality pair of the simplex
    restriction, with a negative right-hand side, made empty, or with no
    rows of P at all."""
    n = draw(st.integers(1, 4))
    base = draw(st.sampled_from(["box", "simplex", "budget", "integer", "free"]))
    if base == "box":
        U = box(n)
    elif base == "simplex":
        U = simplex(n)
    elif base == "budget":
        U = _budget(n, draw(st.integers(1, 2 * n)) / 2.0)
    elif base == "integer":
        m = draw(st.integers(1, 3))
        P = np.array(draw(st.lists(st.lists(st.integers(-2, 3), min_size=n, max_size=n),
                                   min_size=m, max_size=m)), dtype=float)
        r = np.array(draw(st.lists(st.integers(-1, 4), min_size=m, max_size=m)), dtype=float)
        if draw(st.booleans()):
            P, r = np.vstack([np.eye(n), P]), np.concatenate([np.ones(n), r])
        U = Polytope(n, P, r)
    else:
        U = Polytope(n, np.zeros((0, n)), np.zeros(0))
    extra = draw(st.sampled_from(["none", "repeated", "restricted", "negative", "empty"]))
    k = draw(st.integers(0, n - 1))
    if extra == "repeated" and U.r.size:
        rows = draw(st.lists(st.integers(0, U.r.size - 1), min_size=1, max_size=2))
        return Polytope(n, np.vstack([U.P, U.P[rows]]), np.concatenate([U.r, U.r[rows]]))
    if extra == "restricted":
        return _simplex_restricted(U)
    if extra == "negative":
        # u_k >= level, a row with a negative right-hand side.
        level = draw(st.sampled_from([0.25, 0.5, 1.0]))
        return Polytope(n, np.vstack([U.P, -np.eye(n)[k]]), np.concatenate([U.r, [-level]]))
    if extra == "empty":
        # u_k >= 2 and u_k <= 1.
        return Polytope(n, np.vstack([U.P, -np.eye(n)[k], np.eye(n)[k]]),
                        np.concatenate([U.r, [-2.0, 1.0]]))
    return U


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

    def test_closed_form_counts_at_the_guard(self):
        # box(12): 2^12 corners; budget(12) at 2: the origin, the 12 unit
        # vectors and the 66 pairs; simplex(12): the origin and 12 corners.
        assert len(enumerate_vertices(box(12))) == 4096
        assert len(enumerate_vertices(_budget(12, 2.0))) == 79
        assert len(enumerate_vertices(simplex(12))) == 13

    def test_random_hull_vertices_are_extreme(self):
        # Generators on the coordinate planes give hull facets that repeat a
        # plane u_i >= 0 up to last-bit noise; no basis of such nearly
        # parallel planes may add a point.
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(n + 1, 9)), n))
            pts[rng.uniform(size=pts.shape) < 0.3] = 0.0
            verts = np.array(enumerate_vertices(hull_to_inequalities(pts)))
            for k, v in enumerate(verts):
                assert not in_convex_hull(v, np.delete(verts, k, axis=0))
            if np.linalg.matrix_rank(pts - pts[0]) == n:
                assert len(verts) == len(ConvexHull(pts).vertices)

    @PROPERTY
    @given(enumeration_sets())
    def test_matches_basis_oracle(self, U):
        found = enumerate_vertices(U)
        expected = vertices_by_bases(U)
        assert len(found) == len(expected)
        for v in found:
            assert min(np.max(np.abs(v - w)) for w in expected) <= 1e-9
        for w in expected:
            assert min(np.max(np.abs(v - w)) for v in found) <= 1e-9

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
    def test_guard_above_twelve(self):
        with pytest.raises(DimensionTooLarge):
            hull_to_inequalities(np.vstack([np.zeros(13), np.eye(13)]))

    def test_flat_hull_in_many_coordinates(self):
        # The guard is on the affine dimension: a triangle in R^13 converts.
        pts = np.vstack([np.zeros(13), np.eye(13)[:2]])
        U = hull_to_inequalities(pts)
        assert U.contains(pts, tol=1e-9)
        assert U.contains(pts.mean(axis=0), tol=1e-9)
        assert not U.contains(np.eye(13)[2] / 2, tol=1e-7)
        assert not U.contains(pts[1] + pts[2], tol=1e-7)

    def test_four_coordinate_round_trip(self):
        # The origin, the unit vectors and the point 0.5 * ones are the
        # vertices; the interior point and the repeated corner are not.
        pts = np.vstack([np.zeros(4), np.eye(4), np.full(4, 0.5), np.full(4, 0.2),
                         np.eye(4)[1]])
        verts = np.array(enumerate_vertices(hull_to_inequalities(pts)))
        expected = pts[:6][np.lexsort(pts[:6].T[::-1])]
        assert_allclose(verts, expected, atol=1e-9)

    def test_non_finite_generators_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                hull_to_inequalities([[bad, 0.0], [1.0, 0.0]])

    def test_matches_qhull_facets(self):
        # Generators on coordinate planes and repeated generators give
        # facets that qhull triangulates into several coplanar simplices;
        # its distinct facet planes are counted.
        rng = np.random.default_rng(19)
        for trial in range(60):
            n = int(rng.integers(2, 7))
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(n + 1, 15)), n))
            pts[rng.uniform(size=pts.shape) < 0.25] = 0.0
            pts = np.vstack([pts, pts[rng.integers(0, len(pts), size=2)]])
            if np.linalg.matrix_rank(pts - pts[0]) < n:
                continue
            U = hull_to_inequalities(pts)
            assert U.contains(pts, tol=1e-9), f"trial {trial}"
            qhull = ConvexHull(pts)
            planes = []
            for e in qhull.equations:
                if all(np.max(np.abs(e - f)) > 1e-7 for f in planes):
                    planes.append(e)
            assert len(U.r) == len(planes), f"trial {trial}"
            verts = np.array(enumerate_vertices(U))
            hull_verts = pts[qhull.vertices]
            assert len(verts) == len(hull_verts), f"trial {trial}"
            for w in hull_verts:
                assert np.min(np.max(np.abs(verts - w), axis=1)) <= 1e-9, f"trial {trial}"

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


# ---------------------------------------------------------------------------
# Polytope.maximize, the one linear program over a set


def _budget(n, gamma):
    """The budget set {u in [0, 1]^n : sum u <= gamma}."""
    return Polytope(n, np.vstack([np.eye(n), np.ones((1, n))]),
                    np.concatenate([np.ones(n), [gamma]]))


@st.composite
def uncertainty_sets(draw):
    """Box, simplex and budget sets, and hulls of grid points by
    hull_to_inequalities: full-dimensional ones and degenerate ones (a
    point, points on a segment, a flat polygon in three dimensions)."""
    n = draw(st.integers(1, 3))
    form = draw(st.sampled_from(["box", "simplex", "budget", "hull", "segment", "flat"]))
    if form == "box":
        return box(n)
    if form == "simplex":
        return simplex(n)
    if form == "budget":
        return _budget(n, draw(st.integers(1, 8)) * n / 8.0)
    grid = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    if form == "hull":
        points = draw(st.lists(grid, min_size=1, max_size=6))
        return hull_to_inequalities(np.array(points, dtype=float) / 4.0)
    base = np.array(draw(grid), dtype=float)
    if form == "segment":
        step = np.array(draw(grid), dtype=float)
        scale = max(1.0, float(np.max(base + 2.0 * step)))
        points = [base + k * step for k in draw(st.lists(st.integers(0, 2), min_size=1,
                                                         max_size=3))]
        return hull_to_inequalities(np.array(points) / scale)
    # A flat polygon: grid points of the plane u_3 = base_3.
    flat = draw(st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2),
                         min_size=1, max_size=5))
    points = np.array([[a, b, base[-1]] for a, b in flat], dtype=float) / 4.0
    return hull_to_inequalities(points)


costs = st.lists(st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
                 min_size=3, max_size=3)


class TestMaximize:
    @PROPERTY
    @given(uncertainty_sets(), costs)
    def test_matches_vertex_maximum(self, U, c):
        c = np.array(c[: U.dimension])
        value, argmax = U.maximize(c)
        assert abs(value - max(c @ v for v in enumerate_vertices(U))) <= MAXIMIZE_TOL
        assert U.contains(argmax, tol=MAXIMIZE_TOL)
        assert abs(c @ argmax - value) <= MAXIMIZE_TOL

    @PROPERTY
    @given(uncertainty_sets())
    def test_tau_matches_lifted_vertices(self, U):
        # tau is the largest t over the vertices of {(t, u) >= 0 : t <= u_i,
        # u in U}; its witness lies in U and attains t on every coordinate.
        n, m = U.dimension, U.P.shape[0]
        lifted = Polytope(1 + n, np.vstack([np.hstack([np.ones((n, 1)), -np.eye(n)]),
                                            np.hstack([np.zeros((m, 1)), U.P])]),
                          np.concatenate([np.zeros(n), U.r]))
        t, witness = tau(U)
        assert abs(t - max(v[0] for v in enumerate_vertices(lifted))) <= MAXIMIZE_TOL
        assert U.contains(witness, tol=MAXIMIZE_TOL)
        assert np.min(witness) >= t - MAXIMIZE_TOL

    @PROPERTY
    @given(uncertainty_sets(), costs)
    def test_empty_set_raises(self, U, c):
        # Cut the set by u_1 >= 2 and u_1 <= 1.
        n = U.dimension
        e = np.eye(n)[:1]
        empty = Polytope(n, np.vstack([U.P, -e, e]), np.concatenate([U.r, [-2.0, 1.0]]))
        with pytest.raises(EmptySet):
            empty.maximize(np.array(c[:n]))
        with pytest.raises(EmptySet):
            tau(empty)
        with pytest.raises(EmptySet):
            validate(empty)

    @PROPERTY
    @given(st.integers(1, 4), st.data())
    def test_unbounded_set_raises(self, n, data):
        # The box without its row for coordinate k is unbounded along u_k.
        k = data.draw(st.integers(0, n - 1))
        keep = np.arange(n) != k
        U = Polytope(n, np.eye(n)[keep], np.ones(n - 1))
        c = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
        c[k] = data.draw(st.floats(0.125, 2.0))
        with pytest.raises(ValueError, match="unbounded"):
            U.maximize(c)
        with pytest.raises(ValueError, match="unbounded"):
            validate(U)

    def test_tau_poses_the_documented_layout(self, monkeypatch):
        # tau's LP over (t, u) has the rows [[1, -I], [0, P]] and the
        # right-hand side [0, r], byte for byte.
        posed = []

        def capture(spec):
            posed.append(spec)
            return solve_lp(spec)

        monkeypatch.setattr(geometry, "solve_lp", capture)
        U = hull_to_inequalities(HULL_POINTS)
        tau(U)
        (spec,) = posed
        n, m = U.dimension, U.P.shape[0]
        A = np.zeros((n + m, 1 + n))
        A[:n, 0] = 1.0
        A[np.arange(n), 1 + np.arange(n)] = -1.0
        A[n:, 1:] = U.P
        assert spec.objective_sense == "max"
        assert spec.cost.tobytes() == np.concatenate([[1.0], np.zeros(n)]).tobytes()
        assert spec.constraint_matrix.tobytes() == A.tobytes()
        assert spec.constraint_rhs.tobytes() == np.concatenate([np.zeros(n), U.r]).tobytes()
        assert spec.constraint_kinds == ("<=",) * (n + m)


# ---------------------------------------------------------------------------
# Closed forms on down-closed sets (P >= 0 and r >= 0 entrywise)


@st.composite
def down_closed_sets(draw):
    """Nonnegative integer rows and right-hand sides, zero rows, zero
    columns, zero right-hand sides and no rows at all included."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    P = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    r = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    return Polytope(n, np.array(P, dtype=float).reshape(m, n), np.array(r) / 2.0)


def _lp_twin(U):
    """U with the redundant row -u_1 <= 0: the same set, not down-closed, so
    validate and tau pose their LPs on it."""
    return Polytope(U.dimension, np.vstack([U.P, -np.eye(U.dimension)[:1]]),
                    np.concatenate([U.r, [0.0]]))


def _validate_warnings(U):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate(U)
    return report, len(caught)


class TestDownClosed:
    @PROPERTY
    @given(down_closed_sets())
    def test_axis_maxima_match_the_lp(self, U):
        bounded = np.any(U.P > 0.0, axis=0)
        if not np.all(bounded):
            with pytest.raises(ValueError, match="unbounded"):
                validate(U)
            with pytest.raises(ValueError, match="unbounded"):
                validate(_lp_twin(U))
            return
        report, warned = _validate_warnings(U)
        lp_report, lp_warned = _validate_warnings(_lp_twin(U))
        assert warned == lp_warned
        assert report.is_valid_uncertainty_set == lp_report.is_valid_uncertainty_set
        assert report.inside_unit_box == lp_report.inside_unit_box
        assert report.contains_zero and lp_report.contains_zero
        vertices = enumerate_vertices(U)
        for i, e in enumerate(np.eye(U.dimension)):
            value = report.axis_projections[i]
            assert abs(value - U.maximize(e)[0]) <= MAXIMIZE_TOL
            assert abs(value - max(v[i] for v in vertices)) <= MAXIMIZE_TOL

    @PROPERTY
    @given(down_closed_sets())
    def test_tau_matches_the_lp_and_lifted_vertices(self, U):
        if not np.any(U.P > 0.0):
            with pytest.raises(ValueError, match="unbounded"):
                tau(U)
            with pytest.raises(ValueError, match="unbounded"):
                tau(_lp_twin(U))
            return
        n, m = U.dimension, U.P.shape[0]
        lifted = Polytope(1 + n, np.vstack([np.hstack([np.ones((n, 1)), -np.eye(n)]),
                                            np.hstack([np.zeros((m, 1)), U.P])]),
                          np.concatenate([np.zeros(n), U.r]))
        t, witness = tau(U)
        assert abs(t - tau(_lp_twin(U))[0]) <= MAXIMIZE_TOL
        assert abs(t - max(v[0] for v in enumerate_vertices(lifted))) <= MAXIMIZE_TOL
        assert U.contains(witness, tol=MAXIMIZE_TOL)
        assert np.min(witness) == t

    def test_named_sets_pose_no_lp(self, monkeypatch):
        def refuse(spec):
            raise AssertionError("a down-closed set posed an LP")

        monkeypatch.setattr(geometry, "solve_lp", refuse)
        for U in (box(3), simplex(3), _budget(6, 2.0)):
            report = validate(U)
            assert report.is_valid_uncertainty_set
            assert report.axis_projections.tolist() == [1.0] * U.dimension
            t, witness = tau(U)
            assert witness.tolist() == [t] * U.dimension
        assert tau(box(3))[0] == 1.0
        assert tau(simplex(3))[0] == 1.0 / 3.0
        assert tau(_budget(6, 2.0))[0] == 2.0 / 6.0

    def test_hull_poses_its_lps(self, monkeypatch):
        posed = []

        def count(spec):
            posed.append(spec)
            return solve_lp(spec)

        monkeypatch.setattr(geometry, "solve_lp", count)
        U = hull_to_inequalities(HULL_POINTS)
        assert np.any(U.P < 0.0)
        validate(U)
        assert len(posed) == U.dimension
        tau(U)
        assert len(posed) == U.dimension + 1
