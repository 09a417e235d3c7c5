"""Polyhedral uncertainty sets: representation, validation, the max-min
coordinate program tau, vertex enumeration, and the per-period product lift.

Every linear program over a set, tau's and validate's included, is one call
of Polytope.maximize, which raises EmptySet for an empty set and ValueError
for a set unbounded along the objective.

A set is stored as {u >= 0 : P u <= r}; nonnegativity is implicit and never
appears among the rows of P.  Uncertainty sets used by the market modules are
expected to live inside the unit box with every axis projection equal to
[0, 1]; `validate` reports against exactly those requirements.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from robust_peakload.solver import LpSpec, solve_lp

VERTEX_DEDUP_TOL = 1e-9
VERTEX_FEAS_TOL = 1e-9
AXIS_TOL = 1e-9
MAX_ENUM_DIM = 12


class EmptySet(Exception):
    """The polytope has no feasible point."""


class DimensionTooLarge(Exception):
    """Exhaustive enumeration/conversion is guarded at small dimensions."""


@dataclass
class Polytope:
    """Bounded set {u in R^n : u >= 0, P u <= r}."""

    dimension: int
    P: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if self.P.size == 0:
            self.P = np.zeros((0, self.dimension))
        self.r = np.asarray(self.r, dtype=float).reshape(-1)
        if self.P.shape != (self.r.size, self.dimension):
            raise ValueError("P must be m x dimension with matching r")
        if not (np.all(np.isfinite(self.P)) and np.all(np.isfinite(self.r))):
            raise ValueError("polytope data must be finite")

    def contains(self, u, tol=1e-9):
        """Whether the point u, or every row of a stack of points u, lies in
        the set up to tol."""
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= -tol) and np.all((self.P @ u.T).T <= self.r + tol))

    def maximize(self, c):
        """max over u in the set of c'u; returns (value, argmax u).

        Raises EmptySet when the set has no point and ValueError when c'u
        is unbounded over it."""
        out = solve_lp(LpSpec("max", c, self.P, self.r, ["<="] * self.r.size))
        if out.status == "infeasible":
            raise EmptySet("polytope has no feasible point")
        if out.status != "optimal":
            raise ValueError("linear objective is unbounded; the set is not bounded")
        return float(out.objective), out.primal


@dataclass
class ValidationReport:
    contains_zero: bool
    inside_unit_box: bool
    axis_projections: np.ndarray
    is_valid_uncertainty_set: bool


def box(n):
    """The unit box [0, 1]^n."""
    return Polytope(n, np.eye(n), np.ones(n))


def simplex(n):
    """The standard simplex {u >= 0 : sum_i u_i <= 1}."""
    return Polytope(n, np.ones((1, n)), np.ones(1))


def tau(U: Polytope):
    """Largest t such that some u in U has every coordinate >= t.

    Returns (tau, witness).  Solved as one LP over (t, u) >= 0: maximize t
    subject to t - u_i <= 0 for each coordinate and P u <= r, the rows
    [[1, -I], [0, P]].
    """
    n, m = U.dimension, U.P.shape[0]
    rows = np.block([[np.ones((n, 1)), np.diag(np.full(n, -1.0))],
                     [np.zeros((m, 1)), U.P]])
    lifted = Polytope(1 + n, rows, np.concatenate([np.zeros(n), U.r]))
    value, argmax = lifted.maximize(np.concatenate([[1.0], np.zeros(n)]))
    return value, argmax[1:]


def enumerate_vertices(U: Polytope):
    """All vertices of {u >= 0 : P u <= r}, in lexicographic order.

    Exhaustive basis enumeration over the m + n constraint hyperplanes
    (rows of P plus the coordinate planes), feasibility-checked and
    deduplicated at 1e-9.
    """
    n = U.dimension
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"vertex enumeration is guarded at n <= {MAX_ENUM_DIM}")
    planes = [(U.P[j], U.r[j]) for j in range(U.P.shape[0])]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e, 0.0))
    vertices = []
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            u = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(u)):
            continue
        if np.any(u < -1e-12) or np.any(U.P @ u > U.r + VERTEX_FEAS_TOL):
            continue
        u = np.where(np.abs(u) < 1e-12, 0.0, u)
        if all(np.max(np.abs(u - v)) > VERTEX_DEDUP_TOL for v in vertices):
            vertices.append(u)
    vertices.sort(key=lambda v: tuple(v))
    return vertices


def validate(U: Polytope) -> ValidationReport:
    """Check the standing requirements on an uncertainty set.

    Valid means: contains the origin, sits inside the unit box, and projects
    onto exactly [0, 1] on every coordinate axis.  Invalid sets produce a
    warning, never an exception; callers read the report.
    """
    contains_zero = bool(np.all(U.r >= -AXIS_TOL))
    maxima = np.array([U.maximize(e)[0] for e in np.eye(U.dimension)])
    inside_unit_box = bool(np.all(maxima <= 1.0 + AXIS_TOL))
    full_projections = bool(np.all(np.abs(maxima - 1.0) <= AXIS_TOL))
    is_valid = contains_zero and inside_unit_box and full_projections
    if not is_valid:
        warnings.warn("polytope fails the uncertainty-set requirements "
                      f"(contains_zero={contains_zero}, axis maxima={maxima})",
                      stacklevel=2)
    return ValidationReport(contains_zero, inside_unit_box, maxima, is_valid)


def lift_product(Uprime: Polytope, T: int) -> Polytope:
    """T-fold Cartesian product of Uprime, one copy per period.

    This is the one place that fixes the library's coordinate order, the
    producer-major order of every N x T matrix: coordinate i*T + t is the
    factor for base coordinate i in period t.  An N x T scenario u flattens
    to a point of the product by u.reshape(-1), exactly as a production plan
    x flattens to the x variables of a program, so lifted coordinate k
    prices variable k.  Row k*T + t of the product is row k of Uprime in
    period t.
    """
    if T < 1:
        raise ValueError("T must be a positive count")
    n = Uprime.dimension
    P = np.kron(Uprime.P, np.eye(T))
    r = np.repeat(Uprime.r, T)
    return Polytope(n * T, P, r)


def _facets_full_dim(points):
    """Supporting hyperplanes of a full-dimensional hull, as (a, b) rows."""
    k, d = points.shape
    facets = []
    for combo in itertools.combinations(range(k), d):
        base = points[combo[0]]
        diffs = points[list(combo[1:])] - base
        if d == 1:
            normal = np.ones(1)
        else:
            _, s, vt = np.linalg.svd(diffs, full_matrices=True)
            rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
            if rank != d - 1:
                continue  # combo does not span a unique hyperplane
            normal = vt[-1]
        offset = float(normal @ base)
        vals = points @ normal
        if np.all(vals <= offset + 1e-9):
            facets.append((normal, offset))
        elif np.all(vals >= offset - 1e-9):
            facets.append((-normal, -offset))
    dedup = []
    for a, b in facets:
        scale = np.max(np.abs(a))
        if scale < 1e-12:
            continue
        a, b = a / scale, b / scale
        if all(np.max(np.abs(a - a2)) > 1e-9 or abs(b - b2) > 1e-9 for a2, b2 in dedup):
            dedup.append((a, b))
    return dedup


def hull_to_inequalities(vertices) -> Polytope:
    """Convert a vertex list (n <= 3) to inequality form.

    Degenerate hulls (segments, flat polygons) are handled by describing the
    affine hull with paired inequalities and running the facet search inside
    affine coordinates.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2:
        raise ValueError("vertices must be a 2-d array-like")
    if V.shape[1] > 3:
        raise DimensionTooLarge("vertex-form conversion is guarded at n <= 3")
    return _convert_hull(V)


def _convert_hull(V) -> Polytope:
    """Facet conversion without the dimension guard; V is a k x n array."""
    k, n = V.shape
    if k == 0:
        raise ValueError("empty vertex list")
    if np.any(V < -1e-12):
        raise ValueError("uncertainty-set vertices must be nonnegative")

    v0 = V[0]
    D = V - v0
    if k == 1:
        rank = 0
        basis = np.zeros((n, 0))
        complement = np.eye(n)
    else:
        _, s, vt = np.linalg.svd(D, full_matrices=True)
        rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
        basis = vt[:rank].T
        complement = vt[rank:].T
    rows, rhs = [], []
    # Pin the affine hull with paired inequalities along its orthogonal
    # complement, then cut within affine coordinates.
    if rank < n:
        for j in range(complement.shape[1]):
            w = complement[:, j]
            scale = np.max(np.abs(w))
            w = w / scale
            rows.append(w)
            rhs.append(float(w @ v0))
            rows.append(-w)
            rhs.append(float(-w @ v0))
    if rank > 0:
        coords = D @ basis
        for alpha, beta in _facets_full_dim(coords):
            a = basis @ alpha
            rows.append(a)
            rhs.append(float(beta + a @ v0))
    P = np.array(rows) if rows else np.zeros((0, n))
    r = np.array(rhs) if rhs else np.zeros(0)
    poly = Polytope(n, P, r)
    for v in V:
        if not poly.contains(v, tol=1e-7):
            raise ValueError("facet conversion failed to cover an input vertex")
    return poly
