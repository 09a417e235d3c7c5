"""Polyhedral uncertainty sets: representation, validation, the max-min
coordinate program tau, conversion between vertex and inequality form, and
the per-period product lift.

Every linear program over a set is one call of Polytope.maximize, which
raises EmptySet for an empty set and ValueError for a set unbounded along the
objective.  validate's axis maxima and tau pose no program on a down-closed
set, one with P >= 0 and r >= 0 entrywise (box, simplex, budget and VaR
boxes): with u in U, every 0 <= v <= u is in U, so the largest t with t d in
U along a direction d >= 0 is the least r_k / (P d)_k over the rows with
(P d)_k > 0, and no such row means the set is unbounded along d (the same
ValueError).  The axis maximum of coordinate i takes d = e_i; tau takes
d = 1, with witness tau * 1.  Any other set poses maximize's LPs.

Both conversions run one double description routine, which itself solves
no linear system and has one zero tolerance, VERTEX_ZERO_TOL, on the value of
a row at a ray (both scaled to unit largest entry).  enumerate_vertices runs
it on the cone over the set and returns each vertex once, sorted
lexicographically on its coordinates rounded to 1e-9; hull_to_inequalities
runs it on the cone of valid inequalities of the points within their affine
hull.  Both are guarded at MAX_ENUM_DIM: the set's dimension for the first,
the hull's affine dimension for the second.

A set is stored as {u >= 0 : P u <= r}; nonnegativity is implicit and never
appears among the rows of P.  Uncertainty sets used by the market modules are
expected to live inside the unit box with every axis projection equal to
[0, 1]; `validate` reports against exactly those requirements.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from robust_peakload.solver import LpSpec, solve_lp

VERTEX_ZERO_TOL = 1e-9
AXIS_TOL = 1e-9
MAX_ENUM_DIM = 12
_PAIR_BLOCK = 1 << 16


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


def _down_closed_reach(U: Polytope, D):
    """The largest t with t d in U for each column d >= 0 of D, or None when
    U is not down-closed (some entry of P or r negative).

    On a down-closed set that is the least r_k / (P d)_k over the rows with
    (P d)_k > 0; a column with no such row raises the ValueError of an
    unbounded LP."""
    if not (np.all(U.P >= 0.0) and np.all(U.r >= 0.0)):
        return None
    PD = U.P @ D
    ratio = np.divide(U.r[:, None], PD, out=np.full(PD.shape, np.inf), where=PD > 0.0)
    reach = np.min(ratio, axis=0, initial=np.inf)
    if np.any(np.isinf(reach)):
        raise ValueError("linear objective is unbounded; the set is not bounded")
    return reach


def tau(U: Polytope):
    """Largest t such that some u in U has every coordinate >= t.

    Returns (tau, witness).  On a down-closed set, the closed form of the
    module docstring with witness tau * 1.  Otherwise one LP over
    (t, u) >= 0: maximize t subject to t - u_i <= 0 for each coordinate and
    P u <= r, the rows [[1, -I], [0, P]].
    """
    n, m = U.dimension, U.P.shape[0]
    reach = _down_closed_reach(U, np.ones((n, 1)))
    if reach is not None:
        return float(reach[0]), np.full(n, reach[0])
    rows = np.block([[np.ones((n, 1)), np.diag(np.full(n, -1.0))],
                     [np.zeros((m, 1)), U.P]])
    lifted = Polytope(1 + n, rows, np.concatenate([np.zeros(n), U.r]))
    value, argmax = lifted.maximize(np.concatenate([[1.0], np.zeros(n)]))
    return value, argmax[1:]


def enumerate_vertices(U: Polytope):
    """All vertices of {u >= 0 : P u <= r}, each once, in lexicographic order.

    The double description method on the cone {(u, s) >= 0 : P u - r s <= 0},
    started from the n + 1 unit rays of the orthant.  The vertices are u / s
    over the extreme rays with s > 0, so an empty set gives [] and an
    unbounded one its vertices alone.  They are sorted on their coordinates
    rounded to 1e-9, so that last-bit noise does not decide the order, and
    returned unrounded.
    """
    n = U.dimension
    if n > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"vertex enumeration is guarded at n <= {MAX_ENUM_DIM}")
    orthant = np.eye(n + 1)
    rays = _double_description(orthant, orthant == 0.0, np.hstack([U.P, -U.r[:, None]]))
    rays = rays[rays[:, n] > 0.0]
    vertices = rays[:, :n] / rays[:, n:]
    order = np.lexsort(np.round(vertices, 9).T[::-1])
    return list(vertices[order])


def _double_description(rays, tight, rows):
    """Extreme rays of {x in C : rows x <= 0}, C a pointed cone given by its
    extreme rays (rows of `rays`) and their incidence with the constraints
    that define it (tight[k, j]: ray k meets constraint j).

    The double description method (Motzkin, Raiffa, Thompson & Thrall): add
    the rows one at a time, each scaled to unit largest coefficient.  A row
    keeps the rays on its feasible side and joins every adjacent pair on
    opposite sides into a new ray on the row; every ray is scaled to unit
    largest |entry|.  Two rays are adjacent when no third ray meets every
    constraint both meet (Fukuda & Prodon's combinatorial test).  A ray
    meets a row when |row . ray| <= VERTEX_ZERO_TOL; a joined ray meets the
    constraints both its parents meet.
    """
    scale = np.max(np.abs(rows), axis=1, initial=0.0)
    rows = rows / np.where(scale > 0.0, scale, 1.0)[:, None]
    rays = rays / np.max(np.abs(rays), axis=1, keepdims=True)
    first = tight.shape[1]
    tight = np.hstack([tight, np.zeros((len(rays), len(rows)), dtype=bool)])
    for j, row in enumerate(rows, start=first):
        value = rays @ row
        zero = np.abs(value) <= VERTEX_ZERO_TOL
        plus = ~zero & (value > 0.0)
        p, q = _adjacent_pairs(tight, np.flatnonzero(plus),
                               np.flatnonzero(~zero & (value < 0.0)), rays.shape[1])
        joined = value[p, None] * rays[q] - value[q, None] * rays[p]
        joined /= np.max(np.abs(joined), axis=1, keepdims=True)
        met = tight[p] & tight[q]
        met[:, j] = True
        tight[zero, j] = True
        rays = np.vstack([rays[~plus], joined])
        tight = np.vstack([tight[~plus], met])
    return rays


def _adjacent_pairs(tight, plus, minus, dim):
    """The adjacent pairs of rays of a cone in R^dim, one from plus and one
    from minus (index arrays into the rows of tight), as two index arrays.

    A pair shares at least dim - 2 tight constraints and no third ray is
    tight on all of the shared ones.  Every count is one matrix product,
    taken in blocks of at most _PAIR_BLOCK entries, which bounds the
    memory."""
    if not (len(plus) and len(minus)):
        return plus[:0], minus[:0]
    incidence = tight.astype(float)
    p, q = [], []
    step = max(1, _PAIR_BLOCK // len(minus))
    for lo in range(0, len(plus), step):
        block = plus[lo:lo + step]
        i, j = np.nonzero(incidence[block] @ incidence[minus].T >= dim - 2)
        p.append(block[i])
        q.append(minus[j])
    p, q = np.concatenate(p), np.concatenate(q)
    adjacent = np.zeros(len(p), dtype=bool)
    step = max(1, _PAIR_BLOCK // len(tight))
    for lo in range(0, len(p), step):
        common = incidence[p[lo:lo + step]] * incidence[q[lo:lo + step]]
        covering = (common @ incidence.T) >= common.sum(axis=1, keepdims=True)
        adjacent[lo:lo + step] = covering.sum(axis=1) == 2
    return p[adjacent], q[adjacent]


def validate(U: Polytope) -> ValidationReport:
    """Check the standing requirements on an uncertainty set.

    Valid means: contains the origin, sits inside the unit box, and projects
    onto exactly [0, 1] on every coordinate axis.  The axis maxima are closed
    forms on a down-closed set and one LP per coordinate otherwise.  Invalid
    sets produce a warning, never an exception; callers read the report.
    """
    contains_zero = bool(np.all(U.r >= -AXIS_TOL))
    maxima = _down_closed_reach(U, np.eye(U.dimension))
    if maxima is None:
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


def hull_to_inequalities(vertices) -> Polytope:
    """Convert a vertex list (a k x n array of nonnegative points) to
    inequality form.

    One SVD of the points' differences from the first finds the affine hull;
    paired rows along its orthogonal complement pin it.  Inside affine
    coordinates c_j, the facets (a, b) are the extreme rays of the cone
    {(a, b) : c_j . a - b <= 0 for every j}, computed by the double
    description method started from the simplicial cone of d + 1 affinely
    independent generators, picked greedily by largest residual.  Duplicate
    and interior generators are redundant rows.  The affine dimension d is
    guarded at MAX_ENUM_DIM.
    """
    V = np.asarray(vertices, dtype=float)
    if V.ndim != 2:
        raise ValueError("vertices must be a 2-d array-like")
    k, n = V.shape
    if k == 0:
        raise ValueError("empty vertex list")
    if not np.all(np.isfinite(V)):
        raise ValueError("uncertainty-set vertices must be finite")
    if np.any(V < -1e-12):
        raise ValueError("uncertainty-set vertices must be nonnegative")

    v0 = V[0]
    D = V - v0
    _, s, vt = np.linalg.svd(D, full_matrices=True)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    if rank > MAX_ENUM_DIM:
        raise DimensionTooLarge(
            f"hull conversion is guarded at affine dimension <= {MAX_ENUM_DIM}")
    pin = vt[rank:] / np.max(np.abs(vt[rank:]), axis=1, keepdims=True)
    facets = _hull_facets(D @ vt[:rank].T) if rank else np.zeros((0, 1))
    a = facets[:, :rank] @ vt[:rank]
    poly = Polytope(n, np.vstack([pin, -pin, a]),
                    np.concatenate([pin @ v0, -pin @ v0, facets[:, rank] + a @ v0]))
    if not poly.contains(V, tol=1e-7):
        raise ValueError("facet conversion failed to cover an input vertex")
    return poly


def _hull_facets(C):
    """The facets (a, b), a . c <= b, of the hull of the rows of C (k x d, of
    affine rank d >= 1), as the rows [a | b], each scaled to unit largest
    |a_i|.

    They are the extreme rays of {(a, b) : C a - b <= 0}.  The start cone
    keeps the rows of d + 1 generators picked greedily, each the one with
    the largest residual off the affine span of those before; its rays are
    the columns of -R0^-1, R0 the kept rows, ray i tight on every kept row
    but row i.
    """
    k, d = C.shape
    rows = np.hstack([C, -np.ones((k, 1))])
    chosen = [0]
    residual = C - C[0]
    for _ in range(d):
        j = int(np.argmax(np.linalg.norm(residual, axis=1)))
        chosen.append(j)
        w = residual[j] / np.linalg.norm(residual[j])
        residual = residual - np.outer(residual @ w, w)
    rays = _double_description(-np.linalg.inv(rows[chosen]).T, ~np.eye(d + 1, dtype=bool),
                               np.delete(rows, chosen, axis=0))
    return rays / np.max(np.abs(rays[:, :d]), axis=1, keepdims=True)
