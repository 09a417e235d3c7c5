"""Dense linear and convex quadratic programming with dual certificates.

Both solvers operate on explicit row constraints

    minimize or maximize    cost' x  (+ 1/2 x' Q x)
    subject to              constraint_matrix @ x  (<= | = | >=)  constraint_rhs
                            variable_lower_bounds <= x <= variable_upper_bounds

and return, besides the primal point, one Lagrange multiplier per constraint
row plus per-variable reduced costs under the following sign convention: the
objective gradient satisfies  grad = A' duals + reduced_costs,  with duals >= 0
on rows whose stated sense blocks the improving direction (">=" rows of a
minimization, "<=" rows of a maximization), duals <= 0 on the opposite sense,
and free duals on equality rows.  Reduced costs play the same role for the
variable bounds.

The LP path is a dense two-phase simplex that holds only the condensed
tableau D = B^-1 A_N (Chvatal, Linear Programming, 1983, ch. 7); a pivot
is a Jordan exchange, the entering variable's slot taking the leaving
variable's column.  Each row starts on its slack where it can: a row is
negated when its right-hand side is negative, or zero under ">=", and each
"<=" row then holds at v = 0.  Only "=" rows and ">=" rows with a positive
right-hand side take an artificial; without them (a homogeneous cone of
">=" rows, say) no phase 1 runs, and the artificials phase 1 leaves
nonbasic are dropped.  The pivot rules (_simplex_phase) name variables by
index, not by slot, so a full-tableau simplex takes the same path up to
rounding in the reduced costs.
Which side is solved follows from the input.  A program whose slack start
needs an artificial and whose internal (min) cost is >= 0 with a positive
entry -- the robust planners: every price of the model is >= 0 -- is
solved from its dual, max b'lam s.t. A'lam <= c, written over w >= 0 with
lam = S w, S signing the "<=" and ">=" rows and splitting each "=" row
into a +/- pair (Chvatal, ch. 5 and 10).  Its rows are "<=" rows with
right-hand side c >= 0, so it starts on its slacks and runs no phase 1;
the primal point is its row duals, negated, and an unbounded dual means an
infeasible primal.  Every other program is solved from the primal side.
A zero-cost (feasibility) program keeps phase 1: its dual has a zero
right-hand side, so every dual pivot is degenerate (177 of them against 71
phase-1 pivots on a 6x12 tie-break feasibility LP, by one measurement).
The QP path is a primal active-set method, from a feasible start the
caller supplies or else from the optimum of a feasibility LP.  Final primal
and dual values are recomputed from the optimal basis / working set with
dense linear solves.
Both solvers then end in one builder, _optimal: it forms the reduced costs,
the certificate (_certificate: four KKT residuals, each relative to the size
of the terms it sums, the duality gap being the complementarity mass for
both solvers) and the optimal SolveOutcome.  The residuals sit near machine
precision, and an optimum whose largest residual exceeds CERT_TOL raises
NumericBreakdown rather than reaching the caller.

The active-set working set is kept linearly independent: the "=" rows enter
as an independent subset, the start-up scan adds only the binding rows that
are independent of those before it, and a blocking row is independent too
(it has G_k d > 0 along a direction d in the working set's null space; a
dependent row that rounding makes look blocking is set aside instead).  So
a complete QR factorization A_w' = Q R is updated in place rather than
recomputed: a row that joins is one Householder reflection of the trailing
columns of Q, a row that leaves is one QR of the Hessenberg block it leaves
in R, the null space is Q[:, m:], and the multipliers are one triangular
system in R.  Only the equality duals, which are not unique when "=" rows
are dependent, take one minimum-norm least-squares solve over all "=" rows
at the end.

Two rules steer the active-set iteration.  The drop rule: a working row
with a negative multiplier leaves, the most negative one, except while the
iteration is stalled (more than _STALL_LIMIT drops or zero-length steps
since the last positive step), when it is the row with the smallest index,
as in the simplex.  Together with the smallest-index blocking row, that
bounds every stalled run, and a positive step strictly lowers the
objective, so no cycle passes through one; the iteration limit stays as a
guard against rounding.
The curvature scale: Q's largest |eigenvalue|, from the eigenvalues the
convexity check computes.  Q is rejected as not convex below -1e-9 times
that scale, and a reduced-Hessian eigenvalue at or below 1e-10 times it
counts as flat, so both tests are invariant to the units of Q.

The package imports numpy only; no scipy module is loaded at run time.
These hand-written kernels stay rather than delegating to scipy's bundled
HiGHS: on top of `import robust_peakload` (about 33 MB peak resident memory
and 0.11 s), importing scipy.optimize adds about 44 MB and 0.44 s (Python
3.11, numpy 2.4, scipy 1.17, 2-CPU Linux container), against a 5% bound on
the benchmark's peak_rss_mb (perfbench/).  For the same reason the
factorization updates are written in numpy rather than with
scipy.linalg.qr_insert / qr_delete.  HiGHS remains the differential oracle
of the tests, both for statuses and values and, through _certificate, for
its own primal/dual pair.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

FEAS_TOL = 1e-9
CERT_TOL = 1e-7


class SolverError(Exception):
    """Base class for numerical solver failures."""


class NumericBreakdown(SolverError):
    """Pivoting or the active-set iteration stalled numerically."""


class NotConvex(SolverError):
    """Quadratic matrix fails the positive-semidefiniteness floor."""


class Infeasible(Exception):
    """The program (for a robust solve, its robust counterpart) has no
    feasible point."""


class Unbounded(Exception):
    """The program (for a robust solve, its robust counterpart) is
    unbounded."""


def _checked(out, what):
    """Return an optimal SolveOutcome; raise Infeasible or Unbounded, naming
    the program `what`, for any other status."""
    if out.status == "infeasible":
        raise Infeasible(f"{what} is infeasible")
    if out.status != "optimal":
        raise Unbounded(f"{what} is unbounded")
    return out


def _as_vector(v, n, name):
    arr = np.asarray(v, dtype=float).reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got {arr.shape}")
    return arr


@dataclass
class LpSpec:
    """Linear program in row form; see the module docstring for conventions."""

    objective_sense: str
    cost: np.ndarray
    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray
    constraint_kinds: tuple
    variable_lower_bounds: Optional[np.ndarray] = None
    variable_upper_bounds: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.objective_sense not in ("min", "max"):
            raise ValueError("objective_sense must be 'min' or 'max'")
        self.cost = np.asarray(self.cost, dtype=float).reshape(-1)
        n = self.cost.size
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        # Only a 1-d empty input means "no rows"; an m x 0 matrix keeps its m
        # rows (a program over no variables, such as a dual QP with no
        # multipliers).
        if self.constraint_matrix.ndim == 1 and self.constraint_matrix.size == 0:
            self.constraint_matrix = np.zeros((0, n))
        if self.constraint_matrix.ndim != 2 or self.constraint_matrix.shape[1] != n:
            raise ValueError("constraint_matrix must be m x n")
        m = self.constraint_matrix.shape[0]
        self.constraint_rhs = _as_vector(self.constraint_rhs, m, "constraint_rhs")
        self.constraint_kinds = tuple(str(k) for k in self.constraint_kinds)
        unknown = set(self.constraint_kinds) - {"<=", ">=", "="}
        if unknown:
            raise ValueError(f"unknown constraint kinds {sorted(unknown)}")
        if len(self.constraint_kinds) != m:
            raise ValueError("constraint_kinds must have one entry per row")
        if self.variable_lower_bounds is None:
            self.variable_lower_bounds = np.zeros(n)
        else:
            self.variable_lower_bounds = _as_vector(self.variable_lower_bounds, n, "variable_lower_bounds")
        if self.variable_upper_bounds is None:
            self.variable_upper_bounds = np.full(n, np.inf)
        else:
            self.variable_upper_bounds = _as_vector(self.variable_upper_bounds, n, "variable_upper_bounds")
        for name, arr in (("cost", self.cost), ("constraint_matrix", self.constraint_matrix),
                          ("constraint_rhs", self.constraint_rhs),
                          ("variable_lower_bounds", self.variable_lower_bounds)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if np.any(np.isnan(self.variable_upper_bounds)):
            raise ValueError("variable_upper_bounds contains NaN")
        if np.any(self.variable_upper_bounds < self.variable_lower_bounds - 1e-12):
            raise ValueError("variable bounds are inconsistent")

    @property
    def n_vars(self):
        return self.cost.size

    @property
    def n_rows(self):
        return self.constraint_matrix.shape[0]


@dataclass
class QpSpec(LpSpec):
    """LpSpec plus a symmetric PSD matrix Q; objective cost'x + 1/2 x'Qx."""

    quadratic_matrix: np.ndarray = field(default=None)

    def __post_init__(self):
        super().__post_init__()
        if self.quadratic_matrix is None:
            raise ValueError("quadratic_matrix is required")
        Q = np.asarray(self.quadratic_matrix, dtype=float)
        n = self.n_vars
        if Q.shape != (n, n):
            raise ValueError("quadratic_matrix must be n x n")
        if not np.all(np.isfinite(Q)):
            raise ValueError("quadratic_matrix contains non-finite entries")
        if np.max(np.abs(Q - Q.T), initial=0.0) > 1e-12 * (1.0 + np.max(np.abs(Q), initial=0.0)):
            raise ValueError("quadratic_matrix must be symmetric")
        self.quadratic_matrix = 0.5 * (Q + Q.T)


@dataclass
class SolveOutcome:
    """Solution record.  Only an optimal solve fills the primal, objective,
    duals and reduced_costs fields (None otherwise), and its certificate
    holds the four scaled residuals of _certificate, each at most CERT_TOL.
    An infeasible LP's certificate holds its phase-1 objective, or, when it
    was solved from its dual, {"dual_unbounded": True}; an unbounded solve's
    is empty."""

    status: str
    iterations: int
    certificate: dict = field(default_factory=dict)
    primal: Optional[np.ndarray] = None
    objective: Optional[float] = None
    duals: Optional[np.ndarray] = None
    reduced_costs: Optional[np.ndarray] = None


# ---------------------------------------------------------------------------
# simplex core

_MAX_PIVOTS = 20000
# Both solvers fall back to a smallest-index rule (Bland, 1977) once a run
# of more than this many degenerate steps has passed: zero-step pivots of
# the simplex, drops and zero-length steps of the active-set QP.
_STALL_LIMIT = 60


def _pivot(D, rhs, basis, nonbasic, row, slot):
    """Jordan exchange of basis[row] and nonbasic[slot] on D = B^-1 A_N (in
    place): the slot receives the leaving variable's column."""
    piv = D[row, slot]
    factor = D[:, slot].copy()
    factor[row] = 0.0
    D[row] /= piv
    rhs[row] /= piv
    D -= factor[:, None] * D[row]
    rhs -= factor * rhs[row]
    np.maximum(rhs, 0.0, out=rhs)
    D[:, slot] = factor * (-1.0 / piv)
    D[row, slot] = 1.0 / piv
    basis[row], nonbasic[slot] = nonbasic[slot], basis[row]


def _simplex_phase(D, rhs, cost, basis, nonbasic, n_enter):
    """Simplex on min cost'w s.t. B w_B + A_N w_N = b, w >= 0, in place on
    D = B^-1 A_N and rhs = B^-1 b; cost is by variable, and only variables
    below n_enter may enter.

    The entering variable has the most negative reduced cost, ties going to
    the smallest index, except after more than _STALL_LIMIT degenerate
    (zero-step) pivots in a row, when it is the smallest improving index
    (Bland, 1977); the leaving row is the ratio-test minimizer with the
    smallest basic index.  A positive step strictly lowers the objective and
    Bland's rule ends every degenerate run, so no basis repeats.

    Returns (status, iterations).
    """
    tol = 1e-9 * (1.0 + np.max(np.abs(cost), initial=0.0))
    # A variable barred from entering is priced at +inf, so it never improves.
    price = np.where(np.arange(cost.size) < n_enter, cost, np.inf)
    # Degenerate pivots since the last pivot with a positive step.
    stall = 0
    for iterations in range(_MAX_PIVOTS + 1):
        reduced = price[nonbasic] - cost[basis] @ D
        least = reduced.min(initial=0.0)
        if not least < -tol:
            return "optimal", iterations
        ties = (reduced < -tol if stall > _STALL_LIMIT else reduced == least).nonzero()[0]
        slot = ties[nonbasic[ties].argmin()]
        col = D[:, slot]
        rows = (col > 1e-10).nonzero()[0]
        if rows.size == 0:
            return "unbounded", iterations
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among the minimizers.
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        _pivot(D, rhs, basis, nonbasic, ties[basis[ties].argmin()], slot)
        stall = stall + 1 if best <= 0.0 else 0
    raise NumericBreakdown("simplex iteration limit exceeded")


def _lp_internal(c_int, A, kinds, b):
    """Solve min c_int'v s.t. A v (kinds) b, v >= 0; kinds is an array of
    "<=", ">=" and "=".  The primal is solved (_simplex) unless its slack
    start needs an artificial and c_int >= 0 has a positive entry; then its
    dual is solved, from the dual's slack start (see the module docstring).

    Returns (status, iterations, found): when optimal, found is v and the row
    duals for the stated rows (internal min convention); otherwise it is the
    certificate of the status.
    """
    if np.all(_slack_start(kinds, b)[1]) or not (np.all(c_int >= 0.0) and np.any(c_int > 0.0)):
        return _simplex(c_int, A, kinds, b)
    # The dual max b'lam s.t. A'lam <= c_int, with lam = S w, w >= 0: S is +1
    # on ">=" rows and -1 on "<=" rows, and splits each "=" row into a +/-
    # pair.  Its rows are "<=" rows with right-hand side c_int >= 0, so it
    # starts on its slacks and runs no phase 1; it cannot be infeasible
    # (w = 0), and it is unbounded exactly when the primal is infeasible.
    m = b.size
    rows = np.concatenate([np.arange(m), np.flatnonzero(kinds == "=")])
    S = np.concatenate([np.where(kinds == "<=", -1.0, 1.0), np.full(rows.size - m, -1.0)])
    status, iterations, found = _simplex(-S * b[rows], A[rows].T * S,
                                         np.full(c_int.size, "<="), c_int)
    if status == "unbounded":
        return "infeasible", iterations, {"dual_unbounded": True}
    # The primal is the dual's row duals, negated; the row duals are S w.
    w, y = found
    duals = S[:m] * w[:m]
    duals[rows[m:]] -= w[m:]
    return "optimal", iterations, (-y, duals)


def _slack_start(kinds, b):
    """(flips, le): the row signs of the primal slack start and the rows that
    are "<=" rows after them.  Rows with a negative right-hand side are
    negated, which swaps <= and >=, and so are ">=" rows with a zero
    right-hand side: as "<= 0" rows their slacks start basic at 0.  Every
    row but the "<=" rows needs an artificial."""
    flips = np.where((b < 0.0) | ((b == 0.0) & (kinds == ">=")), -1.0, 1.0)
    return flips, np.where(flips > 0.0, kinds == "<=", kinds == ">=")


def _simplex(c_int, A, kinds, b):
    """_lp_internal's primal path: the two-phase simplex from the slack
    start.  Only the condensed tableau is held (see the module docstring),
    and the final B is built from the basic columns alone."""
    m, n = A.shape
    flips, le = _slack_start(kinds, b)
    eq = kinds == "="
    # Variables: v, one slack per inequality row (+1 on <=, -1 on >=), one
    # artificial per >= or = row.  Variable n + k is the unit column of sign
    # unit_sign[k] in row unit_row[k].  The start basis is the slacks of the
    # <= rows and the artificials, so it is the identity and D = A_N.
    unit_row = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(~le)])
    unit_sign = np.concatenate([np.where(le[~eq], 1.0, -1.0), np.ones(np.count_nonzero(~le))])
    n_real = n + np.count_nonzero(~eq)
    n_all = n + unit_row.size

    def columns(idx):
        out = np.zeros((m, idx.size))
        real, unit = (idx < n).nonzero()[0], (idx >= n).nonzero()[0]
        out[:, real] = flips[:, None] * A[:, idx[real]]
        out[unit_row[idx[unit] - n], unit] = unit_sign[idx[unit] - n]
        return out

    basis = np.where(le, n + np.cumsum(~eq) - 1, n_real + np.cumsum(~le) - 1)
    nonbasic = np.concatenate([np.arange(n), n + np.flatnonzero(~le[~eq])])
    D = columns(nonbasic)

    r = np.abs(b)
    iterations = 0
    if n_real < n_all:
        phase1_cost = (np.arange(n_all) >= n_real).astype(float)
        _, iterations = _simplex_phase(D, r, phase1_cost, basis, nonbasic, n_all)
        phase1_val = phase1_cost[basis] @ r
        if phase1_val > 1e-9 * (1.0 + np.max(np.abs(b), initial=0.0)):
            return "infeasible", iterations, {"phase1_objective": float(phase1_val)}
        # Drive remaining artificials out of the basis where possible, each
        # for the real variable of smallest index with an entry in its row.
        for i in np.flatnonzero(basis >= n_real):
            slots = np.flatnonzero((np.abs(D[i]) > 1e-9) & (nonbasic < n_real))
            if slots.size:
                _pivot(D, r, basis, nonbasic, i, slots[nonbasic[slots].argmin()])
        real = nonbasic < n_real
        D, nonbasic = D[:, real], nonbasic[real]

    cost = np.zeros(n_all)
    cost[:n] = c_int
    status, it = _simplex_phase(D, r, cost, basis, nonbasic, n_real)
    iterations += it
    if status == "unbounded":
        return "unbounded", iterations, {}

    # Recompute primal and dual values from the optimal basis and the
    # original data, clearing accumulated tableau drift; D goes first.
    del D
    B = columns(basis)
    try:
        x_basic = np.linalg.solve(B, np.abs(b))
        y = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdown("optimal basis is numerically singular") from exc
    w = np.zeros(n_all)
    w[basis] = x_basic
    return "optimal", iterations, (w[:n], flips * y)


def _certificate(spec, x, duals, reduced):
    """KKT residuals of `spec` at (x, duals, reduced), each relative to the
    size of the terms it sums: primal residuals are divided by
    1 + ||b||_inf + || |A| |x| ||_inf, the finite bounds counted among the
    rows (A, b); dual residuals by 1 + ||g||_inf + || |A'| |duals| ||_inf,
    g = A' duals + reduced being the objective gradient; complementarity,
    the largest single product, and the duality gap, the total
    complementarity mass, by the product of the two.  So a solve at large
    |x| is judged by its relative accuracy.  For an LP the primal minus the
    dual objective is the signed sum of the same complementarity terms.

    Returns (primal, dual, complementarity, duality_gap).
    """
    A, b, lb, ub = (spec.constraint_matrix, spec.constraint_rhs,
                    spec.variable_lower_bounds, spec.variable_upper_bounds)
    kinds = np.array(spec.constraint_kinds, dtype="U2")
    eq = kinds == "="
    up = np.where(kinds == ">=", -1.0, 1.0)
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    resid = A @ x - b
    finite_ub = np.isfinite(ub)
    # Bound sides of the reduced costs: a nonzero reduced cost on the side
    # that blocks the improving direction prices the lower bound, otherwise
    # the (finite) upper bound; with no upper bound it is dual infeasible.
    priced = np.abs(reduced) > 1e-12
    lower = priced & (sign * reduced > 0)
    upper = priced & ~lower & finite_ub
    bound = np.where(lower, lb, np.where(upper, ub, 0.0))
    bound_slack = np.abs(reduced * (x - bound)) * (lower | upper)
    # max(0.0, ...) turns the -0.0 that max returns for all -0.0 entries
    # into 0.0, so the certificate never reports a signed zero.
    primal = max(0.0, np.concatenate([np.where(eq, np.abs(resid), up * resid), lb - x,
                                      (x - ub)[finite_ub]]).max(initial=0.0))
    dual = max(0.0, np.concatenate([(sign * up * duals)[~eq],
                                    np.abs(reduced[priced & ~(lower | finite_ub)])]).max(initial=0.0))
    comp = max(np.abs(duals * resid).max(initial=0.0), bound_slack.max(initial=0.0))
    mass = abs(float(duals @ resid)) + float(bound_slack.sum())

    abs_A, abs_x = np.abs(A), np.abs(x)
    primal_scale = (1.0 + np.abs(np.concatenate([b, lb, ub[finite_ub]])).max(initial=0.0)
                    + (abs_A @ abs_x).max(initial=abs_x.max(initial=0.0)))
    dual_scale = (1.0 + np.abs(reduced + A.T @ duals).max(initial=0.0)
                  + (np.abs(duals) @ abs_A).max(initial=0.0))
    scale = primal_scale * dual_scale
    return primal / primal_scale, dual / dual_scale, comp / scale, mass / scale


def _optimal(spec, x, duals, grad, objective, iterations):
    """The optimal SolveOutcome at (x, duals), with grad the objective
    gradient at x: the one place either solver builds it.  It forms the
    reduced costs grad - A' duals and the certificate, and raises
    NumericBreakdown when a scaled residual exceeds CERT_TOL, so a wrong
    primal or dual never reaches the caller as "optimal"."""
    reduced = grad - spec.constraint_matrix.T @ duals
    residuals = [float(r) for r in _certificate(spec, x, duals, reduced)]
    if not max(residuals) <= CERT_TOL:
        raise NumericBreakdown(f"optimality certificate fails: largest scaled KKT "
                               f"residual {max(residuals):.3e} exceeds CERT_TOL {CERT_TOL:g}")
    certificate = dict(zip(("primal_residual", "dual_residual", "complementarity",
                            "duality_gap"), residuals))
    return SolveOutcome("optimal", iterations, certificate, x, objective, duals, reduced)


def solve_lp(spec: LpSpec) -> SolveOutcome:
    """Solve an LpSpec; statuses optimal/infeasible/unbounded, never an abort."""
    n = spec.n_vars
    lb = spec.variable_lower_bounds
    ub = spec.variable_upper_bounds
    c_stated = spec.cost
    c_int = c_stated if spec.objective_sense == "min" else -c_stated

    # Shift to v = x - lb >= 0 and fold finite upper bounds in as rows.
    ub_rows = np.flatnonzero(np.isfinite(ub))
    A_all = np.vstack([spec.constraint_matrix, np.eye(n)[ub_rows]])
    b_all = np.concatenate([spec.constraint_rhs - spec.constraint_matrix @ lb,
                            ub[ub_rows] - lb[ub_rows]])
    kinds = np.array(spec.constraint_kinds + ("<=",) * ub_rows.size, dtype="U2")

    status, iterations, found = _lp_internal(c_int, A_all, kinds, b_all)
    if status != "optimal":
        return SolveOutcome(status, iterations, found)

    v, duals_int = found
    x = v + lb
    duals_int = duals_int[: spec.n_rows]
    duals = duals_int if spec.objective_sense == "min" else -duals_int
    return _optimal(spec, x, duals, c_stated, float(c_stated @ x), iterations)


# ---------------------------------------------------------------------------
# active-set QP

# A row joins the working set only when the part of it outside the span of
# the working set's rows has more than this share of its norm.
_INDEPENDENT = 1e-12


class _WorkingQR:
    """Complete QR factorization A_w' = Q R of a working set of linearly
    independent rows, updated in place as rows join and leave (Nocedal &
    Wright, Numerical Optimization, section 16.5).  Q is n x n orthogonal
    and the leading m x m block of R is upper triangular, so Q[:, :m] spans
    the rows of A_w and Q[:, m:] its null space."""

    def __init__(self, n):
        self.Q = np.eye(n)
        self.R = np.zeros((n, n))
        self.m = 0

    def add(self, a):
        """Append row a as column m if it is independent of the working set,
        and return whether it was: one Householder reflection of the
        trailing columns of Q maps the part of Q'a outside the working set
        onto its first coordinate."""
        m = self.m
        v = self.Q.T @ a
        u = v[m:].copy()
        norm = np.linalg.norm(u)
        if norm <= _INDEPENDENT * np.linalg.norm(a):
            return False
        diag = -np.copysign(norm, u[0])
        u[0] -= diag
        trailing = self.Q[:, m:]
        trailing -= np.outer(trailing @ u, u * (2.0 / (u @ u)))
        self.R[:m, m] = v[:m]
        self.R[m, m] = diag
        self.m = m + 1
        return True

    def drop(self, j):
        """Remove column j; the columns after it leave an upper Hessenberg
        block, which one QR of that block makes triangular again."""
        m = self.m
        self.R[:, j:m - 1] = self.R[:, j + 1:m]
        self.R[:, m - 1] = 0.0
        if j < m - 1:
            q, r = np.linalg.qr(self.R[j:m, j:m - 1], mode="complete")
            self.R[j:m, j:m - 1] = r
            self.Q[:, j:m] = self.Q[:, j:m] @ q
        self.m = m - 1

    def multipliers(self, g):
        """The least-squares lam of A_w' lam = g: one triangular system in R."""
        m = self.m
        return np.linalg.solve(self.R[:m, :m], self.Q[:, :m].T @ g)


def solve_qp(spec: QpSpec, start=None) -> SolveOutcome:
    """Solve a QpSpec by a primal active-set method with dual extraction.
    The iteration starts from `start`, a feasible point the caller knows,
    when one is given, and otherwise from the optimum of a feasibility LP.
    A start that violates a row or a bound by more than FEAS_TOL, scaled as
    the phase-1 test scales it, raises ValueError."""
    n = spec.n_vars
    Q_stated = spec.quadratic_matrix
    c_stated = spec.cost
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    Q = sign * Q_stated
    c = sign * c_stated
    # One curvature scale, Q's largest |eigenvalue|, for both the convexity
    # floor and the flat reduced directions, so neither depends on Q's units.
    eigs = np.linalg.eigvalsh(Q)
    curvature = np.max(np.abs(eigs), initial=0.0)
    if eigs.size and eigs[0] < -1e-9 * curvature:
        raise NotConvex(f"minimum eigenvalue {eigs[0]:.3e} below -1e-9 times the "
                        f"largest |eigenvalue| {curvature:.3e}")

    lb = spec.variable_lower_bounds
    ub = spec.variable_upper_bounds
    A, b = spec.constraint_matrix, spec.constraint_rhs

    # E x = b[eq] holds the "=" rows; G x <= h holds the stated inequality rows
    # G_row (">=" rows negated, G_flip = -1), then -x <= -lb and the finite
    # x <= ub.
    kinds = np.array(spec.constraint_kinds, dtype="U2")
    eq = kinds == "="
    G_row = np.flatnonzero(~eq)
    G_flip = np.where(kinds[G_row] == ">=", -1.0, 1.0)
    ub_rows = np.flatnonzero(np.isfinite(ub))
    E = A[eq]
    G = np.vstack([G_flip[:, None] * A[G_row], np.diag(np.full(n, -1.0)), np.eye(n)[ub_rows]])
    h = np.concatenate([G_flip * b[G_row], -lb, ub[ub_rows]])

    if start is None:
        feas = solve_lp(LpSpec("min", np.zeros(n), A, b, spec.constraint_kinds, lb, ub))
        if feas.status != "optimal":
            return feas
        x = feas.primal.copy()
    else:
        x = _as_vector(start, n, "start").copy()
        violation = np.concatenate([np.abs(E @ x - b[eq]), G @ x - h]).max(initial=0.0)
        if not violation <= FEAS_TOL * (1.0 + np.abs(np.concatenate([b, h])).max(initial=0.0)):
            raise ValueError(f"start violates the constraints by {violation:.3e}")

    # The working set is an independent subset of the "=" rows followed by
    # the inequality rows `working`, factored as A_w' = Q R (_WorkingQR).
    # Both start-up scans offer their rows in order, and `add` keeps those
    # independent of the rows before them (none once the rank is n): first
    # the "=" rows, then the inequality rows binding at the feasible point.
    fac = _WorkingQR(n)
    n_eq = sum(fac.add(a) for a in E)
    scale = 1.0 + np.max(np.abs(h), initial=0.0)
    working = [int(k) for k in np.flatnonzero(np.abs(h - G @ x) <= 1e-8 * scale)
               if fac.add(G[k])]
    # Inequality rows dependent on the working set: set aside by the
    # blocking-row search until a row leaves (see below).
    aside = []

    max_iter = 200 + 30 * (n + G.shape[0])
    iterations = 0
    # Drops and zero-length steps since the last positive step.
    stall = 0
    while True:
        if iterations > max_iter:
            raise NumericBreakdown("active-set iteration limit exceeded")
        iterations += 1
        grad = Q @ x + c
        Z = fac.Q[:, fac.m:]
        ray = None
        p = np.zeros(n)
        if Z.size:
            H = Z.T @ Q @ Z
            gz = Z.T @ grad
            lam, V = np.linalg.eigh(H)
            pos = lam > 1e-10 * curvature
            slopes = V.T @ gz
            flat = ~pos
            if np.any(flat):
                flat_slopes = np.where(flat, np.abs(slopes), 0.0)
                k = int(np.argmax(flat_slopes))
                if flat_slopes[k] > 1e-9 * (1.0 + np.linalg.norm(grad)):
                    ray = Z @ (-np.sign(slopes[k]) * V[:, k])
            if ray is None and np.any(pos):
                w = np.zeros(lam.size)
                w[pos] = -slopes[pos] / lam[pos]
                p = Z @ (V @ w)

        if ray is None and (np.max(np.abs(p), initial=0.0)
                            <= 1e-11 * (1.0 + np.max(np.abs(x), initial=0.0))):
            mu_w = fac.multipliers(-grad)[n_eq:]
            neg = np.flatnonzero(mu_w < -1e-9 * (1.0 + np.linalg.norm(grad)))
            if neg.size == 0:
                break
            # Drop the most negative multiplier; while stalled, the row with
            # the smallest index (Bland's rule), so no stalled run cycles.
            if stall > _STALL_LIMIT:
                drop = neg[np.argmin([working[i] for i in neg])]
            else:
                drop = neg[np.argmin(mu_w[neg])]
            working.pop(int(drop))
            fac.drop(n_eq + int(drop))
            aside = []
            stall += 1
            continue

        # One blocking-row search for both directions: the step p is taken
        # in full (alpha = 1) unless a row blocks it, the ray has no full
        # step, and a ray that no row blocks is a direction of unbounded
        # descent.
        d, full = (p, 1.0) if ray is None else (ray, np.inf)
        s = G @ d
        free = np.ones(s.size, dtype=bool)
        free[working + aside] = False
        cands = np.flatnonzero((s > 1e-11) & free)
        if cands.size == 0 and ray is not None:
            return SolveOutcome("unbounded", iterations)
        ratios = np.clip(h[cands] - G[cands] @ x, 0.0, None) / s[cands]
        alpha = np.min(ratios, initial=full)
        x = x + alpha * d
        if alpha < full:
            # G_k d > 0 along d in the null space of A_w makes row k
            # independent of the working set, so it joins.  Rounding along a
            # long d can make a dependent row (say a copy of a working row)
            # look blocking; such a row is constant along that null space,
            # so it is set aside until a drop widens it.
            k = int(cands[ratios <= alpha + 1e-9 * (1.0 + alpha)].min())
            (working if fac.add(G[k]) else aside).append(k)
        stall = stall + 1 if alpha <= 1e-13 else 0

    # Map working-set multipliers back to stated rows.  The inequality
    # multipliers are unique; the "=" rows' are not when those rows are
    # dependent, and they are reported as the minimum-norm solution over all
    # of them (copies of a repeated row split its multiplier evenly).
    duals = np.zeros(spec.n_rows)
    if E.size:
        duals[eq] = -sign * np.linalg.lstsq(E.T, -grad - G[working].T @ mu_w, rcond=None)[0]
    k = np.array(working, dtype=int)
    on_row = k < G_row.size
    duals[G_row[k[on_row]]] = -sign * G_flip[k[on_row]] * mu_w[on_row]

    return _optimal(spec, x, duals, Q_stated @ x + c_stated,
                    float(c_stated @ x + 0.5 * x @ Q_stated @ x), iterations)
