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

Both kernels see only rows and v >= 0: solve_lp and solve_qp shift x to
v = x - lb and fold each finite upper bound in as a "<=" row (_folded),
once per solve, and _certificate judges that same folded program.  Past
LpSpec's checks the bounds are read only there, in the shifts x = v + lb
and c + Q lb, and in _map_back, which maps the stated reduced costs onto
the folded rows (a reduced cost on the side of a finite upper bound is
that bound row's dual, the rest price v >= 0).

Both kernels pivot one standard form (_Tableau) that holds only the
condensed tableau D = B^-1 A_N (Chvatal, Linear Programming, 1983, ch. 7);
a pivot is a Jordan exchange, the entering variable's slot taking the
leaving variable's column.  Each row starts on its slack where it can: a row
is negated when its right-hand side is negative, or zero under ">=", and
each "<=" row then holds at v = 0.  Only "=" rows and ">=" rows with a
positive right-hand side take an artificial; without them (a homogeneous
cone of ">=" rows, say) no phase 1 runs, and the artificials phase 1 leaves
nonbasic are dropped.  The pivot rules (_simplex_phase) name variables by
index, not by slot, so a full-tableau simplex takes the same path up to
rounding in the reduced costs.
Which side of an LP is solved follows from the input.  A program whose
slack start needs an artificial and whose internal (min) cost is >= 0 with
a positive entry -- the robust planners: every price of the model is >= 0
-- is solved from its dual, max b'lam s.t. A'lam <= c, written over w >= 0
with lam = S w, S signing the "<=" and ">=" rows and splitting each "="
row into a +/- pair (Chvatal, ch. 5 and 10).  Its rows are "<=" rows with
right-hand side c >= 0, so it starts on its slacks and runs no phase 1;
the primal point is its row duals, negated, and an unbounded dual means an
infeasible primal.  Every other program is solved from the primal side.
A zero-cost (feasibility) program keeps phase 1: its dual has a zero
right-hand side, so every dual pivot is degenerate (177 of them against 71
phase-1 pivots on a 6x12 tie-break feasibility LP, by one measurement).

The QP path is the reduced-gradient method (Murtagh & Saunders, Math.
Prog. 14, 1978; Gill, Murray & Wright, Practical Optimization, 1981,
sections 5.5-5.6) on the same tableau.  Its first basis comes from phase 1,
or from the caller's feasible `start`, which a crossover moves onto a basis
by exchanges that keep its values (_Tableau.cross_over), with no phase 1.
Every variable is basic, superbasic (a nonbasic slot free to move: at a
positive value, or just priced in) or nonbasic at zero, and w holds all
their values.  Moving the superbasics S by d_S moves the basics by
-D[:, S] d_S, so the null space of the rows is Z = [e_S; -D[:, S] on the
basics] and the reduced Hessian is Z_v' Q Z_v over the original variables,
s x s with s small: the welfare Hessian has rank T.  A step is a Newton
step over its positive eigenvalues, or a ray along a flat one that still
slopes (stopping at its minimum where that eigenvalue is above rounding),
cut short where a basic or a superbasic reaches zero (the smallest index
among ties).  A superbasic that does leaves S; a basic trades places
with the superbasic of largest |entry| in its row, an exchange of D alone,
the values staying in w.  Once w is stationary on its face, the nonbasic at
zero with the most negative reduced cost enters S, ties going to the
smallest index; alone in S and blocked at once by a basic at zero, it is a
degenerate simplex pivot and needs no direction.  After more stalled
(zero-length) steps in a row than _STALL_LIMIT or the number of rows,
whichever is larger, pricing takes the smallest improving index instead
(Bland, 1977), as the simplex does after _STALL_LIMIT; the iteration limit
stays as a guard against rounding.  At the end the basics are recomputed
from B and the superbasic columns, and the row duals are y = B^-T g_B, by
the readout the simplex ends in too (_Tableau.read_out).  The
"=" duals, not unique when those rows are dependent, are reported as the
minimum-norm split of the same E' duals (one least-squares solve), so the
copies of a repeated row share its multiplier evenly.  A QP's iterations
are its phase-1 pivots plus its phase-2 steps.  With no further solve, the
QP also reports whether its optimum is provably unique
(SolveOutcome.unique_optimum): every nonbasic at zero outside S prices
above the pricing tolerance, and the reduced Hessian over S, if S is not
empty, is positive definite above the flat floor (strict complementarity
and second-order sufficiency; Nocedal & Wright, Numerical Optimization,
2006, ch. 12).  A reduced cost within the tolerance counts as zero, so a
doubtful case reports no proof from the kernel; a Q whose smallest
eigenvalue is above the flat floor proves the optimum unique on its own.

Both solvers end in one builder, _optimal: it forms the reduced costs, the
certificate (_certificate: four KKT residuals of the folded program over
its rows and v >= 0 alone, each relative to the size of the terms it sums,
the duality gap being the complementarity mass for both solvers) and the
optimal SolveOutcome.  The residuals sit near machine precision, and an
optimum whose largest residual exceeds CERT_TOL raises NumericBreakdown
rather than reaching the caller.

The curvature scale: Q's largest |eigenvalue|, from the eigenvalues the
convexity check computes.  Q is rejected as not convex below -1e-9 times
that scale, and a reduced-Hessian eigenvalue at or below 1e-10 times it
counts as flat, so both tests are invariant to the units of Q.

The package imports numpy only; no scipy module is loaded at run time.
These hand-written kernels stay rather than delegating to scipy's bundled
HiGHS: on top of `import robust_peakload` (about 33 MB peak resident memory
and 0.11 s), importing scipy.optimize adds about 44 MB and 0.44 s (Python
3.11, numpy 2.4, scipy 1.17, 2-CPU Linux container), against a 5% bound on
the benchmark's peak_rss_mb (perfbench/).  HiGHS remains the differential
oracle of the tests, both for statuses and values and, through _certificate, for
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
    """Pivoting or the QP iteration stalled numerically."""


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
    duals and reduced_costs fields (None otherwise), all of the stated
    program, and its certificate holds the four scaled residuals with which
    _certificate judges the folded program, each at most CERT_TOL.
    An infeasible solve's certificate holds its phase-1 objective, or, for
    an LP solved from its dual, {"dual_unbounded": True}; an unbounded
    solve's is empty.

    unique_optimum is True only for an optimal QP whose kernel proved the
    primal the program's one optimum when it stopped (_qp_internal: strict
    complementarity and a positive definite reduced Hessian), or whose Q is
    positive definite above the flat floor (solve_qp).  False says
    nothing: the optimum may still be unique, with a reduced cost inside
    the pricing tolerance, say.  It is always False for an LP and for a
    solve that is not optimal."""

    status: str
    iterations: int
    certificate: dict = field(default_factory=dict)
    primal: Optional[np.ndarray] = None
    objective: Optional[float] = None
    duals: Optional[np.ndarray] = None
    reduced_costs: Optional[np.ndarray] = None
    unique_optimum: bool = False


# ---------------------------------------------------------------------------
# simplex core

_MAX_PIVOTS = 20000
# The simplex falls back to a smallest-index rule (Bland, 1977) once a run
# of more than this many zero-step pivots has passed; the QP once more than
# this many or as many as it has rows, whichever is larger.
_STALL_LIMIT = 60


def _exchange(D, basis, nonbasic, row, slot):
    """Jordan exchange of basis[row] and nonbasic[slot] on D = B^-1 A_N (in
    place): the slot receives the leaving variable's column."""
    piv = D[row, slot]
    factor = D[:, slot].copy()
    factor[row] = 0.0
    D[row] /= piv
    # Only the rows with an entry in the pivot column change.
    hit = factor.nonzero()[0]
    D[hit] -= factor[hit, None] * D[row]
    D[:, slot] = factor * (-1.0 / piv)
    D[row, slot] = 1.0 / piv
    basis[row], nonbasic[slot] = nonbasic[slot], basis[row]


def _pivot(D, rhs, basis, nonbasic, row, slot):
    """_exchange, carrying the basic values rhs = B^-1 b along (clipped at
    0, so rounding never makes a basic value negative)."""
    step = rhs[row] / D[row, slot]
    rhs -= D[:, slot] * step
    rhs[row] = step
    np.maximum(rhs, 0.0, out=rhs)
    _exchange(D, basis, nonbasic, row, slot)


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


class _Tableau:
    """The standard form both kernels pivot, at the slack start: the rows of
    A v (kinds) b, v >= 0, each negated as _slack_start says, with one slack
    per inequality row (+1 on "<=", -1 on ">=") and one artificial per row
    outside the "<=" rows, over w = (v, slacks, artificials) >= 0.  Variable
    n + k is the unit column of sign unit_sign[k] in row unit_row[k];
    variables from n_real on are the artificials.  The start basis is the
    slacks of the "<=" rows and the artificials, so it is the identity,
    D = B^-1 A_N = A_N and rhs = B^-1 |b| = |b|."""

    def __init__(self, A, kinds, b):
        m, n = A.shape
        self.A, self.n = A, n
        self.flips, le = _slack_start(kinds, b)
        eq = kinds == "="
        self.unit_row = np.concatenate([np.flatnonzero(~eq), np.flatnonzero(~le)])
        self.unit_sign = np.concatenate([np.where(le[~eq], 1.0, -1.0),
                                         np.ones(np.count_nonzero(~le))])
        self.n_real = n + np.count_nonzero(~eq)
        self.n_all = n + self.unit_row.size
        self.basis = np.where(le, n + np.cumsum(~eq) - 1, self.n_real + np.cumsum(~le) - 1)
        self.nonbasic = np.concatenate([np.arange(n), n + np.flatnonzero(~le[~eq])])
        self.D = self.columns(self.nonbasic)
        self.b = np.abs(b)
        self.rhs = self.b.copy()

    def columns(self, idx):
        """The standard-form columns of the variables idx."""
        n = self.n
        out = np.zeros((self.A.shape[0], idx.size))
        real, unit = (idx < n).nonzero()[0], (idx >= n).nonzero()[0]
        out[:, real] = self.flips[:, None] * self.A[:, idx[real]]
        out[self.unit_row[idx[unit] - n], unit] = self.unit_sign[idx[unit] - n]
        return out

    def phase_one(self):
        """Phase 1 from the slack start (none without artificials), then
        each basic artificial driven out for the real variable of smallest
        index with an entry in its row, where there is one, and the
        nonbasic artificials dropped.  Returns (iterations, certificate):
        the phase-1 objective of an infeasible program, else None."""
        if self.n_real == self.n_all:
            return 0, None
        cost = (np.arange(self.n_all) >= self.n_real).astype(float)
        _, iterations = _simplex_phase(self.D, self.rhs, cost, self.basis, self.nonbasic,
                                       self.n_all)
        value = cost[self.basis] @ self.rhs
        if value > 1e-9 * (1.0 + np.max(self.b, initial=0.0)):
            return iterations, {"phase1_objective": float(value)}
        for i in np.flatnonzero(self.basis >= self.n_real):
            slots = np.flatnonzero((np.abs(self.D[i]) > 1e-9) & (self.nonbasic < self.n_real))
            if slots.size:
                _pivot(self.D, self.rhs, self.basis, self.nonbasic, i,
                       slots[self.nonbasic[slots].argmin()])
        self._drop_artificials()
        return iterations, None

    def cross_over(self, v):
        """The point w of v >= 0, each slack at its row's residual, with
        the basis moved onto it by value-preserving exchanges and no phase
        1 (a crossover): each basic artificial leaves at zero, for the
        column of largest |entry| among those with a positive value if its
        row has one, else among all; each other basic at zero leaves for
        the positive nonbasic of largest |entry| in its row, if any.  An
        exchange leaves the rows before it clean (no entry under a positive
        nonbasic), and a positive basic stays positive, so one pass over
        the rows at zero suffices.  Returns w."""
        n, k = self.n, self.n_real - self.n
        rows = self.unit_row[:k]
        w = np.zeros(self.n_all)
        w[:n] = v
        w[n:self.n_real] = self.unit_sign[:k] * (self.b - self.flips * (self.A @ v))[rows]
        # Rounding leaves the zeros of a computed optimum, and the slacks of
        # its tight rows, at about 1e-16 of the terms they come from; at or
        # below 1e-11 of those terms (the largest entry of v, a row's
        # |b| + |A| v) they count as zero.  A scale shared by all of w would
        # zero small entries of v next to the slack of a loose row.
        scale = np.zeros(self.n_all)
        scale[:n] = np.max(v, initial=0.0)
        scale[n:self.n_real] = (self.b + np.abs(self.A) @ v)[rows]
        w[w <= 1e-11 * scale] = 0.0
        for i in np.flatnonzero(w[self.basis] == 0.0):
            entries = np.abs(self.D[i]) * (self.nonbasic < self.n_real)
            entries[entries <= 1e-9] = 0.0
            positive = entries * (w[self.nonbasic] > 0.0)
            if positive.any() or (self.basis[i] >= self.n_real and entries.any()):
                _exchange(self.D, self.basis, self.nonbasic, i,
                          int((positive if positive.any() else entries).argmax()))
        self._drop_artificials()
        return w

    def _drop_artificials(self):
        real = self.nonbasic < self.n_real
        self.D, self.nonbasic = self.D[:, real], self.nonbasic[real]

    def read_out(self, w, moved, gradient):
        """The optimum (v, row duals) at the final basis, recomputed from
        the original data to clear the tableau's drift: D is dropped first,
        the basics are solved from B and the moved (superbasic) columns at
        their values in w, and the row duals are y = B^-T g_B, g being
        gradient(v) on v and zero on the slacks.  A singular B raises
        NumericBreakdown."""
        self.D = None
        B = self.columns(self.basis)
        g = np.zeros(self.n_all)
        try:
            w[self.basis] = np.linalg.solve(B, self.b - self.columns(moved) @ w[moved])
            g[: self.n] = gradient(w[: self.n])
            y = np.linalg.solve(B.T, g[self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericBreakdown("optimal basis is numerically singular") from exc
        return w[: self.n], self.flips * y


def _simplex(c_int, A, kinds, b):
    """_lp_internal's primal path: the two-phase simplex from the slack
    start.  Only the condensed tableau is held (see the module docstring),
    and the optimum is read out at the final basis with no moved columns
    and the constant gradient c_int."""
    t = _Tableau(A, kinds, b)
    iterations, infeasible = t.phase_one()
    if infeasible:
        return "infeasible", iterations, infeasible
    cost = np.zeros(t.n_all)
    cost[: t.n] = c_int
    status, it = _simplex_phase(t.D, t.rhs, cost, t.basis, t.nonbasic, t.n_real)
    iterations += it
    if status == "unbounded":
        return "unbounded", iterations, {}
    return "optimal", iterations, t.read_out(np.zeros(t.n_all), np.zeros(0, int),
                                             lambda v: c_int)


def _folded(spec):
    """(A, kinds, b): the rows of `spec` over v = x - lb, each finite upper
    bound folded in as a "<=" row after them.  Both kernels see only these
    rows and v >= 0, and _certificate judges the same program."""
    n, lb, ub = spec.n_vars, spec.variable_lower_bounds, spec.variable_upper_bounds
    ub_rows = np.flatnonzero(np.isfinite(ub))
    return (np.vstack([spec.constraint_matrix, np.eye(n)[ub_rows]]),
            np.array(spec.constraint_kinds + ("<=",) * ub_rows.size, dtype="U2"),
            np.concatenate([spec.constraint_rhs - spec.constraint_matrix @ lb,
                            ub[ub_rows] - lb[ub_rows]]))


def _violation(rows, v):
    """(violation, A v - b) of the folded rows (A, kinds, b) at v: the
    largest row violation or negative entry of v."""
    A, kinds, b = rows
    resid = A @ v - b
    violation = np.concatenate([np.where(kinds == "=", np.abs(resid),
                                         np.where(kinds == ">=", -resid, resid)),
                                -v]).max(initial=0.0)
    return violation, resid


def _primal_scale(abs_A, b, v):
    """1 + ||b||_inf + || |A| |v| ||_inf (at least 1 + ||b||_inf + ||v||_inf),
    abs_A being |A|: the scale by which _certificate and solve_qp's start
    check judge a violation of the folded rows (A, kinds, b) at v."""
    abs_v = np.abs(v)
    return 1.0 + np.abs(b).max(initial=0.0) + (abs_A @ abs_v).max(initial=abs_v.max(initial=0.0))


def _map_back(spec, x, duals, reduced):
    """The stated (x, duals, reduced) of `spec` as the folded program's
    (v, row duals, reduced costs of v >= 0), in the kernels' min
    convention: v = x - lb, and a reduced cost on the side of a finite
    upper bound becomes that bound row's dual, the rest pricing v >= 0."""
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    capped = np.isfinite(spec.variable_upper_bounds)
    reduced = sign * reduced
    upper = np.where(capped & (reduced < 0.0), reduced, 0.0)
    return (x - spec.variable_lower_bounds, np.concatenate([sign * duals, upper[capped]]),
            reduced - upper)


def _certificate(spec, rows, x, duals, reduced):
    """KKT residuals at the stated (x, duals, reduced) of `spec`, judged on
    its folded rows = _folded(spec) over v >= 0 after _map_back, each
    relative to the size of the terms it sums: primal residuals are divided
    by 1 + ||b||_inf + || |A| |v| ||_inf; dual residuals by
    1 + ||g||_inf + || |A'| |y| ||_inf, g = A' y + r being the objective
    gradient; complementarity, the largest single product, and the duality
    gap, the total complementarity mass, by the product of the two.  So a
    solve at large |x| is judged by its relative accuracy.  For an LP the
    primal minus the dual objective is the signed sum of the same
    complementarity terms.

    Returns (primal, dual, complementarity, duality_gap).
    """
    A, kinds, b = rows
    v, y, r = _map_back(spec, x, duals, reduced)
    violation, resid = _violation(rows, v)
    v_slack = np.abs(r * v)
    # max(0.0, ...) turns the -0.0 that max returns for all -0.0 entries
    # into 0.0, so the certificate never reports a signed zero.
    primal = max(0.0, violation)
    dual = max(0.0, np.concatenate([np.where(kinds == ">=", -y, y)[kinds != "="],
                                    -r]).max(initial=0.0))
    comp = max(np.abs(y * resid).max(initial=0.0), v_slack.max(initial=0.0))
    mass = abs(float(y @ resid)) + float(v_slack.sum())

    abs_A = np.abs(A)
    primal_scale = _primal_scale(abs_A, b, v)
    dual_scale = (1.0 + np.abs(r + A.T @ y).max(initial=0.0)
                  + (np.abs(y) @ abs_A).max(initial=0.0))
    scale = primal_scale * dual_scale
    return primal / primal_scale, dual / dual_scale, comp / scale, mass / scale


def _optimal(spec, rows, x, duals, grad, objective, iterations, unique=False):
    """The optimal SolveOutcome at (x, duals), with grad the objective
    gradient at x, rows = _folded(spec), folded once by the caller, and
    `unique` the kernel's uniqueness proof: the one place either solver
    builds it.  It forms the reduced costs grad - A' duals and the
    certificate, and raises NumericBreakdown when a scaled residual exceeds
    CERT_TOL, so a wrong primal or dual never reaches the caller as
    "optimal"."""
    reduced = grad - spec.constraint_matrix.T @ duals
    residuals = [float(r) for r in _certificate(spec, rows, x, duals, reduced)]
    if not max(residuals) <= CERT_TOL:
        raise NumericBreakdown(f"optimality certificate fails: largest scaled KKT "
                               f"residual {max(residuals):.3e} exceeds CERT_TOL {CERT_TOL:g}")
    certificate = dict(zip(("primal_residual", "dual_residual", "complementarity",
                            "duality_gap"), residuals))
    return SolveOutcome("optimal", iterations, certificate, x, objective, duals, reduced,
                        unique)


def solve_lp(spec: LpSpec) -> SolveOutcome:
    """Solve an LpSpec; statuses optimal/infeasible/unbounded, never an abort."""
    c_stated = spec.cost
    c_int = c_stated if spec.objective_sense == "min" else -c_stated
    rows = _folded(spec)
    status, iterations, found = _lp_internal(c_int, *rows)
    if status != "optimal":
        return SolveOutcome(status, iterations, found)

    v, duals_int = found
    x = v + spec.variable_lower_bounds
    duals_int = duals_int[: spec.n_rows]
    duals = duals_int if spec.objective_sense == "min" else -duals_int
    return _optimal(spec, rows, x, duals, c_stated, float(c_stated @ x), iterations)


# ---------------------------------------------------------------------------
# reduced-gradient QP


def _null_space(n, DS, basis, nonbasic, S):
    """Z_v, the null space of the rows over the superbasic slots S, on the
    n original variables, with DS = D[:, S].  Moving the superbasics by d_S
    moves the basics by -DS d_S, so Z = [e_S; -DS on the basics], and Z_v
    is its rows of the original variables (Q is zero on the slacks): the
    reduced Hessian is Z_v' Q Z_v."""
    Z = np.zeros((n, S.size))
    own = (nonbasic[S] < n).nonzero()[0]
    Z[nonbasic[S[own]], own] = 1.0
    on = basis < n
    Z[basis[on]] = -DS[on]
    return Z


def _reduced_step(Q, D, basis, nonbasic, S, grad, curvature):
    """The phase-2 direction over the superbasic slots S: (d_S, d_B, ray,
    full), full being the length of a step that nothing blocks, and d_B =
    -D[:, S] d_S the basics' move.

    The reduced Hessian is Z_v' Q Z_v (_null_space).  A flat eigenvalue (at
    or below 1e-10 times the curvature scale) along which the reduced
    gradient still slopes gives a ray of unit length, downhill.  Its
    eigenvalue can still be above rounding (1e-13 times the scale), and the
    ray then stops at its minimum, so that no step raises the objective;
    otherwise its length is infinite.  Without a ray, d_S is the Newton
    step over the positive eigenvalues, of full length 1."""
    DS = D[:, S]
    Z = _null_space(grad.size, DS, basis, nonbasic, S)
    lam, V = np.linalg.eigh(Z.T @ Q @ Z)
    slopes = V.T @ (Z.T @ grad)
    pos = lam > 1e-10 * curvature
    flat_slopes = np.where(pos, 0.0, np.abs(slopes))
    if flat_slopes.max(initial=0.0) > 1e-9 * (1.0 + np.linalg.norm(grad)):
        k = flat_slopes.argmax()
        d = -np.sign(slopes[k]) * V[:, k]
        curved = lam[k] > 1e-13 * curvature
        return d, -DS @ d, True, abs(slopes[k]) / lam[k] if curved else np.inf
    d = V[:, pos] @ (-slopes[pos] / lam[pos])
    return d, -DS @ d, False, 1.0


def _qp_internal(Q, c, A, kinds, b, curvature, start=None):
    """Solve min c'v + v'Q v/2 s.t. A v (kinds) b, v >= 0 (Q convex, with
    curvature its largest |eigenvalue|) by the reduced-gradient method on
    the condensed tableau of _Tableau (see the module docstring), from
    `start` (crossed over onto a basis) or else from phase 1.

    Returns (status, iterations, found) as _lp_internal does, the iterations
    being phase-1 pivots plus phase-2 steps; an optimal found is
    (v, row duals, unique), unique being the uniqueness proof below.
    """
    t = _Tableau(A, kinds, b)
    if start is None:
        iterations, infeasible = t.phase_one()
        if infeasible:
            return "infeasible", iterations, infeasible
        w = np.zeros(t.n_all)
        w[t.basis] = t.rhs
    else:
        iterations, w = 0, t.cross_over(start)
    n, D, basis, nonbasic = t.n, t.D, t.basis, t.nonbasic
    # The superbasics: nonbasic slots free to move, at a positive value or
    # just priced in; the other nonbasic slots sit at zero.
    sup = w[nonbasic] > 0.0
    grad = np.zeros(t.n_all)
    # Steps since the last one that moved w, and the run after which
    # pricing turns to Bland's rule.  A start at a degenerate point (a
    # crossed-over optimum or crash vertex, or the origin, where a program
    # of homogeneous rows starts) has a zero slack in every tight row, and
    # its degenerate run can be about as long as there are rows; Bland's
    # rule from the 61st step on lengthened it from 355 to 926 steps on the
    # tie-break of the dualized 8x24 box planner.
    stall, stall_limit = 0, max(_STALL_LIMIT, basis.size)
    # Whether w is known to minimize the objective over its face: after a
    # full Newton step, or when the direction came out negligible.
    stationary = False
    for step in range(1, 200 + 30 * (t.n_all + basis.size) + 1):
        grad[:n] = Q @ w[:n] + c
        S = sup.nonzero()[0]
        small = 1e-11 * (1.0 + np.max(w, initial=0.0))
        if not stationary and S.size:
            dS, dB, ray, full = _reduced_step(Q, D, basis, nonbasic, S, grad[:n], curvature)
            stationary = not ray and max(np.max(np.abs(dS)), np.max(np.abs(dB), initial=0.0)) <= small
        if stationary or not S.size:
            # Price the nonbasics at zero.  The most negative reduced cost
            # enters S, ties and (while stalled) any improving slot going to
            # the smallest index, as in the simplex.
            reduced = grad[nonbasic] - grad[basis] @ D
            tol = 1e-9 * (1.0 + np.max(np.abs(grad), initial=0.0))
            improving = ~sup & (reduced < -tol)
            if not improving.any():
                break
            if stall <= stall_limit:
                improving &= reduced == reduced[improving].min()
            slots = improving.nonzero()[0]
            enter = slots[nonbasic[slots].argmin()]
            sup[enter] = True
            if not S.size:
                # Alone in S the entering slot moves up, so a real basic at
                # zero with a positive entry in its column blocks at once:
                # a degenerate simplex pivot, which needs no direction.
                zero = ((D[:, enter] > 1e-10) & (w[basis] <= 0.0) & (basis < t.n_real)).nonzero()[0]
                if zero.size:
                    _exchange(D, basis, nonbasic, zero[basis[zero].argmin()], enter)
                    sup[enter] = False
                    stall += 1
                    continue
            S = sup.nonzero()[0]
            dS, dB, ray, full = _reduced_step(Q, D, basis, nonbasic, S, grad[:n], curvature)

        # Ratio test over the real basics and the superbasics: the step is
        # taken in full unless a variable reaches zero first, the smallest
        # index among ties; a ray of infinite length that nothing blocks is
        # a direction of unbounded descent.
        big = np.max(np.abs(dS), initial=0.0)
        rows = ((dB < -1e-10 * big) & (basis < t.n_real)).nonzero()[0]
        own = (dS < -1e-10 * big).nonzero()[0]
        index = np.concatenate([basis[rows], nonbasic[S[own]]])
        if index.size == 0 and full == np.inf:
            return "unbounded", iterations + step, {}
        ratios = w[index] / -np.concatenate([dB[rows], dS[own]])
        alpha = np.min(ratios, initial=full)
        w[basis] += alpha * dB
        w[nonbasic[S]] += alpha * dS
        blocked = ratios.min(initial=np.inf) <= alpha
        # A full Newton step lands on the minimum over the face.
        stationary = not (ray or blocked)
        if blocked:
            first = (ratios <= alpha + 1e-12 * (1.0 + alpha)).nonzero()[0]
            k = first[index[first].argmin()]
            if k >= rows.size:
                # A superbasic reached zero: it leaves S.
                slot = S[own[k - rows.size]]
            else:
                # A basic reached zero: it trades places with the superbasic
                # of largest |entry| in its row.
                row = rows[k]
                slot = S[np.abs(D[row, S]).argmax()]
                _exchange(D, basis, nonbasic, row, slot)
            w[nonbasic[slot]] = 0.0
            sup[slot] = False
        np.maximum(w, 0.0, out=w)
        stall = stall + 1 if alpha * big <= small else 0
    else:
        raise NumericBreakdown("QP iteration limit exceeded")
    iterations += step - 1
    # The optimum is unique when every nonbasic at zero outside S prices
    # above the pricing tolerance and S is empty or its reduced Hessian is
    # positive definite (above the flat floor): a move d that keeps the rows
    # gains f(w + d) - f(w) >= g'd = sum of r_j d_j over the nonbasics
    # outside S (r_S = 0 at stationarity), which is positive unless those
    # d_j are all 0, and a move of S alone gains d_S' Z'QZ d_S / 2 > 0.
    # A reduced cost within the tolerance counts as zero (Mangasarian, Lin.
    # Alg. Appl. 25, 1979; Nocedal & Wright, Numerical Optimization, ch. 12).
    unique = bool(np.all(reduced[~sup] > tol))
    if unique and S.size:
        Z = _null_space(n, D[:, S], basis, nonbasic, S)
        unique = bool(np.linalg.eigvalsh(Z.T @ Q @ Z)[0] > 1e-10 * curvature)
    del D  # read_out frees the tableau before it builds B
    return "optimal", iterations, (*t.read_out(w, nonbasic[sup], lambda v: Q @ v + c), unique)


def solve_qp(spec: QpSpec, start=None) -> SolveOutcome:
    """Solve a QpSpec by the reduced-gradient method, with dual extraction.
    The iteration starts from `start`, a feasible point the caller knows,
    when one is given, and otherwise from phase 1.  The start is judged on
    the folded rows at start - lb, as _certificate judges them: one that
    violates a row, a folded upper bound or v >= 0 by more than FEAS_TOL
    times the primal scale 1 + ||b||_inf + || |A| |v| ||_inf (_primal_scale)
    raises ValueError, so the check holds in any units.  The outcome's
    unique_optimum is the proof that the optimum is unique: the kernel's,
    or Q's smallest eigenvalue, from the convexity check, above the flat
    floor (a strictly convex objective has one minimizer)."""
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
    rows = _folded(spec)
    if start is not None:
        v = _as_vector(start, n, "start") - lb
        violation, _ = _violation(rows, v)
        if not violation <= FEAS_TOL * _primal_scale(np.abs(rows[0]), rows[2], v):
            raise ValueError(f"start violates the constraints by {violation:.3e}")
        start = np.maximum(v, 0.0)
    status, iterations, found = _qp_internal(Q, c + Q @ lb, *rows, curvature, start)
    if status != "optimal":
        return SolveOutcome(status, iterations, found)

    v, duals_int, unique = found
    # A positive definite Q makes the objective strictly convex: one optimum.
    unique = unique or bool(eigs.size and eigs[0] > 1e-10 * curvature)
    x = v + lb
    duals = sign * duals_int[: spec.n_rows]
    # The "=" duals are not unique when those rows are dependent; they are
    # reported as the minimum-norm split of the same E' duals, so copies of
    # a repeated row share its multiplier evenly.
    eq = rows[1][: spec.n_rows] == "="
    if eq.any():
        E = spec.constraint_matrix[eq]
        duals[eq] = np.linalg.lstsq(E.T, E.T @ duals[eq], rcond=None)[0]
    return _optimal(spec, rows, x, duals, Q_stated @ x + c_stated,
                    float(c_stated @ x + 0.5 * x @ Q_stated @ x), iterations, unique)
