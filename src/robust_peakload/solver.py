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

The LP path is a dense two-phase simplex with Bland's anti-cycling rule; the
QP path is a primal active-set method.  Final primal and dual values are
recomputed from the optimal basis / working set with dense linear solves, so
certificate residuals sit near machine precision at desk scale.

The package imports numpy only; no scipy module is loaded at run time.
These hand-written kernels stay rather than delegating to scipy's bundled
HiGHS: on top of `import robust_peakload` (about 33 MB peak resident memory
and 0.11 s), importing scipy.optimize adds about 44 MB and 0.44 s (Python
3.11, numpy 2.4, scipy 1.17, 2-CPU Linux container), against a 5% bound on
the benchmark's peak_rss_mb (perfbench/).  The dense QP kernel is the
bottleneck of the largest elastic programs (the robust planner at 8
producers by 24 periods spends nearly all of its time in solve_qp; ROADMAP
item 3), and the remedy planned there keeps numpy: an updated factorization
of the working set and the rank-T welfare Hessian.  HiGHS remains the
differential oracle of the tests, both for statuses and values and, through
_certificate, for its own primal/dual pair.
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


def _normalize_kind(kind):
    token = {"<=": "<=", "=<": "<=", ">=": ">=", "=>": ">=", "=": "=", "==": "="}.get(kind)
    if token is None:
        raise ValueError(f"unknown constraint kind {kind!r}")
    return token


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
        if self.constraint_matrix.size == 0:
            self.constraint_matrix = np.zeros((0, n))
        if self.constraint_matrix.ndim != 2 or self.constraint_matrix.shape[1] != n:
            raise ValueError("constraint_matrix must be m x n")
        m = self.constraint_matrix.shape[0]
        self.constraint_rhs = _as_vector(self.constraint_rhs, m, "constraint_rhs")
        self.constraint_kinds = tuple(_normalize_kind(k) for k in self.constraint_kinds)
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
    """Solution record; primal/dual fields are None unless status is optimal."""

    status: str
    primal: Optional[np.ndarray]
    objective: Optional[float]
    duals: Optional[np.ndarray]
    reduced_costs: Optional[np.ndarray]
    active_set: list
    iterations: int
    certificate: dict


# ---------------------------------------------------------------------------
# simplex core

_MAX_PIVOTS = 20000


def _pivot(S, rhs, basis, row, col):
    piv = S[row, col]
    S[row] /= piv
    rhs[row] /= piv
    factor = S[:, col].copy()
    factor[row] = 0.0
    S -= np.outer(factor, S[row])
    rhs -= factor * rhs[row]
    np.clip(rhs, 0.0, None, out=rhs)
    basis[row] = col


def _simplex_phase(S, rhs, cost, basis, allowed):
    """Bland-rule simplex on min cost'w s.t. S w = rhs, w >= 0 (in place).

    Returns (status, iterations).
    """
    tol = 1e-9 * (1.0 + np.max(np.abs(cost), initial=0.0))
    iterations = 0
    while True:
        if iterations > _MAX_PIVOTS:
            raise NumericBreakdown("simplex iteration limit exceeded")
        improving = np.flatnonzero(allowed & (cost - cost[basis] @ S < -tol))
        if improving.size == 0:
            return "optimal", iterations
        entering = improving[0]
        col = S[:, entering]
        rows = np.flatnonzero(col > 1e-10)
        if rows.size == 0:
            return "unbounded", iterations
        ratios = rhs[rows] / col[rows]
        best = np.min(ratios)
        # Bland tie-break: smallest basic-variable index among the minimizers.
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        _pivot(S, rhs, basis, ties[np.argmin(basis[ties])], entering)
        iterations += 1


def _lp_internal(c_int, A, kinds, b):
    """Solve min c_int'v s.t. A v (kinds) b, v >= 0; kinds is an array of
    "<=", ">=" and "=".

    Returns (status, iterations, found): when optimal, found is v and the row
    duals for the stated rows (internal min convention); otherwise it is the
    certificate of the status.
    """
    m, n = A.shape
    # Rows with a negative right-hand side are negated, which swaps <= and >=.
    flips = np.where(b < 0.0, -1.0, 1.0)
    rhs = flips * b
    eq = kinds == "="
    le = np.where(flips > 0.0, kinds == "<=", kinds == ">=")
    # Columns: v, one slack per inequality row (+1 on <=, -1 on >=), one
    # artificial per >= or = row; the start basis is the slacks of the <=
    # rows and the artificials.
    slack = np.diag(np.where(le, 1.0, -1.0))[:, ~eq]

    # Built again for the final basis instead of kept as a copy, so that
    # only one tableau-sized array lives beside each pivot's update.
    def tableau():
        return np.hstack([flips[:, None] * A, slack, np.eye(m)[:, ~le]])

    S = tableau()
    n_real = n + slack.shape[1]
    basis = np.where(le, n + np.cumsum(~eq) - 1, n_real + np.cumsum(~le) - 1)
    artificial = np.arange(S.shape[1]) >= n_real

    r = rhs.copy()
    iterations = 0
    if artificial.any():
        phase1_cost = artificial.astype(float)
        _, iterations = _simplex_phase(S, r, phase1_cost, basis, np.ones_like(artificial))
        phase1_val = phase1_cost[basis] @ r
        if phase1_val > 1e-9 * (1.0 + np.max(np.abs(b), initial=0.0)):
            return "infeasible", iterations, {"phase1_objective": float(phase1_val)}
        # Drive remaining artificials out of the basis where possible.
        for i in np.flatnonzero(artificial[basis]):
            cols = np.flatnonzero(np.abs(S[i, :n_real]) > 1e-9)
            if cols.size:
                _pivot(S, r, basis, i, cols[0])

    cost = np.zeros(S.shape[1])
    cost[:n] = c_int
    status, it = _simplex_phase(S, r, cost, basis, ~artificial)
    iterations += it
    if status == "unbounded":
        return "unbounded", iterations, {}

    # Recompute primal and dual values from the optimal basis and the
    # original data, clearing accumulated tableau drift.
    B = tableau()[:, basis]
    try:
        x_basic = np.linalg.solve(B, rhs)
        y = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdown("optimal basis is numerically singular") from exc
    w = np.zeros(S.shape[1])
    w[basis] = x_basic
    return "optimal", iterations, (w[:n], flips * y)


def _certificate(sense, x, A, b, kinds, lb, ub, duals, reduced):
    """KKT residuals for the stated-sense problem at (x, duals, reduced).

    Returns (primal, dual, complementarity, gap_terms, mass): gap_terms is the
    bound part of the dual objective and mass the total complementarity mass.
    """
    kinds = np.array(kinds, dtype="U2")
    eq = kinds == "="
    up = np.where(kinds == ">=", -1.0, 1.0)
    sign = 1.0 if sense == "min" else -1.0
    resid = A @ x - b
    # max(0.0, ...) turns the -0.0 that np.max returns for all -0.0 entries
    # into 0.0, so the certificate never reports a signed zero.
    primal = max(0.0, np.max(np.where(eq, np.abs(resid), up * resid), initial=0.0))
    dual_feas = max(0.0, np.max((sign * up * duals)[~eq], initial=0.0))
    comp = np.max(np.abs(duals * resid), initial=0.0)
    mass = abs(float(duals @ resid))
    primal = max(primal, np.max(lb - x, initial=0.0))
    finite_ub = np.isfinite(ub)
    if np.any(finite_ub):
        primal = max(primal, np.max((x - ub)[finite_ub], initial=0.0))
    gap_terms = 0.0
    for i in range(x.size):
        red = reduced[i]
        if abs(red) <= 1e-12:
            continue
        lower_side = red > 0 if sense == "min" else red < 0
        if lower_side:
            slack = abs(red * (x[i] - lb[i]))
            gap_terms += red * lb[i]
        elif np.isfinite(ub[i]):
            slack = abs(red * (ub[i] - x[i]))
            gap_terms += red * ub[i]
        else:
            dual_feas = max(dual_feas, abs(red))
            continue
        comp = max(comp, slack)
        mass += slack
    return primal, float(dual_feas), comp, gap_terms, mass


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
        return SolveOutcome(status, None, None, None, None, [], iterations, found)

    v, duals_int = found
    x = v + lb
    duals_int = duals_int[: spec.n_rows]
    duals = duals_int if spec.objective_sense == "min" else -duals_int
    reduced = c_stated - spec.constraint_matrix.T @ duals
    objective = float(c_stated @ x)
    primal, dual_feas, comp, gap_terms, _ = _certificate(
        spec.objective_sense, x, spec.constraint_matrix, spec.constraint_rhs,
        spec.constraint_kinds, lb, ub, duals, reduced)
    dual_objective = float(spec.constraint_rhs @ duals + gap_terms)
    certificate = {
        "primal_residual": float(primal),
        "dual_residual": float(dual_feas),
        "complementarity": float(comp),
        "duality_gap": float(abs(objective - dual_objective)),
        "dual_objective": dual_objective,
    }
    active = _binding_rows(spec, x)
    return SolveOutcome("optimal", x, objective, duals, reduced, active, iterations, certificate)


def _binding_rows(spec, x):
    resid = spec.constraint_matrix @ x - spec.constraint_rhs
    return np.flatnonzero(np.abs(resid) <= 1e-8 * (1.0 + np.abs(spec.constraint_rhs))).tolist()


# ---------------------------------------------------------------------------
# active-set QP


def solve_qp(spec: QpSpec) -> SolveOutcome:
    """Solve a QpSpec by a primal active-set method with dual extraction."""
    n = spec.n_vars
    Q_stated = spec.quadratic_matrix
    c_stated = spec.cost
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    Q = sign * Q_stated
    c = sign * c_stated
    eigs = np.linalg.eigvalsh(Q)
    if eigs.size and eigs[0] < -1e-9:
        raise NotConvex(f"minimum eigenvalue {eigs[0]:.3e} below the -1e-9 floor")

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

    feas = solve_lp(LpSpec("min", np.zeros(n), A, b, spec.constraint_kinds, lb, ub))
    if feas.status != "optimal":
        return SolveOutcome(feas.status, None, None, None, None, [], feas.iterations,
                            feas.certificate)
    x = feas.primal.copy()

    scale = 1.0 + np.max(np.abs(h), initial=0.0)
    working = []
    stacked = E
    rank = np.linalg.matrix_rank(E) if E.size else 0
    # Binding rows join while they raise the rank; at rank n none can.
    for k in np.flatnonzero(np.abs(h - G @ x) <= 1e-8 * scale):
        if rank == n:
            break
        cand = np.vstack([stacked, G[k]])
        r = np.linalg.matrix_rank(cand)
        if r > rank:
            stacked, rank, working = cand, r, working + [int(k)]

    max_iter = 200 + 30 * (n + G.shape[0])
    iterations = 0
    stall = 0
    bland_mode = False
    mu_w = np.zeros(len(working))
    while True:
        if iterations > max_iter:
            raise NumericBreakdown("active-set iteration limit exceeded")
        iterations += 1
        grad = Q @ x + c
        # One SVD of the working set per step serves both of its uses: the
        # trailing right singular vectors span its null space, and the leading
        # triplets give the minimum-norm least-squares multipliers, which a
        # plain solve would not when A_w is rank deficient, as it is for a
        # program that repeats a row (TestQpRepeatedRows in the tests).  The
        # rank cutoff is matrix_rank's, as in the start-up loop above.
        A_w = np.vstack([E, G[working]])
        U, sv, Vt = np.linalg.svd(A_w, full_matrices=True)
        rank = int(np.sum(sv > np.max(sv, initial=0.0) * np.finfo(float).eps * max(A_w.shape)))
        Z = Vt[rank:].T
        ray = None
        p = np.zeros(n)
        if Z.size:
            H = Z.T @ Q @ Z
            gz = Z.T @ grad
            lam, V = np.linalg.eigh(H)
            lam_scale = max(1.0, lam[-1] if lam.size else 0.0)
            pos = lam > 1e-10 * lam_scale
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
            mults = U[:, :rank] @ ((Vt[:rank] @ -grad) / sv[:rank])
            nu = mults[: E.shape[0]]
            mu_w = mults[E.shape[0]:]
            neg = np.flatnonzero(mu_w < -1e-9 * (1.0 + np.linalg.norm(grad)))
            if neg.size == 0:
                break
            if bland_mode:
                drop = neg[np.argmin([working[i] for i in neg])]
            else:
                drop = neg[np.argmin(mu_w[neg])]
            working.pop(int(drop))
            stall += 1
            if stall > 60:
                bland_mode = True
            continue

        # One blocking-row search for both directions: the step p is taken
        # in full (alpha = 1) unless a row blocks it, the ray has no full
        # step, and a ray that no row blocks is a direction of unbounded
        # descent.
        d, full = (p, 1.0) if ray is None else (ray, np.inf)
        s = G @ d
        free = np.ones(s.size, dtype=bool)
        free[working] = False
        cands = np.flatnonzero((s > 1e-11) & free)
        if cands.size == 0 and ray is not None:
            return SolveOutcome("unbounded", None, None, None, None, [], iterations, {})
        ratios = np.clip(h[cands] - G[cands] @ x, 0.0, None) / s[cands]
        alpha = np.min(ratios, initial=full)
        x = x + alpha * d
        if alpha < full:
            working.append(int(cands[ratios <= alpha + 1e-9 * (1.0 + alpha)].min()))
        stall = stall + 1 if alpha <= 1e-13 else 0

    # Map working-set multipliers back to stated rows.
    duals = np.zeros(spec.n_rows)
    duals[eq] = -sign * nu
    k = np.array(working, dtype=int)
    on_row = k < G_row.size
    duals[G_row[k[on_row]]] = -sign * G_flip[k[on_row]] * mu_w[on_row]

    grad_stated = Q_stated @ x + c_stated
    reduced = grad_stated - A.T @ duals
    objective = float(c_stated @ x + 0.5 * x @ Q_stated @ x)
    # For the quadratic path the certified gap is the total complementarity
    # mass of the KKT point (zero exactly at a primal-dual optimum).
    primal, dual_feas, comp, _, comp_mass = _certificate(
        spec.objective_sense, x, A, b, spec.constraint_kinds, lb, ub, duals, reduced)
    certificate = {
        "primal_residual": float(primal),
        "dual_residual": float(dual_feas),
        "complementarity": float(comp),
        "duality_gap": float(comp_mass),
    }
    active = _binding_rows(spec, x)
    return SolveOutcome("optimal", x, objective, duals, reduced, active, iterations, certificate)
