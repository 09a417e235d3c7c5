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
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import null_space

FEAS_TOL = 1e-9
CERT_TOL = 1e-7
PIVOT_TOL = 1e-12

_KINDS = ("<=", ">=", "=")


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


def _pivot(S, rhs, basis, row, col):
    piv = S[row, col]
    S[row] /= piv
    rhs[row] /= piv
    for i in range(S.shape[0]):
        if i != row and S[i, col] != 0.0:
            factor = S[i, col]
            S[i] -= factor * S[row]
            rhs[i] -= factor * rhs[row]
    np.clip(rhs, 0.0, None, out=rhs)
    basis[row] = col


def _simplex_phase(S, rhs, cost, basis, allowed, max_iter):
    """Bland-rule simplex on min cost'w s.t. S w = rhs, w >= 0 (in place).

    Returns (status, iterations, entering_col_if_unbounded).
    """
    m = S.shape[0]
    tol = 1e-9 * (1.0 + np.max(np.abs(cost), initial=0.0))
    iterations = 0
    while True:
        if iterations > max_iter:
            raise NumericBreakdown("simplex iteration limit exceeded")
        reduced = cost - cost[basis] @ S
        entering = -1
        for j in np.flatnonzero(allowed):
            if reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return "optimal", iterations, -1
        col = S[:, entering]
        rows = np.flatnonzero(col > 1e-10)
        if rows.size == 0:
            return "unbounded", iterations, entering
        ratios = rhs[rows] / col[rows]
        best = np.min(ratios)
        # Bland tie-break: smallest basic-variable index among the minimizers.
        ties = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        leave_row = ties[np.argmin([basis[i] for i in ties])]
        if abs(col[leave_row]) < PIVOT_TOL:
            raise NumericBreakdown("pivot magnitude below zero-pivot threshold")
        _pivot(S, rhs, basis, leave_row, entering)
        iterations += 1


def _lp_internal(c_int, A, kinds, b, max_iter=20000):
    """Solve min c_int'v s.t. A v (kinds) b, v >= 0.

    Returns a dict with status and, when optimal, v, row duals for the stated
    rows (internal min convention), and iteration count.
    """
    m, n = A.shape
    flips = np.ones(m)
    rows = A.copy()
    rhs = b.copy()
    row_kinds = list(kinds)
    for j in range(m):
        if rhs[j] < 0.0:
            rows[j] = -rows[j]
            rhs[j] = -rhs[j]
            flips[j] = -1.0
            if row_kinds[j] == "<=":
                row_kinds[j] = ">="
            elif row_kinds[j] == ">=":
                row_kinds[j] = "<="

    slack_cols = []
    art_cols = []
    blocks = [rows]
    for j, kind in enumerate(row_kinds):
        if kind == "<=":
            col = np.zeros((m, 1))
            col[j, 0] = 1.0
            blocks.append(col)
            slack_cols.append((j, n + len(slack_cols) + len(art_cols)))
        elif kind == ">=":
            col = np.zeros((m, 1))
            col[j, 0] = -1.0
            blocks.append(col)
            slack_cols.append((j, n + len(slack_cols) + len(art_cols)))
    n_slack = len(slack_cols)
    basis = [-1] * m
    for j, kind in enumerate(row_kinds):
        if kind == "<=":
            pass
        else:
            col = np.zeros((m, 1))
            col[j, 0] = 1.0
            blocks.append(col)
            art_cols.append((j, n + n_slack + len(art_cols)))
    S0 = np.hstack(blocks) if blocks else rows
    ncols = S0.shape[1]
    for j, col_idx in slack_cols:
        if row_kinds[j] == "<=":
            basis[j] = col_idx
    for j, col_idx in art_cols:
        basis[j] = col_idx
    art_set = {col_idx for _, col_idx in art_cols}

    S = S0.copy()
    r = rhs.copy()
    iterations = 0
    if art_cols:
        phase1_cost = np.zeros(ncols)
        for col_idx in art_set:
            phase1_cost[col_idx] = 1.0
        allowed = np.ones(ncols, dtype=bool)
        status, it, _ = _simplex_phase(S, r, phase1_cost, basis, allowed, max_iter)
        iterations += it
        phase1_val = phase1_cost[basis] @ r
        if phase1_val > 1e-9 * (1.0 + np.max(np.abs(b), initial=0.0)):
            return {"status": "infeasible", "iterations": iterations,
                    "phase1_objective": float(phase1_val)}
        # Drive remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] in art_set:
                for j in range(n + n_slack):
                    if abs(S[i, j]) > 1e-9:
                        _pivot(S, r, basis, i, j)
                        break

    cost = np.zeros(ncols)
    cost[:n] = c_int
    allowed = np.ones(ncols, dtype=bool)
    for col_idx in art_set:
        allowed[col_idx] = False
    status, it, _ = _simplex_phase(S, r, cost, basis, allowed, max_iter)
    iterations += it
    if status == "unbounded":
        return {"status": "unbounded", "iterations": iterations}

    # Recompute primal and dual values from the optimal basis and the
    # original data, clearing accumulated tableau drift.
    B = S0[:, basis]
    try:
        x_basic = np.linalg.solve(B, rhs)
        y = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError as exc:
        raise NumericBreakdown("optimal basis is numerically singular") from exc
    w = np.zeros(ncols)
    w[basis] = x_basic
    v = w[:n]
    duals = flips * y
    return {"status": "optimal", "iterations": iterations, "v": v, "duals": duals}


def _certificate(sense, x, A, b, kinds, lb, ub, duals, reduced):
    """KKT residuals for the stated-sense problem at (x, duals, reduced)."""
    primal = 0.0
    comp = 0.0
    dual_feas = 0.0
    if A.shape[0]:
        resid = A @ x - b
        for j, kind in enumerate(kinds):
            if kind == "<=":
                primal = max(primal, resid[j])
                bad = duals[j] if sense == "min" else -duals[j]
                dual_feas = max(dual_feas, bad)
            elif kind == ">=":
                primal = max(primal, -resid[j])
                bad = -duals[j] if sense == "min" else duals[j]
                dual_feas = max(dual_feas, bad)
            else:
                primal = max(primal, abs(resid[j]))
            comp = max(comp, abs(duals[j] * resid[j]))
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
            comp = max(comp, abs(red * (x[i] - lb[i])))
            gap_terms += red * lb[i]
        elif np.isfinite(ub[i]):
            comp = max(comp, abs(red * (ub[i] - x[i])))
            gap_terms += red * ub[i]
        else:
            dual_feas = max(dual_feas, abs(red))
    return primal, float(dual_feas), comp, gap_terms


def solve_lp(spec: LpSpec) -> SolveOutcome:
    """Solve an LpSpec; statuses optimal/infeasible/unbounded, never an abort."""
    n = spec.n_vars
    lb = spec.variable_lower_bounds
    ub = spec.variable_upper_bounds
    c_stated = spec.cost
    c_int = c_stated if spec.objective_sense == "min" else -c_stated

    # Shift to v = x - lb >= 0 and fold finite upper bounds in as rows.
    rows = [spec.constraint_matrix]
    rhs = [spec.constraint_rhs - spec.constraint_matrix @ lb]
    kinds = list(spec.constraint_kinds)
    ub_rows = np.flatnonzero(np.isfinite(ub))
    if ub_rows.size:
        extra = np.zeros((ub_rows.size, n))
        for k, i in enumerate(ub_rows):
            extra[k, i] = 1.0
        rows.append(extra)
        rhs.append(ub[ub_rows] - lb[ub_rows])
        kinds.extend(["<="] * ub_rows.size)
    A_all = np.vstack(rows)
    b_all = np.concatenate(rhs)

    result = _lp_internal(c_int, A_all, kinds, b_all)
    iterations = result["iterations"]
    if result["status"] == "infeasible":
        return SolveOutcome("infeasible", None, None, None, None, [], iterations,
                            {"phase1_objective": result["phase1_objective"]})
    if result["status"] == "unbounded":
        return SolveOutcome("unbounded", None, None, None, None, [], iterations, {})

    x = result["v"] + lb
    duals_int = result["duals"][: spec.n_rows]
    duals = duals_int if spec.objective_sense == "min" else -duals_int
    reduced = c_stated - spec.constraint_matrix.T @ duals
    objective = float(c_stated @ x)
    primal, dual_feas, comp, gap_terms = _certificate(
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
    active = []
    resid = spec.constraint_matrix @ x - spec.constraint_rhs
    for j, kind in enumerate(spec.constraint_kinds):
        if abs(resid[j]) <= 1e-8 * (1.0 + abs(spec.constraint_rhs[j])):
            active.append(j)
    return active


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

    E_rows, E_rhs = [], []
    G_rows, G_rhs, G_origin = [], [], []
    for j, kind in enumerate(spec.constraint_kinds):
        a = spec.constraint_matrix[j]
        bj = spec.constraint_rhs[j]
        if kind == "=":
            E_rows.append(a)
            E_rhs.append(bj)
        elif kind == "<=":
            G_rows.append(a)
            G_rhs.append(bj)
            G_origin.append(("row", j, 1.0))
        else:
            G_rows.append(-a)
            G_rhs.append(-bj)
            G_origin.append(("row", j, -1.0))
    eq_row_indices = [j for j, kind in enumerate(spec.constraint_kinds) if kind == "="]
    for i in range(n):
        e = np.zeros(n)
        e[i] = -1.0
        G_rows.append(e)
        G_rhs.append(-lb[i])
        G_origin.append(("lb", i, 1.0))
    for i in range(n):
        if np.isfinite(ub[i]):
            e = np.zeros(n)
            e[i] = 1.0
            G_rows.append(e)
            G_rhs.append(ub[i])
            G_origin.append(("ub", i, 1.0))
    E = np.array(E_rows) if E_rows else np.zeros((0, n))
    f = np.array(E_rhs) if E_rhs else np.zeros(0)
    G = np.array(G_rows) if G_rows else np.zeros((0, n))
    h = np.array(G_rhs) if G_rhs else np.zeros(0)

    feas = solve_lp(LpSpec("min", np.zeros(n), spec.constraint_matrix, spec.constraint_rhs,
                           spec.constraint_kinds, lb, ub))
    if feas.status != "optimal":
        return SolveOutcome(feas.status, None, None, None, None, [], feas.iterations,
                            feas.certificate)
    x = feas.primal.copy()

    scale = 1.0 + np.max(np.abs(h), initial=0.0)
    working = []
    stacked = E.copy()
    rank = np.linalg.matrix_rank(stacked) if stacked.size else 0
    slack0 = h - G @ x if G.size else np.zeros(0)
    for k in np.flatnonzero(np.abs(slack0) <= 1e-8 * scale):
        cand = np.vstack([stacked, G[k]]) if stacked.size else G[k : k + 1]
        r = np.linalg.matrix_rank(cand)
        if r > rank:
            stacked, rank, working = cand, r, working + [int(k)]

    max_iter = 200 + 30 * (n + len(G_rows))
    iterations = 0
    stall = 0
    bland_mode = False
    mu_w = np.zeros(len(working))
    while True:
        if iterations > max_iter or stall > 400:
            raise NumericBreakdown("active-set iteration limit exceeded")
        iterations += 1
        grad = Q @ x + c
        A_w = np.vstack([E, G[working]]) if (E.size or working) else np.zeros((0, n))
        Z = null_space(A_w) if A_w.size else np.eye(n)
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

        if ray is not None:
            s = G @ ray if G.size else np.zeros(0)
            cands = np.flatnonzero(s > 1e-11)
            cands = np.array([k for k in cands if k not in working], dtype=int)
            if cands.size == 0:
                return SolveOutcome("unbounded", None, None, None, None, [], iterations, {})
            slack = np.clip(h[cands] - G[cands] @ x, 0.0, None)
            ratios = slack / s[cands]
            alpha = np.min(ratios)
            hit = cands[ratios <= alpha + 1e-9 * (1.0 + alpha)]
            x = x + alpha * ray
            working.append(int(hit.min()))
            stall = stall + 1 if alpha <= 1e-13 else 0
            continue

        if np.max(np.abs(p), initial=0.0) <= 1e-11 * (1.0 + np.max(np.abs(x), initial=0.0)):
            A_w_T = A_w.T if A_w.size else np.zeros((n, 0))
            mults = np.linalg.lstsq(A_w_T, -grad, rcond=None)[0] if A_w.size else np.zeros(0)
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

        s = G @ p if G.size else np.zeros(0)
        mask = np.array([k for k in np.flatnonzero(s > 1e-11) if k not in working], dtype=int)
        alpha = 1.0
        hit_row = -1
        if mask.size:
            slack = np.clip(h[mask] - G[mask] @ x, 0.0, None)
            ratios = slack / s[mask]
            kmin = np.min(ratios)
            if kmin < 1.0:
                alpha = kmin
                hits = mask[ratios <= kmin + 1e-9 * (1.0 + kmin)]
                hit_row = int(hits.min())
        x = x + alpha * p
        if hit_row >= 0:
            working.append(hit_row)
        stall = stall + 1 if alpha <= 1e-13 else 0

    # Map working-set multipliers back to stated rows.
    duals = np.zeros(spec.n_rows)
    for idx, j in enumerate(eq_row_indices):
        duals[j] = -sign * nu[idx]
    for mu_val, k in zip(mu_w, working):
        origin, j, flip = G_origin[k]
        if origin == "row":
            duals[j] = -sign * flip * float(mu_val)

    grad_stated = Q_stated @ x + c_stated
    reduced = grad_stated - spec.constraint_matrix.T @ duals
    objective = float(c_stated @ x + 0.5 * x @ Q_stated @ x)
    primal, dual_feas, comp, _ = _certificate(
        spec.objective_sense, x, spec.constraint_matrix, spec.constraint_rhs,
        spec.constraint_kinds, lb, ub, duals, reduced)
    # For the quadratic path the certified gap is the total complementarity
    # mass of the KKT point (zero exactly at a primal-dual optimum).
    resid_rows = spec.constraint_matrix @ x - spec.constraint_rhs if spec.n_rows else np.zeros(0)
    comp_mass = abs(float(duals @ resid_rows)) if spec.n_rows else 0.0
    for i in range(n):
        red = reduced[i]
        if abs(red) <= 1e-12:
            continue
        lower_side = red > 0 if spec.objective_sense == "min" else red < 0
        if lower_side:
            comp_mass += abs(red * (x[i] - lb[i]))
        elif np.isfinite(ub[i]):
            comp_mass += abs(red * (ub[i] - x[i]))
    certificate = {
        "primal_residual": float(primal),
        "dual_residual": float(dual_feas),
        "complementarity": float(comp),
        "duality_gap": float(comp_mass),
    }
    active = _binding_rows(spec, x)
    return SolveOutcome("optimal", x, objective, duals, reduced, active, iterations, certificate)
