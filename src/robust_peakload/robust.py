"""Robust linear programs with cost-coefficient uncertainty, and the robust
market / central-planner solves built on them.

The generic analyzer handles programs of the form

    min over x, y >= 0 of   max over u in U of   (c + diag(lam) u)' x + d' y
    subject to              A x + B y >= b

by dualizing the inner adversary into auxiliary variables z >= 0 with rows
P' z >= diag(lam) x, where U = {u >= 0 : P u <= r}.  The multipliers of those
dualized rows recover the worst-case scenario.

Market solves lift the per-period uncertainty set over the horizon and
report equilibria/plans together with the worst-case value and the
adversarial scenario as an N x T matrix.  The lifted coordinate order is
known only to scenario_to_vector and its inverse vector_to_scenario; the
planners build their adversary rows through them, and every program shares
the (x, y) variable layout and block builders of robust_peakload.market.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from robust_peakload.geometry import (
    Polytope,
    ValidationReport,
    enumerate_vertices,
    lift_product,
    tau,
    validate,
)
from robust_peakload.market import (
    AffineElastic,
    EquilibriumSolution,
    Fixed,
    MarketInstance,
    _capacity_rows,
    _clearing_rows,
    _fixed_program,
    _welfare_gradient,
    _welfare_hessian,
    _welfare_program,
    cost_matrix,
    scaling_matrix,
    solve_elastic_welfare,
    solve_fixed_dispatch,
    total_cost,
    welfare,
)
# Infeasible and Unbounded live in solver (market raises them too) and are
# re-exported here under their public names.
from robust_peakload.solver import (Infeasible, LpSpec, QpSpec, Unbounded,
                                    _checked, solve_lp, solve_qp)

CHAIN_TOL = 1e-7
SADDLE_TOL = 1e-6
DEFAULT_SAMPLES = 64
DEFAULT_SEED = 2024


class SaddleViolated(Exception):
    """A saddle certificate failed beyond tolerance (solver defect signal)."""


@dataclass
class RobustLp:
    """min (c + diag(lam) u)' x + d' y s.t. A x + B y >= b, x, y >= 0, u in U."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lam: np.ndarray
    U: Polytope
    uncertainty_report: ValidationReport = field(init=False, default=None)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        self.lam = np.asarray(self.lam, dtype=float).reshape(-1)
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        nx, ny, m = self.c.size, self.d.size, self.b.size
        self.A = np.asarray(self.A, dtype=float).reshape(m, nx)
        self.B = np.asarray(self.B, dtype=float).reshape(m, ny)
        if self.lam.size != nx:
            raise ValueError("lam must have one entry per x variable")
        if np.any(self.c < 0) or np.any(self.d < 0) or np.any(self.lam < 0):
            raise ValueError("c, d, and lam must be nonnegative")
        if self.U.dimension != nx:
            raise ValueError("U must live over the x coordinates")
        self.uncertainty_report = validate(self.U)


@dataclass
class RobustReport:
    """Values of the robust program, its box relaxation, and the certificate
    that val_B <= val_R / tau(U)."""

    val_R: float
    val_Btilde: float
    val_B: float
    worst_u: np.ndarray
    tau: float
    bound_ok: bool


@dataclass
class MarketRobustReport:
    """Strict robust market next to the robust central planner: E is the
    market's worst-case value, C the planner optimum, poa their ratio
    (E/C for fixed demand, C/E for elastic welfare)."""

    market_solution: EquilibriumSolution
    E: float
    C: float
    cp_solution: EquilibriumSolution
    worst_u_market: np.ndarray
    worst_u_cp: np.ndarray
    poa: float


def _worst_case_gain(U: Polytope, gains):
    """max over u in U of gains' u; returns (value, argmax u).

    No box is imposed on u: the set's own rows bound the adversary, so
    scaled (non-unit-projection) sets are handled exactly.
    """
    gains = np.asarray(gains, dtype=float)
    out = _checked(solve_lp(LpSpec("max", gains, U.P, U.r, ["<="] * U.r.size)),
                   "adversary program over the uncertainty set")
    return float(out.objective), out.primal.copy()


def _with_adversary(A, rhs, kinds, cost, gain, U, sign):
    """Dualize the adversary of a program over v, who picks u in
    U = {u >= 0 : P u <= r} to add the surcharge sum_k u_k (-gain_k v) to
    its cost: append multipliers z >= 0 priced sign * r (sign +1 for a min
    program, -1 for a max) and one row gain_k v + (P' z)_k >= 0 per
    coordinate of u.  The multipliers of the appended rows recover the
    worst-case u.  Returns the extended (A, rhs, kinds, cost)."""
    m, n = A.shape
    n_u, m_u = gain.shape[0], U.P.shape[0]
    full = np.zeros((m + n_u, n + m_u))
    full[:m, :n] = A
    full[m:, :n] = gain
    full[m:, n:] = U.P.T
    return (full, np.concatenate([rhs, np.zeros(n_u)]),
            list(kinds) + [">="] * n_u, np.concatenate([cost, sign * U.r]))


def _min_norm_optimum(cost, Q, A, rhs, kinds, v_star):
    """Minimum-norm point of a quadratic program's optimal set.

    Optima of a convex (here concave) QP all share the same Hessian image
    Q v and the same objective, so the optimal set is the feasible region
    intersected with those linear conditions; projecting the solver's optimum
    onto it is a strictly convex QP.  Falls back to v_star when the
    projection solve does not come back optimal.
    """
    g = Q @ v_star
    keep = [k for k in range(Q.shape[0]) if np.any(Q[k] != 0.0)]
    w = cost + 0.5 * g
    A2 = np.vstack([A, Q[keep], w[None, :]])
    rhs2 = np.concatenate([np.asarray(rhs, dtype=float), g[keep], [w @ v_star]])
    kinds2 = list(kinds) + ["="] * (len(keep) + 1)
    out = solve_qp(QpSpec("min", np.zeros(v_star.size), A2, rhs2, kinds2,
                          quadratic_matrix=np.eye(v_star.size)))
    if out.status != "optimal":
        return v_star
    return out.primal


def solve_robust_lp(p: RobustLp) -> RobustReport:
    """Robust value, box-relaxation values, worst-case scenario, and the
    tau-based gap certificate for a RobustLp."""
    nx, ny = p.c.size, p.d.size
    m_rows = p.b.size
    AB = np.hstack([p.A, p.B])
    gain = np.hstack([-np.diag(p.lam), np.zeros((nx, ny))])
    A, b, kinds, cost = _with_adversary(AB, p.b, [">="] * m_rows,
                                        np.concatenate([p.c, p.d]), gain, p.U, 1.0)
    out = _checked(solve_lp(LpSpec("min", cost, A, b, kinds)), "robust program")
    val_R = float(out.objective)
    x_star = out.primal[:nx]
    y_star = out.primal[nx : nx + ny]

    # Multipliers of the dualized adversary rows recover the worst-case u;
    # fall back to the inner maximization when the basis blurs them.
    worst_u = out.duals[m_rows:].copy()
    base_cost = float(p.c @ x_star + p.d @ y_star)
    inner_at_dual = base_cost + float((p.lam * worst_u) @ x_star)
    if not p.U.contains(worst_u, tol=1e-7) or abs(inner_at_dual - val_R) > SADDLE_TOL:
        _, worst_u = _worst_case_gain(p.U, p.lam * x_star)

    box_out = _checked(solve_lp(LpSpec("min", np.concatenate([p.c + p.lam, p.d]),
                                       AB, p.b, [">="] * m_rows)),
                       "box relaxation")
    val_Btilde = float(box_out.objective)
    x_box = box_out.primal[:nx]
    y_box = box_out.primal[nx:]
    gain, _ = _worst_case_gain(p.U, p.lam * x_box)
    val_B = float(p.c @ x_box + p.d @ y_box + gain)

    t, _ = tau(p.U)
    bound_ok = bool(val_B <= val_R / t + CHAIN_TOL)
    return RobustReport(val_R, val_Btilde, val_B, worst_u, t, bound_ok)


# ---------------------------------------------------------------------------
# lifted-scenario helpers (period-major coordinates t*N + i)


def lifted_set(inst: MarketInstance) -> Polytope:
    return lift_product(inst.uncertainty, inst.T)


def vector_to_scenario(u_vec, N, T) -> np.ndarray:
    """Period-major lift vector -> N x T scenario matrix."""
    return np.asarray(u_vec, dtype=float).reshape(T, N).T


def scenario_to_vector(u_mat) -> np.ndarray:
    """N x T scenario matrix -> period-major lift vector."""
    return np.asarray(u_mat, dtype=float).T.reshape(-1)


def worst_case_scenario(inst: MarketInstance, x) -> tuple:
    """Adversarial scenario maximizing the production-cost surcharge of plan x.

    Returns (surcharge value, N x T scenario).  The surcharge is
    max over u in the lifted set of sum_{i,t} a_{i,t} u_{i,t} x_{i,t}.
    """
    x = np.asarray(x, dtype=float)
    gains = scenario_to_vector(scaling_matrix(inst) * x)
    lifted = lifted_set(inst)
    value, u_vec = _worst_case_gain(lifted, gains)
    return value, vector_to_scenario(u_vec, inst.N, inst.T)


def lifted_vertices(inst: MarketInstance):
    """Vertices of the lifted uncertainty set as N x T matrices, built as the
    T-fold Cartesian product of the per-period vertex list."""
    per_period = enumerate_vertices(inst.uncertainty)
    return [np.column_stack(combo)
            for combo in itertools.product(per_period, repeat=inst.T)]


def _adversary_gain(inst: MarketInstance):
    """Rows -a_{i,t} x_{i,t} over (x, y), one per lifted coordinate, in the
    order scenario_to_vector gives them."""
    N, T = inst.N, inst.T
    columns = scenario_to_vector(np.arange(N * T).reshape(N, T)).astype(int)
    gain = np.zeros((N * T, N * T + N))
    gain[np.arange(N * T), columns] = scenario_to_vector(-scaling_matrix(inst))
    return gain


def _worst_u_readout(inst: MarketInstance, lifted, u_vec, value_at, target,
                     fallback):
    """Worst-case N x T scenario of a planner solve, read off the multipliers
    u_vec of its dualized adversary rows.  When the basis blurs them (u_vec
    leaves the lifted set, or value_at(u) misses the planner value target),
    returns fallback() instead."""
    worst_u = vector_to_scenario(u_vec, inst.N, inst.T)
    if (not lifted.contains(u_vec, tol=1e-7)
            or abs(value_at(worst_u) - target) > SADDLE_TOL):
        return fallback()
    return worst_u


# ---------------------------------------------------------------------------
# fixed demand


def _strict_scenario(inst: MarketInstance) -> np.ndarray:
    """Coordinatewise worst scenario for an individually hedging producer:
    the axis maxima of the per-period set in every period (all ones for a
    valid uncertainty set)."""
    maxima = np.asarray(inst.uncertainty_report.axis_projections, dtype=float)
    return np.tile(maxima[:, None], (1, inst.T))


def solve_robust_market_fixed(inst: MarketInstance):
    """Strict robust market equilibrium and its worst-case total cost E_R.

    Producers hedge against their individual worst case, which shifts every
    production cost to c_var + a times the coordinate's maximum over the set
    (1 for a valid uncertainty set); prices are the clearing duals of that
    shifted program.  E_R evaluates the resulting plan against the actual
    worst scenario in the lifted set.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust market requires Fixed demand")
    shifted = cost_matrix(inst, _strict_scenario(inst))
    solution, _ = solve_fixed_dispatch(inst, shifted)
    surcharge, _ = worst_case_scenario(inst, solution.production)
    E = total_cost(inst, solution.production, solution.capacities) + surcharge
    return solution, float(E)


def solve_robust_cp_fixed(inst: MarketInstance):
    """Robust central planner under fixed demand via adversary dualization.

    Returns (solution, C_R, worst_u).  The solution's prices are the duals of
    the market-clearing rows of the dualized program; the saddle property
    total_cost(x*, y*, worst_u) = C_R holds within tolerance.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust planner requires Fixed demand")
    N, T = inst.N, inst.T
    lifted = lifted_set(inst)
    A, b, kinds, cost = _with_adversary(*_fixed_program(inst, cost_matrix(inst)),
                                        _adversary_gain(inst), lifted, 1.0)
    out = _checked(solve_lp(LpSpec("min", cost, A, b, kinds)),
                   "robust planner program")

    x = out.primal[: N * T].reshape(N, T)
    y = out.primal[N * T : N * T + N]
    prices = out.duals[N * T : N * T + T].copy()
    C = float(out.objective)
    worst_u = _worst_u_readout(inst, lifted, out.duals[N * T + T:].copy(),
                               lambda u: total_cost(inst, x, y, u), C,
                               lambda: worst_case_scenario(inst, x)[1])
    solution = EquilibriumSolution(prices, y, x, C)
    return solution, C, worst_u


# ---------------------------------------------------------------------------
# elastic demand


def solve_robust_market_elastic(inst: MarketInstance):
    """Strict robust market under elastic demand and its worst-case welfare.

    The equilibrium coincides with the welfare program at worst-case costs
    c_var + a times the coordinate's maximum over the set (1 for a valid
    uncertainty set); E'_R evaluates that plan's welfare under the
    adversarial scenario for the plan.
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust market requires AffineElastic demand")
    shifted = cost_matrix(inst, _strict_scenario(inst))
    solution, _ = solve_elastic_welfare(inst, shifted)
    surcharge, worst = worst_case_scenario(inst, solution.production)
    E = welfare(inst, solution.production, solution.capacities, worst)
    return solution, float(E)


def solve_robust_cp_elastic(inst: MarketInstance):
    """Robust welfare maximization as one concave QP with the adversary
    dualized into z variables.

    Returns (solution, C'_R, worst_u); welfare(x*, y*, worst_u) = C'_R within
    tolerance, with prices read off the demand curve at total production.
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust planner requires AffineElastic demand")
    N, T = inst.N, inst.T
    demand = inst.demand
    lifted = lifted_set(inst)
    A, b, kinds, cost = _with_adversary(*_welfare_program(inst, cost_matrix(inst)),
                                        _adversary_gain(inst), lifted, -1.0)
    Q = _welfare_hessian(inst, cost.size)
    out = _checked(solve_qp(QpSpec("max", cost, A, b, kinds, quadratic_matrix=Q)),
                   "robust welfare program")

    # Welfare optima can be degenerate across capacity splits; canonicalize
    # to the minimum-norm optimum so interchangeable producers split evenly.
    primal = _min_norm_optimum(cost, Q, A, b, kinds, out.primal)
    x = primal[: N * T].reshape(N, T)
    y = primal[N * T : N * T + N]
    prices = demand.alpha - demand.beta * x.sum(axis=0)
    # The value is the worst-case welfare of the returned plan, free of the
    # tie-break term in the QP objective.
    _, worst_exact = worst_case_scenario(inst, x)
    C = float(welfare(inst, x, y, worst_exact))
    # Max-sense >= rows carry nonpositive multipliers; negate to read u.
    worst_u = _worst_u_readout(inst, lifted, -out.duals[N * T:],
                               lambda u: welfare(inst, x, y, u), C,
                               lambda: worst_exact)
    solution = EquilibriumSolution(prices, y, x, C)
    return solution, C, worst_u


# ---------------------------------------------------------------------------
# best responses at fixed capacity, equivalence certificates


def dispatch_at_capacity(inst: MarketInstance, y_star, u) -> tuple:
    """Scenario-wise best response at fixed capacities.

    Fixed demand: cost-minimal dispatch, returns (total cost, x).
    Elastic demand: welfare-maximal dispatch, returns (welfare, x).
    """
    y_star = np.asarray(y_star, dtype=float)
    N, T = inst.N, inst.T
    costs = cost_matrix(inst, u)
    caps = np.repeat(y_star, T)
    c_inv = np.array([p.c_inv for p in inst.producers])
    if isinstance(inst.demand, Fixed):
        out = _checked(solve_lp(LpSpec("min", costs.reshape(-1), _clearing_rows(N, T),
                                       inst.demand.d, ["="] * T,
                                       variable_upper_bounds=caps)),
                       "dispatch at the given capacities")
        x = out.primal.reshape(N, T)
        return float(c_inv @ y_star + out.objective), x
    out = _checked(solve_qp(QpSpec("max", _welfare_gradient(inst, costs),
                                   np.zeros((0, N * T)), [], [],
                                   variable_upper_bounds=caps,
                                   quadratic_matrix=_welfare_hessian(inst, N * T))),
                   "welfare dispatch at fixed capacities")
    x = out.primal.reshape(N, T)
    return float(out.objective - c_inv @ y_star), x


def verify_adjustable_equivalence(inst: MarketInstance, samples: int = DEFAULT_SAMPLES,
                                  seed: int = DEFAULT_SEED) -> dict:
    """Numerical saddle certificate that fixing capacities first and letting
    production adjust to the scenario cannot beat the strict robust planner.

    Evaluates the scenario-wise best response at the strict robust
    capacities on every vertex of the lifted uncertainty set plus `samples`
    random convex combinations: each value must be weakly dominated by the
    planner value C (cost <= C for fixed demand, welfare >= C for elastic),
    and the extracted worst-case scenario must achieve C within 1e-6.

    Raises SaddleViolated when a check fails beyond tolerance; that signals
    a solver defect, not a property of the model.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    mode = "fixed" if isinstance(inst.demand, Fixed) else "elastic"
    if mode == "fixed":
        cp_solution, C, worst_u = solve_robust_cp_fixed(inst)
        dominated = lambda value: value <= C + SADDLE_TOL
    else:
        cp_solution, C, worst_u = solve_robust_cp_elastic(inst)
        dominated = lambda value: value >= C - SADDLE_TOL
    y_star = cp_solution.capacities

    vertices = lifted_vertices(inst)
    vertex_values = [dispatch_at_capacity(inst, y_star, v)[0] for v in vertices]
    rng = np.random.default_rng(seed)
    sample_values = []
    for _ in range(samples):
        weights = rng.dirichlet(np.ones(len(vertices)))
        u = sum(w * v for w, v in zip(weights, vertices))
        sample_values.append(dispatch_at_capacity(inst, y_star, u)[0])
    worst_value = dispatch_at_capacity(inst, y_star, worst_u)[0]

    all_values = vertex_values + sample_values
    failures = [v for v in all_values if not dominated(v)]
    saddle_gap = abs(worst_value - C)
    certificate = {
        "demand_mode": mode,
        "value": C,
        "capacities": y_star.copy(),
        "vertices": vertices,
        "vertex_values": vertex_values,
        "sample_values": sample_values,
        "worst_u": worst_u,
        "worst_value": worst_value,
        "saddle_gap": saddle_gap,
        "samples": samples,
        "seed": seed,
        "dominated": not failures,
        "saddle_ok": saddle_gap <= SADDLE_TOL,
    }
    if failures:
        raise SaddleViolated(
            f"{len(failures)} scenario values escape the planner value {C}")
    if saddle_gap > SADDLE_TOL:
        raise SaddleViolated(
            f"worst-case scenario misses the planner value by {saddle_gap:.3e}")
    return certificate


# ---------------------------------------------------------------------------
# scenario (vertex) reformulation of the adjustable planner, fixed demand


def adjustable_scenario_form_fixed(inst: MarketInstance,
                                   canonical_duals: bool = True) -> dict:
    """Adjustable robust planner with the lifted uncertainty set replaced by
    its vertices: shared capacities, one production copy per scenario, and an
    epigraph variable bounding the worst production cost.

    The vertex restriction is a relaxation: the scenario-wise dispatch value
    is concave in the scenario, so its maximum over the full set can sit at a
    mixture of vertices, and the value here is then a strict lower bound on
    the adjustable optimum.  It is exact whenever the worst case is attained
    at a vertex, in particular when dispatch is capacity-forced.

    With canonical_duals, clearing duals are reported as the minimum-norm
    optimal multipliers supported on the adversarially active scenarios
    (scenarios whose epigraph row binds); this canonical choice is symmetric
    across interchangeable producers and puts zero price mass on scenarios
    the worst case never activates.  When that support admits no multiplier
    vector the support restriction is dropped.  Without canonical_duals the
    solver's basic multipliers are reported, which is cheaper but
    basis-dependent on degenerate instances.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("scenario reformulation requires fixed demand")
    N, T = inst.N, inst.T
    scenarios = lifted_vertices(inst)
    V = len(scenarios)
    n_x = N * T

    # Variables: the epigraph theta, V production copies, shared capacities.
    # Rows: V epigraph rows theta >= cost of copy j at scenario j, then the
    # capacity rows and the clearing rows of every copy.
    cap = _capacity_rows(N, T)
    epigraph = block_diag(*[-cost_matrix(inst, s).reshape(1, -1) for s in scenarios])
    x_part = np.vstack([epigraph, np.kron(np.eye(V), cap[:, :n_x]),
                        np.kron(np.eye(V), _clearing_rows(N, T))])
    y_part = np.vstack([np.zeros((V, N)), np.tile(cap[:, n_x:], (V, 1)),
                        np.zeros((V * T, N))])
    theta = np.concatenate([np.ones(V), np.zeros(V * n_x + V * T)])
    clearing_start = V + V * n_x
    rhs = np.concatenate([np.zeros(clearing_start), np.tile(inst.demand.d, V)])
    kinds = [">="] * V + ["<="] * (V * n_x) + ["="] * (V * T)
    c_inv = np.array([p.c_inv for p in inst.producers])
    cost = np.concatenate([[1.0], np.zeros(V * n_x), c_inv])
    spec = LpSpec("min", cost, np.column_stack([theta, x_part, y_part]), rhs, kinds)
    out = _checked(solve_lp(spec), "scenario reformulation")

    duals = out.duals
    if canonical_duals:
        # Scenarios whose epigraph row is slack get zero clearing-dual mass.
        epi_slack = spec.constraint_matrix[:V] @ out.primal - rhs[:V]
        inactive = np.flatnonzero(epi_slack > 1e-8 * (1.0 + abs(out.objective)))
        force_zero = [clearing_start + int(j) * T + t
                      for j in inactive for t in range(T)]
        canonical = _min_norm_duals(spec, out, force_zero)
        if canonical is None:
            canonical = _min_norm_duals(spec, out, [])
        if canonical is not None:
            duals = canonical
    clearing_duals = duals[clearing_start:].reshape(V, T)

    value = float(out.objective)
    productions = list(out.primal[1 : 1 + V * n_x].reshape(V, N, T))
    return {
        "value": value,
        "capacities": out.primal[1 + V * n_x:].copy(),
        "scenarios": scenarios,
        "productions": productions,
        "clearing_duals": clearing_duals,
        "epigraph": float(out.primal[0]),
    }


def _min_norm_duals(spec: LpSpec, outcome, force_zero_rows):
    """Minimum-norm optimal multiplier vector of a min-sense LP, with the
    multipliers of `force_zero_rows` pinned to zero.

    Solves a convex QP over the optimal-dual set: stationarity must hold
    exactly on strictly positive variables, reduced costs stay nonnegative on
    variables at zero, binding-row multipliers keep their sense sign, and
    slack rows carry zero.  Returns None when the restricted set is empty.
    """
    if spec.objective_sense != "min":
        raise ValueError("helper assumes a min-sense program")
    if not np.all(np.isinf(spec.variable_upper_bounds)):
        raise ValueError("helper assumes no finite upper bounds")
    x = outcome.primal
    resid = spec.constraint_matrix @ x - spec.constraint_rhs
    scale = 1.0 + np.max(np.abs(spec.constraint_rhs), initial=0.0)
    forced = set(int(j) for j in force_zero_rows)
    # Multiplier variables: one per participating row; "=" rows are split
    # into positive and negative parts so the QP stays over y >= 0.
    var_of_row = {}
    cols = []
    for j, kind in enumerate(spec.constraint_kinds):
        if j in forced or abs(resid[j]) > 1e-8 * scale:
            continue
        if kind == "=":
            var_of_row[j] = (len(cols), len(cols) + 1)
            cols.append((j, 1.0))
            cols.append((j, -1.0))
        else:
            sign = 1.0 if kind == ">=" else -1.0
            var_of_row[j] = (len(cols),)
            cols.append((j, sign))
    n_mult = len(cols)
    if n_mult == 0:
        return np.zeros(spec.n_rows) if np.max(np.abs(spec.cost)) == 0 else None

    # Stationarity rows: sum_j A[j,k] lambda_j (+ red_k) = c_k.
    G = np.zeros((spec.n_vars, n_mult))
    for col, (j, sign) in enumerate(cols):
        G[:, col] = sign * spec.constraint_matrix[j]
    kinds = ["=" if positive else "<=" for positive in x > 1e-9]
    Q = np.zeros((n_mult, n_mult))
    for j, idxs in var_of_row.items():
        if len(idxs) == 1:
            Q[idxs[0], idxs[0]] = 1.0
        else:
            p_i, m_i = idxs
            Q[p_i, p_i] = Q[m_i, m_i] = 1.0
            Q[p_i, m_i] = Q[m_i, p_i] = -1.0
    qp = QpSpec("min", np.zeros(n_mult), G, spec.cost, kinds, quadratic_matrix=Q)
    sol = solve_qp(qp)
    if sol.status != "optimal":
        return None
    duals = np.zeros(spec.n_rows)
    for j, idxs in var_of_row.items():
        if len(idxs) == 1:
            sign = 1.0 if spec.constraint_kinds[j] == ">=" else -1.0
            duals[j] = sign * sol.primal[idxs[0]]
        else:
            duals[j] = sol.primal[idxs[0]] - sol.primal[idxs[1]]
    return duals


# ---------------------------------------------------------------------------
# combined report


def market_robust_report(inst: MarketInstance) -> MarketRobustReport:
    """Strict robust market and robust planner side by side with their ratio."""
    if isinstance(inst.demand, Fixed):
        market_solution, E = solve_robust_market_fixed(inst)
        cp_solution, C, worst_u_cp = solve_robust_cp_fixed(inst)
        poa = E / C if C > 0 else np.inf
    else:
        market_solution, E = solve_robust_market_elastic(inst)
        cp_solution, C, worst_u_cp = solve_robust_cp_elastic(inst)
        poa = C / E if E > 0 else np.inf
    _, worst_u_market = worst_case_scenario(inst, market_solution.production)
    return MarketRobustReport(market_solution, E, C, cp_solution,
                              worst_u_market, worst_u_cp, float(poa))
