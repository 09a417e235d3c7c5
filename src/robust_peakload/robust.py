"""Robust linear programs with cost-coefficient uncertainty, and the robust
market / central-planner solves built on them.

The generic analyzer handles programs of the form

    min over x, y >= 0 of   max over u in U of   (c + diag(lam) u)' x + d' y
    subject to              A x + B y >= b

by dualizing the inner adversary into auxiliary variables z >= 0 with rows
P' z >= diag(lam) x, where U = {u >= 0 : P u <= r}.  The multipliers of those
dualized rows are the worst-case scenario: each robust program reads it off
them (_readout) and raises SaddleViolated when the readout fails its check,
relative to the program value, never re-solving the adversary.  The
dualized elastic planner is a QP over (x, y, z) whose start is the vertex of
a crash LP (_crash_start): with the quantities pinned, what remains of it is
the fixed-demand robust planner LP on the same rows.  Either elastic
planner projects its optimum onto the minimum-norm point of the optimal
face (_min_norm_optimum) only when its optimum is not proven unique: by
its QP (SolveOutcome.unique_optimum), or by the screening curves at the
corner (market._welfare_plan).

Market solves lift the per-period uncertainty set over the horizon and
report equilibria/plans together with the worst-case value and the
adversarial scenario as an N x T matrix.  When the per-period set contains
its greatest element (_corner), that element in every period is the worst
case of every plan, so no solve poses an adversary program: both markets
and both planners, in either demand mode, are the nominal program at the
corner's costs, and so is the scenario form, whose other vertices the
corner dominates.  Off the corner the worst case of a plan is read off the
table of the per-period vertices (worst_case_scenario), with no LP, so at
costs constant over the periods the strict markets pose no program at all.
Scenarios and productions share one coordinate order,
fixed by geometry.lift_product: lifted coordinate i*T + t is entry (i, t),
so a scenario flattens by u.reshape(-1) like the x variables of a program,
and the adversary of coordinate k prices variable k.  Every program shares
the (x, y) variable layout and block builders of robust_peakload.market,
and every solved program's plan is read back by market._plan; the
adversary's rows come last (_with_adversary), so both planners read their
worst case off the last N*T duals.  The two strict robust markets are one
body (_strict_market) over the demand mode's solve and value.

The lifted set is the T-fold product of the per-period set, and the
second stage at pinned capacities separates by period.  So the workflows at
pinned capacities (the adjustable certificate, the scenario form, the
subsidies) return data over the |V| vertices of the per-period set, one
constant scenario per vertex (_constant_scenarios), and reduce it by period:
a max or min over the |V|^T lifted vertices of a sum over periods is the
sum over periods of the per-period max or min.  No lifted vertex list is
built.  The second stage is one closed form, market._dispatch: the scenario
form reports its productions and epigraph from the dispatch at its
capacities on every set, and judges its slack copies there.
"""

from dataclasses import dataclass, field

import numpy as np

from robust_peakload.geometry import (
    DimensionTooLarge,
    Polytope,
    ValidationReport,
    enumerate_vertices,
    lift_product,
    tau,
    validate,
)
from robust_peakload.market import (
    AffineElastic,
    Fixed,
    MarketInstance,
    _capacity_rows,
    _clearing_rows,
    _dispatch,
    _fixed_program,
    _period_matrix,
    _pinned_inputs,
    _plan,
    _solve,
    _welfare_hessian,
    _welfare_plan,
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
from robust_peakload.solver import (Infeasible, LpSpec, NumericBreakdown, QpSpec,
                                    Unbounded, _checked, solve_lp, solve_qp)

CHAIN_TOL = 1e-7
WORST_CASE_TIE_TOL = 1e-12
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


def _with_adversary(A, rhs, kinds, cost, lam, U, sign):
    """Dualize the adversary of a program over v, who picks u in
    U = {u >= 0 : P u <= r} to add the surcharge sum_k lam_k u_k v_k over the
    first lam.size variables to its cost: append multipliers z >= 0 priced
    sign * r (sign +1 for a min program, -1 for a max) and one row
    -lam_k v_k + (P' z)_k >= 0 per coordinate of u.  The multipliers of the
    appended rows recover the worst-case u.  Returns the extended
    (A, rhs, kinds, cost)."""
    m, n = A.shape
    n_u, m_u = lam.size, U.P.shape[0]
    full = np.zeros((m + n_u, n + m_u))
    full[:m, :n] = A
    full[m:, :n_u] = np.diag(-lam)
    full[m:, n:] = U.P.T
    return (full, np.concatenate([rhs, np.zeros(n_u)]),
            list(kinds) + [">="] * n_u, np.concatenate([cost, sign * U.r]))


def _min_norm_optimum(inst: MarketInstance, cost, A, rhs, kinds, v_star, weight):
    """Minimum-norm point, in the norm sum_k weight_k v_k^2, of the optimal
    set of a welfare QP over (x, y, ...) with linear part (A, rhs, kinds,
    cost), given one optimum v_star.  solve_robust_cp_elastic calls it only
    when v_star is not proven the one optimum (by the QP, or at the corner
    by the screening curves); otherwise the set is {v_star} and the
    projection would return v_star up to rounding.

    The dualized planner over (x, y, z) takes unit weights.  The planner at
    the corner poses no z; with weight 1 + a^2 on x and 1 on y it takes the
    point the dualized planner takes wherever P = I (box, VaR box): every
    optimum of that program has z = a x, so its unit norm is this one.

    Optima of a concave QP all share the same Hessian image Q v and the same
    objective.  The welfare Hessian has rank T: (Q v)_{i,t} = -beta_t s_t
    with s_t = sum_i x_{i,t}, and beta_t > 0, so Q v = Q v_star is the T
    aggregate rows s_t = s*_t (market._clearing_rows), on which the objective
    is the linear w'v with w = cost + Q v_star / 2.  The optimal set is the
    feasible region cut by those rows and w'v = w'v_star; projecting onto it
    is a strictly convex QP.  v_star is feasible for it, so it is the
    projection's start, and a projection that does not come back optimal is
    a solver defect: NumericBreakdown.
    """
    n, N, T = v_star.size, inst.N, inst.T
    aggregate = np.zeros((T, n))
    aggregate[:, : N * T] = _clearing_rows(N, T)
    w = cost + 0.5 * _welfare_hessian(inst, n) @ v_star
    return _min_norm_point(np.vstack([A, aggregate, w]),
                           np.concatenate([rhs, aggregate @ v_star, [w @ v_star]]),
                           list(kinds) + ["="] * (T + 1), np.diag(weight),
                           "minimum-norm projection of the welfare optimum", start=v_star)


def _min_norm_point(A, rhs, kinds, Q, what, start=None):
    """argmin of v'Q v / 2 over the face {v >= 0 : A v (kinds) rhs}: the
    canonicalizing solve of _min_norm_optimum and _min_norm_duals.  solve_qp
    crosses `start`, when the caller has a point of the face, over onto a
    basis, and otherwise finds its first basis by its own phase 1; neither
    poses an LP.  Each caller knows its face holds a point, so a solve that
    does not come back optimal is a solver defect and raises
    NumericBreakdown naming `what`."""
    out = solve_qp(QpSpec("min", np.zeros(Q.shape[0]), A, rhs, kinds, quadratic_matrix=Q),
                   start=start)
    if out.status != "optimal":
        raise NumericBreakdown(f"{what} is {out.status}")
    return out.primal


def solve_robust_lp(p: RobustLp) -> RobustReport:
    """Robust value, box-relaxation values, worst-case scenario, and the
    tau-based gap certificate for a RobustLp."""
    nx, ny = p.c.size, p.d.size
    m_rows = p.b.size
    AB = np.hstack([p.A, p.B])
    A, b, kinds, cost = _with_adversary(AB, p.b, [">="] * m_rows,
                                        np.concatenate([p.c, p.d]), p.lam, p.U, 1.0)
    out = _checked(solve_lp(LpSpec("min", cost, A, b, kinds)), "robust program")
    val_R = float(out.objective)
    x_star = out.primal[:nx]
    y_star = out.primal[nx : nx + ny]

    # Multipliers of the dualized adversary rows are the worst-case u.
    base_cost = float(p.c @ x_star + p.d @ y_star)
    worst_u = _readout(p.U, out.duals[m_rows:].copy(),
                       lambda u: base_cost + float((p.lam * u) @ x_star), val_R)

    box_out = _checked(solve_lp(LpSpec("min", np.concatenate([p.c + p.lam, p.d]),
                                       AB, p.b, [">="] * m_rows)),
                       "box relaxation")
    val_Btilde = float(box_out.objective)
    x_box = box_out.primal[:nx]
    y_box = box_out.primal[nx:]
    gain, _ = p.U.maximize(p.lam * x_box)
    val_B = float(p.c @ x_box + p.d @ y_box + gain)

    t, _ = tau(p.U)
    bound_ok = bool(val_B <= val_R / t + CHAIN_TOL)
    return RobustReport(val_R, val_Btilde, val_B, worst_u, t, bound_ok)


# ---------------------------------------------------------------------------
# lifted-scenario helpers (coordinate i*T + t, see geometry.lift_product)


def lifted_set(inst: MarketInstance) -> Polytope:
    return lift_product(inst.uncertainty, inst.T)


def worst_case_scenario(inst: MarketInstance, x) -> tuple:
    """Adversarial scenario maximizing the production-cost surcharge of plan x.

    Returns (surcharge value, N x T scenario).  The surcharge is
    max over u in the lifted set of sum_{i,t} a_{i,t} u_{i,t} x_{i,t}.
    When the per-period set contains its greatest element (_corner) and the
    plan is nonnegative, that element in every period is the scenario, with
    no solver call.  Otherwise the lifted set is a product, so the maximum
    separates by period, and a linear function's maximum over a polytope is
    its maximum over the vertices (Rockafellar, Convex Analysis, section
    13): with V the vertices of the per-period set, the |V| x T table
    V (a * x) holds every period's value at every vertex, and the value is
    the sum of the chosen entries.

    Tie rule: in each period the scenario is the first vertex, in
    enumerate_vertices order, whose value is within WORST_CASE_TIE_TOL of
    that period's maximum, relative to the period's largest |value|; it
    follows no solver path.  Above the enumeration guard
    (geometry.MAX_ENUM_DIM) the scenario is the lifted set's LP optimum,
    which follows the LP's pivot path.  x that is not a finite N x T matrix
    raises ValueError.
    """
    gains = scaling_matrix(inst) * _period_matrix(inst, x, "plan x")
    corner = _corner(inst)
    if corner is not None and np.all(gains >= 0.0):
        return float(np.sum(gains * corner)), corner
    try:
        vertices = np.stack(enumerate_vertices(inst.uncertainty))
    except DimensionTooLarge:
        value, u_vec = lifted_set(inst).maximize(gains.reshape(-1))
        return value, u_vec.reshape(inst.N, inst.T)
    table = vertices @ gains
    near = table >= table.max(axis=0) - WORST_CASE_TIE_TOL * np.abs(table).max(axis=0)
    first = np.argmax(near, axis=0)
    return float(table[first, np.arange(inst.T)].sum()), vertices[first].T.copy()


def _vertex_dispatch(inst: MarketInstance, y):
    """Second stage at capacities pinned to y, in one closed-form dispatch
    over the scenarios with every period at one vertex v of the per-period
    set.  The dispatch separates by period, so period t of the outcome at v
    is the period-t optimum at v, whatever the other periods of a lifted
    vertex are.  Returns the |V| x N x T stack of those constant scenarios
    and the Dispatch over them."""
    constant = _constant_scenarios(inst)
    return constant, _dispatch(inst, y, cost_matrix(inst, constant))


def _constant_scenarios(inst: MarketInstance):
    """|V| x N x T stack of the scenarios with every period at one vertex of
    the per-period set, in enumerate_vertices order."""
    vertices = np.stack(enumerate_vertices(inst.uncertainty))
    return np.repeat(vertices[:, :, None], inst.T, axis=2)


def _readout(U: Polytope, u, value_at, target):
    """Worst-case scenario of a robust solve: the multipliers u of its
    dualized adversary rows (over U's coordinates, in any shape that
    flattens to them), checked and returned.

    The multipliers come from the dual solution that also gives the
    program's prices.  By duality they lie in U (their z-stationarity rows
    are P u <= r) and, by complementary slackness with every optimal plan,
    value_at(u), the plan's value at u, equals the program value target:
    they are a worst case for every optimal plan.  A u that leaves U (tol
    1e-7) or misses target by more than _saddle_tol(target), SADDLE_TOL
    relative to 1 + |target|, therefore means the solver's duals are wrong,
    and SaddleViolated is raised with the gap; no other scenario is
    substituted."""
    flat = u.reshape(-1)
    if not U.contains(flat, tol=1e-7):
        excess = max(float(np.max(U.P @ flat - U.r, initial=0.0)), float(-np.min(flat)))
        raise SaddleViolated(
            f"dual worst-case scenario leaves the uncertainty set by {excess:.3e}")
    gap = abs(value_at(u) - target)
    if gap > _saddle_tol(target):
        raise SaddleViolated(
            f"dual worst-case scenario misses the program value by {gap:.3e}")
    return u


def _saddle_tol(value):
    """The tolerance of a saddle check at program value `value`: SADDLE_TOL
    relative to 1 + |value|, the convention of solver._certificate.  At a
    value of 1e10 rounding alone leaves gaps of about 1e-5."""
    return SADDLE_TOL * (1.0 + abs(value))


def _mixtures(constant, samples, seed):
    """`samples` random scenarios (S x N x T) whose period t mixes the
    per-period vertices, period t of the |V| x N x T stack `constant` of
    _constant_scenarios, with its own uniform Dirichlet weights; the weights
    of all periods come from one generator seeded by seed."""
    T = constant.shape[-1]
    weights = np.random.default_rng(seed).dirichlet(np.ones(len(constant)),
                                                    size=(samples, T))
    return np.stack([np.tensordot(weights[:, t], constant[..., t], axes=1)
                     for t in range(T)], axis=-1)


# ---------------------------------------------------------------------------
# fixed demand


def _strict_scenario(inst: MarketInstance) -> np.ndarray:
    """Coordinatewise worst scenario for an individually hedging producer:
    the axis maxima of the per-period set in every period (all ones for a
    valid uncertainty set)."""
    maxima = np.asarray(inst.uncertainty_report.axis_projections, dtype=float)
    return np.tile(maxima[:, None], (1, inst.T))


def _corner(inst: MarketInstance):
    """The per-period set's greatest element m, its point of axis maxima, in
    every period (_strict_scenario), or None when the set does not contain
    m (Polytope.contains).  No point of the set exceeds m in any coordinate,
    so with a >= 0 it is a worst case for every nonnegative plan.  Box and
    VaR-box sets contain it; among valid sets, exactly those with tau = 1
    do."""
    m = inst.uncertainty_report.axis_projections
    return _strict_scenario(inst) if inst.uncertainty.contains(m) else None


def solve_robust_market_fixed(inst: MarketInstance):
    """Strict robust market equilibrium, its worst-case total cost E_R, and
    the adversary's answer to the market plan.

    Producers hedge against their individual worst case, which shifts every
    production cost to c_var + a times the coordinate's maximum over the set
    (1 for a valid uncertainty set); prices are the clearing duals of that
    shifted program.  Those costs are constant over the periods unless some
    a_by_period varies, so solve_fixed_dispatch takes its screening curves.
    E_R evaluates the resulting plan against the actual worst scenario in
    the lifted set.  On a set that contains its greatest element (_corner)
    that scenario is the corner, the costs the plan was solved at, so E_R is
    the plan's own objective: the same number as the planner's C_R.
    Returns (solution, E_R, worst), worst being that N x T scenario from
    worst_case_scenario (the corner): the planners' (solution, value,
    worst_u) shape.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust market requires Fixed demand")
    return _strict_market(inst, solve_fixed_dispatch, total_cost)


def _strict_market(inst: MarketInstance, solve, value_at):
    """The strict robust market of either demand mode: the plan `solve`
    (solve_fixed_dispatch or solve_elastic_welfare) gives at the strict
    costs c_var + a m, with m the axis maxima (_strict_scenario), and its
    value_at (total_cost or welfare) under the worst case of that plan:
    the corner, where the set holds it, at which the value is the plan's own
    objective; otherwise worst_case_scenario's vertex table.  The strict
    costs are constant over the periods unless some a_by_period varies, so
    either solve takes its screening curves and the market poses no
    program.  Returns (solution, value, worst)."""
    solution = solve(inst, cost_matrix(inst, _strict_scenario(inst)))
    corner = _corner(inst)
    if corner is not None:
        return solution, solution.objective, corner
    _, worst = worst_case_scenario(inst, solution.production)
    return solution, value_at(inst, solution.production, solution.capacities, worst), worst


def solve_robust_cp_fixed(inst: MarketInstance):
    """Robust central planner under fixed demand.

    Returns (solution, C_R, worst_u).  When the per-period set contains its
    greatest element m (_corner), m is a worst case for every plan, so the
    planner is the nominal planner at costs c_var + a m, that is the strict
    robust market, C_R = E_R (solve_fixed_dispatch: screening curves unless
    some a_by_period varies), and worst_u is m in every period.  Otherwise
    the adversary is dualized: prices are the duals of the market-clearing
    rows of the dualized program, and worst_u is read off the duals of its
    adversary rows.  Either worst_u goes through _readout, so the saddle
    property total_cost(x*, y*, worst_u) = C_R holds within _saddle_tol(C_R) or
    SaddleViolated is raised.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust planner requires Fixed demand")
    N, T = inst.N, inst.T
    lifted = lifted_set(inst)
    worst = _corner(inst)
    if worst is not None:
        solution = solve_fixed_dispatch(inst, cost_matrix(inst, worst))
    else:
        out = _solve(inst, *_with_adversary(*_fixed_program(inst, cost_matrix(inst)),
                                            scaling_matrix(inst).reshape(-1), lifted, 1.0),
                     "robust planner program")
        solution = _plan(inst, out.primal, out.objective, out.duals)
        # _with_adversary appends its N*T rows last.
        worst = out.duals[-N * T:].reshape(N, T)
    C = solution.objective
    worst_u = _readout(lifted, worst,
                       lambda u: total_cost(inst, solution.production, solution.capacities, u),
                       C)
    return solution, C, worst_u


# ---------------------------------------------------------------------------
# elastic demand


def solve_robust_market_elastic(inst: MarketInstance):
    """Strict robust market under elastic demand, its worst-case welfare,
    and the adversary's answer to the market plan.

    The equilibrium coincides with the welfare program at worst-case costs
    c_var + a times the coordinate's maximum over the set (1 for a valid
    uncertainty set), which solve_elastic_welfare takes by its screening
    curves, with the lowest index winning tied slices, unless some
    a_by_period varies; E'_R evaluates that plan's welfare under the
    adversarial scenario for the plan (worst_case_scenario).  On a set that
    contains its greatest element (_corner) that scenario is the corner,
    the costs the plan was solved at, so E'_R is the welfare program's
    objective: the same number as the planner's C'_R.  Returns (solution, E'_R, worst), worst being
    that N x T scenario from worst_case_scenario (the corner).
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust market requires AffineElastic demand")
    return _strict_market(inst, solve_elastic_welfare, welfare)


def solve_robust_cp_elastic(inst: MarketInstance):
    """Robust welfare maximization as one concave QP.

    Returns (solution, C'_R, worst_u).  When the per-period set contains its
    greatest element m (_corner), m is a worst case for every plan, so the
    planner is the welfare program over (x, y) at costs c_var + a m, the
    strict robust market, and worst_u is m in every period: one welfare
    solve shared with the market (market._welfare_plan: the screening
    curves at costs constant over the periods, else the QP), whose value is
    C'_R, so poa reports E == C bit for bit.  Otherwise the adversary is
    dualized into z variables and worst_u is read off the duals of its
    adversary rows; that QP starts at the vertex of its crash LP
    (_crash_start), the fixed-demand robust planner LP on the same rows at
    quantities pinned to the demand-curve intercepts, and from there takes
    a few steps where from the origin it took one per degenerate row.
    C'_R is the QP's optimal value, and either worst_u goes through
    _readout, so welfare(x*, y*, worst_u) = C'_R holds within
    _saddle_tol(C'_R) or SaddleViolated is raised.  The plan is the
    minimum-norm optimum: over (x, y, z) for the dualized QP, over (x, y)
    with weight 1 + a^2 on x at the corner, the same point wherever P = I.
    When the optimum is proven unique (SolveOutcome.unique_optimum, or the
    screening curves' proof) it is the plan; otherwise the tie-break
    _min_norm_optimum projects it onto that point, and a tie-break that
    fails raises NumericBreakdown.  Prices are read off the demand curve
    at total production.
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust planner requires AffineElastic demand")
    N, T = inst.N, inst.T
    lifted = lifted_set(inst)
    a = scaling_matrix(inst).reshape(-1)
    worst = _corner(inst)
    # Welfare optima can be degenerate across capacity splits; unless the
    # optimum is proven unique, canonicalize to the minimum-norm optimum so
    # interchangeable producers split evenly.
    if worst is not None:
        costs = cost_matrix(inst, worst)
        solution, unique = _welfare_plan(inst, costs)
        if not unique:
            A, b, kinds, cost = _welfare_program(inst, costs)
            start = np.concatenate([solution.production.reshape(-1), solution.capacities])
            primal = _min_norm_optimum(inst, cost, A, b, kinds, start,
                                       np.concatenate([1.0 + a ** 2, np.ones(N)]))
            solution = _plan(inst, primal, solution.objective)
    else:
        A, b, kinds, cost = _with_adversary(*_welfare_program(inst, cost_matrix(inst)),
                                            a, lifted, -1.0)
        out = _solve(inst, A, b, kinds, cost, "robust welfare program",
                     start=_crash_start(inst, a, lifted))
        primal = out.primal
        if not out.unique_optimum:
            primal = _min_norm_optimum(inst, cost, A, b, kinds, primal, np.ones(primal.size))
        solution = _plan(inst, primal, out.objective)
        # The adversary's N*T rows come last; as >= rows of a max program
        # they carry nonpositive multipliers, so negate to read u.
        worst = -out.duals[-N * T:].reshape(N, T)
    C = solution.objective
    worst_u = _readout(lifted, worst,
                       lambda u: welfare(inst, solution.production, solution.capacities, u), C)
    return solution, C, worst_u


def _crash_start(inst: MarketInstance, a, lifted):
    """A vertex of the dualized welfare program over (x, y, z) to start its
    QP from: the optimum of the fixed-demand robust planner LP on the same
    capacity and adversary rows with the quantities pinned, by the T
    clearing rows, to the crash demand s0.

    With s pinned the gross surplus is constant, so what remains of the
    welfare program is that LP: cost c_var on x, c_inv on y and r on z
    (_with_adversary at sign +1).  Its cost is nonnegative, so solve_lp
    takes it from its dual with no phase 1, and its optimum is a point of
    the QP's rows, which are the LP's without the clearing rows.  s0 is the
    demand-curve intercepts q_t = max(alpha_t, 0) / beta_t divided by their
    peak: the LP's rows form a cone over s0, so its optimal basis does not
    depend on that scale, and the start's quantities stay of unit size in
    any units.  With every q_t = 0 the optimum is the origin.  A crash LP
    that does not come back optimal raises Infeasible or Unbounded."""
    demand = inst.demand
    q = np.maximum(demand.alpha, 0.0) / demand.beta
    peak = q.max()
    s0 = q / peak if peak > 0.0 else q
    A, b, kinds, cost = _with_adversary(*_fixed_program(inst, cost_matrix(inst), s0),
                                        a, lifted, 1.0)
    return _checked(solve_lp(LpSpec("min", cost, A, b, kinds)),
                    "crash LP of the robust welfare program").primal


# ---------------------------------------------------------------------------
# best responses at fixed capacity, equivalence certificates


def dispatch_at_capacity(inst: MarketInstance, y_star, u) -> tuple:
    """Scenario-wise best response at fixed capacities, in closed form (see
    market._dispatch; no solver call).

    Fixed demand: cost-minimal dispatch, returns (total cost, x).
    Elastic demand: welfare-maximal dispatch, returns (welfare, x).
    y_star needs one finite, nonnegative entry per producer and u must be a
    finite N x T scenario (None: nominal costs); otherwise ValueError.
    """
    y_star, scenarios = _pinned_inputs(inst, y_star, u)
    out = _dispatch(inst, y_star, cost_matrix(inst, scenarios))
    return float(out.value[0]), out.x[0]


def verify_adjustable_equivalence(inst: MarketInstance, samples: int = DEFAULT_SAMPLES,
                                  seed: int = DEFAULT_SEED) -> dict:
    """Numerical saddle certificate that fixing capacities first and letting
    production adjust to the scenario cannot beat the strict robust planner.

    Evaluates the scenario-wise best response at the strict robust
    capacities y* on every vertex of the lifted uncertainty set plus
    `samples` random scenarios mixing the per-period vertices period by
    period (_mixtures): each value must be weakly dominated by the planner
    value C (cost <= C for fixed demand, welfare >= C for elastic), and the
    extracted worst-case scenario must achieve C, both within
    _saddle_tol(C).

    The dispatch at pinned capacities is a closed form with no solver call
    per scenario (see market._dispatch).  It separates by period, so one
    dispatch over the |V| constant scenarios gives every period value, and
    the worst value over the |V|^T lifted vertices is the investment term
    plus the sum over periods of the worst period value; a second dispatch
    covers the samples and the worst-case scenario.  The only solves are the
    planner's.

    Returns a dict with
      demand_mode, value (C), capacities (y* clipped at zero), worst_u,
        worst_value (the dispatch value at worst_u), saddle_gap
        (|worst_value - C|), saddle_ok, samples, seed;
      vertices: |V| x N, the per-period vertices in enumerate_vertices order;
      vertex_values: |V| x T, the period values at y* with every period at
        one vertex, the investment cost excluded;
      worst_vertex_value: +-c_inv'y* (+ for fixed demand) plus the sum over
        periods of the max (fixed demand) or min (elastic) of vertex_values,
        the worst value over the lifted vertices;
      sample_values: the values at the samples;
      dominated: whether worst_vertex_value and every sample value are
        dominated by C.

    dominated and saddle_ok (saddle_gap <= _saddle_tol(C)) are True in every
    returned certificate: when either check fails beyond tolerance,
    SaddleViolated is raised instead, which signals a solver defect, not a
    property of the model.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    mode = "fixed" if isinstance(inst.demand, Fixed) else "elastic"
    if mode == "fixed":
        cp_solution, C, worst_u = solve_robust_cp_fixed(inst)
        capacity_sign, worst_of = 1.0, np.max
    else:
        cp_solution, C, worst_u = solve_robust_cp_elastic(inst)
        capacity_sign, worst_of = -1.0, np.min
    tol = _saddle_tol(C)
    dominated = lambda value: capacity_sign * (value - C) <= tol
    # Clipped at zero like every other pinned dispatch (_pinned_inputs,
    # compute_subsidies): the planner's capacities can carry -1e-15 entries.
    y_star = np.maximum(cp_solution.capacities, 0.0)
    c_inv = np.array([p.c_inv for p in inst.producers])

    constant, at_vertices = _vertex_dispatch(inst, y_star)
    vertex_values = at_vertices.period_values
    worst_vertex_value = float(capacity_sign * (c_inv @ y_star)
                               + worst_of(vertex_values, axis=0).sum())
    scenarios = np.concatenate([_mixtures(constant, samples, seed), worst_u[None]])
    values = _dispatch(inst, y_star, cost_matrix(inst, scenarios)).value
    sample_values = values[:-1].tolist()
    worst_value = float(values[-1])

    failures = [v for v in [worst_vertex_value] + sample_values if not dominated(v)]
    saddle_gap = abs(worst_value - C)
    certificate = {
        "demand_mode": mode,
        "value": C,
        "capacities": y_star,
        "vertices": constant[:, :, 0].copy(),
        "vertex_values": vertex_values,
        "worst_vertex_value": worst_vertex_value,
        "sample_values": sample_values,
        "worst_u": worst_u,
        "worst_value": worst_value,
        "saddle_gap": saddle_gap,
        "samples": samples,
        "seed": seed,
        "dominated": not failures,
        "saddle_ok": saddle_gap <= tol,
    }
    if failures:
        raise SaddleViolated(
            f"{len(failures)} scenario values escape the planner value {C}")
    if saddle_gap > tol:
        raise SaddleViolated(
            f"worst-case scenario misses the planner value by {saddle_gap:.3e}")
    return certificate


# ---------------------------------------------------------------------------
# scenario (vertex) reformulation of the adjustable planner, fixed demand


def adjustable_scenario_form_fixed(inst: MarketInstance) -> dict:
    """Adjustable robust planner with the lifted uncertainty set replaced by
    its vertices: shared capacities, a production that adapts to the
    scenario, and an epigraph bounding the worst production cost.

    Production cost separates by period and the lifted set is the T-fold
    product of the per-period set, so the worst cost over the lifted
    vertices is the sum over periods of the worst cost over the per-period
    vertices V.  The program is therefore solved by period: minimize
    c_inv'y + sum_t theta_t over one production copy x_{v,t} per
    (per-period vertex, period), with theta_t >= c_t(v)'x_{v,t},
    x_{v,t} <= y and sum_i x_{v,t,i} = d_t.  That is |V| T (N + 2) rows in
    place of one N x T copy per lifted vertex; value and capacities are
    those of the lifted program.

    The vertex restriction is a relaxation: the scenario-wise dispatch value
    is concave in the scenario, so its maximum over the full set can sit at a
    mixture of vertices, and the value here is then a strict lower bound on
    the adjustable optimum.  It is exact whenever the worst case is attained
    at a vertex, in particular when dispatch is capacity-forced.

    Once the capacities are fixed, each copy is the second stage at its
    vertex, so the report takes every copy from the closed-form dispatch at
    the capacities (market._dispatch): an optimal copy, whatever the LP's
    basis chose.  Returns a dict with
      value, capacities: the optimum c_inv'y + sum_t theta_t and its y;
      epigraph: sum_t theta_t, the sum over periods of the dispatch's
        largest period cost over the vertices;
      clearing_duals: |V| x T, the multiplier of the clearing row of copy
        (v, t), rows in enumerate_vertices(inst.uncertainty) order, so that
        value = sum_{v,t} clearing_duals[v, t] d_t;
      scenarios, productions: |V| x N x T, row v aligned with
        clearing_duals[v]: the constant scenario at per-period vertex v and
        the dispatch at y there, productions[v][:, t] = x_{v,t}.  The lifted
        vertex (j_1, ..., j_T) takes period t of both from row j_t.

    When the per-period set contains its greatest element m (_corner: box,
    VaR box), the program is the nominal planner at costs c_var + a m
    (solve_fixed_dispatch), with no LP unless some a_by_period varies: the
    dispatch cost does not decrease in u (a >= 0) and every vertex lies
    below m, so m is the worst vertex of every period at every y.  m's
    copies carry the planner's prices as clearing duals and every other
    vertex's carry zero; with epigraph multiplier 1 on m's copies that is an
    optimal dual of the full program.  m is the vertex of largest coordinate
    sum, since every other vertex lies below it.  Otherwise the program is
    the LP above (_vertex_scenario_form).
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("scenario reformulation requires fixed demand")
    constant = _constant_scenarios(inst)
    corner = _corner(inst)
    if corner is not None:
        planner = solve_fixed_dispatch(inst, cost_matrix(inst, corner))
        value, y = planner.objective, planner.capacities
        duals = np.zeros((len(constant), inst.T))
        duals[np.argmax(constant[:, :, 0].sum(axis=1))] = planner.prices
    else:
        value, y, duals = _vertex_scenario_form(inst, constant)
    at_y = _dispatch(inst, y, cost_matrix(inst, constant))
    return {
        "value": value,
        "capacities": y,
        "scenarios": constant,
        "productions": at_y.x,
        "clearing_duals": duals,
        "epigraph": float(at_y.period_values.max(axis=0).sum()),
    }


def _vertex_scenario_form(inst: MarketInstance, constant):
    """(value, capacities, clearing duals as |V| x T) of
    adjustable_scenario_form_fixed, from one LP over the copies of the
    |V| x N x T stack `constant` of per-period vertices: a valid program on
    every set, posed on the sets without a greatest element.

    The clearing duals are the minimum-norm optimal multipliers with no mass
    on the slack copies, judged at the dispatch: the copies whose
    closed-form dispatch at the LP's capacities (market._dispatch) costs
    less than the largest of its period.  They are symmetric across
    interchangeable producers, with zero price mass on vertices the worst
    case of their period never activates.  The dispatch is an optimal
    primal in which such a copy's epigraph row is slack, and every optimal
    dual is complementary to every optimal primal, so no optimal dual puts
    an epigraph multiplier on that copy, whichever copy the LP's basis
    took.  Multipliers with no clearing mass there always exist: dropping a
    slack copy leaves the LP's optimum unchanged, because the copy's only
    condition on y, sum_i y_i >= d_t, is the same for every copy of its
    period and the period's active copy already imposes it.  A
    support-restricted QP that finds none therefore raises
    NumericBreakdown.  A lifted layout would add nothing: in the lifted
    program any coupling of these per-period weights across periods is an
    optimal dual, because the capacity stationarity rows see only the
    per-period marginals.
    """
    N, T = inst.N, inst.T
    V = len(constant)
    K = V * T

    # Variables: theta (T), one production copy per (vertex, period) with
    # copy k = v*T + t, shared capacities.  Rows: K epigraph rows
    # theta_t >= c_t(v)'x_{v,t}, then the capacity rows and the clearing
    # row of every copy.
    copy_costs = cost_matrix(inst, constant).transpose(0, 2, 1).reshape(-1)
    clearing = np.kron(np.eye(K), _clearing_rows(N, 1))
    epigraph = np.where(clearing == 1.0, -copy_costs, 0.0)
    cap = _capacity_rows(N, 1)
    x_part = np.vstack([epigraph, np.kron(np.eye(K), cap[:, :N]), clearing])
    y_part = np.vstack([np.zeros((K, N)), np.tile(cap[:, N:], (K, 1)),
                        np.zeros((K, N))])
    theta = np.vstack([np.tile(np.eye(T), (V, 1)), np.zeros((K * N + K, T))])
    clearing_start = K + K * N
    rhs = np.concatenate([np.zeros(clearing_start), np.tile(inst.demand.d, V)])
    kinds = [">="] * K + ["<="] * (K * N) + ["="] * K
    c_inv = np.array([p.c_inv for p in inst.producers])
    cost = np.concatenate([np.ones(T), np.zeros(K * N), c_inv])
    spec = LpSpec("min", cost, np.hstack([theta, x_part, y_part]), rhs, kinds)
    out = _checked(solve_lp(spec), "scenario reformulation")
    y = out.primal[T + K * N:].copy()

    # Copies whose dispatch at y is slack get zero clearing-dual mass.
    periods = _dispatch(inst, y, cost_matrix(inst, constant)).period_values
    slack = (periods.max(axis=0) - periods).reshape(-1)
    inactive = np.flatnonzero(slack > 1e-8 * (1.0 + abs(out.objective)))
    duals = _min_norm_duals(spec, out, clearing_start + inactive)
    return float(out.objective), y, duals[clearing_start:].reshape(V, T)


def _min_norm_duals(spec: LpSpec, outcome, force_zero_rows):
    """Minimum-norm optimal multiplier vector of a min-sense LP, with the
    multipliers of `force_zero_rows` pinned to zero.

    Solves a convex QP over the optimal-dual set: stationarity must hold
    exactly on strictly positive variables, reduced costs stay nonnegative on
    variables at zero, binding-row multipliers keep their sense sign, and
    slack rows carry zero.  Raises NumericBreakdown when the restricted set
    is empty (in the scenario form the forced rows are the slack copies).
    """
    if spec.objective_sense != "min":
        raise ValueError("helper assumes a min-sense program")
    if not np.all(np.isinf(spec.variable_upper_bounds)):
        raise ValueError("helper assumes no finite upper bounds")
    x = outcome.primal
    A = spec.constraint_matrix
    resid = A @ x - spec.constraint_rhs
    scale = 1.0 + np.max(np.abs(spec.constraint_rhs), initial=0.0)
    participates = ~(np.abs(resid) > 1e-8 * scale)
    participates[np.asarray(force_zero_rows, dtype=int)] = False
    # Multiplier variables: one per participating row, in row order; "="
    # rows are split into adjacent positive and negative parts so the QP
    # stays over y >= 0.  sign maps each variable to its row's multiplier.
    rows = np.flatnonzero(participates)
    kinds = np.array(spec.constraint_kinds)[rows]
    eq = kinds == "="
    width = np.where(eq, 2, 1)
    starts = np.cumsum(width) - width
    col_row = np.repeat(rows, width)
    sign = np.repeat(np.where(kinds == "<=", -1.0, 1.0), width)
    sign[starts[eq] + 1] = -1.0
    what = "solve for minimum-norm duals with no mass on the slack copies"

    # Stationarity rows: sum_j A[j,k] lambda_j (+ red_k) = c_k.
    G = (sign[:, None] * A[col_row]).T
    Q = np.where(col_row[:, None] == col_row[None, :], np.outer(sign, sign), 0.0)
    qp_kinds = ["=" if positive else "<=" for positive in x > 1e-9]
    duals = np.zeros(spec.n_rows)
    duals[rows] = np.add.reduceat(sign * _min_norm_point(G, spec.cost, qp_kinds, Q, what),
                                  starts)
    return duals
