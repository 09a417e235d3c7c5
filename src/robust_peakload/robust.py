"""Robust linear programs with cost-coefficient uncertainty, and the robust
market / central-planner solves built on them.

The generic analyzer handles programs of the form

    min over x, y >= 0 of   max over u in U of   (c + diag(lam) u)' x + d' y
    subject to              A x + B y >= b

by dualizing the inner adversary into auxiliary variables z >= 0 with rows
P' z >= diag(lam) x, where U = {u >= 0 : P u <= r}.  The multipliers of those
dualized rows are the worst-case scenario: each robust program reads it off
them (_readout) and raises SaddleViolated when the readout fails its check,
never re-solving the adversary.

Market solves lift the per-period uncertainty set over the horizon and
report equilibria/plans together with the worst-case value and the
adversarial scenario as an N x T matrix.  Scenarios and productions share
one coordinate order, fixed by geometry.lift_product: lifted coordinate
i*T + t is entry (i, t), so a scenario flattens by u.reshape(-1) like the x
variables of a program, and the adversary of coordinate k prices variable
k.  Every program shares the (x, y) variable layout and block builders of
robust_peakload.market.

The lifted set is the T-fold product of the per-period set, and the
second stage at pinned capacities separates by period.  So the workflows at
pinned capacities (the adjustable certificate, the scenario form, the
subsidies) return data over the |V| vertices of the per-period set, one
constant scenario per vertex (_constant_scenarios), and reduce it by period:
a max or min over the |V|^T lifted vertices of a sum over periods is the
sum over periods of the per-period max or min.  No lifted vertex list is
built.
"""

from dataclasses import dataclass, field

import numpy as np

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
    _dispatch,
    _fixed_program,
    _pinned_inputs,
    _solve,
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
from robust_peakload.solver import (Infeasible, LpSpec, NumericBreakdown, QpSpec,
                                    Unbounded, _checked, solve_lp, solve_qp)

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


def _min_norm_optimum(inst: MarketInstance, cost, A, rhs, kinds, v_star):
    """Minimum-norm point of the optimal set of the robust welfare QP over
    (x, y, z) with linear part (A, rhs, kinds, cost), given one optimum v_star.

    Optima of a concave QP all share the same Hessian image Q v and the same
    objective.  The welfare Hessian has rank T: (Q v)_{i,t} = -beta_t s_t
    with s_t = sum_i x_{i,t}, and beta_t > 0, so Q v = Q v_star is the T
    aggregate rows s_t = s*_t (market._clearing_rows), on which the objective
    is the linear w'v with w = cost + Q v_star / 2.  The optimal set is the
    feasible region cut by those rows and w'v = w'v_star; projecting onto it
    is a strictly convex QP.  v_star is feasible for it, so a projection
    that does not come back optimal is a solver defect: NumericBreakdown.
    """
    n, N, T = v_star.size, inst.N, inst.T
    aggregate = np.zeros((T, n))
    aggregate[:, : N * T] = _clearing_rows(N, T)
    w = cost + 0.5 * _welfare_hessian(inst, n) @ v_star
    out = solve_qp(QpSpec("min", np.zeros(n), np.vstack([A, aggregate, w]),
                          np.concatenate([rhs, aggregate @ v_star, [w @ v_star]]),
                          list(kinds) + ["="] * (T + 1), quadratic_matrix=np.eye(n)))
    if out.status != "optimal":
        raise NumericBreakdown(f"minimum-norm projection of the welfare optimum is {out.status}")
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
    gain, _ = _worst_case_gain(p.U, p.lam * x_box)
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
    """
    gains = scaling_matrix(inst) * np.asarray(x, dtype=float)
    value, u_vec = _worst_case_gain(lifted_set(inst), gains.reshape(-1))
    return value, u_vec.reshape(inst.N, inst.T)


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
    1e-7) or misses target by more than SADDLE_TOL therefore means the
    solver's duals are wrong, and SaddleViolated is raised with the gap; no
    other scenario is substituted."""
    flat = u.reshape(-1)
    if not U.contains(flat, tol=1e-7):
        excess = max(float(np.max(U.P @ flat - U.r, initial=0.0)), float(-np.min(flat)))
        raise SaddleViolated(
            f"dual worst-case scenario leaves the uncertainty set by {excess:.3e}")
    gap = abs(value_at(u) - target)
    if gap > SADDLE_TOL:
        raise SaddleViolated(
            f"dual worst-case scenario misses the program value by {gap:.3e}")
    return u


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


def solve_robust_market_fixed(inst: MarketInstance):
    """Strict robust market equilibrium, its worst-case total cost E_R, and
    the adversary's answer to the market plan.

    Producers hedge against their individual worst case, which shifts every
    production cost to c_var + a times the coordinate's maximum over the set
    (1 for a valid uncertainty set); prices are the clearing duals of that
    shifted program.  E_R evaluates the resulting plan against the actual
    worst scenario in the lifted set.  Returns (solution, E_R, worst), worst
    being that N x T scenario from worst_case_scenario: the planners'
    (solution, value, worst_u) shape.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust market requires Fixed demand")
    shifted = cost_matrix(inst, _strict_scenario(inst))
    solution = solve_fixed_dispatch(inst, shifted)
    surcharge, worst = worst_case_scenario(inst, solution.production)
    E = total_cost(inst, solution.production, solution.capacities) + surcharge
    return solution, float(E), worst


def solve_robust_cp_fixed(inst: MarketInstance):
    """Robust central planner under fixed demand via adversary dualization.

    Returns (solution, C_R, worst_u).  The solution's prices are the duals of
    the market-clearing rows of the dualized program, and worst_u is read
    off the duals of its adversary rows (_readout), so the saddle property
    total_cost(x*, y*, worst_u) = C_R holds within SADDLE_TOL or
    SaddleViolated is raised.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("fixed-demand robust planner requires Fixed demand")
    N, T = inst.N, inst.T
    lifted = lifted_set(inst)
    out = _solve(inst, *_with_adversary(*_fixed_program(inst, cost_matrix(inst)),
                                        scaling_matrix(inst).reshape(-1), lifted, 1.0),
                 "robust planner program")

    x = out.primal[: N * T].reshape(N, T)
    y = out.primal[N * T : N * T + N]
    prices = out.duals[N * T : N * T + T].copy()
    C = float(out.objective)
    worst_u = _readout(lifted, out.duals[N * T + T:].reshape(N, T),
                       lambda u: total_cost(inst, x, y, u), C)
    solution = EquilibriumSolution(prices, y, x, C)
    return solution, C, worst_u


# ---------------------------------------------------------------------------
# elastic demand


def solve_robust_market_elastic(inst: MarketInstance):
    """Strict robust market under elastic demand, its worst-case welfare,
    and the adversary's answer to the market plan.

    The equilibrium coincides with the welfare program at worst-case costs
    c_var + a times the coordinate's maximum over the set (1 for a valid
    uncertainty set); E'_R evaluates that plan's welfare under the
    adversarial scenario for the plan.  Returns (solution, E'_R, worst),
    worst being that N x T scenario from worst_case_scenario.
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust market requires AffineElastic demand")
    shifted = cost_matrix(inst, _strict_scenario(inst))
    solution = solve_elastic_welfare(inst, shifted)
    _, worst = worst_case_scenario(inst, solution.production)
    E = welfare(inst, solution.production, solution.capacities, worst)
    return solution, float(E), worst


def solve_robust_cp_elastic(inst: MarketInstance):
    """Robust welfare maximization as one concave QP with the adversary
    dualized into z variables.

    Returns (solution, C'_R, worst_u).  C'_R is the QP's optimal value and
    worst_u is read off the duals of its adversary rows (_readout), so
    welfare(x*, y*, worst_u) = C'_R holds within SADDLE_TOL or
    SaddleViolated is raised.  The plan is the minimum-norm optimum
    (_min_norm_optimum), and a tie-break that fails raises NumericBreakdown.
    Prices are read off the demand curve at total production.
    """
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("elastic robust planner requires AffineElastic demand")
    N, T = inst.N, inst.T
    demand = inst.demand
    lifted = lifted_set(inst)
    A, b, kinds, cost = _with_adversary(*_welfare_program(inst, cost_matrix(inst)),
                                        scaling_matrix(inst).reshape(-1), lifted, -1.0)
    out = _solve(inst, A, b, kinds, cost, "robust welfare program")

    # Welfare optima can be degenerate across capacity splits; canonicalize
    # to the minimum-norm optimum so interchangeable producers split evenly.
    primal = _min_norm_optimum(inst, cost, A, b, kinds, out.primal)
    x = primal[: N * T].reshape(N, T)
    y = primal[N * T : N * T + N]
    prices = demand.alpha - demand.beta * x.sum(axis=0)
    C = float(out.objective)
    # Max-sense >= rows carry nonpositive multipliers; negate to read u.
    worst_u = _readout(lifted, -out.duals[N * T:].reshape(N, T),
                       lambda u: welfare(inst, x, y, u), C)
    solution = EquilibriumSolution(prices, y, x, C)
    return solution, C, worst_u


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
    extracted worst-case scenario must achieve C within 1e-6.

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

    Raises SaddleViolated when a check fails beyond tolerance; that signals
    a solver defect, not a property of the model.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    mode = "fixed" if isinstance(inst.demand, Fixed) else "elastic"
    if mode == "fixed":
        cp_solution, C, worst_u = solve_robust_cp_fixed(inst)
        dominated = lambda value: value <= C + SADDLE_TOL
        capacity_sign, worst_of = 1.0, np.max
    else:
        cp_solution, C, worst_u = solve_robust_cp_elastic(inst)
        dominated = lambda value: value >= C - SADDLE_TOL
        capacity_sign, worst_of = -1.0, np.min
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

    Returns a dict with
      value, capacities: the optimum c_inv'y + sum_t theta_t and its y;
      epigraph: sum_t theta_t, the worst production cost over the vertices;
      clearing_duals: |V| x T, the multiplier of the clearing row of copy
        (v, t), rows in enumerate_vertices(inst.uncertainty) order, so that
        value = sum_{v,t} clearing_duals[v, t] d_t;
      scenarios, productions: |V| x N x T, row v aligned with
        clearing_duals[v]: the constant scenario at per-period vertex v and
        the copies at it, productions[v][:, t] = x_{v,t}.  The lifted vertex
        (j_1, ..., j_T) takes period t of both from row j_t.

    The clearing duals are the minimum-norm optimal multipliers supported
    on the active copies (those whose epigraph row binds): symmetric across
    interchangeable producers, with zero price mass on vertices the worst
    case of their period never activates.  Such multipliers always exist:
    dropping a copy whose epigraph row is slack leaves the LP's optimum
    unchanged, because the copy's only condition on y, sum_i y_i >= d_t, is
    the same for every copy of its period and the period's active copy
    already imposes it.  A support-restricted QP that finds none therefore
    raises NumericBreakdown.  A lifted layout would add nothing: in the
    lifted program any coupling of these per-period weights across periods
    is an optimal dual, because the capacity stationarity rows see only the
    per-period marginals.
    """
    if not isinstance(inst.demand, Fixed):
        raise ValueError("scenario reformulation requires fixed demand")
    N, T = inst.N, inst.T
    constant = _constant_scenarios(inst)
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

    # Copies whose epigraph row is slack get zero clearing-dual mass.
    epi_slack = spec.constraint_matrix[:K] @ out.primal - rhs[:K]
    inactive = np.flatnonzero(epi_slack > 1e-8 * (1.0 + abs(out.objective)))
    duals = _min_norm_duals(spec, out, clearing_start + inactive)
    if duals is None:
        raise NumericBreakdown("scenario reformulation: no optimal multipliers "
                               "vanish on the slack copies")

    copies = out.primal[T : T + K * N].reshape(V, T, N).transpose(0, 2, 1).copy()
    return {
        "value": float(out.objective),
        "capacities": out.primal[T + K * N:].copy(),
        "scenarios": constant,
        "productions": copies,
        "clearing_duals": duals[clearing_start:].reshape(V, T),
        "epigraph": float(out.primal[:T].sum()),
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
    if col_row.size == 0:
        return np.zeros(spec.n_rows) if np.max(np.abs(spec.cost)) == 0 else None

    # Stationarity rows: sum_j A[j,k] lambda_j (+ red_k) = c_k.
    G = (sign[:, None] * A[col_row]).T
    Q = np.where(col_row[:, None] == col_row[None, :], np.outer(sign, sign), 0.0)
    qp_kinds = ["=" if positive else "<=" for positive in x > 1e-9]
    sol = solve_qp(QpSpec("min", np.zeros(col_row.size), G, spec.cost, qp_kinds,
                          quadratic_matrix=Q))
    if sol.status != "optimal":
        return None
    duals = np.zeros(spec.n_rows)
    duals[rows] = np.add.reduceat(sign * sol.primal, starts)
    return duals


# ---------------------------------------------------------------------------
# combined report


def market_robust_report(inst: MarketInstance) -> MarketRobustReport:
    """Strict robust market and robust planner side by side with their ratio."""
    if isinstance(inst.demand, Fixed):
        market_solution, E, worst_u_market = solve_robust_market_fixed(inst)
        cp_solution, C, worst_u_cp = solve_robust_cp_fixed(inst)
        poa = E / C if C > 0 else np.inf
    else:
        market_solution, E, worst_u_market = solve_robust_market_elastic(inst)
        cp_solution, C, worst_u_cp = solve_robust_cp_elastic(inst)
        poa = C / E if E > 0 else np.inf
    return MarketRobustReport(market_solution, E, C, cp_solution,
                              worst_u_market, worst_u_cp, float(poa))
