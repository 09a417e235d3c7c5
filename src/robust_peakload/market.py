"""Market instances and nominal solves for capacity-investment markets.

Producers choose capacity (cost c_inv per unit) and per-period production
(cost c_var per unit, production capped by capacity).  Demand is either a
fixed quantity per period or an affine inverse demand curve p_t(s) =
alpha_t - beta_t * s.  Production cost factors scale as
c_var + a * u with u drawn from a polyhedral uncertainty set; the nominal
solves here evaluate at u = 0 (or at a supplied mean scenario).

Every program in the package uses one variable layout: production x, an
N x T matrix flattened producer-major (x[i*T + t] is production of producer
i in period t, as x.reshape(-1) gives it), followed by the N capacities y;
programs that need more variables append them after y.  The private block
builders here (_capacity_rows, _clearing_rows, _welfare_hessian,
_welfare_gradient) are the only code that lays rows out over x and y, and
_plan is the only code that reads a plan (production, capacities, prices)
back out of a solved program.
_solve is the only code that turns the demand mode into a solver call (a
cost-minimal LP or a welfare-maximal QP).  Neither planner poses a program
at production costs constant over the periods: solve_fixed_dispatch takes
the screening curves (_screening), a closed form over the sorted demands,
and solve_elastic_welfare their elastic mirror (_elastic_screening), a
merit-order stack of capacity slices; each poses its program only at costs
that vary.  _dispatch is the one second stage, production's best response
at pinned capacities: at pinned capacities each period is a dispatch at one
node, so it is solved in closed form over a whole stack of scenarios, with
no solver call per scenario.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from robust_peakload.geometry import Polytope, ValidationReport, validate
from robust_peakload.solver import (FEAS_TOL, Infeasible, LpSpec, QpSpec, _checked,
                                    solve_lp, solve_qp)

SUPPORT_TOL = 1e-9
UNIQUE_TOL = 1e-9


class BadMean(Exception):
    """Mean scenario outside the unit box."""


@dataclass
class Producer:
    """Technology with capacity cost c_inv, production cost c_var, and
    uncertainty scaling a; a_by_period optionally overrides a per period."""

    c_inv: float
    c_var: float
    a: float = 0.0
    a_by_period: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("c_inv", "c_var", "a"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
            setattr(self, name, value)
        if self.a_by_period is not None:
            arr = np.asarray(self.a_by_period, dtype=float).reshape(-1)
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError("a_by_period must be finite and nonnegative")
            self.a_by_period = arr


@dataclass
class Fixed:
    """Inelastic demand d_t per period."""

    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float).reshape(-1)
        if np.any(self.d < 0) or not np.all(np.isfinite(self.d)):
            raise ValueError("fixed demand must be finite and nonnegative")


@dataclass
class AffineElastic:
    """Inverse demand p_t(s) = alpha_t - beta_t s with beta_t > 0."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float).reshape(-1)
        self.beta = np.asarray(self.beta, dtype=float).reshape(-1)
        if self.alpha.shape != self.beta.shape:
            raise ValueError("alpha and beta must have matching lengths")
        if np.any(self.beta <= 0):
            raise ValueError("beta must be strictly positive")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise ValueError("demand curve parameters must be finite")


@dataclass
class MarketInstance:
    """N producers, T periods, a demand side, and a per-period uncertainty
    set over the N cost factors (lifted over periods by the robust solves)."""

    producers: list
    demand: object
    T: int
    uncertainty: Polytope
    uncertainty_report: ValidationReport = field(init=False, default=None)

    def __post_init__(self):
        if len(self.producers) < 1:
            raise ValueError("at least one producer is required")
        if self.T < 1:
            raise ValueError("at least one period is required")
        if self.uncertainty.dimension != len(self.producers):
            raise ValueError("uncertainty set dimension must equal the producer count")
        if isinstance(self.demand, Fixed) and self.demand.d.size != self.T:
            raise ValueError("fixed demand must list one quantity per period")
        if isinstance(self.demand, AffineElastic) and self.demand.alpha.size != self.T:
            raise ValueError("demand curve must list one (alpha, beta) per period")
        for producer in self.producers:
            if producer.a_by_period is not None and producer.a_by_period.size != self.T:
                raise ValueError("a_by_period must list one scaling per period")
        self.uncertainty_report = validate(self.uncertainty)

    @property
    def N(self):
        return len(self.producers)


def scaling_matrix(inst: MarketInstance) -> np.ndarray:
    """N x T matrix of uncertainty scalings a_{i,t}."""
    A = np.empty((inst.N, inst.T))
    for i, producer in enumerate(inst.producers):
        if producer.a_by_period is not None:
            A[i] = producer.a_by_period
        else:
            A[i] = producer.a
    return A


def cost_matrix(inst: MarketInstance, u=None) -> np.ndarray:
    """Per-unit production costs c_var + a * u as an N x T matrix, or as an
    S x N x T stack for an S x N x T stack of scenarios u."""
    base = np.array([p.c_var for p in inst.producers])[:, None]
    costs = np.tile(base, (1, inst.T)).astype(float)
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (2, 3) or u.shape[-2:] != (inst.N, inst.T):
            raise ValueError("scenario must be an N x T matrix")
        costs = costs + scaling_matrix(inst) * u
    return costs


def total_cost(inst: MarketInstance, x, y, u=None) -> float:
    """Investment plus production cost of the plan (x, y) under scenario u."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c_inv = np.array([p.c_inv for p in inst.producers])
    return float(c_inv @ y + np.sum(cost_matrix(inst, u) * x))


def gross_surplus(inst: MarketInstance, x) -> float:
    """Area under the inverse demand curves at total production."""
    demand = inst.demand
    if not isinstance(demand, AffineElastic):
        raise ValueError("gross surplus is defined for elastic demand only")
    xbar = np.asarray(x, dtype=float).sum(axis=0)
    return float(np.sum(demand.alpha * xbar - 0.5 * demand.beta * xbar ** 2))


def welfare(inst: MarketInstance, x, y, u=None) -> float:
    """Gross surplus minus total cost under scenario u."""
    return gross_surplus(inst, x) - total_cost(inst, x, y, u)


@dataclass
class EquilibriumSolution:
    """Prices per period, capacities, production, and the solve objective
    (total cost for fixed demand, welfare for elastic demand)."""

    prices: np.ndarray
    capacities: np.ndarray
    production: np.ndarray
    objective: float


def _capacity_rows(N, T):
    """Rows x_{i,t} - y_i <= 0 over (x, y)."""
    return np.hstack([np.eye(N * T), 0.0 - np.repeat(np.eye(N), T, axis=0)])


def _clearing_rows(N, T):
    """Rows sum_i x_{i,t}, one per period, over x."""
    return np.tile(np.eye(T), N)


def _welfare_hessian(inst: MarketInstance, n_vars):
    """n_vars x n_vars Hessian of gross surplus: -beta_t on every pair of
    period-t productions, zero on y and on any trailing variables."""
    N = inst.N
    Q = np.zeros((n_vars, n_vars))
    Q[: N * inst.T, : N * inst.T] = np.kron(np.ones((N, N)), np.diag(-inst.demand.beta))
    return Q


def _welfare_gradient(inst: MarketInstance, costs):
    """Linear welfare coefficients alpha_t - c_{i,t} over x."""
    return (np.tile(inst.demand.alpha, (inst.N, 1)) - costs).reshape(-1)


def _fixed_program(inst: MarketInstance, costs, demand=None):
    """(A, rhs, kinds, cost) of the fixed-demand dispatch LP over (x, y):
    N*T capacity rows, then T clearing rows at `demand` (by default the
    fixed demand of inst)."""
    N, T = inst.N, inst.T
    A = np.vstack([_capacity_rows(N, T),
                   np.hstack([_clearing_rows(N, T), np.zeros((T, N))])])
    rhs = np.concatenate([np.zeros(N * T), inst.demand.d if demand is None else demand])
    c_inv = np.array([p.c_inv for p in inst.producers])
    return (A, rhs, ["<="] * (N * T) + ["="] * T,
            np.concatenate([costs.reshape(-1), c_inv]))


def _welfare_program(inst: MarketInstance, costs):
    """(A, rhs, kinds, cost) of the linear part of the welfare QP over (x, y):
    N*T capacity rows; the Hessian comes from _welfare_hessian."""
    N, T = inst.N, inst.T
    c_inv = np.array([p.c_inv for p in inst.producers])
    return (_capacity_rows(N, T), np.zeros(N * T), ["<="] * (N * T),
            np.concatenate([_welfare_gradient(inst, costs), -c_inv]))


def _solve(inst: MarketInstance, A, rhs, kinds, cost, what, start=None):
    """Solve a program over (x, y, ...) in the demand mode of inst: the
    cost-minimal LP for fixed demand, the welfare-maximal QP with the welfare
    Hessian for elastic demand, from the feasible `start` when one is given
    (solve_qp).  Non-optimal statuses raise, naming `what`."""
    if isinstance(inst.demand, Fixed):
        return _checked(solve_lp(LpSpec("min", cost, A, rhs, kinds)), what)
    return _checked(solve_qp(QpSpec("max", cost, A, rhs, kinds,
                                    quadratic_matrix=_welfare_hessian(inst, cost.size)),
                             start=start),
                    what)


def _plan(inst: MarketInstance, v, objective, duals=None) -> EquilibriumSolution:
    """The plan of a solved program over (x, y, ...) at its solution v, with
    the program's optimal value `objective`.  Prices are the duals of the T
    clearing rows, which follow the N*T capacity rows (_fixed_program), for
    fixed demand, and the demand curves at total production for elastic
    demand."""
    N, T = inst.N, inst.T
    x = v[: N * T].reshape(N, T)
    prices = (duals[N * T : N * T + T].copy() if isinstance(inst.demand, Fixed)
              else inst.demand.alpha - inst.demand.beta * x.sum(axis=0))
    return EquilibriumSolution(prices, v[N * T : N * T + N], x, float(objective))


class Dispatch(NamedTuple):
    """Outcome of _dispatch over S scenarios: production x (S x N x T), the
    value of each scenario including the cost of y (S), and its per-period
    part without it (S x T): production cost for fixed demand, gross surplus
    minus production cost for elastic demand.  For elastic demand also the
    demand-curve prices pi (S x T) and the multipliers of the pinned welfare
    problem, mu on capacity and phi on x >= 0 (S x N x T); None for fixed
    demand."""

    x: np.ndarray
    value: np.ndarray
    period_values: np.ndarray
    pi: Optional[np.ndarray]
    mu: Optional[np.ndarray]
    phi: Optional[np.ndarray]


def _dispatch(inst: MarketInstance, y, costs) -> Dispatch:
    """Best response of production at capacities pinned to y, in closed form
    for every (scenario, period) of an S x N x T stack of unit costs.

    Each period is a dispatch at one node.  Producers are sorted by cost and
    `before` is the capacity ahead of each in that order.  Fixed demand fills
    the capacities in merit order until d_t is met; elastic demand fills
    producer i up to the quantity max(alpha_t - c_i, 0) / beta_t at which the
    demand curve falls to its cost, so the price pi = alpha - beta * sum_i x
    is where the demand curve meets the stepped supply, and mu = max(pi - c,
    0), phi = max(c - pi, 0).

    Ties: at equal cost the lower producer index fills first (a stable
    sort).  Only x depends on this rule; values, prices and multipliers do
    not, since tied producers share one margin, and it is zero wherever the
    split between them can move.

    Raises Infeasible when some fixed demand d_t exceeds the total capacity by
    more than the LP solver's feasibility tolerance, FEAS_TOL scaled by
    1 + the largest demand or capacity (demand equal to it is met)."""
    costs = np.asarray(costs, dtype=float)
    y = np.asarray(y, dtype=float)
    c_inv = np.array([p.c_inv for p in inst.producers])
    order = np.argsort(costs, axis=1, kind="stable")
    y_sorted = y[order]
    before = np.cumsum(y_sorted, axis=1) - y_sorted
    fixed = isinstance(inst.demand, Fixed)
    if fixed:
        reach = inst.demand.d
        scale = 1.0 + max(np.max(np.abs(y), initial=0.0), np.max(reach, initial=0.0))
        if np.any(reach - y.sum() > FEAS_TOL * scale):
            raise Infeasible("dispatch at fixed capacities is infeasible: "
                             "demand exceeds the total capacity")
    else:
        alpha, beta = inst.demand.alpha, inst.demand.beta
        reach = np.maximum(alpha - np.take_along_axis(costs, order, axis=1), 0.0) / beta
    x = np.empty_like(costs)
    np.put_along_axis(x, order, np.clip(reach - before, 0.0, y_sorted), axis=1)
    spend = (costs * x).sum(axis=1)
    if fixed:
        return Dispatch(x, spend.sum(axis=1) + c_inv @ y, spend, None, None, None)
    xbar = x.sum(axis=1)
    periods = alpha * xbar - 0.5 * beta * xbar ** 2 - spend
    pi = alpha - beta * xbar
    margin = pi[:, None, :] - costs
    return Dispatch(x, periods.sum(axis=1) - c_inv @ y, periods, pi,
                    np.maximum(margin, 0.0), np.maximum(-margin, 0.0))


def _pinned_inputs(inst: MarketInstance, y_star, u):
    """The input check shared by the single-scenario pinned dispatch
    wrappers: y_star must hold one finite entry per producer, none below
    -SUPPORT_TOL, and u must be a finite N x T scenario (None: nominal
    costs).  Raises ValueError naming the argument; returns y_star clipped at
    zero and u as a stack of one scenario."""
    N, T = inst.N, inst.T
    y_star = np.asarray(y_star, dtype=float)
    if y_star.shape != (N,):
        raise ValueError(f"y_star must have one entry per producer ({N}), "
                         f"got shape {y_star.shape}")
    if not np.all(np.isfinite(y_star)):
        raise ValueError("y_star must be finite")
    if np.any(y_star < -SUPPORT_TOL):
        raise ValueError("y_star must be nonnegative")
    u = np.zeros((N, T)) if u is None else _period_matrix(inst, u, "scenario u")
    return np.maximum(y_star, 0.0), u[None]


def _period_matrix(inst: MarketInstance, value, name):
    """The input check of every public solve that takes an N x T matrix (a
    cost, a plan, a scenario): value as a float array, which must be a
    finite N x T matrix.  Raises ValueError naming the argument `name`."""
    N, T = inst.N, inst.T
    value = np.asarray(value, dtype=float)
    if value.shape != (N, T):
        raise ValueError(f"{name} must be an N x T matrix ({N} x {T}), "
                         f"got shape {value.shape}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def _screening(inst: MarketInstance, costs) -> EquilibriumSolution:
    """The fixed-demand planner at production costs constant over the
    periods (an N x T matrix of equal columns), by screening curves over the
    load-duration curve (Steiner, QJE 71, 1957; Boiteux, J. Business 33,
    1960), with no solver call.

    With the demands sorted in descending order, d_(1) >= ... >= d_(T) and
    d_(T+1) = 0, layer k has height d_(k) - d_(k+1) and is served in k
    periods, so it goes to the producer whose screening curve
    c_inv_i + k c_i is least, the lowest index on ties.  y_i is the sum of
    its layers and production is _dispatch at y, whose value is the plan's
    cost.  With g(k) = min_i (c_inv_i + k c_i) and g(0) = 0, the price of
    the k-th highest period is g(k) - g(k-1), an optimal clearing dual: g is
    concave, so sum_t (pi_t - c_i)^+ = max_K (g(K) - K c_i) <= c_inv_i, and
    sum_t d_t pi_t = sum_k (d_(k) - d_(k+1)) g(k) is the plan's cost.

    Tie rule: periods of equal demand have no unique clearing dual, so each
    group of them gets one price, the mean of its increments.  That is still
    an optimal dual: sum_t (pi_t - c_i)^+ is convex and symmetric in the
    group's prices, so averaging them cannot raise it, and sum_t d_t pi_t
    does not change."""
    T = inst.T
    c_inv = np.array([p.c_inv for p in inst.producers])
    order = np.argsort(-inst.demand.d, kind="stable")
    ranked = inst.demand.d[order]
    curves = c_inv[:, None] + costs[:, :1] * np.arange(1, T + 1)
    owner = np.argmin(curves, axis=0)
    y = np.bincount(owner, weights=ranked - np.append(ranked[1:], 0.0), minlength=inst.N)
    increments = np.diff(curves[owner, np.arange(T)], prepend=0.0)
    starts = np.flatnonzero(np.append(True, ranked[1:] != ranked[:-1]))
    sizes = np.diff(np.append(starts, T))
    prices = np.empty(T)
    prices[order] = np.repeat(np.add.reduceat(increments, starts) / sizes, sizes)
    out = _dispatch(inst, y, costs[None])
    return EquilibriumSolution(prices, y, out.x[0], float(out.value[0]))


def solve_fixed_dispatch(inst: MarketInstance, costs: np.ndarray) -> EquilibriumSolution:
    """Cost-minimal plan meeting fixed demand exactly at the given N x T
    production costs, with clearing prices.  Costs constant over the periods
    take the screening curves (_screening, with its tie rule at equal
    demands) and pose no solver call; other costs pose the LP, whose prices
    are the duals of its T clearing rows.  Costs that are not a finite
    N x T matrix raise ValueError."""
    costs = _period_matrix(inst, costs, "costs")
    if np.all(costs == costs[:, :1]):
        return _screening(inst, costs)
    out = _solve(inst, *_fixed_program(inst, costs), "fixed-demand planner program")
    return _plan(inst, out.primal, out.objective, out.duals)


def solve_nominal_fixed(inst: MarketInstance) -> EquilibriumSolution:
    """Planner optimum at nominal costs; prices are the clearing duals."""
    if not isinstance(inst.demand, Fixed):
        raise ValueError("solve_nominal_fixed requires fixed demand")
    return solve_fixed_dispatch(inst, cost_matrix(inst))


def _first_root(grid, f, strict):
    """The least k >= 0 with f(k) >= 0 (f(k) > 0 when strict) for f linear
    between the points of the ascending grid, which starts at 0, and
    constant past its last point, given as its values there; inf when there
    is none.  The root is exact on its segment."""
    ahead = f > 0.0 if strict else f >= 0.0
    i = int(np.argmax(ahead))
    if not ahead[i]:
        return np.inf
    if i == 0:
        return 0.0
    return grid[i - 1] - f[i - 1] * (grid[i] - grid[i - 1]) / (f[i] - f[i - 1])


def _elastic_screening(inst: MarketInstance, costs):
    """The welfare program at production costs constant over the periods
    (an N x T matrix of equal columns), by screening curves on a merit-order
    stack of capacity slices (Boiteux, J. Business 33, 1960; Crew &
    Kleindorfer, Bell J. Econ. 7, 1976), with no solver call.  Returns
    (solution, unique).

    Stack the capacity in merit order and give each slice at height k to
    one producer.  Slice k of producer j earns
    V_j(k) = sum_t (alpha_t - c_j - beta_t k)^+ - c_inv_j, and the welfare of
    a plan is the integral of its slices' earnings, so the optimum gives
    slice k to argmax_j V_j(k) while that value is positive.  For c_j <= c_l
    the difference V_l - V_j does not decrease in k, so each pair crosses
    once and the winners rise in c with k: one pass over the producers in
    merit order keeps a stack of winners with the heights they win from,
    and pops a winner that the new producer beats from its start on.  Every
    V_j is linear between the heights (alpha_t - c_j) / beta_t, so each
    crossing is an exact root on that grid.  Winner j's interval ends where
    the next one starts; the last ends where its V_j reaches 0.  y is the
    lengths of the intervals; production and value come from _dispatch at
    y, and _plan reads the prices off the demand curves.

    Tie rule: where producers tie on a slice, the lowest index wins it, the
    rule of _screening and _dispatch; twins (equal cost and c_inv) put all
    their capacity on the lower index.  `unique` is whether the plan is the
    one optimum: every c_inv > 0 (a zero c_inv leaves y free) and no other
    producer within UNIQUE_TOL, relative to 1 + the largest |V|, of a winner
    at both ends of a grid segment that the winner's interval overlaps,
    where the two would tie on an interval of positive length; a doubtful
    case counts as tied."""
    N = inst.N
    alpha, beta = inst.demand.alpha, inst.demand.beta
    c = costs[:, 0]
    c_inv = np.array([p.c_inv for p in inst.producers])
    margins = alpha - c[:, None]
    kinks = margins / beta
    grid = np.unique(np.append(kinks[kinks > 0.0], 0.0))
    # V_j on the grid: the periods whose kink lies above k pay
    # margin - beta k, so V_j(k) is a suffix sum over the sorted kinks.
    values = np.empty((N, grid.size))
    for j in range(N):
        order = np.argsort(kinks[j])
        above = np.searchsorted(kinks[j, order], grid, side="right")
        paid = np.append(np.cumsum(margins[j, order][::-1])[::-1], 0.0)
        slope = np.append(np.cumsum(beta[order][::-1])[::-1], 0.0)
        values[j] = paid[above] - slope[above] * grid - c_inv[j]

    stack = []  # (producer, height it wins from, height where its V reaches 0)
    for l in np.argsort(c, kind="stable"):
        zero = _first_root(grid, -values[l], strict=False)
        if zero <= 0.0:
            continue
        start = 0.0
        while stack:
            j, s, _ = stack[-1]
            start = _first_root(grid, values[l] - values[j], strict=l > j)
            if start > s:
                break
            stack.pop()
            start = 0.0
        if start < zero:
            stack.append((l, start, zero))

    y = np.zeros(N)
    ends = [s for _, s, _ in stack[1:]] + [z for _, _, z in stack[-1:]]
    tol = UNIQUE_TOL * (1.0 + np.max(np.abs(values)))
    unique = bool(np.all(c_inv > 0.0))
    for (j, start, _), end in zip(stack, ends):
        y[j] = end - start
        overlaps = (grid[:-1] < end) & (grid[1:] > start)
        close = np.abs(values - values[j]) <= tol
        close[j] = False
        unique = unique and not np.any(close[:, :-1] & close[:, 1:] & overlaps)
    out = _dispatch(inst, y, costs[None])
    return _plan(inst, np.append(out.x[0], y), out.value[0]), unique


def _welfare_plan(inst: MarketInstance, costs):
    """(solution, unique) of the welfare program at the N x T production
    costs: _elastic_screening where the costs are constant over the periods,
    the QP otherwise, with its SolveOutcome.unique_optimum.  unique is
    whether the plan is proven the one optimum."""
    if np.all(costs == costs[:, :1]):
        return _elastic_screening(inst, costs)
    out = _solve(inst, *_welfare_program(inst, costs), "elastic welfare program")
    return _plan(inst, out.primal, out.objective), out.unique_optimum


def solve_elastic_welfare(inst: MarketInstance, costs: np.ndarray) -> EquilibriumSolution:
    """Welfare-maximal plan under the affine demand curves at the given
    N x T production costs; prices are read off the demand curves.  Costs
    constant over the periods take the screening curves (_elastic_screening,
    with its lowest-index tie rule) and pose no solver call; other costs
    pose the QP.  Costs that are not a finite N x T matrix raise
    ValueError."""
    return _welfare_plan(inst, _period_matrix(inst, costs, "costs"))[0]


def solve_nominal_elastic(inst: MarketInstance) -> EquilibriumSolution:
    """Welfare optimum at nominal costs; prices read off the demand curve."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("solve_nominal_elastic requires elastic demand")
    return solve_elastic_welfare(inst, cost_matrix(inst))


def solve_expected(inst: MarketInstance, mean_u) -> EquilibriumSolution:
    """Nominal solve at the expected cost factors c_var + a * mean_u."""
    mean_u = np.asarray(mean_u, dtype=float)
    if mean_u.shape != (inst.N, inst.T):
        raise BadMean("mean scenario must be an N x T matrix")
    # Written so that NaN entries fail the test too.
    if not np.all((mean_u >= -1e-12) & (mean_u <= 1.0 + 1e-12)):
        raise BadMean("mean scenario must lie in the unit box")
    solve = solve_fixed_dispatch if isinstance(inst.demand, Fixed) else solve_elastic_welfare
    return solve(inst, cost_matrix(inst, mean_u))
