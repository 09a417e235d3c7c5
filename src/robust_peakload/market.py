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
_welfare_gradient) are the only code that lays rows out over x and y.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from robust_peakload.geometry import Polytope, ValidationReport, validate
from robust_peakload.solver import LpSpec, QpSpec, _checked, solve_lp, solve_qp

CLEARING_TOL = 1e-9
CAPACITY_TOL = 1e-9
EVAL_TOL = 1e-7


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
    """Per-unit production costs c_var + a * u as an N x T matrix."""
    base = np.array([p.c_var for p in inst.producers])[:, None]
    costs = np.tile(base, (1, inst.T)).astype(float)
    if u is not None:
        u = np.asarray(u, dtype=float)
        if u.shape != (inst.N, inst.T):
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
    return np.hstack([np.eye(N * T), 0.0 - np.kron(np.eye(N), np.ones((T, 1)))])


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


def _fixed_program(inst: MarketInstance, costs):
    """(A, rhs, kinds, cost) of the fixed-demand dispatch LP over (x, y):
    N*T capacity rows, then T clearing rows."""
    N, T = inst.N, inst.T
    A = np.vstack([_capacity_rows(N, T),
                   np.hstack([_clearing_rows(N, T), np.zeros((T, N))])])
    rhs = np.concatenate([np.zeros(N * T), inst.demand.d])
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


def solve_fixed_dispatch(inst: MarketInstance, costs: np.ndarray):
    """Cost-minimal plan meeting fixed demand exactly; returns the solution
    and the raw solver outcome (rows: N*T capacity rows, then T clearing rows)."""
    N, T = inst.N, inst.T
    A, rhs, kinds, cost = _fixed_program(inst, costs)
    out = _checked(solve_lp(LpSpec("min", cost, A, rhs, kinds)),
                   "fixed-demand planner program")
    x = out.primal[: N * T].reshape(N, T)
    y = out.primal[N * T:]
    prices = out.duals[N * T:].copy()
    solution = EquilibriumSolution(prices, y, x, float(out.objective))
    return solution, out


def solve_nominal_fixed(inst: MarketInstance) -> EquilibriumSolution:
    """Planner optimum at nominal costs; prices are the clearing duals."""
    if not isinstance(inst.demand, Fixed):
        raise ValueError("solve_nominal_fixed requires fixed demand")
    solution, _ = solve_fixed_dispatch(inst, cost_matrix(inst))
    return solution


def solve_elastic_welfare(inst: MarketInstance, costs: np.ndarray):
    """Welfare-maximal plan under the affine demand curves; returns the
    solution and the raw solver outcome (rows: N*T capacity rows)."""
    demand = inst.demand
    N, T = inst.N, inst.T
    A, rhs, kinds, cost = _welfare_program(inst, costs)
    out = _checked(solve_qp(QpSpec("max", cost, A, rhs, kinds,
                                   quadratic_matrix=_welfare_hessian(inst, cost.size))),
                   "elastic welfare program")
    x = out.primal[: N * T].reshape(N, T)
    y = out.primal[N * T:]
    prices = demand.alpha - demand.beta * x.sum(axis=0)
    solution = EquilibriumSolution(prices, y, x, float(out.objective))
    return solution, out


def solve_nominal_elastic(inst: MarketInstance) -> EquilibriumSolution:
    """Welfare optimum at nominal costs; prices read off the demand curve."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("solve_nominal_elastic requires elastic demand")
    solution, _ = solve_elastic_welfare(inst, cost_matrix(inst))
    return solution


def solve_expected(inst: MarketInstance, mean_u) -> EquilibriumSolution:
    """Nominal solve at the expected cost factors c_var + a * mean_u."""
    mean_u = np.asarray(mean_u, dtype=float)
    if mean_u.shape != (inst.N, inst.T):
        raise BadMean("mean scenario must be an N x T matrix")
    if np.any(mean_u < -1e-12) or np.any(mean_u > 1.0 + 1e-12):
        raise BadMean("mean scenario must lie in the unit box")
    costs = cost_matrix(inst, mean_u)
    if isinstance(inst.demand, Fixed):
        solution, _ = solve_fixed_dispatch(inst, costs)
    else:
        solution, _ = solve_elastic_welfare(inst, costs)
    return solution
