"""Investment subsidies and scenario-indexed prices that make the robust
planner solution an equilibrium of the adjustable market (elastic demand).

The construction pins capacities at the planner optimum y*, solves the
fixed-capacity welfare problem at every vertex u of the lifted uncertainty
set, and prices each scenario off the demand curve: pi_t(u) = alpha_t -
beta_t * xbar_t(u).  The subsidy per capacity unit is

    eta_i = c_inv_i + max_u sum over {t : x_{i,t}(u) > 0} (c_{i,t}(u) - pi_t(u))

for producers with y*_i > 0 (zero otherwise), which lifts every producer's
worst-case best-response profit to exactly zero, so holding y*_i is optimal.

The maximization over u is evaluated on the lifted vertices only; a sampling
audit over random convex combinations flags any interior scenario whose
value exceeds the vertex maximum instead of silently correcting it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from robust_peakload.market import (
    AffineElastic,
    MarketInstance,
    _capacity_rows,
    _welfare_gradient,
    _welfare_hessian,
    cost_matrix,
)
from robust_peakload.robust import (
    lifted_set,
    lifted_vertices,
    scenario_to_vector,
    solve_robust_cp_elastic,
    vector_to_scenario,
)
from robust_peakload.solver import QpSpec, _checked, solve_qp

KKT_TOL = 1e-7
PROFIT_TOL = 1e-6
SUPPORT_TOL = 1e-9
DEFAULT_GRID = 101
DEFAULT_AUDIT_SAMPLES = 256
DEFAULT_SEED = 2024


class NotEquilibrium(Exception):
    """A producer can improve on the subsidized plan.

    Carries the violating (producer, scenario, deviation) triple; scenario
    indexes the bundle's vertex list and deviation is the capacity tried
    (None for a structure or zero-profit violation at y*)."""

    def __init__(self, producer, scenario, deviation, message):
        self.producer = producer
        self.scenario = scenario
        self.deviation = deviation
        super().__init__(message)


@dataclass
class FixedCapacityWelfareResult:
    """Welfare optimum with capacities pinned: scenario, production, demand
    curve prices, and the multipliers of the pinned problem (mu on capacity,
    phi on nonnegativity, chi on the capacity pin)."""

    u: np.ndarray
    x: np.ndarray
    pi: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    value: float


@dataclass
class SubsidyBundle:
    """Subsidies eta, one fixed-capacity solve per lifted vertex, the pinned
    capacities, the equilibrium verification record, and the interior
    sampling audit."""

    eta: np.ndarray
    scenario_results: list
    y_star: np.ndarray
    verification: dict
    audit: dict


def solve_fixed_capacity_welfare(inst: MarketInstance, y_star,
                                 u) -> FixedCapacityWelfareResult:
    """Welfare-maximal production at scenario u with capacities pinned at
    y_star; multipliers come from the solver and prices off the demand
    curve.  The reported value includes the investment cost of y_star."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("fixed-capacity welfare requires elastic demand")
    N, T = inst.N, inst.T
    y_star = np.asarray(y_star, dtype=float)
    if y_star.shape != (N,):
        raise ValueError("y_star must have one entry per producer")
    if np.any(y_star < -SUPPORT_TOL):
        raise ValueError("y_star must be nonnegative")
    y_star = np.maximum(y_star, 0.0)
    u = np.asarray(u, dtype=float)
    if u.shape != (N, T):
        raise ValueError("scenario must be an N x T matrix")
    if not lifted_set(inst).contains(scenario_to_vector(u), tol=1e-7):
        raise ValueError("scenario lies outside the lifted uncertainty set")

    demand = inst.demand
    costs = cost_matrix(inst, u)
    # Capacity rows x_{i,t} <= y*_i: the x block of the capacity rows, with
    # the pinned capacities moved to the right-hand side.
    A = _capacity_rows(N, T)[:, : N * T]
    out = _checked(solve_qp(QpSpec("max", _welfare_gradient(inst, costs), A,
                                   np.repeat(y_star, T), ["<="] * (N * T),
                                   quadratic_matrix=_welfare_hessian(inst, N * T))),
                   "fixed-capacity welfare program")

    x = out.primal.reshape(N, T)
    mu = out.duals.reshape(N, T)
    phi = -out.reduced_costs.reshape(N, T)
    pi = demand.alpha - demand.beta * x.sum(axis=0)
    c_inv = np.array([p.c_inv for p in inst.producers])
    chi = mu.sum(axis=1) - c_inv
    value = float(out.objective) - float(c_inv @ y_star)
    return FixedCapacityWelfareResult(u=u.copy(), x=x, pi=pi, mu=mu, phi=phi,
                                      chi=chi, value=value)


def kkt_residuals(inst: MarketInstance, y_star, result: FixedCapacityWelfareResult) -> dict:
    """The eight optimality residuals of the pinned welfare problem, each
    reported independently (all must be <= 1e-7 at a valid result)."""
    y_star = np.asarray(y_star, dtype=float)
    costs = cost_matrix(inst, result.u)
    c_inv = np.array([p.c_inv for p in inst.producers])
    margins = result.pi[None, :] - costs
    cap_slack = y_star[:, None] - result.x
    return {
        "stationarity_production": float(np.max(np.abs(
            margins - result.mu + result.phi))),
        "stationarity_capacity": float(np.max(np.abs(
            result.mu.sum(axis=1) - c_inv - result.chi))),
        "feasibility_nonneg": float(max(0.0, -float(result.x.min(initial=0.0)))),
        "feasibility_capacity": float(max(0.0, float((-cap_slack).max(initial=0.0)))),
        "dual_nonneg_mu": float(max(0.0, -float(result.mu.min(initial=0.0)))),
        "dual_nonneg_phi": float(max(0.0, -float(result.phi.min(initial=0.0)))),
        "complementarity_capacity": float(np.max(np.abs(result.mu * cap_slack))),
        "complementarity_nonneg": float(np.max(np.abs(result.phi * result.x))),
    }


def _margin_deficits(inst: MarketInstance, result: FixedCapacityWelfareResult) -> np.ndarray:
    """Per-producer inner expression of the subsidy formula at one scenario:
    the margin deficit summed over the periods where the producer runs."""
    costs = cost_matrix(inst, result.u)
    running = result.x > SUPPORT_TOL
    deficit = np.where(running, costs - result.pi[None, :], 0.0)
    return deficit.sum(axis=1)


def _verification(inst: MarketInstance, eta, y_star, results, grid):
    """Best-response structure, zero worst-case profit, and grid deviation
    checks; returns the record and the first violation triple (or None)."""
    N, T = inst.N, inst.T
    c_inv = np.array([p.c_inv for p in inst.producers])
    eta = np.asarray(eta, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    V = len(results)
    violation = None

    margins = np.empty((V, N, T))
    for k, res in enumerate(results):
        margins[k] = res.pi[None, :] - cost_matrix(inst, res.u)

    # (a) recorded production is a best response to the scenario prices:
    # produce at capacity on strictly profitable periods, nothing on
    # strictly unprofitable ones.
    for k, res in enumerate(results):
        over = (margins[k] > PROFIT_TOL) & (res.x < y_star[:, None] - PROFIT_TOL)
        under = (margins[k] < -PROFIT_TOL) & (res.x > PROFIT_TOL)
        bad = over | under
        if violation is None and np.any(bad):
            i = int(np.argwhere(bad)[0][0])
            violation = (i, k, None,
                         f"producer {i} production is not a best response "
                         f"in scenario {k}")

    # (b) worst-case best-response profit at y* is zero for active producers.
    unit_gain = np.maximum(margins, 0.0).sum(axis=2)
    profits = (unit_gain - (c_inv - eta)[None, :]) * y_star[None, :]
    worst_profits = profits.min(axis=0) if V else np.zeros(N)
    active = y_star > SUPPORT_TOL
    zero_profit_ok = bool(np.all(np.abs(worst_profits[active]) <= PROFIT_TOL))
    if violation is None and not zero_profit_ok:
        i = int(np.flatnonzero(active & (np.abs(worst_profits) > PROFIT_TOL))[0])
        k = int(np.argmin(profits[:, i]))
        violation = (i, k, None,
                     f"producer {i} worst-case profit {worst_profits[i]:.6g} "
                     f"is not zero (scenario {k})")

    # (c) no capacity deviation on the grid beats the zero profit; the
    # best-response profit is linear in own capacity at fixed prices.
    unit_profit = unit_gain - (c_inv - eta)[None, :]
    worst_unit = unit_profit.min(axis=0) if V else np.zeros(N)
    top = 2.0 * float(y_star.max(initial=0.0))
    points = np.linspace(0.0, top, grid)
    max_gain = np.zeros(N)
    for i in range(N):
        tried = np.append(points, y_star[i])
        dev_profit = tried * worst_unit[i]
        max_gain[i] = float(dev_profit.max(initial=0.0))
        if violation is None and max_gain[i] > PROFIT_TOL:
            j = int(np.argmax(dev_profit))
            k = int(np.argmin(unit_profit[:, i]))
            violation = (i, k, float(tried[j]),
                         f"producer {i} gains {max_gain[i]:.6g} deviating to "
                         f"capacity {tried[j]:.6g}")
    deviation_ok = bool(np.all(max_gain <= PROFIT_TOL))

    record = {
        "worst_case_profits": worst_profits,
        "max_deviation_gain": max_gain,
        "is_equilibrium": bool(violation is None and zero_profit_ok
                               and deviation_ok),
        "grid": int(grid),
    }
    return record, violation


def compute_subsidies(inst: MarketInstance, grid: int = DEFAULT_GRID,
                      audit_samples: int = DEFAULT_AUDIT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> SubsidyBundle:
    """Solve the robust planner problem, price every lifted vertex scenario,
    and compute the subsidies that zero out worst-case profits.  When y* is
    zero everywhere there is nothing to subsidize and the trivial bundle
    (eta = 0) is returned."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("subsidies are defined for elastic demand")
    solution, _, _ = solve_robust_cp_elastic(inst)
    y_star = np.maximum(solution.capacities, 0.0)
    y_star[y_star <= SUPPORT_TOL] = 0.0
    c_inv = np.array([p.c_inv for p in inst.producers])

    vertices = lifted_vertices(inst)
    results = [solve_fixed_capacity_welfare(inst, y_star, u) for u in vertices]
    deficits = np.stack([_margin_deficits(inst, res) for res in results])

    active = y_star > SUPPORT_TOL
    eta = np.zeros(inst.N)
    if np.any(active):
        eta[active] = c_inv[active] + deficits.max(axis=0)[active]

    audit = _interior_audit(inst, y_star, deficits.max(axis=0), audit_samples,
                            seed, vertices)
    verification, _ = _verification(inst, eta, y_star, results, grid)
    return SubsidyBundle(eta=eta, scenario_results=results, y_star=y_star,
                         verification=verification, audit=audit)


def _interior_audit(inst, y_star, vertex_max, samples, seed, vertices):
    """Evaluate the subsidy formula's inner expression at random convex
    combinations of the vertices and report any excess over the vertex
    maximum (> 1e-6 raises a warning, never a silent correction)."""
    audit = {"samples": int(samples), "seed": int(seed),
             "max_excess": 0.0, "flagged": False}
    if samples <= 0 or len(vertices) <= 1:
        return audit
    rng = np.random.default_rng(seed)
    stacked = np.stack([scenario_to_vector(u) for u in vertices])
    excess = 0.0
    for _ in range(samples):
        w = rng.dirichlet(np.ones(len(vertices)))
        u = vector_to_scenario(w @ stacked, inst.N, inst.T)
        res = solve_fixed_capacity_welfare(inst, y_star, u)
        excess = max(excess, float(np.max(_margin_deficits(inst, res) - vertex_max)))
    audit["max_excess"] = excess
    if excess > PROFIT_TOL:
        audit["flagged"] = True
        warnings.warn("an interior scenario exceeds the vertex maximum of the "
                      f"subsidy formula by {excess:.3g}; subsidies may be too low",
                      stacklevel=3)
    return audit


def verify_subsidized_equilibrium(inst: MarketInstance, bundle: SubsidyBundle,
                                  grid: int = DEFAULT_GRID) -> dict:
    """Re-run the three equilibrium checks for a bundle; raises
    NotEquilibrium with the violating (producer, scenario, deviation)."""
    record, violation = _verification(inst, bundle.eta, bundle.y_star,
                                      bundle.scenario_results, grid)
    if violation is not None:
        producer, scenario, deviation, message = violation
        raise NotEquilibrium(producer, scenario, deviation, message)
    return record


def build_price_functions(bundle: SubsidyBundle) -> dict:
    """Scenario-indexed price table: lifted vertex (as a tuple) -> prices.
    Prices at a non-vertex scenario come from re-running
    solve_fixed_capacity_welfare at that scenario."""
    table = {}
    for res in bundle.scenario_results:
        key = tuple(float(v) for v in scenario_to_vector(res.u))
        table[key] = res.pi.copy()
    return table
