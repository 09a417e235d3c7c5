"""Investment subsidies and scenario-indexed prices that make the robust
planner solution an equilibrium of the adjustable market (elastic demand).

The construction pins capacities at the planner optimum y*, takes the
fixed-capacity welfare optimum at every vertex u of the lifted uncertainty
set, and prices each scenario off the demand curve: pi_t(u) = alpha_t -
beta_t * xbar_t(u).  The subsidy per capacity unit is

    eta_i = c_inv_i + max_u sum over {t : x_{i,t}(u) > 0} (c_{i,t}(u) - pi_t(u))

for producers with y*_i > 0 (zero otherwise), which lifts every producer's
worst-case best-response profit to exactly zero, so holding y*_i is optimal.

The pinned welfare problem is solved in closed form, with no solver call
per scenario (see market._dispatch); the only solve is the planner's.  At
pinned capacities it separates by period, so the |V|^T lifted-vertex results
are composed from one dispatch over the |V| vertices of the per-period set.
The maximization over u is evaluated on the lifted vertices only; a sampling
audit over random convex combinations (one more dispatch over all samples)
flags any interior scenario whose value exceeds the vertex maximum instead
of silently correcting it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from robust_peakload.market import (
    SUPPORT_TOL,
    AffineElastic,
    MarketInstance,
    _dispatch,
    _pinned_inputs,
    cost_matrix,
)
from robust_peakload.robust import (
    _compose,
    _mixtures,
    _vertex_dispatch,
    solve_robust_cp_elastic,
)

KKT_TOL = 1e-7
PROFIT_TOL = 1e-6
DEFAULT_AUDIT_SAMPLES = 256
DEFAULT_SEED = 2024


class NotEquilibrium(Exception):
    """A producer can improve on the subsidized plan.

    Carries the violating (producer, scenario, deviation) triple; scenario
    indexes the bundle's vertex list and deviation is the profitable
    capacity 2 max(y*) (None for a structure or zero-profit violation at
    y*)."""

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
    """Subsidies eta, one fixed-capacity result per lifted vertex, the pinned
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
    y_star, in closed form (see market._dispatch; no solver call), with
    prices off the demand curve and the multipliers that go with them.  The
    reported value includes the investment cost of y_star.  y_star needs one
    finite, nonnegative entry per producer and u must be a finite N x T
    scenario inside the lifted uncertainty set; otherwise ValueError."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("fixed-capacity welfare requires elastic demand")
    y_star, scenarios = _pinned_inputs(inst, y_star, u)
    out = _pinned_welfare(inst, y_star, scenarios)
    c_inv = np.array([p.c_inv for p in inst.producers])
    return FixedCapacityWelfareResult(u=scenarios[0].copy(), x=out.x[0], pi=out.pi[0],
                                      mu=out.mu[0], phi=out.phi[0],
                                      chi=out.mu[0].sum(axis=1) - c_inv,
                                      value=float(out.value[0]))


def _pinned_welfare(inst: MarketInstance, y_star, scenarios):
    """Dispatch at y_star over an S x N x T stack of scenarios, each of
    whose periods must lie in the per-period uncertainty set."""
    periods = scenarios.transpose(0, 2, 1).reshape(-1, inst.N)
    if not inst.uncertainty.contains(periods, tol=1e-7):
        raise ValueError("scenario lies outside the lifted uncertainty set")
    return _dispatch(inst, y_star, cost_matrix(inst, scenarios))


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


def _period_deficits(inst: MarketInstance, scenarios, out) -> np.ndarray:
    """Per-period terms of the subsidy formula's inner expression over a
    stack of S scenarios and their dispatch `out`: the margin deficit
    c_{i,t}(u) - pi_t(u) where producer i runs, zero elsewhere (S x N x T).
    Summed over the periods, it is the inner expression per producer."""
    return np.where(out.x > SUPPORT_TOL,
                    cost_matrix(inst, scenarios) - out.pi[:, None, :], 0.0)


def _result_stacks(results, N, T):
    """The u, x and pi of a list of pinned results, stacked as V x N x T,
    V x N x T and V x T arrays.  Raises ValueError naming
    scenario_results[k] and the field when the list is empty or an entry is
    misshapen or not finite."""
    if len(results) == 0:
        raise ValueError("scenario_results must hold at least one result")
    stacks = []
    for name, shape in (("u", (N, T)), ("x", (N, T)), ("pi", (T,))):
        values = [np.asarray(getattr(res, name), dtype=float) for res in results]
        for k, value in enumerate(values):
            if value.shape != shape:
                raise ValueError(f"scenario_results[{k}].{name} must have shape "
                                 f"{shape}, got {value.shape}")
        stack = np.array(values)
        finite = np.isfinite(stack).reshape(len(values), -1).all(axis=1)
        if not finite.all():
            raise ValueError(f"scenario_results[{int(np.argmin(finite))}].{name} "
                             "must be finite")
        stacks.append(stack)
    return stacks


def _verification(inst: MarketInstance, eta, y_star, results):
    """Best-response structure, zero worst-case profit, and capacity
    deviation checks; returns the record and the first violation triple (or
    None).  eta needs one finite entry per producer, and results at least
    one entry whose u and x are finite N x T matrices and whose pi lists T
    finite prices; otherwise ValueError naming the argument."""
    N, T = inst.N, inst.T
    c_inv = np.array([p.c_inv for p in inst.producers])
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (N,):
        raise ValueError(f"eta must list {N} values, got shape {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError(f"eta must be finite, got {eta.tolist()}")
    u, x, pi = _result_stacks(results, N, T)
    y_star = np.asarray(y_star, dtype=float)
    violation = None
    margins = pi[:, None, :] - cost_matrix(inst, u)

    # (a) recorded production is a best response to the scenario prices:
    # produce at capacity on strictly profitable periods, nothing on
    # strictly unprofitable ones.  The first violation is the one at the
    # smallest scenario, then the smallest producer.
    over = (margins > PROFIT_TOL) & (x < y_star[None, :, None] - PROFIT_TOL)
    under = (margins < -PROFIT_TOL) & (x > PROFIT_TOL)
    bad = np.argwhere(over | under)
    if bad.size:
        k, i = int(bad[0][0]), int(bad[0][1])
        violation = (i, k, None,
                     f"producer {i} production is not a best response "
                     f"in scenario {k}")

    # (b) worst-case best-response profit at y* is zero for active producers.
    unit_profit = np.maximum(margins, 0.0).sum(axis=2) - (c_inv - eta)[None, :]
    profits = unit_profit * y_star[None, :]
    worst_profits = profits.min(axis=0)
    active = y_star > SUPPORT_TOL
    zero_profit_ok = bool(np.all(np.abs(worst_profits[active]) <= PROFIT_TOL))
    if violation is None and not zero_profit_ok:
        i = int(np.flatnonzero(active & (np.abs(worst_profits) > PROFIT_TOL))[0])
        k = int(np.argmin(profits[:, i]))
        violation = (i, k, None,
                     f"producer {i} worst-case profit {worst_profits[i]:.6g} "
                     f"is not zero (scenario {k})")

    # (c) no capacity in [0, 2 max(y*)] beats the zero profit.  At fixed
    # prices the worst-case best-response profit is linear in own capacity,
    # so its maximum over the interval is at an end point.
    worst_unit = unit_profit.min(axis=0)
    top = 2.0 * float(y_star.max(initial=0.0))
    max_gain = top * np.maximum(worst_unit, 0.0)
    deviation_ok = bool(np.all(max_gain <= PROFIT_TOL))
    gainers = np.flatnonzero(max_gain > PROFIT_TOL)
    if violation is None and gainers.size:
        i = int(gainers[0])
        k = int(np.argmin(unit_profit[:, i]))
        violation = (i, k, top,
                     f"producer {i} gains {max_gain[i]:.6g} deviating to "
                     f"capacity {top:.6g}")

    record = {
        "worst_case_profits": worst_profits,
        "max_deviation_gain": max_gain,
        "is_equilibrium": bool(violation is None and zero_profit_ok
                               and deviation_ok),
    }
    return record, violation


def compute_subsidies(inst: MarketInstance, *,
                      audit_samples: int = DEFAULT_AUDIT_SAMPLES,
                      seed: int = DEFAULT_SEED) -> SubsidyBundle:
    """Solve the robust planner problem, price every lifted vertex scenario,
    and compute the subsidies that zero out worst-case profits.  When y* is
    zero everywhere there is nothing to subsidize and the trivial bundle
    (eta = 0) is returned.  The bundle's verification record checks, besides
    zero worst-case profit at y*, that no own capacity in [0, 2 max(y*)]
    earns more; the interior audit draws `audit_samples` mixtures of the
    lifted vertices from `seed`."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("subsidies are defined for elastic demand")
    if audit_samples < 0:
        raise ValueError(f"audit_samples must be nonnegative, got {audit_samples}")
    solution, _, _ = solve_robust_cp_elastic(inst)
    y_star = np.maximum(solution.capacities, 0.0)
    y_star[y_star <= SUPPORT_TOL] = 0.0
    c_inv = np.array([p.c_inv for p in inst.producers])

    constant, out = _vertex_dispatch(inst, y_star)
    scenarios = _compose(constant)
    results = _lifted_results(inst, y_star, scenarios, out)
    deficits = _compose(_period_deficits(inst, constant, out)).sum(axis=-1)

    active = y_star > SUPPORT_TOL
    eta = np.zeros(inst.N)
    if np.any(active):
        eta[active] = c_inv[active] + deficits.max(axis=0)[active]

    audit = _interior_audit(inst, y_star, deficits.max(axis=0), audit_samples,
                            seed, scenarios)
    verification, _ = _verification(inst, eta, y_star, results)
    return SubsidyBundle(eta=eta, scenario_results=results, y_star=y_star,
                         verification=verification, audit=audit)


def _lifted_results(inst, y_star, scenarios, out):
    """The pinned welfare result at every lifted vertex (the stack
    `scenarios`, in lifted_vertices order), composed from the dispatch `out`
    over the per-period vertices: lifted vertex (j_1, ..., j_T) takes period
    t of x, mu, phi and pi from the dispatch at per-period vertex j_t, and
    its value is sum_t out.period_values[j_t, t] minus the investment cost
    of y_star."""
    c_inv = np.array([p.c_inv for p in inst.producers])
    x, mu, phi, pi = (_compose(block) for block in (out.x, out.mu, out.phi, out.pi))
    chi = mu.sum(axis=2) - c_inv
    values = _compose(out.period_values).sum(axis=1) - c_inv @ y_star
    return [FixedCapacityWelfareResult(u=scenarios[k], x=x[k], pi=pi[k], mu=mu[k],
                                       phi=phi[k], chi=chi[k], value=float(values[k]))
            for k in range(len(scenarios))]


def _interior_audit(inst, y_star, vertex_max, samples, seed, vertices):
    """Evaluate the subsidy formula's inner expression at random convex
    combinations of the stack of lifted vertices and report any excess over
    the vertex maximum (> 1e-6 raises a warning, never a silent
    correction)."""
    audit = {"samples": int(samples), "seed": int(seed),
             "max_excess": 0.0, "flagged": False}
    if samples <= 0 or len(vertices) <= 1:
        return audit
    scenarios = _mixtures(vertices, samples, seed)
    out = _pinned_welfare(inst, y_star, scenarios)
    deficits = _period_deficits(inst, scenarios, out).sum(axis=2)
    excess = max(0.0, float(np.max(deficits - vertex_max)))
    audit["max_excess"] = excess
    if excess > PROFIT_TOL:
        audit["flagged"] = True
        warnings.warn("an interior scenario exceeds the vertex maximum of the "
                      f"subsidy formula by {excess:.3g}; subsidies may be too low",
                      stacklevel=3)
    return audit


def verify_subsidized_equilibrium(inst: MarketInstance,
                                  bundle: SubsidyBundle) -> dict:
    """Re-run the three equilibrium checks for a bundle; raises
    NotEquilibrium with the violating (producer, scenario, deviation)."""
    record, violation = _verification(inst, bundle.eta, bundle.y_star,
                                      bundle.scenario_results)
    if violation is not None:
        producer, scenario, deviation, message = violation
        raise NotEquilibrium(producer, scenario, deviation, message)
    return record


def build_price_functions(bundle: SubsidyBundle) -> dict:
    """Scenario-indexed price table: lifted vertex u, as the tuple of
    u.reshape(-1) (the order of --mean-u), -> prices.
    Prices at a non-vertex scenario come from re-running
    solve_fixed_capacity_welfare at that scenario."""
    table = {}
    for res in bundle.scenario_results:
        key = tuple(res.u.reshape(-1).tolist())
        table[key] = res.pi.copy()
    return table
