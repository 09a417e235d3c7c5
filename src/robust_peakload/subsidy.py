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
pinned capacities it separates by period, and the lifted set is the T-fold
product of the per-period set, so the outcome at a lifted vertex
(j_1, ..., j_T) takes period t from the outcome at the constant scenario
with every period at per-period vertex j_t.  The bundle therefore holds one
result per per-period vertex, and every max or min over the lifted
vertices is a sum over periods of a per-period max or min:

    eta_i = c_inv_i + sum_t max_v deficit_{v,i,t}.

The maximization over u is evaluated on the vertices only; a sampling
audit over scenarios mixing the per-period vertices period by period (one
more dispatch over all samples) flags any interior scenario whose value
exceeds the vertex maximum instead of silently correcting it.
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
    DEFAULT_SEED,
    _mixtures,
    _vertex_dispatch,
    solve_robust_cp_elastic,
)

PROFIT_TOL = 1e-6
DEFAULT_AUDIT_SAMPLES = 256


class NotEquilibrium(Exception):
    """A producer can improve on the subsidized plan.

    Carries the violating (producer, scenario, deviation) triple.  scenario
    names a lifted vertex by its per-period vertices: a length-T tuple whose
    entry t indexes the bundle's scenario_results, the result that period t
    is taken from.  deviation is the profitable capacity 2 max(y*) (None for
    a structure or zero-profit violation at y*)."""

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
    """Subsidies eta, the fixed-capacity results (one N x T result per
    vertex of the per-period set, at the scenario with every period at that
    vertex, in enumerate_vertices order), the pinned capacities, the
    equilibrium verification record, and the interior sampling audit."""

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
    return _result(inst, scenarios, _pinned_welfare(inst, y_star, scenarios), 0)


def _result(inst: MarketInstance, scenarios, out, k) -> FixedCapacityWelfareResult:
    """The result at scenario k of a stack `scenarios` and its dispatch out."""
    c_inv = np.array([p.c_inv for p in inst.producers])
    return FixedCapacityWelfareResult(u=scenarios[k].copy(), x=out.x[k], pi=out.pi[k],
                                      mu=out.mu[k], phi=out.phi[k],
                                      chi=out.mu[k].sum(axis=1) - c_inv,
                                      value=float(out.value[k]))


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
    None).  The results are read as the product of their periods: the
    lifted vertex (k_1, ..., k_T) takes period t from results[k_t], so every
    worst case over the lifted vertices is a sum over periods of a worst
    case over the results.  eta needs one finite entry per producer, and
    results at least one entry whose u and x are finite N x T matrices and
    whose pi lists T finite prices; otherwise ValueError naming the
    argument."""
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
    # strictly unprofitable ones.  Each (result, period) cell is checked;
    # the first violation is the one at the smallest result, then the
    # smallest producer, reported at the lifted vertex with every period
    # at that result.
    over = (margins > PROFIT_TOL) & (x < y_star[None, :, None] - PROFIT_TOL)
    under = (margins < -PROFIT_TOL) & (x > PROFIT_TOL)
    bad = np.argwhere(over | under)
    if bad.size:
        k, i = int(bad[0][0]), int(bad[0][1])
        violation = (i, (k,) * T, None,
                     f"producer {i} production is not a best response "
                     f"in scenario result {k}")

    # (b) worst-case best-response profit at y* is zero for active
    # producers.  A producer earns max(margin, 0) per unit of capacity in
    # each period, so its worst lifted vertex takes the per-period minimum.
    earned = np.maximum(margins, 0.0)
    worst_at = earned.argmin(axis=0)
    unit_profit = earned.min(axis=0).sum(axis=1) - (c_inv - eta)
    worst_profits = unit_profit * y_star
    active = y_star > SUPPORT_TOL
    zero_profit_ok = bool(np.all(np.abs(worst_profits[active]) <= PROFIT_TOL))
    if violation is None and not zero_profit_ok:
        i = int(np.flatnonzero(active & (np.abs(worst_profits) > PROFIT_TOL))[0])
        scenario = tuple(worst_at[i].tolist())
        violation = (i, scenario, None,
                     f"producer {i} worst-case profit {worst_profits[i]:.6g} "
                     f"is not zero (scenario {scenario})")

    # (c) no capacity in [0, 2 max(y*)] beats the zero profit.  At fixed
    # prices the worst-case best-response profit is linear in own capacity,
    # so its maximum over the interval is at an end point.
    top = 2.0 * float(y_star.max(initial=0.0))
    max_gain = top * np.maximum(unit_profit, 0.0)
    deviation_ok = bool(np.all(max_gain <= PROFIT_TOL))
    gainers = np.flatnonzero(max_gain > PROFIT_TOL)
    if violation is None and gainers.size:
        i = int(gainers[0])
        violation = (i, tuple(worst_at[i].tolist()), top,
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
    """Solve the robust planner problem, price the scenario with every
    period at one per-period vertex, for each vertex, and compute the
    subsidies that zero out worst-case profits over the lifted vertices.
    When y* is zero everywhere there is nothing to subsidize and the trivial
    bundle (eta = 0) is returned.  The bundle's verification record checks,
    besides zero worst-case profit at y*, that no own capacity in
    [0, 2 max(y*)] earns more; the interior audit draws `audit_samples`
    scenarios mixing the per-period vertices, period by period, from
    `seed`."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("subsidies are defined for elastic demand")
    if audit_samples < 0:
        raise ValueError(f"audit_samples must be nonnegative, got {audit_samples}")
    solution, _, _ = solve_robust_cp_elastic(inst)
    y_star = np.maximum(solution.capacities, 0.0)
    y_star[y_star <= SUPPORT_TOL] = 0.0
    c_inv = np.array([p.c_inv for p in inst.producers])

    constant, out = _vertex_dispatch(inst, y_star)
    results = [_result(inst, constant, out, v) for v in range(len(constant))]
    vertex_max = _period_deficits(inst, constant, out).max(axis=0).sum(axis=-1)

    active = y_star > SUPPORT_TOL
    eta = np.zeros(inst.N)
    eta[active] = c_inv[active] + vertex_max[active]

    audit = _interior_audit(inst, y_star, vertex_max, audit_samples, seed, constant)
    verification, _ = _verification(inst, eta, y_star, results)
    return SubsidyBundle(eta=eta, scenario_results=results, y_star=y_star,
                         verification=verification, audit=audit)


def _interior_audit(inst, y_star, vertex_max, samples, seed, constant):
    """Evaluate the subsidy formula's inner expression at random scenarios
    mixing the per-period vertices (_mixtures of the |V| x N x T stack
    `constant`) and report any excess over the vertex maximum (> 1e-6
    raises a warning, never a silent correction)."""
    audit = {"samples": int(samples), "seed": int(seed),
             "max_excess": 0.0, "flagged": False}
    if samples <= 0 or len(constant) <= 1:
        return audit
    scenarios = _mixtures(constant, samples, seed)
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
    """Price table of the scenario-indexed prices: each per-period vertex,
    as a tuple of N floats, -> its T prices.  pi_t depends on the period-t
    scenario only, so entry t is pi_t at every scenario whose period t sits
    at that vertex; a lifted vertex (v_1, ..., v_T) has prices
    (table[v_1][0], ..., table[v_T][T-1]).  Prices at a non-vertex scenario
    come from re-running solve_fixed_capacity_welfare at that scenario."""
    table = {}
    for res in bundle.scenario_results:
        for t, vertex in enumerate(res.u.T):
            key = tuple(vertex.tolist())
            table.setdefault(key, np.full(res.pi.size, np.nan))[t] = res.pi[t]
    return table
