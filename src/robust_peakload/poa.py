"""Price-of-anarchy reports with bound certification, plus generators for
the tight fixed-demand families and the elastic family with unbounded ratio.

Ratio orientation: E/C for fixed demand (worst-case market cost over planner
cost), C/E for elastic demand (planner welfare over worst-case market
welfare).  Fixed-demand ratios certify against 1/tau(U'), or against the
tighter (1+rho)/(1+rho*tau) when every cost scale satisfies
a_i <= rho * c_var_i; elastic ratios carry no bound.
"""

from dataclasses import dataclass

import numpy as np

from robust_peakload.geometry import Polytope, simplex, tau
from robust_peakload.market import (
    AffineElastic,
    Fixed,
    MarketInstance,
    Producer,
    scaling_matrix,
)
from robust_peakload.robust import (
    solve_robust_cp_elastic,
    solve_robust_cp_fixed,
    solve_robust_market_elastic,
    solve_robust_market_fixed,
)

BOUND_TOL = 1e-7
ZERO_TOL = 1e-12


class ZeroCost(Exception):
    """Planner cost is zero, the fixed-demand ratio is undefined.

    Carries the market's worst-case cost as `E`."""

    def __init__(self, E):
        self.E = float(E)
        super().__init__(f"planner cost is zero (market worst case {self.E})")


class BadDelta(ValueError):
    """delta outside (0, 1)."""


class BadParams(ValueError):
    """Invalid (rho, delta) for the restricted tight family."""


class BadAlpha(ValueError):
    """Demand intercept alpha must be positive."""


@dataclass
class PoAReport:
    """Market worst case E next to planner optimum C with their ratio, the
    uncertainty parameter tau, and the certified bound (fixed demand only)."""

    E: float
    C: float
    ratio: float
    tau: float
    bound: float | None
    rho: float | None
    within_bound: bool | None
    demand_mode: str


def _detect_rho(inst: MarketInstance):
    """Smallest rho with a_{i,t} <= rho * c_var_i everywhere, or None when
    some uncertain producer has zero base cost (unrestricted instance)."""
    a = scaling_matrix(inst)
    c_var = np.array([p.c_var for p in inst.producers])
    uncertain = a > ZERO_TOL
    if not np.any(uncertain):
        return None
    if np.any(uncertain & (c_var[:, None] <= ZERO_TOL)):
        return None
    ratios = a[uncertain] / np.broadcast_to(c_var[:, None], a.shape)[uncertain]
    return float(np.max(ratios))


def poa_fixed(inst: MarketInstance) -> PoAReport:
    """Price of anarchy E_R / C_R for a fixed-demand market, certified
    against 1/tau or the restricted bound when one applies."""
    if not isinstance(inst.demand, Fixed):
        raise ValueError("poa_fixed requires fixed demand")
    _, E, _ = solve_robust_market_fixed(inst)
    _, C, _ = solve_robust_cp_fixed(inst)
    t, _ = tau(inst.uncertainty)
    if C <= ZERO_TOL:
        raise ZeroCost(E)
    ratio = E / C
    rho = _detect_rho(inst)
    bound = 1.0 / t if rho is None else (1.0 + rho) / (1.0 + rho * t)
    return PoAReport(E=float(E), C=float(C), ratio=float(ratio), tau=float(t),
                     bound=float(bound), rho=rho,
                     within_bound=bool(ratio <= bound + BOUND_TOL),
                     demand_mode="fixed")


def poa_elastic(inst: MarketInstance) -> PoAReport:
    """Welfare ratio C'_R / E'_R for an elastic market.  The ratio can be
    infinite (market produces nothing while the planner gains welfare) and
    carries no a-priori bound."""
    if not isinstance(inst.demand, AffineElastic):
        raise ValueError("poa_elastic requires elastic demand")
    _, E, _ = solve_robust_market_elastic(inst)
    _, C, _ = solve_robust_cp_elastic(inst)
    t, _ = tau(inst.uncertainty)
    if E > ZERO_TOL:
        ratio = C / E
    elif C > ZERO_TOL:
        ratio = np.inf
    else:
        ratio = np.nan
    return PoAReport(E=float(E), C=float(C), ratio=float(ratio), tau=float(t),
                     bound=None, rho=None, within_bound=None,
                     demand_mode="elastic")


def gen_tight_instance_fixed(U: Polytope, delta: float) -> MarketInstance:
    """Single-period unit-demand market with free capacity and fully
    uncertain costs, discounted by delta for producer 1.  The market herds
    onto producer 1 while the planner hedges, driving the ratio toward the
    1/tau bound as delta shrinks."""
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must lie in (0, 1), got {delta}")
    producers = [Producer(c_inv=0.0, c_var=0.0, a=1.0 - delta if i == 0 else 1.0)
                 for i in range(U.dimension)]
    return MarketInstance(producers=producers, demand=Fixed(np.array([1.0])),
                          T=1, uncertainty=U)


def gen_tight_instance_restricted(U: Polytope, rho: float, delta: float) -> MarketInstance:
    """Variant of the tight family with unit base costs and uncertainty
    scaled by rho, staying inside the restricted class a_i <= rho * c_var_i."""
    if not (np.isfinite(rho) and rho > 0.0):
        raise BadParams(f"rho must be positive and finite, got {rho}")
    if not 0.0 < delta < 1.0:
        raise BadParams(f"delta must lie in (0, 1), got {delta}")
    producers = [Producer(c_inv=0.0, c_var=1.0,
                          a=rho * (1.0 - delta) if i == 0 else rho)
                 for i in range(U.dimension)]
    return MarketInstance(producers=producers, demand=Fixed(np.array([1.0])),
                          T=1, uncertainty=U)


def gen_elastic_family(alpha: float, epsilon: float = 1e-6) -> MarketInstance:
    """Two-producer elastic family with inverse demand alpha - s, free
    capacity, and fully uncertain unit-scale costs over the 2-simplex
    (producer 2 pays an epsilon base cost to break ties).  The welfare ratio
    is unbounded on alpha in (1/2, 1]."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise BadAlpha(f"alpha must be positive and finite, got {alpha}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    producers = [Producer(c_inv=0.0, c_var=0.0, a=1.0),
                 Producer(c_inv=0.0, c_var=epsilon, a=1.0)]
    return MarketInstance(producers=producers,
                          demand=AffineElastic(np.array([alpha]), np.array([1.0])),
                          T=1, uncertainty=simplex(2))


def tight_fixed_values(delta: float) -> dict:
    """Closed forms for gen_tight_instance_fixed over the 2-simplex."""
    if not 0.0 < delta < 1.0:
        raise BadDelta(f"delta must lie in (0, 1), got {delta}")
    E = 1.0 - delta
    C = (1.0 - delta) / (2.0 - delta)
    return {"E": E, "C": C, "ratio": 2.0 - delta, "bound": 2.0}


def tight_restricted_values(rho: float, delta: float) -> dict:
    """Closed forms for gen_tight_instance_restricted over the 2-simplex."""
    if not (np.isfinite(rho) and rho > 0.0) or not 0.0 < delta < 1.0:
        raise BadParams(f"invalid (rho, delta) = ({rho}, {delta})")
    E = 1.0 + rho * (1.0 - delta)
    C = 1.0 + rho * (1.0 - delta) / (2.0 - delta)
    return {"E": E, "C": C, "ratio": E / C,
            "bound": (1.0 + rho) / (1.0 + 0.5 * rho)}


def elastic_family_values(alpha: float) -> dict:
    """Closed forms for gen_elastic_family (epsilon-free limits)."""
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise BadAlpha(f"alpha must be positive and finite, got {alpha}")
    E = 0.5 * (alpha - 1.0) ** 2 if alpha > 1.0 else 0.0
    C = 0.5 * (alpha - 0.5) ** 2 if alpha > 0.5 else 0.0
    if E > 0.0:
        ratio = C / E
    elif C > 0.0:
        ratio = np.inf
    else:
        ratio = np.nan
    return {"E": E, "C": C, "ratio": ratio}
