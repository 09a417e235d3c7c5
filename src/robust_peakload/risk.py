"""Uncertainty sets built from risk-measure data.

Two constructions, both returning a rescaled set plus the scale vector that
re-enters the market as the cost scalings a_i (so rescaling is cost-neutral):

* marginal value-at-risk boxes [0, VaR_i], rescaled to the unit box with
  scale VaR_i, and
* coherent scenario hulls: given past realizations u_hat^j (the first one
  zero) and a family Q of probability distributions over them, coordinate i
  spans [0, m_i] with m_i = max over q in Q of the q-expectation of
  u_hat_i, the largest entry i of the expectation image of Q's vertices
  (a linear function is largest at a vertex, so no LP is posed); the joint
  set is the convex hull of that image together with the origin, rescaled
  by 1/m_i per coordinate and converted to inequalities by
  geometry.hull_to_inequalities, the same double description as vertex
  enumeration; repeated image points are redundant generators and need no
  dedup.

A coordinate with m_i = 0 carries no risk; it keeps its place with a free
[0, 1] factor and scale 0 (costs unaffected) and raises a
DegenerateScenario warning rather than changing the market's size.

`_risk_market` installs a set and its scale in a fixed-demand market.  The
instance-file loader calls it for a file's `risk` section, so every command
acts on the same market, and `poa_with_risk_set` certifies it.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from robust_peakload.geometry import (
    Polytope,
    box,
    enumerate_vertices,
    hull_to_inequalities,
)
from robust_peakload.market import Fixed, MarketInstance
from robust_peakload.poa import PoAReport, poa_fixed

DEGENERATE_TOL = 1e-12


class BadVar(ValueError):
    """Invalid value-at-risk data."""


class DegenerateScenario(UserWarning):
    """A coordinate carries no risk under any admissible distribution."""


@dataclass
class VarSpec:
    """Marginal value-at-risk data: confidence complement alpha and one
    positive VaR figure per producer."""

    alpha: float
    marginal_var: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        if not 0.0 < self.alpha < 1.0:
            raise BadVar(f"alpha must lie in (0, 1), got {self.alpha}")
        self.marginal_var = np.asarray(self.marginal_var, dtype=float).reshape(-1)
        if self.marginal_var.size < 1:
            raise BadVar("marginal_var must have at least one entry")
        if not np.all(np.isfinite(self.marginal_var)):
            raise BadVar("marginal_var entries must be finite")
        if np.any(self.marginal_var <= 0.0):
            raise BadVar("marginal_var entries must be positive")


@dataclass
class CoherentSpec:
    """Scenario data for a coherent risk measure: K past realizations
    (rows of `scenarios`, the first identically zero) and a polytope Q over
    the K scenario weights, restricted to the probability simplex on use."""

    scenarios: np.ndarray
    Q: Polytope

    def __post_init__(self):
        self.scenarios = np.asarray(self.scenarios, dtype=float)
        if self.scenarios.ndim != 2:
            raise ValueError("scenarios must be a K x N matrix")
        if self.scenarios.shape[0] < 1:
            raise ValueError("at least one scenario is required")
        if np.any(self.scenarios < 0.0):
            raise ValueError("scenario realizations must be nonnegative")
        if np.any(np.abs(self.scenarios[0]) > DEGENERATE_TOL):
            raise ValueError("the first scenario must be identically zero")
        if self.Q.dimension != self.scenarios.shape[0]:
            raise ValueError("Q must range over one weight per scenario")


def build_mvar_set(spec: VarSpec):
    """Unit box plus the VaR scale vector; installing a_i = VaR_i makes the
    rescaling cost-neutral."""
    return box(spec.marginal_var.size), spec.marginal_var.copy()


def _simplex_restricted(Q: Polytope) -> Polytope:
    """Q intersected with the probability simplex over its coordinates."""
    ones = np.ones(Q.dimension)
    P = np.vstack([Q.P, ones[None, :], -ones[None, :]])
    r = np.concatenate([Q.r, [1.0], [-1.0]])
    return Polytope(Q.dimension, P, r)


def build_coherent_set(spec: CoherentSpec):
    """Rescaled hull of the expectation image of Q, plus the scale vector
    m_i = max_{q in Q} E_q[u_hat_i], read off that image with no LP: the
    q-expectation is linear in q, so its maximum over the polytope Q (on
    the simplex) sits at a vertex, and m is the image's column maximum.
    Raises ValueError when Q does not meet the probability simplex."""
    N = spec.scenarios.shape[1]
    vertices = enumerate_vertices(_simplex_restricted(spec.Q))
    if not vertices:
        raise ValueError("Q does not intersect the probability simplex")
    # Expectation image of Q's vertices; repeated image points are redundant
    # generators of the hull.
    image = np.stack(vertices) @ spec.scenarios
    m = np.maximum(image.max(axis=0), 0.0)

    degenerate = m <= DEGENERATE_TOL
    if np.any(degenerate):
        dropped = np.flatnonzero(degenerate).tolist()
        warnings.warn(DegenerateScenario(
            f"coordinates {dropped} carry no risk; they keep a free [0, 1] "
            "factor with scale 0"), stacklevel=2)
    m = np.where(degenerate, 0.0, m)
    active = np.flatnonzero(~degenerate)
    if active.size == 0:
        return box(N), m

    # The image with the origin (the zero scenario keeps the set anchored at
    # the nominal point), rescaled coordinatewise.
    points = np.vstack([np.zeros(N), image])[:, active] / m[active]
    hull = hull_to_inequalities(points)

    # Re-embed: hull rows on the active coordinates, a free [0, 1] factor on
    # the degenerate ones.
    n_deg = N - active.size
    P = np.zeros((hull.P.shape[0] + n_deg, N))
    P[: hull.P.shape[0], active] = hull.P
    r = np.concatenate([hull.r, np.ones(n_deg)])
    for row, i in enumerate(np.flatnonzero(degenerate)):
        P[hull.P.shape[0] + row, i] = 1.0
    return Polytope(N, P, r), m


def _risk_market(inst: MarketInstance, spec) -> MarketInstance:
    """The market with the uncertainty set built from the risk data and its
    scale installed as the producers' cost scalings; `inst`'s own set and
    scalings are replaced.  Risk sets require fixed demand."""
    if not isinstance(inst.demand, Fixed):
        raise ValueError("risk sets require fixed demand")
    if isinstance(spec, VarSpec):
        U, scale = build_mvar_set(spec)
    elif isinstance(spec, CoherentSpec):
        U, scale = build_coherent_set(spec)
    else:
        raise TypeError("spec must be a VarSpec or a CoherentSpec")
    if scale.size != inst.N:
        raise ValueError("risk data must cover every producer")
    producers = [dataclasses.replace(p, a=float(scale[i]), a_by_period=None)
                 for i, p in enumerate(inst.producers)]
    return MarketInstance(producers=producers, demand=inst.demand,
                          T=inst.T, uncertainty=U)


def poa_with_risk_set(inst: MarketInstance, spec) -> PoAReport:
    """Build the uncertainty set for the risk data, install its scale as the
    producers' cost scalings, and certify the price of anarchy."""
    return poa_fixed(_risk_market(inst, spec))
