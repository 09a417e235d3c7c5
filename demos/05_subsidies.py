"""Capacity subsidies that restore the planner optimum as an equilibrium.

Under elastic demand and scenario-dependent prices, producers at the robust
planner capacities y* can face negative worst-case profit, so y* is not an
equilibrium on its own.  A per-unit capacity subsidy eta_i, set from the
worst-case shortfall between scenario production costs and scenario prices,
makes every active producer's worst-case profit exactly zero and removes
every profitable deviation.
"""

import dataclasses

import numpy as np

from robust_peakload import (AffineElastic, MarketInstance, NotEquilibrium,
                             Producer, build_price_functions,
                             compute_subsidies, hull_to_inequalities,
                             kkt_residuals, verify_subsidized_equilibrium)

np.set_printoptions(precision=4, suppress=True)

hull = hull_to_inequalities(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]]))
inst = MarketInstance(
    producers=[Producer(c_inv=0.2, c_var=0.0, a=4.0),
               Producer(c_inv=0.2, c_var=0.0, a=4.0)],
    demand=AffineElastic(np.array([5.0]), np.array([1.0])),
    T=1,
    uncertainty=hull,
)

print("== subsidy computation ==")
bundle = compute_subsidies(inst)
print(f"planner capacities y* = {bundle.y_star}")
print(f"subsidies eta* = {bundle.eta}\n")

print("== price table: per-period vertex -> price in each period ==")
table = build_price_functions(bundle)
for vertex in sorted(table):
    print(f"vertex {np.array(vertex)}: prices {table[vertex]}")
print("Prices move with the scenario; producers recover their scenario "
      "costs only in expectation against the worst case.\n")

print("== per-scenario welfare and multipliers ==")
for res in bundle.scenario_results:
    residuals = kkt_residuals(inst, bundle.y_star, res)
    print(f"u = {res.u.ravel()}: welfare {res.value:.4f}, "
          f"max KKT residual {max(residuals.values()):.2e}")
print()

print("== equilibrium verification ==")
record = verify_subsidized_equilibrium(inst, bundle)
print(f"worst-case profits: {record['worst_case_profits']}")
print(f"max deviation gain: "
      f"{np.max(record['max_deviation_gain']):.2e}")
print(f"is_equilibrium: {record['is_equilibrium']}")
print(f"interior sampling audit: max excess "
      f"{bundle.audit['max_excess']:.2e} over {bundle.audit['samples']} "
      f"samples (flagged: {bundle.audit['flagged']})\n")

print("== why the subsidy is needed ==")
bare = dataclasses.replace(bundle, eta=np.zeros(inst.N))
try:
    verify_subsidized_equilibrium(inst, bare)
except NotEquilibrium as exc:
    print(f"without subsidies: {exc}")
    print("Each producer would eat its investment cost in the worst case "
          "and exit; the subsidy hands back exactly that shortfall, no more.")
