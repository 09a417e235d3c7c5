"""Strict robust market equilibrium versus the robust central planner.

Two producers face demand 2 in a single period.  Capacity costs 1 per unit;
production is free at nominal costs but each producer's cost can spike by up
to 1, with the total spike budgeted by the 2-simplex.  A producer hedging
alone must assume its own spike hits fully; the planner exploits that both
spikes cannot happen at once.
"""

import numpy as np

from robust_peakload import (Fixed, MarketInstance, Producer, simplex,
                             solve_robust_cp_fixed, solve_robust_market_fixed,
                             total_cost)

np.set_printoptions(precision=4, suppress=True)

inst = MarketInstance(
    producers=[Producer(c_inv=1.0, c_var=0.0, a=1.0),
               Producer(c_inv=1.0, c_var=0.0, a=1.0)],
    demand=Fixed(np.array([2.0])),
    T=1,
    uncertainty=simplex(2),
)

print("== strict robust market ==")
market, E, worst = solve_robust_market_fixed(inst)
print(f"capacities: {market.capacities}, production: {market.production.ravel()}")
print(f"clearing prices: {market.prices}")
print(f"worst-case total cost E_R = {E:.4f}")
surcharge = E - total_cost(inst, market.production, market.capacities)
print(f"adversary answers with u = {worst.ravel()} "
      f"(surcharge {surcharge:.4f})\n")

print("== robust central planner ==")
planner, C, worst_u = solve_robust_cp_fixed(inst)
print(f"capacities: {planner.capacities}, "
      f"production: {planner.production.ravel()}")
print(f"clearing prices: {planner.prices}")
print(f"worst-case total cost C_R = {C:.4f}")
print(f"saddle scenario u = {worst_u.ravel()}")
value_at_worst = total_cost(inst, planner.production, planner.capacities,
                            worst_u)
print(f"plan evaluated at the saddle scenario: {value_at_worst:.4f} "
      f"(= C_R, the saddle property)\n")

print("== comparison ==")
print(f"E_R / C_R = {E / C:.4f}")
print("The market's individual hedging wastes the simplex structure: each "
      "producer prices in a full spike, while the planner pays for at most "
      "one unit of spike in total.")
