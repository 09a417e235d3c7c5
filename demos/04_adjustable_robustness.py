"""Adjustable robustness: waiting for the scenario does not help the planner.

The strict planner commits to capacities AND production before the scenario
is revealed; the adjustable planner fixes capacities first and dispatches
after seeing the costs.  For these markets the two have equal value: the
inner dispatch value is concave in the scenario, so the adversary sits at a
saddle point that the strict plan already guards.  The certificate below
verifies this numerically, and the scenario (vertex) reformulation exhibits
the same value as a finite program with one dispatch copy per (vertex of
the per-period set, period).
"""

import numpy as np

from robust_peakload import (Fixed, MarketInstance, Producer,
                             adjustable_scenario_form_fixed,
                             dispatch_at_capacity, enumerate_vertices, simplex,
                             solve_robust_cp_fixed,
                             verify_adjustable_equivalence)

np.set_printoptions(precision=4, suppress=True)

inst = MarketInstance(
    producers=[Producer(c_inv=1.0, c_var=0.0, a=1.0),
               Producer(c_inv=1.0, c_var=0.0, a=1.0)],
    demand=Fixed(np.array([2.0])),
    T=1,
    uncertainty=simplex(2),
)

print("== strict planner ==")
solution, C, worst_u = solve_robust_cp_fixed(inst)
print(f"capacities y* = {solution.capacities}, value C_R = {C:.4f}\n")

print("== scenario-wise dispatch at y* ==")
for u in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
    scenario = np.array(u).reshape(2, 1)
    value, x = dispatch_at_capacity(inst, solution.capacities, scenario)
    print(f"u = {u}: best-response cost {value:.4f}, dispatch {x.ravel()}")
print("No scenario costs more than C_R, and the saddle scenario "
      f"u = {worst_u.ravel()} attains it exactly.\n")

print("== certificate over vertices and random mixtures ==")
certificate = verify_adjustable_equivalence(inst, samples=200, seed=7)
V, T = certificate["vertex_values"].shape
print(f"scenarios checked: |V| = {V} per-period vertices x T = {T} periods "
      f"({V ** T} lifted vertices) + {certificate['samples']} samples")
print(f"worst vertex value: {certificate['worst_vertex_value']:.4f}")
print(f"all dominated by C_R: {certificate['dominated']}")
print(f"saddle gap: {certificate['saddle_gap']:.2e}\n")

print("== scenario (vertex) reformulation ==")
form = adjustable_scenario_form_fixed(inst)
print(f"value: {form['value']:.4f} (strict planner: {C:.4f})")
print(f"shared capacities: {form['capacities']}")
print("clearing duals per (per-period vertex, period):")
for vertex, duals in zip(enumerate_vertices(inst.uncertainty), form["clearing_duals"]):
    print(f"  u = {vertex}: {duals}")
print(f"sum of dual * demand: {np.sum(form['clearing_duals'] * inst.demand.d):.4f}")
print("The duals split each period's market price across the vertices that "
      "bind at the optimum; slack vertices carry no price mass.")
