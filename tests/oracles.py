"""Brute-force reference computations used to pin expected values in tests.

These oracles are deliberately naive (exhaustive enumeration, dense solves)
so their answers are easy to trust; the library under test must agree with
them on small instances.  planner_lps builds the large structured LPs that
several solver tests share.
"""

import itertools

import numpy as np
from scipy.linalg import block_diag

from robust_peakload.geometry import Polytope, enumerate_vertices, simplex
from robust_peakload.market import (SUPPORT_TOL, EquilibriumSolution, Fixed,
                                    MarketInstance, Producer, _capacity_rows,
                                    _clearing_rows, _fixed_program, _solve,
                                    _welfare_program, cost_matrix, scaling_matrix)
from robust_peakload.robust import _min_norm_optimum, _with_adversary, lifted_set
from robust_peakload.solver import LpSpec, QpSpec, _checked, solve_lp, solve_qp

FEAS_TOL = 1e-7
PROFIT_TOL = 1e-6


def vertices_by_bases(U):
    """The vertices of {u >= 0 : P u <= r} by trying every basis: each
    choice of n of the m + n hyperplanes (the rows of P and the coordinate
    planes) whose matrix has rank n is solved, and the solutions inside the
    set are kept, once each at 1e-9.  C(m + n, n) solves, so small sets
    only; unordered."""
    n = U.dimension
    A_all = np.vstack([U.P, np.eye(n)])
    b_all = np.concatenate([U.r, np.zeros(n)])
    found = []
    for combo in itertools.combinations(range(b_all.size), n):
        A, b = A_all[list(combo)], b_all[list(combo)]
        if np.linalg.matrix_rank(A) < n:
            continue
        u = np.linalg.solve(A, b)
        if np.any(u < -1e-12) or np.any(U.P @ u > U.r + 1e-9):
            continue
        if all(np.max(np.abs(u - v)) > 1e-9 for v in found):
            found.append(u)
    return found


def lifted_vertices(inst):
    """Vertices of the lifted uncertainty set as N x T matrices: one per
    choice of a per-period vertex for every period, in itertools.product
    order over enumerate_vertices (first period slowest).  There are |V|^T
    of them."""
    per_period = enumerate_vertices(inst.uncertainty)
    return [np.column_stack(choice)
            for choice in itertools.product(per_period, repeat=inst.T)]


def compose_lifted(block):
    """Per-period data in the lifted layout: block[v, ..., t] is period t of
    some output at per-period vertex v (|V| x ... x T); entry k of the result
    (|V|^T x ... x T) takes period t from vertex j_t of lifted vertex
    k = (j_1, ..., j_T), in lifted_vertices order."""
    block = np.asarray(block)
    V, T = block.shape[0], block.shape[-1]
    return np.array([np.stack([block[j][..., t] for t, j in enumerate(choice)], axis=-1)
                     for choice in itertools.product(range(V), repeat=T)])


def per_period_index(k, V, T):
    """The per-period vertex indices (j_1, ..., j_T) of lifted vertex k."""
    return tuple(int(j) for j in np.unravel_index(k, (V,) * T))


def lifted_subsidy_checks(inst, eta, y_star, lifted):
    """The subsidy formula and the three equilibrium checks written over a
    list of pinned welfare results, one per lifted vertex, with every max
    and min taken over the whole list.  Returns a dict: the formula's
    subsidies `eta` (for y_star; the `eta` argument is what the checks
    test), `worst_case_profits`, `max_deviation_gain` and
    `is_equilibrium`."""
    c_inv = np.array([p.c_inv for p in inst.producers])
    y_star = np.asarray(y_star, dtype=float)
    u, x, pi = (np.array([getattr(res, name) for res in lifted])
                for name in ("u", "x", "pi"))
    costs = cost_matrix(inst, u)
    margins = pi[:, None, :] - costs
    deficits = np.where(x > SUPPORT_TOL, costs - pi[:, None, :], 0.0).sum(axis=2)
    active = y_star > SUPPORT_TOL
    formula = np.zeros(inst.N)
    formula[active] = c_inv[active] + deficits.max(axis=0)[active]
    best_response = not np.any(
        ((margins > PROFIT_TOL) & (x < y_star[None, :, None] - PROFIT_TOL))
        | ((margins < -PROFIT_TOL) & (x > PROFIT_TOL)))
    unit = np.maximum(margins, 0.0).sum(axis=2) - (c_inv - eta)
    worst_profits = (unit * y_star[None, :]).min(axis=0)
    gains = 2.0 * float(y_star.max(initial=0.0)) * np.maximum(unit.min(axis=0), 0.0)
    return {"eta": formula, "worst_case_profits": worst_profits,
            "max_deviation_gain": gains,
            "is_equilibrium": bool(best_response
                                   and np.all(np.abs(worst_profits[active]) <= PROFIT_TOL)
                                   and np.all(gains <= PROFIT_TOL))}


def _hyperplanes(spec):
    """All candidate active hyperplanes (a, b) of an LpSpec-like problem."""
    planes = []
    for j in range(spec.n_rows):
        planes.append((spec.constraint_matrix[j], spec.constraint_rhs[j]))
    n = spec.n_vars
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e.copy(), spec.variable_lower_bounds[i]))
        if np.isfinite(spec.variable_upper_bounds[i]):
            planes.append((e.copy(), spec.variable_upper_bounds[i]))
    return planes


def _feasible(spec, x, tol=FEAS_TOL):
    resid = spec.constraint_matrix @ x - spec.constraint_rhs
    for j, kind in enumerate(spec.constraint_kinds):
        scale = 1.0 + abs(spec.constraint_rhs[j])
        if kind == "<=" and resid[j] > tol * scale:
            return False
        if kind == ">=" and resid[j] < -tol * scale:
            return False
        if kind == "=" and abs(resid[j]) > tol * scale:
            return False
    if np.any(x < spec.variable_lower_bounds - tol):
        return False
    ub = spec.variable_upper_bounds
    finite = np.isfinite(ub)
    if np.any(x[finite] > ub[finite] + tol):
        return False
    return True


def lp_bruteforce(spec):
    """Enumerate all basic points of a bounded LP; return (objective, x) or None.

    Every vertex of the feasible set lies on n constraint hyperplanes, so for
    bounded feasible sets the optimum is found by checking every square
    subsystem.  Returns None when no feasible vertex exists.
    """
    planes = _hyperplanes(spec)
    n = spec.n_vars
    best_obj = None
    best_x = None
    sense = 1.0 if spec.objective_sense == "min" else -1.0
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if not _feasible(spec, x):
            continue
        obj = float(spec.cost @ x)
        if best_obj is None or sense * obj < sense * best_obj - 0.0:
            best_obj = obj
            best_x = x
    if best_obj is None:
        return None
    return best_obj, best_x


def qp_bruteforce(spec, tol=1e-9):
    """Enumerate active sets of a strictly convex (for "max", strictly
    concave) QpSpec; return (objective, x), or None when no point is feasible.

    The optimum is unique and minimizes the objective on the affine set of
    the rows it makes active, so it is the solution of the KKT system of the
    "=" rows plus some set of at most n other hyperplanes (rows or bounds).
    Every feasible candidate is a feasible point, so the best one is the
    optimum.

    Feasibility is judged by `_feasible` with the absolute tolerance `tol`
    (scaled by 1 + |rhs|, not by |x|), so the oracle holds only while |x|
    stays near unit scale.  At |x| near 1e10 the least-squares KKT solution
    of the true active set misses its hyperplanes by more than that and is
    rejected: with Q = 1e-10 diag(0.5, 1.3, 1.2, 0.9), cost (0, 2, 0, -2)
    and the rows of test_solver.py::test_small_curvature_solved_to_optimum,
    the optimum's candidate has x_2 = -1.0e-6 against the bound x_2 >= 0,
    and the oracle returns -1.478e10 where the optimum is -2.2222e10.
    """
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    Q, c = sign * spec.quadratic_matrix, sign * spec.cost
    n = spec.n_vars
    planes = _hyperplanes(spec)
    eq = [j for j, kind in enumerate(spec.constraint_kinds) if kind == "="]
    others = [k for k in range(len(planes)) if k not in eq]
    best = None
    for size in range(n + 1):
        for combo in itertools.combinations(others, size):
            rows = eq + list(combo)
            A = np.array([planes[k][0] for k in rows]).reshape(len(rows), n)
            b = np.array([planes[k][1] for k in rows])
            kkt = np.block([[Q, A.T], [A, np.zeros((len(rows), len(rows)))]])
            x = np.linalg.lstsq(kkt, np.concatenate([-c, b]), rcond=None)[0][:n]
            if not _feasible(spec, x, tol):
                continue
            value = float(c @ x + 0.5 * x @ Q @ x)
            if best is None or value < best[0]:
                best = (value, x)
    if best is None:
        return None
    return sign * best[0], best[1]


def qp_box_diagonal_oracle(Q_diag, c, lb, ub, sense):
    """Closed-form minimizer of sum_i (c_i x_i + q_i x_i^2 / 2) over a box."""
    q = np.asarray(Q_diag, dtype=float)
    c = np.asarray(c, dtype=float)
    if sense == "max":
        q, c = -q, -c
    x = np.empty_like(c)
    for i in range(c.size):
        if q[i] > 0:
            x[i] = np.clip(-c[i] / q[i], lb[i], ub[i])
        else:
            x[i] = lb[i] if c[i] >= 0 else ub[i]
    obj = float(c @ x + 0.5 * x @ (q * x))
    if sense == "max":
        obj = -obj
    return obj, x


def maximin_coordinate_grid(P, r, resolution=401):
    """Grid estimate of max over the polytope {u >= 0, Pu <= r} of min_i u_i.

    Only used for 2-d sets in tests; resolution keeps the grid error well
    below the comparison tolerances chosen by the callers.  The grid is
    tested one row of P at a time over all points at once.
    """
    grid = np.linspace(0.0, 1.0, resolution)
    u1, u2 = np.meshgrid(grid, grid, indexing="ij")
    inside = np.ones(u1.shape, dtype=bool)
    for (p1, p2), bound in zip(P, r):
        inside &= p1 * u1 + p2 * u2 <= bound + 1e-12
    return float(np.minimum(u1, u2)[inside].max(initial=-np.inf))


def deviation_gain_grid(unit_profit, y_star, grid):
    """Best own-capacity deviation of each producer by trying `grid` evenly
    spaced capacities on [0, 2 max(y*)] plus y*_i itself, against the worst
    of the V x N unit profits (scenario-price margin earned per unit of
    capacity, net of c_inv - eta).  Returns (N gains, the first (producer,
    scenario, capacity) whose gain exceeds PROFIT_TOL, or None)."""
    unit_profit = np.asarray(unit_profit, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    V, N = unit_profit.shape
    worst_unit = unit_profit.min(axis=0) if V else np.zeros(N)
    top = 2.0 * float(y_star.max(initial=0.0))
    points = np.linspace(0.0, top, grid)
    max_gain = np.zeros(N)
    first = None
    for i in range(N):
        tried = np.append(points, y_star[i])
        dev_profit = tried * worst_unit[i]
        max_gain[i] = float(dev_profit.max(initial=0.0))
        if first is None and max_gain[i] > PROFIT_TOL:
            first = (i, int(np.argmin(unit_profit[:, i])),
                     float(tried[int(np.argmax(dev_profit))]))
    return max_gain, first


def merit_order_dispatch(costs, capacities, demand):
    """Cheapest production meeting fixed demand at fixed capacities, by merit
    order: in every period t, fill capacities in increasing order of the unit
    cost c_{i,t} until d_t is met.  Returns (production cost, N x T plan), or
    None when the capacities cannot meet some period's demand."""
    costs = np.asarray(costs, dtype=float)
    N, T = costs.shape
    x = np.zeros((N, T))
    for t in range(T):
        left = float(demand[t])
        for i in sorted(range(N), key=lambda i: costs[i, t]):
            x[i, t] = min(float(capacities[i]), left)
            left -= x[i, t]
        if left > FEAS_TOL:
            return None
    return float(np.sum(costs * x)), x


def pinned_program_dispatch(inst, y, costs):
    """Best response of production at capacities pinned to y, by the dense
    solvers: the nominal program of inst's demand mode (the cost-minimal LP
    for fixed demand, the welfare-maximal QP for elastic demand) with the y
    columns moved to the right-hand side and the cost of y kept as a
    constant.  Raises Infeasible when the program is infeasible.  Returns
    (value including the cost of y, N x T production, solver outcome); the
    outcome's rows are the N*T capacity rows, then for fixed demand the T
    clearing rows."""
    program = _fixed_program if isinstance(inst.demand, Fixed) else _welfare_program
    A, rhs, kinds, cost = program(inst, np.asarray(costs, dtype=float))
    n_x = inst.N * inst.T
    out = _solve(inst, A[:, :n_x], rhs - A[:, n_x:] @ y, kinds, cost[:n_x],
                 "pinned dispatch program")
    return (float(out.objective + cost[n_x:] @ y),
            out.primal.reshape(inst.N, inst.T), out)


def lifted_scenario_form(inst):
    """The vertex reformulation of the adjustable fixed-demand planner over
    the lifted set, one N x T production copy per lifted vertex: minimize
    c_inv'y + theta subject to theta >= the production cost of copy j at
    lifted vertex j, x_j <= y and sum_i x_{j,i,t} = d_t, by the dense LP
    solver.  Returns the optimal value."""
    N, T = inst.N, inst.T
    scenarios = lifted_vertices(inst)
    V = len(scenarios)
    n_x = N * T
    cap = _capacity_rows(N, T)
    epigraph = block_diag(*[-cost_matrix(inst, s).reshape(1, -1) for s in scenarios])
    x_part = np.vstack([epigraph, np.kron(np.eye(V), cap[:, :n_x]),
                        np.kron(np.eye(V), _clearing_rows(N, T))])
    y_part = np.vstack([np.zeros((V, N)), np.tile(cap[:, n_x:], (V, 1)),
                        np.zeros((V * T, N))])
    theta = np.concatenate([np.ones(V), np.zeros(V * n_x + V * T)])
    rhs = np.concatenate([np.zeros(V + V * n_x), np.tile(inst.demand.d, V)])
    kinds = [">="] * V + ["<="] * (V * n_x) + ["="] * (V * T)
    c_inv = np.array([p.c_inv for p in inst.producers])
    cost = np.concatenate([[1.0], np.zeros(V * n_x), c_inv])
    spec = LpSpec("min", cost, np.column_stack([theta, x_part, y_part]), rhs, kinds)
    return float(_checked(solve_lp(spec), "lifted scenario form").objective)


def min_norm_duals_loop(spec, outcome, force_zero_rows):
    """robust._min_norm_duals written row by row: one multiplier variable per
    binding row outside force_zero_rows ("=" rows split into a positive and
    a negative part), the stationarity rows G, the norm Q and the dual
    readout each built in a Python loop.  The reference for the array code
    of the library."""
    x = outcome.primal
    resid = spec.constraint_matrix @ x - spec.constraint_rhs
    scale = 1.0 + np.max(np.abs(spec.constraint_rhs), initial=0.0)
    forced = set(int(j) for j in force_zero_rows)
    var_of_row = {}
    cols = []
    for j, kind in enumerate(spec.constraint_kinds):
        if j in forced or abs(resid[j]) > 1e-8 * scale:
            continue
        if kind == "=":
            var_of_row[j] = (len(cols), len(cols) + 1)
            cols.append((j, 1.0))
            cols.append((j, -1.0))
        else:
            sign = 1.0 if kind == ">=" else -1.0
            var_of_row[j] = (len(cols),)
            cols.append((j, sign))
    n_mult = len(cols)
    G = np.zeros((spec.n_vars, n_mult))
    for col, (j, sign) in enumerate(cols):
        G[:, col] = sign * spec.constraint_matrix[j]
    kinds = ["=" if positive else "<=" for positive in x > 1e-9]
    Q = np.zeros((n_mult, n_mult))
    for j, idxs in var_of_row.items():
        if len(idxs) == 1:
            Q[idxs[0], idxs[0]] = 1.0
        else:
            p_i, m_i = idxs
            Q[p_i, p_i] = Q[m_i, m_i] = 1.0
            Q[p_i, m_i] = Q[m_i, p_i] = -1.0
    sol = solve_qp(QpSpec("min", np.zeros(n_mult), G, spec.cost, kinds,
                          quadratic_matrix=Q))
    if sol.status != "optimal":
        return None
    duals = np.zeros(spec.n_rows)
    for j, idxs in var_of_row.items():
        if len(idxs) == 1:
            sign = 1.0 if spec.constraint_kinds[j] == ">=" else -1.0
            duals[j] = sign * sol.primal[idxs[0]]
        else:
            duals[j] = sol.primal[idxs[0]] - sol.primal[idxs[1]]
    return duals


def fixed_planner_lp(inst, costs):
    """The fixed-demand planner LP at N x T production costs
    (market._fixed_program) by the package's simplex: what
    solve_fixed_dispatch poses at costs that vary over the periods, and the
    reference for its screening curves at costs that do not.  Returns the
    EquilibriumSolution with prices the duals of the T clearing rows."""
    N, T = inst.N, inst.T
    A, rhs, kinds, cost = _fixed_program(inst, np.asarray(costs, dtype=float))
    out = _checked(solve_lp(LpSpec("min", cost, A, rhs, kinds)), "fixed-demand planner LP")
    return EquilibriumSolution(out.duals[N * T:].copy(), out.primal[N * T:],
                               out.primal[: N * T].reshape(N, T), float(out.objective))


def elastic_welfare_qp(inst, costs):
    """The welfare QP at N x T production costs (market._welfare_program)
    by the package's QP: what solve_elastic_welfare poses at costs that
    vary over the periods, and the reference for its screening curves at
    costs that do not.  Returns (EquilibriumSolution with the prices read
    off the demand curves, SolveOutcome)."""
    N, T = inst.N, inst.T
    out = _solve(inst, *_welfare_program(inst, np.asarray(costs, dtype=float)),
                 "elastic welfare QP")
    x = out.primal[: N * T].reshape(N, T)
    prices = inst.demand.alpha - inst.demand.beta * x.sum(axis=0)
    return EquilibriumSolution(prices, out.primal[N * T:], x, float(out.objective)), out


def worst_case_lp(inst, x):
    """The worst case of plan x over the lifted set as one LP over its N*T
    coordinates (lifted_set(inst).maximize): what worst_case_scenario poses
    above the enumeration guard, and the reference for its vertex table.
    Returns (value, N x T scenario)."""
    gains = scaling_matrix(inst) * np.asarray(x, dtype=float)
    value, u = lifted_set(inst).maximize(gains.reshape(-1))
    return value, u.reshape(inst.N, inst.T)


def robust_planner_spec(inst):
    """The LpSpec of the fixed-demand robust planner with its adversary over
    the lifted set dualized (robust._with_adversary): rows are the N*T
    capacity rows, the T clearing rows, then the N*T adversary rows."""
    A, b, kinds, cost = _with_adversary(*_fixed_program(inst, cost_matrix(inst)),
                                        scaling_matrix(inst).reshape(-1),
                                        lifted_set(inst), 1.0)
    return LpSpec("min", cost, A, b, kinds)


def robust_planner_lp(inst):
    """robust_planner_spec solved by the package's simplex: what
    solve_robust_cp_fixed poses on a set without its greatest element, and
    the reference for its corner on a set with one.  Returns
    (EquilibriumSolution with the clearing duals as prices, value, N x T
    worst case read off the adversary duals)."""
    N, T = inst.N, inst.T
    out = _checked(solve_lp(robust_planner_spec(inst)), "robust planner LP")
    solution = EquilibriumSolution(out.duals[N * T : N * T + T].copy(),
                                   out.primal[N * T : N * T + N],
                                   out.primal[: N * T].reshape(N, T), float(out.objective))
    return solution, solution.objective, out.duals[N * T + T:].reshape(N, T)


def robust_welfare_qp(inst):
    """The elastic robust planner QP over (x, y, z), its adversary over the
    lifted set dualized (robust._with_adversary), on any set, by the
    package's QP, and its minimum-norm optimum over (x, y, z)
    (robust._min_norm_optimum at unit weights, called whatever the QP
    proved): what solve_robust_cp_elastic poses on a set without its
    greatest element, and the reference for its corner on a set with one.
    Returns (EquilibriumSolution with the prices read off the demand
    curves, value, N x T worst case read off the adversary duals)."""
    N, T = inst.N, inst.T
    A, b, kinds, cost = _with_adversary(*_welfare_program(inst, cost_matrix(inst)),
                                        scaling_matrix(inst).reshape(-1),
                                        lifted_set(inst), -1.0)
    out = _solve(inst, A, b, kinds, cost, "robust welfare QP")
    primal = _min_norm_optimum(inst, cost, A, b, kinds, out.primal, np.ones(out.primal.size))
    x = primal[: N * T].reshape(N, T)
    prices = inst.demand.alpha - inst.demand.beta * x.sum(axis=0)
    solution = EquilibriumSolution(prices, primal[N * T : N * T + N], x, float(out.objective))
    return solution, solution.objective, -out.duals[N * T:].reshape(N, T)


def planner_lps():
    """The dualized fixed-demand robust planner LPs (robust._with_adversary)
    of four seeded markets: 6x12 on the budget set {0 <= u <= 1, sum u <= 2}
    at default_rng seeds 0, 1 and 2, then 8x24 on the simplex at seed 0, a
    program of 408 rows and 224 variables.  Structured LPs, far larger than
    the ones the random oracles can check."""
    def budget(n):
        return Polytope(n, np.vstack([np.eye(n), np.ones((1, n))]),
                        np.concatenate([np.ones(n), [2.0]]))

    specs = []
    for seed, N, T, uncertainty in ((0, 6, 12, budget), (1, 6, 12, budget),
                                    (2, 6, 12, budget), (0, 8, 24, simplex)):
        rng = np.random.default_rng(seed)
        producers = [Producer(c_inv=rng.uniform(0.5, 2.0), c_var=rng.uniform(0.5, 1.5),
                              a=rng.uniform(0.5, 1.5)) for _ in range(N)]
        specs.append(robust_planner_spec(MarketInstance(
            producers=producers, demand=Fixed(rng.uniform(1.0, 3.0, T)), T=T,
            uncertainty=uncertainty(N))))
    return specs
