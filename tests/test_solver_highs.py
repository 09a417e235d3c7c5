"""Property tests: solve_lp against scipy's HiGHS on small random LPs.

HiGHS (`scipy.optimize.linprog(method="highs")`) is an independent reference
for the status and the optimal value, and solve_lp's own KKT certificate must
hold at every optimal answer.  The programs mix all three row kinds in both
senses, with negative right-hand sides, shifted lower bounds and finite upper
bounds; four further families force degenerate, infeasible and unbounded
programs and homogeneous ones (every right-hand side and lower bound 0, so
every ">=" row starts on its slack), and two more draw cost-nonnegative
programs with an "=" row, feasible and infeasible, which solve_lp solves
from the dual.  Hypothesis runs derandomized, so every run sees the same
examples.
The seeded planner LPs of oracles.planner_lps, up to 408 rows by 224
variables, are checked against HiGHS too, their optimal values to 1e-9
relative.  So are QPs with Q = 0 whose rows bind at the origin, as the
planners' do: solve_qp's reduced-gradient kernel then works as a simplex
that starts at a degenerate vertex.

HiGHS's own optimal pair is a second check on the certificate itself: its
primal point and marginals, mapped to solve_lp's sign convention, must pass
solver._certificate at CERT_TOL.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from oracles import planner_lps
from robust_peakload.solver import (CERT_TOL, LpSpec, QpSpec, _certificate, _folded, solve_lp,
                                    solve_qp)

OBJ_TOL = 1e-7
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

ints = st.integers(-3, 3).map(float)


@st.composite
def lps(draw, family="random"):
    """An LpSpec; in the forced families the rows of the drawn program hold
    at an integer point x0 inside the bounds (all tightly when degenerate),
    and in the homogeneous family at x0 = 0 = lb.  The "nonnegative"
    families have an internal cost >= 0 with a positive entry and an "="
    first row, so solve_lp takes its dual path."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0 if family == "random" else 1, 4))
    A = np.array(draw(st.lists(ints, min_size=m * n, max_size=m * n))).reshape(m, n)
    kinds = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    cost = np.array(draw(st.lists(ints, min_size=n, max_size=n)))
    sense = draw(st.sampled_from(["min", "max"]))
    lb = np.array(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float)
    width = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=n, max_size=n))
    if family == "homogeneous":
        lb = np.zeros(n)
    ub = np.array([np.inf if w is None else lo + w for lo, w in zip(lb, width)])
    if family == "homogeneous":
        return LpSpec(sense, cost, A, np.zeros(m), kinds, lb, ub)
    if family.startswith("nonnegative"):
        cost = np.abs(cost)
        cost[draw(st.integers(0, n - 1))] += 1.0
        cost = cost if sense == "min" else -cost
        kinds[0] = "="
    if family == "random":
        rhs = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)), dtype=float)
        return LpSpec(sense, cost, A, rhs, kinds, lb, ub)

    x0 = lb + np.array([draw(st.integers(0, 2)) if np.isinf(w) else draw(st.integers(0, w))
                        for w in ub - lb])
    if family == "unbounded":
        # A free direction +e_j that improves the objective and leaves every
        # row unchanged.
        j = draw(st.integers(0, n - 1))
        A[:, j] = 0.0
        ub[j] = np.inf
        cost[j] = -1.0 if sense == "min" else 1.0
    rhs = A @ x0
    if family in ("unbounded", "nonnegative"):
        margin = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
        rhs += np.select([np.array(kinds) == "<=", np.array(kinds) == ">="],
                         [margin, -margin], 0.0)
    if family == "degenerate":
        # A repeated row on top of every row being tight at x0.
        A, rhs, kinds = np.vstack([A, A[:1]]), np.append(rhs, rhs[0]), kinds + kinds[:1]
    if family in ("infeasible", "nonnegative_infeasible"):
        # a'x <= k and a'x >= k + 1 for a row a of the program.
        k = float(draw(st.integers(-4, 4)))
        A, rhs, kinds = np.vstack([A, A[:1], A[:1]]), np.append(rhs, [k, k + 1.0]), \
            kinds + ["<=", ">="]
    return LpSpec(sense, cost, A, rhs, kinds, lb, ub)


def _highs(spec):
    """(status, objective, result) from HiGHS, with ">=" rows negated into
    A_ub; result is None unless the status is optimal."""
    kinds = np.array(spec.constraint_kinds)
    A, b = spec.constraint_matrix, spec.constraint_rhs
    eq = kinds == "="
    flip = np.where(kinds == ">=", -1.0, 1.0)[~eq]
    sign = 1.0 if spec.objective_sense == "min" else -1.0

    def run(cost):
        return linprog(cost, A_ub=flip[:, None] * A[~eq], b_ub=flip * b[~eq],
                       A_eq=A[eq], b_eq=b[eq],
                       bounds=list(zip(spec.variable_lower_bounds,
                                       spec.variable_upper_bounds)),
                       method="highs")

    res = run(sign * spec.cost)
    if res.status == 4 and "unbounded or infeasible" in res.message:
        # Settle the ambiguity with a feasibility solve.
        res_feas = run(np.zeros(spec.n_vars))
        return ("unbounded" if res_feas.status == 0 else "infeasible"), None, None
    assert res.status in HIGHS_STATUS, res.message
    status = HIGHS_STATUS[res.status]
    if status != "optimal":
        return status, None, None
    return status, sign * res.fun, res


def _highs_certificate(spec, res):
    """Largest KKT residual at HiGHS's optimal pair: the primal, dual and
    complementarity residuals of solver._certificate, and HiGHS's absolute
    duality gap from its own marginals.

    HiGHS reports marginals of the min-sense program it solved (rows of
    A_ub <= b_ub, A_eq = b_eq, then the bounds).  solve_lp's convention is
    grad = A' duals + reduced for the stated sense: undo the ">=" negation
    row by row, then negate everything for a max program.  The dual
    objective prices every row and every finite bound by its marginal."""
    kinds = np.array(spec.constraint_kinds)
    eq = kinds == "="
    flip = np.where(kinds == ">=", -1.0, 1.0)[~eq]
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    duals = np.zeros(spec.n_rows)
    duals[~eq] = sign * flip * res.ineqlin.marginals
    duals[eq] = sign * res.eqlin.marginals
    reduced = sign * (res.lower.marginals + res.upper.marginals)
    primal, dual, comp, _ = _certificate(spec, _folded(spec), res.x, duals, reduced)
    finite_ub = np.isfinite(spec.variable_upper_bounds)
    bound_terms = (res.lower.marginals @ spec.variable_lower_bounds
                   + res.upper.marginals[finite_ub] @ spec.variable_upper_bounds[finite_ub])
    gap = abs(float(spec.cost @ res.x)
              - float(spec.constraint_rhs @ duals + sign * bound_terms))
    return max(primal, dual, comp, gap)


def _check_against_highs(spec):
    out = solve_lp(spec)
    status, objective, res = _highs(spec)
    assert out.status == status
    if status == "optimal":
        assert abs(out.objective - objective) <= OBJ_TOL
        cert = out.certificate
        assert max(cert["primal_residual"], cert["dual_residual"],
                   cert["complementarity"], cert["duality_gap"]) <= CERT_TOL
        assert _highs_certificate(spec, res) <= CERT_TOL
    return out.status


class TestLpAgainstHighs:
    @PROPERTY
    @given(lps())
    def test_random(self, spec):
        _check_against_highs(spec)

    @PROPERTY
    @given(lps("degenerate"))
    def test_degenerate(self, spec):
        assert _check_against_highs(spec) != "infeasible"

    @PROPERTY
    @given(lps("infeasible"))
    def test_infeasible(self, spec):
        assert _check_against_highs(spec) == "infeasible"

    @PROPERTY
    @given(lps("homogeneous"))
    def test_homogeneous(self, spec):
        assert _check_against_highs(spec) != "infeasible"

    @PROPERTY
    @given(lps("nonnegative"))
    def test_cost_nonnegative(self, spec):
        assert _check_against_highs(spec) == "optimal"

    @PROPERTY
    @given(lps("nonnegative_infeasible"))
    def test_cost_nonnegative_infeasible(self, spec):
        assert _check_against_highs(spec) == "infeasible"

    @PROPERTY
    @given(lps("unbounded"))
    def test_unbounded(self, spec):
        assert _check_against_highs(spec) == "unbounded"

    def test_planner_lps(self):
        # Structured programs up to 408 rows by 224 variables, far beyond the
        # drawn ones: solve_lp's optimal value within 1e-9 relative of
        # HiGHS's, and both optimal pairs certified.
        for spec in planner_lps():
            out = solve_lp(spec)
            status, objective, res = _highs(spec)
            assert out.status == status == "optimal"
            assert abs(out.objective - objective) <= 1e-9 * abs(objective)
            assert max(out.certificate.values()) <= CERT_TOL
            assert _highs_certificate(spec, res) <= CERT_TOL


@st.composite
def origin_qps(draw):
    """A QpSpec with Q = 0 over (x, y, z), k variables each, shaped like a
    planner: capacity rows x_i - y_j <= 0 and adversary rows
    -a_i x_i + z_i >= 0, all binding at the origin, so the kernel starts at
    a degenerate vertex; then up to two drawn rows of any kind with
    right-hand sides from -2 to 3, so that some programs need phase 1 and
    some are infeasible.  Drawn costs of both signs make some unbounded."""
    k = draw(st.integers(1, 3))
    n = 3 * k
    owner = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    a = np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), dtype=float)
    eye = np.eye(n)
    rows = [eye[i] - eye[k + owner[i]] for i in range(k)]
    rows += [eye[2 * k + i] - a[i] * eye[i] for i in range(k)]
    kinds = ["<="] * k + [">="] * k
    m = draw(st.integers(0, 2))
    extra = np.array(draw(st.lists(st.integers(-1, 2), min_size=m * n, max_size=m * n)),
                     dtype=float).reshape(m, n)
    kinds += draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    rhs = np.concatenate([np.zeros(2 * k), draw(st.lists(st.integers(-2, 3), min_size=m,
                                                          max_size=m))])
    cost = np.array(draw(st.lists(ints, min_size=n, max_size=n)))
    return QpSpec(draw(st.sampled_from(["min", "max"])), cost, np.vstack(rows + list(extra)),
                  rhs, kinds, quadratic_matrix=np.zeros((n, n)))


class TestZeroCurvatureQpAgainstHighs:
    @PROPERTY
    @given(origin_qps())
    def test_degenerate_origin(self, spec):
        out = solve_qp(spec)
        status, objective, _ = _highs(spec)
        assert out.status == status
        if status == "optimal":
            assert abs(out.objective - objective) <= OBJ_TOL * (1.0 + abs(objective))
            assert max(_certificate(spec, _folded(spec), out.primal, out.duals,
                                    out.reduced_costs)) <= CERT_TOL
