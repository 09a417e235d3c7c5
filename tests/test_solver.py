import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import lp_bruteforce, planner_lps, qp_box_diagonal_oracle, qp_bruteforce
from robust_peakload import solver
from robust_peakload.solver import (
    LpSpec,
    NotConvex,
    NumericBreakdown,
    QpSpec,
    _certificate,
    _folded,
    _optimal,
    solve_lp,
    solve_qp,
)

FEAS_TOL = 1e-9
CERT_TOL = 1e-7
OBJ_TOL = 1e-8


def check_certificate(outcome):
    cert = outcome.certificate
    assert cert["primal_residual"] <= FEAS_TOL
    assert cert["dual_residual"] <= FEAS_TOL
    assert cert["complementarity"] <= FEAS_TOL * (1.0 + abs(outcome.objective))
    assert cert["duality_gap"] <= CERT_TOL * (1.0 + abs(outcome.objective))


class TestLpExamples:
    def test_single_binding_constraint(self):
        # min x s.t. x >= 3, x >= 0: objective 3, dual on the row equal 1.
        spec = LpSpec("min", [1.0], [[1.0]], [3.0], [">="])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, 3.0, atol=OBJ_TOL)
        assert_allclose(out.primal, [3.0], atol=FEAS_TOL)
        assert_allclose(out.duals, [1.0], atol=CERT_TOL)
        check_certificate(out)

    def test_two_producer_worstcase_program(self):
        # min tau + y1 + y2 s.t. tau >= x_i, x_i <= y_i, x1 + x2 = 2, all >= 0.
        # Unique optimum splits the demand evenly; the clearing dual is 3/2.
        A = np.array([
            [1.0, -1.0, 0.0, 0.0, 0.0],   # tau - x1 >= 0
            [1.0, 0.0, -1.0, 0.0, 0.0],   # tau - x2 >= 0
            [0.0, 1.0, 0.0, -1.0, 0.0],   # x1 - y1 <= 0
            [0.0, 0.0, 1.0, 0.0, -1.0],   # x2 - y2 <= 0
            [0.0, 1.0, 1.0, 0.0, 0.0],    # x1 + x2 = 2
        ])
        spec = LpSpec("min", [1.0, 0.0, 0.0, 1.0, 1.0], A,
                      [0.0, 0.0, 0.0, 0.0, 2.0],
                      [">=", ">=", "<=", "<=", "="])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, 3.0, atol=OBJ_TOL)
        assert_allclose(out.duals[4], 1.5, atol=CERT_TOL)
        check_certificate(out)

    def test_single_producer_planner_program(self):
        # min y + x s.t. x <= y, x = 1: objective from the hand oracle below.
        spec = LpSpec("min", [1.0, 1.0],
                      [[1.0, -1.0], [1.0, 0.0]], [0.0, 1.0], ["<=", "="])
        oracle = lp_bruteforce(spec)
        assert oracle is not None
        assert_allclose(oracle[0], 2.0, atol=1e-12)
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, 2.0, atol=OBJ_TOL)
        assert_allclose(out.duals[1], 2.0, atol=CERT_TOL)
        check_certificate(out)


class TestLpStatuses:
    def test_infeasible(self):
        spec = LpSpec("min", [1.0], [[1.0], [1.0]], [1.0, 2.0], ["<=", ">="])
        out = solve_lp(spec)
        assert out.status == "infeasible"
        assert out.primal is None

    def test_unbounded(self):
        spec = LpSpec("max", [1.0, 1.0], [[1.0, -1.0]], [0.0], ["<="])
        out = solve_lp(spec)
        assert out.status == "unbounded"

    def test_equality_only_feasible_point(self):
        spec = LpSpec("min", [0.0, 0.0], [[1.0, 1.0]], [1.0], ["="])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.primal.sum(), 1.0, atol=FEAS_TOL)


class TestSlackStart:
    @staticmethod
    def _phases(monkeypatch, spec):
        calls = []
        phase = solver._simplex_phase

        def counted(*args):
            calls.append(args)
            return phase(*args)

        monkeypatch.setattr(solver, "_simplex_phase", counted)
        return solve_lp(spec), len(calls)

    def test_zero_rhs_ge_rows_run_no_phase_one(self, monkeypatch):
        # max x1 + 2 x2 s.t. x1 - 2 x2 >= 0, x1 - x2 >= 0, x1 + x2 <= 3: x = 0
        # is feasible, so only phase 2 runs; optimum (2, 1), value 4.
        spec = LpSpec("max", [1.0, 2.0], [[1.0, -2.0], [1.0, -1.0], [1.0, 1.0]],
                      [0.0, 0.0, 3.0], [">=", ">=", "<="])
        out, phases = self._phases(monkeypatch, spec)
        assert phases == 1
        assert out.status == "optimal"
        assert_allclose(out.primal, [2.0, 1.0], atol=FEAS_TOL)
        assert_allclose(out.objective, lp_bruteforce(spec)[0], atol=OBJ_TOL)
        check_certificate(out)

    @pytest.mark.parametrize("rhs, kind", [(1.0, ">="), (0.0, "=")])
    def test_other_rows_keep_phase_one(self, monkeypatch, rhs, kind):
        # The cost is >= 0, so solve_lp would take the dual path; the primal
        # kernel is called directly for its phase 1.
        monkeypatch.setattr(solver, "_lp_internal", solver._simplex)
        spec = LpSpec("min", [1.0, 1.0], [[1.0, -2.0], [1.0, 1.0]], [0.0, rhs],
                      [">=", kind])
        out, phases = self._phases(monkeypatch, spec)
        assert phases == 2
        assert out.status == "optimal"
        assert_allclose(out.objective, lp_bruteforce(spec)[0], atol=OBJ_TOL)


class TestArtificialDriveOut:
    @staticmethod
    def _artificials(monkeypatch, spec):
        """solve_lp(spec) by the primal kernel, with the number of
        artificials basic when phase 1 ends and when phase 2 starts: the
        drive-out runs in between.  The programs below have costs >= 0, so
        solve_lp would take the dual path; _lp_internal is replaced by the
        primal kernel to reach phase 1 and the drive-out."""
        monkeypatch.setattr(solver, "_lp_internal", solver._simplex)
        calls = []
        phase = solver._simplex_phase

        def recorded(D, rhs, cost, basis, nonbasic, n_enter):
            start = basis.copy()
            result = phase(D, rhs, cost, basis, nonbasic, n_enter)
            calls.append((start, basis.copy(), n_enter))
            return result

        monkeypatch.setattr(solver, "_simplex_phase", recorded)
        out = solve_lp(spec)
        (_, phase1_end, _), (phase2_start, _, n_real) = calls
        return out, int(np.sum(phase1_end >= n_real)), int(np.sum(phase2_start >= n_real))

    def test_repeated_row_keeps_artificial_basic(self, monkeypatch):
        # min x1 + 2 x2 s.t. x1 + x2 = 1 twice: after x1 enters, the copy's
        # row has no real entry, so its artificial stays basic at zero
        # through phase 2.  Optimum (1, 0); the copies' duals sum to 1.
        spec = LpSpec("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], ["=", "="])
        out, phase1_end, phase2_start = self._artificials(monkeypatch, spec)
        assert (phase1_end, phase2_start) == (1, 1)
        assert out.status == "optimal"
        assert_allclose(out.primal, [1.0, 0.0], atol=FEAS_TOL)
        assert_allclose(out.objective, 1.0, atol=OBJ_TOL)
        assert_allclose(out.duals.sum(), 1.0, atol=CERT_TOL)
        check_certificate(out)

    def test_drive_out_pivots_on_real_entry(self, monkeypatch):
        # min x1 + x2 s.t. x1 = 1, x1 - x2 = 1: phase 1 ends with the second
        # row's artificial basic at zero and -1 for x2 in its row, so the
        # drive-out pivots x2 in.  Optimum (1, 0); gradient (1, 1) = A' y
        # gives the duals (2, -1).
        spec = LpSpec("min", [1.0, 1.0], [[1.0, 0.0], [1.0, -1.0]], [1.0, 1.0], ["=", "="])
        out, phase1_end, phase2_start = self._artificials(monkeypatch, spec)
        assert (phase1_end, phase2_start) == (1, 0)
        assert out.status == "optimal"
        assert_allclose(out.primal, [1.0, 0.0], atol=FEAS_TOL)
        assert_allclose(out.objective, 1.0, atol=OBJ_TOL)
        assert_allclose(out.duals, [2.0, -1.0], atol=CERT_TOL)
        check_certificate(out)


class TestDualPath:
    """A program whose slack start needs an artificial and whose internal
    cost is >= 0 with a positive entry is solved from its dual, which starts
    on its slacks: one _simplex_phase call and no phase 1.  A zero-cost
    program keeps the primal phase 1."""

    @staticmethod
    def _phases(monkeypatch, spec):
        """solve_lp(spec) and the (rows, columns) of the tableau of each
        _simplex_phase call."""
        shapes = []
        phase = solver._simplex_phase

        def recorded(D, *args):
            shapes.append(D.shape)
            return phase(D, *args)

        monkeypatch.setattr(solver, "_simplex_phase", recorded)
        return solve_lp(spec), shapes

    def test_planner_lps_run_no_phase_one(self, monkeypatch):
        # The dual tableau has one row per variable and one column per row,
        # finite upper bound and extra "=" copy.
        for spec in planner_lps():
            out, shapes = self._phases(monkeypatch, spec)
            columns = (spec.n_rows + int(np.isfinite(spec.variable_upper_bounds).sum())
                       + spec.constraint_kinds.count("="))
            assert shapes == [(spec.n_vars, columns)]
            assert out.status == "optimal"
            assert max(out.certificate.values()) <= CERT_TOL

    def test_zero_cost_keeps_phase_one(self, monkeypatch):
        # A feasibility program with an "=" row: phase 1, then phase 2 on
        # the primal tableau (two rows).
        spec = LpSpec("min", [0.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [2.0, 0.0], ["=", ">="])
        out, shapes = self._phases(monkeypatch, spec)
        assert len(shapes) == 2 and shapes[0][0] == 2
        assert out.status == "optimal"
        assert_allclose(out.primal.sum(), 2.0, atol=FEAS_TOL)
        assert out.primal[0] >= out.primal[1] - FEAS_TOL
        check_certificate(out)

    def test_equality_duals_mapped(self, monkeypatch):
        # min x1 + 2 x2 s.t. x1 + x2 = 3, x1 - x2 = 1: each "=" row's dual
        # is the difference of its +/- pair.  The optimum (2, 1) is interior
        # to the bounds, so (1, 2) = A' y gives the unique duals (3/2, -1/2).
        spec = LpSpec("min", [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [3.0, 1.0], ["=", "="])
        out, shapes = self._phases(monkeypatch, spec)
        assert shapes == [(2, 4)]
        assert out.status == "optimal"
        assert_allclose(out.primal, [2.0, 1.0], atol=FEAS_TOL)
        assert_allclose(out.objective, 4.0, atol=OBJ_TOL)
        assert_allclose(out.duals, [1.5, -0.5], atol=CERT_TOL)
        check_certificate(out)

    def test_unbounded_dual_is_infeasible(self, monkeypatch):
        # x1 + x2 = 1 and x1 + x2 >= 2: the dual's ray raises b'lam without
        # bound, so the primal is infeasible.
        spec = LpSpec("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], ["=", ">="])
        out, shapes = self._phases(monkeypatch, spec)
        assert len(shapes) == 1
        assert out.status == "infeasible"
        assert out.certificate == {"dual_unbounded": True}
        assert out.primal is None


class TestLpMemory:
    def test_planner_lp_peak(self):
        # Traced allocations of solve_lp on the 8x24 planner LP (408 rows,
        # 224 variables): 7.48 MB at peak while the simplex kept the full
        # 408 x 656 tableau and its pivot update, 3.02 MB with the condensed
        # tableau (408 x 248 at most).  Bounded below the first, so that a
        # tableau-sized temporary (2.1 MB) on top of the second fails.
        spec = planner_lps()[-1]
        tracemalloc.start()
        try:
            out = solve_lp(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.status == "optimal"
        assert peak < 4.5e6


class TestLpCycling:
    def test_beale_cycling_example(self):
        # Beale's LP cycles under most-negative pricing with the smallest
        # basic index leaving; the smallest-index fallback after a run of
        # degenerate pivots ends the cycle.
        spec = LpSpec("min", [-0.75, 20.0, -0.5, 6.0],
                      [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                       [0.0, 0.0, 1.0, 0.0]],
                      [0.0, 0.0, 1.0], ["<=", "<=", "<="])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, -1.25, atol=OBJ_TOL)
        assert_allclose(out.objective, lp_bruteforce(spec)[0], atol=OBJ_TOL)
        assert out.iterations < solver._MAX_PIVOTS // 100
        check_certificate(out)


class TestLpBoundsAndSenses:
    def test_upper_bounds_bind(self):
        spec = LpSpec("max", [1.0, 2.0], np.zeros((0, 2)), [], [],
                      variable_upper_bounds=[1.5, 2.5])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.primal, [1.5, 2.5], atol=FEAS_TOL)
        assert_allclose(out.objective, 6.5, atol=OBJ_TOL)
        # Reduced costs carry the bound multipliers under the max convention.
        assert_allclose(out.reduced_costs, [1.0, 2.0], atol=CERT_TOL)
        check_certificate(out)

    def test_shifted_lower_bounds(self):
        spec = LpSpec("min", [3.0, 1.0], [[1.0, 1.0]], [5.0], [">="],
                      variable_lower_bounds=[1.0, 1.0])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.primal, [1.0, 4.0], atol=FEAS_TOL)
        assert_allclose(out.objective, 7.0, atol=OBJ_TOL)
        check_certificate(out)

    def test_max_sense_dual_signs(self):
        # max x1 + x2 s.t. x1 + x2 <= 2: binding <= row gets a dual >= 0.
        spec = LpSpec("max", [1.0, 1.0], [[1.0, 1.0]], [2.0], ["<="])
        out = solve_lp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, 2.0, atol=OBJ_TOL)
        assert out.duals[0] >= -FEAS_TOL
        assert_allclose(out.duals[0], 1.0, atol=CERT_TOL)
        check_certificate(out)


class TestLpRandomOracle:
    def test_agrees_with_vertex_enumeration(self):
        rng = np.random.default_rng(20240817)
        n_optimal = 0
        for trial in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = np.round(rng.uniform(-2.0, 2.0, size=(m, n)) * 4.0) / 4.0
            b = np.round(rng.uniform(-1.0, 3.0, size=m) * 4.0) / 4.0
            kinds = [["<=", "<=", ">=", ">=", "="][int(k)]
                     for k in rng.integers(0, 5, size=m)]
            c = np.round(rng.uniform(-2.0, 2.0, size=n) * 4.0) / 4.0
            ub = np.round(rng.uniform(0.5, 3.0, size=n) * 4.0) / 4.0
            sense = "min" if rng.integers(0, 2) == 0 else "max"
            spec = LpSpec(sense, c, A, b, kinds, variable_upper_bounds=ub)
            out = solve_lp(spec)
            oracle = lp_bruteforce(spec)
            if oracle is None:
                assert out.status == "infeasible", f"trial {trial}"
                continue
            assert out.status == "optimal", f"trial {trial}"
            assert_allclose(out.objective, oracle[0], atol=OBJ_TOL,
                            err_msg=f"trial {trial}")
            check_certificate(out)
            n_optimal += 1
        assert n_optimal > 80


class TestLpDeterminism:
    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1.0, 1.0, size=(4, 3))
        spec_args = ("min", rng.uniform(-1, 1, 3), A, rng.uniform(0, 2, 4),
                     ["<=", ">=", "<=", "<="])
        first = solve_lp(LpSpec(*spec_args))
        second = solve_lp(LpSpec(*spec_args))
        assert first.status == second.status
        if first.status == "optimal":
            assert np.array_equal(first.primal, second.primal)
            assert np.array_equal(first.duals, second.duals)
            assert first.objective == second.objective
            assert first.iterations == second.iterations


class TestQpExamples:
    def test_scalar_concave_maximum(self):
        # max (alpha - 1) x - x^2 / 2 at alpha = 2: x* = 1, objective 1/2.
        spec = QpSpec("max", [1.0], np.zeros((0, 1)), [], [],
                      quadratic_matrix=[[-1.0]])
        out = solve_qp(spec)
        assert out.status == "optimal"
        assert_allclose(out.primal, [1.0], atol=1e-8)
        assert_allclose(out.objective, 0.5, atol=OBJ_TOL)
        check_certificate(out)

    def test_scalar_convex_minimum_at_origin(self):
        spec = QpSpec("min", [0.0], np.zeros((0, 1)), [], [],
                      quadratic_matrix=[[1.0]])
        out = solve_qp(spec)
        assert out.status == "optimal"
        assert_allclose(out.primal, [0.0], atol=1e-8)
        assert_allclose(out.objective, 0.0, atol=OBJ_TOL)

    def test_fixed_capacity_surplus_program(self):
        # max 2(x1 + x2) - (x1 + x2)^2 / 2 - 0.2(y1 + y2)
        # s.t. x_i <= y_i, y = (0.9, 0.9): capacities bind, objective 1.62.
        Q = np.zeros((4, 4))
        Q[:2, :2] = -1.0
        A = np.array([
            [1.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        spec = QpSpec("max", [2.0, 2.0, -0.2, -0.2], A,
                      [0.0, 0.0, 0.9, 0.9], ["<=", "<=", "=", "="],
                      quadratic_matrix=Q)
        out = solve_qp(spec)
        assert out.status == "optimal"
        assert_allclose(out.objective, 1.62, atol=OBJ_TOL)
        assert_allclose(out.primal, [0.9, 0.9, 0.9, 0.9], atol=1e-8)
        check_certificate(out)


class TestQpStatuses:
    def test_infeasible(self):
        spec = QpSpec("min", [0.0], [[1.0], [1.0]], [1.0, 2.0], ["<=", ">="],
                      quadratic_matrix=[[1.0]])
        out = solve_qp(spec)
        assert out.status == "infeasible"

    def test_unbounded_along_flat_direction(self):
        # Q is singular along (1, 1) and the cost decreases along that ray.
        Q = np.array([[1.0, -1.0], [-1.0, 1.0]])
        spec = QpSpec("min", [-1.0, -1.0], np.zeros((0, 2)), [], [],
                      quadratic_matrix=Q)
        out = solve_qp(spec)
        assert out.status == "unbounded"

    def test_slightly_curved_ray_stops_at_its_minimum(self):
        # Q = diag(1, 2e-11): the second eigenvalue is flat against the
        # curvature scale 1 (below 1e-10), yet far above rounding, and the
        # cost slopes along it, so the step is a ray; it stops at the
        # minimum x_2 = 1e-8 / 2e-11 = 500 instead of reporting a strictly
        # convex program unbounded.
        out = solve_qp(QpSpec("min", [0.0, -1e-8], np.zeros((0, 2)), [], [],
                              quadratic_matrix=np.diag([1.0, 2e-11])))
        assert out.status == "optimal"
        assert_allclose(out.primal, [0.0, 500.0], rtol=1e-12)
        check_certificate(out)

    def test_not_convex_raises(self):
        with pytest.raises(NotConvex):
            solve_qp(QpSpec("min", [0.0], np.zeros((0, 1)), [], [],
                            quadratic_matrix=[[-1.0]]))

    def test_small_curvature_solved_to_optimum(self):
        # Strictly convex, but every eigenvalue of Q is near 1e-10: flat
        # directions are judged against Q's own scale, not against 1.  The
        # optimum keeps row 2 and x_2, x_3 >= 0 binding, so x = (1.5, 0, 0,
        # 2 / q_4).  At |x| ~ 2e10 the absolute primal residual is about
        # 6e-6, so accuracy is asserted relative to |x|, and the certificate,
        # whose residuals are relative to the terms they sum, passes.
        q = 1e-10 * np.array([0.5, 1.3, 1.2, 0.9])
        A = np.array([[2.0, -1.0, 1.0, -2.0], [2.0, 0.0, -1.0, 0.0]])
        out = solve_qp(QpSpec("min", [0.0, 2.0, 0.0, -2.0], A, [1.0, 3.0], ["<=", ">="],
                              quadratic_matrix=np.diag(q)))
        assert out.status == "optimal"
        x = np.array([1.5, 0.0, 0.0, 2.0 / q[3]])
        expected = 0.5 * q[0] * 1.5 ** 2 - 2.0 * x[3] + 0.5 * q[3] * x[3] ** 2
        assert abs(out.objective - expected) <= 1e-9 * abs(expected)
        assert np.max(np.abs(out.primal - x)) <= 1e-9 * np.max(np.abs(x))
        assert all(value <= CERT_TOL for value in out.certificate.values())

    def test_small_negative_curvature_not_convex(self):
        # Q = 1e-10 diag(1, -0.5) is indefinite at any scale; on the unit box
        # its minimum is -2.5e-11 at (0, 1), not 0 at the origin.
        with pytest.raises(NotConvex):
            solve_qp(QpSpec("min", [0.0, 0.0], np.zeros((0, 2)), [], [],
                            variable_upper_bounds=[1.0, 1.0],
                            quadratic_matrix=1e-10 * np.diag([1.0, -0.5])))

    def test_asymmetric_quadratic_rejected(self):
        with pytest.raises(ValueError):
            QpSpec("min", [0.0, 0.0], np.zeros((0, 2)), [], [],
                   quadratic_matrix=[[1.0, 0.5], [0.0, 1.0]])


class TestQpStart:
    # min |x|^2 / 2 s.t. x1 + x2 + x3 = 3, x1 - x3 >= 1, x2 <= 0.5: all
    # three bind, so the minimum is (7/4, 1/2, 3/4), with duals (5/4, 1/2)
    # on the two rows.
    SPEC = QpSpec("min", [0.0, 0.0, 0.0], [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
                  [3.0, 1.0], ["=", ">="], variable_upper_bounds=[np.inf, 0.5, np.inf],
                  quadratic_matrix=np.eye(3))

    def test_start_skips_feasibility_lp(self, monkeypatch):
        expected = solve_qp(self.SPEC)

        def no_lp(spec):
            raise AssertionError("a feasibility LP ran")

        monkeypatch.setattr(solver, "solve_lp", no_lp)
        # The last start is off the "=" row by 2e-9, inside the tolerance.
        for start in ([3.0, 0.0, 0.0], [2.0, 0.5, 0.5], [2.0, 0.0, 1.0 - 2e-9]):
            out = solve_qp(self.SPEC, start=start)
            assert out.status == "optimal"
            assert_allclose(out.primal, [1.75, 0.5, 0.75], atol=FEAS_TOL)
            assert_allclose(out.duals, [1.25, 0.5], atol=CERT_TOL)
            assert_allclose(out.primal, expected.primal, atol=1e-12)
            assert_allclose(out.duals, expected.duals, atol=1e-12)
            check_certificate(out)

    def test_never_poses_an_lp(self, monkeypatch):
        # The QP finds its first feasible point by its own phase 1, or
        # crosses a start over onto a basis: solve_lp never runs, whether
        # the program is feasible or not.
        def no_lp(spec):
            raise AssertionError("solve_qp posed an LP")

        monkeypatch.setattr(solver, "solve_lp", no_lp)
        for start in (None, [3.0, 0.0, 0.0]):
            out = solve_qp(self.SPEC, start=start)
            assert out.status == "optimal"
            assert_allclose(out.primal, [1.75, 0.5, 0.75], atol=FEAS_TOL)
        infeasible = QpSpec("min", [0.0], [[1.0], [1.0]], [1.0, 2.0], ["<=", ">="],
                            quadratic_matrix=[[1.0]])
        out = solve_qp(infeasible)
        assert out.status == "infeasible" and out.certificate["phase1_objective"] > 0.0

    def test_small_entries_survive_the_crossover(self):
        # min |x - t|^2 / 2 over x1 + x2 + x3 <= sum(t), x <= 1e6: the
        # optimum is t, whose small entries sit next to ub-row slacks of
        # about 1e6.  Started at t, the crossover must keep them (entries
        # at rounding level count as zero, judged against their own terms).
        t = np.array([1e-6, 1.0, 3e-7])
        spec = QpSpec("min", -t, [[1.0, 1.0, 1.0]], [t.sum()], ["<="],
                      variable_upper_bounds=np.full(3, 1e6), quadratic_matrix=np.eye(3))
        for start in (None, t):
            out = solve_qp(spec, start=start)
            assert out.status == "optimal"
            assert_allclose(out.primal, t, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("start", [[3.0, 0.0, 1e-7], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0],
                                       [3.2, 0.0, -0.2], [0.0, 0.0], [np.nan] * 3])
    def test_infeasible_start_raises(self, start):
        with pytest.raises(ValueError):
            solve_qp(self.SPEC, start=start)


    @pytest.mark.parametrize("scale", [1.0, 1e9])
    def test_start_check_is_relative(self, scale):
        # min (x - 2 s)^2 / 2 + s y s.t. x - y <= 0, a homogeneous row like
        # the planners' capacity rows, with optimum (s, s): the start is
        # judged relative to |A| |v|, so a start off by 1e-12 relative
        # passes in any units and one off by 1e-6 relative raises.
        spec = QpSpec("min", [-2.0 * scale, scale], [[1.0, -1.0]], [0.0], ["<="],
                      quadratic_matrix=np.diag([1.0, 0.0]))
        out = solve_qp(spec, start=[scale * (1.0 + 1e-12), scale])
        assert out.status == "optimal"
        assert_allclose(out.primal, [scale, scale], rtol=1e-12)
        with pytest.raises(ValueError, match="start violates"):
            solve_qp(spec, start=[scale * (1.0 + 1e-6), scale])


class TestUniqueOptimum:
    """SolveOutcome.unique_optimum: the QP kernel's proof, from strict
    complementarity and a positive definite reduced Hessian, that its
    optimum is the only one.  A reduced cost within the pricing tolerance
    counts as zero, so a unique optimum may go unproven, never the
    reverse; an LP never carries the proof."""

    @pytest.mark.parametrize("start", [None, [0.0, 1.0]])
    def test_strictly_convex_is_unique(self, start):
        # min |x - (1, 1)|^2 / 2 s.t. x1 + x2 <= 1: (1/2, 1/2), row dual 1/2.
        spec = QpSpec("min", [-1.0, -1.0], [[1.0, 1.0]], [1.0], ["<="],
                      quadratic_matrix=np.eye(2))
        out = solve_qp(spec, start=start)
        assert_allclose(out.primal, [0.5, 0.5], atol=1e-12)
        assert out.unique_optimum

    def test_strict_vertex_of_a_linear_objective_is_unique(self):
        # Q = 0: min x1 + 2 x2 s.t. x1 + x2 >= 1 at (1, 0), every reduced
        # cost of the vertex positive.
        spec = QpSpec("min", [1.0, 2.0], [[1.0, 1.0]], [1.0], [">="],
                      quadratic_matrix=np.zeros((2, 2)))
        out = solve_qp(spec)
        assert_allclose(out.primal, [1.0, 0.0], atol=1e-12)
        assert out.unique_optimum

    @pytest.mark.parametrize("start", [None, [0.5, 0.5]])
    def test_flat_optimal_face_is_not_unique(self, start):
        # min (x1 + x2 - 1)^2: every point of x1 + x2 = 1, x >= 0 is
        # optimal.  From the start both coordinates stay superbasic, and
        # only the reduced Hessian, of rank 1, shows the face.
        spec = QpSpec("min", [-2.0, -2.0], np.zeros((0, 2)), [], [],
                      quadratic_matrix=2.0 * np.ones((2, 2)))
        out = solve_qp(spec, start=start)
        assert out.status == "optimal"
        assert_allclose(out.primal.sum(), 1.0, atol=1e-12)
        assert not out.unique_optimum

    def test_vertex_with_a_zero_reduced_cost_is_not_proven(self):
        # min x1^2 / 2 + x2 s.t. x1 + x2 >= 1: the optimum (1, 0) is unique
        # (along the row the objective is 1/2 + x2^2 / 2), but x2's reduced
        # cost is 0, so the first-order proof does not hold.
        spec = QpSpec("min", [0.0, 1.0], [[1.0, 1.0]], [1.0], [">="],
                      quadratic_matrix=np.diag([1.0, 0.0]))
        out = solve_qp(spec)
        assert_allclose(out.primal, [1.0, 0.0], atol=1e-12)
        assert_allclose(out.reduced_costs, [0.0, 0.0], atol=1e-12)
        assert not out.unique_optimum

    def test_lp_carries_no_proof(self):
        out = solve_lp(LpSpec("min", [1.0, 2.0], [[1.0, 1.0]], [1.0], [">="]))
        assert_allclose(out.primal, [1.0, 0.0], atol=1e-12)
        assert not out.unique_optimum


class TestNoVariables:
    """An m x 0 constraint matrix keeps its m rows: a program over no
    variables is optimal at the empty point exactly when every row holds
    at 0 (only a 1-d empty matrix means "no rows")."""

    def test_shapes(self):
        assert LpSpec("min", [], np.zeros((2, 0)), [1.0, 0.0], ["<=", "="]).n_rows == 2
        assert LpSpec("min", [1.0, 2.0], [], [], []).constraint_matrix.shape == (0, 2)

    @pytest.mark.parametrize("rhs, status", [([1.0, 0.0], "optimal"),
                                             ([-1.0, 0.0], "infeasible"),
                                             ([1.0, 2.0], "infeasible")])
    def test_status(self, rhs, status):
        out = solve_qp(QpSpec("min", [], np.zeros((2, 0)), rhs, ["<=", "="],
                              quadratic_matrix=np.zeros((0, 0))))
        assert out.status == status
        if status == "optimal":
            assert out.primal.shape == (0,) and out.duals.tolist() == [0.0, 0.0]


CERTIFIED = pytest.mark.parametrize("solve, spec", [
    # min x1 + 2 x2 s.t. x1 + x2 >= 3, x1 - x2 = 1: x = (2, 1).
    (solve_lp, LpSpec("min", [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [3.0, 1.0],
                      [">=", "="])),
    # min (x1^2 + x2^2) / 2 s.t. x1 + x2 = 2, x1 <= 3: x = (1, 1).
    (solve_qp, QpSpec("min", [0.0, 0.0], [[1.0, 1.0], [1.0, 0.0]], [2.0, 3.0],
                      ["=", "<="], quadratic_matrix=np.eye(2))),
    # max x1 + 2 x2 s.t. x1 + x2 <= 4, x1 - x2 >= -1, (1, 0.5) <= x <= (inf, 2):
    # x = (2, 2), the upper bound of x2 binding with reduced cost 1.
    (solve_lp, LpSpec("max", [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [4.0, -1.0],
                      ["<=", ">="], variable_lower_bounds=[1.0, 0.5],
                      variable_upper_bounds=[np.inf, 2.0])),
], ids=["lp", "qp", "bounded-lp"])


def _gradient(spec, x):
    """The stated objective's gradient at x."""
    if isinstance(spec, QpSpec):
        return spec.cost + spec.quadratic_matrix @ x
    return spec.cost


class TestCertificate:
    """_certificate's residuals are relative, yet a primal moved by 1e-3 in
    any one entry of a desk-scale optimum fails them."""

    @CERTIFIED
    @pytest.mark.parametrize("entry", [0, 1])
    @pytest.mark.parametrize("shift", [1e-3, -1e-3])
    def test_perturbed_primal_fails(self, solve, spec, entry, shift):
        out = solve(spec)
        assert out.status == "optimal"

        def residuals(x):
            return _certificate(spec, _folded(spec), x, out.duals, out.reduced_costs)

        assert max(residuals(out.primal)) <= CERT_TOL
        x = out.primal.copy()
        x[entry] += shift
        assert max(residuals(x)) > CERT_TOL


class TestOptimalGate:
    """_optimal, the one builder of an optimal SolveOutcome, rebuilds the
    solver's own answer, and refuses a primal or a dual moved by 1e-3 in any
    one entry with NumericBreakdown."""

    @CERTIFIED
    @pytest.mark.parametrize("field", ["primal", "duals"])
    @pytest.mark.parametrize("entry", [0, 1])
    def test_perturbed_entry_raises(self, solve, spec, field, entry):
        out = solve(spec)
        rebuilt = _optimal(spec, _folded(spec), out.primal, out.duals,
                           _gradient(spec, out.primal), out.objective, out.iterations)
        assert rebuilt.certificate == out.certificate
        assert rebuilt.reduced_costs.tobytes() == out.reduced_costs.tobytes()
        x, duals = out.primal.copy(), out.duals.copy()
        (x if field == "primal" else duals)[entry] += 1e-3
        with pytest.raises(NumericBreakdown, match="certificate"):
            _optimal(spec, _folded(spec), x, duals, _gradient(spec, x), out.objective,
                     out.iterations)


class TestQpAgainstClosedForms:
    def test_diagonal_box_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            q = np.round(rng.uniform(0.0, 3.0, size=n) * 4.0) / 4.0
            c = np.round(rng.uniform(-2.0, 2.0, size=n) * 4.0) / 4.0
            lb = np.zeros(n)
            ub = np.round(rng.uniform(0.5, 2.0, size=n) * 4.0) / 4.0
            sense = "min" if rng.integers(0, 2) == 0 else "max"
            sign = 1.0 if sense == "min" else -1.0
            # Keep the stated objective convex for min / concave for max.
            spec = QpSpec(sense, c, np.zeros((0, n)), [], [],
                          variable_upper_bounds=ub,
                          quadratic_matrix=np.diag(sign * q))
            expected_obj, expected_x = qp_box_diagonal_oracle(sign * q, c, lb, ub, sense)
            out = solve_qp(spec)
            assert out.status == "optimal", f"trial {trial}"
            assert_allclose(out.objective, expected_obj, atol=OBJ_TOL,
                            err_msg=f"trial {trial}")
            assert_allclose(out.primal, expected_x, atol=1e-7,
                            err_msg=f"trial {trial}")
            check_certificate(out)

    def test_random_coupled_kkt(self):
        rng = np.random.default_rng(29)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            M = rng.uniform(-1.0, 1.0, size=(k, n))
            Q = M.T @ M
            c = rng.uniform(-1.5, 1.5, size=n)
            A = rng.uniform(-1.0, 1.0, size=(m, n))
            b = rng.uniform(0.2, 2.0, size=m)
            spec = QpSpec("min", c, A, b, ["<="] * m,
                          variable_upper_bounds=np.full(n, 3.0),
                          quadratic_matrix=Q)
            out = solve_qp(spec)
            assert out.status == "optimal", f"trial {trial}"
            check_certificate(out)
            # Convexity makes any KKT point global: no sampled feasible point
            # may beat the reported objective.
            for _ in range(40):
                x = rng.uniform(0.0, 3.0, size=n)
                if np.all(A @ x <= b + 1e-12):
                    assert spec.cost @ x + 0.5 * x @ Q @ x >= out.objective - 1e-7

    def test_determinism(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        args = ("min", [-1.0, -2.0], [[1.0, 1.0]], [1.5], ["<="])
        first = solve_qp(QpSpec(*args, quadratic_matrix=Q))
        second = solve_qp(QpSpec(*args, quadratic_matrix=Q))
        assert np.array_equal(first.primal, second.primal)
        assert np.array_equal(first.duals, second.duals)
        assert first.objective == second.objective


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(-2, 2).map(float)


@st.composite
def repeated_row_qps(draw):
    """(spec, repeated, reps): a convex QP with Q = M'M, rank(M) <= n, so
    reduced Hessians can be singular, rows of all three kinds plus a bounding
    sum row, and the same program with row j repeated reps[j] times (one to
    three), the copies next to each other.  Depending on a drawn flag, the rows hold at an integer point x0 inside
    the sum row, or the right-hand sides are arbitrary."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, n))
    M = np.array(draw(st.lists(small_ints, min_size=k * n, max_size=k * n))).reshape(k, n)
    sense = draw(st.sampled_from(["min", "max"]))
    Q = (1.0 if sense == "min" else -1.0) * (M.T @ M)
    cost = np.array(draw(st.lists(small_ints, min_size=n, max_size=n)))
    A = np.array(draw(st.lists(small_ints, min_size=m * n, max_size=m * n))).reshape(m, n)
    kinds = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    if draw(st.booleans()):
        x0 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
        margin = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
        rhs = A @ x0 + np.select([np.array(kinds) == "<=", np.array(kinds) == ">="],
                                 [margin, -margin], 0.0)
        total = float(x0.sum() + draw(st.integers(0, 2)))
    else:
        rhs = np.array(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dtype=float)
        total = float(draw(st.integers(0, 4)))
    A, rhs, kinds = np.vstack([A, np.ones(n)]), np.append(rhs, total), kinds + ["<="]
    reps = draw(st.lists(st.integers(1, 3), min_size=m + 1, max_size=m + 1))
    spec = QpSpec(sense, cost, A, rhs, kinds, quadratic_matrix=Q)
    repeated = QpSpec(sense, cost, np.repeat(A, reps, axis=0), np.repeat(rhs, reps),
                      list(np.repeat(kinds, reps)), quadratic_matrix=Q)
    return spec, repeated, reps


def kkt_residuals(spec, out):
    """Largest stationarity, sign, complementarity and feasibility
    residuals of (primal, duals, reduced_costs), recomputed from the spec
    in the module's sign convention: grad = A' duals + reduced_costs."""
    x, duals, reduced = out.primal, out.duals, out.reduced_costs
    A, b = spec.constraint_matrix, spec.constraint_rhs
    kinds = np.array(spec.constraint_kinds)
    lb, ub = spec.variable_lower_bounds, spec.variable_upper_bounds
    sign = 1.0 if spec.objective_sense == "min" else -1.0
    grad = spec.quadratic_matrix @ x + spec.cost
    resid = A @ x - b
    up = np.where(kinds == ">=", -1.0, 1.0)
    # In minimization terms, up * sign * duals <= 0 off the "=" rows, and a
    # reduced cost is >= 0 at a lower bound and <= 0 at an upper bound.
    d_min, r_min = sign * duals, sign * reduced
    stationarity = np.max(np.abs(grad - A.T @ duals - reduced), initial=0.0)
    wrong_sign = max(np.max((up * d_min)[kinds != "="], initial=0.0),
                     np.max(np.where(np.isfinite(ub), 0.0, -r_min), initial=0.0))
    complementarity = max(
        np.max(np.abs(duals * resid), initial=0.0),
        np.max(np.where(r_min > 0.0, r_min * (x - lb), 0.0), initial=0.0),
        np.max(np.where(r_min < 0.0, -r_min * np.where(np.isfinite(ub), ub - x, 0.0), 0.0),
               initial=0.0))
    infeasibility = max(np.max(np.where(kinds == "=", np.abs(resid), up * resid), initial=0.0),
                        np.max(lb - x, initial=0.0), np.max(x - ub, initial=0.0))
    return stationarity, wrong_sign, complementarity, infeasibility


class TestQpRepeatedRows:
    """A repeated row is linearly dependent on its first copy.  The working
    set keeps only rows independent of those already in it, so a repeated
    row must leave the status, the objective and the KKT residuals
    unchanged.  The multipliers of dependent "=" rows are not unique; the
    reported ones are the minimum-norm solution, which gives the copies of
    a repeated "=" row equal duals.  Across the two forms duals are compared
    only through the KKT residuals, since the minimum-norm split of a
    program with dependent rows need not sum to the multiplier of the
    program without copies."""

    @PROPERTY
    @given(repeated_row_qps())
    def test_repeated_rows_keep_status_objective_and_kkt(self, case):
        spec, repeated, reps = case
        out, out_repeated = solve_qp(spec), solve_qp(repeated)
        assert out.status == out_repeated.status
        if out.status != "optimal":
            return
        assert abs(out.objective - out_repeated.objective) <= 1e-9 * (1.0 + abs(out.objective))
        for program, outcome in ((spec, out), (repeated, out_repeated)):
            assert max(kkt_residuals(program, outcome)) <= CERT_TOL
        first = np.cumsum(reps) - reps
        for j in np.flatnonzero(np.array(spec.constraint_kinds) == "="):
            copies = out_repeated.duals[first[j]:first[j] + reps[j]]
            assert np.all(np.abs(copies - copies[0]) <= 1e-9 * (1.0 + abs(copies[0])))

    @pytest.mark.parametrize("row, other, kind, curvature, cost", [
        ([2.0, -2.0, -1.0, 2.0], [0.0, -1.0, 2.0, 1.0], "<=", 1e-5 * np.array([0.6, 1.3, 0.8, 1.6]),
         [-3.0, 1.0, -2.0, -2.0]),
        ([2.0, 2.0, -1.0, -2.0], [0.0, 2.0, 2.0, 0.0], "<=", 1e-6 * np.array([0.9, 0.8, 1.8, 1.4]),
         [-2.0, -3.0, -3.0, -1.0]),
        ([0.0, 1.0, -2.0, -2.0], [-2.0, 2.0, 2.0, 0.0], ">=", 1e-6 * np.array([1.4, 0.7, 2.0, 1.7]),
         [2.0, 1.0, 0.0, -2.0]),
    ])
    def test_copy_of_working_row_on_long_steps(self, row, other, kind, curvature, cost):
        """A nearly flat objective takes steps of length 1e5 to 1e6, along
        which rounding makes the second copy of a working row look like a
        blocking row; the copy must not change the answer."""
        Q = np.diag(curvature)
        spec = QpSpec("min", cost, [row, other], [1.0, 3.0], ["<=", kind], quadratic_matrix=Q)
        repeated = QpSpec("min", cost, [row, row, other], [1.0, 1.0, 3.0], ["<=", "<=", kind],
                          quadratic_matrix=Q)
        objective, _ = qp_bruteforce(spec)
        for program in (spec, repeated):
            out = solve_qp(program)
            assert out.status == "optimal"
            assert abs(out.objective - objective) <= 1e-9 * (1.0 + abs(objective))
            assert max(kkt_residuals(program, out)) <= CERT_TOL


@st.composite
def strictly_convex_qps(draw):
    """A QpSpec with n <= 4 and a strictly convex objective (strictly
    concave for "max"): Q = M'M + diag(d) with d >= 1.  Up to four rows of
    all three kinds; lower bounds from -2 to 1 and upper bounds 1 to 3
    above them or infinite.  Depending on a drawn flag, the rows hold at an
    integer point inside the bounds, or the right-hand sides are arbitrary
    (so some programs are infeasible)."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))
    M = np.array(draw(st.lists(small_ints, min_size=k * n, max_size=k * n))).reshape(k, n)
    d = np.array(draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)), dtype=float)
    sense = draw(st.sampled_from(["min", "max"]))
    Q = (1.0 if sense == "min" else -1.0) * (M.T @ M + np.diag(d))
    cost = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    A = np.array(draw(st.lists(small_ints, min_size=m * n, max_size=m * n))).reshape(m, n)
    kinds = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    lb = np.array(draw(st.lists(st.integers(-2, 1), min_size=n, max_size=n)), dtype=float)
    ub = lb + np.array(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, np.inf]),
                                     min_size=n, max_size=n)))
    if draw(st.booleans()):
        x0 = lb + np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        margin = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
        rhs = A @ x0 + np.select([np.array(kinds) == "<=", np.array(kinds) == ">="],
                                 [margin, -margin], 0.0)
    else:
        rhs = np.array(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dtype=float)
    return QpSpec(sense, cost, A, rhs, kinds, lb, ub, quadratic_matrix=Q)


class TestQpAgainstBruteForce:
    """solve_qp against active-set enumeration (oracles.qp_bruteforce) on
    small strictly convex programs, whose optimum is unique: the same
    status, and the same objective and optimal point."""

    @PROPERTY
    @given(strictly_convex_qps())
    def test_matches_enumeration(self, spec):
        out, oracle = solve_qp(spec), qp_bruteforce(spec)
        assert out.status == ("infeasible" if oracle is None else "optimal")
        if oracle is None:
            return
        objective, x = oracle
        assert abs(out.objective - objective) <= 1e-9 * (1.0 + abs(objective))
        assert np.all(np.abs(out.primal - x) <= 1e-9 * (1.0 + np.abs(x)))
        assert max(kkt_residuals(spec, out)) <= CERT_TOL


class TestQpWarmStart:
    """On strictly convex programs the optimum is unique, so a warm start
    from another feasible point (a vertex: the optimum of an LP over the
    same constraints with a drawn cost >= 0) and the cold solve from phase 1
    must reach the same point."""

    @PROPERTY
    @given(strictly_convex_qps(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_warm_start_matches_cold(self, spec, lp_cost):
        cold = solve_qp(spec)
        if cold.status != "optimal":
            return
        vertex = solve_lp(LpSpec("min", lp_cost[:spec.n_vars], spec.constraint_matrix,
                                 spec.constraint_rhs, spec.constraint_kinds,
                                 spec.variable_lower_bounds, spec.variable_upper_bounds))
        assert vertex.status == "optimal"
        warm = solve_qp(spec, start=vertex.primal)
        assert warm.status == "optimal"
        assert np.all(np.abs(warm.primal - cold.primal) <= 1e-9 * (1.0 + np.abs(cold.primal)))
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
