"""Outside-in span recorder for the robust_peakload layers.

`Recorder.install` replaces every traced library function at every module
binding that holds it.  The package's modules import each other with
`from ... import`, so `robust.solve_lp`, `geometry.solve_lp` and
`market.solve_lp` are separate bindings of one function; patching only
`solver.solve_lp` would miss the calls made from the other modules.
`Recorder.uninstall` puts the original functions back, so untraced passes run
the library exactly as shipped.

A span is (name, start, end, parent span index, operation id, info).  Spans
stay in memory and are written out once, when the benchmark ends.  A call of
a function from inside its own span (recursion, as in `canonical_dumps`) is
not recorded as a new span.
"""

import functools
import json
import time

import numpy as np

MODULES = ("solver", "geometry", "market", "robust", "poa", "subsidy", "risk",
           "instancefile", "cli")

# Private helpers that carry work a per-layer metric needs to see: the
# worst-case re-solve, the canonicalizing QPs, the subsidy audit and
# verification, and the hull conversion behind the risk sets.
PRIVATE_TRACED = {
    "robust": ("_worst_case_gain", "_min_norm_optimum", "_min_norm_duals"),
    "subsidy": ("_interior_audit", "_verification"),
    "geometry": ("_convert_hull",),
}

# Solver work models, computed from the spec shapes and the iteration counts
# the solver reports; nothing here is measured by hardware counters.
#   LP: each simplex iteration updates the whole m x ncols tableau and prices
#       it (about 4*m*ncols flops); the final basis solves cost about
#       (4/3)*m^3.
#   QP: each active-set iteration computes a null-space basis by full SVD
#       (about 22*n^3) and eigendecomposes the reduced Hessian (about
#       9*n^3); the convexity check costs about (4/3)*n^3 once.
LP_FLOPS_PER_CELL_ITER = 4.0
QP_FLOPS_PER_ITER_CUBE = 31.0


def _lp_shape(spec):
    kinds = spec.constraint_kinds
    n_ub = int(np.isfinite(spec.variable_upper_bounds).sum())
    m = spec.n_rows + n_ub
    n_eq = kinds.count("=")
    n_ge = kinds.count(">=")
    n_le = len(kinds) - n_eq - n_ge + n_ub
    ncols = spec.n_vars + n_le + n_ge + (n_ge + n_eq)
    return m, ncols


def _cert_max(outcome):
    values = [v for k, v in outcome.certificate.items()
              if k in ("primal_residual", "dual_residual", "complementarity",
                       "duality_gap")]
    return max(values, default=0.0)


def _lp_info(args, result):
    spec = args[0]
    m, ncols = _lp_shape(spec)
    flops = (LP_FLOPS_PER_CELL_ITER * m * ncols * result.iterations
             + (4.0 / 3.0) * m ** 3)
    return {"status": result.status, "iters": result.iterations,
            "rows": spec.n_rows, "vars": spec.n_vars, "flops": flops,
            "cert": _cert_max(result)}


def _qp_info(args, result):
    spec = args[0]
    n = spec.n_vars
    flops = QP_FLOPS_PER_ITER_CUBE * n ** 3 * result.iterations + (4.0 / 3.0) * n ** 3
    return {"status": result.status, "iters": result.iterations,
            "rows": spec.n_rows, "vars": n, "flops": flops,
            "cert": _cert_max(result)}


def _count_info(args, result):
    return {"count": len(result)}


INFO = {
    "solver.solve_lp": _lp_info,
    "solver.solve_qp": _qp_info,
    "robust.lifted_vertices": _count_info,
}


class Recorder:
    """Collects spans from the traced library functions of one process."""

    def __init__(self, package):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._bindings = []
        originals = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, value in vars(module).items():
                if not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE_TRACED.get(mod_name, ()):
                    continue
                originals[id(value)] = (value, f"{mod_name}.{attr}")
        self._wrappers = {key: self._wrap(fn, name)
                          for key, (fn, name) in originals.items()}
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, value in vars(module).items():
                if id(value) in self._wrappers:
                    self._bindings.append((module, attr, value))

    def _wrap(self, fn, name):
        info = INFO.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def install(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[id(original)])

    def uninstall(self):
        for module, attr, original in self._bindings:
            setattr(module, attr, original)

    @property
    def binding_count(self):
        return len(self._bindings)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, info in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op,
                                         "info": info}) + "\n")


def _ancestor_names(spans, index):
    names = set()
    parent = spans[index][3]
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names


def layer_metrics(spans, n_ops, unexpected_exits):
    """Per-operation layer metrics from the spans of `n_ops` traced
    operations.  Times are seconds per operation, counts are per operation,
    shares are ratios of totals."""
    total = {}
    self_time = {}
    calls = {}
    children = [[] for _ in spans]
    for index, (name, start, end, parent, _, _) in enumerate(spans):
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        self_time[name] = self_time.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            children[parent].append(index)
            self_time[spans[parent][0]] = self_time.get(spans[parent][0], 0.0) - duration

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    # A call that raised has no info; it counts as a non-optimal solve.
    lp = [s[5] for s in spans if s[0] == "solver.solve_lp" and s[5] is not None]
    qp = [s[5] for s in spans if s[0] == "solver.solve_qp" and s[5] is not None]
    solves = lp + qp
    raised = c("solver.solve_lp", "solver.solve_qp") - len(solves)
    cp_elastic_qp = 0
    fallbacks = 0
    scenario_cells = 0
    for index, span in enumerate(spans):
        name = span[0]
        if name == "solver.solve_qp" and "robust.solve_robust_cp_elastic" in _ancestor_names(spans, index):
            cp_elastic_qp += 1
        elif name == "solver.solve_lp" and span[5] is not None and span[3] >= 0 \
                and spans[span[3]][0] == "robust.adjustable_scenario_form_fixed":
            scenario_cells += span[5]["rows"] * span[5]["vars"]
        elif name == "robust.solve_robust_cp_fixed":
            if any(spans[k][0] == "robust.worst_case_scenario" for k in children[index]):
                fallbacks += 1
        elif name == "robust.solve_robust_lp":
            gains = sum(spans[k][0] == "robust._worst_case_gain" for k in children[index])
            if gains > 1:
                fallbacks += 1
    compute_s = t("subsidy.compute_subsidies")
    per_op = {
        "solver.lp_calls": c("solver.solve_lp"),
        "solver.lp_s": t("solver.solve_lp"),
        "solver.lp_iters": sum(i["iters"] for i in lp),
        "solver.lp_flops_computed": sum(i["flops"] for i in lp),
        "solver.qp_calls": c("solver.solve_qp"),
        "solver.qp_self_s": self_time.get("solver.solve_qp", 0.0),
        "solver.qp_iters": sum(i["iters"] for i in qp),
        "solver.qp_flops_computed": sum(i["flops"] for i in qp),
        "solver.nonoptimal": raised + sum(i["status"] != "optimal" for i in solves),
        "robust.cp_elastic_qp_calls": cp_elastic_qp,
        "robust.lifted_vertices": sum(s[5]["count"] for s in spans
                                      if s[0] == "robust.lifted_vertices" and s[5]),
        "robust.dispatch_calls": c("robust.dispatch_at_capacity"),
        "robust.dispatch_s": t("robust.dispatch_at_capacity"),
        "robust.adjustable_s": t("robust.verify_adjustable_equivalence"),
        "robust.scenario_form_s": t("robust.adjustable_scenario_form_fixed"),
        "robust.scenario_form_cells": scenario_cells,
        "robust.cp_fixed_s": t("robust.solve_robust_cp_fixed"),
        "robust.market_s": t("robust.solve_robust_market_fixed",
                             "robust.solve_robust_market_elastic"),
        "robust.worst_case_calls": c("robust.worst_case_scenario"),
        "robust.worst_u_fallbacks": fallbacks,
        "subsidy.compute_s": compute_s,
        "subsidy.pinned_calls": c("subsidy.solve_fixed_capacity_welfare"),
        "subsidy.pinned_s": t("subsidy.solve_fixed_capacity_welfare"),
        "subsidy.verify_s": t("subsidy.verify_subsidized_equilibrium"),
        "poa.fixed_s": t("poa.poa_fixed"),
        "poa.elastic_s": t("poa.poa_elastic"),
        "market.dispatch_calls": c("market.solve_fixed_dispatch"),
        "market.dispatch_s": t("market.solve_fixed_dispatch"),
        "market.welfare_calls": c("market.solve_elastic_welfare"),
        "market.welfare_s": t("market.solve_elastic_welfare"),
        "geometry.validate_calls": c("geometry.validate"),
        "geometry.validate_s": t("geometry.validate"),
        "geometry.tau_s": t("geometry.tau"),
        "geometry.enum_calls": c("geometry.enumerate_vertices"),
        "geometry.enum_s": t("geometry.enumerate_vertices"),
        "geometry.lift_calls": c("geometry.lift_product"),
        "geometry.hull_s": sum(s[2] - s[1] for s in spans
                               if s[0] in ("geometry.hull_to_inequalities",
                                           "geometry._convert_hull")
                               and (s[3] < 0 or spans[s[3]][0] != "geometry.hull_to_inequalities")),
        "risk.build_s": t("risk.build_mvar_set", "risk.build_coherent_set"),
        "instancefile.load_s": t("instancefile.load_instance"),
        "instancefile.dumps_s": t("instancefile.canonical_dumps"),
        "cli.main_self_s": self_time.get("cli.main", 0.0),
        "cli.unexpected_exits": unexpected_exits,
    }
    metrics = {name: value / n_ops for name, value in per_op.items()}
    metrics["solver.lp_zero_iter_share"] = (
        sum(i["iters"] == 0 for i in lp) / len(lp) if lp else 0.0)
    metrics["subsidy.audit_share"] = (
        t("subsidy._interior_audit") / compute_s if compute_s else 0.0)
    metrics["solver.cert_residual_max"] = max((i["cert"] for i in solves), default=0.0)
    return metrics


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_share"):
        return "share"
    if name == "solver.cert_residual_max":
        return "residual"
    if name.endswith("_flops_computed"):
        return "flop/op"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s/op"
    return "count/op"
