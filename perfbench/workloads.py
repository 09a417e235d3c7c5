"""Seeded instances and the three benchmark workloads.

A workload is a fixed list of operations, run in order as one pass.  An
operation is one workflow call on one generated instance.  It returns the
bytes that enter its result digest and the list of output checks it failed.

Library calls go through module attributes (`poa.poa_elastic`, not a name
imported into this file), so the trace recorder sees them.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from robust_peakload import cli, instancefile, poa, robust, subsidy
from robust_peakload.geometry import Polytope, box, simplex
from robust_peakload.market import AffineElastic, Fixed, MarketInstance, Producer

ORDER_TOL = 1e-7
SADDLE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-7
KKT_TOL = 1e-7

UNEXPECTED_EXIT = "unexpected exit code"


def budget(n):
    """The budget set {u >= 0 : u <= 1, sum u <= 2}."""
    return Polytope(n, np.vstack([np.eye(n), np.ones((1, n))]),
                    np.concatenate([np.ones(n), [2.0]]))


SETS = {"simplex": simplex, "box": box, "budget": budget}


def fixed_market(rng, N, T, kind):
    producers = [Producer(c_inv=rng.uniform(0.5, 2.0), c_var=rng.uniform(0.5, 1.5),
                          a=rng.uniform(0.5, 1.5)) for _ in range(N)]
    return MarketInstance(producers=producers, demand=Fixed(rng.uniform(1.0, 3.0, T)),
                          T=T, uncertainty=SETS[kind](N))


def elastic_market(rng, N, T, kind):
    producers = [Producer(c_inv=rng.uniform(0.05, 0.5), c_var=rng.uniform(0.0, 1.0),
                          a=rng.uniform(0.5, 3.0)) for _ in range(N)]
    demand = AffineElastic(rng.uniform(2.0, 6.0, T), rng.uniform(0.5, 2.0, T))
    return MarketInstance(producers=producers, demand=demand, T=T,
                          uncertainty=SETS[kind](N))


@dataclass
class Op:
    label: str
    rung: Optional[tuple]
    run: Callable
    # Whether the run reports this operation's time scaled to the reference
    # machine speed (speed.py), or as measured.
    scaled: bool = True


@dataclass
class Workload:
    ops: list
    instance_digests: dict
    top_rung: tuple


def _pack(*values):
    """Bytes of numeric results, for the digest."""
    parts = []
    for value in values:
        if isinstance(value, (list, tuple)):
            parts.append(_pack(*value))
        else:
            parts.append(np.asarray(value, dtype=float).tobytes())
        parts.append(b"|")
    return b"".join(parts)


def _rel(value, scale):
    return value * (1.0 + abs(scale))


# ---------------------------------------------------------------------------
# fixed_cli_ladder: the LP-only path through the command line


def _cli_op(label, rung, argv, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            return b"", [f"{UNEXPECTED_EXIT} {code}: {err.getvalue().strip()}"]
        report = json.loads(out.getvalue())
        report.pop("timing")
        report.pop("flags")
        return json.dumps(report, sort_keys=True).encode(), check(report)

    return Op(label, rung, run)


def _check_poa_fixed(report):
    res = report["results"]
    problems = []
    if res["within_bound"] is not True:
        problems.append(f"ratio {res['ratio']} exceeds bound {res['bound']}")
    if res["E"] < res["C"] - _rel(ORDER_TOL, res["C"]):
        problems.append(f"market cost E {res['E']} below planner cost C {res['C']}")
    gap = report["certificates"].get("max_closed_form_gap")
    if gap is not None and gap > CLOSED_FORM_TOL:
        problems.append(f"closed-form gap {gap}")
    return problems


def _check_saddle(report):
    gap = report["certificates"]["saddle_gap"]
    return [f"saddle gap {gap}"] if gap > SADDLE_TOL else []


def _check_tau(report):
    cert = report["certificates"]
    return [] if cert["witness_in_set"] is True else ["tau witness outside the set"]


def _write(workdir, name, data):
    path = os.path.join(workdir, name)
    instancefile.write_instance(path, data)
    return path, instancefile.instance_digest(data)


def _rng(source, seed, workload, rung):
    """Generator for one rung: the run seed draws fresh instances, SUITE_SEED
    the fixed suite (one stream per workload and rung, so that changing one
    rung leaves the instances of the others as they were)."""
    return np.random.default_rng([seed if source == "seed" else SUITE_SEED,
                                  workload, rung])


def build_fixed_cli_ladder(seed, workdir):
    ops, digests = [], {}

    def add_file(name, rung, data, commands):
        path, digests[name] = _write(workdir, name, data)
        for command in commands:
            if command == "poa":
                argv, check = ["poa", "--instance", path], _check_poa_fixed
            elif command == "solve":
                argv, check = ["solve", "--instance", path, "--mode", "robust-cp"], _check_saddle
            else:
                argv, check = ["tau", "--instance", path], _check_tau
            ops.append(_cli_op(f"{command} {name}", rung, argv + ["--format", "json"], check))

    for index, (N, T, kind, source, copies, commands) in enumerate(LADDER_FIXED):
        rng = _rng(source, seed, 1, index)
        for k in range(copies):
            inst = fixed_market(rng, N, T, kind)
            add_file(f"fixed-{N}x{T}-{kind}-{source}{k}.json", (N, T),
                     instancefile.instance_to_data(inst), commands)

    rng = _rng("suite", seed, 1, len(LADDER_FIXED))
    N, T = RISK_SHAPE
    for k in range(RISK_FILES):
        data = instancefile.instance_to_data(fixed_market(rng, N, T, "box"))
        data["risk"] = {"var": {"alpha": 0.95,
                                "marginal_var": rng.uniform(0.2, 1.0, N).tolist()}}
        add_file(f"var-{N}x{T}-suite{k}.json", (N, T), data, ("poa",))
        data = instancefile.instance_to_data(fixed_market(rng, N, T, "box"))
        scenarios = np.vstack([np.zeros(N), rng.uniform(0.0, 1.0, (4, N))])
        data["risk"] = {"coherent": {"scenarios": scenarios.tolist(),
                                     "Q": {"P": [], "r": []}}}
        add_file(f"coherent-{N}x{T}-suite{k}.json", (N, T), data, ("poa",))

    rng = _rng("seed", seed, 1, len(LADDER_FIXED) + 1)
    for family in ("tight-fixed", "tight-restricted"):
        for _ in range(GENERATED_PER_FAMILY):
            argv = ["poa", "--generate", family, "--producers", "2",
                    "--delta", repr(float(rng.uniform(0.05, 0.95)))]
            if family == "tight-restricted":
                argv += ["--rho", repr(float(rng.uniform(0.2, 4.0)))]
            ops.append(_cli_op(" ".join(argv[1:]), None, argv + ["--format", "json"],
                               _check_poa_fixed))
    return Workload(ops, digests, top_rung=(8, 24))


# Rungs whose operations set a reported percentile come from the fixed suite:
# solve work varies up to twofold between instances of one size, more than a
# run can average out, so every run and every commit times the same ones.  The
# risk files are among them: the median falls on the VaR file's poa call and
# the 4x8 solves.  The smallest rung and the generated families are drawn from
# the run seed.  The budget-set tau at 8 producers depends only on the set,
# not on costs, demand or the number of periods, so its instances follow the
# seed and have 4 periods; that keeps them off the 8x24 top rung, whose median
# would otherwise fall between the enumeration and the LP operations.
# (N, T, uncertainty set, source, instances, commands)
LADDER_FIXED = (
    (2, 4, "simplex", "seed", 3, ("poa", "solve", "tau")),
    (4, 8, "box", "suite", 4, ("poa", "solve", "tau")),
    (6, 12, "budget", "suite", 2, ("poa", "solve", "tau")),
    (8, 24, "simplex", "suite", 1, ("poa", "solve")),
    (8, 4, "budget", "seed", 3, ("tau",)),
)
RISK_SHAPE = (3, 6)
RISK_FILES = 1
GENERATED_PER_FAMILY = 1


# ---------------------------------------------------------------------------
# elastic_ladder: a few large QPs


def _poa_elastic_op(label, inst):
    # At 6x12 most of the time goes to LAPACK calls on two BLAS threads,
    # whose speed the probe does not follow (speed.py); scaling made those
    # times spread three times wider between runs, not narrower.
    scaled = (inst.N, inst.T) != (6, 12)

    def run():
        rep = poa.poa_elastic(inst)
        problems = []
        if rep.C < rep.E - _rel(ORDER_TOL, rep.E):
            problems.append(f"planner welfare C {rep.C} below market welfare E {rep.E}")
        return _pack(rep.E, rep.C, rep.ratio, rep.tau), problems

    return Op(label, (inst.N, inst.T), run, scaled)


def _family_op(alpha):
    epsilon = 1e-6

    def run():
        inst = poa.gen_elastic_family(alpha, epsilon)
        rep = poa.poa_elastic(inst)
        limits = poa.elastic_family_values(alpha)
        # elastic_family_values gives the epsilon-free limits.  Producer 2's
        # epsilon base cost lowers the planner's even-split output to
        # alpha - 1/2 - epsilon/2, which is the exact reference here.
        s = max(alpha - 0.5 - 0.5 * epsilon, 0.0)
        gaps = [abs(rep.E - limits["E"]), abs(rep.C - 0.5 * s * s)]
        problems = [f"closed-form gap {max(gaps)}"] if max(gaps) > CLOSED_FORM_TOL else []
        return _pack(rep.E, rep.C, rep.ratio), problems

    return Op(f"elastic family alpha={alpha:.6g}", None, run)


def build_elastic_ladder(seed, workdir):
    ops, digests = [], {}
    for index, (N, T, kind, source, copies) in enumerate(LADDER_ELASTIC):
        rng = _rng(source, seed, 2, index)
        for k in range(copies):
            inst = elastic_market(rng, N, T, kind)
            name = f"elastic-{N}x{T}-{kind}-{source}{k}"
            digests[name] = instancefile.instance_digest(instancefile.instance_to_data(inst))
            ops.append(_poa_elastic_op(f"poa_elastic {name}", inst))
    rng = _rng("seed", seed, 2, len(LADDER_ELASTIC))
    for alpha in rng.uniform(0.3, 5.0, FAMILY_MEMBERS):
        ops.append(_family_op(float(alpha)))
    return Workload(ops, digests, top_rung=(6, 12))


LADDER_ELASTIC = (
    (2, 4, "simplex", "seed", 1),
    (4, 8, "simplex", "suite", 6),
    (6, 12, "simplex", "suite", 1),
)
FAMILY_MEMBERS = 1


# ---------------------------------------------------------------------------
# adjustable_vertices: the |V|^T lifted-vertex enumeration


def _subsidy_op(label, inst, seed):
    def run():
        bundle = subsidy.compute_subsidies(inst, seed=seed)
        problems = []
        try:
            record = subsidy.verify_subsidized_equilibrium(inst, bundle)
        except subsidy.NotEquilibrium as exc:
            record = None
            problems.append(f"not an equilibrium: {exc}")
        residual = max(max(subsidy.kkt_residuals(inst, bundle.y_star, res).values())
                       for res in bundle.scenario_results)
        if residual > KKT_TOL:
            problems.append(f"kkt residual {residual}")
        if bundle.audit["flagged"]:
            problems.append(f"subsidy audit flagged, excess {bundle.audit['max_excess']}")
        results = [(r.x, r.pi, r.mu, r.value) for r in bundle.scenario_results]
        payload = _pack(bundle.eta, bundle.y_star, results, bundle.audit["max_excess"],
                        [] if record is None else [record["worst_case_profits"],
                                                   record["max_deviation_gain"]])
        return payload, problems

    return Op(label, (inst.N, inst.T), run)


def _adjustable_op(label, inst, seed):
    def run():
        try:
            cert = robust.verify_adjustable_equivalence(inst, seed=seed)
        except robust.SaddleViolated as exc:
            return b"", [f"SaddleViolated: {exc}"]
        problems = []
        if cert["saddle_gap"] > SADDLE_TOL:
            problems.append(f"saddle gap {cert['saddle_gap']}")
        if not cert["dominated"]:
            problems.append("a scenario value escapes the planner value")
        payload = _pack(cert["value"], cert["capacities"], cert["vertex_values"],
                        cert["sample_values"], cert["worst_u"], cert["worst_value"])
        return payload, problems

    return Op(label, (inst.N, inst.T), run)


def _scenario_form_op(label, inst, strict_C):
    def run():
        out = robust.adjustable_scenario_form_fixed(inst)
        problems = []
        if out["value"] > strict_C + _rel(ORDER_TOL, strict_C):
            problems.append(f"scenario-form value {out['value']} above strict C {strict_C}")
        payload = _pack(out["value"], out["capacities"], out["clearing_duals"],
                        out["productions"])
        return payload, problems

    return Op(label, (inst.N, inst.T), run)


def build_adjustable_vertices(seed, workdir):
    ops, digests = [], {}

    def note(name, inst):
        digests[name] = instancefile.instance_digest(instancefile.instance_to_data(inst))

    for index, (N, T, kind, source, workflows) in enumerate(ADJUSTABLE):
        rng = _rng(source, seed, 3, index)
        for workflow in workflows:
            if workflow == "scenario_form":
                inst = fixed_market(rng, N, T, kind)
                name = f"fixed-{N}x{T}-{kind}-{source}"
                _, strict_C, _ = robust.solve_robust_cp_fixed(inst)
                ops.append(_scenario_form_op(f"scenario_form {name}", inst, strict_C))
            elif workflow == "adjustable_fixed":
                inst = fixed_market(rng, N, T, kind)
                name = f"fixed-{N}x{T}-{kind}-{source}"
                ops.append(_adjustable_op(f"adjustable {name}", inst, seed))
            else:
                inst = elastic_market(rng, N, T, kind)
                name = f"elastic-{N}x{T}-{kind}-{source}"
                ops.append(_adjustable_op(f"adjustable {name}", inst, seed))
                ops.append(_subsidy_op(f"subsidy {name}", inst, seed))
            note(f"{workflow} {name}", inst)
    # The largest lifted vertex set (4^4 = 256 scenarios), not the largest N*T.
    return Workload(ops, digests, top_rung=(2, 4))


# (N, T, uncertainty set, source, workflows); "elastic" runs the saddle
# certificate and then subsidies with their verification on one instance.
# As in LADDER_FIXED, the instances of the operations that set a reported
# percentile come from the fixed suite; the run seed draws the cheap fixed
# demand certificates and every sampled scenario (the subsidy audit points and
# the saddle samples).
ADJUSTABLE = (
    (2, 2, "simplex", "seed", ("adjustable_fixed",)),
    (2, 2, "box", "seed", ("adjustable_fixed",)),
    (3, 2, "simplex", "seed", ("adjustable_fixed",)),
    (2, 3, "simplex", "seed", ("adjustable_fixed",)),
    (3, 3, "simplex", "seed", ("adjustable_fixed",)),
    (2, 3, "simplex", "suite", ("elastic",)),
    (3, 3, "simplex", "suite", ("elastic",)),
    (2, 4, "box", "suite", ("adjustable_fixed", "elastic")),
    (2, 3, "simplex", "suite", ("scenario_form",)),
    (3, 2, "simplex", "suite", ("scenario_form",)),
    (2, 2, "box", "suite", ("scenario_form",)),
)

SUITE_SEED = 20210819

BUILDERS = {
    "fixed_cli_ladder": build_fixed_cli_ladder,
    "elastic_ladder": build_elastic_ladder,
    "adjustable_vertices": build_adjustable_vertices,
}

# Percentile reported as op_tail_s, per workload: high, with at least ten
# operations above it in a run of the parent code, and inside a block of
# operations of like cost whatever the number of passes (on fixed_cli_ladder,
# the budget-set tau at 8 producers, just below the two 8x24 LP operations),
# so that it does not jump across a gap between blocks.  A faster program only
# adds operations, so the choice stays valid.
TAIL_PERCENTILE = {
    "fixed_cli_ladder": 90,
    "elastic_ladder": 75,
    "adjustable_vertices": 77,
}
