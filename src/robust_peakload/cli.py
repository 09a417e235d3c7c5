"""Command dispatch over instance files with machine-readable reports.

Subcommands: `solve` (nominal, robust market, robust planner, expected-cost
solves), `poa` (price-of-anarchy reports for an instance or a generated tight
family), `subsidy` (welfare-restoring subsidies with equilibrium checks),
`tau` and `validate-set` (uncertainty-set diagnostics; their vertex_count is
null above 12 producers, where vertex enumeration is guarded).  A poa source
takes only the flags it reads; any other of --delta, --rho, --alpha,
--producers and --emit-instance is an input error.  Every command
acts on the market that `load_instance` builds from the file, the risk set
installed where the file has one.

Exit codes: 0 success, 1 input error (bad flags, schema violations, parameter
validation), 2 infeasible or unbounded program, 3 subsidy verification
failure, 4 solver defect (SaddleViolated or a SolverError: a failed check of
the solver's own output, which no input should cause).  JSON reports are
canonical: re-parsing and re-emitting reproduces the bytes, and identical
inputs produce identical reports apart from the timing field.  The
subsidy audit's seed and sample count come from --seed and --samples, else
from the library defaults.
"""

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from robust_peakload.geometry import (MAX_ENUM_DIM, DimensionTooLarge,
                                      EmptySet, enumerate_vertices, simplex,
                                      tau)
from robust_peakload.instancefile import (SCHEMA_VERSION, canonical_dumps,
                                          instance_digest, instance_to_data,
                                          load_instance, write_instance)
from robust_peakload.market import (BadMean, Fixed, solve_expected,
                                    solve_nominal_elastic, solve_nominal_fixed,
                                    total_cost, welfare)
from robust_peakload.poa import (ZeroCost, elastic_family_values,
                                 gen_elastic_family, gen_tight_instance_fixed,
                                 gen_tight_instance_restricted, poa_elastic,
                                 poa_fixed, tight_fixed_values,
                                 tight_restricted_values)
from robust_peakload.robust import (DEFAULT_SEED, Infeasible, SaddleViolated,
                                    Unbounded, solve_robust_cp_elastic,
                                    solve_robust_cp_fixed,
                                    solve_robust_market_elastic,
                                    solve_robust_market_fixed)
from robust_peakload.solver import SolverError
from robust_peakload.subsidy import (DEFAULT_AUDIT_SAMPLES, NotEquilibrium,
                                     build_price_functions, compute_subsidies,
                                     kkt_residuals,
                                     verify_subsidized_equilibrium)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_EQUILIBRIUM = 3
EXIT_SOLVER = 4

WITNESS_TOL = 1e-9


class CliError(ValueError):
    """Bad flags or flag combinations; maps to the input-error exit code."""


class _Parser(argparse.ArgumentParser):
    """Parser that reports flag errors through exceptions instead of exiting,
    so the exit-code contract stays in one place."""

    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_floats(name, text):
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"--{name} must be a comma-separated list of numbers, "
                       f"got {text!r}") from None


def _parse_mean(text, N, T):
    """Scalar, per-producer list, or full N*T list, broadcast to N x T."""
    values = _parse_floats("mean-u", text)
    if len(values) == 1:
        return np.full((N, T), values[0])
    if len(values) == N:
        return np.tile(np.array(values)[:, None], (1, T))
    if len(values) == N * T:
        return np.array(values).reshape(N, T)
    raise CliError(f"--mean-u must list 1, {N}, or {N * T} values, "
                   f"got {len(values)}")


# ---------------------------------------------------------------------------
# report assembly


def _report(args, digest, results, certificates):
    """The report of a command: its flags are every parsed option, in the
    order the parser declares them."""
    return {
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if k != "command"},
        "schema_version": SCHEMA_VERSION,
        "instance_digest": digest,
        "results": results,
        "certificates": certificates,
    }


def _closed_form_gap(report, closed):
    gaps = []
    for key, expected in closed.items():
        actual = getattr(report, key)
        if np.isnan(expected) and np.isnan(actual):
            continue
        if np.isinf(expected) and np.isinf(actual):
            continue
        gaps.append(abs(actual - expected))
    return float(max(gaps)) if gaps else 0.0


def _text_lines(report, prefix=""):
    lines = []
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_text_lines(value, prefix=name + "."))
        else:
            lines.append(f"{name}: {canonical_dumps(value)}")
    return lines


def _emit(report, fmt):
    if fmt == "json":
        print(canonical_dumps(report))
    else:
        for line in _text_lines(report):
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args):
    inst, digest = load_instance(args.instance)
    fixed = isinstance(inst.demand, Fixed)
    results = {"mode": args.mode,
               "demand_mode": "fixed" if fixed else "elastic"}
    certificates = {}

    if args.mode == "nominal":
        solution = (solve_nominal_fixed(inst) if fixed
                    else solve_nominal_elastic(inst))
        results.update(dataclasses.asdict(solution))
    elif args.mode == "expected":
        mean = _parse_mean(args.mean_u, inst.N, inst.T)
        results.update(dataclasses.asdict(solve_expected(inst, mean)))
        results["mean_scenario"] = mean.tolist()
    else:
        # Each robust solve returns (solution, value, worst scenario): the
        # market's worst case is the adversary's answer to the market plan,
        # the planner's is read off its dualized adversary rows.
        solve = {("robust", True): solve_robust_market_fixed,
                 ("robust", False): solve_robust_market_elastic,
                 ("robust-cp", True): solve_robust_cp_fixed,
                 ("robust-cp", False): solve_robust_cp_elastic}[args.mode, fixed]
        solution, value, worst = solve(inst)
        results.update(dataclasses.asdict(solution))
        results["worst_case_value"] = float(value)
        evaluate = total_cost if fixed else welfare
        at_worst = evaluate(inst, solution.production, solution.capacities,
                            worst)
        gap = "worst_case_gap" if args.mode == "robust" else "saddle_gap"
        certificates["worst_scenario"] = worst.tolist()
        certificates[gap] = abs(float(at_worst) - float(value))

    return _report(args, digest, results, certificates), EXIT_OK


# The value flags each poa source reads, keyed by --generate (None for
# --instance); giving one that the source does not read is an input error.
_POA_FLAGS = ("delta", "rho", "alpha", "producers", "emit_instance")
_POA_READS = {None: (),
              "tight-fixed": ("delta", "producers", "emit_instance"),
              "tight-restricted": ("delta", "rho", "producers", "emit_instance"),
              "elastic-family": ("alpha", "emit_instance")}


def _generate_instance(args):
    """Build the requested family member and its closed-form values (closed
    forms cover the 2-simplex tight families and the elastic family).  The
    tight families span the simplex of --producers, 2 when it is absent."""
    producers = 2 if args.producers is None else args.producers
    if args.generate == "tight-fixed":
        if args.delta is None:
            raise CliError("--generate tight-fixed requires --delta")
        inst = gen_tight_instance_fixed(simplex(producers), args.delta)
        closed = tight_fixed_values(args.delta) if producers == 2 else None
    elif args.generate == "tight-restricted":
        if args.delta is None or args.rho is None:
            raise CliError("--generate tight-restricted requires "
                           "--delta and --rho")
        inst = gen_tight_instance_restricted(simplex(producers), args.rho, args.delta)
        closed = tight_restricted_values(args.rho, args.delta) if producers == 2 else None
    else:
        if args.alpha is None:
            raise CliError("--generate elastic-family requires --alpha")
        inst = gen_elastic_family(args.alpha)
        closed = elastic_family_values(args.alpha)
    return inst, closed


def _cmd_poa(args):
    if (args.instance is None) == (args.generate is None):
        raise CliError("exactly one of --instance and --generate is required")
    if args.producers is not None and args.producers < 1:
        raise CliError(f"--producers must be at least 1, got {args.producers}")
    source = ("--instance" if args.generate is None
              else f"--generate {args.generate}")
    for name in _POA_FLAGS:
        if getattr(args, name) is not None and name not in _POA_READS[args.generate]:
            raise CliError(f"--{name.replace('_', '-')} is not read with {source}")
    certificates = {}

    if args.instance is not None:
        inst, digest = load_instance(args.instance)
        closed = None
    else:
        inst, closed = _generate_instance(args)
        digest = instance_digest(instance_to_data(inst))
        if args.emit_instance is not None:
            write_instance(args.emit_instance, instance_to_data(inst))
    report = (poa_fixed(inst) if isinstance(inst.demand, Fixed)
              else poa_elastic(inst))
    results = dataclasses.asdict(report)
    if closed is not None:
        certificates["closed_form"] = closed
        certificates["max_closed_form_gap"] = _closed_form_gap(report, closed)

    return _report(args, digest, results, certificates), EXIT_OK


def _cmd_subsidy(args):
    inst, digest = load_instance(args.instance)
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    override = None
    if args.eta is not None:
        override = np.array(_parse_floats("eta", args.eta))
        if len(override) != inst.N:
            raise CliError(f"--eta must list {inst.N} values, "
                           f"got {len(override)}")

    bundle = compute_subsidies(inst, audit_samples=args.samples,
                               seed=args.seed)
    if override is not None:
        bundle = dataclasses.replace(bundle, eta=override)

    code = EXIT_OK
    try:
        record = verify_subsidized_equilibrium(inst, bundle)
        violation = None
    except NotEquilibrium as exc:
        code = EXIT_NOT_EQUILIBRIUM
        record = {"is_equilibrium": False}
        violation = {"producer": int(exc.producer),
                     "scenario": [int(k) for k in exc.scenario],
                     "deviation": (None if exc.deviation is None
                                   else float(exc.deviation)),
                     "message": str(exc)}

    table = build_price_functions(bundle)
    price_table = [{"vertex": list(key), "prices": table[key].tolist()}
                   for key in sorted(table)]
    results = {
        "eta": bundle.eta.tolist(),
        "y_star": bundle.y_star.tolist(),
        "price_table": price_table,
        "is_equilibrium": bool(record["is_equilibrium"]),
        "audit": bundle.audit,
    }
    if violation is None:
        results["worst_case_profits"] = record["worst_case_profits"].tolist()
        results["max_deviation_gain"] = record["max_deviation_gain"].tolist()
    else:
        results["violation"] = violation

    residual_max = 0.0
    for res in bundle.scenario_results:
        residuals = kkt_residuals(inst, bundle.y_star, res)
        residual_max = max(residual_max, max(residuals.values()))
    certificates = {"kkt_residual_max": float(residual_max)}
    if violation is None:
        certificates["worst_profit_abs_max"] = float(
            np.max(np.abs(record["worst_case_profits"]))
            if len(record["worst_case_profits"]) else 0.0)

    return _report(args, digest, results, certificates), code


def _cmd_set_report(args):
    inst, digest = load_instance(args.instance)
    U = inst.uncertainty
    value, witness = tau(U)
    rep = inst.uncertainty_report
    results = {
        "tau": float(value),
        "witness": witness.tolist(),
        "vertex_count": (len(enumerate_vertices(U))
                         if U.dimension <= MAX_ENUM_DIM else None),
        "contains_zero": rep.contains_zero,
        "inside_unit_box": rep.inside_unit_box,
        "axis_projections": rep.axis_projections.tolist(),
        "is_valid_uncertainty_set": rep.is_valid_uncertainty_set,
    }
    certificates = {
        "witness_in_set": bool(U.contains(witness, tol=WITNESS_TOL)),
        "witness_min_gap": abs(float(np.min(witness)) - float(value)),
    }
    return _report(args, digest, results, certificates), EXIT_OK


_COMMANDS = {"solve": _cmd_solve, "poa": _cmd_poa, "subsidy": _cmd_subsidy,
             "tau": _cmd_set_report, "validate-set": _cmd_set_report}


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser():
    """The command-line parser, built once per process on the first call of
    main; parse_args keeps no state between calls."""
    parser = _Parser(prog="robust-peakload",
                     description="Robust peak-load-pricing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--mode", default="robust",
                       choices=["nominal", "robust", "robust-cp", "expected"])
    solve.add_argument("--mean-u", default="0",
                       help="mean scenario for --mode expected: scalar, "
                            "per-producer list, or full N*T list")
    solve.add_argument("--format", default="text", choices=["text", "json"])

    poa = sub.add_parser("poa", help="price-of-anarchy report")
    poa.add_argument("--instance")
    poa.add_argument("--generate", choices=[name for name in _POA_READS if name])
    poa.add_argument("--delta", type=float)
    poa.add_argument("--rho", type=float)
    poa.add_argument("--alpha", type=float)
    poa.add_argument("--producers", type=int,
                     help="simplex dimension for the tight generators "
                          "(default 2)")
    poa.add_argument("--emit-instance",
                     help="write the generated instance to this path")
    poa.add_argument("--format", default="text", choices=["text", "json"])

    subsidy = sub.add_parser("subsidy",
                             help="welfare-restoring subsidies with "
                                  "equilibrium verification")
    subsidy.add_argument("--instance", required=True)
    subsidy.add_argument("--samples", type=int, default=DEFAULT_AUDIT_SAMPLES)
    subsidy.add_argument("--seed", type=int, default=DEFAULT_SEED)
    subsidy.add_argument("--eta",
                         help="override the computed subsidies "
                              "(comma-separated, one per producer)")
    subsidy.add_argument("--format", default="text", choices=["text", "json"])

    for name in ("tau", "validate-set"):
        diag = sub.add_parser(name, help="uncertainty-set diagnostics")
        diag.add_argument("--instance", required=True)
        diag.add_argument("--format", default="text", choices=["text", "json"])

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    start = time.perf_counter()
    try:
        report, code = _COMMANDS[args.command](args)
    except (ValueError, BadMean, ZeroCost, EmptySet, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (Infeasible, Unbounded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SaddleViolated, SolverError) as exc:
        print(f"error: solver defect: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    report["timing"] = {"seconds": time.perf_counter() - start}
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
