"""Seeded closed-loop benchmark over the robust-peakload workflows.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixed_cli_ladder --seed 1 --seconds 30 --trace 0

One client in one process runs the workload's operations in order, each
only after the previous one finished (closed loop).  A run repeats whole
passes over the operation list until --seconds have elapsed.  Every output is
checked, and every operation's numeric results are hashed; a result that
changes between passes, or between runs of the same code and seed, counts as
a failure.

End-to-end times are reported at a reference machine speed: a fixed probe
kernel that runs no library code is timed between operations, and each
operation's time is scaled by the probes just before and after it (see
speed.py), except for the operations workloads.py marks unscaled.  The raw
values are kept in the details.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every operation once
untraced and once traced and prints the per-layer metrics, measured by
wrapping the library's functions from outside (see spans.py), plus the
tracing overhead.  DESIGN.md defines every metric.
The second-to-last line of standard output holds the environment, digests and
per-operation times; the last line is the result object.  Spans and details
are also written under .perfbench_out/ in the checkout.

The library is imported from src/ of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fixed_cli_ladder", "elastic_ladder", "adjustable_vertices")
SETUP_REPEATS = 3
# Seed kept out of every run made while tuning this benchmark; confirm a
# claimed gain on it as well as on the seeds it was developed with.
HELD_OUT_SEED = 9173

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "top_rung_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        for path in sorted(glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    found[os.path.basename(path)] = int(getattr(lib, symbol)())
                    break
    return found


def _environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _code_hash():
    """Hash of the library and benchmark sources that produce the digests."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "robust_peakload").glob("*.py")) + sorted(
            Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run_op(op):
    """Run one operation; returns (seconds, result hash, problems)."""
    start = time.perf_counter()
    try:
        payload, problems = op.run()
    except Exception as exc:  # a raising operation is a counted failure
        payload, problems = b"", [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    return seconds, hashlib.sha256(payload).hexdigest(), problems


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.hashes = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {op.label: [] for op in ops}

    def run(self, index):
        """Run operation `index`; returns (seconds, problems)."""
        op = self.ops[index]
        seconds, result_hash, problems = _run_op(op)
        if self.hashes[index] is None:
            self.hashes[index] = result_hash
        elif result_hash != self.hashes[index]:
            problems = problems + ["result digest changed between passes"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op.label}: {'; '.join(problems)}")
        self.times[op.label].append(seconds)
        return seconds, problems

    def digest(self):
        return hashlib.sha256("".join(self.hashes).encode()).hexdigest()


class Side:
    """Operations run with tracing off, or with it on: their times at the
    reference speed, and as measured."""

    def __init__(self):
        self.samples = []
        self.raw_samples = []
        self.passed = 0

    def add(self, op, seconds, raw_seconds, problems):
        self.samples.append((op, seconds))
        self.raw_samples.append((op, raw_seconds))
        self.passed += not problems

    def rate(self, samples=None):
        """Operations that passed per second."""
        return self.passed / sum(s for _, s in (samples or self.samples))


def _check_digest_store(key, digest):
    """Compare with the digest an earlier run of the same code and seed
    recorded; returns False when they differ."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    previous = store.get(key)
    if previous is None:
        store[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return previous is None or previous == digest


def _end_to_end(side, samples, setup_s, pass_share, tail_pct, top):
    """End-to-end metrics of one side, from the given operation times."""
    import numpy as np
    seconds = [s for _, s in samples]
    return {
        "ops_per_s": side.rate(samples),
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": float(np.percentile(seconds, tail_pct)),
        "top_rung_s": statistics.median(s for op, s in samples if op.rung == top),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": pass_share,
    }


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "robust_peakload" / "__init__.py").is_file():
        print(f"error: no robust_peakload package under {SRC}", file=sys.stderr)
        return 2

    import_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import robust_peakload
    import spans
    import speed
    import workloads
    import_s = time.perf_counter() - import_start
    if Path(robust_peakload.__file__).resolve().parent != SRC / "robust_peakload":
        print(f"error: robust_peakload imported from {robust_peakload.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    builder = workloads.BUILDERS[args.workload]
    # Set-up (generation, instance files, one warm-up operation) runs several
    # times; the warm-up results must agree with each other and with the
    # measured passes.  Probes just before and after it scale it.
    setup_probe = speed.probe()
    setup_runs = []
    warm_ups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = builder(args.seed, str(workdir))
        warm_ups.append(_run_op(workload.ops[0])[1:])
        setup_runs.append(time.perf_counter() - start)
    setup_raw_s = import_s + statistics.median(setup_runs)

    tally = Tally(workload.ops)
    tally.hashes[0] = warm_ups[0][0]
    for result_hash, problems in warm_ups:
        if result_hash != tally.hashes[0]:
            problems = problems + ["result digest changed between set-ups"]
        tally.attempted += 1
        if problems:
            tally.failed += 1
            tally.problems.append(f"warm-up {workload.ops[0].label}: {'; '.join(problems)}")

    # With tracing, every operation runs once untraced and once traced, in an
    # order that flips each pass, so that the two rates see the same machine.
    recorder = spans.Recorder(robust_peakload) if args.trace else None
    plain, traced = Side(), Side()
    gauge = speed.SpeedGauge()
    setup_s = setup_raw_s * speed.REFERENCE_S / ((setup_probe + gauge.probes[0]) / 2.0)
    unexpected_exits = 0
    n_traced = 0
    start = time.perf_counter()
    n_pass = 0
    while True:
        order = ((False, True) if n_pass % 2 == 0 else (True, False)) if args.trace else (False,)
        for index, op in enumerate(workload.ops):
            for with_trace in order:
                if not with_trace:
                    gauge.add(plain, op, *tally.run(index))
                    continue
                recorder.op_id = n_traced
                n_traced += 1
                recorder.install()
                try:
                    seconds, problems = tally.run(index)
                finally:
                    recorder.uninstall()
                gauge.add(traced, op, seconds, problems)
                unexpected_exits += sum(p.startswith(workloads.UNEXPECTED_EXIT)
                                        for p in problems)
        n_pass += 1
        if time.perf_counter() - start >= args.seconds:
            break
    gauge.finish()

    digest = tally.digest()
    key = f"{_code_hash()}:{args.workload}:{args.seed}"
    if not _check_digest_store(key, digest):
        tally.attempted += 1
        tally.failed += 1
        tally.problems.append("workload digest differs from an earlier run "
                              "of the same code and seed")

    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    pass_share = 1.0 - tally.failed / tally.attempted
    metrics = _end_to_end(plain, plain.samples, setup_s, pass_share, tail_pct,
                          workload.top_rung)
    raw_metrics = _end_to_end(plain, plain.raw_samples, setup_raw_s, pass_share,
                              tail_pct, workload.top_rung)
    tail = metrics["op_tail_s"]
    tail_info = {"percentile": tail_pct, "samples": len(plain.samples),
                 "samples_beyond": sum(s > tail for _, s in plain.samples),
                 "top_rung": "x".join(map(str, workload.top_rung))}
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "workload_digest": digest,
        "instance_digest": workload.instance_digests,
        "passes": n_pass,
        "ops_per_pass": len(workload.ops),
        "tail": tail_info,
        "probe": {"count": len(gauge.probes), "median_s": statistics.median(gauge.probes),
                  "reference_s": speed.REFERENCE_S, "setup_probe_s": setup_probe},
        "raw_metrics": raw_metrics,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "op_times_s": tally.times,
        "op_times_ref_s": {op.label: [s for o, s in plain.samples if o is op]
                           for op in workload.ops},
        "problems": tally.problems[:20],
    }
    if args.trace:
        traced_rate = traced.rate()
        layer = spans.layer_metrics(recorder.spans, len(traced.samples), unexpected_exits)
        layer["trace.ops_per_s"] = traced_rate
        layer["trace.untraced_ops_per_s"] = metrics["ops_per_s"]
        layer["trace.overhead_share"] = metrics["ops_per_s"] / traced_rate - 1.0
        result_metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                          for name, value in layer.items()}
        detail["traced_bindings"] = recorder.binding_count
        detail["span_count"] = len(recorder.spans)
        recorder.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in metrics.items()}
    detail["metrics"] = result_metrics
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
