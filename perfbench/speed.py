"""Machine-speed probe, and the gauge that scales operation times by it.

On a shared host the same operation's time swings by up to 2.6 times within
minutes, as the host's other load comes and goes; a run cannot average that
out.  So the benchmark times a fixed probe kernel between operations and
reports each operation's time divided by the median of the probes just before
and just after it, over the probe's reference time: the time the operation
would have taken at the reference speed.

The probe runs no library code, so no change to the program moves it.  It
follows code driven from Python, which runs at the speed of the core it is
on.  It does not follow threaded BLAS and LAPACK calls, which wait for their
slowest thread, on the other core: a probe of that kind was timed too, and
its own time jumped sixfold from call to call.  So operations that spend most
of their time in such calls are reported as measured (Op.scaled in
workloads.py).
"""

import statistics
import time

import numpy as np

# The probe runs after an operation once this much time has passed since it
# last ran, so no operation is further than this from a probe on either side.
PROBE_EVERY_S = 0.1
# An operation's time is scaled by the median of this many probes on each
# side of it.
PROBE_SIDE = 2


def probe():
    """Seconds for simplex pivots driven from Python, row by row, on one dense
    tableau of a few MB (as at 8x24) and on a small one (as in the tiny
    lifted-vertex solves).  It calls no BLAS routine."""
    start = time.perf_counter()
    rng = np.random.default_rng(20210819)
    for rows, cols, pivots in ((300, 1200, 4), (40, 90, 50)):
        tableau = rng.uniform(0.5, 1.5, (rows, cols))
        rhs = rng.uniform(1.0, 2.0, rows)
        for k in range(pivots):
            col = (7 * k) % cols
            row = int(np.argmin(rhs / tableau[:, col]))
            pivot = tableau[row, col]
            tableau[row] /= pivot
            rhs[row] /= pivot
            for i in range(rows):
                if i != row:
                    factor = tableau[i, col] * 1e-3
                    tableau[i] -= factor * tableau[row]
                    rhs[i] -= factor * rhs[row]
    return time.perf_counter() - start


# A typical probe time on the 2-core x86 machine the benchmark was tuned on;
# it only sets the scale of reported times.
REFERENCE_S = 0.0150


class SpeedGauge:
    """Runs the probe between operations and scales each operation's time to
    the reference speed by the median of the PROBE_SIDE probes just before it
    and the PROBE_SIDE just after it.  Operations wait in `pending` until
    their last probe has run."""

    def __init__(self):
        self.probes = [probe() for _ in range(PROBE_SIDE)]
        self.last = time.perf_counter()
        self.pending = []

    def add(self, side, op, seconds, problems):
        # len(self.probes) is the index of the first probe after the operation.
        self.pending.append((side, op, seconds, problems, len(self.probes)))
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self._probe()

    def _probe(self):
        self.probes.append(probe())
        self.last = time.perf_counter()
        waiting = []
        for item in self.pending:
            side, op, seconds, problems, after = item
            if len(self.probes) < after + PROBE_SIDE:
                waiting.append(item)
                continue
            probe_s = statistics.median(self.probes[after - PROBE_SIDE:after + PROBE_SIDE])
            scaled = seconds * REFERENCE_S / probe_s if op.scaled else seconds
            side.add(op, scaled, seconds, problems)
        self.pending = waiting

    def finish(self):
        while self.pending:
            self._probe()
