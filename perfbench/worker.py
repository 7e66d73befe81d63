"""One pass of a workload, or its probes, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        --spawned-at T [--trace] [--setup-only | --probes]

``run.py`` starts one worker per pass, so every pass begins with cold
module-level caches and builds its own polytopes, as a CLI user's process
would.  Set-up (importing polycomp, generating the seeded inputs and writing
them as JSON files) is timed from ``T``, the CLOCK_MONOTONIC reading taken
by the parent just before it started this process.  The worker prints one
JSON object: the set-up time, the exit code, error, stdout digest, wall and
CPU time of each operation, the peak resident memory and, when traced, the
tracer's totals.  Each time comes with the time the speed samples took in it
and the machine's speed while it was taken (``SpeedSampler``).  Outputs are
judged by the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_TIME_LIMIT = 60.0


def _now():
    """The parent's clock, so that set-up can be timed from its reading."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_piece():
    """A fixed piece of pure-Python work of the kinds polycomp does: exact
    fractions, small integer tuples, a dict.  It never calls polycomp."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 240):
        acc += Fraction(i, i + 3)
        row = tuple(i * j % 7 for j in range(12))
        table[row] = table.get(row, 0) + 1
    return acc


class SpeedSampler:
    """Samples the machine's speed while a pass runs.

    On a shared virtual machine the speed can swing by a factor of two
    within a second, and for minutes at a time, with the process's CPU time
    swinging with its wall time: the work runs slower, it does not wait for
    a core.  Every
    ``INTERVAL`` s of process CPU time, SIGPROF runs ``reference_piece`` with
    the collector off and records when it started and how long it took.
    ``speed`` of a time window is the mean of 1 / duration over the samples
    taken in it; ``run.py`` multiplies an operation's time by its speed and
    by a fixed piece time, which gives its time at the speed where a piece
    takes that long.  The samples' own time is reported, so that it can be
    taken out of the operation's.
    """

    INTERVAL = 0.05
    NEAREST = 5  # samples used for a window that holds fewer

    def __init__(self):
        self.samples = []  # (_now() at start, duration)

    def _sample(self, signum=None, frame=None):
        enabled = gc.isenabled()
        gc.disable()
        start = _now()
        reference_piece()
        self.samples.append((start, _now() - start))
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL, self.INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def top_up(self):
        """Take samples directly, so that the last window has neighbours."""
        for _ in range(self.NEAREST):
            self._sample()

    def spent(self, t0, t1):
        """Time the samples took inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0, t1):
        """Mean of 1 / duration over the samples inside [t0, t1], or over the
        ``NEAREST`` samples closest to it when fewer fell inside."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        if len(inside) < self.NEAREST:
            mid = (t0 + t1) / 2
            near = sorted(self.samples, key=lambda sd: abs(sd[0] - mid))
            inside = [d for _, d in near[:self.NEAREST]]
        return statistics.fmean(1 / d for d in inside)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--probes", action="store_true")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    if not args.probes:
        sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    import polycomp.cli  # noqa: F401  the program's import is part of set-up

    import ops
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.probes:
        report = []
        for probe in workloads.probes(args.workload):
            outcome = ops.execute(probe.op, ops.write_input(args.workdir, probe.op),
                                  probe.time_limit)
            report.append({"key": probe.op.key, "verdict": ops.judge_probe(outcome, probe.expect),
                           "exit": outcome.exit, "error": outcome.error})
        print(json.dumps({"probes": report}))
        return 0

    todo = workloads.pass_ops(args.workload, args.seed)
    paths = [ops.write_input(args.workdir, op) for op in todo]
    setup_end = _now()
    if args.setup_only:
        sampler.stop()
        sampler.top_up()
        print(json.dumps({"setup": setup_report(sampler, args.spawned_at, setup_end)}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    results = []
    for op, path in zip(todo, paths):
        t0 = _now()
        outcome = ops.execute(op, path, OP_TIME_LIMIT)
        t1 = _now()
        results.append([op.key, outcome.exit, outcome.error, outcome.digest,
                        outcome.wall, outcome.cpu, sampler.spent(t0, t1), (t0, t1)])
    sampler.stop()
    sampler.top_up()
    for row in results:
        row[-1] = sampler.speed(*row[-1])
    print(json.dumps({
        "setup": setup_report(sampler, args.spawned_at, setup_end),
        "ops": results,
        "peak_rss_mib": _peak_rss_mib(),
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


def setup_report(sampler, t0, t1):
    """Set-up time, the samples' time in it, and the speed during it."""
    return [t1 - t0, sampler.spent(t0, t1), sampler.speed(t0, t1)]


if __name__ == "__main__":
    sys.exit(main())
