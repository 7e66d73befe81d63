"""Run every workload over several seeds, print each metric, write BENCHMARK.json.

    python3 perfbench/suite.py [--seeds 1-10] [--workload W ...] [--trace 0|1]

Run from the repository root.  It first writes BENCHMARK.json from
``spec.py``.  Each (workload, seed) is then one ``run.py`` run in its own
process, one after another.  For every metric and workload the table gives
the median over the seeds, the first and third quartiles, and the spread
(Q3 - Q1) / median; an end-to-end spread of a third of the metric's bound
or more is flagged, because the benchmark then cannot resolve a change of
that size.  Any run whose outputs did not match is reported and makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec.write_benchmark_json(ROOT / "BENCHMARK.json")
    seeds = parse_seeds(args.seeds)
    bounds = {name: bound for name, _, _, bound in spec.END_TO_END}
    results, bad = {}, []
    for workload in args.workload or workloads.WORKLOADS:
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.trace)
            if not result["correct"]:
                bad.append((workload, seed))
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in list(result["metrics"].items())[:5]),
                flush=True)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} operations, "
              f"{sum(r['failed'] for r in runs)} failed")
        print(f"  {'metric':<48} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            med, q1, q3, sp = spread(values)
            flag = "  WIDE" if name in bounds and sp >= bounds[name] / 3 else ""
            print(f"  {name:<48} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.3f}  "
                  f"{metric['unit']}{flag}")
        print(flush=True)
    for workload, seed in bad:
        print(f"INCORRECT: {workload} seed {seed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
