"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from the repository root.  The workload is a closed loop with one
client: each pass runs the workload's operations back to back, single
threaded, in a fresh interpreter (``worker.py``), on the same seeded
inputs.  A new pass starts while it would end within ``--seconds``, and
there are at least two.  Every time is scaled to a fixed machine speed,
measured while it was taken (``worker.SpeedSampler``), and with
``--trace 0`` the end-to-end times are those of a pass made of each
operation's fastest scaled run.  With ``--trace 1`` untraced and traced
passes alternate, and the per-layer metrics come from the traced ones.
Each run also runs the workload's probes once, judged by the CLI contract,
and checks every operation's exit code and stdout digest against
``golden.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines above it give the
machine, the probes and a table of the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 25
CHILD_TIMEOUT = 150.0
# time of one worker.reference_piece at the reported speed: the fastest
# piece seen on the 2-vCPU Xeon guest the benchmark was written on
REF_PIECE_S = 0.001


class RunError(RuntimeError):
    """A worker process failed; the run has no result."""


def spawn(workload, seed, workdir, *flags):
    """Start a worker, wait for it, and return its JSON report."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir),
           "--spawned-at", repr(spawned_at), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {' '.join(flags)} exceeded {CHILD_TIMEOUT:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled(seconds, spent, speed):
    """A time less the speed samples taken in it, at the reference speed."""
    return (seconds - spent) * speed * REF_PIECE_S


def judge_pass(report, golden):
    """Split a pass's operations into those that match the recorded output
    and those that do not.  A matching one keeps its scaled wall and CPU
    time; the pass keeps the raw wall time of its matching operations."""
    ok, failed = [], []
    raw_wall = 0.0
    for key, code, error, digest, wall, cpu, spent, speed in report["ops"]:
        expected = golden.get(key)
        if (error is None and expected is not None
                and [code, digest] == [expected["exit"], expected["stdout"]]):
            ok.append((key, scaled(wall, spent, speed), scaled(cpu, spent, speed)))
            raw_wall += wall
        else:
            failed.append((key, code, error))
    return {"ok": ok, "failed": failed, "raw_wall_s": raw_wall}


def fastest_pass(judged):
    """Scaled wall time, CPU time and slowest operation of a pass made of
    each operation's fastest run.  Every pass of a run does the same work,
    so what is left of an operation's spread across passes after scaling is
    the machine's, and the fastest run is the steadiest estimate."""
    times = {}
    for j in judged:
        for key, wall, cpu in j["ok"]:
            times.setdefault(key, []).append((wall, cpu))
    walls = [min(w for w, _ in t) for t in times.values()]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(min(c for _, c in t) for t in times.values()),
        "op_max_s": max(walls, default=0.0),
    }


def machine_info():
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "loadavg": os.getloadavg(),
        "commit": "unknown",
        "source_sha256": source_digest(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def source_digest():
    """Digest of the package sources, which names the code under test even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polycomp").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(args, workdir):
    """Run passes until ``--seconds`` is spent; return (untraced, traced, setups),
    the set-ups as scaled times."""
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(traced) < len(untraced)
        report = spawn(args.workload, args.seed, workdir, *(["--trace"] if trace else []))
        (traced if trace else untraced).append(report)
        if not trace:
            setups.append(scaled(*report["setup"]))
        elapsed = time.monotonic() - start
        passes = len(untraced) + len(traced)
        paired = not args.trace or len(traced) == len(untraced)
        # stop unless another pass of the mean length would end in time
        if paired and passes >= MIN_PASSES and elapsed * (passes + 1) / passes > args.seconds:
            break
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            report = spawn(args.workload, args.seed, workdir, "--setup-only")
            setups.append(scaled(*report["setup"]))
    return untraced, traced, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polycomp" / "cli.py").is_file():
        sys.stderr.write(f"error: no polycomp sources under {ROOT / 'src'}; run from a "
                         "checkout of the repository\n")
        return 2
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    info = machine_info()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        untraced, traced, setups = measure(args, workdir)
        probes = spawn(args.workload, args.seed, workdir, "--probes")["probes"]
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    info["loadavg_end"] = os.getloadavg()

    judged = [judge_pass(r, golden["ops"]) for r in untraced]
    judged_traced = [judge_pass(r, golden["ops"]) for r in traced]
    attempted = sum(len(j["ok"]) + len(j["failed"]) for j in judged + judged_traced)
    failed_ops = sorted({f for j in judged + judged_traced for f in j["failed"]}, key=repr)
    wrong_probes = [p for p in probes if p["verdict"] == "wrong"]
    violations = sum(p["verdict"] == "violates" for p in probes)

    if args.trace:
        mean = statistics.fmean
        layers = spec.mean_metrics([spec.layer_metrics(r["trace"]) for r in traced])
        layers["untraced_s"] = mean(
            j["raw_wall_s"] - r["trace"]["top_s"] for j, r in zip(judged_traced, traced))
        untraced_wall = fastest_pass(judged)["wall_s"]
        layers["trace_overhead_frac"] = (
            fastest_pass(judged_traced)["wall_s"] / untraced_wall - 1 if untraced_wall else 0.0)
        per_pass = len(untraced[0]["ops"])
        failed_per_pass = mean(len(j["failed"]) for j in judged + judged_traced)
        layers["failed_frac"] = (failed_per_pass + violations) / (per_pass + len(probes))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in spec.PER_LAYER}
    else:
        values = fastest_pass(judged)
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in untraced)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in spec.END_TO_END}

    print("info " + json.dumps(info))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{attempted} operations, {len(failed_ops)} distinct failures")
    print("raw wall time of the untraced passes, s: "
          + ", ".join(f"{j['raw_wall_s']:.3f}" for j in judged))
    for key, code, error in failed_ops:
        print(f"  FAILED {key}: exit {code}, error {error}")
    for p in probes:
        print(f"probe {p['key']}: {p['verdict']} (exit {p['exit']}, error {p['error']})")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed_ops and not wrong_probes,
        "attempted": attempted,
        "failed": sum(len(j["failed"]) for j in judged + judged_traced),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
