"""Record golden.json: the expected output of every operation a run can make.

    python3 perfbench/record.py

Run from the repository root.  Every fixed instance and every pool member of
each seeded family runs once; its exit code and a digest of its stdout are
stored under the operation's key.  Before an output is accepted, it is
checked against an independent oracle where one is cheap:

* boundary-model ``certify`` verdicts against ``boundary_simplex_classifier``;
* the triangulation volumes against ``total_normalized_volume``;
* ``cut-classify``: planar graphs (``networkx.check_planarity``) must have no
  K5 minor, and the longest induced cycle must match networkx's
  ``chordless_cycles``;
* ``all_pulling_unimodular`` on cut polytopes against the cut classifier;
* LP >= IP on every ``bounds`` operation.

The probes' expected answers are checked the same way.  Recording the
whole pool takes several minutes; it must be redone, and the change
explained, whenever a program change alters an output on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
WORKDIR = ROOT / ".perfbench_work" / f"record-{os.getpid()}"

import ops  # noqa: E402
import workloads  # noqa: E402


class OracleMismatch(AssertionError):
    pass


def _check(ok, what):
    if not ok:
        raise OracleMismatch(what)


def expected_cut_classify(payload):
    """The planarity half of the K5 test and the induced-cycle length, from
    networkx; None for k5 when the graph is not planar (no cheap oracle)."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(1, payload["n"] + 1))
    g.add_edges_from(tuple(e) for e in payload["edges"])
    planar, _ = nx.check_planarity(g)
    longest = max((len(c) for c in nx.chordless_cycles(g)), default=0)
    return (False if planar else None), longest


def check_oracles(op, outcome):
    from polycomp.cutpoly import Graph, cut_compressed
    from polycomp.jsonio import polytope_from_json
    from polycomp.margins import boundary_simplex_classifier
    from polycomp.triangulate import total_normalized_volume

    out = json.loads(outcome.stdout)
    if op.key in ("certify/bd333", "certify/bd334", "certify/bd235"):
        d = tuple(int(c) for c in op.key[-3:])
        _check(out["verdict"] == boundary_simplex_classifier(3, d), f"{op.key}: verdict")
    elif op.command == "triangulate":
        total = total_normalized_volume(polytope_from_json(op.payload))
        _check(sum(out["volumes"]) == total, f"{op.key}: volume {sum(out['volumes'])} != {total}")
    elif op.command == "cut-classify":
        k5, longest = expected_cut_classify(op.payload)
        _check(out["max_induced_cycle"] == longest, f"{op.key}: induced cycle")
        _check(k5 is None or out["k5_minor"] == k5, f"{op.key}: planar graph with K5 minor")
    elif op.command == "lib:all_pulling_unimodular":
        mask = int(op.key.rsplit("-", 1)[1])
        pairs = [tuple(e) for e in workloads.complete_edges(4)]
        graph = Graph(4, tuple(e for k, e in enumerate(pairs) if mask >> k & 1))
        _check(out == cut_compressed(graph), f"{op.key}: pulling search vs cut classifier")
    elif op.command == "bounds":
        if out["lp"] != "infeasible":
            _check(out["ip"] == "infeasible" or Fraction(out["lp"]) >= out["ip"],
                   f"{op.key}: LP below IP")


def check_probe(probe):
    """The probes' expected answers, recomputed independently."""
    if probe.op.key == "probe/grid-3x4":
        k5, longest = expected_cut_classify(probe.op.payload)
        _check(k5 is False and longest > 4 and probe.expect == (1, "compressed", False),
               "grid 3x4 is planar with a long induced cycle, so not compressed")
    elif probe.op.key == "probe/huge-square":
        # compressedness is invariant under lattice translation: the unit square
        square = {"points": [[0, 0], [0, 1], [1, 0], [1, 1]], "lattice": "auto"}
        small = workloads.Op("probe/unit-square", "certify", "--polytope", square)
        outcome = ops.execute(small, ops.write_input(WORKDIR, small), 10.0)
        code, _, verdict = probe.expect
        _check((outcome.exit, json.loads(outcome.stdout)["verdict"]) == (code, verdict),
               "unit square certificate")


def record():
    recorded = {}
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for op in workloads.all_pool_ops(workload):
                outcome = ops.execute(op, ops.write_input(WORKDIR, op), 600.0)
                if outcome.error is not None:
                    raise SystemExit(f"{op.key}: raised {outcome.error}")
                check_oracles(op, outcome)
                recorded[op.key] = {"exit": outcome.exit, "stdout": outcome.digest}
                print(f"{op.key:<36} exit {outcome.exit}  {outcome.wall:8.3f} s", flush=True)
            for probe in workloads.probes(workload):
                check_probe(probe)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    golden = {"ops": dict(sorted(recorded.items()))}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def main():
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
