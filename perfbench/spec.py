"""What the benchmark measures: workloads, metrics, bounds, and BENCHMARK.json.

This module is the single source of the metric list.  ``run.py`` reports
exactly these metrics, and ``python3 perfbench/suite.py`` writes them to
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import json
import statistics

RUN_SECONDS = 22

WORKLOADS = {
    "certify": "certify on high-dimensional models (facet enumeration and lifting) "
               "and on 4- and 5-dim polytopes with thousands of points (scan, levels)",
    "triangulate": "cold-cache pulling triangulations: Cut(K5) under seeded orderings and "
                   "B4 in the symmetry shortcut; per-face elimination and facet enumeration",
    "sweep": "LP=IP sweep, seeded bounds and gap witnesses: the exact simplex and the IP "
             "search, with no triangulation and tiny facet work",
    "classify": "many small cut-classify, margin-classify and pulling-search calls: "
                "minor search, chordless cycles, the margins cascade, a hot face cache",
}

# name, unit, better, bound (share of the parent's median), set from the
# ten-seed spreads in perfbench/README.md (Noise): 0.2 is more than three
# times the widest spread of wall_s and cpu_s; op_max_s and setup_s spread
# most and have 0.25, the largest bound BENCHMARK.json allows.
END_TO_END = [
    ("wall_s", "s", "lower", 0.2),
    ("cpu_s", "s", "lower", 0.2),
    ("op_max_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

# spans with calls and self time
TIMED = [
    "linalg.rref", "linalg.hermite_normal_form", "linalg.determinant",
    "linalg.solve_integer", "polytope.facets", "polytope.lattice_points",
    "polytope.facet_index_subsets", "compressed.is_compressed",
    "triangulate.pulling_triangulation_of", "triangulate.lattice_point_orbits",
    "cutpoly.has_minor", "cutpoly.chordless_cycles", "cutpoly.cut_polytope",
    "margins.margins_compressed", "margins.decompositions", "margins.marginal_matrix",
    "simplex.solve_standard_form", "bounds.make_program", "bounds.ip_max",
]
COUNTED = ["linalg.matrix_rank", "linalg.solve_rational", "linalg.nullspace_rational",
           "bounds.find_weight", "bounds.lp_max"]
ITEMS = ["polytope.facets", "polytope.lattice_points",
         "triangulate.pulling_triangulation_of", "cutpoly.chordless_cycles"]
RULES = ["decomposable", "reducible", "cone", "boundary-of-simplex", "binary-graph",
         "certifier", "unknown"]
JSON_READERS = ["jsonio.load_json", "jsonio.polytope_from_json", "jsonio.graph_from_json",
                "jsonio.model_from_json", "jsonio.matrix_from_json"]

PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in TIMED]
    + [(f"{n}.self_s", "s", "lower") for n in TIMED]
    + [(f"{n}.calls", "count", "lower") for n in COUNTED]
    # item counts are fixed by the inputs: a change that alters one has
    # changed an answer or the shape of one, and "higher" only says which
    # way is more output
    + [(f"{n}.out", "count", "higher") for n in ITEMS]
    + [
        ("polytope.init.self_s", "s", "lower"),
        ("polytope.face_cache_hit_ratio", "ratio", "higher"),
        ("compressed.profiles.out", "count", "higher"),
        ("triangulate.orderings_per_search", "count", "lower"),
    ]
    # verdicts per rule of the cascade are fixed by the inputs too.  The
    # likely change is a cheap rule deciding more models, so those counts
    # read better higher; the certifier is the slow fallback and "unknown"
    # is no verdict at all, so theirs read better lower
    + [(f"margins.rule.{r}", "count", "lower" if r in ("certifier", "unknown") else "higher")
       for r in RULES]
    + [
        ("bounds.lp_solves_per_program", "ratio", "lower"),
        ("jsonio.load.self_s", "s", "lower"),
        ("untraced_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace):
    """Per-layer values of one traced pass, from ``Tracer.snapshot()``."""
    calls, self_s = trace["calls"], trace["self_s"]
    values = {}
    for n in TIMED:
        values[f"{n}.calls"] = calls.get(n, 0)
        values[f"{n}.self_s"] = self_s.get(n, 0.0)
    for n in COUNTED:
        values[f"{n}.calls"] = calls.get(n, 0)
    for n in ITEMS:
        values[f"{n}.out"] = trace["out"].get(n, 0)
    values["polytope.init.self_s"] = self_s.get("polytope.init", 0.0)
    values["polytope.face_cache_hit_ratio"] = 1.0 - _ratio(
        calls.get("polytope.facet_index_subsets", 0),
        calls.get("polytope.config.facet_subsets", 0),
    ) if calls.get("polytope.config.facet_subsets") else 0.0
    values["compressed.profiles.out"] = trace["out"].get("compressed.is_compressed", 0)
    searches = (calls.get("triangulate.all_pulling_unimodular", 0)
                + calls.get("bounds.pull_first_unimodular", 0))
    values["triangulate.orderings_per_search"] = _ratio(trace["searched_orderings"], searches)
    for r in RULES:
        values[f"margins.rule.{r}"] = trace["rules"].get(r, 0)
    values["bounds.lp_solves_per_program"] = _ratio(
        calls.get("simplex.solve_standard_form", 0), calls.get("bounds.make_program", 0)
    )
    values["jsonio.load.self_s"] = sum(self_s.get(n, 0.0) for n in JSON_READERS)
    return values


def mean_metrics(samples):
    """Per-name mean of a list of {name: value} dicts."""
    return {name: statistics.fmean(s[name] for s in samples) for name in samples[0]}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(path):
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
