"""Command-line interface: certification, classification, bounds, repro.

Every subcommand reads JSON files, writes one JSON document (or a table for
sweeps and repro) to stdout, and keeps diagnostics on stderr.  Output is
byte-identical across runs for identical inputs: no timestamps, fixed key
order, sorted lists.  Exit codes: 0 computed, 1 verdict-negative where a
verdict exists, 2 usage or input error, or a stdout closed before the output
was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import permutations

from . import __version__
from .bounds import (
    find_weight,
    gap_witness,
    ip_max,
    lp_ip_equal_all,
    lp_max,
    make_program,
    pull_first_unimodular,
)
from .compressed import is_compressed
from .cutpoly import cut_compressed, has_minor, max_induced_cycle
from .jsonio import (
    InputError,
    certificate_to_json,
    dumps_indented,
    facet_to_json,
    format_rational,
    graph_from_json,
    load_json,
    matrix_from_json,
    model_from_json,
    polytope_from_json,
)
from .margins import margins_compressed
from .polytope import LatticePolytope
from .triangulate import pulling_triangulation, triangulation_volumes


def _emit(payload):
    sys.stdout.write(dumps_indented(payload))
    sys.stdout.write("\n")


def _load(path, reader):
    try:
        data = load_json(path)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    return reader(data)


def _parse_int_list(text, what):
    items = [t for t in text.replace(",", " ").split() if t]
    if not items:
        raise InputError(f"{what}: empty list")
    try:
        return [int(t, 10) for t in items]
    except ValueError:
        raise InputError(f"{what}: expected comma-separated integers, got {text!r}")


def cmd_certify(args):
    poly = _load(args.polytope, polytope_from_json)
    cert = is_compressed(poly)
    _emit(certificate_to_json(cert))
    return 0 if cert.verdict else 1


def cmd_triangulate(args):
    poly = _load(args.polytope, polytope_from_json)
    pts = poly.lattice_points()
    if args.order is None:
        order = list(range(len(pts)))
    else:
        order = _parse_int_list(args.order, "--order")
    if sorted(order) != list(range(len(pts))):
        raise InputError(
            f"--order must be a permutation of 0..{len(pts) - 1} "
            f"(the polytope has {len(pts)} lattice points)"
        )
    tri = pulling_triangulation(poly, order)
    volumes = triangulation_volumes(poly, tri)
    _emit(
        {
            "points": [list(p) for p in pts],
            "order": list(order),
            "simplices": [list(cell) for cell in tri.simplices],
            "volumes": [int(v) for v in volumes],
            "unimodular": all(v == 1 for v in volumes),
        }
    )
    return 0


def cmd_cut_classify(args):
    graph = _load(args.graph, graph_from_json)
    try:
        k5 = has_minor(graph, "K5")
    except ValueError as exc:
        raise InputError(str(exc))
    longest = max_induced_cycle(graph)
    compressed = not k5 and longest <= 4
    _emit(
        {
            "compressed": compressed,
            "k5_minor": k5,
            "max_induced_cycle": longest,
        }
    )
    return 0 if compressed else 1


def cmd_margin_classify(args):
    complex_, d = _load(args.model, model_from_json)
    try:
        result = margins_compressed(complex_, d)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit({"compressed": result.verdict, "rule": result.rule})
    return 1 if result.verdict == "false" else 0


def cmd_bounds(args):
    matrix = _load(args.matrix, matrix_from_json)
    b = _parse_int_list(args.b, "--b")
    cell = args.cell
    if not 1 <= cell <= len(matrix[0]):
        raise InputError(f"--cell must be in 1..{len(matrix[0])}")
    try:
        program = make_program(matrix, b)
    except ValueError as exc:
        raise InputError(str(exc))
    lp = lp_max(program, cell - 1, minimize=args.minimize)
    ip = ip_max(program, cell - 1, minimize=args.minimize, lp=lp)
    payload = {"cell": cell, "direction": "min" if args.minimize else "max"}
    if lp.status == "optimal":
        payload["lp"] = format_rational(lp.value)
    else:
        payload["lp"] = "infeasible"
    if ip.status == "optimal":
        payload["ip"] = ip.value
    else:
        payload["ip"] = "infeasible"
        payload["ip_reason"] = ip.reason
    _emit(payload)
    return 0


def cmd_gap_witness(args):
    matrix = _load(args.matrix, matrix_from_json)
    try:
        witness = gap_witness(matrix)
    except ValueError as exc:
        raise InputError(str(exc))
    if witness is None:
        _emit({"witness": None, "compressed": True})
        return 1
    _emit(
        {
            "witness": {
                "facet": facet_to_json(witness.facet),
                "b": list(witness.rhs),
                "cell": witness.objective_index + 1,
                "lp": format_rational(witness.lp_value),
                "ip": witness.ip_value,
                "kernel_vector": list(witness.kernel_vector),
            },
            "compressed": False,
        }
    )
    return 0


def cmd_sweep(args):
    matrix = _load(args.matrix, matrix_from_json)
    cells = None
    if args.cells is not None:
        cells = [c - 1 for c in _parse_int_list(args.cells, "--cells")]
        if any(not 0 <= c < len(matrix[0]) for c in cells):
            raise InputError(f"--cells entries must be in 1..{len(matrix[0])}")
    try:
        result = lp_ip_equal_all(matrix, args.budget, cells=cells)
    except ValueError as exc:
        raise InputError(str(exc))
    if args.format == "tsv":
        sys.stdout.write("holds\tchecked_rhs\tb\tcell\tlp\tip\n")
        if result.holds:
            sys.stdout.write(f"true\t{result.checked_rhs}\t-\t-\t-\t-\n")
        else:
            b, i, lp_value, ip_value = result.counterexample
            sys.stdout.write(
                f"false\t{result.checked_rhs}\t{','.join(map(str, b))}\t{i + 1}\t"
                f"{format_rational(lp_value)}\t{ip_value}\n"
            )
    else:
        payload = {"holds": result.holds, "checked_rhs": result.checked_rhs}
        if result.counterexample is not None:
            b, i, lp_value, ip_value = result.counterexample
            payload["counterexample"] = {
                "b": list(b),
                "cell": i + 1,
                "lp": format_rational(lp_value),
                "ip": ip_value,
            }
        else:
            payload["counterexample"] = None
        _emit(payload)
    return 0 if result.holds else 1


# -- repro: re-derive the headline numbers ------------------------------------


def _birkhoff_b3():
    """The Birkhoff polytope B3: the six 3x3 permutation matrices, row-major."""
    pts = []
    for perm in permutations(range(3)):
        mat = [0] * 9
        for i, j in enumerate(perm):
            mat[i * 3 + j] = 1
        pts.append(tuple(mat))
    return LatticePolytope(pts)


def _repro_checks():
    from itertools import combinations

    from .compressed import facet_levels
    from .cutpoly import (
        complete_graph,
        cut_polytope,
        cut_semimetric,
        cycle_facet_levels,
        cycle_graph,
    )
    from .margins import (
        SimplicialComplex,
        binary_graph_classifier,
        boundary_of_simplex,
        boundary_simplex_classifier,
        covariance_check,
        graph_complex,
        marginal_matrix,
        margins_compressed,
    )
    from .triangulate import transitive_symmetry_shortcut

    def pentagonal_values():
        k5 = complete_graph(5)
        b = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}

        def value(subset):
            cv = cut_semimetric(k5, subset)
            return sum(b[i] * b[j] * x for (i, j), x in zip(k5.edges, cv.coords))

        got = (value({1, 2, 3}), value({1, 2}))
        return got == (-6, -2), f"pentagonal form on two cuts: {got[0]}, {got[1]}"

    def k5_not_compressed():
        cert = is_compressed(cut_polytope(complete_graph(5)))
        multi = max(len(p.levels) for p in cert.profiles)
        return (
            not cert.verdict and multi >= 2,
            f"verdict={cert.verdict}, max levels per facet={multi}",
        )

    def k5_shortcut():
        verdict = transitive_symmetry_shortcut(cut_polytope(complete_graph(5)))
        return verdict == "not-compressed", f"one-ordering verdict: {verdict}"

    def birkhoff_shortcut():
        verdict = transitive_symmetry_shortcut(_birkhoff_b3())
        return verdict == "compressed", f"one-ordering verdict: {verdict}"

    def birkhoff_condition_two():
        cert = is_compressed(_birkhoff_b3())
        single = all(len(p.levels) == 1 for p in cert.profiles)
        return cert.verdict and single, (
            f"verdict={cert.verdict}, all facets single-level={single}"
        )

    def cut_classifier_triple():
        got = (
            cut_compressed(complete_graph(3)),
            cut_compressed(cycle_graph(5)),
            cut_compressed(complete_graph(5)),
        )
        return got == (True, False, False), f"K3,C5,K5 -> {got}"

    def cycle_levels_even():
        r4 = cycle_facet_levels(4, [(1, 2)])
        r6 = cycle_facet_levels(6, [(1, 2)])
        ok = (
            r4.levels == (2,)
            and r4.matches_stated_count
            and r6.levels == (2, 4)
            and r6.matches_stated_count
        )
        return ok, f"c=4 levels={r4.levels}, c=6 levels={r6.levels}"

    def cycle_levels_odd_flag():
        r5 = cycle_facet_levels(5, [(1, 2)])
        ok = r5.levels == (2, 4) and not r5.matches_stated_count
        return ok, (
            f"c=5 levels={r5.levels}, stated count {r5.stated_count} "
            f"flagged={'yes' if not r5.matches_stated_count else 'no'}"
        )

    def margins_rules():
        path = SimplicialComplex(3, ((1, 2), (2, 3)))
        r1 = margins_compressed(path, (3, 3, 3))
        r2 = margins_compressed(graph_complex(cycle_graph(5)), (2,) * 5)
        r3 = margins_compressed(boundary_of_simplex(3), (3, 4, 4))
        ok = (
            (r1.verdict, r1.rule) == ("true", "decomposable")
            and (r2.verdict, r2.rule) == ("false", "binary-graph")
            and (r3.verdict, r3.rule) == ("false", "boundary-of-simplex")
        )
        return ok, (
            f"path(3,3,3)={r1.verdict}/{r1.rule}; C5 binary={r2.verdict}/{r2.rule}; "
            f"boundary(3,4,4)={r3.verdict}/{r3.rule}"
        )

    def boundary_table():
        got = (
            boundary_simplex_classifier(3, (3, 3, 7)),
            boundary_simplex_classifier(3, (3, 4, 4)),
            boundary_simplex_classifier(4, (2, 3, 3, 3)),
        )
        return got == (True, False, False), f"(3,3,7),(3,4,4),(2,3,3,3) -> {got}"

    def covariance_small():
        ok_c4 = binary_graph_classifier(graph_complex(cycle_graph(4)))
        bad_k4 = binary_graph_classifier(graph_complex(complete_graph(4)))
        cov = covariance_check(graph_complex(cycle_graph(4)))
        return ok_c4 and not bad_k4 and cov, (
            f"C4 classifier={ok_c4}, K4 classifier={bad_k4}, C4 covariance map={cov}"
        )

    example = [[1, 1, 1, 1, 1], [0, 0, 1, 2, 3], [1, 0, 0, 0, 0]]

    def example_weight():
        w = find_weight(example)
        shown = "(" + ", ".join(format_rational(x) for x in w) + ")"
        return w == (1, 0, 0), f"weight vector: {shown}"

    def example_sweep():
        res = lp_ip_equal_all(example, budget=5, cells=[0])
        return res.holds, f"first cell equal on all {res.checked_rhs} rhs, budget 5"

    def example_no_pulling():
        got = [pull_first_unimodular(example, i) for i in range(5)]
        return not any(got), f"unimodular-first orderings per cell: {got}"

    def segment_gap():
        w = gap_witness([[1, 1, 1], [0, 1, 2]])
        ok = (
            w is not None
            and w.rhs == (1, 1)
            and w.lp_value == Fraction(1, 2)
            and w.ip_value == 0
        )
        return ok, f"b={list(w.rhs)}, lp={format_rational(w.lp_value)}, ip={w.ip_value}"

    def decomposable_sweep():
        path = SimplicialComplex(3, ((1, 2), (2, 3)))
        model = marginal_matrix(path, (2, 2, 2))
        res = lp_ip_equal_all([list(r) for r in model.matrix], budget=3)
        return res.holds, f"all cells equal on {res.checked_rhs} rhs, budget 3"

    def pentagonal_profile():
        poly = cut_polytope(complete_graph(5))
        edges = list(combinations(range(1, 6), 2))
        b = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
        normal = tuple(-b[i] * b[j] for i, j in edges)
        facet = next(f for f in poly.facets() if f.normal == normal)
        profile = facet_levels(poly, facet)
        return profile.levels == (2, 6), f"pentagonal facet levels: {list(profile.levels)}"

    return [
        ("pentagonal-values", pentagonal_values),
        ("pentagonal-facet-levels", pentagonal_profile),
        ("cut-k5-not-compressed", k5_not_compressed),
        ("cut-k5-symmetry-shortcut", k5_shortcut),
        ("birkhoff-b3-symmetry-shortcut", birkhoff_shortcut),
        ("birkhoff-b3-single-level-facets", birkhoff_condition_two),
        ("cut-classifier-k3-c5-k5", cut_classifier_triple),
        ("cycle-levels-even", cycle_levels_even),
        ("cycle-levels-odd-flagged", cycle_levels_odd_flag),
        ("margin-rules", margins_rules),
        ("boundary-of-simplex-table", boundary_table),
        ("binary-graph-covariance", covariance_small),
        ("example-matrix-weight", example_weight),
        ("example-matrix-first-cell-sweep", example_sweep),
        ("example-matrix-no-unimodular-pulling", example_no_pulling),
        ("segment-gap-witness", segment_gap),
        ("decomposable-margins-sweep", decomposable_sweep),
    ]


def cmd_repro(args):
    checks = _repro_checks()
    if args.list:
        for name, _ in checks:
            sys.stdout.write(name + "\n")
        return 0
    if not args.all:
        raise InputError("repro needs --all (or --list)")
    failures = 0
    for name, run in checks:
        ok, detail = run()
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        sys.stdout.write(f"{status}  {name:<40} {detail}\n")
    sys.stdout.write(f"{len(checks) - failures}/{len(checks)} checks passed\n")
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polycomp",
        description=(
            "Exact certification of compressed lattice polytopes, cut and "
            "marginal polytope classification, and LP/IP cell bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=f"polycomp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="facet-level compressedness certificate")
    p.add_argument("--polytope", required=True, help="polytope JSON file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("triangulate", help="pulling triangulation of an ordering")
    p.add_argument("--polytope", required=True)
    p.add_argument("--order", help='lattice-point order, e.g. "0,1,2" (default: lex)')
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("cut-classify", help="compressedness of a graph's cut polytope")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.set_defaults(func=cmd_cut_classify)

    p = sub.add_parser("margin-classify", help="compressedness of a marginal polytope")
    p.add_argument("--model", required=True, help="model JSON file")
    p.set_defaults(func=cmd_margin_classify)

    p = sub.add_parser("bounds", help="exact LP and IP optimum of one cell")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--b", required=True, help='right-hand side, e.g. "1,1"')
    p.add_argument("--cell", required=True, type=int, help="1-based cell index")
    p.add_argument("--minimize", action="store_true",
                   help="lower bound instead of upper (plumbing only)")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gap-witness", help="construct a right-hand side with LP > IP")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_gap_witness)

    p = sub.add_parser("sweep", help="LP = IP over all small right-hand sides")
    p.add_argument("--matrix", required=True)
    p.add_argument("--budget", required=True, type=int, help="max column count in b")
    p.add_argument("--cells", help="restrict to these 1-based cells")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("repro", help="re-derive every headline value")
    p.add_argument("--all", action="store_true", help="run every check")
    p.add_argument("--list", action="store_true", help="list check names")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # exact arithmetic takes integers of any length, in JSON input and
    # output; interpreters before 3.10.7 have no digit limit to lift
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        # a closed stdout must fail here, inside the try, not at exit
        sys.stdout.flush()
        return code
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull so
        # that flush succeeds (the recipe of the Python docs for SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("error: stdout was closed before the output was written\n")
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
