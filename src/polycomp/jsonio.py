"""JSON formats for polytopes, graphs, marginal models, and matrices.

Numbers that can be large are exchanged as decimal strings ("p", "p/q") so no
consumer is tempted to truncate them to 64 bits; plain JSON integers are also
accepted on input.  All loaders raise InputError with a readable message, and
the CLI maps JSON syntax errors to their line and column.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cutpoly import Graph
from .linalg import AffineLattice, standard_lattice
from .margins import SimplicialComplex
from .polytope import LatticePolytope


class InputError(ValueError):
    """Malformed input file content."""


def parse_integer(value, what="integer"):
    if isinstance(value, bool):
        raise InputError(f"{what}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise InputError(f"{what}: not a decimal integer: {value!r}") from exc
    raise InputError(f"{what}: expected an integer, got {type(value).__name__}")


def parse_rational(value, what="rational"):
    if isinstance(value, str) and "/" in value:
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num, 10), int(den, 10))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: not a p/q rational: {value!r}") from exc
    return Fraction(parse_integer(value, what))


def format_integer(value):
    """Decimal-string form used for values that may exceed 64 bits."""
    return str(int(value))


def format_rational(value):
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_point_list(data, what="points"):
    if not isinstance(data, list) or not data:
        raise InputError(f"{what}: expected a nonempty list of points")
    points = []
    for row in data:
        if not isinstance(row, list):
            raise InputError(f"{what}: each point must be a list of integers")
        points.append(tuple(parse_integer(x, what) for x in row))
    return points


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def polytope_from_json(data):
    """{"points": [[ints]], "lattice": "auto" | "ambient" | {anchor, basis}}"""
    if not isinstance(data, dict) or "points" not in data:
        raise InputError('polytope: expected an object with a "points" key')
    points = parse_point_list(data["points"])
    spec = data.get("lattice", "auto")
    try:
        if spec == "auto":
            lattice = None
        elif spec == "ambient":
            lattice = standard_lattice(len(points[0]))
        elif isinstance(spec, dict):
            anchor = tuple(parse_integer(x, "lattice.anchor") for x in spec.get("anchor", []))
            basis = tuple(
                tuple(parse_integer(x, "lattice.basis") for x in row)
                for row in spec.get("basis", [])
            )
            lattice = AffineLattice(anchor, basis)
        else:
            raise InputError(f"polytope: unsupported lattice spec {spec!r}")
        return LatticePolytope(points, lattice=lattice)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def graph_from_json(data):
    """{"n": int, "edges": [[i, j]]}"""
    if not isinstance(data, dict) or "n" not in data:
        raise InputError('graph: expected an object with an "n" key')
    n = parse_integer(data["n"], "graph.n")
    edges = []
    for e in data.get("edges", []):
        if not isinstance(e, list) or len(e) != 2:
            raise InputError("graph: each edge must be a pair [i, j]")
        edges.append((parse_integer(e[0], "edge"), parse_integer(e[1], "edge")))
    try:
        return Graph(n, tuple(edges))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def model_from_json(data):
    """{"n": int, "facets": [[ints]], "d": [ints]}"""
    if not isinstance(data, dict) or "n" not in data:
        raise InputError('model: expected an object with an "n" key')
    n = parse_integer(data["n"], "model.n")
    facets = data.get("facets")
    if not isinstance(facets, list) or not facets:
        raise InputError("model: facets must be a nonempty list of vertex lists")
    d = data.get("d")
    if not isinstance(d, list) or len(d) != n:
        raise InputError("model: d must list one table size per vertex")
    try:
        complex_ = SimplicialComplex(
            n, tuple(tuple(parse_integer(v, "facet") for v in f) for f in facets)
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return complex_, tuple(parse_integer(x, "model.d") for x in d)


def matrix_from_json(data):
    """Either a bare [[ints]] or {"matrix": [[ints]]}."""
    if isinstance(data, dict):
        data = data.get("matrix")
    if not isinstance(data, list) or not data:
        raise InputError("matrix: expected a nonempty list of rows")
    rows = []
    width = None
    for row in data:
        if not isinstance(row, list):
            raise InputError("matrix: each row must be a list")
        parsed = [parse_integer(x, "matrix entry") for x in row]
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError("matrix: ragged rows")
        rows.append(parsed)
    return rows


def facet_to_json(facet):
    return {
        "normal": list(facet.normal),
        "offset": format_integer(facet.offset),
    }


def profile_to_json(profile):
    return {
        "facet": facet_to_json(profile.facet),
        "levels": [int(m) for m in profile.levels],
        "witnesses": [list(w) for w in profile.witnesses],
    }


def certificate_to_json(cert):
    payload = {"verdict": cert.verdict}
    if cert.violation is not None:
        v = cert.violation
        payload["violation"] = {
            "facet": facet_to_json(v.facet),
            "high_level": int(v.high_level),
            "low_level": int(v.low_level),
            "high_witness": list(v.high_witness),
            "low_witness": list(v.low_witness),
        }
    payload["profiles"] = [profile_to_json(p) for p in cert.profiles]
    return payload
