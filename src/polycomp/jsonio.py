"""JSON formats for polytopes, graphs, marginal models, and matrices.

Numbers that can be large are exchanged as decimal strings ("p", "p/q") so no
consumer is tempted to truncate them to 64 bits; plain JSON integers are also
accepted on input.  All loaders raise InputError with a readable message, and
the CLI maps JSON syntax errors to their line and column.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

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
            anchor = spec.get("anchor", [])
            rows = spec.get("basis", [])
            if not isinstance(anchor, list):
                raise InputError("lattice.anchor: expected a list of integers")
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise InputError("lattice.basis: expected a list of integer rows")
            anchor = tuple(parse_integer(x, "lattice.anchor") for x in anchor)
            basis = tuple(tuple(parse_integer(x, "lattice.basis") for x in row) for row in rows)
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
    pairs = data.get("edges", [])
    if not isinstance(pairs, list):
        raise InputError("graph: edges must be a list of pairs [i, j]")
    edges = []
    for e in pairs:
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
    if not isinstance(facets, list) or not facets or not all(isinstance(f, list) for f in facets):
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
        "levels": profile.levels,
        "witnesses": profile.witnesses,
    }


def dumps_indented(obj):
    """``json.dumps(obj, indent=2)``, byte for byte, without its slow path.

    With ``indent`` set, CPython's json module uses its pure-Python encoder,
    which yields one small string per token.  This writer joins a list of
    plain ints with ``str`` in one step.  A list of int rows (tuples of one
    length, every entry exactly ``int``) is rendered by one ``%d`` template
    built for that indent and length.  Each template keeps, for this call
    only, one dict from every distinct row it has formatted to its string:
    the first list under a template formats its rows in order, and later
    lists are joined from the dict, which formats a row only on its first
    lookup.  So a row repeated as a witness is formatted once, and a list of
    rows that are all new costs one dict entry per row.  Keys and strings go
    through the same escaper the json module uses, and other scalars to
    ``json.dumps``.  Type checks are exact and run over every entry of every
    list before its dict is read, so a ``bool`` or float entry takes the
    generic path and prints as ``json.dumps`` prints it, even when the row
    equals an int row that is already in the dict.  Keys must be strings.
    """
    return _indented(obj, "\n", {})


def _indented(obj, newline, memos):
    inner = newline + "  "
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + _indented(v, inner, memos)
                 for k, v in obj.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        types = {*map(type, obj)}
        if types == {int}:
            items = map(str, obj)
        elif (
            types == {tuple}
            and len({*map(len, obj)}) == 1
            and {*map(type, chain.from_iterable(obj))} == {int}
        ):
            # rows of one length, every entry exactly int (so at least one)
            row = inner + "  "
            template = "[" + row + ("," + row).join(["%d"] * len(obj[0])) + inner + "]"
            memo = memos.get(template)
            if memo is None:
                items = list(map(template.__mod__, obj))
                memos[template] = _RowStrings(template, zip(obj, items))
            else:
                items = map(memo.__getitem__, obj)
        else:
            items = (_indented(x, inner, memos) for x in obj)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(obj)


class _RowStrings(dict):
    """``template % row`` for each distinct row printed under one template;
    a row not yet in the dict is formatted when it is first looked up."""

    def __init__(self, template, formatted):
        super().__init__(formatted)
        self.template = template

    def __missing__(self, row):
        text = self[row] = self.template % row
        return text


def certificate_to_json(cert):
    payload = {"verdict": cert.verdict}
    if cert.violation is not None:
        v = cert.violation
        payload["violation"] = {
            "facet": facet_to_json(v.facet),
            "high_level": int(v.high_level),
            "low_level": int(v.low_level),
            "high_witness": v.high_witness,
            "low_witness": v.low_witness,
        }
    payload["profiles"] = [profile_to_json(p) for p in cert.profiles]
    return payload
