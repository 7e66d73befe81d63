import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycomp.jsonio import (
    InputError,
    dumps_indented,
    facet_to_json,
    format_integer,
    format_rational,
    graph_from_json,
    matrix_from_json,
    model_from_json,
    parse_integer,
    polytope_from_json,
)


def test_parse_integer_accepts_numbers_and_decimal_strings():
    assert parse_integer(7) == 7
    assert parse_integer("-12") == -12
    big = 10 ** 30
    assert parse_integer(str(big)) == big
    with pytest.raises(InputError):
        parse_integer("3.5")
    with pytest.raises(InputError):
        parse_integer(True)


def test_format_rational_and_integer():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-5, 3)) == "-5/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(3) == "3"
    assert format_integer(10 ** 25) == str(10 ** 25)


def test_polytope_from_json_lattice_modes():
    auto = polytope_from_json({"points": [[0], [2]]})
    assert auto.lattice_points() == ((0,), (2,))
    ambient = polytope_from_json({"points": [[0], [2]], "lattice": "ambient"})
    assert ambient.lattice_points() == ((0,), (1,), (2,))
    explicit = polytope_from_json(
        {"points": [[0], [2]], "lattice": {"anchor": [0], "basis": [[1]]}}
    )
    assert explicit.lattice_points() == ((0,), (1,), (2,))


def test_polytope_from_json_rejects_bad_shapes():
    with pytest.raises(InputError):
        polytope_from_json({"points": []})
    with pytest.raises(InputError):
        polytope_from_json({"points": [[0], [1]], "lattice": 5})
    with pytest.raises(InputError):
        polytope_from_json({"nope": []})
    with pytest.raises(InputError):
        polytope_from_json({"points": [[0], [3]], "lattice": {"anchor": [0], "basis": [[2]]}})


def test_graph_and_model_loaders():
    g = graph_from_json({"n": 3, "edges": [[1, 2], [2, 3]]})
    assert g.edges == ((1, 2), (2, 3))
    with pytest.raises(InputError):
        graph_from_json({"n": 2, "edges": [[1, 1]]})
    complex_, d = model_from_json({"n": 3, "facets": [[1, 2], [2, 3]], "d": [2, 2, 2]})
    assert complex_.facets == ((1, 2), (2, 3))
    assert d == (2, 2, 2)
    with pytest.raises(InputError):
        model_from_json({"n": 3, "facets": [[1, 2]], "d": [2, 2, 2]})
    with pytest.raises(InputError):
        model_from_json({"n": 3, "facets": [[1, 2], [2, 3]], "d": [2, 2]})


def test_matrix_loader():
    assert matrix_from_json([[1, 2], [3, 4]]) == [[1, 2], [3, 4]]
    assert matrix_from_json({"matrix": [["10000000000000000000", 0]]}) == [
        [10 ** 19, 0]
    ]
    with pytest.raises(InputError):
        matrix_from_json({"matrix": [[1, 2], [3]]})
    with pytest.raises(InputError):
        matrix_from_json([])


def test_facet_to_json_uses_decimal_strings():
    from polycomp.polytope import facet_enumeration

    facet = facet_enumeration([(0,), (2,)])[0]
    payload = facet_to_json(facet)
    assert payload == {"normal": [-1], "offset": "-2"} or payload == {
        "normal": [1],
        "offset": "0",
    }


# more than 4300 digits: str() refuses them unless the limit is lifted
_HUGE = st.tuples(st.sampled_from([4301, 4400]), st.sampled_from([1, -1])).map(
    lambda t: t[1] * (10 ** t[0] - 1)
)
_INTS = st.integers() | _HUGE
_SCALARS = (
    _INTS
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False)
    | st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\u0001", "é€𝄞", "\u2028"])
)


@st.composite
def _rows(draw):
    """Row-shaped lists as a certificate's witnesses: equal-length int rows,
    sometimes with one odd row (another length, possibly 0) or one odd
    entry (a bool, a float or a huge int), as tuples or lists in a list or
    a tuple.  Entries are sometimes only -1, 0 and 1, and rows are
    sometimes repeated, so equal rows meet within a list and across
    sibling lists, as repeated witnesses do.  Only exact-int rows of one
    nonzero length print as bare digits under a ``%d`` template; every
    other case must print as ``json.dumps`` prints it."""
    width = draw(st.integers(0, 4))
    entries = draw(st.sampled_from([st.integers(), st.integers(-1, 1)]))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
        at = draw(st.integers(0, len(rows) - 1))
        odd = draw(st.sampled_from(["entry", "length", "none"]))
        if odd == "length":
            rows[at] = draw(st.lists(st.integers(), max_size=5))
        elif odd == "entry" and width:
            rows[at][draw(st.integers(0, width - 1))] = draw(
                st.sampled_from([True, False, 1.5, 2.0, -0.0]) | _HUGE | st.floats()
            )
    row = draw(st.sampled_from([tuple, list]))
    return draw(st.sampled_from([list, tuple]))(map(row, rows))


_DOCUMENTS = st.recursive(
    _SCALARS | _rows(),
    lambda children: (
        st.lists(_INTS)
        | st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_DOCUMENTS | _rows())
def test_dumps_indented_matches_json_dumps(doc):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert dumps_indented(doc) == json.dumps(doc, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.tuples(*[st.integers(-1, 1)] * width), max_size=6), max_size=4)))
def test_dumps_indented_matches_json_dumps_on_sibling_row_lists(doc):
    # witness lists of one row length: rows repeat within a list and
    # across siblings, and a later sibling brings rows not seen before
    assert dumps_indented(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    [[(1, 0), (1, 0)], [(1, 0)]],
    [[(1, 0), (1, 0)], [(1, 0), (0, 1)]],
    # equal rows, but a bool row takes the generic path and prints "true"
    [[(1, 0)], [(True, 0)]],
    [[(True, 0)], [(1, 0)]],
    [[(1, 0)], [(1, 0), (True, 0)]],
    # distinct tuple objects with equal entries
    [[tuple([1, 0]), tuple([1, 0])], [tuple([1, 0]), (1, 0)]],
    # one row at two depths, so under two templates
    [[(1, 0)], [[(1, 0)], [(1, 0)]], {"w": [(1, 0)]}],
])
def test_dumps_indented_repeated_rows(doc):
    assert dumps_indented(doc) == json.dumps(doc, indent=2)
