"""Serialization round trips for every file schema."""

import json
import random
from fractions import Fraction
from math import inf, nan

import pytest
from hypothesis import given, strategies as st

from helpers import as_matrix, rand_matrix

from semitensor import FLOAT64, RATIONAL, Matrix, canonicalize, decompose_class, from_rows
from semitensor.io import (
    _indented,
    class_from_dict,
    class_to_dict,
    coords_from_dict,
    coords_to_dict,
    dump_json,
    gap_reports_to_csv,
    matrix_from_csv,
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
)
from semitensor.matrix import as_scalar
from semitensor.metric import GapReport


def test_matrix_json_round_trip_rational():
    rng = random.Random(31)
    for _ in range(20):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert matrix_from_dict(matrix_to_dict(A)) == A


def test_matrix_json_round_trip_float():
    A = from_rows([[1.0, -0.25, 3.7e-30]], FLOAT64)
    assert matrix_from_dict(matrix_to_dict(A)) == A


def test_matrix_json_schema():
    d = matrix_to_dict(as_matrix([[1, Fraction(2, 3)]]))
    assert d == {"rows": 1, "cols": 2, "scalar": "rational", "data": ["1", "2/3"]}
    with pytest.raises(ValueError):
        matrix_from_dict({"rows": 1, "cols": 1, "scalar": "decimal", "data": ["1"]})
    with pytest.raises(ValueError):
        matrix_from_dict({"rows": 1, "cols": 1})
    # float literals are not valid rational data, and booleans are no data
    for scalar, value in (("rational", 0.5), ("rational", True), ("float64", False)):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": 1, "cols": 1, "scalar": scalar, "data": [value]})
    # shape fields are JSON integers, never truncated floats, strings or bools
    for rows in (2.7, 2.0, "2"):
        with pytest.raises(ValueError):
            matrix_from_dict({"rows": rows, "cols": 1, "scalar": "rational", "data": ["1", "2"]})
    with pytest.raises(ValueError):
        matrix_from_dict({"rows": True, "cols": True, "scalar": "rational", "data": ["1"]})


@pytest.mark.parametrize("data", ["12", {"3": 0, "4": 0}, None, 12],
                         ids=["string", "object", "null", "number"])
def test_matrix_data_must_be_a_json_array(data):
    # a string or an object is iterable, but its characters or keys are no entries
    rep = {"rows": 1, "cols": 2, "scalar": "rational", "data": data}
    with pytest.raises(ValueError, match="data must be a JSON array"):
        matrix_from_dict(rep)
    with pytest.raises(ValueError, match="data must be a JSON array"):
        class_from_dict({"mu": "1/2", "rep": rep})


def test_matrix_csv_round_trip():
    A = as_matrix([[1, Fraction(-2, 3)], [Fraction(5, 7), 0]])
    assert matrix_from_csv(matrix_to_csv(A)) == A
    B = from_rows([[1.5, 2.0]], FLOAT64)
    assert matrix_from_csv(matrix_to_csv(B), FLOAT64) == B
    with pytest.raises(ValueError):
        matrix_from_csv("1,2\n3\n")
    with pytest.raises(ValueError):
        matrix_from_csv("")


def test_class_round_trip():
    x = canonicalize(as_matrix([[2, 0], [0, 3]]))
    d = class_to_dict(x)
    assert d["mu"] == "1" and d["k0"] == 2
    assert class_from_dict(d) == x
    for k0 in (5, 2.0):
        d["k0"] = k0
        with pytest.raises(ValueError):
            class_from_dict(d)
    with pytest.raises(ValueError, match="missing field"):
        class_from_dict({"rep": d["rep"]})


def test_class_from_dict_refuses_a_reducible_representative():
    # I_2 is the lift of [1]: read as a class it would have k0 = 2 and
    # pair with itself to 2, where the class of [1] pairs to 1.
    for rep, scalar in (([[1, 0], [0, 1]], "rational"), ([[2.5, 0.0], [0.0, 2.5]], FLOAT64)):
        d = {"mu": "1", "rep": matrix_to_dict(from_rows(rep, scalar))}
        with pytest.raises(ValueError, match="reducible"):
            class_from_dict(d)
    # a float matrix that peels only under a tolerance is irreducible
    near = from_rows([[1.0, 0.0], [0.0, 1.0 + 1e-12]], FLOAT64)
    assert class_from_dict({"mu": "1", "rep": matrix_to_dict(near)}).k0 == 2


def test_coords_round_trip():
    c = decompose_class(canonicalize(as_matrix([[2, 0], [0, 3]])))
    d = coords_to_dict(c)
    assert d["mu"] == "1"
    kinds = {(t["kind"], t["i"], t["j1"]) for t in d["terms"]}
    assert kinds == {("D", 1, 1), ("D", 2, 1)}
    back = coords_from_dict(d)
    assert back.mu == c.mu and back.terms == c.terms
    dup = {"mu": "1", "terms": d["terms"] + d["terms"]}
    with pytest.raises(ValueError):
        coords_from_dict(dup)
    for mu in (1.0, "1/0"):
        with pytest.raises(ValueError):
            coords_from_dict({"mu": mu, "terms": d["terms"]})


@pytest.mark.parametrize("terms", [{}, "", {"1": 1}, None, 0],
                         ids=["empty_object", "empty_string", "object", "null", "number"])
def test_coords_terms_must_be_a_json_array(terms):
    # an empty object or string iterates as no terms, which read as the zero class
    with pytest.raises(ValueError, match="terms must be a JSON array"):
        coords_from_dict({"mu": "1", "terms": terms})
    assert coords_from_dict({"mu": "1", "terms": []}).terms == {}


@pytest.mark.parametrize("term", [
    {"coeff": "1/0"}, {}, {"coeff": "1", "k": None},
    {"coeff": 0.1}, {"coeff": "1", "i": 1.9}, {"coeff": "1", "j1": "1"}, {"coeff": "1", "l": 1.0},
    {"coeff": "1", "k": True}, {"coeff": True}, {"coeff": "1", "kind": "N"},
])
def test_coords_from_dict_rejects_bad_terms_with_value_error(term):
    full = {"k": 1, "l": 1, "i": 1, "j1": 1, "j2": 1, **term}
    with pytest.raises(ValueError):
        coords_from_dict({"mu": "1", "terms": [full]})


def test_gap_csv():
    rows = [GapReport(1, 1, 2, 0.25, 0.25, 0.0)]
    text = gap_reports_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "n,rows,cols,gap_measured,gap_predicted,rel_err"
    assert lines[1].startswith("1,1,2,0.25,0.25,")


@pytest.mark.parametrize("entry, message", [
    (None, "argument should be a string or a Rational instance"),
    ([1], "argument should be a string or a Rational instance"),
    ({"a": 1}, "argument should be a string or a Rational instance"),
    ("1/0", "Fraction(1, 0)"),
], ids=["null", "array", "object", "zero_denominator"])
def test_matrix_readers_raise_value_error_for_every_bad_entry(entry, message):
    # the class and coordinates readers raise ValueError too; the message is the entry's own
    with pytest.raises(ValueError) as exc:
        matrix_from_dict({"rows": 1, "cols": 2, "scalar": "rational", "data": ["1", entry]})
    assert str(exc.value) == message
    assert isinstance(exc.value.__cause__, (TypeError, ZeroDivisionError))
    if isinstance(entry, str):
        with pytest.raises(ValueError) as exc:
            matrix_from_csv(f"1,{entry}\n")
        assert str(exc.value) == message


_UNREADABLE = "argument should be a string or a Rational instance"


@pytest.mark.parametrize("data, message", [
    ([[1]], f"class object: bad rep.data entry [1] ({_UNREADABLE})"),
    (["1", None], f"class object: bad rep.data entry None ({_UNREADABLE})"),
    (["1", "1/0"], "class object: bad rep.data entry '1/0' (zero denominator)"),
], ids=["nested_array", "null", "zero_denominator"])
def test_class_reader_names_the_bad_entry(data, message):
    rep = {"rows": 1, "cols": len(data), "scalar": RATIONAL, "data": data}
    with pytest.raises(ValueError) as exc:
        class_from_dict({"mu": f"1/{len(data)}", "rep": rep})
    assert str(exc.value) == message


def test_class_reader_names_the_bad_field():
    rep = matrix_to_dict(from_rows([[1]]))
    for d, message in (
        ({"rep": rep}, "class object missing field: 'mu'"),
        ({"mu": "1"}, "class object missing field: 'rep'"),
        ({"mu": None, "rep": rep}, f"class object: bad mu None ({_UNREADABLE})"),
        ({"mu": "1/0", "rep": rep}, "class object: bad mu '1/0' (zero denominator)"),
        ({"mu": "1", "rep": {**rep, "data": None}}, "data must be a JSON array, got NoneType"),
    ):
        with pytest.raises(ValueError) as exc:
            class_from_dict(d)
        assert str(exc.value) == message


def test_coordinates_reader_names_the_bad_field():
    term = {"k": 1, "l": 1, "i": 1, "j1": 1, "j2": 1}
    for d, message in (
        ({"terms": []}, "coordinates object missing field: 'mu'"),
        ({"mu": None, "terms": []}, f"coordinates object: bad mu None ({_UNREADABLE})"),
        ({"mu": "1/0", "terms": []}, "coordinates object: bad mu '1/0' (zero denominator)"),
        ({"mu": "1", "terms": [term]}, f"term {term} missing field: 'coeff'"),
        ({"mu": "1", "terms": [null := {**term, "coeff": None}]},
         f"term {null}: bad coeff None ({_UNREADABLE})"),
        ({"mu": "1", "terms": [zero := {**term, "coeff": "1/0"}]},
         f"term {zero}: bad coeff '1/0' (zero denominator)"),
    ):
        with pytest.raises(ValueError) as exc:
            coords_from_dict(d)
        assert str(exc.value) == message


def test_an_int_too_large_for_a_float_is_a_bad_entry():
    big = 10**400
    with pytest.raises(ValueError) as exc:
        matrix_from_dict({"rows": 1, "cols": 2, "scalar": FLOAT64, "data": [big, 1]})
    assert str(exc.value) == "int too large to convert to float"
    assert isinstance(exc.value.__cause__, OverflowError)
    rep = {"rows": 1, "cols": 1, "scalar": FLOAT64, "data": [big]}
    with pytest.raises(ValueError, match=r"bad rep.data entry 1000+ \(int too large"):
        class_from_dict({"mu": "1", "rep": rep})
    # a rational matrix reads the same int exactly
    assert matrix_from_dict({**rep, "scalar": RATIONAL}).data == (Fraction(big),)


# Values each reader must read as as_scalar does, repeats among them: literals
# every kind reads, literals one kind or none reads, and values no literal is.
_GOOD = st.sampled_from([" 1/2 ", "+3", "-0", "6/4", "3/2", "1_000", "\u0661\u0662", 0, 3, -7, 10**20])
_STRINGS = _GOOD | st.sampled_from(["1.5e3", "1/0", "x", "", "nan"]) | st.text("0123456789/-+ ._ex", max_size=5)
_LITERALS = _STRINGS | st.sampled_from([True, False, 0.5, -0.0, None, [1], 10**400]) | st.integers() | st.floats()


def _outcome(read):
    try:
        return repr(read())
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _as_value_error(outcome):
    # what a library reader raises where as_scalar raises TypeError,
    # ZeroDivisionError or OverflowError (an int too large for a float)
    if isinstance(outcome, tuple) and outcome[0] in (TypeError, ZeroDivisionError, OverflowError):
        return ValueError, outcome[1]
    return outcome


@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([RATIONAL, FLOAT64]), st.data())
def test_matrix_readers_read_every_entry_as_as_scalar_does(m, n, kind, data):
    pool = data.draw(st.sampled_from([_GOOD, _STRINGS, _LITERALS]))
    values = data.draw(st.lists(pool, min_size=m * n, max_size=m * n))
    rows = [values[i * n:(i + 1) * n] for i in range(m)]
    want = _outcome(lambda: Matrix(m, n, tuple(as_scalar(v, kind) for v in values), kind))
    assert _outcome(lambda: from_rows(rows, kind)) == want
    doc = {"rows": m, "cols": n, "scalar": kind, "data": values}
    assert _outcome(lambda: matrix_from_dict(doc)) == _as_value_error(want)
    if all(isinstance(v, str) for v in values):
        text = "".join(",".join(r) + "\n" for r in rows)
        if [line.split(",") for line in text.strip().splitlines()] == rows:  # the same fields
            assert _outcome(lambda: matrix_from_csv(text, kind)) == _as_value_error(want)


def test_rational_cells_share_one_fraction_per_distinct_value():
    # each distinct literal is read once, and data is built from the
    # stored ints, so two literals of one value share one Fraction too
    A = from_rows([["1/2", "2/4", "1/2"], [3, 3, "3"]])
    assert (A._cells, A._den) == ((1, 1, 1, 6, 6, 6), 2)
    assert A.data == (Fraction(1, 2),) * 3 + (Fraction(3),) * 3
    assert A.data[0] is A.data[1] is A.data[2] and A.data[3] is A.data[4] is A.data[5]


_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\U0001f600"])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308])
_INTS = st.integers() | st.integers(-10**60, 10**60)
_LEAVES = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT
_DOCUMENTS = st.recursive(
    _LEAVES | st.lists(_TEXT) | st.lists(_INTS) | st.lists(_FLOATS),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@given(_DOCUMENTS)
def test_indented_writes_the_standard_library_layout(obj):
    want = json.dumps(obj, indent=2, allow_nan=False)
    assert _indented(obj, "") == want
    if isinstance(obj, dict):
        assert dump_json(obj) == want + "\n"


@pytest.mark.parametrize("bad", [nan, inf, -inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("place", [
    lambda x: x, lambda x: [1.0, x, 2.0], lambda x: [1, "a", x], lambda x: {"a": [{"b": x}]},
], ids=["bare", "float_list", "mixed_list", "nested"])
def test_indented_refuses_non_finite_floats_as_the_standard_library_does(bad, place):
    with pytest.raises(ValueError) as want:
        json.dumps(place(bad), indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        _indented(place(bad), "")
    assert str(got.value) == str(want.value)
