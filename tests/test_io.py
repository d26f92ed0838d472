"""Serialization round trips for every file schema."""

import random
from fractions import Fraction

import pytest

from helpers import as_matrix, rand_matrix

from semitensor import FLOAT64, canonicalize, decompose_class, from_rows
from semitensor.io import (
    class_from_dict,
    class_to_dict,
    coords_from_dict,
    coords_to_dict,
    gap_reports_to_csv,
    matrix_from_csv,
    matrix_from_dict,
    matrix_to_csv,
    matrix_to_dict,
)
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
