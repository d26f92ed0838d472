"""CLI: verbs, exit codes, file round trips, library agreement."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import as_matrix, counting_data_builds, lift

import semitensor.cli
from semitensor import (
    FLOAT64, Matrix, canonicalize, decompose_class, from_rows, lie_bracket, ltimes,
)
from semitensor.cli import _to_class, build_parser, main
from semitensor.io import class_from_dict, coords_from_dict, matrix_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_identity(capsys, tmp_path):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "--out", str(out), "canon",
                     "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 0
    cls = class_from_dict(json.loads(out.read_text()))
    assert cls.rep == as_matrix([[1]]) and cls.k0 == 1


def test_stp_matches_library(capsys):
    code, out, _ = run(capsys, "stp", "[[1,2]]", "[[3,4]]")
    assert code == 0
    got = matrix_from_dict(json.loads(out))
    assert got == ltimes(as_matrix([[1, 2]]), as_matrix([[3, 4]]))


def test_sta_minus_and_right(capsys):
    code, out, _ = run(capsys, "sta", "--minus", "[[1,2],[3,4]]", "[[1,2],[3,4]]")
    assert code == 0
    assert all(v == "0" for v in json.loads(out)["data"])
    code, out, _ = run(capsys, "--format", "csv", "sta", "[1]", "[[1,0],[0,2]]")
    assert code == 0
    assert out.strip().splitlines() == ["2,0", "0,3"]
    # the right sums lift by I x A, so A's entries stay next to each other
    a, i4 = "[[1,2],[3,4]]", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
    for flags, data in (
        ((), "2 0 2 0 0 2 0 2 3 0 5 0 0 3 0 5"),
        (("--right",), "2 2 0 0 3 5 0 0 0 0 2 2 0 0 3 5"),
        (("--minus", "--right"), "0 2 0 0 3 3 0 0 0 0 0 2 0 0 3 3"),
    ):
        code, out, _ = run(capsys, "sta", *flags, a, i4)
        assert code == 0 and json.loads(out)["data"] == data.split(), flags


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "[[2,0],[0,2]]", "[2]")
    assert code == 0 and json.loads(out)["equivalent"] is True
    code, out, _ = run(capsys, "equiv", "[[1,2]]", "[[1,3]]")
    assert code == 0 and json.loads(out)["equivalent"] is False


def test_decompose_example(capsys):
    code, out, _ = run(capsys, "decompose", "[[2,0],[0,3]]")
    assert code == 0
    d = json.loads(out)
    assert d["mu"] == "1"
    terms = {(t["kind"], t["i"], t["j1"]): t["coeff"] for t in d["terms"]}
    assert terms == {("D", 1, 1): "3", ("D", 2, 1): "-1"}


def test_decompose_reconstruct_round_trip(capsys, tmp_path):
    coords_file = tmp_path / "coords.json"
    code, _, _ = run(capsys, "--out", str(coords_file), "decompose", "[[2,0],[0,3]]")
    assert code == 0
    coords = coords_from_dict(json.loads(coords_file.read_text()))
    assert coords.terms == decompose_class(canonicalize(as_matrix([[2, 0], [0, 3]]))).terms
    code, out, _ = run(capsys, "reconstruct", str(coords_file))
    assert code == 0
    cls = class_from_dict(json.loads(out))
    assert cls == canonicalize(as_matrix([[2, 0], [0, 3]]))


def test_class_files_read_back_as_operands(capsys, tmp_path):
    path = tmp_path / "c.json"
    code, _, _ = run(capsys, "--out", str(path), "canon", "[[2,0],[0,2]]")
    assert code == 0
    c = str(path)
    code, out, _ = run(capsys, "inner", c, c)
    assert (code, json.loads(out)) == (0, {"value": "4"})
    code, out, _ = run(capsys, "canon", c)
    assert (code, out) == (0, path.read_text())
    code, out, _ = run(capsys, "stp", c, "[[1,2]]")
    assert code == 0 and matrix_from_dict(json.loads(out)) == as_matrix([[2, 4]])
    # a class file whose representative peels is refused, as io refuses it
    path.write_text(json.dumps({"mu": "1", "rep": {"rows": 2, "cols": 2, "scalar": "rational",
                                                   "data": ["2", "0", "0", "2"]}}))
    code, out, err = run(capsys, "inner", c, c)
    assert (code, out) == (2, "") and "reducible" in json.loads(err)["message"]


def test_bracket_inner_dist(capsys):
    code, out, _ = run(capsys, "bracket", "[[0,1],[0,0]]", "[[0,0],[1,0]]")
    assert code == 0
    assert class_from_dict(json.loads(out)).rep == as_matrix([[1, 0], [0, -1]])
    code, out, _ = run(capsys, "inner", "[1]", "[[1,0],[0,2]]")
    assert code == 0 and json.loads(out)["value"] == "3"
    code, out, _ = run(capsys, "dist", "[[2,0],[0,3]]", "[1]")
    assert code == 0 and math.isclose(json.loads(out)["value"], math.sqrt(5), rel_tol=1e-15)


def test_tol_reaches_bracket_and_dist(capsys):
    # Near-lifts that --tol 0 keeps apart: the distance is that of the
    # library at rtol=0.0 (the default tolerance would give 1.0), and the
    # bracket keeps its 4 x 4 XY - YX unpeeled, as lie_bracket at rtol=0.0.
    exact = ("--scalar", "float64", "--tol", "0")
    code, out, _ = run(capsys, *exact, "dist", "[1]", "[[2,0],[0,2.0000000005]]")
    assert code == 0 and json.loads(out)["value"] == 1.4142135627266486
    a = [[1.0000000001, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]]
    b = [[0, 1.0], [1, 0]]
    code, out, _ = run(capsys, *exact, "bracket", json.dumps(a), json.dumps(b))
    x, y = (canonicalize(from_rows(m, FLOAT64), rtol=0.0) for m in (a, b))
    want = lie_bracket(x, y, rtol=0.0)
    assert code == 0 and class_from_dict(json.loads(out)) == want
    assert want.k0 == 4 and lie_bracket(x, y).k0 == 2


def test_cauchy_csv(capsys, tmp_path):
    out = tmp_path / "gaps.csv"
    code, stdout, _ = run(capsys, "--out", str(out), "cauchy", "--a1", "[1,2]", "--nmax", "6")
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,rows,cols,gap_measured,gap_predicted,rel_err"
    assert len(lines) == 6  # header + gaps for n=1..5
    for line in lines[1:]:
        rel = float(line.split(",")[-1])
        assert rel <= 1e-12
    assert "probe m=1:" in stdout and "ok" in stdout


def test_basis_list(capsys):
    code, out, _ = run(capsys, "basis-list", "--mu", "1", "--imax", "2")
    assert code == 0
    elems = json.loads(out)["elements"]
    assert [(e["kind"], e["i"], e["j1"], e["j2"]) for e in elems] == [
        ("D", 1, 1, 1),
        ("D", 2, 1, 1),
        ("N", 2, 1, 2),
        ("N", 2, 2, 1),
    ]


def test_domain_error_exit_code(capsys):
    # semi-tensor addition across different ratios
    code, _, err = run(capsys, "sta", "[1]", "[[1,2]]")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_nonfinite_input_is_parse_error(capsys, tmp_path):
    csv = tmp_path / "inf.csv"
    csv.write_text("1.0,inf\n")
    js = tmp_path / "nan.json"
    js.write_text('{"rows": 1, "cols": 1, "scalar": "float64", "data": [NaN]}')
    for argv in (
        ("--scalar", "float64", "canon", "[[NaN,0],[0,NaN]]"),
        ("--scalar", "float64", "canon", str(csv)),
        ("canon", str(js)),
        ("cauchy", "--a1", "[1, Infinity]", "--nmax", "3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"] == "parse"


def test_overflowed_result_is_domain_error(capsys):
    code, out, err = run(capsys, "--scalar", "float64", "inner", "[[1e200]]", "[[1e200]]")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "domain"


def test_finite_distance_whose_squares_overflow(capsys):
    # the difference [[2e200]] is finite, so its norm is; [[1e308]] and
    # [[-1e308]] stay refused, since there the difference itself overflows
    code, out, err = run(capsys, "--scalar", "float64", "dist", "[[1e200]]", "[[-1e200]]")
    assert (code, err) == (0, "") and json.loads(out) == {"value": 2e200}


def _one_term(mu="1", **fields):
    """A coordinates file holding one term, the unit (1, 1; 1, 1) with ``fields`` over it."""
    term = {"kind": "D", "k": 1, "l": 1, "i": 1, "j1": 1, "j2": 1, **fields}
    return {"mu": mu, "terms": [term]}


@pytest.mark.parametrize("argv, coords, status, error", [
    pytest.param(("--scalar", "float64", "inner", "[[1e154,1e154,1e154]]",
                  "[[1.5e154,1.5e154,-1.5e154]]"), None, 1, "domain", id="fsum_overflow"),
    pytest.param(("dist", "[[1" + "0" * 200 + "]]", "[[0]]"), None, 1, "domain",
                 id="exact_norm_overflow"),
    pytest.param(("reconstruct",), _one_term(coeff="1/0"), 2, "parse", id="zero_denominator"),
    pytest.param(("reconstruct",), _one_term(), 2, "parse", id="missing_coeff"),
    pytest.param(("basis-list", "--mu", "0", "--imax", "2"), None, 1, "domain", id="zero_mu"),
    pytest.param(("basis-list", "--mu=-1/2", "--imax", "2"), None, 1, "domain",
                 id="negative_mu"),
    pytest.param(("basis-list", "--mu", "x", "--imax", "2"), None, 2, "parse", id="bad_mu"),
    pytest.param(("basis-list", "--mu", "1", "--imax", "0"), None, 1, "domain", id="zero_imax"),
    pytest.param(("--scalar", "float64", "decompose", "[[1]]"), None, 1, "domain",
                 id="float_decompose"),
    pytest.param(("--out", ".", "canon", "[[1]]"), None, 2, "parse", id="out_is_a_directory"),
    pytest.param(("reconstruct",), _one_term(coeff=0.1), 2, "parse", id="float_coeff"),
    pytest.param(("reconstruct",), _one_term(coeff="1", i=1.9), 2, "parse", id="float_index"),
    pytest.param(("basis-list", "--mu", "1", "--imax", "10000"), None, 1, "domain",
                 id="oversized_basis_list"),
    pytest.param(("reconstruct",), _one_term(coeff="1", i=10**5), 1, "domain",
                 id="oversized_reconstruct"),
    pytest.param(("stp", "[[false, 2]]", "[[1]]"), None, 2, "parse", id="boolean_entry"),
    pytest.param(("--scalar", "float64", "inner", "[[true]]", "[[true]]"), None, 2, "parse",
                 id="boolean_float_entry"),
    pytest.param(("reconstruct",), _one_term(k=True, coeff=True), 2, "parse",
                 id="boolean_term"),
    # a non-finite float result: CSV refuses it as JSON does
    pytest.param(("--scalar", "float64", "--format", "csv", "stp", "[[1e300]]", "[[1e300]]"),
                 None, 1, "domain", id="csv_stp_overflow"),
    pytest.param(("--scalar", "float64", "--format", "csv", "stp", "--right", "[[1e300, 1e300]]",
                  "[[1e300], [-1e300]]"), None, 1, "domain", id="csv_stp_right_nan"),
    pytest.param(("--scalar", "float64", "--format", "csv", "sta", "[[1e308]]", "[[1e308]]"),
                 None, 1, "domain", id="csv_sta_overflow"),
    pytest.param(("--scalar", "float64", "--format", "csv", "sta", "--minus", "--right",
                  "[[1e308]]", "[[-1e308]]"), None, 1, "domain",
                 id="csv_sta_minus_right_overflow"),
    # a non-finite scalar or class result: the same message, not json's own
    pytest.param(("--scalar", "float64", "dist", "[[1e308]]", "[[-1e308]]"), None, 1, "domain",
                 id="dist_overflow"),
    pytest.param(("--scalar", "float64", "inner", "[[1e200]]", "[[1e200]]"), None, 1, "domain",
                 id="inner_overflow"),
    pytest.param(("--scalar", "float64", "bracket", "[[1e200,1e200],[0,1]]",
                  "[[1e200,0],[1e200,1]]"), None, 1, "domain", id="bracket_nan"),
    # only stp and sta print a matrix: CSV is refused for every other verb
    pytest.param(("--format", "csv", "canon", "[[1,2],[3,4]]"), None, 2, "parse", id="csv_canon"),
    pytest.param(("--format", "csv", "inner", "[1]", "[[1]]"), None, 2, "parse", id="csv_inner"),
    # a ratio that is not positive: refused as reading the file, with or without terms
    pytest.param(("reconstruct",), {"mu": "0", "terms": []}, 2, "parse", id="zero_mu_coords"),
    pytest.param(("reconstruct",), {"mu": "-1/2", "terms": []}, 2, "parse",
                 id="negative_mu_coords"),
    pytest.param(("reconstruct",), _one_term(mu="0"), 2, "parse", id="zero_mu_coords_term"),
])
def test_failure_is_one_typed_error_line(capsys, tmp_path, argv, coords, status, error):
    if coords is not None:
        path = tmp_path / "coords.json"
        path.write_text(json.dumps(coords))
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (status, "")
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error
    assert "not JSON compliant" not in json.loads(lines[0])["message"]


@pytest.mark.parametrize("mu", ["0", "-1/2"])
def test_non_positive_ratio_is_refused_before_its_terms(capsys, tmp_path, mu):
    # a term's index check would read the ratio's p x q as a shape first
    path = tmp_path / "coords.json"
    path.write_text(json.dumps(_one_term(mu=mu, coeff="1")))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["message"].endswith(f"ratio must be positive, got {mu}")


@pytest.mark.parametrize("argv", [
    pytest.param((), id="no_verb"),
    pytest.param(("stp", "[[1,2]]"), id="missing_operand"),
    pytest.param(("frobnicate", "[[1]]"), id="unknown_verb"),
    pytest.param(("cauchy", "--a1", "[[1,2]]", "--nmax", "x"), id="bad_int"),
    pytest.param(("--tol", "-1e-9", "canon", "[[1]]"), id="option_like_value"),
    pytest.param(("canon", "[[1]]", "[[2]]"), id="extra_operand"),
])
def test_usage_error_ends_in_typed_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: semitensor")
    assert json.loads(lines[-1])["error"] == "parse"


@pytest.mark.parametrize("argv", [("--help",), ("stp", "--help"), ("cauchy", "-h")],
                         ids=["top", "verb", "short_flag"])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: semitensor") and captured.err == ""


def test_float_in_rational_json_names_the_string_form(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"rows": 1, "cols": 1, "scalar": "rational", "data": [0.5]}')
    code, out, err = run(capsys, "canon", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "parse" and '"num/den" string' in error["message"]
    path.write_text('{"rows": 1, "cols": 1, "scalar": "rational", "data": ["1/2"]}')
    code, out, _ = run(capsys, "canon", str(path))
    assert code == 0 and class_from_dict(json.loads(out)).rep.data == (Fraction(1, 2),)


@pytest.mark.parametrize("form", ["inline", "json_file", "class_file", "csv_file"])
def test_an_int_too_large_for_a_float_is_a_parse_error(capsys, tmp_path, form):
    # 401 digits: float() overflows on the int; a CSV field is a string,
    # which float() reads as inf, refused as a non-finite entry
    big = 10**400
    matrix = {"rows": 1, "cols": 2, "scalar": FLOAT64, "data": [big, 1]}
    path = tmp_path / "m.txt"
    if form == "inline":
        arg = f"[[{big}, 1]]"
    else:
        path.write_text({
            "json_file": json.dumps(matrix),
            "class_file": json.dumps({"mu": "1/2", "rep": matrix}),
            "csv_file": f"{big},1\n",
        }[form])
        arg = str(path)
    code, out, err = run(capsys, "--scalar", "float64", "canon", arg)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("rep_data, coeff, named", [
    ([[1]], None, "bad rep.data entry [1]"),
    (["1", None], None, "bad rep.data entry None"),
    (None, None, "bad coeff None"),
    (None, "1/0", "bad coeff '1/0' (zero denominator)"),
], ids=["nested_array_entry", "null_entry", "null_coeff", "zero_denominator_coeff"])
def test_bad_field_is_named_in_the_parse_error(capsys, tmp_path, rep_data, coeff, named):
    path = tmp_path / "in.json"
    if rep_data is not None:
        rep = {"rows": 1, "cols": len(rep_data), "scalar": "rational", "data": rep_data}
        path.write_text(json.dumps({"mu": f"1/{len(rep_data)}", "rep": rep}))
        argv = ("inner", str(path), str(path))
    else:
        path.write_text(json.dumps(_one_term(coeff=coeff)))
        argv = ("reconstruct", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "parse" and named in error["message"]
    assert "missing field" not in error["message"]


def test_no_verb_builds_an_exact_matrix_data(capsys, tmp_path):
    # kernels and writers read the stored ints: no exact matrix's data is
    # built from reading the operands to printing the result
    path = tmp_path / "coords.json"
    path.write_text(json.dumps(_one_term(coeff="-2/3")))
    a, b = '[["1/2", 0], [3, "-2/3"]]', '[["1/3", 0, 0], [0, "1/3", 0], [0, 0, 5]]'
    with counting_data_builds() as built:
        for argv in (("stp", a, b), ("stp", "--right", a, b), ("sta", a, "[[1]]"),
                     ("--format", "csv", "sta", "--minus", a, "[[2, 0], [0, 2]]"),
                     ("canon", "[[2, 0], [0, 2]]"), ("equiv", a, a), ("bracket", a, b),
                     ("inner", a, b), ("dist", a, b), ("decompose", b),
                     ("reconstruct", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
    assert built == []


@pytest.mark.parametrize("data", ["12", {"3": 0, "4": 0}], ids=["string", "object"])
@pytest.mark.parametrize("wrap", [False, True], ids=["matrix_file", "class_rep"])
def test_matrix_file_data_must_be_a_json_array(capsys, tmp_path, data, wrap):
    matrix = {"rows": 1, "cols": 2, "scalar": "rational", "data": data}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"mu": "1/2", "k0": 1, "rep": matrix} if wrap else matrix))
    code, out, err = run(capsys, "canon", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "parse" and "data must be a JSON array" in error["message"]


@pytest.mark.parametrize("terms", [{}, ""], ids=["object", "string"])
def test_coordinates_file_terms_must_be_a_json_array(capsys, tmp_path, terms):
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"mu": "1", "terms": terms}))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "parse" and "terms must be a JSON array" in error["message"]


def test_decompose_of_a_dense_12x12_stays_small(capsys, tmp_path):
    # The 12x12 has few distinct literals, each read once and shared, and its
    # coordinates are written without the pure-Python encoder's chunk lists
    # (about 240 KiB at the peak before, about 110 KiB after, on Python 3.11).
    rng = random.Random(12)
    path = tmp_path / "d12.csv"
    path.write_text("".join(
        ",".join(str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3)))
                 for _ in range(12)) + "\n" for _ in range(12)))
    assert run(capsys, "decompose", str(path))[0] == 0  # the parser is built once, here
    tracemalloc.start()
    try:
        code = main(["decompose", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and len(capsys.readouterr().out) > 10_000
    assert peak < 160 * 1024


def test_oversized_result_is_domain_error(capsys):
    # t = lcm(997, 991) = 988027: a 49550 x 49850 product, over the size budget
    a, b = json.dumps([[1] * 997] * 50), json.dumps([[1] * 50] * 991)
    code, out, err = run(capsys, "stp", a, b)
    assert code == 1
    assert out == ""
    assert "budget" in json.loads(err)["message"]


def test_oversized_zero_class_is_domain_error(capsys, tmp_path):
    # no terms at mu = 10^12: the zero class 0 (10^12 x 1), over the size budget
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"mu": "1000000000000", "terms": []}))
    code, out, err = run(capsys, "reconstruct", str(path))
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "domain" and "budget" in error["message"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "stp", "not-a-file.json", "[1]")
    assert code == 2
    assert json.loads(err)["error"] == "parse"
    code, _, err = run(capsys, "stp", "[[1,2],[3]]", "[1]")
    assert code == 2


def test_float_ambiguity_is_domain_error(capsys):
    # lift plus sub-tolerance noise: exact and tolerant peels disagree
    code, _, err = run(capsys, "--scalar", "float64", "canon",
                       "[[2.0,1e-16],[0.0,2.0]]")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_float_input_is_canonicalized_once(capsys, monkeypatch):
    calls = []

    def counted(A, rtol=None):
        calls.append(rtol)
        return canonicalize(A, rtol)

    monkeypatch.setattr(semitensor.cli, "canonicalize", counted)
    code, out, _ = run(capsys, "--scalar", "float64", "canon", "[[2.0,0],[0,2.0]]")
    assert code == 0 and class_from_dict(json.loads(out)).k0 == 1
    assert calls == [1e-9]


def test_ambiguity_check_agrees_with_comparing_both_canonical_shapes():
    # _to_class refuses a float input exactly when its canonical shapes at
    # tol and at 0 differ, and otherwise returns the class at tol
    rng = random.Random(167)
    refused = 0
    for _ in range(120):
        m, n, s = rng.randint(1, 2), rng.randint(1, 2), rng.choice((2, 3, 4))
        B = from_rows([[rng.choice((0.0, 1.0, rng.uniform(-2, 2))) for _ in range(n)]
                       for _ in range(m)], FLOAT64)
        data = list(lift(B, s).data)
        pos = rng.randrange(len(data))
        data[pos] += rng.choice((1e-16, 1e-12, 1e-8, 0.3)) * (data[pos] or 1.0)
        A = Matrix(m * s, n * s, tuple(data), FLOAT64)
        for tol in (0.0, 1e-9, 1e-6, 0.5, 2.0):
            at_tol = canonicalize(A, rtol=tol)
            if at_tol.rep.shape != canonicalize(A, rtol=0.0).rep.shape:
                refused += 1
                with pytest.raises(ValueError, match="ambiguous"):
                    _to_class(A, tol)
            else:
                assert _to_class(A, tol) == at_tol
    assert refused > 0


def test_cauchy_over_budget_is_refused_before_building(capsys, monkeypatch):
    # a 13 x 13 seed at --nmax 9 would end at 3328 x 3328 entries
    def build(cfg):
        raise AssertionError("the sequence was built")

    monkeypatch.setattr(semitensor.cli, "cauchy_sequence", build)
    code, out, err = run(capsys, "cauchy", "--a1", json.dumps([[1.0] * 13] * 13), "--nmax", "9")
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "domain" and "budget" in error["message"]


def test_cauchy_rejects_zero_entries(capsys):
    code, _, err = run(capsys, "cauchy", "--a1", "[1,0]", "--nmax", "4")
    assert code == 1
    assert json.loads(err)["error"] == "domain"


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SEMITENSOR_TOL", "0.5")
    # at rtol=0.5 the noisy lift looks exactly reducible both ways? no:
    # exact comparison still differs, so ambiguity persists
    code, _, err = run(capsys, "--scalar", "float64", "canon",
                       "[[2.0,1e-16],[0.0,2.0]]")
    assert code == 1
    monkeypatch.setenv("SEMITENSOR_TOL", "bogus")
    code, _, err = run(capsys, "--scalar", "float64", "canon", "[[1.0]]")
    assert code == 2


@pytest.mark.parametrize("value, status", [
    ("nan", 2), ("inf", 2), ("-inf", 2), ("-0.5", 2), ("0", 0), ("0.5", 0),
])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_tol_must_be_finite_and_nonnegative(capsys, monkeypatch, source, value, status):
    # [[1.0]] x I_2 is exactly I_2: every accepted tolerance says so
    argv = ("--scalar", "float64", "equiv", "[[1.0]]", "[[1.0,0],[0,1.0]]")
    if source == "flag":
        argv = (f"--tol={value}",) + argv
    else:
        monkeypatch.setenv("SEMITENSOR_TOL", value)
    code, out, err = run(capsys, *argv)
    assert code == status
    if status == 0:
        assert json.loads(out) == {"equivalent": True}
    else:
        assert out == "" and json.loads(err)["error"] == "parse"


def test_repeated_calls_share_one_parser_and_no_state(capsys, tmp_path):
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "--format", "csv", "stp", "[[1,2]]", "[[3,4]]")
    assert (code, out) == (0, "3,6,4,8\n")
    code, out, _ = run(capsys, "stp", "[[1,2]]", "[[3,4]]")
    assert code == 0 and json.loads(out)["data"] == ["3", "6", "4", "8"]
    code, out, _ = run(capsys, "sta", "--minus", "[1]", "[[1,0],[0,2]]")
    assert code == 0 and json.loads(out)["data"] == ["0", "0", "0", "-1"]
    code, out, _ = run(capsys, "sta", "[1]", "[[1,0],[0,2]]")
    assert code == 0 and json.loads(out)["data"] == ["2", "0", "0", "3"]
    path = tmp_path / "c.json"
    code, out, _ = run(capsys, "--out", str(path), "canon", "[[2,0],[0,2]]")
    assert (code, out) == (0, "") and class_from_dict(json.loads(path.read_text())).k0 == 1
    path.unlink()
    code, out, _ = run(capsys, "canon", "[[2,0],[0,2]]")
    assert code == 0 and class_from_dict(json.loads(out)).k0 == 1
    assert not path.exists()


def test_emitted_matrix_reparses_identically(capsys, tmp_path):
    out = tmp_path / "m.json"
    code, _, _ = run(capsys, "--out", str(out), "stp", "[[1,2]]", "[[3,4]]")
    assert code == 0
    first = out.read_text()
    A = matrix_from_dict(json.loads(first))
    code, second, _ = run(capsys, "stp", "[[1,2]]", "[[3,4]]")
    assert matrix_from_dict(json.loads(second)) == A
