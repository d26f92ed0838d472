"""Matrix core: Kronecker product, comparisons, conversions; and the plain
arithmetic and pairing in tests/helpers.py that the references rest on."""

import dataclasses
from fractions import Fraction
from math import copysign, gcd, inf, nan

import pytest
from hypothesis import given, settings

from conftest import matrices, matrix_pairs_same_ratio, small_fractions
import semitensor.matrix
from helpers import (
    add, as_matrix, counting_data_builds, counting_entries, frobenius_inner, matmul, o_kron, sub,
)

from semitensor import (
    FLOAT64,
    RATIONAL,
    Matrix,
    canonicalize,
    class_add,
    class_mul,
    class_sub,
    decompose_class,
    dist,
    eq_within,
    equivalent,
    from_rows,
    identity,
    in_span,
    independent,
    inner,
    kron,
    lie_bracket,
    lminus,
    lplus,
    ltimes,
    norm,
    reconstruct,
    rminus,
    rplus,
    rtimes,
    scalar_mul,
    scale,
    to_rational,
    zeros,
)
from semitensor.io import (
    class_to_dict, matrix_from_csv, matrix_from_dict, matrix_to_csv, matrix_to_dict,
)
from semitensor.matrix import _denominator, _numerator, _parts, as_scalar


def test_kron_identity_left_and_right():
    B = as_matrix([[1, 2], [3, 4]])
    assert kron(identity(1), B) == B
    assert kron(B, identity(1)) == B


def test_kron_hand_expansion():
    A = as_matrix([[1, 2]])
    assert kron(A, identity(2)).to_lists() == as_matrix(
        [[1, 0, 2, 0], [0, 1, 0, 2]]
    ).to_lists()


@given(matrices(max_rows=2, max_cols=2), matrices(max_rows=2, max_cols=2),
       matrices(max_rows=2, max_cols=2), matrices(max_rows=2, max_cols=2))
def test_kron_mixed_product_law(A, B, C, D):
    # (A x C)(B x D) = (AB) x (CD) whenever the plain products conform
    if A.cols != B.rows or C.cols != D.rows:
        return
    left = matmul(kron(A, C), kron(B, D))
    right = kron(matmul(A, B), matmul(C, D))
    assert left == right


@given(matrices(max_rows=2, max_cols=2), matrices(max_rows=2, max_cols=2),
       matrices(max_rows=2, max_cols=2))
def test_kron_associative(A, B, C):
    assert kron(kron(A, B), C) == kron(A, kron(B, C))


def test_matmul_examples():
    B = as_matrix([[1, 2], [3, 4]])
    assert matmul(identity(2), B) == B
    assert matmul(as_matrix([[1, 2], [3, 4]]), as_matrix([[5], [6]])).to_lists() == [
        [17],
        [39],
    ]
    assert matmul(B, zeros(2, 3)) == zeros(2, 3)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(as_matrix([[1, 2]]), as_matrix([[1, 2]]))


def test_scalar_kind_mismatch():
    A = as_matrix([[1]])
    B = from_rows([[1.0]], FLOAT64)
    with pytest.raises(ValueError):
        kron(A, B)
    with pytest.raises(ValueError):
        matmul(A, B)


def test_elementwise():
    A = as_matrix([[1, 2], [3, 4]])
    assert add(A, zeros(2, 2)) == A
    assert sub(A, A) == zeros(2, 2)
    assert scale(2, as_matrix([[1, 2]])).to_lists() == as_matrix([[2, 4]]).to_lists()
    with pytest.raises(ValueError):
        add(A, zeros(2, 3))


def test_frobenius_examples():
    assert frobenius_inner(identity(2), as_matrix([[1, 0], [0, 2]])) == 3
    assert frobenius_inner(as_matrix([[1, 2]]), zeros(1, 2)) == 0
    assert frobenius_inner(as_matrix([[1, 2]]), as_matrix([[3, 4]])) == 11
    with pytest.raises(ValueError):
        frobenius_inner(as_matrix([[1]]), as_matrix([[1, 2]]))


@given(matrices(rows=2, cols=3), matrices(rows=2, cols=3), matrices(rows=2, cols=3))
def test_frobenius_symmetric_bilinear(A, B, C):
    assert frobenius_inner(A, B) == frobenius_inner(B, A)
    assert frobenius_inner(add(A, B), C) == frobenius_inner(A, C) + frobenius_inner(B, C)
    assert frobenius_inner(scale(3, A), C) == 3 * frobenius_inner(A, C)


def test_str_lists_the_rows():
    assert str(from_rows([[1, "1/2"], [3, -4]])) == "[1 1/2; 3 -4]"
    assert str(from_rows([[1.5, -0.0]], FLOAT64)) == "[1.5 0.0]"


def test_eq_within():
    A = as_matrix([[1]])
    assert eq_within(A, A)
    assert not eq_within(A, as_matrix([[1, 0]]))
    x = from_rows([[1.0]], FLOAT64)
    y = from_rows([[1.0 + 1e-12]], FLOAT64)
    assert eq_within(x, y)
    assert not eq_within(x, from_rows([[1.001]], FLOAT64))
    # rtol=0 means exact, even in float mode
    assert not eq_within(x, y, rtol=0.0)


def test_validation():
    with pytest.raises(ValueError):
        Matrix(0, 1, (), RATIONAL)
    with pytest.raises(ValueError):
        Matrix(1, 2, (Fraction(1),), RATIONAL)
    with pytest.raises(ValueError):
        Matrix(1, 1, (1.0,), RATIONAL)
    with pytest.raises(ValueError):
        from_rows([[1], [2, 3]])
    with pytest.raises(ValueError):
        from_rows([[0.5]], RATIONAL)
    with pytest.raises(ValueError, match="unknown scalar kind"):
        semitensor.matrix.as_scalar(1, "bogus")
    # a bool is not the number 1 or 0, in either kind
    for kind in (RATIONAL, FLOAT64):
        for value in (True, False):
            with pytest.raises(ValueError, match="bool"):
                from_rows([[value, 2]], kind)


@pytest.mark.parametrize("scalar, data, message", [
    (RATIONAL, (Fraction(1), Fraction(2), 3.0), "rational matrix entries must be Fraction"),
    (RATIONAL, (Fraction(1), 2, Fraction(3)), "rational matrix entries must be Fraction"),
    (FLOAT64, (1.0, 2.0, Fraction(3)), "float64 matrix entries must be float"),
    (FLOAT64, (1.0, 2, 3.0), "float64 matrix entries must be float"),
    ("complex", (1.0, 2.0, 3.0), "unknown scalar kind"),
])
def test_every_entry_is_type_checked(scalar, data, message):
    with pytest.raises(ValueError, match=message):
        Matrix(1, 3, data, scalar)


@pytest.mark.parametrize("make, args, shape", [
    (zeros, (3, 4), (3, 4)),
    (identity, (5, FLOAT64), (5, 5)),
    (kron, (as_matrix([[1, 2]]), identity(3)), (3, 6)),
], ids=["zeros", "identity", "kron"])
def test_constructors_check_size_before_allocating(monkeypatch, make, args, shape):
    rows, cols = shape
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", rows * cols - 1)
    with counting_entries() as count, pytest.raises(ValueError, match="budget"):
        make(*args)
    assert count.entries == 0
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", rows * cols)
    assert make(*args).shape == shape


def test_kron_mixed_product_randomized():
    import random

    from helpers import rand_matrix

    rng = random.Random(11)
    for _ in range(30):
        A, B = rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2)
        C, D = rand_matrix(rng, 2, 2), rand_matrix(rng, 2, 2)
        assert matmul(kron(A, C), kron(B, D)) == kron(matmul(A, B), matmul(C, D))


def test_kron_against_oracle():
    import random

    from helpers import rand_lists

    rng = random.Random(3)
    for _ in range(20):
        a = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert kron(as_matrix(a), as_matrix(b)).to_lists() == o_kron(a, b)


def test_rational_float_conversion():
    A = as_matrix([[1, 2], [3, 4]])
    F = from_rows([[1, 2], [3, 4]], FLOAT64)
    assert F.scalar == FLOAT64 and F.entry(1, 1) == 4.0
    back = to_rational(F)
    assert back == A
    assert to_rational(A) is A
    # rationalization bounds the denominator explicitly
    x = from_rows([[0.3333333333333333]], FLOAT64)
    assert to_rational(x, max_denominator=100).entry(0, 0) == Fraction(1, 3)


class _Half(Fraction):
    """A Fraction subclass, which Matrix accepts as a rational entry."""


def test_slot_getters_read_the_integer_parts():
    # The whole-matrix scans read Fraction's two slots; if a Python ever
    # changes that layout, this fails instead of the scans reading wrong.
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    values = (
        Fraction(0), Fraction(-5), Fraction(-7, 3), Fraction(2**200 + 1, 3),
        Fraction(-(2**200), 3), as_scalar("-6/4", RATIONAL), as_scalar("10/2", RATIONAL),
        as_scalar(" 0/7 ", RATIONAL), _Half(-3, 6),
    )
    for v in Matrix(1, len(values), values).data:
        assert (_numerator(v), _denominator(v)) == _parts(v) == (v.numerator, v.denominator), v
        assert type(_numerator(v)) is int and type(_denominator(v)) is int


# --- the stored form: reduced ints over one denominator -----------------

def assert_stored_reduced(A):
    ints, d = A._cells, A._den
    assert type(ints) is tuple and all(type(v) is int for v in ints)
    assert type(d) is int and d >= 1 and gcd(d, *ints) == 1
    assert A.data == tuple(Fraction(v, d) for v in ints)


@settings(deadline=None)
@given(matrix_pairs_same_ratio(), matrices(max_rows=4, max_cols=4), small_fractions)
def test_every_exact_result_is_stored_reduced(pair, C, c):
    A, B = pair
    x, y = canonicalize(A), canonicalize(B)
    results = [op(A, B) for op in (lplus, lminus, rplus, rminus, ltimes, rtimes, kron)]
    results += [op(A, C) for op in (ltimes, rtimes, kron)]
    results += [scale(c, A), scale(0, A), canonicalize(kron(A, identity(2))).rep, zeros(2, 3),
                identity(3), to_rational(Matrix(1, 2, (0.5, -0.75), FLOAT64))]
    results += [z.rep for z in (x, y, class_add(x, y), class_sub(x, y), class_mul(x, y),
                                reconstruct(decompose_class(x)))]
    if A.rows == A.cols:
        results.append(lie_bracket(x, y).rep)
    for R in results:
        assert_stored_reduced(R)


@settings(deadline=None)
@given(matrices(max_rows=4, max_cols=4), matrices(max_rows=4, max_cols=4))
def test_equal_values_have_one_stored_form(A, B):
    # one value reached through its Fractions, its strings, a sum and a
    # scaling has one stored form; == and hash agree with the entries
    same = (Matrix(A.rows, A.cols, A.data), from_rows([[str(v) for v in r] for r in A.to_lists()]),
            lminus(lplus(A, A), A), scale(2, scale(Fraction(1, 2), A)),
            rminus(kron(A, identity(1)), zeros(A.rows, A.cols)))
    for S in same:
        assert (S._cells, S._den) == (A._cells, A._den)
        assert S == A and hash(S) == hash(A)
    assert (A == B) == (A.shape == B.shape and A.data == B.data)
    if A == B:
        assert hash(A) == hash(B)


def test_data_is_built_on_first_read_and_kept():
    A = from_rows([["1/2", 3, "2/4", 0]])
    assert "data" not in A.__dict__ and (A._cells, A._den) == ((1, 6, 1, 0), 2)
    data = A.data
    assert data == (Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(0))
    assert A.data is data and data[0] is data[2]
    assert repr(A) == repr(Matrix(1, 4, data)) == (
        "Matrix(rows=1, cols=4, data=(Fraction(1, 2), Fraction(3, 1), Fraction(1, 2), "
        "Fraction(0, 1)), scalar='rational')"
    )
    # a float matrix, and an exact one built from its Fractions, hold data from the start
    F = from_rows([[1.5]], FLOAT64)
    assert F.__dict__["data"] == (1.5,)
    entries = (Fraction(-1, 3), Fraction(0))
    assert Matrix(1, 2, entries).__dict__["data"] is entries
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        A.missing
    # a float matrix's cells are its data, over the class's denominator 1
    assert F._cells is F.data and F._den == 1 and "_den" not in F.__dict__


@pytest.mark.parametrize("scalar, entries", [
    (RATIONAL, (Fraction(1), Fraction(2))), (FLOAT64, (1.0, 2.0))])
def test_the_public_constructor_keeps_no_caller_list(scalar, entries):
    # data given as a list is stored as a tuple: a later change to the
    # caller's list is not seen, and the matrix prints, equals and hashes
    # as the same entries given as a tuple
    values = list(entries)
    A, B = Matrix(1, 2, values, scalar), Matrix(1, 2, entries, scalar)
    values[0] = entries[1]
    assert type(A.data) is tuple and A.data == entries and str(A) == str(B)
    assert A == B and hash(A) == hash(B)


def _negative_zeros(A):
    return [v for v in A.data if v == 0.0 and copysign(1.0, v) < 0]


def test_no_float_matrix_stores_negative_zero():
    # one float zero: every way to build a float matrix stores -0.0 as
    # 0.0, so no kernel meets one; == and hash are those of -0.0 already
    F = from_rows([[1.5, 2.0]], FLOAT64)
    built = {
        "Matrix": Matrix(1, 3, (-0.0, 1.5, -0.0), FLOAT64),
        "replace": dataclasses.replace(F, data=(-0.0, 2.0)),
        "from_rows": from_rows([[-0.0, "-0.0"], [nan, -inf]], FLOAT64),
        "matrix_from_dict": matrix_from_dict(
            {"rows": 1, "cols": 3, "scalar": FLOAT64, "data": [-0.0, "-0.0", "-0"]}),
        "matrix_from_csv": matrix_from_csv("-0.0,1\n-0,-1e-400\n", FLOAT64),
        # a negative value times 0.0, and an underflow of opposite signs
        "scale of a zero": scale(-1.0, zeros(2, 2, FLOAT64)),
        "scale underflow": scale(-1e-300, from_rows([[1e-300, 0.0]], FLOAT64)),
        "kron": kron(from_rows([[-2.0, 1.0]], FLOAT64), from_rows([[0.0, -1e-300]], FLOAT64)),
        "kron underflow": kron(from_rows([[-1e-300]], FLOAT64), from_rows([[1e-300]], FLOAT64)),
    }
    for name, A in built.items():
        assert not _negative_zeros(A), name
        assert A._cells is A.data and 0.0 in A.data, name
    assert built["Matrix"] == Matrix(1, 3, (0.0, 1.5, 0.0), FLOAT64)
    assert hash(built["Matrix"]) == hash(Matrix(1, 3, (0.0, 1.5, 0.0), FLOAT64))
    assert str(built["kron"]) == "[0.0 2e-300 0.0 -1e-300]"
    # with no zero among them the given entries are stored as they are
    entries = (1.5, -2.0, nan)
    assert Matrix(1, 3, entries, FLOAT64).data is entries


def test_exact_and_float_matrices_of_equal_values_stay_apart():
    # both kinds store their cells over one denominator, here (1, 2) over 1
    # and (1.0, 2.0) over 1, which compare equal; the kind keeps them apart
    exact, floats = from_rows([[1, 2]]), from_rows([[1, 2]], FLOAT64)
    assert exact._cells == floats._cells and exact._den == floats._den == 1
    assert exact != floats and floats != exact
    assert hash(exact) != hash(floats)
    assert len({exact, floats}) == 2


def test_no_library_path_reads_an_exact_matrix_data():
    with counting_data_builds() as built:
        A = from_rows([["1/2", 0], [3, "-2/3"]])
        B = from_rows([["1/3", 0, 0], [0, "1/3", 0], [0, 0, 5]])
        x, y = canonicalize(A), canonicalize(B)
        for op in (lplus, lminus, rplus, rminus, ltimes, rtimes, kron):
            op(A, B)
        scale("3/4", A), eq_within(A, A), to_rational(A)
        z = lie_bracket(x, y)
        class_add(x, y), class_sub(x, y), class_mul(x, y), scalar_mul(2, z), equivalent(A, B)
        inner(x, y), norm(z), dist(x, y)
        coords = decompose_class(z)
        reconstruct(coords), in_span(z, [x, y]), independent([x, y, z])
        matrix_to_dict(A), matrix_to_csv(B), class_to_dict(z)
        assert built == []
        assert A.data and built == [A.shape]
