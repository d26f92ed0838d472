"""Raw semi-tensor product and addition against the independent oracle."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given

from conftest import matrices, matrix_pairs_same_ratio
from helpers import as_matrix, matmul, o_lplus, o_ltimes, o_rplus, o_rtimes, rand_matrix

from semitensor import (
    Matrix,
    canonicalize,
    class_mul,
    equivalent,
    from_rows,
    identity,
    lie_bracket,
    lminus,
    lplus,
    ltimes,
    ratio_of,
    rminus,
    rplus,
    rtimes,
    zeros,
)
from semitensor.stp import _integers


def test_ltimes_examples():
    assert ltimes(as_matrix([[1, 2], [3, 4]]), as_matrix([[5], [6]])).to_lists() == [
        [17],
        [39],
    ]
    assert ltimes(as_matrix([[1, 2]]), as_matrix([[3, 4]])).to_lists() == as_matrix(
        [[3, 6, 4, 8]]
    ).to_lists()
    B = as_matrix([[1, 2], [3, 4]])
    assert ltimes(identity(1), B) == B


def test_rtimes_examples():
    assert rtimes(as_matrix([[1, 2]]), as_matrix([[3, 4]])).to_lists() == as_matrix(
        [[3, 4, 6, 8]]
    ).to_lists()
    B = as_matrix([[1, 2], [3, 4]])
    assert rtimes(identity(1), B) == B
    # conformable case degenerates to the plain product
    A = as_matrix([[1, 2], [3, 4]])
    v = as_matrix([[5], [6]])
    assert rtimes(A, v) == matmul(A, v)


def test_sta_examples():
    one = as_matrix([[1]])
    assert lplus(one, as_matrix([[1, 0], [0, 2]])).to_lists() == as_matrix(
        [[2, 0], [0, 3]]
    ).to_lists()
    A = as_matrix([[1, 2], [3, 4]])
    assert lminus(A, A) == zeros(2, 2)
    assert lplus(one, zeros(2, 2)) == identity(2)


def test_sta_ratio_mismatch_rejected():
    for op in (lplus, lminus, rplus, rminus):
        with pytest.raises(ValueError):
            op(as_matrix([[1]]), as_matrix([[1, 2]]))


@given(matrices(), matrices())
def test_ltimes_shape_law(A, B):
    t = lcm(A.cols, B.rows)
    C = ltimes(A, B)
    assert C.shape == (A.rows * t // A.cols, B.cols * t // B.rows)


@given(matrix_pairs_same_ratio())
def test_lplus_shape_law_and_commutativity(pair):
    A, B = pair
    t = lcm(A.rows, B.rows)
    C = lplus(A, B)
    assert C.shape == (t, A.cols * t // A.rows)
    assert C == lplus(B, A)


def test_stp_generalizes_matmul():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, rng.randint(1, 4), n)
        B = rand_matrix(rng, n, rng.randint(1, 4))
        assert ltimes(A, B) == matmul(A, B)
        assert rtimes(A, B) == matmul(A, B)


def test_ltimes_associative_randomized():
    rng = random.Random(17)
    for _ in range(30):
        A = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        B = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        C = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert ltimes(ltimes(A, B), C) == ltimes(A, ltimes(B, C))


def test_lplus_associative_randomized():
    rng = random.Random(23)
    for _ in range(30):
        p, q = rng.randint(1, 2), rng.randint(1, 3)
        mats = [
            rand_matrix(rng, s * p, s * q) for s in (rng.randint(1, 3) for _ in range(3))
        ]
        A, B, C = mats
        assert lplus(lplus(A, B), C) == lplus(A, lplus(B, C))


def test_lplus_zero_is_neutral_up_to_equivalence():
    rng = random.Random(29)
    for _ in range(20):
        s = rng.randint(1, 3)
        A = rand_matrix(rng, s, 2 * s)
        Z = zeros(2, 4)
        assert equivalent(lplus(A, Z), A)


def test_against_independent_oracle():
    from helpers import rand_lists

    rng = random.Random(41)
    for _ in range(40):
        a = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_lists(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert ltimes(as_matrix(a), as_matrix(b)).to_lists() == o_ltimes(a, b)
        assert rtimes(as_matrix(a), as_matrix(b)).to_lists() == o_rtimes(a, b)
    for _ in range(40):
        p, q = rng.randint(1, 2), rng.randint(1, 3)
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(s * q)] for _ in range(s * p)]
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(t * q)] for _ in range(t * p)]
        assert lplus(as_matrix(a), as_matrix(b)).to_lists() == o_lplus(a, b)
        assert rplus(as_matrix(a), as_matrix(b)).to_lists() == o_rplus(a, b)


def test_ratio_of():
    assert ratio_of(as_matrix([[1, 2], [3, 4]])) == 1
    assert ratio_of(from_rows([[1, 2, 3, 4]])) == Fraction(1, 4)


def test_integers_match_the_properties():
    # huge and negative numerators, distinct and shared zeros, prime
    # denominators: the stored ints are each entry's numerator over the
    # common lcm, a tuple read as it is
    rng = random.Random(59)
    zero = Fraction(0)
    values = [Fraction(-(2**200) - 1, 3), Fraction(2**130, 10007), Fraction(-9, 97), zero, zero]
    values += [Fraction(rng.randint(-(10**30), 10**30), rng.choice((1, 2, 9973)))
               for _ in range(7)]
    A = Matrix(2, 6, tuple(values))
    ints, d = _integers(A)
    assert d == lcm(*(v.denominator for v in A.data))
    assert ints == tuple(v.numerator * (d // v.denominator) for v in A.data)
    assert ints is A._cells
    assert all(type(w) is int for w in ints)


def test_exact_products_build_one_fraction_per_distinct_value():
    # equal cells of a product share one Fraction object; the class
    # product and the bracket keep that, since peeling only gathers cells
    rng = random.Random(67)
    A, B = rand_matrix(rng, 2, 2), rand_matrix(rng, 3, 3)
    r = ltimes(A, B)
    assert len({id(v) for v in r.data}) == len(set(r.data)) < len(r.data)
    for _ in range(30):
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        B = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x, y = canonicalize(rand_matrix(rng, n, n)), canonicalize(rand_matrix(rng, m, m))
        for r in (ltimes(A, B), rtimes(A, B), class_mul(x, y).rep, lie_bracket(x, y).rep):
            assert len({id(v) for v in r.data}) == len(set(r.data))
