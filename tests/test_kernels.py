"""Lift-free semi-tensor operations against the Kronecker-built references:
bit equality and allocation footprints."""

import random
from math import lcm

import pytest

from helpers import (
    as_matrix,
    rand_matrix,
    ref_inner,
    ref_lplus,
    ref_ltimes,
    ref_rplus,
    ref_rtimes,
)

from semitensor import (
    FLOAT64,
    MatrixClass,
    allocated_elems,
    eq_within,
    from_rows,
    inner,
    lminus,
    lplus,
    ltimes,
    matmul,
    ratio_of,
    rminus,
    rplus,
    rtimes,
)


def _rand_float(rng, m, n):
    return from_rows([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)], FLOAT64)


def test_fast_matches_examples():
    A, B = as_matrix([[1, 2]]), as_matrix([[3, 4]])
    assert ltimes(A, B) == ref_ltimes(A, B)
    assert ltimes(A, B).to_lists() == as_matrix([[3, 6, 4, 8]]).to_lists()


def test_fast_degenerates_to_matmul():
    rng = random.Random(71)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = rand_matrix(rng, rng.randint(1, 4), n)
        B = rand_matrix(rng, n, rng.randint(1, 4))
        assert ltimes(A, B) == matmul(A, B)


def test_fast_oracle_equivalence_randomized():
    # shapes drawn so the lcm lift factors stay <= 12
    rng = random.Random(73)
    trials = 0
    while trials < 200:
        A = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        B = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        t = lcm(A.cols, B.rows)
        if t // A.cols > 12 or t // B.rows > 12:
            continue
        trials += 1
        assert ltimes(A, B) == ref_ltimes(A, B)


def test_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        ltimes(as_matrix([[1]]), from_rows([[1.0]], FLOAT64))


def test_fast_agrees_in_float_mode():
    rng = random.Random(83)
    for _ in range(30):
        A = _rand_float(rng, rng.randint(1, 4), rng.randint(1, 4))
        B = _rand_float(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert eq_within(ref_ltimes(A, B), ltimes(A, B), rtol=1e-12)


def _alloc_during(fn, *args):
    before = allocated_elems()
    out = fn(*args)
    return allocated_elems() - before, out


def test_allocation_footprints():
    rng = random.Random(79)
    # square inputs with coprime dimensions force a full t = n*p lift
    for n, p in ((4, 9), (8, 9), (6, 25)):
        A, B = rand_matrix(rng, n, n), rand_matrix(rng, p, p)
        t = lcm(n, p)
        naive_alloc, out = _alloc_during(ref_ltimes, A, B)
        fast_alloc, out2 = _alloc_during(ltimes, A, B)
        assert out == out2
        out_elems = out.rows * out.cols
        assert naive_alloc - out_elems >= t * t
        assert fast_alloc == out_elems  # the output is the only allocation


@pytest.mark.parametrize("n, p", [(4, 9), (8, 9)])
def test_lift_free_allocation_at_coprime_sizes(n, p):
    rng = random.Random(89 + n)
    A, B = rand_matrix(rng, n, n), rand_matrix(rng, p, p)
    for op in (lplus, rplus, lminus, rminus, ltimes, rtimes):
        alloc, out = _alloc_during(op, A, B)
        assert alloc == out.rows * out.cols, op.__name__
    x, y = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(B), B)
    alloc, _ = _alloc_during(inner, x, y)
    assert alloc == 0


@pytest.mark.parametrize("n, p", [(4, 9), (8, 9)])
def test_lift_free_ops_match_references_at_coprime_sizes(n, p):
    rng = random.Random(97 + n)
    A, B = rand_matrix(rng, n, n), rand_matrix(rng, p, p)
    for op, ref in ((lplus, ref_lplus), (rplus, ref_rplus), (ltimes, ref_ltimes), (rtimes, ref_rtimes)):
        assert op(A, B) == ref(A, B), op.__name__


@pytest.mark.parametrize("n, p", [(4, 9), (8, 9), (2, 3), (5, 7)])
def test_inner_matches_reference_at_coprime_lifts(n, p):
    rng = random.Random(101 + n * p)
    A, B = rand_matrix(rng, n, n), rand_matrix(rng, p, p)
    x, y = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(B), B)
    assert inner(x, y) == ref_inner(A, B)
    Af, Bf = _rand_float(rng, n, n), _rand_float(rng, p, p)
    xf, yf = MatrixClass(ratio_of(Af), Af), MatrixClass(ratio_of(Bf), Bf)
    assert repr(inner(xf, yf)) == repr(ref_inner(Af, Bf))
