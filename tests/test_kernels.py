"""Lift-free semi-tensor operations against the Kronecker-built references:
bit equality, allocation footprints and the size budget."""

import math
import operator
import random
import struct
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import lcm
from sys import getsizeof

import pytest
from hypothesis import given, strategies as st

from helpers import (
    as_matrix,
    counting_entries,
    lift,
    matmul,
    rand_matrix,
    ref_canonicalize,
    ref_coordinates,
    ref_inner,
    ref_inner_nonzero,
    ref_lminus,
    ref_lplus,
    ref_ltimes,
    ref_rminus,
    ref_rplus,
    ref_rtimes,
)

import semitensor.matrix
from semitensor import (
    FLOAT64,
    Matrix,
    MatrixClass,
    canonicalize,
    class_mul,
    decompose_class,
    dist,
    eq_within,
    from_rows,
    identity,
    inner,
    kron,
    lie_bracket,
    lminus,
    lplus,
    ltimes,
    norm,
    ratio_of,
    reconstruct,
    rminus,
    rplus,
    rtimes,
    scale,
    unit_class,
)

SUMS = ((lplus, ref_lplus), (rplus, ref_rplus), (lminus, ref_lminus), (rminus, ref_rminus))


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
    with counting_entries() as count:
        out = fn(*args)
    return count.entries, out


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


def test_canonicalize_builds_only_its_representative():
    rng = random.Random(97)
    lifted = rand_matrix(rng, 6, 6)
    L = kron(lifted, identity(30))
    dense = from_rows([[Fraction(rng.randint(1, 9), rng.randint(1, 97)) for _ in range(6)]
                       for _ in range(6)])
    # the representative is the only matrix built; an irreducible A is returned as it is
    for A, entries in ((L, 36), (semitensor.matrix.zeros(60, 60), 1), (dense, 0)):
        built, x = _alloc_during(canonicalize, A)
        assert built == entries
        assert (x.rep is A) == (entries == 0)


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
    # the exact bracket builds XY - YX alone, then its peeled class if any
    alloc, out = _alloc_during(lie_bracket, x, y)
    t = lcm(n, p)
    assert alloc == t * t + (out.rep.rows * out.rep.cols if out.k0 < t else 0)


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


def test_float_inner_sums_products_in_row_major_lifted_order():
    # The products are 1.5e308, 1.5e308 and -1.5e308 in row-major order of
    # the lifts: summed in that order fsum overflows at its second term,
    # summed in reverse it returns 1.5e308. Once within one row, once down
    # the diagonal of a lift to three rows.
    big = 1.5e154
    for a, b in (
        ([[1e154, 1e154, 1e154]], [[big, big, -big]]),
        ([[1e154]], [[big, 0, 0], [0, big, 0], [0, 0, -big]]),
    ):
        A, B = from_rows(a, FLOAT64), from_rows(b, FLOAT64)
        x, y = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(B), B)
        with pytest.raises(OverflowError):
            ref_inner(A, B)
        with pytest.raises(OverflowError):
            inner(x, y)


def test_float_inner_skips_products_with_a_zero_factor():
    # X lifts to [[inf, 0, 1, 0], [0, inf, 0, 1]]: each inf meets a 0.0 of
    # Y, a product that would be NaN, so only 1*3 and 1*5 are summed
    inf = math.inf
    X = from_rows([[inf, 1.0]], FLOAT64)
    Y = from_rows([[0.0, 0.0, 3.0, -0.0], [0.0, -0.0, 0.0, 5.0]], FLOAT64)
    x, y = MatrixClass(ratio_of(X), X), MatrixClass(ratio_of(Y), Y)
    assert repr(inner(x, y)) == repr(inner(y, x)) == "8.0"
    assert math.isnan(ref_inner(X, Y))  # the full lifts do multiply inf by 0


def test_float_inner_redoes_a_nan_sum_without_the_zero_products():
    # X's 0.0 faces Y's inf, a product the pairing never sums. Summed
    # with that NaN term, fsum would start its partials again after it and
    # overflow on 1e308 + 1e308; without it, -1e308 + 1e308 + 1e308 is
    # 1e308.
    X = from_rows([[-1e308, 0.0, 1e308, 1e308]], FLOAT64)
    Y = from_rows([[1.0, math.inf, 1.0, 1.0]], FLOAT64)
    with pytest.raises(OverflowError):
        math.fsum(map(operator.mul, X.data, Y.data))
    x, y = MatrixClass(ratio_of(X), X), MatrixClass(ratio_of(Y), Y)
    assert repr(inner(x, y)) == repr(inner(y, x)) == "1e+308"


def test_float_inner_of_zero_products_is_positive_zero():
    # every product is -0.0 (or 0.0 in the self-pairings): the sum is 0.0
    X = from_rows([[-0.0, 1.0], [2.0, -0.0]], FLOAT64)
    Y = from_rows([[3.0, -0.0], [-0.0, 4.0]], FLOAT64)
    Z = from_rows([[-0.0, 0.0]], FLOAT64)
    x, y, z = (MatrixClass(ratio_of(M), M) for M in (X, Y, Z))
    assert repr(inner(x, y)) == repr(inner(y, x)) == "0.0"
    assert repr(inner(z, z)) == repr(norm(z)) == "0.0"


# --- adversarial denominators -------------------------------------------

def _primes_from(start):
    n = start
    while True:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            yield n
        n += 1


def _adversarial(case, rng, shape, primes):
    """A rational matrix for one adversarial case. Every entry has its own
    prime denominator near 10^4 and a random sign; "zero_lines" then zeroes
    one row and one column, and "zero_operand" zeroes everything."""
    m, n = shape
    data = [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), next(primes))
             for _ in range(n)] for _ in range(m)]
    if case == "zero_lines":
        data[rng.randrange(m)] = [Fraction(0)] * n
        j = rng.randrange(n)
        for row in data:
            row[j] = Fraction(0)
    elif case == "zero_operand":
        data = [[Fraction(0)] * n for _ in range(m)]
    return from_rows(data)


# (shape of A, shape of B): nested, coprime and non-square inner sizes
ADVERSARIAL_PRODUCTS = (((4, 4), (6, 6)), ((3, 5), (7, 2)), ((2, 6), (4, 3)), ((5, 5), (5, 5)))
ADVERSARIAL_PAIRS = (((4, 4), (6, 6)), ((2, 3), (4, 6)), ((5, 5), (3, 3)))


@pytest.mark.parametrize("case", ["distinct_primes", "zero_lines", "zero_operand"])
def test_products_and_inner_with_adversarial_denominators(case):
    rng = random.Random(137)
    primes = _primes_from(10**4)
    for shapes, ops in ((ADVERSARIAL_PRODUCTS, "products"), (ADVERSARIAL_PAIRS, "inner")):
        for sa, sb in shapes:
            plain_a = _adversarial("distinct_primes", rng, sa, primes)
            plain_b = _adversarial("distinct_primes", rng, sb, primes)
            for X, Y in ((plain_a, _adversarial(case, rng, sb, primes)),
                         (_adversarial(case, rng, sa, primes), plain_b)):
                x, y = canonicalize(X), canonicalize(Y)
                if ops == "products":
                    assert ltimes(X, Y) == ref_ltimes(X, Y)
                    assert rtimes(X, Y) == ref_rtimes(X, Y)
                    assert class_mul(x, y) == canonicalize(ref_ltimes(x.rep, y.rep))
                else:
                    got = inner(MatrixClass(ratio_of(X), X), MatrixClass(ratio_of(Y), Y))
                    assert type(got) is Fraction and got == ref_inner(X, Y)
                    d = canonicalize(ref_lminus(x.rep, y.rep)).rep
                    assert dist(x, y) == math.sqrt(ref_inner(d, d))
                if sa[0] == sa[1] and sb[0] == sb[1]:
                    xy, yx = ref_ltimes(x.rep, y.rep), ref_ltimes(y.rep, x.rep)
                    assert lie_bracket(x, y) == canonicalize(ref_lminus(xy, yx))


@pytest.mark.parametrize("case", ["distinct_primes", "zero_lines", "zero_operand"])
def test_sums_and_reconstruct_with_adversarial_denominators(case):
    rng = random.Random(149)
    primes = _primes_from(10**4)
    for sa, sb in ADVERSARIAL_PAIRS:
        X = _adversarial("distinct_primes", rng, sa, primes)
        Y = _adversarial(case, rng, sb, primes)
        for A, B in ((X, Y), (Y, X)):
            for op, ref in SUMS:
                assert op(A, B) == ref(A, B), op.__name__
        # reconstruct places every unit at the lcm of the sizes i
        for Z in (X, Y):
            x = canonicalize(Z)
            coords = decompose_class(x)
            assert reconstruct(coords) == x
            if coords.terms:
                units = (scale(c, unit_class(e).rep) for e, c in coords.terms.items())
                assert reconstruct(coords) == canonicalize(reduce(ref_lplus, units))


@pytest.mark.parametrize("case", ["distinct_primes", "zero_lines", "zero_operand"])
def test_classes_and_coordinates_with_adversarial_denominators(case):
    # the stored ints sit over a product of many primes near 10^4; peeling,
    # sums and coordinates still agree with the references, and every
    # result is stored reduced
    rng = random.Random(163)
    primes = _primes_from(10**4)
    for sa, sb in ADVERSARIAL_PAIRS:
        X = _adversarial("distinct_primes", rng, sa, primes)
        Y = _adversarial(case, rng, sb, primes)
        for Z in (X, Y, lplus(X, Y), rminus(Y, X)):
            for s in (1, 2, 3):
                L = lift(Z, s)
                x = canonicalize(L)
                assert x.rep == ref_canonicalize(L)
                assert {e.sort_key(): c for e, c in decompose_class(x).terms.items()} \
                    == ref_coordinates(x)
                for R in (Z, L, x.rep):
                    assert math.gcd(R._den, *R._cells) == 1


# --- size budget --------------------------------------------------------

def test_size_budget_rejects_oversized_product_before_allocating():
    # t = lcm(997, 991) = 988027; the result would be 49550 x 49850
    A = from_rows([[1] * 997] * 50)
    B = from_rows([[1] * 50] * 991)
    for op in (ltimes, rtimes):
        with counting_entries() as count, pytest.raises(ValueError, match="budget"):
            op(A, B)
        assert count.entries == 0


def test_size_budget_covers_sums(monkeypatch):
    rng = random.Random(139)
    A, B = rand_matrix(rng, 4, 4), rand_matrix(rng, 9, 9)
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", 36 * 36 - 1)
    for op in (lplus, rplus, lminus, rminus):
        with pytest.raises(ValueError, match="budget"):
            op(A, B)
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", 36 * 36)
    assert lplus(A, B) == ref_lplus(A, B)


# --- float mode ---------------------------------------------------------

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
nonzero_floats = finite_floats.filter(lambda v: v != 0.0)


@st.composite
def float_matrices(draw, rows=None, cols=None, entries=finite_floats):
    m = rows if rows is not None else draw(st.integers(1, 4))
    n = cols if cols is not None else draw(st.integers(1, 4))
    data = draw(st.lists(entries, min_size=m * n, max_size=m * n))
    return Matrix(m, n, tuple(data), FLOAT64)


# every finite float, ±0.0 often: products and sums can overflow, so the
# order in which a cell accumulates shows
any_finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
# the same with ±inf and NaN, often: the references lift by placement, so
# a non-finite entry spreads no NaN into a lift's zeros
any_floats = any_finite_floats | st.sampled_from([math.inf, -math.inf, math.nan])


@given(float_matrices(entries=any_finite_floats), float_matrices(entries=any_finite_floats))
def test_float_products_match_references_bit_for_bit(A, B):
    assert repr(ltimes(A, B)) == repr(ref_ltimes(A, B))
    assert repr(rtimes(A, B)) == repr(ref_rtimes(A, B))


def test_float_products_never_multiply_a_stored_zero():
    # An inf or NaN entry of A that faces a zero of B's lift, stored (±0.0)
    # or made by the lift, adds nothing; the product of the full lifts
    # makes NaN there.
    inf, nan = math.inf, math.nan
    A = from_rows([[inf, 1.0]], FLOAT64)
    B = from_rows([[0.0, 2.0], [1.0, 0.0]], FLOAT64)
    for op, ref in ((ltimes, ref_ltimes), (rtimes, ref_rtimes)):
        assert list(map(repr, op(A, B).data)) == ["1.0", "inf"]
        assert list(map(repr, ref(A, B).data)) == ["nan", "inf"]
    # B lifts to [[-0.0, 0, inf, 0], [0, -0.0, 0, inf]] on the left and
    # to [[-0.0, inf, 0, 0], [0, 0, -0.0, inf]] on the right, and A's -0.0
    # faces nothing, so no cell but inf * inf, nan * inf and 1.0 * inf is
    # formed.
    A = from_rows([[inf, nan], [-0.0, 1.0]], FLOAT64)
    B = from_rows([[-0.0, inf]], FLOAT64)
    for op, cells in (
        (ltimes, [0.0, 0.0, inf, nan, 0.0, 0.0, 0.0, inf]),
        (rtimes, [0.0, inf, 0.0, nan, 0.0, 0.0, 0.0, inf]),
    ):
        got = op(A, B)
        assert got.shape == (2, 4)
        assert list(map(repr, got.data)) == list(map(repr, cells)), op.__name__


@st.composite
def float_sum_pairs(draw):
    # lift factors up to 4 on each side
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    s, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return (draw(float_matrices(s * p, s * q, any_floats)),
            draw(float_matrices(t * p, t * q, any_floats)))


@given(float_sum_pairs())
def test_float_additions_commute_bit_for_bit(pair):
    # An addition puts the operand with more rows first; IEEE addition
    # commutes, so swapping the operands changes no cell.
    A, B = pair
    for op in (lplus, rplus):
        assert list(map(repr, op(A, B).data)) == list(map(repr, op(B, A).data)), op.__name__


@given(float_sum_pairs())
def test_float_sums_match_references_but_never_return_negative_zero(pair):
    # A cell of the lifted sum is the reference's cell, except that where
    # the reference adds zeros to -0.0 the library returns 0.0.
    A, B = pair
    for op, ref in SUMS:
        got, want = op(A, B), ref(A, B)
        assert got.shape == want.shape
        assert [repr(v) for v in got.data] == [
            "0.0" if r == "-0.0" else r for r in map(repr, want.data)
        ], op.__name__
        assert "-0.0" not in map(repr, got.data)


def _signed_zeros(n, zero, nonzero):
    # n x n zeros but for a nonzero on the diagonal of every row but the last
    return from_rows([[nonzero if j == i < n - 1 else zero for j in range(n)]
                      for i in range(n)], FLOAT64)


@pytest.mark.parametrize("m, p", [(2, 2), (2, 4), (4, 2), (2, 3)],
                         ids=["both_unlifted", "first_lifted", "second_lifted", "both_lifted"])
@pytest.mark.parametrize("b_nonzero", [2.0, None], ids=["second_nonzero", "second_all_zero"])
def test_float_sums_never_return_negative_zero_on_any_layout(m, p, b_nonzero):
    # A's -0.0 faces B's +0.0 in a difference and B's -0.0 in a sum, where
    # the full lifts make -0.0; every such cell must come back as +0.0.
    A = _signed_zeros(m, -0.0, 1.0)
    for op, ref in SUMS:
        zero = 0.0 if op in (lminus, rminus) else -0.0
        B = _signed_zeros(p, zero, b_nonzero or zero)
        got, want = op(A, B), ref(A, B)
        assert "-0.0" in map(repr, want.data), op.__name__
        assert [repr(v) for v in got.data] == [
            "0.0" if r == "-0.0" else r for r in map(repr, want.data)
        ], op.__name__
        assert all(math.copysign(1.0, v) == 1.0 for v in got.data if v == 0), op.__name__


@pytest.mark.parametrize("a", [1, 64])
def test_float_difference_with_an_unlifted_operand_copies_no_entries(a):
    # a x a - 128 x 128: A is placed, and one pass over B's entries builds
    # the result, so the peak is the result's tuple and floats plus the
    # one list of pointers A was placed in, and no copy of either.
    rng = random.Random(113 + a)
    A, B = _rand_float(rng, a, a), _rand_float(rng, 128, 128)
    lminus(A, B)
    tracemalloc.start()
    try:
        out = lminus(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = len(out.data)
    own = getsizeof(out.data) + sum(map(getsizeof, out.data))
    assert peak < 1.1 * (own + struct.calcsize("P") * cells)


def test_float_sum_and_distance_with_a_lifted_operand_build_only_its_cells():
    # 1 x 1 and 128 x 128, in either order: the 128 x 128 goes in first, by
    # reference, and only the 128 cells the lifted 1 x 1 covers are added,
    # so the peak is the result's tuple of pointers, one list of pointers
    # and those 128 new floats, and no float per cell of the 128 x 128.
    rng = random.Random(127)
    A, B = _rand_float(rng, 1, 1), _rand_float(rng, 128, 128)
    x, y = canonicalize(A, rtol=0.0), canonicalize(B, rtol=0.0)
    cells = 128 * 128
    bound = (getsizeof(tuple(range(cells))) + getsizeof(list(range(cells)))
             + 128 * getsizeof(1.0))
    for name, call in (("lplus", lambda: lplus(A, B)), ("dist", lambda: dist(x, y, rtol=0.0))):
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, name


def test_float_sums_with_nonfinite_cells():
    # A lifts to [[inf, 0, -inf, 0], [0, inf, 0, -inf]] on the left and to
    # [[inf, -inf, 0, 0], [0, 0, inf, -inf]] on the right; inf - inf cells
    # are NaN, and a -0.0 that meets a zero comes back as 0.0.
    inf, nan = math.inf, math.nan
    A = from_rows([[inf, -inf]], FLOAT64)
    B = from_rows([[-inf, 1.0, -0.0, nan], [2.0, inf, -inf, -0.0]], FLOAT64)
    for op, cells in (
        (lplus, [nan, 1.0, -inf, nan, 2.0, inf, -inf, -inf]),
        (lminus, [inf, -1.0, -inf, nan, -2.0, nan, inf, -inf]),
        (rplus, [nan, -inf, 0.0, nan, 2.0, inf, nan, -inf]),
        (rminus, [inf, -inf, 0.0, nan, -2.0, -inf, inf, -inf]),
    ):
        got = op(A, B)
        assert got.shape == (2, 4)
        assert list(map(repr, got.data)) == list(map(repr, cells)), op.__name__


@st.composite
def float_pairs_same_ratio(draw, entries=finite_floats):
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (draw(float_matrices(s * p, s * q, entries)),
            draw(float_matrices(t * p, t * q, entries)))


@given(float_pairs_same_ratio())
def test_float_inner_matches_reference_bit_for_bit(pair):
    A, B = pair
    x, y = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(B), B)
    assert repr(inner(x, y)) == repr(ref_inner(A, B))


def _outcome(f, *args):
    # the value's repr, or the type of the error fsum raised
    try:
        return repr(f(*args))
    except (OverflowError, ValueError) as e:
        return type(e).__name__


@given(float_pairs_same_ratio(any_floats))
def test_float_inner_with_nonfinite_entries_matches_nonzero_reference(pair):
    A, B = pair
    x, y = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(B), B)
    assert _outcome(inner, x, y) == _outcome(ref_inner_nonzero, A, B)
    assert _outcome(inner, y, x) == _outcome(ref_inner_nonzero, B, A)


@given(float_matrices(entries=nonzero_floats), st.integers(2, 4))
def test_float_canonicalize_recovers_all_nonzero_matrix(A, s):
    # no entry of A is zero, so no block of A is a multiple of an identity
    assert canonicalize(kron(A, identity(s, FLOAT64)), rtol=0).rep == A
