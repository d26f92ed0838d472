"""Canonicalization, equivalence and class arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import matrices
from helpers import as_matrix, lift, rand_matrix, ref_try_unkron

from semitensor import (
    Matrix,
    eq_within,
    from_rows,
    canonicalize,
    class_add,
    class_mul,
    class_sub,
    equivalent,
    from_rows,
    identity,
    is_reducible,
    kron,
    lie_bracket,
    lplus,
    ltimes,
    scalar_mul,
    try_unkron,
    zero_class,
    zeros,
)
from semitensor.matrix import FLOAT64


def test_is_reducible_examples():
    assert is_reducible(identity(2)) == (True, 2)
    assert is_reducible(as_matrix([[1, 0], [0, 2]])) == (False, None)
    assert is_reducible(kron(as_matrix([[1, 2]]), identity(3))) == (True, 3)


def test_is_reducible_witness_is_largest():
    A = kron(as_matrix([[1, 2], [3, 4]]), identity(6))
    red, s = is_reducible(A)
    assert red and s == 6


def test_canonicalize_examples():
    assert canonicalize(identity(6)).rep == as_matrix([[1]])
    d = as_matrix([[1, 0], [0, 2]])
    assert canonicalize(d).rep == d
    assert canonicalize(kron(as_matrix([[1, 2]]), identity(2))).rep == as_matrix([[1, 2]])


def test_canonicalize_zero_matrices():
    # 0_{kp x kq} peels all the way down to 0_{p x q}
    z = canonicalize(zeros(6, 4))
    assert z.rep == zeros(3, 2)
    assert z.mu == Fraction(3, 2)


@given(matrices(), st.integers(1, 4))
def test_canonicalize_ignores_lifts(A, s):
    assert canonicalize(kron(A, identity(s))).rep == canonicalize(A).rep


@given(matrices())
def test_canonicalize_idempotent(A):
    rep = canonicalize(A).rep
    assert canonicalize(rep).rep == rep


def test_peel_order_independence():
    rng = random.Random(13)
    for _ in range(40):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s = rng.randint(2, 12)
        A = kron(A0, identity(s))
        # ascending prime peel (library) vs one-shot largest-factor peel
        asc = canonicalize(A).rep
        red, witness = is_reducible(A)
        desc = try_unkron(A, witness) if red else A
        assert asc == desc == A0


def test_equivalent_examples():
    A = as_matrix([[1, 2], [3, 4]])
    assert equivalent(A, kron(A, identity(3)))
    assert not equivalent(as_matrix([[1, 2]]), as_matrix([[1, 3]]))
    assert equivalent(as_matrix([[2, 0], [0, 2]]), as_matrix([[2]]))


def test_equivalent_under_tolerance_matches_eq_within():
    A = from_rows([[1.0, 2.0]], FLOAT64)
    B = from_rows([[1.0, 2.0 + 1e-13]], FLOAT64)
    assert eq_within(A, B, rtol=1e-9)
    assert equivalent(A, B, rtol=1e-9)
    assert equivalent(kron(A, identity(3, FLOAT64)), B, rtol=1e-9)
    assert not equivalent(A, B, rtol=0.0)
    assert not equivalent(A, from_rows([[1.0, 2.1]], FLOAT64), rtol=1e-9)


def test_class_add_examples():
    one = canonicalize(as_matrix([[1]]))
    d12 = canonicalize(as_matrix([[1, 0], [0, 2]]))
    assert class_add(one, d12).rep == as_matrix([[2, 0], [0, 3]])
    x = canonicalize(as_matrix([[1, 2], [3, 4]]))
    assert class_add(x, zero_class(Fraction(1))) == x
    dm = canonicalize(as_matrix([[1, 0], [0, -1]]))
    assert class_add(one, dm).rep == as_matrix([[2, 0], [0, 0]])


def test_class_add_ratio_mismatch():
    with pytest.raises(ValueError):
        class_add(canonicalize(as_matrix([[1]])), canonicalize(as_matrix([[1, 2]])))


def test_scalar_mul():
    x = canonicalize(as_matrix([[1, 0], [0, 2]]))
    assert scalar_mul(1, x) == x
    assert scalar_mul(0, x) == zero_class(Fraction(1))
    assert scalar_mul(2, canonicalize(as_matrix([[1, 2]]))).rep == as_matrix([[2, 4]])


def test_class_mul_examples():
    one = canonicalize(as_matrix([[1]]))
    y = canonicalize(as_matrix([[1, 2], [3, 4]]))
    assert class_mul(one, y) == y
    z = class_mul(canonicalize(as_matrix([[1, 2]])), canonicalize(as_matrix([[3, 4]])))
    assert z.rep == as_matrix([[3, 6, 4, 8]]) and z.mu == Fraction(1, 4)
    w = class_mul(canonicalize(as_matrix([[1, 2]])), canonicalize(as_matrix([[1], [1]])))
    assert w.rep == as_matrix([[3]]) and w.mu == 1


def test_lie_bracket_examples():
    x = canonicalize(as_matrix([[0, 1], [0, 0]]))
    y = canonicalize(as_matrix([[0, 0], [1, 0]]))
    assert lie_bracket(x, y).rep == as_matrix([[1, 0], [0, -1]])
    assert lie_bracket(x, x) == zero_class(Fraction(1))
    assert lie_bracket(x, zero_class(Fraction(1))) == zero_class(Fraction(1))
    with pytest.raises(ValueError):
        lie_bracket(x, canonicalize(as_matrix([[1, 2]])))


def _random_class(rng, mu, max_k0=3):
    k0 = rng.randint(1, max_k0)
    return canonicalize(rand_matrix(rng, k0 * mu.numerator, k0 * mu.denominator))


def test_add_congruence():
    # lift-level choices must not affect the class sum
    rng = random.Random(101)
    mu = Fraction(1, 2)
    for _ in range(30):
        A0 = _random_class(rng, mu).rep
        B0 = _random_class(rng, mu).rep
        s, t, p, q = (rng.randint(1, 3) for _ in range(4))
        left = canonicalize(lplus(kron(A0, identity(s)), kron(B0, identity(p))))
        right = canonicalize(lplus(kron(A0, identity(t)), kron(B0, identity(q))))
        assert left == right


def test_mul_congruence_across_ratios():
    rng = random.Random(103)
    for _ in range(30):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        B0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s, t, p, q = (rng.randint(1, 3) for _ in range(4))
        left = canonicalize(ltimes(kron(A0, identity(s)), kron(B0, identity(p))))
        right = canonicalize(ltimes(kron(A0, identity(t)), kron(B0, identity(q))))
        assert left == right


def test_vector_space_axioms():
    rng = random.Random(107)
    mu = Fraction(2, 3)
    for _ in range(20):
        x, y, z = (_random_class(rng, mu) for _ in range(3))
        assert class_add(class_add(x, y), z) == class_add(x, class_add(y, z))
        assert class_add(x, y) == class_add(y, x)
        assert class_add(x, zero_class(mu)) == x
        assert class_add(x, scalar_mul(-1, x)) == zero_class(mu)
        c, d = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert scalar_mul(c, class_add(x, y)) == class_add(scalar_mul(c, x), scalar_mul(c, y))
        assert scalar_mul(c + d, x) == class_add(scalar_mul(c, x), scalar_mul(d, x))


def test_lie_axioms_on_ratio_one():
    rng = random.Random(109)
    mu = Fraction(1)
    for _ in range(15):
        x, y, z = (_random_class(rng, mu, max_k0=2) for _ in range(3))
        c = Fraction(rng.randint(-2, 2))
        # bilinearity in the first slot
        assert lie_bracket(class_add(x, y), z) == class_add(lie_bracket(x, z), lie_bracket(y, z))
        assert lie_bracket(scalar_mul(c, x), z) == scalar_mul(c, lie_bracket(x, z))
        # antisymmetry and Jacobi
        assert class_add(lie_bracket(x, y), lie_bracket(y, x)) == zero_class(mu)
        jac = class_add(
            class_add(lie_bracket(x, lie_bracket(y, z)), lie_bracket(y, lie_bracket(z, x))),
            lie_bracket(z, lie_bracket(x, y)),
        )
        assert jac == zero_class(mu)


def test_mul_distributes_over_add():
    rng = random.Random(113)
    mu = Fraction(1)
    for _ in range(20):
        x, y, z = (_random_class(rng, mu, max_k0=2) for _ in range(3))
        assert class_mul(x, class_add(y, z)) == class_add(class_mul(x, y), class_mul(x, z))


def test_float_mode_tolerance_dependence():
    # a lift plus noise below the absolute floor: reducible at the default
    # tolerance, irreducible under exact comparison
    noisy = from_rows([[2.0, 1e-16], [0.0, 2.0]], FLOAT64)
    assert canonicalize(noisy).rep.shape == (1, 1)
    assert canonicalize(noisy, rtol=0.0).rep.shape == (2, 2)


def _with(A: Matrix, rows: int, cols: int, data: list, pos: int, value) -> Matrix:
    data = list(data)
    data[pos] = value
    return Matrix(rows, cols, tuple(data), A.scalar)


def _peel_cases(A: Matrix, s: int, eps):
    """The lift of A by s, and near-lifts of it: an off-diagonal entry of a
    random block made nonzero, and a diagonal entry of the last block
    moved by eps (a relative amount in float mode)."""
    lifted = lift(A, s)
    rows, cols, data = lifted.rows, lifted.cols, lifted.data
    yield lifted
    for i, j in ((0, 0), (A.rows - 1, A.cols - 1), (A.rows // 2, A.cols - 1)):
        a, b = 0, s - 1
        yield _with(A, rows, cols, data, (i * s + a) * cols + j * s + b, eps)
        yield _with(A, rows, cols, data, (i * s + b) * cols + j * s + a, eps)
    last = (rows - 1) * cols + cols - 1
    d = data[last]
    yield _with(A, rows, cols, data, last, d + eps * (abs(d) if A.scalar == FLOAT64 and d else 1))


def _assert_peels_like_reference(A, rtols):
    for s in range(1, 7):
        for rtol in rtols:
            got, want = try_unkron(A, s, rtol), ref_try_unkron(A, s, rtol)
            assert repr(got) == repr(want), (A, s, rtol)


def test_try_unkron_matches_reference_exact():
    rng = random.Random(127)
    peeled = 0
    for _ in range(40):
        A = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        for s in (2, 3, 4, 5):
            for L in _peel_cases(A, s, Fraction(1, 7)):
                _assert_peels_like_reference(L, (None,))
                peeled += try_unkron(L, s) is not None
    assert peeled >= 40  # the exact lifts (at least) peel


def test_try_unkron_matches_reference_float():
    rng = random.Random(131)
    specials = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300)
    rtols = (0.0, None)
    peeled = dict.fromkeys(rtols, 0)
    for _ in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        data = [rng.choice((rng.uniform(-4, 4),) * 3 + specials) for _ in range(m * n)]
        A = Matrix(m, n, tuple(data), FLOAT64)
        for s in (2, 3, 5):
            for eps in (1e-12, 1e-3, -0.0):
                for L in _peel_cases(A, s, eps):
                    _assert_peels_like_reference(L, rtols)
                    for rtol in rtols:
                        peeled[rtol] += try_unkron(L, s, rtol) is not None
    assert all(count >= 40 for count in peeled.values())


def test_float_peel_keeps_nan_and_signed_zero_rules():
    nan_lift = Matrix(2, 2, (math.nan, 0.0, 0.0, math.nan), FLOAT64)
    assert try_unkron(nan_lift, 2, 0.0) is None
    signed = Matrix(2, 2, (-0.0, 0.0, -0.0, 0.0), FLOAT64)
    assert try_unkron(signed, 2, 0.0) == Matrix(1, 1, (-0.0,), FLOAT64)
    inf_lift = Matrix(2, 2, (math.inf, 0.0, 0.0, math.inf), FLOAT64)
    assert try_unkron(inf_lift, 2, 0.0) == Matrix(1, 1, (math.inf,), FLOAT64)
    assert try_unkron(inf_lift, 2) is None  # inf - inf is NaN under a tolerance
