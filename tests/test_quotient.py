"""Canonicalization, equivalence and class arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import matrices
from helpers import (
    as_matrix, lift, rand_matrix, ref_canonicalize, ref_lminus, ref_ltimes, ref_try_unkron,
)

from semitensor import (
    Matrix,
    MatrixClass,
    eq_within,
    from_rows,
    canonicalize,
    class_add,
    class_mul,
    class_sub,
    equivalent,
    from_rows,
    identity,
    kron,
    lie_bracket,
    lplus,
    ltimes,
    scalar_mul,
    try_unkron,
    zero_class,
    zeros,
)
from semitensor.matrix import FLOAT64, RATIONAL, scalar_eq


def _level(A):
    # the largest s with A = B x I_s: canonicalize peels every factor
    return A.rows // canonicalize(A).rep.rows


def test_canonical_level_examples():
    assert _level(identity(2)) == 2
    assert _level(as_matrix([[1, 0], [0, 2]])) == 1
    assert _level(kron(as_matrix([[1, 2]]), identity(3))) == 3


def test_canonical_level_is_largest():
    assert _level(kron(as_matrix([[1, 2], [3, 4]]), identity(6))) == 6


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


def _canon_cases(rng, kind):
    """Lifts of random small matrices at composite levels, each followed by
    a near-lift with one entry moved; sparse lifts and zero matrices."""
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        if kind == FLOAT64:
            data = [rng.choice((0.0, -0.0, rng.uniform(-4, 4), rng.uniform(-4, 4)))
                    for _ in range(m * n)]
        else:
            data = [Fraction(rng.choice((0, rng.randint(-3, 3))), rng.choice((1, 2, 3, 97, 9973)))
                    for _ in range(m * n)]
        A = Matrix(m, n, tuple(data), kind)
        for s in (1, 4, 6, 12):
            L = lift(A, s)
            yield L
            moved = list(L.data)
            pos = rng.randrange(len(moved))
            if kind == FLOAT64:
                moved[pos] += (abs(moved[pos]) or 1.0) * 10.0 ** rng.randint(-16, -8)
            else:
                moved[pos] += Fraction(1, rng.choice((1, 97)))
            yield Matrix(L.rows, L.cols, tuple(moved), kind)
    for m, n in ((12, 8), (6, 9), (4, 4)):
        yield zeros(m, n, kind)


@pytest.mark.parametrize("kind, rtol", [(RATIONAL, None), (FLOAT64, 0.0)])
def test_ascending_pass_matches_restarted_peels(kind, rtol):
    # under exact comparison a prime that fails once never passes later, so
    # one ascending pass finds the restart loop's representative bit for bit
    for A in _canon_cases(random.Random(17), kind):
        assert repr(canonicalize(A, rtol).rep) == repr(ref_canonicalize(A, rtol)), A


def test_float_level_is_the_ascending_pass():
    # under a tolerance, 2 fails, 3 peels, and 2 is not tried again: the
    # restart loop would go on to peel diag(1, 1 + 5e-10) to [1.0]
    big = 1 + 5e-10
    diag = (1.0, 1.0, 1 - 9e-10, big, big, big)
    A = Matrix(6, 6, tuple(d if i == j else 0.0 for i, d in enumerate(diag) for j in range(6)),
               FLOAT64)
    assert canonicalize(A).rep == Matrix(2, 2, (1.0, 0.0, 0.0, big), FLOAT64)
    assert ref_canonicalize(A) == Matrix(1, 1, (1.0,), FLOAT64)
    assert canonicalize(A, rtol=0.0).rep == A


def test_peel_order_independence():
    rng = random.Random(13)
    for _ in range(40):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s = rng.randint(2, 12)
        A = kron(A0, identity(s))
        # ascending prime peel (library) vs one peel at the known factor
        asc = canonicalize(A).rep
        desc = try_unkron(A, s)
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


def test_matrix_class_checks_its_ratio():
    with pytest.raises(ValueError, match="has ratio 1/2, not 1"):
        MatrixClass(Fraction(1), as_matrix([[1, 2]]))


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


def test_lie_bracket_rejects_mixed_kinds():
    x = canonicalize(as_matrix([[0, 1], [0, 0]]))
    xf = canonicalize(from_rows([[0.0, 1.0], [0.0, 0.0]], FLOAT64))
    for a, b in ((x, xf), (xf, x)):
        with pytest.raises(ValueError, match="scalar kinds differ"):
            lie_bracket(a, b)


BRACKET_SIZES = [(n, m) for n in range(1, 7) for m in range(1, 7)] + [(4, 9), (10, 12)]


def test_exact_bracket_is_the_difference_of_the_product_classes():
    # The exact bracket canonicalizes one integer sum XY - YX; by definition
    # it is the class of the difference of the two product classes.
    rng = random.Random(127)
    one = Fraction(1)
    for n, m in BRACKET_SIZES:
        for den in (1, 3, 97):
            x = canonicalize(rand_matrix(rng, n, n, max_den=den))
            y = canonicalize(rand_matrix(rng, m, m, max_den=den))
            c = canonicalize(as_matrix([[Fraction(rng.randint(-9, 9), den)]]))
            for a, b in ((x, y), (y, x), (x, x), (x, zero_class(one)), (c, y)):
                assert lie_bracket(a, b) == class_sub(class_mul(a, b), class_mul(b, a))
            assert lie_bracket(x, x) == lie_bracket(c, y) == zero_class(one)
            assert lie_bracket(c, y).rep == as_matrix([[0]])


def _float_matrix(A: Matrix) -> Matrix:
    return Matrix(A.rows, A.cols, tuple(map(float, A.data)), FLOAT64)


def test_float_bracket_of_integer_values_is_the_exact_bracket():
    # Integer entries keep every float product and difference exact, so
    # the float bracket holds the exact bracket's entries, bit for bit.
    rng = random.Random(151)
    for n, m in BRACKET_SIZES:
        X, Y = rand_matrix(rng, n, n, max_den=1), rand_matrix(rng, m, m, max_den=1)
        want = _float_matrix(lie_bracket(canonicalize(X), canonicalize(Y)).rep)
        x, y = (canonicalize(_float_matrix(A), rtol=0.0) for A in (X, Y))
        for rtol in (0.0, None):
            assert repr(lie_bracket(x, y, rtol).rep) == repr(want), (n, m, rtol)


def test_float_bracket_at_rtol_0_is_the_difference_of_the_raw_products():
    # XY - YX is subtracted cell by cell from the two raw products, each
    # summed over ascending k as the ordinary product of the lifts does,
    # so [x, x] is the zero class in float mode too.
    rng = random.Random(157)
    for n, m in BRACKET_SIZES:
        X, Y = (Matrix(k, k, tuple(rng.uniform(-4, 4) for _ in range(k * k)), FLOAT64)
                for k in (n, m))
        x, y = canonicalize(X, rtol=0.0), canonicalize(Y, rtol=0.0)
        for a, b in ((x, y), (y, x), (x, x)):
            xy, yx = ref_ltimes(a.rep, b.rep), ref_ltimes(b.rep, a.rep)
            want = canonicalize(ref_lminus(xy, yx), rtol=0.0)
            assert repr(lie_bracket(a, b, rtol=0.0)) == repr(want), (n, m)
        assert lie_bracket(x, x) == zero_class(Fraction(1), FLOAT64)


def test_float_bracket_peels_the_difference_once():
    # Under a tolerance XY - YX is peeled once and no product is peeled
    # first: the bracket is the 6 x 6 class both rules give at rtol=0.
    x = canonicalize(from_rows([[1.0, 0.0], [0.0, 1 + 5e-10]], FLOAT64), rtol=0.0)
    e12 = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    y = canonicalize(from_rows(e12, FLOAT64))
    want = lie_bracket(x, y, rtol=0.0)
    assert want.rep.shape == (6, 6) and lie_bracket(x, y) == want
    # Peeling each product first makes both the class of y, and the bracket 0.
    assert class_mul(x, y) == class_mul(y, x) == y
    assert class_sub(class_mul(x, y), class_mul(y, x)) == zero_class(Fraction(1), FLOAT64)


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
    assert try_unkron(inf_lift, 2) == Matrix(1, 1, (math.inf,), FLOAT64)  # inf == inf first


def test_infinity_equals_itself_under_a_tolerance():
    A = from_rows([[math.inf, 1.0], [0.0, -math.inf]], FLOAT64)
    for rtol in (None, 1e-3):
        assert eq_within(A, A, rtol) and equivalent(A, A, rtol)
        assert equivalent(lift(A, 2), A, rtol) and canonicalize(lift(A, 3), rtol).rep == A
    nan = from_rows([[math.nan, 1.0]], FLOAT64)
    assert not equivalent(nan, nan) and not eq_within(nan, nan, 1e-3)


def test_infinity_equals_no_finite_value_under_a_tolerance():
    for inf in (math.inf, -math.inf):
        for v in (0.0, -1.0, 1e308, -1e308):
            assert not scalar_eq(inf, v, FLOAT64) and not scalar_eq(v, inf, FLOAT64, 1e-3)
    unlifted = Matrix(2, 2, (1.0, math.inf, 0.0, 1.0), FLOAT64)
    assert canonicalize(unlifted).rep == unlifted
    assert not equivalent(from_rows([[math.inf, 1.0]], FLOAT64), from_rows([[-1.0, 1.0]], FLOAT64))
