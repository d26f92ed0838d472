"""Canonicalization, equivalence and class arithmetic."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import matrices
from helpers import (
    as_matrix, lift, rand_matrix, ref_canonicalize, ref_lminus, ref_ltimes, ref_run_level,
    ref_try_unkron,
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
    # under exact comparison the representative is unique, so the level one
    # scan finds gives the restart loop's representative bit for bit
    for A in _canon_cases(random.Random(17), kind):
        assert repr(canonicalize(A, rtol).rep) == repr(ref_canonicalize(A, rtol)), A


def _level_cases(rng, kind):
    """Inputs for the one-pass level: lifts at composite levels of random
    matrices of ratios 1, 1/2 and 2/3, each also with one entry changed;
    sparse and zero inputs; inputs whose gcd of rows, cols and r - c over
    the nonzeros exceeds their level; in float mode a NaN corner, a -0.0
    beside a 0.0, and infinities; then lifts whose diagonal runs are
    zeroed, cut or changed mid-block, diag(1, 1, 1, 2, 2, 2) (gcd 6,
    level 3), lone nonzeros on the edges and a 1 x 3 zero matrix."""
    zero = Fraction(0) if kind == RATIONAL else 0.0
    if kind == FLOAT64:
        pool = (0.0, -0.0, 1.0, 0.5, -2.5, math.inf, -math.inf, math.nan)

        def value():
            return rng.choice(pool + (rng.uniform(-4, 4),) * 4)
    else:
        def value():
            return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 97, 9967, 9973)))

    def matrix(m, n, data):
        return Matrix(m, n, tuple(data), kind)

    for (m, n), s in product(((1, 1), (2, 2), (1, 2), (2, 3)), (4, 6, 12, 30)):
        A = matrix(m, n, (value() if rng.random() < 0.7 else zero for _ in range(m * n)))
        L = lift(A, s)
        yield L
        data = list(L.data)
        data[rng.randrange(len(data))] = value()
        yield matrix(L.rows, L.cols, data)
        unit = [zero] * (m * n)
        unit[rng.randrange(m * n)] = value()
        yield lift(matrix(m, n, unit), s)
    one, two = (Fraction(1), Fraction(2)) if kind == RATIONAL else (1.0, 2.0)
    diag = matrix(4, 4, (d if i == j else zero for i, d in enumerate((one, one, two, two))
                         for j in range(4)))
    yield diag  # the gcd is 4, the level 2
    yield lift(diag, 3)  # 12 and 6
    unit = [zero] * 16
    unit[5] = one
    yield lift(matrix(4, 4, unit), 5)  # 20 and 5
    for m, n in ((12, 8), (6, 9), (20, 20), (7, 5)):
        yield matrix(m, n, [zero] * (m * n))
    if kind == FLOAT64:
        yield lift(matrix(2, 2, (math.nan, 1.0, 0.0, 2.0)), 2)  # a NaN corner
        signed = list(lift(matrix(2, 2, (0.0, 1.0, -0.0, 2.0)), 4).data)
        signed[3 * 8 + 3] = -0.0  # beside 0.0 on the diagonal of a zero block
        yield matrix(8, 8, signed)
        yield lift(matrix(1, 2, (math.inf, -math.inf)), 6)
    # Run boundaries: a lift with one on-stride entry zeroed, one block's
    # diagonal begun or ended mid-block, and its value changed mid-run.
    for (m, n), s in product(((1, 1), (2, 2), (2, 3)), (2, 6, 12)):
        L = lift(matrix(m, n, (value() for _ in range(m * n))), s)
        i, j, a = rng.randrange(m), rng.randrange(n), rng.randrange(1, s)
        run = [(i * s + d) * L.cols + j * s + d for d in range(s)]
        zeroed, cut, changed = (list(L.data) for _ in range(3))
        zeroed[rng.choice(run)] = zero
        v = value()
        for k in run[:a] if rng.random() < 0.5 else run[a:]:
            cut[k] = zero
        for k in run[a:]:
            changed[k] = v
        for data in (zeroed, cut, changed):
            yield matrix(L.rows, L.cols, data)
    six = (one,) * 3 + (two,) * 3
    yield matrix(6, 6, (d if i == j else zero for i, d in enumerate(six) for j in range(6)))
    for r, c in ((0, 3), (3, 0), (5, 2), (2, 5), (5, 5)):  # a lone nonzero on an edge
        yield matrix(6, 6, (one if k == r * 6 + c else zero for k in range(36)))
    yield matrix(1, 3, (zero,) * 3)  # no level to search: A itself


@pytest.mark.parametrize("kind, rtol", [(RATIONAL, None), (FLOAT64, 0.0)])
def test_one_pass_level_matches_the_references(kind, rtol):
    # canonicalize against the restart loop, and try_unkron at composite s
    # against the entry-by-entry check, compared by repr (NaN, -0.0)
    reducible = 0
    for A in _level_cases(random.Random(23), kind):
        got = canonicalize(A, rtol).rep
        assert repr(got) == repr(ref_canonicalize(A, rtol)), A
        assert (got is A) == (got.rows == A.rows), A  # irreducible: A itself
        reducible += got.rows < A.rows
        for s in (2, 3, 4, 6, 12):
            assert repr(try_unkron(A, s, rtol)) == repr(ref_try_unkron(A, s, rtol)), (A, s)
    assert reducible >= 35


def test_float_level_is_the_run_rule():
    # under a tolerance a run goes on while its entries are within rtol of
    # its first: 1 - 9e-10 and 1 + 5e-10 both are, so the 6 x 6 is one run
    # and peels to [1.0], as the restart loop does; a diagonal drifting by
    # 6e-10 a step leaves the run at 1 + 1.2e-9, so that 4 x 4 stays
    big = 1 + 5e-10
    A = _diag((1.0, 1.0, 1 - 9e-10, big, big, big))
    assert canonicalize(A).rep == Matrix(1, 1, (1.0,), FLOAT64) == ref_canonicalize(A)
    assert try_unkron(A, 6) == Matrix(1, 1, (1.0,), FLOAT64)
    assert canonicalize(A, rtol=0.0).rep == A
    drift = _diag((1.0, 1.0, 1 + 6e-10, 1 + 1.2e-9))
    assert canonicalize(drift).rep is drift
    assert try_unkron(drift, 2) is None


def _diag(values):
    n = len(values)
    return Matrix(n, n, tuple(d if i == j else 0.0 for i, d in enumerate(values)
                              for j in range(n)), FLOAT64)


_RTOLS = (None, 1e-3, 0.5, 2.0)


def _near_lifts(rng, count):
    """Seeded float near-lifts: integer-valued matrices up to 4 x 4 lifted
    by 1, 2, 3, 4 or 6, each with one kind of noise in turn: up to three
    entries moved by a relative 1e-10 to 5e-9; up to three zeros set to
    +-1e-14 or 1e-16; each block's diagonal run drifting by +-6e-10 a step
    from a random offset on; or, before the lift, a lift of a matrix up to
    2 x 2 whose diagonals drift so, which the lift keeps exact."""
    def integers(m, n):
        return Matrix(m, n, tuple(float(rng.choice((0, 0, 1, 1, 2, -3))) for _ in range(m * n)),
                      FLOAT64)

    for k in range(count):
        s, step = rng.choice((1, 2, 3, 4, 6)), rng.choice((6e-10, -6e-10))
        if k % 4 == 3:
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            B = lift(integers(m, n), rng.choice((2, 3, 4)) if m == n == 1 else 2)
            B = Matrix(B.rows, B.cols, tuple(v * (1 + step * min(divmod(p, B.cols)))
                                             for p, v in enumerate(B.data)), FLOAT64)
        else:
            B = integers(rng.randint(1, 4), rng.randint(1, 4))
        L = lift(B, s)
        data = list(L.data)
        if k % 4 == 0:
            for _ in range(rng.randint(0, 3)):
                p = rng.randrange(len(data))
                data[p] += (abs(data[p]) or 1.0) * rng.choice((1, -1)) * rng.uniform(1e-10, 5e-9)
        elif k % 4 == 1:
            zeros_at = [p for p, v in enumerate(data) if not v]
            for p in rng.sample(zeros_at, min(len(zeros_at), rng.randint(0, 3))):
                data[p] = rng.choice((1e-14, -1e-14, 1e-16))
        elif k % 4 == 2:
            a0 = rng.randrange(s)
            for p, v in enumerate(data):
                r, c = divmod(p, L.cols)
                if r % s == c % s > a0:
                    data[p] = v * (1 + step * (r % s - a0))
        yield Matrix(L.rows, L.cols, tuple(data), FLOAT64)


_NEAR_LIFTS = tuple(_near_lifts(random.Random(29), 2100))


def _corner_rep(A, level):
    return Matrix(A.rows // level, A.cols // level,
                  tuple(A.entry(i * level, j * level) for i in range(A.rows // level)
                        for j in range(A.cols // level)), A.scalar)


def test_canonical_level_is_the_diagonal_run_oracle():
    # the row-major scan against a walk down each diagonal, on the level
    # cases in both kinds and on the near-lifts at four tolerances
    cases = [(A, None) for A in _level_cases(random.Random(31), RATIONAL)]
    cases += [(A, rtol) for A in _level_cases(random.Random(37), FLOAT64)
              for rtol in (0.0,) + _RTOLS]
    cases += [(A, rtol) for A in _NEAR_LIFTS for rtol in _RTOLS]
    below_gcd = 0
    for A, rtol in cases:
        rep = canonicalize(A, rtol).rep
        level = ref_run_level(A, rtol)
        assert A.rows // rep.rows == level, (A, rtol)
        assert repr(rep) == repr(_corner_rep(A, level)), (A, rtol)
        below_gcd += level < math.gcd(A.rows, A.cols)
    assert below_gcd >= 1000


def test_try_unkron_peels_exactly_the_divisors_of_the_level():
    for A in _NEAR_LIFTS:
        g = math.gcd(A.rows, A.cols)
        for rtol in _RTOLS:
            level = A.rows // canonicalize(A, rtol).rep.rows
            for s in range(2, g + 1):
                if g % s == 0:
                    assert (try_unkron(A, s, rtol) is not None) == (level % s == 0), (A, s, rtol)


def test_exact_level_divides_the_tolerant_level():
    # a diagonal drifting by 6e-10 a step, lifted by 3: its runs restart at
    # row 6, so the level is 6; peeling 2 twice first would leave 4
    stair = lift(_diag((1.0, 1 + 6e-10, 1 + 1.2e-9, 1 + 1.8e-9)), 3)
    assert canonicalize(stair, 0.0).rep.rows == 4 and canonicalize(stair).rep.rows == 2
    for A in _NEAR_LIFTS:
        exact = A.rows // canonicalize(A, 0.0).rep.rows
        for rtol in _RTOLS:
            assert (A.rows // canonicalize(A, rtol).rep.rows) % exact == 0, (A, rtol)


def test_peel_order_independence():
    rng = random.Random(13)
    for _ in range(40):
        A0 = canonicalize(rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))).rep
        s = rng.randint(2, 12)
        A = kron(A0, identity(s))
        # the level rule (library) vs one peel at the known factor
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


def test_matrix_class_ratio_is_a_fraction():
    # a ratio that only compares equal (a float, a bool) is refused at the
    # boundary, since k0 and the basis read its numerator; an int is stored
    # as a Fraction
    one = as_matrix([[1]])
    for bad in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="ratio must be a Fraction or an int"):
            MatrixClass(bad, one)
    x = MatrixClass(2, as_matrix([[1], [2]]))
    assert type(x.mu) is Fraction and x.mu == 2 and x.k0 == 1
    assert x == canonicalize(as_matrix([[1], [2]]))


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
