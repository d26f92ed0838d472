"""Float mode as the image of exact mode. On dyadic entries k/2^e with
|k| <= 64 and e <= 6 no float sum, difference or product rounds, fsum
and the norm's one square root round once from the same exact value, so
at rtol=0 every float result is the float image of the exact result,
entry for entry, and never holds -0.0. The operands come lifted (X x I_s)
and unlifted, on either side. This law needs no reference lift: it
guards the float kernels against the exact ones and back."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import o_identity, o_kron

from semitensor import (
    FLOAT64,
    MatrixClass,
    canonicalize,
    class_add,
    class_sub,
    dist,
    from_rows,
    inner,
    lie_bracket,
    lminus,
    lplus,
    ltimes,
    norm,
    ratio_of,
    rminus,
    rplus,
    rtimes,
)

# 30% zeros, the rest k/2^e
dyadics = st.builds(
    lambda z, k, e: Fraction(0) if z < 3 else Fraction(k, 2**e),
    st.integers(0, 9), st.integers(-64, 64), st.integers(0, 6),
)


@st.composite
def lists(draw, rows, cols):
    """A rows x cols dyadic matrix as nested lists, lifted by s in 1..3
    half of the time."""
    X = [[draw(dyadics) for _ in range(cols)] for _ in range(rows)]
    s = draw(st.sampled_from((1, 1, 1, 2, 3)))
    return X if s == 1 else o_kron(X, o_identity(s))


def both(X):
    """The exact matrix of nested lists and its float twin."""
    return from_rows(X), from_rows([[float(v) for v in row] for row in X], FLOAT64)


def negative_zero(v) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0


def assert_image(got, want):
    """got, a float matrix, is want, an exact one, entry for entry, with no -0.0."""
    assert (got.scalar, got.shape) == (FLOAT64, want.shape)
    assert got.data == tuple(map(float, want.data))
    assert not any(map(negative_zero, got.data))


def assert_scalar_image(got, want):
    assert type(got) is float and got == float(want) and not negative_zero(got)


@st.composite
def same_ratio_pairs(draw):
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(lists(a * p, a * q)), draw(lists(b * p, b * q))


@st.composite
def product_pairs(draw):
    m, n, p, q = (draw(st.integers(1, 4)) for _ in range(4))
    return draw(lists(m, n)), draw(lists(p, q))


@st.composite
def square_pairs(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(lists(n, n)), draw(lists(m, m))


@settings(deadline=None)
@given(same_ratio_pairs())
def test_float_sums_are_the_image_of_the_exact_sums(pair):
    (A, fA), (B, fB) = map(both, pair)
    for op in (lplus, lminus, rplus, rminus):
        assert_image(op(fA, fB), op(A, B))
        assert_image(op(fB, fA), op(B, A))


@settings(deadline=None)
@given(product_pairs())
def test_float_products_are_the_image_of_the_exact_products(pair):
    (A, fA), (B, fB) = map(both, pair)
    for op in (ltimes, rtimes):
        assert_image(op(fA, fB), op(A, B))


@settings(deadline=None)
@given(same_ratio_pairs())
def test_float_classes_are_the_image_of_the_exact_classes(pair):
    (A, fA), (B, fB) = map(both, pair)
    x, y = canonicalize(A), canonicalize(B)
    fx, fy = canonicalize(fA, rtol=0.0), canonicalize(fB, rtol=0.0)
    assert_image(fx.rep, x.rep)
    assert_image(fy.rep, y.rep)
    assert_image(class_add(fx, fy, rtol=0.0).rep, class_add(x, y).rep)
    assert_image(class_sub(fx, fy, rtol=0.0).rep, class_sub(x, y).rep)
    assert_scalar_image(inner(fx, fy), inner(x, y))
    assert_scalar_image(norm(fx), norm(x))
    assert_scalar_image(dist(fx, fy, rtol=0.0), dist(x, y))
    # the pairing of unpeeled representatives reads lifted operands too
    u, fu = MatrixClass(ratio_of(A), A), MatrixClass(ratio_of(fA), fA)
    v, fv = MatrixClass(ratio_of(B), B), MatrixClass(ratio_of(fB), fB)
    assert_scalar_image(inner(fu, fv), inner(u, v))


@settings(deadline=None)
@given(square_pairs())
def test_float_brackets_are_the_image_of_the_exact_brackets(pair):
    (A, fA), (B, fB) = map(both, pair)
    x, y = canonicalize(A), canonicalize(B)
    fx, fy = canonicalize(fA, rtol=0.0), canonicalize(fB, rtol=0.0)
    for a, b, fa, fb in ((x, y, fx, fy), (y, x, fy, fx), (x, x, fx, fx)):
        assert_image(lie_bracket(fa, fb, rtol=0.0).rep, lie_bracket(a, b).rep)
