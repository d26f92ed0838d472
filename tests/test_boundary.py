"""Entries are checked once, at the boundary. The public constructors and
readers refuse bad input; every result the library builds itself, with no
check run again, must still be what those checks would accept. The calls
are ``tests/parity.py``'s seeded generators, in both scalar kinds, with
+-0.0, +-inf and NaN floats and denominators 1-9, 97 and near 10^4."""

import dataclasses
import math
from fractions import Fraction
from types import MappingProxyType

import pytest

import parity
import semitensor as st
from semitensor import FLOAT64, RATIONAL, BasisElement, Coordinates, Matrix, MatrixClass
from semitensor.matrix import _integers

# Every public operation whose result is a Matrix, a MatrixClass,
# Coordinates or a list of basis elements or classes.
MAKERS = (
    "Matrix", "from_rows", "identity", "zeros", "kron", "scale", "to_rational",
    "ltimes", "rtimes", "lplus", "lminus", "rplus", "rminus", "try_unkron",
    "MatrixClass", "canonicalize", "class_add", "class_sub", "class_mul", "lie_bracket",
    "scalar_mul", "zero_class", "reconstruct", "unit_class", "cauchy_sequence",
    "BasisElement", "Coordinates", "decompose_class", "decompose_unit", "enumerate_basis",
)
CHECKED = (Matrix, MatrixClass, BasisElement, Coordinates)


def check_matrix(A, seen):
    assert type(A.rows) is int and type(A.cols) is int
    assert A.rows >= 1 and A.cols >= 1
    assert type(A.data) is tuple and len(A.data) == A.rows * A.cols
    kind_type = {RATIONAL: Fraction, FLOAT64: float}[A.scalar]
    assert all(type(v) is kind_type for v in A.data), A
    seen[A.scalar] += 1
    # the stored form the kernels read: cells over one denominator
    assert _integers(A) == (A._cells, A._den)
    if A.scalar == FLOAT64:
        assert A._cells is A.data and A._den == 1
        seen["nan"] += any(map(math.isnan, A.data))
        seen["inf"] += any(map(math.isinf, A.data))
        # one stored float zero: no built matrix holds -0.0
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in A.data), A
    else:
        # the stored form: ints over one positive denominator, reduced
        ints, d = A._cells, A._den
        assert type(ints) is tuple and all(type(v) is int for v in ints)
        assert type(d) is int and d >= 1 and math.gcd(d, *ints) == 1
        assert all(v == Fraction(w, d) for v, w in zip(A.data, ints))
        seen["97"] += any(v.denominator % 97 == 0 for v in A.data)


def check_element(e):
    p, q = e.mu.numerator, e.mu.denominator
    assert type(e.mu) is Fraction and p >= 1
    assert all(type(v) is int for v in (e.k, e.l, e.i, e.j1, e.j2))
    assert 1 <= e.k <= p and 1 <= e.l <= q
    assert 1 <= e.j1 <= e.i and 1 <= e.j2 <= e.i
    assert math.gcd(e.i, e.j1, e.j2) == 1, e


def check(result, seen):
    """Assert what the boundary checks would assert of every object in result."""
    if isinstance(result, Matrix):
        check_matrix(result, seen)
    elif isinstance(result, MatrixClass):
        # what MatrixClass(...) checks, which canonicalize and zero_class skip
        assert type(result.rep) is Matrix
        check_matrix(result.rep, seen)
        assert type(result.mu) is Fraction and result.mu == st.ratio_of(result.rep)
        seen["classes"] += 1
    elif isinstance(result, BasisElement):
        check_element(result)
    elif isinstance(result, Coordinates):
        assert type(result.mu) is Fraction and result.mu > 0
        assert type(result.terms) is MappingProxyType
        for e, c in result.terms.items():
            check_element(e)
            assert e.mu == result.mu
            assert type(c) is Fraction and c != 0
        seen["terms"] += len(result.terms)
    elif isinstance(result, list):
        for item in result:
            assert isinstance(item, CHECKED)
            check(item, seen)
    else:
        return
    seen["checked"] += 1


def test_every_built_result_passes_the_boundary_checks():
    seen = dict.fromkeys(
        (RATIONAL, FLOAT64, "nan", "inf", "97", "terms", "classes", "checked"), 0)
    for name in MAKERS:
        fn, before = getattr(st, name), seen["checked"]
        for args in parity.calls(name, 1, 150):
            result = parity.outcome(fn, args)
            if not isinstance(result, Exception):
                check(result, seen)
        assert seen["checked"] - before >= 10, name
    assert min(seen.values()) >= 10, seen


def test_the_makers_are_every_operation_that_returns_such_a_result():
    # a new public operation returning one of these types joins MAKERS
    returns = set()
    for name in parity.operations():
        fn = getattr(st, name)
        for args in parity.calls(name, 1, 20):
            result = parity.outcome(fn, args)
            if isinstance(result, CHECKED) or (
                    isinstance(result, list) and any(isinstance(v, CHECKED) for v in result)):
                returns.add(name)
    assert returns == set(MAKERS)


def test_the_public_boundary_still_refuses_bad_input():
    A = st.from_rows([[1, 2]])
    e = BasisElement(Fraction(1), 1, 1, 2, 1, 2)
    with pytest.raises(ValueError, match="entries must be Fraction"):
        Matrix(1, 1, (1,), RATIONAL)
    with pytest.raises(ValueError, match="entries must be Fraction"):
        dataclasses.replace(A, data=(Fraction(1), 0.5))
    with pytest.raises(ValueError, match="entries must be float"):
        Matrix(1, 1, (Fraction(1),), FLOAT64)
    with pytest.raises(ValueError, match="data length"):
        dataclasses.replace(A, cols=3)
    with pytest.raises(ValueError, match="has ratio 1/2, not 2"):
        MatrixClass(Fraction(2), A)
    with pytest.raises(ValueError, match="ratio must be a Fraction or an int"):
        MatrixClass(0.5, A)
    with pytest.raises(ValueError, match="has ratio 1/2, not 2"):
        dataclasses.replace(st.canonicalize(A), mu=Fraction(2))
    with pytest.raises(ValueError, match="zero coefficients must not be stored"):
        Coordinates(Fraction(1), {e: Fraction(0)})
    with pytest.raises(ValueError, match="has ratio"):
        Coordinates(Fraction(2), {e: Fraction(1)})
    with pytest.raises(ValueError, match=r"gcd\(i, j1, j2\)=1"):
        BasisElement(Fraction(1), 1, 1, 2, 2, 2)
    with pytest.raises(ValueError, match="outside"):
        BasisElement(Fraction(1, 2), 2, 1, 1, 1, 1)
    # zeros and identity build with no check, so they check their arguments
    with pytest.raises(ValueError, match="shape must be positive"):
        st.zeros(0, 2)
    with pytest.raises(ValueError, match="shape must be positive"):
        st.identity(-1)
    with pytest.raises(ValueError, match="unknown scalar kind"):
        st.identity(2, "int64")
    with pytest.raises(ValueError, match="unknown scalar kind"):
        st.zeros(1, 1, "int64")


@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
def test_every_ratio_is_a_fraction_or_an_int(bad):
    # one rule for the three constructors and the two basis builders that
    # take a ratio: a bool, a float or a string is refused up front, an int
    # is made a Fraction
    e = BasisElement(Fraction(1), 1, 1, 2, 1, 2)
    makers = (lambda mu: BasisElement(mu, 1, 1, 2, 1, 2),
              lambda mu: Coordinates(mu, {e: Fraction(1)}),
              lambda mu: MatrixClass(mu, st.from_rows([[1]])),
              lambda mu: st.enumerate_basis(mu, 1)[0],
              lambda mu: st.decompose_unit(mu, 1, 1, 2, 1, 2))
    for make in makers:
        with pytest.raises(ValueError, match=f"ratio must be a Fraction or an int, got {bad!r}$"):
            make(bad)
        made = make(1)
        assert type(made.mu) is Fraction and made.mu == 1
    assert st.reconstruct(Coordinates(1, {e: 1})) == st.unit_class(e)
