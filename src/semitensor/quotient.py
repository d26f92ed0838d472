"""Identity-equivalence classes of matrices.

Two matrices are equivalent when some Kronecker identity lifts of them
coincide: A x I_s = B x I_t. Each class contains exactly one matrix that
is not itself a lift (the irreducible representative), and a class is
stored by that representative. Addition, scaling, product and the Lie
bracket all descend to classes because equivalence is a congruence for
the semi-tensor operations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .matrix import RATIONAL, Matrix, eq_within, scalar_eq, scale, zeros
from .stp import _commutator, lminus, lplus, ltimes, ratio_of


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def try_unkron(A: Matrix, s: int, rtol: float | None = None) -> Matrix | None:
    """If A = B x I_s, return B; otherwise None.

    Viewing A as an (m/s) x (n/s) grid of s x s blocks, the factorization
    holds iff every block is a scalar multiple of I_s. rtol applies only
    in float mode; rtol=0 forces exact float comparison.

    A block row is checked a row at a time: row i*s + a must be zero at
    every column off its stride (checked first, so a dense non-lift fails
    at its first entry), and must repeat row i*s's entries at columns
    0, s, 2s, ... at columns a, a + s, .... Exact mode compares whole
    slices; float mode compares entry by entry through ``scalar_eq``, so
    NaN never matches itself.
    """
    if s < 2 or A.rows % s or A.cols % s:
        return None
    kind = A.scalar
    if kind == RATIONAL:
        nonzero, differ = any, operator.ne
    else:
        def nonzero(got):
            return not all(scalar_eq(v, 0.0, kind, rtol) for v in got)

        def differ(got, want):
            return not all(scalar_eq(v, w, kind, rtol) for v, w in zip(got, want))

    vals = []
    for i in range(A.rows // s):
        diag = A.row(i * s)[::s]
        for a in range(s):
            row = A.row(i * s + a)
            if any(nonzero(row[b::s]) for b in range(s) if b != a) or differ(row[a::s], diag):
                return None
        vals += diag
    return Matrix(A.rows // s, A.cols // s, tuple(vals), kind)


@dataclass(frozen=True)
class MatrixClass:
    """An equivalence class, stored by its irreducible representative.

    Construct through :func:`canonicalize`; the direct constructor only
    checks that the stored ratio matches the representative's shape.
    """

    mu: Fraction
    rep: Matrix

    def __post_init__(self):
        if ratio_of(self.rep) != self.mu:
            raise ValueError(
                f"representative shape {self.rep.shape} has ratio "
                f"{ratio_of(self.rep)}, not {self.mu}"
            )

    @property
    def k0(self) -> int:
        """Lift level of the representative: rep is k0*p x k0*q."""
        return self.rep.rows // self.mu.numerator

    @property
    def scalar(self) -> str:
        return self.rep.scalar


def canonicalize(A: Matrix, rtol: float | None = None) -> MatrixClass:
    """Class of A: peel identity factors until irreducible.

    One ascending pass over the primes of gcd(rows, cols) peels each while
    ``try_unkron`` succeeds. Under exact comparison (exact mode, or rtol=0)
    a prime that fails once never passes later: the result is the unique
    irreducible representative. A float tolerance is not transitive, so
    there the level is the one this pass reaches; no prime is retried.
    """
    rep = A
    for p in _prime_factors(gcd(A.rows, A.cols)):
        while (peeled := try_unkron(rep, p, rtol)) is not None:
            rep = peeled
    return MatrixClass(ratio_of(A), rep)


def equivalent(A: Matrix, B: Matrix, rtol: float | None = None) -> bool:
    """Whether A and B are identity-equivalent (canonical reps equal within rtol)."""
    x = canonicalize(A, rtol)
    y = canonicalize(B, rtol)
    return x.mu == y.mu and eq_within(x.rep, y.rep, rtol)


def zero_class(mu: Fraction, scalar: str = RATIONAL) -> MatrixClass:
    """The class of the zero matrix in the space of ratio mu."""
    mu = Fraction(mu)
    return MatrixClass(mu, zeros(mu.numerator, mu.denominator, scalar))


def _require_same_mu(x: MatrixClass, y: MatrixClass) -> None:
    if x.mu != y.mu:
        raise ValueError(f"classes live in different spaces: {x.mu} vs {y.mu}")


def class_add(x: MatrixClass, y: MatrixClass, rtol: float | None = None) -> MatrixClass:
    _require_same_mu(x, y)
    return canonicalize(lplus(x.rep, y.rep), rtol)


def class_sub(x: MatrixClass, y: MatrixClass, rtol: float | None = None) -> MatrixClass:
    _require_same_mu(x, y)
    return canonicalize(lminus(x.rep, y.rep), rtol)


def scalar_mul(c, x: MatrixClass, rtol: float | None = None) -> MatrixClass:
    # c != 0 keeps the representative irreducible; c = 0 collapses to the
    # zero class, which canonicalize handles by peeling all the way down.
    return canonicalize(scale(c, x.rep), rtol)


def class_mul(x: MatrixClass, y: MatrixClass, rtol: float | None = None) -> MatrixClass:
    """Semi-tensor product of classes; lands in the space of ratio mu_x*mu_y."""
    return canonicalize(ltimes(x.rep, y.rep), rtol)


def lie_bracket(x: MatrixClass, y: MatrixClass, rtol: float | None = None) -> MatrixClass:
    """[x, y] = x*y - y*x on the ratio-1 space, in either kind: the raw
    XY - YX, canonicalized once at rtol. Under a float tolerance no product
    is peeled first: diag(1, 1 + 5e-10) and the 3 x 3 unit E(1, 2) bracket
    to the 6 x 6 class they give at rtol=0, not to [0.0]."""
    if x.mu != 1 or y.mu != 1:
        raise ValueError(f"bracket needs ratio 1, got {x.mu} and {y.mu}")
    return canonicalize(_commutator(x.rep, y.rep), rtol)
