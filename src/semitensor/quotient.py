"""Identity-equivalence classes of matrices.

Two matrices are equivalent when some Kronecker identity lifts of them
coincide: A x I_s = B x I_t. Each class contains exactly one matrix that
is not itself a lift (the irreducible representative), and a class is
stored by that representative. Addition, scaling, product and the Lie
bracket all descend to classes because equivalence is a congruence for
the semi-tensor operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, compress, count
from math import gcd
from operator import eq

from .matrix import (
    FLOAT64, RATIONAL, Matrix, _integers, eq_within, scalar_eq, scale, zeros,
)
from .stp import _commutator, lminus, lplus, ltimes, ratio_of


def _corners(A: Matrix, s: int) -> Matrix:
    """The corners of A's s x s blocks: B, if A = B x I_s. B's nonzeros
    are A's, so exact corners over A's denominator are reduced too."""
    (data, d), cols = _integers(A), A.cols
    rows = (data[i * cols : (i + 1) * cols : s] for i in range(0, A.rows, s))
    return Matrix._trusted(A.rows // s, cols // s, tuple(chain.from_iterable(rows)), d, A.scalar)


def _root(A: Matrix, g: int, rtol: float | None = None) -> Matrix:
    """B with A = B x I_s for the largest s dividing g: the canonical level.

    Along each diagonal A's nonzeros fall into runs, and A = B x I_s iff s
    divides g, the row and column where each run starts and the row past
    where it ends: the level is one gcd, folded over a lazy scan of the
    nonzeros that returns A once it is 1. A nonzero is an entry other than
    0 under exact comparison (the stored ints, or float truth at rtol=0)
    and an entry not within rtol of 0 under a tolerance, so only entries
    other than 0 are tested. A nonzero starts a run unless its up-left
    entry is in one and it equals that run's first entry (int or float
    ==, so NaN is a run of its own, or within rtol); a run ends where the
    down-right entry is a zero, and where that is off A, s | g and the
    start give s | r+1. Under exact comparison every entry of a run equals
    its first. B is the corners.
    """
    (data, _), rows, cols = _integers(A), A.rows, A.cols
    zero = 0 if A.scalar == RATIONAL else 0.0
    if A.scalar == RATIONAL or rtol == 0.0:
        nz, same = compress(count(), data), eq
    else:
        same = partial(scalar_eq, kind=FLOAT64, rtol=rtol)
        nz = (i for i in compress(count(), data) if not same(data[i], zero))
    firsts = {}  # c - r -> the first entry of the run open on that diagonal
    s = g
    for i in nz:
        r, c = divmod(i, cols)
        v = data[i]
        first = firsts.get(c - r)
        if first is None or not same(v, first):
            firsts[c - r] = v
            s = gcd(s, r, c)
        if r + 1 < rows and c + 1 < cols and same(data[i + cols + 1], zero):
            del firsts[c - r]
            s = gcd(s, r + 1)
        if s == 1:
            return A
    return A if s == 1 else _corners(A, s)


def try_unkron(A: Matrix, s: int, rtol: float | None = None) -> Matrix | None:
    """If A = B x I_s, return B; otherwise None.

    Viewing A as an (m/s) x (n/s) grid of s x s blocks, the factorization
    holds iff every block is a scalar multiple of I_s. rtol applies only
    in float mode (rtol=0 forces exact float comparison). This takes
    ``canonicalize``'s level rule from s and holds iff the level is s, so
    under every comparison it holds exactly when s divides the level
    ``canonicalize`` finds.
    """
    if s < 2 or A.rows % s or A.cols % s:
        return None
    return B if (B := _root(A, s, rtol)).rows * s == A.rows else None


def _as_ratio(mu) -> Fraction:
    """A ratio as the constructors store it: an int made a Fraction, any other type refused."""
    if isinstance(mu, int) and not isinstance(mu, bool):
        return Fraction(mu)
    if not isinstance(mu, Fraction):
        raise ValueError(f"ratio must be a Fraction or an int, got {mu!r}")
    return mu


@dataclass(frozen=True)
class MatrixClass:
    """An equivalence class, stored by its irreducible representative.

    Construct through :func:`canonicalize`; the direct constructor only
    checks that the stored ratio is a ``Fraction`` (an int is stored as
    one; a bool or a float is refused) matching the representative's shape.
    ``_trusted`` builds a class with no check.
    """

    mu: Fraction
    rep: Matrix

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_ratio(self.mu))
        if ratio_of(self.rep) != self.mu:
            raise ValueError(
                f"representative shape {self.rep.shape} has ratio "
                f"{ratio_of(self.rep)}, not {self.mu}"
            )

    @classmethod
    def _trusted(cls, mu: Fraction, rep: Matrix) -> MatrixClass:
        """The class of rep, built with no check: the caller has made sure
        that mu is the ``Fraction`` ratio of rep's shape."""
        self = object.__new__(cls)
        self.__dict__.update(mu=mu, rep=rep)
        return self

    @property
    def k0(self) -> int:
        """Lift level of the representative: rep is k0*p x k0*q."""
        return self.rep.rows // self.mu.numerator

    @property
    def scalar(self) -> str:
        return self.rep.scalar


def canonicalize(A: Matrix, rtol: float | None = None) -> MatrixClass:
    """Class of A: A with its identity factors removed.

    The level is one gcd over where the runs along A's diagonals start
    and end (``_root``), under exact comparison (exact mode, or rtol=0),
    where the representative is unique, and under a float tolerance alike;
    the representative is A's block corners.
    """
    return MatrixClass._trusted(ratio_of(A), _root(A, gcd(A.rows, A.cols), rtol))


def equivalent(A: Matrix, B: Matrix, rtol: float | None = None) -> bool:
    """Whether A and B are identity-equivalent (canonical reps equal within rtol)."""
    x = canonicalize(A, rtol)
    y = canonicalize(B, rtol)
    return x.mu == y.mu and eq_within(x.rep, y.rep, rtol)


def zero_class(mu: Fraction, scalar: str = RATIONAL) -> MatrixClass:
    """The class of the zero matrix in the space of ratio mu."""
    mu = Fraction(mu)
    return MatrixClass._trusted(mu, zeros(mu.numerator, mu.denominator, scalar))


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
    # zero class, whose level is gcd(rows, cols): it has no nonzero to scan.
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
