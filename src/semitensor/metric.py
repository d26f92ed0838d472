"""Inner product, norm and distance on the quotient spaces, and the
non-convergent Cauchy-sequence experiment.

The pairing of two classes lifts both irreducible representatives to the
lcm of their row counts and takes the conventional entrywise product
there. The induced "norm" is then the Frobenius norm of the irreducible
representative, which makes the quantities representative-sensitive:
lifting scales the Frobenius norm by sqrt(s), so canonical forms are
mandatory. The pairing is *not* additive in its arguments and the
distance does *not* satisfy the triangle inequality; both failures have
exact pinned counterexamples in the test suite and nothing here assumes
those axioms.

The experiment iterates A_n = fill_n(A_{n-1} x I_2), where fill_n
replaces zero entries by exp(-2^(n-1)). Consecutive distances obey the
closed form sqrt(2^(2n-1) p q) * exp(-2^n), which decays fast enough for
a Cauchy sequence while the sequence escapes every candidate limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .matrix import FLOAT64, Matrix, _check_budget, _require_same_kind
from .quotient import MatrixClass, _require_same_mu, canonicalize, class_sub
from .stp import _integers, _row_slices

# Largest experiment index: the next fill exp(-2^9) is still a normal
# binary64, exp(-2^10) underflows to zero.
N_MAX_LIMIT = 9


def inner(x: MatrixClass, y: MatrixClass):
    """Pairing of two classes of one ratio, via lifts to a common size.

    The lift factors sx and sy are coprime, so entry (i, j) of X meets Y
    only if i = j (mod sy), at the lifted positions (i*sx + d, j*sx + d),
    d < sx. Each lifted row therefore pairs two strided slices, one of
    X's row and one of Y's. Products of nonzero entries stream in
    row-major lifted order through one generator, each representative
    read by ``stp._integers``: float mode sums them with ``math.fsum``
    (whose overflow depends on that order); exact mode sums the integer
    products and divides by the two common denominators once.
    """
    _require_same_mu(x, y)
    _require_same_kind(x.rep, y.rep)
    X, Y = x.rep, y.rep
    t = lcm(X.rows, Y.rows)
    sx, sy = t // X.rows, t // Y.rows
    (xs, dx), (ys, dy) = _integers(X), _integers(Y)

    def lifted_rows():
        # Lifted row r = i*sx + d pairs X's row i at columns j = i mod sy,
        # i mod sy + sy, ... with Y's row r // sy at columns
        # (j*sx + d) // sy, stride sx.
        for i in range(X.rows):
            j0 = i % sy
            a = xs[i * X.cols + j0 : (i + 1) * X.cols : sy]
            for d in range(sx):
                y_row = (i * sx + d) // sy * Y.cols
                yield a, ys[y_row + (j0 * sx + d) // sy : y_row + Y.cols : sx]

    products = (v * w for a, b in lifted_rows() for v, w in zip(a, b) if v and w)
    return math.fsum(products) if X.scalar == FLOAT64 else Fraction(sum(products), dx * dy)


def norm(x: MatrixClass) -> float:
    """Frobenius norm of the irreducible representative."""
    return math.sqrt(inner(x, x))


def dist(x: MatrixClass, y: MatrixClass, rtol: float | None = None) -> float:
    """Norm of the canonicalized class difference."""
    return norm(class_sub(x, y, rtol))


def fill_value(n: int) -> float:
    """Fill used at step n: exp(-2^(n-1))."""
    return math.exp(-(2.0 ** (n - 1)))


def _lift_and_fill(A: Matrix, fill: float) -> Matrix:
    # Every lifted row starts as fill and takes row i of A on its stride;
    # the entries A x I_2 has off the stride are exactly the zeros filled.
    data = [fill] * (4 * A.rows * A.cols)
    for i in range(A.rows):
        for sl in _row_slices(i, A.rows, A.cols, 2):
            data[sl] = A.row(i)
    return Matrix(2 * A.rows, 2 * A.cols, tuple(data), FLOAT64)


@dataclass(frozen=True)
class CauchyConfig:
    """Seed matrix and length for the experiment sequence; refused if its
    last step, p*2^(n_max-1) x q*2^(n_max-1), is over the size budget."""

    a1: Matrix
    n_max: int

    def __post_init__(self):
        if self.a1.scalar != FLOAT64:
            raise ValueError("seed matrix must be float64")
        if any(v == 0.0 for v in self.a1.data):
            raise ValueError("seed matrix must have all entries nonzero")
        if not all(map(math.isfinite, self.a1.data)):
            raise ValueError("seed matrix must have all entries finite")
        if not (1 <= self.n_max <= N_MAX_LIMIT):
            raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {self.n_max}")
        s = 2 ** (self.n_max - 1)
        _check_budget(self.a1.rows * s, self.a1.cols * s)


def cauchy_sequence(cfg: CauchyConfig) -> list[MatrixClass]:
    """Classes of A_1, ..., A_{n_max} with A_n = fill_n(A_{n-1} x I_2).

    Each step builds A_{n-1} x I_2 row by row and fills it in the same
    pass; since A_{n-1} is finite with no zero entry, this equals the
    definition, kron(A_{n-1}, identity(2)) with every exact zero replaced
    by fill_value(n), bit for bit.

    Every A_n has all entries nonzero, hence is irreducible; classes are
    built with exact float comparisons (rtol=0) because the fills drop
    below any absolute tolerance floor long before n_max while carried
    entries stay bit-identical through the lifts.
    """
    out = []
    A = cfg.a1
    for n in range(1, cfg.n_max + 1):
        if n > 1:
            A = _lift_and_fill(A, fill_value(n))
        cls = canonicalize(A, rtol=0.0)
        if cls.rep.shape != A.shape:
            raise AssertionError(f"A_{n} unexpectedly reducible")
        out.append(cls)
    return out


def predicted_gap(n: int, p: int, q: int) -> float:
    """Closed form for the distance between steps n and n+1 of the sequence.

    The difference matrix holds 2^(2n-1) p q entries of size exp(-2^n)
    (p x q is the seed shape), so the norm is sqrt(2^(2n-1) p q) exp(-2^n).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(2.0 ** (2 * n - 1) * p * q) * math.exp(-(2.0**n))


@dataclass(frozen=True)
class GapReport:
    """Measured vs predicted consecutive distance at one step."""

    n: int
    rows: int
    cols: int
    gap_measured: float
    gap_predicted: float
    rel_err: float


def gap_reports(seq: list[MatrixClass]) -> list[GapReport]:
    """Consecutive-distance reports for a generated sequence."""
    if len(seq) < 2:
        return []
    p, q = seq[0].rep.shape
    out = []
    for n in range(1, len(seq)):
        measured = dist(seq[n - 1], seq[n], rtol=0.0)
        predicted = predicted_gap(n, p, q)
        rel = abs(measured - predicted) / predicted
        rep = seq[n - 1].rep
        out.append(GapReport(n, rep.rows, rep.cols, measured, predicted, rel))
    return out


def tail_bound(n: int, p: int, q: int) -> float:
    """Geometric majorant of the summed consecutive gaps from step n on.

    With a = sqrt(2^(-ln 2)) < 1 the gap at step i is at most
    coef * a^(i^2), so the whole tail sums below
    sqrt(p q 2^(-1 - 2/ln 2)) * a^(n^2) / (1 - a).

    This bounds direct distances d(step n, step n+m) only where chaining
    through intermediate steps is legitimate; the quotient distance has
    no triangle inequality, and d(step 1, step 7) in fact exceeds this
    bound (pinned in the tests).
    """
    a = math.sqrt(2.0 ** (-math.log(2.0)))
    coef = math.sqrt(p * q * 2.0 ** (-1.0 - 2.0 / math.log(2.0)))
    return coef * a ** (n * n) / (1.0 - a)


def nonconvergence_probe(seq: list[MatrixClass], m: int) -> list[float]:
    """Distances from step m to steps m+2, m+3, ... of the sequence.

    Each value exceeds exp(-2^m) and the list is nondecreasing: the
    sequence moves away from every one of its own members.
    """
    if not (1 <= m and m + 2 <= len(seq)):
        raise ValueError(f"need m + 2 <= {len(seq)}, got m={m}")
    base = seq[m - 1]
    return [dist(base, seq[n - 1], rtol=0.0) for n in range(m + 2, len(seq) + 1)]
