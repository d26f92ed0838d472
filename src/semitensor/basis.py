"""Constructive basis of the quotient spaces and coordinate decomposition.

The basis consists of classes of single-entry Kronecker units
E(p x q; k, l) x E(i x i; j1, j2) subject to one coprimality rule,
gcd(i, j1, j2) = 1 (on the diagonal j1 = j2 this is gcd(i, j1) = 1).
A general unit with gcd > 1 telescopes into such elements through greedy
gcd chains: the plus-chain walks j down to 0 in steps f_n = gcd(i, rest),
the minus-chain walks j-1 down to 0, and the signed sum of the emitted
coprime units reproduces the original unit after lifting. Coordinates
run all of a class's chains at once, as integer weights on diagonals.

Because these classes form a basis, decompose_class is an exact linear
isomorphism onto finite-support coordinates. Span and independence
questions are therefore decided by exact sparse elimination over the
coordinates of each class, with no representative ever lifted. The same
uniqueness puts a combination of units at level lcm(i), where
unit_class and reconstruct build it with no peel search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm

from .matrix import RATIONAL, Matrix, _check_budget, _denominator, _numerator, as_scalar
from .quotient import MatrixClass, zero_class
from .stp import _row_slices

# Largest listing enumerate_basis builds, as its bound p*q*sum(i^2) on the
# element count; checked before anything is built (ValueError above it).
_MAX_ELEMENTS = 5 * 10**5


@dataclass(frozen=True)
class BasisElement:
    """Index tuple naming the class of E(p x q; k, l) x E(i x i; j1, j2).

    All indices are 1-based. mu = p/q must be reduced (Fraction enforces
    this); k <= p, l <= q, and j1, j2 <= i with gcd(i, j1, j2) = 1. An
    off-diagonal element (j1 != j2) therefore has i >= 2.
    """

    mu: Fraction
    k: int
    l: int
    i: int
    j1: int
    j2: int

    def __post_init__(self):
        p, q = self.mu.numerator, self.mu.denominator
        if not (1 <= self.k <= p and 1 <= self.l <= q):
            raise ValueError(f"(k, l)=({self.k},{self.l}) outside {p}x{q}")
        if not (1 <= self.j1 <= self.i and 1 <= self.j2 <= self.i):
            raise ValueError(f"(j1, j2)=({self.j1},{self.j2}) outside 1..{self.i}")
        if gcd(self.i, self.j1, self.j2) != 1:
            raise ValueError(
                f"basis element needs gcd(i, j1, j2)=1, got ({self.i},{self.j1},{self.j2})"
            )

    @property
    def kind(self) -> str:
        """'D' for diagonal (j1 = j2), 'N' otherwise."""
        return "D" if self.j1 == self.j2 else "N"

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.i, self.j1, self.j2, self.k, self.l)


@dataclass
class Coordinates:
    """Finite-support expansion of a class over basis elements.

    Only nonzero rational coefficients are stored, all keys share mu; each
    passes ``as_scalar(c, RATIONAL)`` (an int is made a Fraction).
    """

    mu: Fraction
    terms: dict[BasisElement, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if any(type(c) is not Fraction for c in self.terms.values()):
            self.terms = {e: as_scalar(c, RATIONAL) for e, c in self.terms.items()}
        for e, c in self.terms.items():
            if e.mu != self.mu:
                raise ValueError(f"term {e} has ratio {e.mu}, expected {self.mu}")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")


def unit_class(e: BasisElement) -> MatrixClass:
    """The class named by a basis element: the one-term ``reconstruct``,
    so its size is checked against the budget before it is built."""
    return reconstruct(Coordinates(e.mu, {e: Fraction(1)}))


def decompose_unit(mu: Fraction, k: int, l: int, i: int, j1: int, j2: int) -> Coordinates:
    """Expand the class of E(p x q; k, l) x E(i x i; j1, j2) over the basis:
    the plus-chain terms with +1 and the minus-chain terms with -1, so a
    coprime unit is itself. The BasisElement validator re-checks that each
    emitted index is coprime (a gcd divided out of its arguments leaves 1)."""
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    if not (1 <= k <= p and 1 <= l <= q and 1 <= j1 <= i and 1 <= j2 <= i):
        raise ValueError(f"indices (k={k}, l={l}, i={i}, j1={j1}, j2={j2}) out of range")
    return Coordinates(mu, {
        BasisElement(mu, k, l, size, a, b): Fraction(c)
        for (size, a, b, _, _), c in _carry(i, i, [((j1 - 1) * i + j2 - 1, 1)]).items()
    })


def _carry(k0: int, cols: int, entries) -> dict[tuple[int, ...], int]:
    # Integer coordinates (keys as sort_key) of the sum of w times the unit
    # at row-major position idx of a cols-wide grid of k0 x k0 cells, over
    # the (idx, w). With F the plus chain (0 once an index is 0), a unit is
    # F(j1, j2) - F(j1-1, j2-1), and F(j1, j2) = E(k0/s; j1/s, j2/s) +
    # F(j1-s, j2-s), s = gcd(k0, j1, j2): a coprime unit is its own term.
    # Any other puts +w, -w at its lower index and the one below on its
    # diagonal j2 - j1, which no step leaves; walked down from the top, a
    # cell's weight adds to its coprime unit and carries s cells down.
    out, diagonals = {}, {}
    for idx, w in entries:
        (k, a), (l, b) = divmod(idx // cols, k0), divmod(idx % cols, k0)
        if gcd(k0, a + 1, b + 1) == 1:
            out[(k0, a + 1, b + 1, k + 1, l + 1)] = w
        else:
            wts = diagonals.setdefault((k, l, b - a), {})
            lo = min(a, b)  # 0-based: the 1-based lower index is lo + 1
            wts[lo + 1], wts[lo] = wts.get(lo + 1, 0) + w, wts.get(lo, 0) - w
    for (k, l, delta), wts in diagonals.items():
        g, up, right = gcd(k0, delta), max(-delta, 0), max(delta, 0)
        for lo in range(max(wts), 0, -1):
            if w := wts.pop(lo, 0):
                s = gcd(g, lo)
                key = (k0 // s, (lo + up) // s, (lo + right) // s, k + 1, l + 1)
                out[key], wts[lo - s] = out.get(key, 0) + w, wts.get(lo - s, 0) + w
    return {key: w for key, w in out.items() if w} if diagonals else out


def _coordinates(x: MatrixClass) -> dict[tuple[int, ...], Fraction]:
    # Coordinates keyed by sort_key: the nonzero entries (found in C by the
    # numerator slot getter) as ints over d, the lcm of their denominators,
    # carried; one Fraction per distinct value.
    data = x.rep.data
    nonzero = [(idx, data[idx]) for idx in compress(count(), map(_numerator, data))]
    d = lcm(*[_denominator(v) for _, v in nonzero])
    values, ints = {}, []
    for idx, v in nonzero:
        w = _numerator(v) * (d // _denominator(v))
        values[w] = v
        ints.append((idx, w))
    coords = _carry(x.k0, x.rep.cols, ints)
    for key, w in coords.items():
        coords[key] = values[w] if w in values else values.setdefault(w, Fraction(w, d))
    return coords


def decompose_class(x: MatrixClass) -> Coordinates:
    """Coordinates of a class: the representative of shape k0*p x k0*q is
    read as a p x q grid of k0 x k0 cells, its entry at 1-based (I, J) the
    unit E(p x q; k, l) x E(k0 x k0; j1, j2) with I = (k-1)k0 + j1 and
    J = (l-1)k0 + j2, and all these units telescope at once (``_carry``)."""
    coords = next(_coordinate_rows([x]))
    return Coordinates(x.mu, {
        BasisElement(x.mu, k, l, i, j1, j2): c for (i, j1, j2, k, l), c in coords.items()
    })


def reconstruct(c: Coordinates) -> MatrixClass:
    """Class summing coeff * unit over all terms; empty coordinates give zero.

    Built in one pass at the canonical level L = lcm of the term sizes
    (a peel would give other coordinates, which are unique), after its
    size is checked against the budget: each coefficient goes into the
    L/i lifted positions of its unit, placed by ``_row_slices``.
    """
    if not c.terms:
        return zero_class(c.mu)
    p, q = c.mu.numerator, c.mu.denominator
    L = lcm(*(e.i for e in c.terms))
    _check_budget(p * L, q * L)
    zero = Fraction(0)
    acc = [zero] * (p * q * L * L)
    for e, coeff in c.terms.items():
        s = L // e.i
        col = (e.l - 1) * e.i + e.j2 - 1
        for sl in _row_slices((e.k - 1) * e.i + e.j1 - 1, p * e.i, q * e.i, s):
            pos = sl.start + col * s
            acc[pos] = coeff if acc[pos] is zero else acc[pos] + coeff
    return MatrixClass(c.mu, Matrix(p * L, q * L, tuple(acc), RATIONAL))


def _eliminate(pivots: dict, v: dict[tuple[int, ...], Fraction]) -> bool:
    """Reduce v by the pivot rows; keep and report a nonzero remainder.

    Each stored row is scaled to 1 at its pivot, its smallest key, so
    subtracting it clears v's smallest key and touches only larger ones.
    Returns True when v is independent of the rows already stored.
    """
    while v:
        key = min(v)
        row = pivots.get(key)
        if row is None:
            inv = 1 / v[key]
            pivots[key] = {k: c * inv for k, c in v.items()}
            return True
        f = v[key]
        for k, c in row.items():
            new = v.get(k, 0) - f * c
            if new:
                v[k] = new
            else:
                del v[k]
    return False


def _coordinate_rows(classes):
    # Each class's coordinates, once all are exact and of one ratio.
    classes = list(classes)
    for x in classes:
        if x.scalar != RATIONAL:
            raise ValueError("coordinates are exact-rational; rationalize the class first")
        if x.mu != classes[0].mu:
            raise ValueError(f"mixed ratios: {x.mu} vs {classes[0].mu}")
    return map(_coordinates, classes)


def in_span(target: MatrixClass, classes: list[MatrixClass]) -> bool:
    """Whether target is a rational combination of the given classes: its
    basis coordinates reduce to zero against the echelon rows of theirs."""
    rows = _coordinate_rows([target, *classes])
    goal, pivots = next(rows), {}
    for v in rows:
        _eliminate(pivots, v)
    return not _eliminate(pivots, goal)


def independent(classes: list[MatrixClass]) -> bool:
    """Whether the classes are linearly independent (exact rank check in coordinates)."""
    pivots = {}
    return all(_eliminate(pivots, v) for v in _coordinate_rows(classes))


def enumerate_basis(mu: Fraction, i_max: int) -> list[BasisElement]:
    """All basis elements with i <= i_max, ordered by (i, j1, j2, k, l)."""
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    mu = Fraction(mu)
    if mu <= 0:
        raise ValueError(f"ratio must be positive, got {mu}")
    p, q = mu.numerator, mu.denominator
    bound = p * q * i_max * (i_max + 1) * (2 * i_max + 1) // 6
    if bound > _MAX_ELEMENTS:
        raise ValueError(
            f"up to {bound} basis elements for i_max={i_max}, over the budget of {_MAX_ELEMENTS}"
        )
    return [
        BasisElement(mu, k, l, i, j1, j2)
        for i in range(1, i_max + 1)
        for j1 in range(1, i + 1)
        for j2 in range(1, i + 1)
        if gcd(i, j1, j2) == 1
        for k in range(1, p + 1)
        for l in range(1, q + 1)
    ]
