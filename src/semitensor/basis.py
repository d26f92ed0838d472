"""Constructive basis of the quotient spaces and coordinate decomposition.

The basis consists of classes of single-entry Kronecker units
E(p x q; k, l) x E(i x i; j1, j2) subject to one coprimality rule,
gcd(i, j1, j2) = 1 (on the diagonal j1 = j2 this is gcd(i, j1) = 1).
A general unit with gcd > 1 telescopes into such elements through greedy
gcd chains: the plus-chain walks j down to 0 in steps f_n = gcd(i, rest),
the minus-chain walks j-1 down to 0, and the signed sum of the emitted
coprime units reproduces the original unit after lifting. Coordinates
run all of a class's chains at once, as integer weights on diagonals:
the representative's stored ints, over its one denominator, which
``decompose_class`` takes back as ``Fraction``s; ``reconstruct`` builds
the stored ints of its class directly.

Because these classes form a basis, decompose_class is an exact linear
isomorphism onto finite-support coordinates. Span and independence
questions are therefore decided by sparse elimination over the
coordinates of each class, with no representative ever lifted. It runs
fraction-free, on ints: the weights, each column scaled by the lcm of
its entries' reduced denominators, since a positive scale of a class's
coordinates, or of one coordinate in every class, moves no span or rank
verdict. The same
uniqueness puts a combination of units at level lcm(i), where
unit_class and reconstruct build it with no peel search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from math import gcd, lcm
from types import MappingProxyType
from typing import Mapping

from .matrix import (
    RATIONAL, _check_budget, _denominator, _integers, _numerator, _result, as_scalar,
)
from .quotient import MatrixClass, _as_ratio, zero_class
from .stp import _row_slices

# Largest listing enumerate_basis builds, as its bound p*q*sum(i^2) on the
# element count; checked before anything is built (ValueError above it).
_MAX_ELEMENTS = 5 * 10**5


@dataclass(frozen=True)
class BasisElement:
    """Index tuple naming the class of E(p x q; k, l) x E(i x i; j1, j2).

    All indices are 1-based. mu = p/q is positive and reduced (Fraction
    reduces it; an int is made one, and any other type refused);
    k <= p, l <= q, and j1, j2 <= i with gcd(i, j1, j2) = 1. An
    off-diagonal element (j1 != j2) therefore has i >= 2.
    """

    mu: Fraction
    k: int
    l: int
    i: int
    j1: int
    j2: int

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_ratio(self.mu))
        p, q = self.mu.numerator, self.mu.denominator
        if p <= 0:
            raise ValueError(f"ratio must be positive, got {self.mu}")
        if not (1 <= self.k <= p and 1 <= self.l <= q):
            raise ValueError(f"(k, l)=({self.k},{self.l}) outside {p}x{q}")
        if not (1 <= self.j1 <= self.i and 1 <= self.j2 <= self.i):
            raise ValueError(f"(j1, j2)=({self.j1},{self.j2}) outside 1..{self.i}")
        if gcd(self.i, self.j1, self.j2) != 1:
            raise ValueError(
                f"basis element needs gcd(i, j1, j2)=1, got ({self.i},{self.j1},{self.j2})"
            )

    @classmethod
    def _trusted(cls, mu: Fraction, k: int, l: int, i: int, j1: int, j2: int) -> BasisElement:
        """The element of these indices, built with no check: the caller
        has made sure they meet every rule above."""
        self = object.__new__(cls)
        self.__dict__.update(mu=mu, k=k, l=l, i=i, j1=j1, j2=j2)
        return self

    def __hash__(self):
        # Fraction's own __hash__ is a Python function with a pow in it.
        mu = self.mu
        return hash((mu.numerator, mu.denominator, self.k, self.l, self.i, self.j1, self.j2))

    @property
    def kind(self) -> str:
        """'D' for diagonal (j1 = j2), 'N' otherwise."""
        return "D" if self.j1 == self.j2 else "N"

    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.i, self.j1, self.j2, self.k, self.l)


@dataclass(frozen=True)
class Coordinates:
    """Finite-support expansion of a class over basis elements.

    Only nonzero rational coefficients are stored, all keys share mu,
    checked as ``BasisElement``'s; each coefficient passes
    ``as_scalar(c, RATIONAL)`` (an int is made a Fraction). ``terms`` is
    a read-only view of the checked copy, so a value checked once stays
    as checked; ``repr`` shows it as the dict it holds.
    """

    mu: Fraction
    terms: Mapping[BasisElement, Fraction] = field(default_factory=dict)

    __hash__ = None  # terms is a mapping

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_ratio(self.mu))
        if self.mu <= 0:
            raise ValueError(f"ratio must be positive, got {self.mu}")
        terms = {e: c if type(c) is Fraction else as_scalar(c, RATIONAL)
                 for e, c in self.terms.items()}
        for e, c in terms.items():
            if e.mu != self.mu:
                raise ValueError(f"term {e} has ratio {e.mu}, expected {self.mu}")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")
        object.__setattr__(self, "terms", MappingProxyType(terms))

    @classmethod
    def _trusted(cls, mu: Fraction, terms: dict[BasisElement, Fraction]) -> Coordinates:
        """Coordinates of these terms, built with no check: the caller has
        made sure each is a nonzero Fraction on an element of ratio mu > 0,
        and hands the dict over."""
        self = object.__new__(cls)
        self.__dict__.update(mu=mu, terms=MappingProxyType(terms))
        return self

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(mu={self.mu!r}, terms={dict(self.terms)!r})"


def unit_class(e: BasisElement) -> MatrixClass:
    """The class named by a basis element: the one-term ``reconstruct``,
    so its size is checked against the budget before it is built."""
    return reconstruct(Coordinates._trusted(e.mu, {e: Fraction(1)}))


def decompose_unit(mu: Fraction, k: int, l: int, i: int, j1: int, j2: int) -> Coordinates:
    """Expand the class of E(p x q; k, l) x E(i x i; j1, j2) over the basis:
    the plus-chain terms with +1 and the minus-chain terms with -1, so a
    coprime unit is itself. Each emitted index is coprime because a gcd
    divided out of its arguments leaves 1; ``tests/test_boundary.py``
    checks every emitted element against the rules of ``BasisElement``."""
    mu = _as_ratio(mu)
    p, q = mu.numerator, mu.denominator
    if not (1 <= k <= p and 1 <= l <= q and 1 <= j1 <= i and 1 <= j2 <= i):
        raise ValueError(f"indices (k={k}, l={l}, i={i}, j1={j1}, j2={j2}) out of range")
    return Coordinates._trusted(mu, {
        BasisElement._trusted(mu, k, l, size, a, b): Fraction(c)
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


def _weights(classes) -> list[tuple[dict[tuple[int, ...], int], int]]:
    # Each class's integer coordinates keyed by sort_key, its nonzero
    # stored ints (found in C) carried, and its representative's
    # denominator d, once all the classes are exact and of one ratio.
    classes = list(classes)
    for x in classes:
        if x.scalar != RATIONAL:
            raise ValueError("coordinates are exact-rational; rationalize the class first")
        if x.mu != classes[0].mu:
            raise ValueError(f"mixed ratios: {x.mu} vs {classes[0].mu}")
    out = []
    for x in classes:
        ints, d = _integers(x.rep)
        out.append((_carry(x.k0, x.rep.cols, zip(compress(count(), ints), filter(None, ints))), d))
    return out


def _coordinates(x: MatrixClass) -> dict[tuple[int, ...], Fraction]:
    # The weights over d, one Fraction per distinct value.
    [(coords, d)] = _weights([x])
    values = {}
    for key, w in coords.items():
        coords[key] = values[w] if w in values else values.setdefault(w, Fraction(w, d))
    return coords


def decompose_class(x: MatrixClass) -> Coordinates:
    """Coordinates of a class: the representative of shape k0*p x k0*q is
    read as a p x q grid of k0 x k0 cells, its entry at 1-based (I, J) the
    unit E(p x q; k, l) x E(k0 x k0; j1, j2) with I = (k-1)k0 + j1 and
    J = (l-1)k0 + j2, and all these units telescope at once (``_carry``)."""
    coords = _coordinates(x)
    return Coordinates._trusted(x.mu, {
        BasisElement._trusted(x.mu, k, l, i, j1, j2): c
        for (i, j1, j2, k, l), c in coords.items()
    })


def reconstruct(c: Coordinates) -> MatrixClass:
    """Class summing coeff * unit over all terms; empty coordinates give zero.

    Built in one pass at the canonical level L = lcm of the term sizes
    (a peel would give other coordinates, which are unique), after its
    size is checked against the budget: each coefficient, an int over
    the lcm d of the coefficients' denominators, goes into the L/i
    lifted positions of its unit, placed by ``_row_slices``.
    """
    if not c.terms:
        return zero_class(c.mu)
    p, q = c.mu.numerator, c.mu.denominator
    L = lcm(*(e.i for e in c.terms))
    _check_budget(p * L, q * L)
    d = lcm(*map(_denominator, c.terms.values()))
    acc = [0] * (p * q * L * L)
    for e, coeff in c.terms.items():
        w, s = _numerator(coeff) * (d // _denominator(coeff)), L // e.i
        col = (e.l - 1) * e.i + e.j2 - 1
        for sl in _row_slices((e.k - 1) * e.i + e.j1 - 1, p * e.i, q * e.i, s):
            acc[sl.start + col * s] += w
    return MatrixClass(c.mu, _result(p * L, q * L, tuple(acc), d, RATIONAL))


def _eliminate(pivots: dict, v: dict[tuple[int, ...], int]) -> bool:
    """Reduce v by the pivot rows; keep and report a nonzero remainder.

    Fraction-free, on ints: each row is stored primitive, divided once by
    the gcd of its values, signed so that its pivot, its smallest key, is
    positive. With a at v's smallest key and b at the row's pivot, over
    g = gcd(a, b), v becomes b/g * v - a/g * row (no scaling when b/g is 1,
    as for a unit's row): that clears v's smallest key, touches only
    larger ones and moves no verdict, since b/g is not 0. v's content is
    not divided out between steps (a gcd over v per step costs more than
    it saves). v is consumed. Returns True when v is independent of the
    rows already stored.
    """
    while v:
        key = min(v)
        row = pivots.get(key)
        if row is None:
            g = gcd(*v.values()) if v[key] > 0 else -gcd(*v.values())
            pivots[key] = v if g == 1 else {k: c // g for k, c in v.items()}
            return True
        a, b = v[key], row[key]
        if b != 1:
            g = gcd(a, b)
            if b != g:
                b //= g
                v = {k: c * b for k, c in v.items()}
            a //= g
        for k, c in row.items():
            new = v.get(k, 0) - a * c
            if new:
                v[k] = new
            else:
                del v[k]
    return False


def _coordinate_rows(classes) -> list[dict[tuple[int, ...], int]]:
    # The classes' coordinates as ints: each weight w over its row's d,
    # times its column's scale, the lcm of the reduced denominators
    # d/gcd(w, d) found in that column. A positive scale of a row or of a
    # column moves no span or rank verdict, and per column an int holds
    # only the primes its own column needs, where one d per row would hold
    # every prime of the row. A row with d = 1 and no scaled column (every
    # row of a family of units) goes in as it is.
    rows = _weights(classes)
    scale = {}
    get = scale.get
    for v, d in rows:
        if d != 1:
            for k, g in zip(v, map(gcd, v.values(), repeat(d))):
                if g != d:
                    scale[k] = lcm(get(k, 1), d // g)
    untouched = scale.keys().isdisjoint
    return [v if d == 1 and untouched(v) else {k: w * get(k, 1) // d for k, w in v.items()}
            for v, d in rows]


def in_span(target: MatrixClass, classes: list[MatrixClass]) -> bool:
    """Whether target is a rational combination of the given classes: its
    basis coordinates reduce to zero against the echelon rows of theirs."""
    goal, *rows = _coordinate_rows([target, *classes])
    pivots = {}
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
    mu = _as_ratio(mu)
    if mu <= 0:
        raise ValueError(f"ratio must be positive, got {mu}")
    p, q = mu.numerator, mu.denominator
    bound = p * q * i_max * (i_max + 1) * (2 * i_max + 1) // 6
    if bound > _MAX_ELEMENTS:
        raise ValueError(
            f"up to {bound} basis elements for i_max={i_max}, over the budget of {_MAX_ELEMENTS}"
        )
    return [
        BasisElement._trusted(mu, k, l, i, j1, j2)
        for i in range(1, i_max + 1)
        for j1 in range(1, i + 1)
        for j2 in range(1, i + 1)
        if gcd(i, j1, j2) == 1
        for k in range(1, p + 1)
        for l in range(1, q + 1)
    ]
