"""Constructive basis of the quotient spaces and coordinate decomposition.

The basis consists of classes of single-entry Kronecker units
E(p x q; k, l) x E(i x i; j1, j2) subject to one coprimality rule,
gcd(i, j1, j2) = 1 (on the diagonal j1 = j2 this is gcd(i, j1) = 1).
A general unit with gcd > 1 telescopes into such elements through greedy
gcd chains: the plus-chain walks j down to 0 in steps f_n = gcd(i, rest),
the minus-chain walks j-1 down to 0, and the signed sum of the emitted
coprime units reproduces the original unit after lifting.

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
from math import gcd, lcm

from .matrix import RATIONAL, Matrix
from .quotient import MatrixClass, zero_class
from .stp import _check_budget, _row_slices

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


@dataclass(frozen=True)
class GcdChain:
    """Greedy gcd chains: f partial-sums to the target index, g to target-1."""

    f: tuple[int, ...]
    g: tuple[int, ...]


@dataclass
class Coordinates:
    """Finite-support expansion of a class over basis elements.

    Only nonzero rational coefficients are stored, all keys share mu.
    """

    mu: Fraction
    terms: dict[BasisElement, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for e, c in self.terms.items():
            if e.mu != self.mu:
                raise ValueError(f"term {e} has ratio {e.mu}, expected {self.mu}")
            if c == 0:
                raise ValueError("zero coefficients must not be stored")


def unit_class(e: BasisElement) -> MatrixClass:
    """The class named by a basis element: the one-term ``reconstruct``,
    so its size is checked against the budget before it is built."""
    return reconstruct(Coordinates(e.mu, {e: Fraction(1)}))


def _chain(i: int, targets: tuple[int, ...]) -> list[int]:
    # Greedy walk: each step removes gcd(i, remainders) from every
    # remainder; stops when the first target hits zero. Terminates since
    # each step divides (hence is <=) the first remainder.
    rest = list(targets)
    steps = []
    while rest[0] > 0:
        s = gcd(i, *rest)
        steps.append(s)
        rest = [r - s for r in rest]
    return steps


def gcd_chain(i: int, j1: int, j2: int | None = None) -> GcdChain:
    """Both greedy chains for a unit index: f targets j1, g targets j1 - 1.

    For the off-diagonal form pass j2 with j1 < j2 <= i; the gcd at each
    step then takes both shifted indices into account.
    """
    if not (1 <= j1 <= i):
        raise ValueError(f"need 1 <= j1 <= i, got j1={j1}, i={i}")
    if j2 is not None and not (j1 < j2 <= i):
        raise ValueError(f"need j1 < j2 <= i, got j1={j1}, j2={j2}, i={i}")
    # gcd(i, j, j) = gcd(i, j), so the diagonal chain is the pair (j1, j1)
    hi = j1 if j2 is None else j2
    return GcdChain(tuple(_chain(i, (j1, hi))), tuple(_chain(i, (j1 - 1, hi - 1))))


def decompose_unit(mu: Fraction, k: int, l: int, i: int, j1: int, j2: int) -> Coordinates:
    """Expand the class of E(p x q; k, l) x E(i x i; j1, j2) over the basis.

    When the coprimality condition already holds this is a single term;
    otherwise the plus-chain terms enter with +1 and the minus-chain
    terms with -1. Every emitted index is coprime by construction
    (dividing a gcd out of its own arguments leaves gcd 1), which the
    BasisElement validator re-checks.
    """
    mu = Fraction(mu)
    p, q = mu.numerator, mu.denominator
    if not (1 <= k <= p and 1 <= l <= q and 1 <= j1 <= i and 1 <= j2 <= i):
        raise ValueError(f"indices (k={k}, l={l}, i={i}, j1={j1}, j2={j2}) out of range")
    return Coordinates(mu, {
        BasisElement(mu, k, l, size, a, b): Fraction(c)
        for (size, a, b), c in _telescope(i, j1, j2).items()
    })


def _telescope(i: int, j1: int, j2: int) -> dict[tuple[int, int, int], int]:
    # Nonzero coefficients of the unit E(i x i; j1, j2) over the coprime
    # units, keyed by (size, j1, j2): the chains of gcd_chain, unchecked.
    if gcd(i, j1, j2) == 1:  # gcd(i, j1) == 1 on the diagonal
        return {(i, j1, j2): 1}
    lo, hi = min(j1, j2), max(j1, j2)
    acc: dict[tuple[int, int, int], int] = {}
    for start_lo, start_hi, sign in ((lo, hi, 1), (lo - 1, hi - 1, -1)):
        pre = 0
        for s in _chain(i, (start_lo, start_hi)):
            x = (start_lo - pre) // s
            y = (start_hi - pre) // s
            key = (i // s, y, x) if j1 > j2 else (i // s, x, y)
            acc[key] = acc.get(key, 0) + sign
            pre += s
    return {key: c for key, c in acc.items() if c}


def _coordinates(x: MatrixClass, expansions: dict) -> dict[tuple[int, ...], Fraction]:
    # Coordinates of an exact class keyed by sort_key tuples (i, j1, j2, k, l).
    # Every cell (j1, j2) of a k0 x k0 grid has one unit expansion, kept in
    # the caller's dict under (k0, j1, j2) and telescoped once per call.
    k0, rep = x.k0, x.rep
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, a in enumerate(rep.data):
        if not a:
            continue
        big_i, big_j = divmod(idx, rep.cols)
        k, j1 = divmod(big_i, k0)
        l, j2 = divmod(big_j, k0)
        part = expansions.get((k0, j1, j2))
        if part is None:
            part = list(_telescope(k0, j1 + 1, j2 + 1).items())
            expansions[(k0, j1, j2)] = part
        for (i, b1, b2), c in part:
            key = (i, b1, b2, k + 1, l + 1)
            v = a if c == 1 else a * c
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v
    return {key: c for key, c in acc.items() if c}


def decompose_class(x: MatrixClass) -> Coordinates:
    """Coordinates of a class: expand each nonzero entry of the representative.

    The representative of shape k0*p x k0*q is read as a p x q grid of
    k0 x k0 cells; the entry at 1-based (I, J) is the unit
    E(p x q; k, l) x E(k0 x k0; j1, j2) with I = (k-1)k0 + j1 and
    J = (l-1)k0 + j2, which then telescopes through decompose_unit.
    """
    if x.scalar != RATIONAL:
        raise ValueError("coordinates are exact-rational; rationalize the class first")
    return Coordinates(x.mu, {
        BasisElement(x.mu, k, l, i, j1, j2): c for (i, j1, j2, k, l), c in _coordinates(x, {}).items()
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


def _require_exact_same_mu(classes: list[MatrixClass]) -> None:
    for x in classes:
        if x.scalar != RATIONAL:
            raise ValueError("span checks need exact-rational classes")
        if x.mu != classes[0].mu:
            raise ValueError(f"mixed ratios: {x.mu} vs {classes[0].mu}")


def in_span(target: MatrixClass, classes: list[MatrixClass]) -> bool:
    """Whether target is a rational combination of the given classes.

    Every class is mapped to its basis coordinates; target is in the span
    exactly when its coordinates reduce to zero against the echelon rows
    of the others.
    """
    _require_exact_same_mu([target] + list(classes))
    pivots, expansions = {}, {}
    for x in classes:
        _eliminate(pivots, _coordinates(x, expansions))
    return not _eliminate(pivots, _coordinates(target, expansions))


def independent(classes: list[MatrixClass]) -> bool:
    """Whether the classes are linearly independent (exact rank check in coordinates)."""
    _require_exact_same_mu(list(classes))
    pivots, expansions = {}, {}
    return all(_eliminate(pivots, _coordinates(x, expansions)) for x in classes)


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
