"""Dense matrices over exact rationals or binary64 floats.

Entries live in a flat row-major tuple. Every matrix stores its cells
over one positive denominator, ``_cells`` and ``_den``, which ``==``,
``hash`` and every kernel read. Exact mode stores ints, kept reduced:
the gcd of the denominator and all the ints is 1, so one value has one
stored form. The public ``data``, a tuple of ``Fraction``s, is built on
its first read, one ``Fraction`` per distinct value, and kept. Float
mode stores binary64 entries over 1, which are also its ``data``, and
every zero as 0.0, never -0.0 (``_stored``), so one value has one
stored form there too; all tolerant comparisons go through a relative
tolerance with an absolute floor. Every value is immutable, every
operation is a pure function. Every constructor that sizes its result
from its arguments (``zeros``, ``identity``, ``kron``) checks it against
one size budget, ``_MAX_ENTRIES``, before anything is allocated.

Entries are checked once, at the boundary: the public ``Matrix(...)``
(and so ``dataclasses.replace``), ``from_rows`` and ``io``'s readers
check the shape, the kind and the type of every entry, and store a
float -0.0 as 0.0, as ``scale`` and ``kron`` store the -0.0 that a
negative value times 0.0, or an underflow, makes. No kernel can then
make one: products start every cell at 0.0, a + b is -0.0 only if both
are, and a - b only if a is. A matrix the library builds from entries
of matrices already checked, or from arguments it has checked itself,
is made by ``Matrix._trusted``, which runs no check again, or by
``_result``, which reduces exact ints first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, inf, lcm
from operator import attrgetter, floordiv
from typing import Sequence, Union

RATIONAL = "rational"
FLOAT64 = "float64"

DEFAULT_RTOL = 1e-9
ABS_FLOOR = 1e-15

Scalar = Union[Fraction, float]

# The entry type of each scalar kind, and a rational entry's integer parts
# read from Fraction's own slots in C (its properties are Python functions).
_KIND_TYPES = {RATIONAL: Fraction, FLOAT64: float}
_numerator, _denominator = attrgetter("_numerator"), attrgetter("_denominator")
_parts = attrgetter("_numerator", "_denominator")
# The value types a rational entry is read from without a refusal to check.
_LITERAL_TYPES = frozenset((str, int))

# Largest matrix, in entries, that an operation or constructor allocates.
# Checked before any allocation; a bigger result raises ValueError (a
# domain error).
_MAX_ENTRIES = 10**7

def _check_budget(rows: int, cols: int) -> None:
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(
            f"result would be {rows}x{cols} = {rows * cols} entries, "
            f"over the budget of {_MAX_ENTRIES}"
        )


def as_scalar(value, kind: str) -> Scalar:
    """Coerce a number (or 'num/den' string) into the given scalar kind.
    A bool is refused: JSON's true and false are not the numbers 1 and 0."""
    if isinstance(value, bool):
        raise ValueError(f"refusing bool {value!r} as a {kind} scalar")
    if kind == RATIONAL:
        if isinstance(value, float):
            raise ValueError(
                f"refusing implicit float -> rational conversion of {value!r}; write it "
                'as a "num/den" string, or convert a float matrix with to_rational()'
            )
        return Fraction(value)
    if kind == FLOAT64:
        return float(value)
    raise ValueError(f"unknown scalar kind {kind!r}")


def scalar_eq(a: Scalar, b: Scalar, kind: str, rtol: float | None = None) -> bool:
    """Equality for one entry. rtol=0 means exact even in float mode.
    Under a tolerance an infinite entry equals itself and no other value,
    and NaN equals nothing."""
    if kind == RATIONAL:
        return a == b
    if rtol is None:
        rtol = DEFAULT_RTOL
    if rtol == 0.0:
        return a == b
    return a == b or ((d := abs(a - b)) < inf and d <= max(rtol * max(abs(a), abs(b)), ABS_FLOOR))


def _check_shape(rows: int, cols: int, length: int, scalar: str) -> type:
    # The entry type of a rows x cols matrix of kind scalar; refuses a
    # shape that is not positive, an unknown kind and a length of entries
    # other than rows * cols.
    if rows < 1 or cols < 1:
        raise ValueError(f"shape must be positive, got {rows}x{cols}")
    kind_type = _KIND_TYPES.get(scalar)
    if kind_type is None:
        raise ValueError(f"unknown scalar kind {scalar!r}")
    if length != rows * cols:
        raise ValueError(f"data length {length} != {rows}*{cols}")
    return kind_type


def _stored(cells, kind: str) -> tuple:
    # cells as a tuple in the one stored form of their values: a float
    # -0.0 is stored as 0.0, which it equals, so no kernel can make one.
    cells = tuple(cells)
    if kind == RATIONAL or all(cells):
        return cells
    return tuple([v or 0.0 for v in cells])


def _over_lcm(values) -> tuple[tuple, int]:
    # Fractions as ints over d, the lcm of their denominators, and d: the
    # reduced stored form, since an entry whose denominator holds the
    # highest power of a prime in d has a numerator and a cofactor free of it.
    dens = list(map(_denominator, values))
    d = lcm(*dens)
    return tuple([n * (d // e) for n, e in zip(map(_numerator, values), dens)]), d


@dataclass(frozen=True)
class Matrix:
    """An m x n matrix with uniform scalar kind, row-major storage.

    The constructor checks that the shape is positive, that ``data`` holds
    rows * cols entries and that each is of the kind's type (``Fraction``
    or ``float``), stores ``data`` as a tuple, and stores a rational
    matrix's ints over their lcm, a float one's entries over 1, with
    -0.0 stored as 0.0.
    ``_trusted`` builds a value with no check. An exact matrix it builds
    gets its ``data`` on first read (``_ExactData``).
    """

    rows: int
    cols: int
    data: tuple
    scalar: str = RATIONAL

    _den = 1  # a float matrix's: not stored, so its instance dict stays at five keys

    def __post_init__(self):
        data = self.__dict__["data"] = tuple(self.data)
        kind_type = _check_shape(self.rows, self.cols, len(data), self.scalar)
        if not all(map(isinstance, data, repeat(kind_type))):
            raise ValueError(f"{self.scalar} matrix entries must be {kind_type.__name__}")
        if self.scalar == RATIONAL:
            self.__dict__["_cells"], self.__dict__["_den"] = _over_lcm(data)
        else:
            self.__dict__["data"] = self.__dict__["_cells"] = _stored(data, self.scalar)

    @classmethod
    def _trusted(cls, rows: int, cols: int, cells: tuple, d: int, scalar: str) -> Matrix:
        """The matrix of cells over d, built with no check: rows and cols
        positive, cells a tuple of rows * cols entries of the kind, ints
        over d > 0 with gcd(d, *cells) = 1, or floats over d = 1, which
        are also its ``data``; the caller has made sure of it. Call it
        through the class, ``Matrix._trusted(...)``, so that a wrapper set
        on the class (the tests' entry counter) sees every call."""
        self = object.__new__(cls)
        self.__dict__.update(rows=rows, cols=cols, scalar=scalar, _cells=cells)
        if scalar == RATIONAL:
            self.__dict__["_den"] = d
        else:
            self.__dict__["data"] = cells
        return self

    def _key(self) -> tuple:
        # What == and hash compare: the stored form, which is one per
        # exact value, and the kind.
        return self.rows, self.cols, self.scalar, self._cells, self._den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry at 0-based (i, j)."""
        return self.data[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in self.row(i)) for i in range(self.rows))
        return f"[{body}]"


class _ExactData:
    """``Matrix.data`` where the instance holds none: an exact matrix
    built from ints, whose entries are made on first read, one
    ``Fraction`` per distinct value, and kept in the instance, which then
    answers every later read. It has no ``__set__``, so every other read
    of a ``Matrix`` attribute stays a plain instance lookup."""

    def __get__(self, A, owner=None):
        if A is None:
            return self
        cells, d = A._cells, A._den
        value = {v: Fraction(v, d) for v in set(cells)}
        data = A.__dict__["data"] = tuple(map(value.__getitem__, cells))
        return data


# Set once the dataclass is made, which would take it for data's default.
Matrix.data = _ExactData()


# A's entries as the kernels multiply and add them, over one denominator d,
# and d: its stored cells, a rational matrix's ints or a float one's floats.
_integers = attrgetter("_cells", "_den")


def _result(rows: int, cols: int, cells: tuple, d: int, kind: str) -> Matrix:
    """The matrix a kernel computed: its cells over d, reduced by g =
    gcd(d, *cells); float cells are over 1, so never reduced. A fold of
    gcd from d sheds d's factors a few cells at a time, each step a gcd
    of numbers as long as d; so g is first sought as gcd(d, sum of the
    cells), a multiple of it, which is 1 for most results and leaves the
    fold a short number if not. Both read the nonzero cells only,
    gathered in one C-level pass."""
    if d != 1:
        nonzero = list(filter(None, cells))
        if (g := gcd(d, sum(nonzero))) != 1 and (g := gcd(g, *nonzero)) != 1:
            cells, d = tuple(map(floordiv, cells, repeat(g))), d // g
    return Matrix._trusted(rows, cols, cells, d, kind)


def _read(rows: int, cols: int, values: Sequence, kind: str) -> Matrix:
    """The rows x cols matrix of ``as_scalar`` of every value, in order,
    with the same first error, then the checks of ``Matrix(...)``.
    ``Fraction``s are read by their slots, rational strings and ints one
    ``Fraction`` per distinct literal, in the order they arrive, both
    straight to ints over the lcm of their denominators; floats without
    a bool are read in one ``map``. Any other mix (a bool, a float as a
    rational) is read entry by entry, so it meets ``as_scalar``'s
    refusals."""
    types = set(map(type, values))
    if kind == RATIONAL and types == {Fraction}:
        ints, d = _over_lcm(values)
    elif kind == RATIONAL and _LITERAL_TYPES.issuperset(types):
        literals = dict.fromkeys(values)
        distinct, d = _over_lcm([Fraction(v) for v in literals])
        ints = tuple(map(dict(zip(literals, distinct)).__getitem__, values))
    elif kind == FLOAT64 and bool not in types:
        data = _stored(map(float, values), kind)
        _check_shape(rows, cols, len(data), kind)
        return Matrix._trusted(rows, cols, data, 1, kind)
    else:
        return Matrix(rows, cols, tuple([as_scalar(v, kind) for v in values]), kind)
    _check_shape(rows, cols, len(ints), kind)
    return Matrix._trusted(rows, cols, ints, d, kind)


def from_rows(rows: Sequence[Sequence], scalar: str = RATIONAL) -> Matrix:
    """Build a matrix from nested sequences, coercing entries."""
    if not rows:
        raise ValueError("matrix needs at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    return _read(len(rows), n, [v for r in rows for v in r], scalar)


def zeros(m: int, n: int, scalar: str = RATIONAL) -> Matrix:
    _check_budget(m, n)
    _check_shape(m, n, m * n, scalar)
    return _result(m, n, (0 if scalar == RATIONAL else 0.0,) * (m * n), 1, scalar)


def identity(n: int, scalar: str = RATIONAL) -> Matrix:
    _check_budget(n, n)
    _check_shape(n, n, n * n, scalar)
    z, o = (0, 1) if scalar == RATIONAL else (0.0, 1.0)
    return _result(n, n, tuple(o if i == j else z for i in range(n) for j in range(n)), 1, scalar)


def _require_same_kind(A: Matrix, B: Matrix) -> None:
    if A.scalar != B.scalar:
        raise ValueError(f"scalar kinds differ: {A.scalar} vs {B.scalar}")


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a_ij * B."""
    _require_same_kind(A, B)
    m, n, p, q = A.rows, A.cols, B.rows, B.cols
    _check_budget(m * p, n * q)
    (a, da), (b, db) = _integers(A), _integers(B)
    out = [None] * (m * p * n * q)
    ocols = n * q
    for i in range(m):
        for j in range(n):
            v = a[i * n + j]
            for r in range(p):
                base = (i * p + r) * ocols + j * q
                out[base : base + q] = [v * w for w in b[r * q : (r + 1) * q]]
    return _result(m * p, n * q, _stored(out, A.scalar), da * db, A.scalar)


def scale(c, A: Matrix) -> Matrix:
    c = as_scalar(c, A.scalar)
    n, e = _parts(c) if A.scalar == RATIONAL else (c, 1)
    return _result(A.rows, A.cols, _stored([n * v for v in A._cells], A.scalar), A._den * e, A.scalar)


def eq_within(A: Matrix, B: Matrix, rtol: float | None = None) -> bool:
    """Same shape and kind, entries equal (exactly, or within tolerance)."""
    if A.scalar != B.scalar or A.shape != B.shape:
        return False
    if A.scalar == RATIONAL:
        return A == B
    return all(scalar_eq(a, b, A.scalar, rtol) for a, b in zip(A.data, B.data))


def to_rational(A: Matrix, max_denominator: int = 10**12) -> Matrix:
    """Rationalize a float64 matrix, bounding denominators explicitly."""
    if A.scalar == RATIONAL:
        return A
    ints, d = _over_lcm([Fraction(v).limit_denominator(max_denominator) for v in A.data])
    return Matrix._trusted(A.rows, A.cols, ints, d, RATIONAL)
