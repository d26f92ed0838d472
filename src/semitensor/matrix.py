"""Dense matrices over exact rationals or binary64 floats.

Entries live in a flat row-major tuple. Exact mode keeps every entry a
``Fraction`` (lowest terms for free); float mode stores binary64 and all
tolerant comparisons go through a relative tolerance with an absolute
floor. Every value is immutable, every operation is a pure function.
Every constructor that sizes its result from its arguments (``zeros``,
``identity``, ``kron``) checks it against one size budget,
``_MAX_ENTRIES``, before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import inf
from operator import attrgetter
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


@dataclass(frozen=True)
class Matrix:
    """An m x n matrix with uniform scalar kind, row-major storage."""

    rows: int
    cols: int
    data: tuple
    scalar: str = RATIONAL

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"shape must be positive, got {self.rows}x{self.cols}")
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                f"data length {len(self.data)} != {self.rows}*{self.cols}"
            )
        kind_type = _KIND_TYPES.get(self.scalar)
        if kind_type is None:
            raise ValueError(f"unknown scalar kind {self.scalar!r}")
        if not all(map(isinstance, self.data, repeat(kind_type))):
            raise ValueError(f"{self.scalar} matrix entries must be {kind_type.__name__}")

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


def from_rows(rows: Sequence[Sequence], scalar: str = RATIONAL) -> Matrix:
    """Build a matrix from nested sequences, coercing entries."""
    if not rows:
        raise ValueError("matrix needs at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged rows")
    data = tuple(as_scalar(v, scalar) for r in rows for v in r)
    return Matrix(len(rows), n, data, scalar)


def _zero(kind: str) -> Scalar:
    return Fraction(0) if kind == RATIONAL else 0.0


def zeros(m: int, n: int, scalar: str = RATIONAL) -> Matrix:
    _check_budget(m, n)
    return Matrix(m, n, (_zero(scalar),) * (m * n), scalar)


def identity(n: int, scalar: str = RATIONAL) -> Matrix:
    _check_budget(n, n)
    z, o = _zero(scalar), Fraction(1) if scalar == RATIONAL else 1.0
    data = tuple(o if i == j else z for i in range(n) for j in range(n))
    return Matrix(n, n, data, scalar)


def _require_same_kind(A: Matrix, B: Matrix) -> None:
    if A.scalar != B.scalar:
        raise ValueError(f"scalar kinds differ: {A.scalar} vs {B.scalar}")


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a_ij * B."""
    _require_same_kind(A, B)
    m, n, p, q = A.rows, A.cols, B.rows, B.cols
    _check_budget(m * p, n * q)
    out = [None] * (m * p * n * q)
    ocols = n * q
    for i in range(m):
        for j in range(n):
            a = A.data[i * n + j]
            for r in range(p):
                base = (i * p + r) * ocols + j * q
                out[base : base + q] = [a * b for b in B.data[r * q : (r + 1) * q]]
    return Matrix(m * p, n * q, tuple(out), A.scalar)


def scale(c, A: Matrix) -> Matrix:
    c = as_scalar(c, A.scalar)
    return Matrix(A.rows, A.cols, tuple(c * v for v in A.data), A.scalar)


def eq_within(A: Matrix, B: Matrix, rtol: float | None = None) -> bool:
    """Same shape and kind, entries equal (exactly, or within tolerance)."""
    if A.scalar != B.scalar or A.shape != B.shape:
        return False
    return all(scalar_eq(a, b, A.scalar, rtol) for a, b in zip(A.data, B.data))


def to_rational(A: Matrix, max_denominator: int = 10**12) -> Matrix:
    """Rationalize a float64 matrix, bounding denominators explicitly."""
    if A.scalar == RATIONAL:
        return A
    data = tuple(Fraction(v).limit_denominator(max_denominator) for v in A.data)
    return Matrix(A.rows, A.cols, data, RATIONAL)
