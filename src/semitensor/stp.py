"""Left/right semi-tensor product and semi-tensor addition on raw matrices.

The product is total: for A (m x n) and B (p x q), both operands are
lifted by Kronecker identities to the lcm of the inner dimensions before
the ordinary product. The addition is defined only within one row/column
ratio and lifts to the lcm of the row counts.

No lift is ever built. ``_lift`` lists the nonzero entries of A x I_s
(a diagonal run of s entries per entry of A) or of I_s x A (s
block-diagonal copies of A); the products, sums and differences here and
``basis.reconstruct`` work from that list and allocate only their result.
The pairing in the metric module needs no list: its two lift factors are
coprime, so it computes the positions the lifts share. Exact mode agrees
bit for bit with the Kronecker-built definitions, which the test suite
keeps as references.

In exact mode a product does its arithmetic on Python ints: each row of
A is scaled by the lcm of that row's denominators and each column of B
by the lcm of that column's, the integer numerators are multiplied and
summed through the same lift loop, and each output cell becomes one
``Fraction`` at the end. Scaling per row and column rather than per
matrix keeps the integers small when denominators differ across the
matrix. Float mode multiplies the entries as they are.

Every result is checked against a size budget, ``_MAX_ENTRIES``, before
anything is allocated; a larger result raises ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .matrix import RATIONAL, Matrix, _require_same_kind, _zero

# Largest result, in entries, that an operation allocates. Checked before
# any allocation; a bigger result raises ValueError (a domain error).
_MAX_ENTRIES = 10**7


def ratio_of(A: Matrix) -> Fraction:
    """Row/column ratio of A as a reduced rational."""
    return Fraction(A.rows, A.cols)


def _check_budget(rows: int, cols: int) -> None:
    if rows * cols > _MAX_ENTRIES:
        raise ValueError(
            f"result would be {rows}x{cols} = {rows * cols} entries, "
            f"over the budget of {_MAX_ENTRIES}"
        )


def _lift(data, m: int, n: int, s: int, right: bool = False, negate: bool = False):
    """Nonzero entries (row, col, value) of X x I_s, or of I_s x X if right,
    where X is the m x n matrix whose row-major entries are ``data``.

    Rows ascend, and columns ascend within a row. Entry (i, j) of X
    becomes the run (i*s + d, j*s + d) for d < s on the left, and the
    copies (b*m + i, b*n + j) for b < s on the right. With negate, the
    entries are those of the lift of -X, each negated once, not once per copy.
    """

    def nonzero(i):
        row = [(j, v) for j, v in enumerate(data[i * n : (i + 1) * n]) if v]
        return [(j, -v) for j, v in row] if negate else row

    if right:
        rows = [nonzero(i) for i in range(m)]
        for b in range(s):
            for i, row in enumerate(rows):
                for j, v in row:
                    yield b * m + i, b * n + j, v
    else:
        for i in range(m):
            row = nonzero(i)
            for d in range(s):
                for j, v in row:
                    yield i * s + d, j * s + d, v


def _integers(A: Matrix, by_col: bool = False) -> tuple[list[int], list[int]]:
    """Entries of a rational A as ints, each row (or column, if by_col)
    multiplied by the lcm of its denominators; and those lcms."""
    m, n = A.rows, A.cols
    lines = [A.data[j::n] for j in range(n)] if by_col else [A.row(i) for i in range(m)]
    scales = [lcm(*(v.denominator for v in line)) for line in lines]
    per_entry = scales * m if by_col else [d for d in scales for _ in range(n)]
    return [v.numerator * (d // v.denominator) for v, d in zip(A.data, per_entry)], scales


def _times(A: Matrix, B: Matrix, right: bool) -> Matrix:
    # Each output cell accumulates over ascending inner index, exactly as
    # the ordinary product of the two lifts would. In exact mode the cell
    # (r, c) sums integer numerators over the common denominator
    # a_scale[row of A behind r] * b_scale[column of B behind c].
    _require_same_kind(A, B)
    t = lcm(A.cols, B.rows)
    sa, sb = t // A.cols, t // B.rows
    rows, cols = A.rows * sa, B.cols * sb
    _check_budget(rows, cols)
    exact = A.scalar == RATIONAL
    if exact:
        a_data, a_scale = _integers(A)
        b_data, b_scale = _integers(B, by_col=True)
    else:
        a_data, b_data = A.data, B.data
    b_rows = [[] for _ in range(t)]
    for k, c, w in _lift(b_data, B.rows, B.cols, sb, right):
        b_rows[k].append((c, w))
    acc = [0 if exact else 0.0] * (rows * cols)
    for r, k, v in _lift(a_data, A.rows, A.cols, sa, right):
        base = r * cols
        for c, w in b_rows[k]:
            acc[base + c] += v * w
    if exact:
        zero = _zero(RATIONAL)
        col_scale = [b_scale[c % B.cols if right else c // sb] for c in range(cols)]
        out = []
        for r in range(rows):
            d = a_scale[r % A.rows if right else r // sa]
            out += [
                Fraction(v, d * e) if v else zero
                for v, e in zip(acc[r * cols : (r + 1) * cols], col_scale)
            ]
        acc = out
    return Matrix(rows, cols, tuple(acc), A.scalar)


def ltimes(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor product (A x I_{t/n}) (B x I_{t/p}), t = lcm(n, p)."""
    return _times(A, B, right=False)


def rtimes(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor product (I_{t/n} x A) (I_{t/p} x B), t = lcm(n, p)."""
    return _times(A, B, right=True)


def _sum_lifts(mats: list[Matrix], right: bool = False, signs: tuple[int, ...] = ()) -> Matrix:
    """Sum of same-ratio matrices, each lifted to the lcm of the row counts.

    ``signs`` gives each operand's sign (+1 where omitted); a negative one
    lifts the operand's negation, so a difference builds no negated copy.
    A cell's first contribution is stored as is rather than added to zero,
    which spares a Fraction addition; in float mode a cell can therefore
    hold 0.0 where the sum of the full lifts has -0.0.
    """
    first = mats[0]
    t = lcm(*(X.rows for X in mats))
    cols = t * first.cols // first.rows
    _check_budget(t, cols)
    zero = _zero(first.scalar)
    acc = [zero] * (t * cols)
    for n, X in enumerate(mats):
        _require_same_kind(first, X)
        negate = n < len(signs) and signs[n] < 0
        for r, c, v in _lift(X.data, X.rows, X.cols, t // X.rows, right, negate):
            k = r * cols + c
            cur = acc[k]
            acc[k] = v if cur is zero else cur + v
    return Matrix(t, cols, tuple(acc), first.scalar)


def _require_same_ratio(A: Matrix, B: Matrix) -> None:
    # Addition across different ratios is undefined, not silently lifted.
    if ratio_of(A) != ratio_of(B):
        raise ValueError(
            f"semi-tensor addition needs equal row/column ratios, "
            f"got {ratio_of(A)} and {ratio_of(B)}"
        )


def lplus(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor addition (A x I_{t/m}) + (B x I_{t/p}), t = lcm(m, p)."""
    _require_same_ratio(A, B)
    return _sum_lifts([A, B])


def lminus(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor difference, lplus(A, -B) without building -B."""
    _require_same_ratio(A, B)
    return _sum_lifts([A, B], signs=(1, -1))


def rplus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor addition (I_{t/m} x A) + (I_{t/p} x B)."""
    _require_same_ratio(A, B)
    return _sum_lifts([A, B], right=True)


def rminus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor difference, rplus(A, -B) without building -B."""
    _require_same_ratio(A, B)
    return _sum_lifts([A, B], right=True, signs=(1, -1))
