"""Left/right semi-tensor product and semi-tensor addition on raw matrices.

The product is total: for A (m x n) and B (p x q), both operands are
lifted by Kronecker identities to the lcm of the inner dimensions before
the ordinary product. The addition is defined only within one row/column
ratio and lifts to the lcm of the row counts.

No lift is ever built. One rule places every lift: ``_row_slices``
says where row i of X lands in X x I_s or I_s x X, as one slice of
each of s lifted rows (columns d, d + s, ... of row i*s + d on the
left; columns b*n ... b*n + n - 1 of row b*m + i on the right). Sums
and differences add each nonzero row into its slices in one step
apiece, and ``basis.reconstruct`` places each basis unit's one entry
by the same slices; the products read both lifts a lifted row at a
time through ``_lifted_rows``, which reads the same slices. The Cauchy
experiment in the metric module builds its lifts by the same rule, and
the pairing there reads both lifts as strided row slices. Everything
allocates only its result. Exact mode agrees bit for bit with the
Kronecker-built definitions, which the test suite keeps as references.

In exact mode a product does its arithmetic on Python ints: each row of
A is scaled by the lcm of that row's denominators and each column of B
by the lcm of that column's, the integer numerators are multiplied and
summed a lifted row at a time, and each output cell becomes one
``Fraction`` at the end. Scaling per row and column rather than per
matrix keeps the integers small when denominators differ across the
matrix. Float mode multiplies the entries as they are. Neither mode
multiplies a stored zero of either lift, so an inf or NaN entry facing
a zero adds nothing where the ordinary product of the lifts makes NaN.

Every result is checked against a size budget, ``_MAX_ENTRIES``, before
anything is allocated; a larger result raises ``ValueError``.
"""

from __future__ import annotations

import operator
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


def _row_slices(i: int, m: int, n: int, s: int, right: bool = False) -> list[slice]:
    """Where row i of an m x n matrix X lands in the row-major entries of
    X x I_s, or of I_s x X if right: one slice of each of s lifted rows.

    Lifted row i*s + d of X x I_s holds row i at columns d, d + s, ...;
    lifted row b*m + i of I_s x X holds it at columns b*n ... b*n + n - 1.
    Every other entry of those rows is zero.
    """
    cols = n * s
    if right:
        starts = ((b * m + i) * cols + b * n for b in range(s))
        return [slice(a, a + n) for a in starts]
    return [slice((i * s + d) * cols + d, (i * s + d + 1) * cols, s) for d in range(s)]


def _lifted_rows(data, m: int, n: int, s: int, right: bool = False):
    """The rows of X x I_s, or of I_s x X if right, that hold a nonzero
    entry, where X is the m x n matrix whose row-major entries are
    ``data``, placed by ``_row_slices``: (i, r, columns, row) says that
    lifted row r holds row i of X, ``row``, at ``columns`` (a range) and
    zeros elsewhere. Lifted rows come in the order of ``_row_slices``."""
    width = n * s
    for i in range(m):
        row = data[i * n : (i + 1) * n]
        if any(row):
            for sl in _row_slices(i, m, n, s, right):
                r, c = divmod(sl.start, width)
                step = sl.step or 1
                yield i, r, range(c, c + n * step, step), row


def _integers(A: Matrix, by_col: bool = False) -> tuple[list[int], list[int]]:
    """Entries of a rational A as ints, each row (or column, if by_col)
    multiplied by the lcm of its denominators; and those lcms."""
    m, n = A.rows, A.cols
    lines = [A.data[j::n] for j in range(n)] if by_col else [A.row(i) for i in range(m)]
    scales = [lcm(*(v.denominator for v in line)) for line in lines]
    per_entry = scales * m if by_col else [d for d in scales for _ in range(n)]
    return [v.numerator * (d // v.denominator) for v, d in zip(A.data, per_entry)], scales


def _times(A: Matrix, B: Matrix, right: bool) -> Matrix:
    # Output row r of the product sums, over the nonzero entries v at
    # column k of lifted row r of A, v times the nonzero entries of lifted
    # row k of B: each cell accumulates over ascending k, exactly as the
    # ordinary product of the two lifts would. In exact mode, where row r
    # holds row i of A, it sums integer numerators, and cell (r, c) has
    # the common denominator a_scale[i] * col_scale[c].
    _require_same_kind(A, B)
    t = lcm(A.cols, B.rows)
    sa, sb = t // A.cols, t // B.rows
    rows, cols = A.rows * sa, B.cols * sb
    _check_budget(rows, cols)
    exact = A.scalar == RATIONAL
    zero = _zero(A.scalar)
    if exact:
        a_data, a_scale = _integers(A)
        b_data, b_scale = _integers(B, by_col=True)
        # B's column scales lift like one row of B: each slice of that row,
        # shifted back to lifted row 0, says which columns take which scale.
        col_scale = [0] * cols
        for sl in _row_slices(0, 1, B.cols, sb, right):
            r0 = sl.start - sl.start % cols
            col_scale[sl.start - r0 : sl.stop - r0 : sl.step] = b_scale
    else:
        a_data, b_data = A.data, B.data
    b_rows = [()] * t
    for _, k, cs, row in _lifted_rows(b_data, B.rows, B.cols, sb, right):
        b_rows[k] = [(c, w) for c, w in zip(cs, row) if w]
    out = [zero] * (rows * cols)
    for i, r, ks, row in _lifted_rows(a_data, A.rows, A.cols, sa, right):
        acc = [0 if exact else 0.0] * cols
        for k, v in zip(ks, row):
            if v:
                for c, w in b_rows[k]:
                    acc[c] += v * w
        if exact:
            d = a_scale[i]
            acc = [Fraction(v, d * e) if v else zero for v, e in zip(acc, col_scale)]
        out[r * cols : (r + 1) * cols] = acc
    return Matrix(rows, cols, tuple(out), A.scalar)


def ltimes(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor product (A x I_{t/n}) (B x I_{t/p}), t = lcm(n, p)."""
    return _times(A, B, right=False)


def rtimes(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor product (I_{t/n} x A) (I_{t/p} x B), t = lcm(n, p)."""
    return _times(A, B, right=True)


def _sum_lifts(A: Matrix, B: Matrix, right: bool = False, subtract: bool = False) -> Matrix:
    """Sum of two same-ratio matrices, each lifted to the lcm of the row counts.

    If ``subtract``, B is subtracted instead, so a difference builds no
    negated copy. Each nonzero row of an operand goes into every slice
    of the result it lifts to, one slice at a time.

    Float mode adds (or subtracts) every entry of such a row to an
    accumulator that starts at 0.0, so a cell holds 0.0 where the sum of
    the full lifts has -0.0. Exact mode stores A's rows as they are
    (their slices never overlap) and then B's entries, each as it is
    where A's lift holds a zero: a Fraction addition happens only where
    two nonzero entries meet. Every exact zero it stores is one object,
    so that test is by identity.
    """
    _require_same_kind(A, B)
    t = lcm(A.rows, B.rows)
    cols = t * A.cols // A.rows
    _check_budget(t, cols)
    exact = A.scalar == RATIONAL
    zero = _zero(A.scalar)

    def first_or_sum(a, b):
        return b if a is zero else a if b is zero else a + b

    acc = [zero] * (t * cols)
    for n, X in enumerate((A, B)):
        negate = subtract and n == 1
        if exact:
            plus = first_or_sum if n else None
        else:
            plus = operator.sub if negate else operator.add
        for i in range(X.rows):
            row = X.row(i)
            if not any(row):
                continue
            if exact:
                row = [(-v if negate else v) if v else zero for v in row]
            for sl in _row_slices(i, X.rows, X.cols, t // X.rows, right):
                acc[sl] = row if plus is None else map(plus, acc[sl], row)
    return Matrix(t, cols, tuple(acc), A.scalar)


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
    return _sum_lifts(A, B)


def lminus(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor difference, lplus(A, -B) without building -B."""
    _require_same_ratio(A, B)
    return _sum_lifts(A, B, subtract=True)


def rplus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor addition (I_{t/m} x A) + (I_{t/p} x B)."""
    _require_same_ratio(A, B)
    return _sum_lifts(A, B, right=True)


def rminus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor difference, rplus(A, -B) without building -B."""
    _require_same_ratio(A, B)
    return _sum_lifts(A, B, right=True, subtract=True)
