"""Left/right semi-tensor product and semi-tensor addition on raw matrices.

The product is total: for A (m x n) and B (p x q), both operands are
lifted by Kronecker identities to the lcm of the inner dimensions before
the ordinary product. The addition is defined only within one row/column
ratio and lifts to the lcm of the row counts.

No lift is ever built. One rule places every lift: ``_row_slices``
says where row i of X lands in X x I_s or I_s x X, as one slice of
each of s lifted rows (columns d, d + s, ... of row i*s + d on the
left; columns b*n ... b*n + n - 1 of row b*m + i on the right). Sums
and differences place each nonzero row of the first operand in its
slices and add each of the second's into its own, one step apiece; an
addition puts the operand with more rows first. An unlifted first
operand is copied whole, so only the cells of the other's lift are
computed, and an unlifted second operand is read in the one pass that
builds the result. ``basis.reconstruct`` places each basis unit's one
entry by the same slices; the products read both lifts a lifted row at
a time through ``_lifted_rows``, which reads the same slices. The Cauchy
experiment in the metric module builds its lifts by the same rule, and
the pairing there reads both lifts as strided row slices. Everything
allocates only its result. Exact mode agrees bit for bit with the
Kronecker-built definitions, which the test suite keeps as references.

Every kernel reads its operands through one reader, ``matrix._integers``:
the cells every matrix stores over its one denominator, a rational
operand's ints or a float one's entries over 1. Products multiply and sum the entries read a
lifted row at a time, over the product of the two denominators; sums
scale each operand's ints to the lcm of the two denominators and add
them. Exact results stay ints, reduced by one gcd with their
denominator (``matrix._result``): no kernel builds a ``Fraction``. The
Lie bracket's XY - YX (``_commutator``) subtracts the two t x t products
cell by cell and builds one matrix in either kind, which the bracket
peels once. Neither mode multiplies a stored zero of either lift, so an
inf or NaN entry facing a zero adds nothing where the ordinary product
of the lifts makes NaN.

Every result is checked against the matrix module's size budget,
``_MAX_ENTRIES``, before anything is allocated; a larger result raises
``ValueError``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, repeat
from math import lcm

from .matrix import (
    RATIONAL, Matrix, _check_budget, _integers, _require_same_kind, _result,
)


def ratio_of(A: Matrix) -> Fraction:
    """Row/column ratio of A as a reduced rational."""
    return Fraction(A.rows, A.cols)


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
    ``data``, placed by ``_row_slices``: (r, columns, row) says that
    lifted row r holds a row of X, ``row``, at ``columns`` (a range) and
    zeros elsewhere. Lifted rows come in the order of ``_row_slices``."""
    width = n * s
    for i in range(m):
        row = data[i * n : (i + 1) * n]
        if any(row):
            for sl in _row_slices(i, m, n, s, right):
                r, c = divmod(sl.start, width)
                step = sl.step or 1
                yield r, range(c, c + n * step, step), row


def _product_rows(A: Matrix, a, B: Matrix, b, right: bool = False) -> list[list]:
    # The rows of the product of the lifts of A and B, a and b the
    # row-major entries ``_integers`` reads. Output row r sums, over the
    # nonzero v at column k of lifted row r of A, v times the nonzero
    # entries of lifted row k of B: each cell accumulates over ascending
    # k, exactly as the ordinary product of the two lifts would.
    t = lcm(A.cols, B.rows)
    rows, cols = A.rows * t // A.cols, B.cols * t // B.rows
    _check_budget(rows, cols)
    acc = [[0 if A.scalar == RATIONAL else 0.0] * cols for _ in range(rows)]
    b_rows = [()] * t
    for k, cs, row in _lifted_rows(b, B.rows, B.cols, t // B.rows, right):
        b_rows[k] = [(c, w) for c, w in zip(cs, row) if w]
    for r, ks, row in _lifted_rows(a, A.rows, A.cols, t // A.cols, right):
        out = acc[r]
        for k, v in zip(ks, row):
            if v:
                for c, w in b_rows[k]:
                    out[c] += v * w
    return acc


def _assemble(acc: list[list], d: int, kind: str) -> Matrix:
    # The matrix of accumulated rows, in exact mode ints over d.
    return _result(len(acc), len(acc[0]), tuple(chain.from_iterable(acc)), d, kind)


def _times(A: Matrix, B: Matrix, right: bool) -> Matrix:
    _require_same_kind(A, B)
    (a, da), (b, db) = _integers(A), _integers(B)
    return _assemble(_product_rows(A, a, B, b, right), da * db, A.scalar)


def _commutator(X: Matrix, Y: Matrix) -> Matrix:
    """XY - YX for square X and Y of one kind: the t x t products, over
    dx * dy, subtracted cell by cell, so XX - XX is zero in float too."""
    _require_same_kind(X, Y)
    (x, dx), (y, dy) = _integers(X), _integers(Y)
    xy = _product_rows(X, x, Y, y)
    for row, other in zip(xy, _product_rows(Y, y, X, x)):
        row[:] = map(operator.sub, row, other)
    return _assemble(xy, dx * dy, X.scalar)


def ltimes(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor product (A x I_{t/n}) (B x I_{t/p}), t = lcm(n, p)."""
    return _times(A, B, right=False)


def rtimes(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor product (I_{t/n} x A) (I_{t/p} x B), t = lcm(n, p)."""
    return _times(A, B, right=True)


def _sum_lifts(A: Matrix, B: Matrix, right: bool = False, subtract: bool = False) -> Matrix:
    """Sum of two same-ratio matrices, each lifted to the lcm of the row counts.

    If ``subtract``, B is subtracted instead, so a difference builds no
    negated copy; an addition makes the operand with more rows A
    (integer and IEEE addition commute bit for bit), so the cells of
    the larger lift are copied and only the other's are added. Both
    operands are read by ``_integers``, exact ones scaled to the lcm of
    their denominators. An operand of t rows is not lifted: as A, a copy
    of its entries starts the sum; as B, it ends it, the result built in
    one pass over the placed A and B's entries. A lifted A's nonzero rows
    are placed in the slices of the result they lift to (they never
    overlap); a lifted B's are added into theirs, one slice at a time.

    Float mode places a row of A with no zero as it is and rewrites each
    zero of any other as 0.0 (0.0 + a is a with -0.0 made 0.0), so a
    cell holds 0.0 where the sum of the full lifts has -0.0, and a ±0.0
    entry of B changes no cell.
    """
    _require_same_ratio(A, B)
    _require_same_kind(A, B)
    if B.rows > A.rows and not subtract:
        A, B = B, A
    t = lcm(A.rows, B.rows)
    cols = t * A.cols // A.rows
    _check_budget(t, cols)
    (a, da), (b, db) = _integers(A), _integers(B)
    d = lcm(da, db)
    if da != d:
        a = tuple(map(operator.mul, a, repeat(d // da)))
    if db != d:
        b = tuple(map(operator.mul, b, repeat(d // db)))
    exact = A.scalar == RATIONAL
    zero = 0 if exact else 0.0
    plus = operator.sub if subtract else operator.add
    if A.rows == t:
        acc = list(a) if exact or all(a) else [v or zero for v in a]
    else:
        acc = [zero] * (t * cols)
    for n, (X, x) in enumerate(((A, a), (B, b))):
        if X.rows == t:
            if n:
                return _result(t, cols, tuple(map(plus, acc, x)), d, A.scalar)
            continue
        m, width = X.shape
        for i in range(m):
            row = x[i * width : (i + 1) * width]
            if not any(row):
                continue
            if not (n or exact or all(row)):
                row = [v or zero for v in row]
            for sl in _row_slices(i, m, width, t // m, right):
                acc[sl] = map(plus, acc[sl], row) if n else row
    return _result(t, cols, tuple(acc), d, A.scalar)


def _require_same_ratio(A: Matrix, B: Matrix) -> None:
    # Addition across different ratios is undefined, not silently lifted.
    # Equal ratios cross-multiply to equal ints; Fractions only for the message.
    if A.rows * B.cols != B.rows * A.cols:
        raise ValueError(
            f"semi-tensor addition needs equal row/column ratios, "
            f"got {ratio_of(A)} and {ratio_of(B)}"
        )


def lplus(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor addition (A x I_{t/m}) + (B x I_{t/p}), t = lcm(m, p)."""
    return _sum_lifts(A, B)


def lminus(A: Matrix, B: Matrix) -> Matrix:
    """Left semi-tensor difference, lplus(A, -B) without building -B."""
    return _sum_lifts(A, B, subtract=True)


def rplus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor addition (I_{t/m} x A) + (I_{t/p} x B)."""
    return _sum_lifts(A, B, right=True)


def rminus(A: Matrix, B: Matrix) -> Matrix:
    """Right semi-tensor difference, rplus(A, -B) without building -B."""
    return _sum_lifts(A, B, right=True, subtract=True)
