"""Shared test utilities: an independent list-based oracle for the
lifted-product definitions, plain Matrix arithmetic (``matmul``, ``add``,
``sub``, ``frobenius_inner``) that the library itself does not
need, Matrix-level references that build the identity lifts in full, an
entry-by-entry peel check, span and rank checks by lcm lifts, and seeded
random matrix generators.

The oracle works on plain nested lists of Fractions and never touches
the library's Matrix type internals, so oracle-vs-library comparisons
are genuinely dual-route. The ``ref_*`` references follow the
definitions literally: ``lift`` builds the identity lifts entry by entry
and the arithmetic below multiplies, adds and pairs them, so no library
semi-tensor code is on the reference route. They allocate the lifts the
library never builds, which the allocation tests measure, and they work
in both scalar kinds.
"""

from fractions import Fraction
from math import fsum, lcm

from semitensor import FLOAT64, Matrix, RATIONAL, from_rows
from semitensor.matrix import _require_same_kind, _zero, scalar_eq


# --- independent oracle on nested lists ---------------------------------

def o_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def o_kron(A, B):
    out = []
    for arow in A:
        for brow in B:
            out.append([a * b for a in arow for b in brow])
    return out


def o_matmul(A, B):
    n = len(B)
    return [
        [sum(arow[k] * B[k][j] for k in range(n)) for j in range(len(B[0]))]
        for arow in A
    ]


def o_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def o_neg(A):
    return [[-a for a in row] for row in A]


def o_ltimes(A, B):
    t = lcm(len(A[0]), len(B))
    return o_matmul(o_kron(A, o_identity(t // len(A[0]))), o_kron(B, o_identity(t // len(B))))


def o_rtimes(A, B):
    t = lcm(len(A[0]), len(B))
    return o_matmul(o_kron(o_identity(t // len(A[0])), A), o_kron(o_identity(t // len(B)), B))


def o_lplus(A, B):
    t = lcm(len(A), len(B))
    return o_add(o_kron(A, o_identity(t // len(A))), o_kron(B, o_identity(t // len(B))))


def o_rplus(A, B):
    t = lcm(len(A), len(B))
    return o_add(o_kron(o_identity(t // len(A)), A), o_kron(o_identity(t // len(B)), B))


# --- plain Matrix arithmetic ---------------------------------------------

def matmul(A: Matrix, B: Matrix) -> Matrix:
    _require_same_kind(A, B)
    if A.cols != B.rows:
        raise ValueError(f"cannot multiply {A.shape} by {B.shape}")
    m, n, q = A.rows, A.cols, B.cols
    z = _zero(A.scalar)
    out = [z] * (m * q)
    for i in range(m):
        arow = i * n
        for k in range(n):
            a = A.data[arow + k]
            if a == 0:
                continue
            brow = k * q
            crow = i * q
            for j in range(q):
                out[crow + j] += a * B.data[brow + j]
    return Matrix(m, q, tuple(out), A.scalar)


def add(A: Matrix, B: Matrix) -> Matrix:
    _require_same_kind(A, B)
    if A.shape != B.shape:
        raise ValueError(f"cannot add {A.shape} and {B.shape}")
    return Matrix(A.rows, A.cols, tuple(a + b for a, b in zip(A.data, B.data)), A.scalar)


def sub(A: Matrix, B: Matrix) -> Matrix:
    _require_same_kind(A, B)
    if A.shape != B.shape:
        raise ValueError(f"cannot subtract {A.shape} and {B.shape}")
    return Matrix(A.rows, A.cols, tuple(a - b for a, b in zip(A.data, B.data)), A.scalar)


def frobenius_inner(A: Matrix, B: Matrix):
    """Sum of entrywise products of two same-shape matrices."""
    _require_same_kind(A, B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    if A.scalar == FLOAT64:
        return fsum(a * b for a, b in zip(A.data, B.data))
    return sum((a * b for a, b in zip(A.data, B.data)), Fraction(0))


# --- references on Matrix, built from the full lifts --------------------

def lift(A: Matrix, s: int, right: bool = False) -> Matrix:
    """A x I_s, or I_s x A if right, placed entry by entry with literal
    zeros, so that a NaN or an infinity in A stays where the definition
    puts it instead of spreading through kron's a * 0."""
    m, n = A.rows, A.cols
    zero = _zero(A.scalar)

    def entry(r, c):
        if right:
            return A.entry(r % m, c % n) if r // m == c // n else zero
        return A.entry(r // s, c // s) if r % s == c % s else zero

    data = tuple(entry(r, c) for r in range(m * s) for c in range(n * s))
    return Matrix(m * s, n * s, data, A.scalar)


def ref_ltimes(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.cols, B.rows)
    return matmul(lift(A, t // A.cols), lift(B, t // B.rows))


def ref_rtimes(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.cols, B.rows)
    return matmul(lift(A, t // A.cols, right=True), lift(B, t // B.rows, right=True))


def ref_lplus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return add(lift(A, t // A.rows), lift(B, t // B.rows))


def ref_rplus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return add(lift(A, t // A.rows, right=True), lift(B, t // B.rows, right=True))


def ref_lminus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return sub(lift(A, t // A.rows), lift(B, t // B.rows))


def ref_rminus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return sub(lift(A, t // A.rows, right=True), lift(B, t // B.rows, right=True))


def ref_inner(A: Matrix, B: Matrix):
    """Pairing of two same-ratio matrices: Frobenius product of the lifts."""
    t = lcm(A.rows, B.rows)
    return frobenius_inner(lift(A, t // A.rows), lift(B, t // B.rows))


# --- peel check, entry by entry ------------------------------------------

def ref_try_unkron(A: Matrix, s: int, rtol=None):
    """B with A = B x I_s, or None: every s x s block is compared with
    d * I_s, d its top-left entry, one entry at a time through scalar_eq."""
    if s < 2 or A.rows % s or A.cols % s:
        return None
    m, n = A.rows // s, A.cols // s
    kind = A.scalar
    zero = Fraction(0) if kind == RATIONAL else 0.0
    vals = []
    for i in range(m):
        for j in range(n):
            d = A.entry(i * s, j * s)
            for a in range(s):
                for b in range(s):
                    v = A.entry(i * s + a, j * s + b)
                    if not scalar_eq(v, d if a == b else zero, kind, rtol):
                        return None
            vals.append(d)
    return Matrix(m, n, tuple(vals), kind)


# --- span and rank by lcm lifts -------------------------------------------

def _lift_vector(x, R):
    """The representative of class x lifted to R rows, flattened."""
    return list(lift(x.rep, R // x.rep.rows).data)


def _row_echelon(rows):
    """In-place elimination; returns the rank."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def ref_in_span(target, classes):
    """Whether target is a combination of the classes: every representative
    is lifted to the lcm of the row counts, and membership is consistency
    of the exact linear system."""
    R = lcm(target.rep.rows, *(x.rep.rows for x in classes))
    cols = [_lift_vector(x, R) for x in classes]
    t = _lift_vector(target, R)
    plain = [[col[r] for col in cols] for r in range(len(t))]
    augmented = [[col[r] for col in cols] + [t[r]] for r in range(len(t))]
    return _row_echelon(plain) == _row_echelon(augmented)


def ref_independent(classes):
    """Whether the classes are independent: exact rank of the lcm lifts."""
    if not classes:
        return True
    R = lcm(*(x.rep.rows for x in classes))
    cols = [_lift_vector(x, R) for x in classes]
    rows = [[col[r] for col in cols] for r in range(len(cols[0]))]
    return _row_echelon(rows) == len(classes)


# --- random generators ---------------------------------------------------

def rand_lists(rng, m, n, lo=-3, hi=3, max_den=3):
    return [
        [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(n)]
        for _ in range(m)
    ]


def rand_matrix(rng, m, n, **kw) -> Matrix:
    return from_rows(rand_lists(rng, m, n, **kw), RATIONAL)


def as_matrix(lists) -> Matrix:
    return from_rows([[Fraction(v) for v in row] for row in lists], RATIONAL)
