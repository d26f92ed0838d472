"""Shared test utilities: an independent list-based oracle for the
lifted-product definitions, plain Matrix arithmetic (``matmul``, ``add``,
``sub``, ``frobenius_inner``) and the single-entry matrix ``e_matrix``
that the library itself does not need, Matrix-level references that
build the identity lifts in full, an entry-by-entry peel check and the
canonical form by restarted peels over it, the canonical level by the
diagonal-run rule walked one diagonal at a time, span and
rank checks by lcm lifts, basis coordinates by one gcd-chain telescope
per entry, the correctly rounded float norm (``ref_norm``), the Cauchy
experiment's fill by its definition (``ref_delta_n``), seeded random
matrix generators, and
``counting_entries``, which counts the matrix entries built inside a
``with`` block, and ``counting_data_builds``, which records every exact
matrix whose ``data`` is built there.

The oracle works on plain nested lists of Fractions and never touches
the library's Matrix type internals, so oracle-vs-library comparisons
are genuinely dual-route. The ``ref_*`` references follow the
definitions literally: ``lift`` builds the identity lifts entry by entry
and the arithmetic below multiplies, adds and pairs them, so no library
semi-tensor code is on the reference route. They allocate the lifts the
library never builds, which the allocation tests measure, and they work
in both scalar kinds.
"""

from contextlib import contextmanager
from fractions import Fraction
from math import fsum, gcd, inf, isinf, isnan, isqrt, lcm, nan
from types import SimpleNamespace

from semitensor import FLOAT64, Matrix, RATIONAL, fill_value, from_rows
from semitensor.matrix import _require_same_kind, scalar_eq


def _zero(kind):
    return Fraction(0) if kind == RATIONAL else 0.0


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


def e_matrix(m: int, n: int, i: int, j: int) -> Matrix:
    """Exact single-entry matrix: 1 at 0-based (i, j), 0 elsewhere."""
    data = [Fraction(0)] * (m * n)
    data[i * n + j] = Fraction(1)
    return Matrix(m, n, tuple(data), RATIONAL)


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


def ref_inner_nonzero(A: Matrix, B: Matrix) -> float:
    """Float pairing of two same-ratio matrices as the library defines it:
    the fsum, in row-major order of the full lifts, of the products of the
    pairs of nonzero entries, so an inf or NaN that faces a zero adds
    nothing where ``ref_inner`` makes NaN."""
    t = lcm(A.rows, B.rows)
    X, Y = lift(A, t // A.rows), lift(B, t // B.rows)
    return fsum(v * w for v, w in zip(X.data, Y.data) if v and w)


def ref_norm(values) -> float:
    """Frobenius norm of float entries, correctly rounded: inf if any entry
    is infinite, else NaN if any is NaN, else the square root of the exact
    sum of ``Fraction(v)**2``, taken by ``isqrt`` to at least 256 bits and
    rounded to odd (a sticky last bit) before the one rounding to float."""
    if any(map(isinf, values)):
        return inf
    if any(map(isnan, values)):
        return nan
    total = sum(Fraction(v) ** 2 for v in values)
    if not total:
        return 0.0
    p, q = total.numerator, total.denominator
    k = 256 - (p.bit_length() - q.bit_length()) // 2  # sqrt(total) * 2^k has >= 256 bits
    scaled = total * Fraction(4) ** k
    r = isqrt(scaled.numerator // scaled.denominator)
    r |= r * r != scaled
    try:
        return float(r * Fraction(2) ** -k)
    except OverflowError:  # past the largest binary64: rounds to inf
        return inf


def ref_delta_n(A: Matrix, n: int) -> Matrix:
    """Step n's fill of a float64 A: every exact zero (0.0 or -0.0)
    replaced by fill_value(n), every other entry kept."""
    fill = fill_value(n)
    return Matrix(A.rows, A.cols, tuple(v if v != 0.0 else fill for v in A.data), FLOAT64)


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


def ref_canonicalize(A: Matrix, rtol=None) -> Matrix:
    """The representative by restarts: peel the smallest s >= 2 that
    ``ref_try_unkron`` accepts, then start again from s = 2, until no s
    peels. Under exact comparison the first s that peels is prime, so this
    is the restart loop over primes."""
    while True:
        g = gcd(A.rows, A.cols)
        peeled = next((B for s in range(2, g + 1)
                       if (B := ref_try_unkron(A, s, rtol)) is not None), None)
        if peeled is None:
            return A
        A = peeled


def ref_run_level(A: Matrix, rtol=None) -> int:
    """The canonical level by the run rule, one diagonal at a time: walk
    each diagonal from its top-left end, split its nonzeros (entries not
    equal, through scalar_eq, to zero) into runs, a run going on while its
    entries equal its first, and fold gcd(rows, cols) with the row and
    column where each run starts and the row where a zero ends it."""
    kind = A.scalar
    zero = _zero(kind)
    level = gcd(A.rows, A.cols)
    for d in range(1 - A.rows, A.cols):
        r, c, first = max(0, -d), max(0, d), None
        while r < A.rows and c < A.cols:
            v = A.entry(r, c)
            if scalar_eq(v, zero, kind, rtol):
                if first is not None:
                    level = gcd(level, r)
                first = None
            elif first is None or not scalar_eq(v, first, kind, rtol):
                first = v
                level = gcd(level, r, c)
            r, c = r + 1, c + 1
    return level


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


# --- coordinates by one telescope per entry --------------------------------

def _ref_chain(i, lo, hi):
    """The greedy gcd chain from the pair (lo, hi) down to lo = 0, as the
    coprime units (size, lo', hi') it emits: each step s = gcd(i, lo, hi)
    emits (i/s, lo/s, hi/s) and removes s from both indices."""
    out = []
    while lo > 0:
        s = gcd(i, lo, hi)
        out.append((i // s, lo // s, hi // s))
        lo, hi = lo - s, hi - s
    return out


def ref_unit_expansion(i, j1, j2):
    """Nonzero integer coefficients of the unit E(i x i; j1, j2) over the
    coprime units, keyed by (size, j1, j2): the plus chain from (j1, j2)
    minus the chain from (j1 - 1, j2 - 1)."""
    acc = {}
    lo, hi = min(j1, j2), max(j1, j2)
    for start, sign in (((lo, hi), 1), ((lo - 1, hi - 1), -1)):
        for size, a, b in _ref_chain(i, *start):
            key = (size, b, a) if j1 > j2 else (size, a, b)
            acc[key] = acc.get(key, 0) + sign
    return {key: c for key, c in acc.items() if c}


def ref_coordinates(x):
    """Coordinates of an exact class keyed by sort_key tuples
    (i, j1, j2, k, l): every nonzero entry of the representative is
    expanded by ``ref_unit_expansion`` and the expansions are summed in
    Fractions."""
    k0, rep = x.k0, x.rep
    acc = {}
    for idx, a in enumerate(rep.data):
        if a:
            k, j1 = divmod(idx // rep.cols, k0)
            l, j2 = divmod(idx % rep.cols, k0)
            for (i, b1, b2), c in ref_unit_expansion(k0, j1 + 1, j2 + 1).items():
                key = (i, b1, b2, k + 1, l + 1)
                acc[key] = acc.get(key, 0) + a * c
    return {key: c for key, c in acc.items() if c}


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


# --- entries allocated ---------------------------------------------------

@contextmanager
def counting_entries():
    """Count the matrix entries built inside a ``with`` block: the
    yielded ``count.entries`` grows by rows * cols per ``Matrix`` built.
    A matrix is built by the checked constructor, whose dataclass
    ``__init__`` looks ``__post_init__`` up on the class, or by
    ``Matrix._trusted`` (from cells over a denominator, in either kind),
    which the library calls through the class; so wrapping both there
    sees every construction."""
    count = SimpleNamespace(entries=0)
    checked, trusted = Matrix.__post_init__, Matrix.__dict__["_trusted"]

    def counted(self):
        checked(self)
        count.entries += self.rows * self.cols

    def counted_trusted(cls, rows, cols, *stored):
        count.entries += rows * cols
        return trusted.__func__(cls, rows, cols, *stored)

    Matrix.__post_init__, Matrix._trusted = counted, classmethod(counted_trusted)
    try:
        yield count
    finally:
        Matrix.__post_init__, Matrix._trusted = checked, trusted


@contextmanager
def counting_data_builds():
    """Record the shape of every exact matrix whose ``data`` is built
    inside a ``with`` block: the yielded list grows by one shape each
    time ``Matrix.data`` is made from the stored ints."""
    built, lazy = [], Matrix.__dict__["data"]

    class Counted:
        def __get__(self, A, owner=None):
            if A is None:
                return self
            built.append(A.shape)
            return lazy.__get__(A, owner)

    Matrix.data = Counted()
    try:
        yield built
    finally:
        Matrix.data = lazy
