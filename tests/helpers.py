"""Shared test utilities: an independent list-based oracle for the
lifted-product definitions, Matrix-level references that build the
identity lifts in full, and seeded random matrix generators.

The oracle works on plain nested lists of Fractions and never touches
the library's Matrix type internals, so oracle-vs-library comparisons
are genuinely dual-route. The ``ref_*`` references follow the
definitions literally with the library's own ``kron``/``matmul``/``add``:
they allocate the lifts the library never builds, which the allocation
tests measure, and they work in both scalar kinds.
"""

from fractions import Fraction
from math import lcm

from semitensor import (
    Matrix,
    RATIONAL,
    add,
    frobenius_inner,
    from_rows,
    identity,
    kron,
    matmul,
)


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


# --- Kronecker-built references on Matrix ------------------------------

def _lift_left(A: Matrix, s: int) -> Matrix:
    return kron(A, identity(s, A.scalar))


def _lift_right(A: Matrix, s: int) -> Matrix:
    return kron(identity(s, A.scalar), A)


def ref_ltimes(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.cols, B.rows)
    return matmul(_lift_left(A, t // A.cols), _lift_left(B, t // B.rows))


def ref_rtimes(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.cols, B.rows)
    return matmul(_lift_right(A, t // A.cols), _lift_right(B, t // B.rows))


def ref_lplus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return add(_lift_left(A, t // A.rows), _lift_left(B, t // B.rows))


def ref_rplus(A: Matrix, B: Matrix) -> Matrix:
    t = lcm(A.rows, B.rows)
    return add(_lift_right(A, t // A.rows), _lift_right(B, t // B.rows))


def ref_inner(A: Matrix, B: Matrix):
    """Pairing of two same-ratio matrices: Frobenius product of the lifts."""
    t = lcm(A.rows, B.rows)
    return frobenius_inner(_lift_left(A, t // A.rows), _lift_left(B, t // B.rows))


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
