"""Independent nested-list oracle for the benchmark's output checks.

Matrices here are plain lists of rows holding ``Fraction`` or ``float``
entries. Nothing in this module imports the library, so every check the
benchmark makes compares the library against a second route through the
definitions: lifts are built in full, exactly as the paper states them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd, lcm


def zero_like(v):
    return 0.0 if isinstance(v, float) else Fraction(0)


def one_like(v):
    return 1.0 if isinstance(v, float) else Fraction(1)


def identity(n, like):
    z, o = zero_like(like), one_like(like)
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def kron(A, B):
    return [[a * b for a in arow for b in brow] for arow in A for brow in B]


def matmul(A, B):
    z = zero_like(A[0][0])
    out = []
    for arow in A:
        acc = [z] * len(B[0])
        for k, a in enumerate(arow):
            if a == 0:
                continue
            brow = B[k]
            for j, b in enumerate(brow):
                acc[j] += a * b
        out.append(acc)
    return out


def add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def neg(A):
    return [[-a for a in row] for row in A]


def scale(c, A):
    return [[c * a for a in row] for row in A]


def lift(A, s):
    """A x I_s."""
    return A if s == 1 else kron(A, identity(s, A[0][0]))


def rlift(A, s):
    """I_s x A."""
    return A if s == 1 else kron(identity(s, A[0][0]), A)


def ltimes(A, B):
    t = lcm(len(A[0]), len(B))
    return matmul(lift(A, t // len(A[0])), lift(B, t // len(B)))


def rtimes(A, B):
    t = lcm(len(A[0]), len(B))
    return matmul(rlift(A, t // len(A[0])), rlift(B, t // len(B)))


def lplus(A, B):
    t = lcm(len(A), len(B))
    return add(lift(A, t // len(A)), lift(B, t // len(B)))


def rplus(A, B):
    t = lcm(len(A), len(B))
    return add(rlift(A, t // len(A)), rlift(B, t // len(B)))


def lminus(A, B):
    return lplus(A, neg(B))


def rminus(A, B):
    return rplus(A, neg(B))


def unkron(A, s):
    """B with A = B x I_s, or None."""
    m, n = len(A), len(A[0])
    if s < 2 or m % s or n % s:
        return None
    z = zero_like(A[0][0])
    B = []
    for i in range(m // s):
        row = []
        for j in range(n // s):
            d = A[i * s][j * s]
            for a in range(s):
                for b in range(s):
                    if A[i * s + a][j * s + b] != (d if a == b else z):
                        return None
            row.append(d)
        B.append(row)
    return B


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def irreducible(A):
    return all(unkron(A, s) is None for s in _primes(gcd(len(A), len(A[0]))))


def canonical(A):
    """Peel identity factors (exact comparisons) until irreducible."""
    while True:
        for s in _primes(gcd(len(A), len(A[0]))):
            B = unkron(A, s)
            if B is not None:
                A = B
                break
        else:
            return A


def same_class(rep, lifted):
    """rep is irreducible and rep x I_s equals lifted for the right s."""
    if len(lifted) % len(rep) or not irreducible(rep):
        return False
    s = len(lifted) // len(rep)
    if len(rep[0]) * s != len(lifted[0]):
        return False
    return lift(rep, s) == lifted


def frobenius(A, B):
    if isinstance(A[0][0], float):
        return math.fsum(a * b for ra, rb in zip(A, B) for a, b in zip(ra, rb))
    return sum((a * b for ra, rb in zip(A, B) for a, b in zip(ra, rb)), Fraction(0))


def inner(A, B):
    """Pairing of two irreducible representatives of one ratio."""
    t = lcm(len(A), len(B))
    return frobenius(lift(A, t // len(A)), lift(B, t // len(B)))


def dist(A, B):
    d = canonical(lminus(A, B))
    return math.sqrt(frobenius(d, d))


def close(a, b, rel=1e-12):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def lists_close(A, B, rel=1e-12):
    if len(A) != len(B) or any(len(ra) != len(rb) for ra, rb in zip(A, B)):
        return False
    return all(close(a, b, rel) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


# --- basis units --------------------------------------------------------

def basis_indices(mu, i_max):
    """(k, l, i, j1, j2) of every basis element with i <= i_max, 1-based."""
    p, q = mu.numerator, mu.denominator
    out = []
    for i in range(1, i_max + 1):
        for j1 in range(1, i + 1):
            for j2 in range(1, i + 1):
                ok = gcd(i, j1) == 1 if j1 == j2 else i >= 2 and gcd(i, j1, j2) == 1
                if ok:
                    out.extend((k, l, i, j1, j2) for k in range(1, p + 1) for l in range(1, q + 1))
    return out


def unit(mu, k, l, i, j1, j2):
    """E(p x q; k, l) x E(i x i; j1, j2) as exact lists."""
    p, q = mu.numerator, mu.denominator
    e = [[Fraction(int(r == k - 1 and c == l - 1)) for c in range(q)] for r in range(p)]
    f = [[Fraction(int(r == j1 - 1 and c == j2 - 1)) for c in range(i)] for r in range(i)]
    return kron(e, f)


def combination(mu, terms, rows=None):
    """Sum of coeff * unit over (index, coeff) pairs, lifted to a common size.

    The common row count is the lcm of the unit sizes (and of ``rows``
    when given), so the result can be compared with a lifted class.
    """
    p, q = mu.numerator, mu.denominator
    R = rows or 1
    for (k, l, i, j1, j2), _ in terms:
        R = lcm(R, p * i)
    acc = [[Fraction(0)] * (R * q // p) for _ in range(R)]
    for idx, c in terms:
        u = unit(mu, *idx)
        acc = add(acc, scale(c, lift(u, R // len(u))))
    return acc


def strict_json_loads(text):
    """json.loads that refuses NaN and +-Infinity."""

    def bad(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=bad)
