"""Basis elements, gcd chains, decomposition and span checks."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest

import semitensor.basis
from helpers import add, as_matrix, rand_matrix, ref_in_span, ref_independent

from semitensor import (
    BasisElement,
    Coordinates,
    GcdChain,
    canonicalize,
    class_add,
    decompose_class,
    decompose_unit,
    e_matrix,
    enumerate_basis,
    gcd_chain,
    identity,
    in_span,
    independent,
    kron,
    reconstruct,
    scalar_mul,
    unit_class,
    zero_class,
    zeros,
)
from semitensor.matrix import scale


def test_basis_element_validation():
    BasisElement(Fraction(1), 1, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        BasisElement(Fraction(1), 1, 1, 2, 2, 2)  # gcd(2,2) != 1
    with pytest.raises(ValueError):
        BasisElement(Fraction(1), 1, 1, 4, 2, 4)  # gcd(4,2,4) != 1
    with pytest.raises(ValueError):
        BasisElement(Fraction(1), 2, 1, 1, 1, 1)  # k > p
    with pytest.raises(ValueError):
        BasisElement(Fraction(1), 1, 1, 2, 3, 1)  # j1 > i


def test_unit_class_examples():
    assert unit_class(BasisElement(Fraction(1), 1, 1, 1, 1, 1)).rep == as_matrix([[1]])
    e = unit_class(BasisElement(Fraction(1), 1, 1, 2, 1, 2))
    assert e.rep == as_matrix([[0, 1], [0, 0]])
    f = unit_class(BasisElement(Fraction(1, 2), 1, 2, 1, 1, 1))
    assert f.rep == as_matrix([[0, 1]])


def test_unit_class_rep_is_the_kron_unit():
    # the named product is already irreducible, so it survives canonicalization
    for e in enumerate_basis(Fraction(2, 3), 4):
        direct = kron(
            e_matrix(2, 3, e.k - 1, e.l - 1), e_matrix(e.i, e.i, e.j1 - 1, e.j2 - 1)
        )
        assert unit_class(e).rep == direct


def test_gcd_chain_examples():
    assert gcd_chain(2, 2) == GcdChain((2,), (1,))
    assert gcd_chain(6, 4).f == (2, 2)
    assert gcd_chain(6, 4).g == (3,)
    assert gcd_chain(4, 2, 4).f == (2,)
    assert gcd_chain(4, 2, 4).g == (1,)
    assert gcd_chain(3, 1).g == ()  # j = 1 has an empty minus chain


def test_gcd_chain_partial_sums():
    for i in range(1, 9):
        for j in range(1, i + 1):
            ch = gcd_chain(i, j)
            assert sum(ch.f) == j and sum(ch.g) == j - 1
            assert all(i % f == 0 for f in ch.f)


def test_gcd_chain_validation():
    with pytest.raises(ValueError):
        gcd_chain(3, 4)
    with pytest.raises(ValueError):
        gcd_chain(4, 3, 2)  # needs j1 < j2


def test_decompose_unit_examples():
    c = decompose_unit(Fraction(1), 1, 1, 2, 1, 1)
    assert c.terms == {BasisElement(Fraction(1), 1, 1, 2, 1, 1): Fraction(1)}
    c = decompose_unit(Fraction(1), 1, 1, 2, 2, 2)
    assert c.terms == {
        BasisElement(Fraction(1), 1, 1, 1, 1, 1): Fraction(1),
        BasisElement(Fraction(1), 1, 1, 2, 1, 1): Fraction(-1),
    }
    c = decompose_unit(Fraction(1), 1, 1, 4, 2, 4)
    assert c.terms == {
        BasisElement(Fraction(1), 1, 1, 2, 1, 2): Fraction(1),
        BasisElement(Fraction(1), 1, 1, 4, 1, 3): Fraction(-1),
    }


def _lifted_sum(coords: Coordinates, size: int):
    """Evaluate a mu=1 coordinate combination as a size x size matrix."""
    acc = zeros(size, size)
    for e, c in coords.terms.items():
        unit = e_matrix(e.i, e.i, e.j1 - 1, e.j2 - 1)
        acc = add(acc, scale(c, kron(unit, identity(size // e.i))))
    return acc


@pytest.mark.parametrize("i", range(1, 9))
def test_telescoping_all_units(i):
    # signed chain sum reproduces every unit after lifting, both kinds
    # and both off-diagonal orientations
    for j1 in range(1, i + 1):
        for j2 in range(1, i + 1):
            coords = decompose_unit(Fraction(1), 1, 1, i, j1, j2)
            assert _lifted_sum(coords, i) == e_matrix(i, i, j1 - 1, j2 - 1)


def test_decompose_class_examples():
    assert decompose_class(canonicalize(zeros(1, 2))).terms == {}
    c = decompose_class(canonicalize(as_matrix([[1, 2]])))
    assert c.terms == {
        BasisElement(Fraction(1, 2), 1, 1, 1, 1, 1): Fraction(1),
        BasisElement(Fraction(1, 2), 1, 2, 1, 1, 1): Fraction(2),
    }
    c = decompose_class(canonicalize(as_matrix([[2, 0], [0, 3]])))
    assert c.terms == {
        BasisElement(Fraction(1), 1, 1, 1, 1, 1): Fraction(3),
        BasisElement(Fraction(1), 1, 1, 2, 1, 1): Fraction(-1),
    }


def test_decompose_rejects_float_classes():
    from semitensor import FLOAT64, from_rows

    x = canonicalize(from_rows([[1.0, 2.0]], FLOAT64), rtol=0.0)
    with pytest.raises(ValueError):
        decompose_class(x)


def test_reconstruct_examples():
    assert reconstruct(Coordinates(Fraction(1), {})) == zero_class(Fraction(1))
    e = BasisElement(Fraction(1), 1, 1, 1, 1, 1)
    assert reconstruct(Coordinates(Fraction(1), {e: Fraction(1)})).rep == as_matrix([[1]])


def test_reconstruct_matches_pairwise_folding():
    # one-pass accumulation must agree with folding class additions
    rng = random.Random(59)
    for _ in range(10):
        x = canonicalize(rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4)))
        coords = decompose_class(x)
        folded = zero_class(x.mu)
        for e, c in coords.terms.items():
            folded = class_add(folded, scalar_mul(c, unit_class(e)))
        assert reconstruct(coords) == folded == x


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)])
def test_reconstruct_is_at_the_lcm_of_the_term_sizes(mu):
    # Signed coefficients, with a term's lifted cell often cancelled by a
    # term of twice its size: the class still sits at the lcm of the sizes,
    # is irreducible, and decomposes back into exactly its coordinates.
    rng = random.Random(157)
    pool = enumerate_basis(mu, 6)
    coeffs = [Fraction(v) for v in (1, -1, 2, -2, "1/2", "-1/3")]
    for _ in range(25):
        terms = {rng.choice(pool): rng.choice(coeffs) for _ in range(rng.randint(1, 4))}
        e = rng.choice(list(terms))
        j = 2 * e.j1 - 1  # the cell (j1, j1) of size i covers (j, j) of size 2i
        if e.j1 == e.j2 and 2 * e.i <= 6 and gcd(2 * e.i, j) == 1:
            terms.setdefault(BasisElement(mu, e.k, e.l, 2 * e.i, j, j), -terms[e])
        x = reconstruct(Coordinates(mu, terms))
        assert x.k0 == lcm(*(e.i for e in terms))
        assert canonicalize(x.rep) == x
        assert decompose_class(x).terms == terms


def test_reconstruct_checks_size_before_allocating():
    # one term at i = 3200 would be a 3200 x 3200 class, over the budget
    e = BasisElement(Fraction(1), 1, 1, 3200, 1, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            reconstruct(Coordinates(Fraction(1), {e: Fraction(1)}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _assert_round_trip(x):
    # every emitted index meets the gcd conditions, and the expansion
    # reconstructs the class
    coords = decompose_class(x)
    for e in coords.terms:
        if e.j1 == e.j2:
            assert gcd(e.i, e.j1) == 1
        else:
            assert e.i >= 2 and gcd(e.i, e.j1, e.j2) == 1
    assert reconstruct(coords) == x


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
def test_round_trip_random_classes(mu):
    rng = random.Random(61)
    for _ in range(15):
        k0 = rng.randint(1, 6)
        _assert_round_trip(canonicalize(rand_matrix(rng, k0 * mu.numerator, k0 * mu.denominator)))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_generator_units_decompose(p, q):
    # every single-entry class decomposes and reconstructs, k0 <= 6
    for k0 in range(1, 7):
        for idx_i in range(k0 * p):
            for idx_j in range(k0 * q):
                x = canonicalize(e_matrix(k0 * p, k0 * q, idx_i, idx_j))
                assert reconstruct(decompose_class(x)) == x


def test_in_span_examples():
    assert in_span(zero_class(Fraction(1)), [])
    one = canonicalize(as_matrix([[1]]))
    d11 = canonicalize(e_matrix(2, 2, 0, 0))
    d22 = canonicalize(e_matrix(2, 2, 1, 1))
    assert in_span(one, [d11, d22])
    # a strictly finer off-diagonal unit is not reachable from coarser levels
    e12 = canonicalize(e_matrix(2, 2, 0, 1))
    assert not in_span(e12, [one])


def test_in_span_rejects_bad_inputs():
    from semitensor import FLOAT64, from_rows

    one = canonicalize(as_matrix([[1]]))
    with pytest.raises(ValueError):
        in_span(one, [canonicalize(as_matrix([[1, 2]]))])
    with pytest.raises(ValueError):
        in_span(canonicalize(from_rows([[1.0]], FLOAT64)), [one])


def test_independent_examples():
    elems = [e for e in enumerate_basis(Fraction(1), 4) if e.j1 == e.j2]
    assert independent([unit_class(e) for e in elems])
    one = canonicalize(as_matrix([[1]]))
    d11 = canonicalize(e_matrix(2, 2, 0, 0))
    d22 = canonicalize(e_matrix(2, 2, 1, 1))
    assert not independent([one, d11, d22])
    assert independent([d11])


def test_enumerate_basis_examples():
    assert enumerate_basis(Fraction(1), 1) == [BasisElement(Fraction(1), 1, 1, 1, 1, 1)]
    got = [(e.kind, e.i, e.j1, e.j2) for e in enumerate_basis(Fraction(1), 2)]
    assert got == [("D", 1, 1, 1), ("D", 2, 1, 1), ("N", 2, 1, 2), ("N", 2, 2, 1)]
    got = [(e.k, e.l, e.i) for e in enumerate_basis(Fraction(1, 2), 1)]
    assert got == [(1, 1, 1), (1, 2, 1)]


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(-1, 2)])
def test_enumerate_basis_rejects_nonpositive_ratio(mu):
    with pytest.raises(ValueError):
        enumerate_basis(mu, 2)


def test_enumerate_basis_checks_size_before_building(monkeypatch):
    # the bound p*q*(1 + 4 + ... + i_max^2) is checked before any element
    # is built: i_max = 10^4 would be about 3*10^11 elements
    with pytest.raises(ValueError, match="budget"):
        enumerate_basis(Fraction(1), 10**4)
    assert len(enumerate_basis(Fraction(1), 80)) == 144408  # bound 173880
    bound = 2 * (1 + 4 + 9)  # mu = 1/2, i_max = 3
    monkeypatch.setattr(semitensor.basis, "_MAX_ELEMENTS", bound - 1)
    with pytest.raises(ValueError, match="budget"):
        enumerate_basis(Fraction(1, 2), 3)
    monkeypatch.setattr(semitensor.basis, "_MAX_ELEMENTS", bound)
    assert len(enumerate_basis(Fraction(1, 2), 3)) == 2 * (1 + 3 + 8)


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(1, 2), Fraction(2, 3)])
def test_span_and_rank_match_lifted_references(mu):
    # coordinate elimination against rank of the lcm lifts, on families of
    # dense classes and units with representative sizes k0 = 1..3, some
    # made dependent by a combination or a zero member
    rng = random.Random(103)
    p, q = mu.numerator, mu.denominator
    units = enumerate_basis(mu, 3)

    def member():
        if rng.random() < 0.5:
            k0 = rng.randint(1, 3)
            return canonicalize(rand_matrix(rng, k0 * p, k0 * q))
        return unit_class(rng.choice(units))

    def combination(classes):
        acc = zero_class(mu)
        for x in classes:
            acc = class_add(acc, scalar_mul(Fraction(rng.choice((-3, -1, 1, 2))), x))
        return acc

    seen = set()
    for trial in range(16):
        family = [member() for _ in range(rng.randint(0, 4))]
        if family and trial % 3 == 0:
            family.append(combination(rng.sample(family, rng.randint(1, len(family)))))
        if trial % 5 == 1:
            family.append(zero_class(mu))
        rng.shuffle(family)
        kind = trial % 3
        if kind == 0:
            target = zero_class(mu)
        elif kind == 1 and family:
            target = combination(family)
        else:
            target = member()
        verdicts = (independent(family), in_span(target, family))
        assert verdicts == (ref_independent(family), ref_in_span(target, family)), trial
        seen.update(enumerate(verdicts))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}
    assert independent([]) and in_span(zero_class(mu), [])
    assert not in_span(unit_class(units[0]), [])


@pytest.mark.parametrize("mu, i_max", [(Fraction(1), 12), (Fraction(1, 2), 8), (Fraction(2, 3), 6)])
def test_basis_family_independent_beyond_lift_reach(mu, i_max):
    # i <= 12 shares a lift of lcm(1..12) = 27720 rows, too large to lift
    family = [unit_class(e) for e in enumerate_basis(mu, i_max)]
    assert independent(family)


def test_dropped_i12_member_not_in_span_of_the_rest():
    rng = random.Random(107)
    mu = Fraction(1)
    elems = enumerate_basis(mu, 12)
    assert len(elems) == 528
    dropped = rng.choice([e for e in elems if e.i == 12])
    rest = [e for e in elems if e != dropped]
    coords = Coordinates(mu, {e: Fraction(rng.randint(1, 5)) for e in [dropped] + rng.sample(rest, 3)})
    target = reconstruct(coords)
    rest_classes = [unit_class(e) for e in rest]
    assert not in_span(target, rest_classes)
    assert in_span(target, rest_classes + [unit_class(dropped)])


def test_decompose_at_large_k0():
    # sums of units of every size 2..6 share the lift k0 = lcm(2..6) = 60
    rng = random.Random(109)
    mu = Fraction(1)
    for _ in range(4):
        x = zero_class(mu)
        for i in (2, 3, 4, 5, 6, rng.randint(2, 6)):
            unit = canonicalize(e_matrix(i, i, rng.randrange(i), rng.randrange(i)))
            x = class_add(x, scalar_mul(Fraction(rng.randint(1, 5), rng.randint(1, 3)), unit))
        assert x.k0 == 60
        _assert_round_trip(x)


def test_coordinates_unique_at_truncation():
    # the expansion is the only solution over the truncated basis: the
    # truncated family is independent and the expansion reconstructs
    rng = random.Random(67)
    mu = Fraction(1, 2)
    for _ in range(5):
        k0 = rng.randint(1, 4)
        x = canonicalize(rand_matrix(rng, k0, 2 * k0))
        coords = decompose_class(x)
        i_max = max((e.i for e in coords.terms), default=1)
        family = [unit_class(e) for e in enumerate_basis(mu, i_max)]
        assert independent(family)
        assert in_span(x, family)
        assert reconstruct(coords) == x


def test_coordinates_validation():
    e = BasisElement(Fraction(1), 1, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        Coordinates(Fraction(1), {e: Fraction(0)})
    with pytest.raises(ValueError):
        Coordinates(Fraction(1, 2), {e: Fraction(1)})
