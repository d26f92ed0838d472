"""Basis elements, unit expansions, decomposition and span checks."""

import dataclasses
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import semitensor.basis
import semitensor.matrix
from helpers import (
    _ref_chain,
    add,
    as_matrix,
    counting_entries,
    e_matrix,
    rand_matrix,
    ref_coordinates,
    ref_in_span,
    ref_independent,
    ref_unit_expansion,
)

from semitensor import (
    BasisElement,
    Coordinates,
    Matrix,
    MatrixClass,
    canonicalize,
    class_add,
    decompose_class,
    decompose_unit,
    enumerate_basis,
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
    for mu in (Fraction(0), Fraction(-1, 2)):  # the ratio first, not as an index range
        with pytest.raises(ValueError, match=f"ratio must be positive, got {mu}$"):
            BasisElement(mu, 1, 1, 1, 1, 1)


def test_basis_element_hash_agrees_with_equality():
    # an int mu equals the Fraction, so it hashes alike; the public and the
    # trusted constructor build the same key, and each finds its term
    for mu, idx, built in (
        (Fraction(1), (1, 1, 1, 1, 1), BasisElement(1, 1, 1, 1, 1, 1)),
        (Fraction(1), (1, 1, 6, 5, 2), BasisElement(1, 1, 1, 6, 5, 2)),
        (Fraction(2, 3), (2, 3, 4, 1, 2), BasisElement(Fraction(2, 3), 2, 3, 4, 1, 2)),
    ):
        public, trusted = BasisElement(mu, *idx), BasisElement._trusted(mu, *idx)
        assert built == public == trusted
        assert hash(built) == hash(public) == hash(trusted)
        for c in (decompose_class(unit_class(trusted)), decompose_unit(mu, *idx)):
            assert all(c.terms[e] == 1 for e in (built, public, trusted))
    assert hash(BasisElement(1, 1, 1, 2, 1, 2)) != hash(BasisElement(1, 1, 1, 2, 2, 1))


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
    # step sizes of the plus chain from (j1, j2) and of the minus chain from
    # (j1 - 1, j2 - 1); decompose_unit emits exactly these chains, signed
    def steps(i, lo, hi):
        return tuple(i // size for size, _, _ in _ref_chain(i, lo, hi))

    for i, j1, j2, f, g in [
        (2, 2, 2, (2,), (1,)),
        (6, 4, 4, (2, 2), (3,)),
        (4, 2, 4, (2,), (1,)),
        (3, 1, 1, (1,), ()),  # j = 1 has an empty minus chain
    ]:
        assert steps(i, j1, j2) == f
        assert steps(i, j1 - 1, j2 - 1) == g
        coords = decompose_unit(Fraction(1), 1, 1, i, j1, j2)
        got = {(e.i, e.j1, e.j2): c for e, c in coords.terms.items()}
        assert got == ref_unit_expansion(i, j1, j2)


def test_gcd_chain_partial_sums():
    # every greedy step s divides i, and the steps sum to the target index
    for i in range(1, 9):
        for j in range(1, i + 1):
            for target in (j, j - 1):
                steps = [i // size for size, _, _ in _ref_chain(i, target, target)]
                assert sum(steps) == target
                assert all(i % s == 0 for s in steps)


def test_decompose_unit_validation():
    for k, l, i, j1, j2 in [
        (1, 1, 3, 4, 1),  # j1 > i
        (1, 1, 3, 1, 4),  # j2 > i
        (1, 1, 3, 0, 1),  # indices are 1-based
        (1, 2, 2, 1, 1),  # l > q
        (2, 1, 2, 1, 1),  # k > p
    ]:
        with pytest.raises(ValueError, match="out of range"):
            decompose_unit(Fraction(1), k, l, i, j1, j2)


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
    # the 6 x 6 unit at (4, 4): gcd(6, 4) = 2, so its plus chain steps 4 -> 2
    # -> 0, and gcd(6, 3) = 3 takes the minus chain 3 -> 0 in one step
    c = decompose_unit(Fraction(1), 1, 1, 6, 4, 4)
    assert c.terms == {
        BasisElement(Fraction(1), 1, 1, 3, 2, 2): Fraction(1),
        BasisElement(Fraction(1), 1, 1, 3, 1, 1): Fraction(1),
        BasisElement(Fraction(1), 1, 1, 2, 1, 1): Fraction(-1),
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


def test_unit_class_checks_size_before_allocating(monkeypatch):
    # the unit of mu = 2/3 at i = 4 is 8 x 12, one entry over this budget
    e = BasisElement(Fraction(2, 3), 2, 3, 4, 1, 2)
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", 2 * 3 * 4 * 4 - 1)
    with counting_entries() as count, pytest.raises(ValueError, match="budget"):
        unit_class(e)
    assert count.entries == 0
    monkeypatch.setattr(semitensor.matrix, "_MAX_ENTRIES", 2 * 3 * 4 * 4)
    assert unit_class(e).rep == e_matrix(8, 12, 4, 9)


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
    for mu in (Fraction(0), Fraction(-1, 2)):  # even with no term to check it
        with pytest.raises(ValueError, match="ratio must be positive"):
            Coordinates(mu, {})


def test_coordinates_coerce_coefficients():
    # an int coefficient becomes a Fraction, so the class builds; a float
    # or a bool is refused at construction with as_scalar's message
    e = BasisElement(Fraction(1), 1, 1, 2, 1, 1)
    c = Coordinates(Fraction(1), {e: 3})
    assert c.terms == {e: Fraction(3)} and type(c.terms[e]) is Fraction
    assert reconstruct(c) == canonicalize(as_matrix([[3, 0], [0, 0]]))
    with pytest.raises(ValueError, match="implicit float"):
        Coordinates(Fraction(1), {e: 0.5})
    with pytest.raises(ValueError, match="refusing bool"):
        Coordinates(Fraction(1), {e: True})
    with pytest.raises(ValueError, match="zero coefficients"):
        Coordinates(Fraction(1), {e: 0})


def test_coordinates_cannot_change_after_their_check():
    # reconstruct trusts checked terms, so they are read-only: a float, an
    # int or a zero written in later would build a rational matrix holding
    # a float, an int, or a class at a reducible level
    e = BasisElement(Fraction(1), 1, 1, 2, 1, 2)
    given = {e: Fraction(1)}
    built = (Coordinates(Fraction(1), given), Coordinates._trusted(Fraction(1), dict(given)),
             decompose_unit(Fraction(1), 1, 1, 2, 1, 2),
             decompose_class(canonicalize(e_matrix(2, 2, 0, 1))))
    for c in built:
        for value in (0.5, 2, Fraction(0)):
            with pytest.raises(TypeError):
                c.terms[e] = value
        with pytest.raises(TypeError):
            del c.terms[e]
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.terms = {e: 0.5}
        assert reconstruct(c) == canonicalize(e_matrix(2, 2, 0, 1))
        assert repr(c) == (
            "Coordinates(mu=Fraction(1, 1), terms={BasisElement(mu=Fraction(1, 1), "
            "k=1, l=1, i=2, j1=1, j2=2): Fraction(1, 1)})"
        )
    # the checked copy is the coordinates' own: the caller's dict stays theirs
    given[e] = 0.5
    assert built[0].terms == {e: Fraction(1)}
    with pytest.raises(TypeError, match="unhashable"):
        hash(built[0])


def test_span_checks_accept_generators():
    # the classes are read once, so a generator is not used up by the
    # ratio check before the elimination sees it
    x = canonicalize(as_matrix([[1, 2], [3, 4]]))
    assert not independent(c for c in [x, x])
    assert independent(c for c in [x])
    assert in_span(x, (c for c in [x]))
    assert not in_span(unit_class(BasisElement(Fraction(1), 1, 1, 2, 1, 2)), (c for c in [x]))


# The first hundred primes above 10^4: entries with their own large
# denominators put hundreds of bits into the integer rows and pivots.
_LARGE_PRIMES = [n for n in range(10**4, 10**4 + 1200)
                 if all(n % d for d in range(2, isqrt(n) + 1))][:100]


@hs.composite
def span_problems(draw):
    """A ratio, a family and a target: units with i <= 3, dense classes at
    k0 <= 3, combinations of members and zero members; the entries small
    fractions or, half the time, each over its own prime near 10^4."""
    mu = draw(hs.sampled_from((Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3))))
    p, q = mu.numerator, mu.denominator
    large = draw(hs.booleans())

    def value():
        if large:
            return Fraction(draw(hs.integers(-10**4, 10**4)), draw(hs.sampled_from(_LARGE_PRIMES)))
        return Fraction(draw(hs.integers(-3, 3)), draw(hs.integers(1, 3)))

    def member():
        if draw(hs.booleans()):
            return unit_class(draw(hs.sampled_from(enumerate_basis(mu, 3))))
        k0 = draw(hs.integers(1, 3))
        return canonicalize(as_matrix([[value() for _ in range(k0 * q)] for _ in range(k0 * p)]))

    def combination(classes):
        acc = zero_class(mu)
        for x in classes:
            acc = class_add(acc, scalar_mul(value() or Fraction(1), x))
        return acc

    family = [member() for _ in range(draw(hs.integers(0, 5)))]
    if family and draw(hs.booleans()):
        family.append(combination(draw(hs.lists(hs.sampled_from(family), min_size=1, max_size=3))))
    if draw(hs.integers(0, 4)) == 0:
        family.append(zero_class(mu))
    family = draw(hs.permutations(family))
    kind = draw(hs.sampled_from(("zero", "combination", "member")))
    if kind == "zero":
        target = zero_class(mu)
    elif kind == "combination" and family:
        target = combination(draw(hs.lists(hs.sampled_from(family), min_size=1, max_size=4)))
    else:
        target = member()
    return family, target


@settings(deadline=None, max_examples=150)
@given(span_problems())
def test_span_and_rank_verdicts_are_the_lifted_references(problem):
    family, target = problem
    assert independent(family) == ref_independent(family)
    assert in_span(target, family) == ref_in_span(target, family)


def _dense_family(rng, k0, n):
    return [canonicalize(rand_matrix(rng, k0, k0, max_den=5)) for _ in range(n)]


@pytest.mark.parametrize("family", ["dense", "units"])
def test_span_checks_stay_on_integers(family, monkeypatch):
    # no Fraction is built between reading the classes and the verdict,
    # and every stored pivot row is ints with content 1, its pivot > 0
    rng = random.Random(127)
    if family == "dense":
        classes = _dense_family(rng, 12, 6)
    else:
        classes = [unit_class(e) for e in enumerate_basis(Fraction(1), 12)]
    picks = rng.sample(classes, 4)
    inside = class_add(class_add(picks[0], scalar_mul(Fraction(-3, 7), picks[1])), picks[2])
    dependent = classes + [class_add(picks[3], scalar_mul(Fraction(5, 2), picks[1]))]
    outside = canonicalize(e_matrix(13, 13, 0, 1))

    built, stored = [], []
    new, eliminate = Fraction.__new__, semitensor.basis._eliminate

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def recording(pivots, v):
        stored.append(pivots)
        return eliminate(pivots, v)

    monkeypatch.setattr(semitensor.basis, "_eliminate", recording)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    verdicts = (independent(classes), independent(dependent),
                in_span(inside, classes), in_span(outside, classes))
    monkeypatch.undo()
    assert verdicts == (True, False, True, False)
    assert built == []
    assert stored
    for pivots in stored:
        for key, row in pivots.items():
            assert key == min(row) and row[key] > 0
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1


def test_decompose_unit_matches_the_per_entry_route():
    for i in range(1, 13):
        for j1 in range(1, i + 1):
            for j2 in range(1, i + 1):
                for mu, k, l in ((Fraction(1), 1, 1), (Fraction(2, 3), 2, 3)):
                    got = decompose_unit(mu, k, l, i, j1, j2).terms
                    want = ref_unit_expansion(i, j1, j2)
                    assert {(e.i, e.j1, e.j2): c for e, c in got.items()} == want, (i, j1, j2)
                    assert all((e.k, e.l) == (k, l) for e in got)


# small, 97 and primes near 10^4, so the common denominator can be large
_DENOMINATORS = (1, 2, 3, 97, 9973, 10007, 10009)


@pytest.mark.parametrize("mu", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)])
def test_coordinates_match_the_per_entry_route(mu):
    # the carried integer weights give the coordinates of one telescope
    # per entry summed in Fractions: dense classes (prime and composite
    # k0, some entries zero) and sums of units lifted to L = 60 and 120
    rng = random.Random(113)
    p, q = mu.numerator, mu.denominator

    def value():
        return Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))

    def keyed(coords):
        return {e.sort_key(): c for e, c in coords.terms.items()}

    for k0 in (7, 11, 12, 30):
        zeros = rng.choice((0.0, 0.3, 0.6))
        rows = [[value() if rng.random() >= zeros else Fraction(0) for _ in range(k0 * q)]
                for _ in range(k0 * p)]
        x = canonicalize(as_matrix(rows))
        assert x.k0 == k0
        assert keyed(decompose_class(x)) == ref_coordinates(x), k0

    def unit(i):
        while True:
            j1, j2 = rng.randint(1, i), rng.randint(1, i)
            if gcd(i, j1, j2) == 1:
                return BasisElement(mu, rng.randint(1, p), rng.randint(1, q), i, j1, j2)

    # the first three sizes have lcm L, so every sum sits at level L
    for L, sizes in ((60, (3, 4, 5, 6, 10, 12, 15, 60)), (120, (3, 5, 8, 12, 24, 40, 120))):
        for _ in range(2):
            picks = {unit(i) for i in sizes[:3] + tuple(rng.sample(sizes, 3))}
            coords = Coordinates(mu, {e: value() or Fraction(1) for e in picks})
            x = reconstruct(coords)
            assert x.k0 == L
            assert keyed(decompose_class(x)) == ref_coordinates(x) == keyed(coords)

    # the workload's shape: a k0 = 60 representative with about 80
    # nonzeros, its zeros distinct objects (as from_rows builds them) or
    # one shared object (as reconstruct builds them)
    size = 60 * p * 60 * q
    nonzero = {idx: value() or Fraction(1) for idx in rng.sample(range(size), 80)}
    shared = Fraction(0)
    for zero in (Fraction, lambda: shared):
        data = tuple(nonzero[idx] if idx in nonzero else zero() for idx in range(size))
        x = MatrixClass(mu, Matrix(60 * p, 60 * q, data))
        assert canonicalize(x.rep).rep is x.rep
        assert keyed(decompose_class(x)) == ref_coordinates(x)
