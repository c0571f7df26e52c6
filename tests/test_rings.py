import itertools
import random

import pytest

from rowfin.rings import (_INTERNED, PRIME_BOUND, BaseRing, IntegerRing,
                          MatrixRing, ModularRing, PrimeField, RingError,
                          RingSpecError, _is_prime, parse_ring_spec, same_ring)


def elements(ring) -> list:
    """Every payload of a finite ring once, in enumeration order."""
    return [ring.nth_element(i) for i in range(ring.size())]


def test_parse_ring_spec_grammar():
    assert parse_ring_spec("Int").spec == "Int"
    assert parse_ring_spec("Zmod:6").n == 6
    assert parse_ring_spec("GF:7").n == 7
    mat = parse_ring_spec("Mat:2:GF:2")
    assert isinstance(mat, MatrixRing) and mat.k == 2


def test_parse_ring_spec_rejects_bad_specs():
    with pytest.raises(RingSpecError):
        parse_ring_spec("GF:4")  # not prime
    with pytest.raises(RingSpecError):
        parse_ring_spec("Zmod:1")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Mat:0:GF:2")
    with pytest.raises(RingSpecError):
        parse_ring_spec("Frob:3")


def test_mat2_gf2_element_count_by_enumeration():
    ring = parse_ring_spec("Mat:2:GF:2")
    elems = set(elements(ring))
    assert len(elems) == 16


def test_modular_examples():
    z5 = ModularRing(5)
    assert z5.add(3, 4) == 2
    z6 = ModularRing(6)
    assert z6.mul(2, 3) == 0


def test_matrix_unit_product():
    ring = parse_ring_spec("Mat:2:GF:2")
    e12 = ((0, 1), (0, 0))
    e21 = ((1, 0), (0, 0))[::-1]
    e11 = ((1, 0), (0, 0))
    assert ring.mul(e12, e21) == e11


def _ideal_closure(ring, elems, seed):
    grown = set(seed)
    changed = True
    while changed:
        changed = False
        items = list(grown)
        for a in items:
            for b in items:
                s = ring.add(a, b)
                if s not in grown:
                    grown.add(s)
                    changed = True
            for r in elems:
                for c in (ring.mul(r, a), ring.mul(a, r), ring.neg(a)):
                    if c not in grown:
                        grown.add(c)
                        changed = True
    return frozenset(grown)


def _two_sided_ideals(ring):
    """Brute-force ideal enumeration."""
    elems = elements(ring)
    found = {_ideal_closure(ring, elems, {ring.zero})}
    queue = list(found)
    while queue:
        ideal = queue.pop()
        for x in elems:
            if x in ideal:
                continue
            bigger = _ideal_closure(ring, elems, set(ideal) | {x})
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return found


def test_simple_hint_matches_ideal_enumeration():
    # Zmod:6 has the proper nonzero ideal {0,2,4}.
    z6 = ModularRing(6)
    ideals = {frozenset(i) for i in _two_sided_ideals(z6)}
    assert frozenset({0, 2, 4}) in ideals
    # Mat:2:GF:2 has only the two trivial ideals.
    mat = parse_ring_spec("Mat:2:GF:2")
    ideals = {frozenset(i) for i in _two_sided_ideals(mat)}
    sizes = sorted(len(i) for i in ideals)
    assert sizes == [1, 16]


RINGS_SMALL = ["Zmod:2", "Zmod:6", "GF:5", "Mat:2:GF:2", "Zmod:36"]


@pytest.mark.parametrize("spec", RINGS_SMALL)
def test_ring_axioms_exhaustive(spec):
    ring = parse_ring_spec(spec)
    elems = elements(ring)
    assert len(elems) <= 36
    for a in elems:
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.mul(ring.one, a) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        for b in elems:
            assert ring.add(a, b) == ring.add(b, a)
            for c in elems:
                assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c))
                assert ring.mul(ring.add(a, b), c) == ring.add(
                    ring.mul(a, c), ring.mul(b, c))


def test_integer_axioms_randomized():
    ring = IntegerRing()
    rng = random.Random(0)
    for _ in range(500):
        a, b, c = (rng.randint(-(10**6), 10**6) for _ in range(3))
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b),
                                                       ring.mul(a, c))


@pytest.mark.parametrize("spec", RINGS_SMALL + ["Int"])
def test_canonicalization_idempotent(spec):
    ring = parse_ring_spec(spec)
    rng = random.Random(1)
    for _ in range(30):
        x = ring.random_payload(rng)
        assert ring.canon(ring.canon(x)) == ring.canon(x)


def randrange_draw(ring, rng):
    """The oracle for `random_payload`: `randrange` per cell, row by row."""
    if isinstance(ring, MatrixRing):
        return tuple(tuple(randrange_draw(ring.base, rng) for _ in range(ring.k))
                     for _ in range(ring.k))
    if isinstance(ring, IntegerRing):
        return rng.randint(-(10**6), 10**6)
    return rng.randrange(ring.n)


SCALAR_DRAW_SPECS = [f"Zmod:{n}" for n in (2, 3, 5, 6, 7, 8, 9)] + ["GF:2", "GF:7", "Int"]
MATRIX_DRAW_SPECS = ["Mat:2:GF:2", "Mat:3:Zmod:6", "Mat:2:Int", "Mat:2:Mat:2:GF:2"]
DRAW_SPECS = SCALAR_DRAW_SPECS + MATRIX_DRAW_SPECS


def assert_draws_match_randrange(ring):
    """10**4 raw-bit draws equal the randrange draws, and leave the
    generator in the same state (after each of the first 50 of a seed,
    and at the end)."""
    for seed in (0, 1, 7, 4242):
        fast, slow = random.Random(seed), random.Random(seed)
        for i in range(2500):
            assert ring.random_payload(fast) == randrange_draw(ring, slow)
            if i < 50:
                assert fast.getstate() == slow.getstate()
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("spec", SCALAR_DRAW_SPECS)
def test_random_payload_matches_randrange(spec):
    assert_draws_match_randrange(parse_ring_spec(spec))


@pytest.mark.parametrize("spec", MATRIX_DRAW_SPECS)
def test_random_payload_matches_the_per_cell_draw(spec):
    assert_draws_match_randrange(parse_ring_spec(spec))


@pytest.mark.parametrize("spec", DRAW_SPECS)
def test_bulk_random_payloads_match_single_draws(spec):
    ring = parse_ring_spec(spec)
    fast, slow = random.Random(7), random.Random(7)
    for count in (0, 1, 2, 5, 40):
        assert ring.random_payloads(fast, count) == [
            randrange_draw(ring, slow) for _ in range(count)]
    assert fast.getstate() == slow.getstate()


def test_finite_enumeration_lists_each_element_once():
    for spec in ["Zmod:6", "GF:3", "Mat:2:GF:2"]:
        ring = parse_ring_spec(spec)
        seen = [ring.nth_element(i) for i in range(ring.size())]
        assert len(set(seen)) == ring.size()


def test_infinite_enumeration_injective():
    ring = IntegerRing()
    vals = [ring.nth_element(i) for i in range(50)]
    assert len(set(vals)) == 50
    assert vals[:5] == [0, -1, 1, -2, 2]


def test_prime_field_requires_prime():
    with pytest.raises(RingSpecError):
        PrimeField(4)
    assert PrimeField(7).spec == "GF:7"


def trial_division(n: int) -> bool:
    """Primality by trial division up to sqrt(n): the slow test that
    Miller-Rabin replaced, kept as its oracle."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 200_000) if _is_prime(n) != trial_division(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,            # strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,   # strong pseudoprime to every prime base up to 23
])
def test_strong_pseudoprimes_are_not_prime(n):
    assert not _is_prime(n) and not trial_division(n)


def test_large_prime_moduli_below_the_bound_are_exact():
    assert _is_prime(2**61 - 1) and _is_prime(100000000000000000039)
    assert not _is_prime(1000003 * (2**61 - 1))
    assert parse_ring_spec("GF:100000000000000000039").n == 100000000000000000039
    # At or above the bound a factor up to 41 still answers exactly.
    assert not _is_prime(PRIME_BOUND + 1) and not _is_prime(41 * 2**89)


@pytest.mark.parametrize("p", [PRIME_BOUND, 2**89 - 1])
def test_moduli_above_the_bound_are_refused(p):
    with pytest.raises(RingSpecError, match=str(PRIME_BOUND)):
        parse_ring_spec(f"GF:{p}")


@pytest.mark.parametrize("p", [2, 3, 7])
def test_prime_field_inverse(p):
    field = PrimeField(p)
    for a in range(1, p):
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(RingError):
        field.inv(0)


def central_payloads(ring):
    """The centre of a finite ring by enumeration: every payload that
    commutes with every payload, in enumeration order.  The oracle for
    `is_central`."""
    elems = elements(ring)
    return [s for s in elems
            if all(ring.mul(s, t) == ring.mul(t, s) for t in elems)]


# Every finite ring the tests build with at most 4,096 elements, plus a
# nested one.
SMALL_RING_SPECS = ["GF:2", "GF:3", "GF:5", "GF:7", "Zmod:2", "Zmod:3",
                    "Zmod:5", "Zmod:6", "Zmod:36", "Mat:1:GF:2", "Mat:1:GF:3",
                    "Mat:1:GF:5", "Mat:2:GF:2", "Mat:2:GF:3", "Mat:2:Zmod:3",
                    "Mat:2:Zmod:6", "Mat:3:GF:2", "Mat:1:Mat:2:GF:2"]


@pytest.mark.parametrize("spec", SMALL_RING_SPECS)
def test_is_central_matches_the_enumerated_centre(spec):
    ring = parse_ring_spec(spec)
    assert ring.size() <= 4096
    assert [s for s in elements(ring) if ring.is_central(s)] == \
        central_payloads(ring)


def test_central_payloads():
    z6 = ModularRing(6)
    assert sorted(central_payloads(z6)) == [0, 1, 2, 3, 4, 5]
    mat = parse_ring_spec("Mat:2:GF:2")
    assert central_payloads(mat) == [mat.zero, mat.one]


@pytest.mark.parametrize("spec", ["Mat:1:Int", "Mat:2:Int", "Mat:2:Mat:2:GF:2"])
def test_is_central_on_rings_too_large_to_enumerate(spec):
    """M_k(R) is generated by its matrix units and the scalars r·I, so a
    payload is central iff it commutes with all of them.  Checked on the
    first 300 payloads, with r over R's first 16 elements (all of
    Mat:2:GF:2; over Int every r·I is central anyway)."""
    ring = parse_ring_spec(spec)
    k, base = ring.k, ring.base

    def placed(cells):
        return tuple(tuple(cells.get((i, j), base.zero) for j in range(k))
                     for i in range(k))

    gens = [placed({(i, j): base.one}) for i in range(k) for j in range(k)]
    gens += [placed({(i, i): base.nth_element(r) for i in range(k)})
             for r in range(16)]
    for index in range(300):
        a = ring.nth_element(index)
        assert ring.is_central(a) == all(
            ring.mul(a, g) == ring.mul(g, a) for g in gens)
    assert ring.is_central(ring.zero) and ring.is_central(ring.one)


def test_matrix_payload_text_roundtrip():
    ring = parse_ring_spec("Mat:2:GF:2")
    for elem in elements(ring):
        assert ring.parse_payload(ring.format_payload(elem)) == elem


@pytest.mark.parametrize("spec", ["Mat:1:Int", "Mat:2:Int"])
def test_infinite_matrix_enumeration_injective(spec):
    ring = parse_ring_spec(spec)
    elems = [ring.nth_element(i) for i in range(500)]
    assert len(set(elems)) == 500
    # Index bits are dealt round-robin, one to each cell in turn, so the
    # first 2**cells indices are the matrices over Int's elements 0, -1.
    k = ring.k
    assert set(elems[:2 ** (k * k)]) == {
        tuple(zip(*[iter(cells)] * k))
        for cells in itertools.product((0, -1), repeat=k * k)}


def test_integer_enumeration_order():
    assert [IntegerRing().nth_element(i) for i in range(5)] == [0, -1, 1, -2, 2]


def test_parsed_rings_are_interned():
    assert parse_ring_spec("GF:5") is parse_ring_spec(" GF:5")
    mat = parse_ring_spec("Mat:2:Zmod:6")
    assert mat.base is parse_ring_spec("Zmod:6")
    # Rings built directly are the same objects as parsed ones.
    assert ModularRing(6) is mat.base


def test_constructed_rings_are_interned():
    assert PrimeField(5) is parse_ring_spec("GF:5")
    assert ModularRing(6) is parse_ring_spec("Mat:2:Zmod:6").base
    assert MatrixRing(PrimeField(2), 2) is parse_ring_spec("Mat:2:GF:2")
    assert IntegerRing() is parse_ring_spec("Int")
    # One spec, one object: a prime field is not the ring of its residues.
    assert ModularRing(5) is not PrimeField(5)
    # Equality and hashing are identity.
    assert "__eq__" not in vars(BaseRing) and "__hash__" not in vars(BaseRing)
    assert len({PrimeField(7), parse_ring_spec("GF:07")}) == 1


def test_failed_construction_interns_nothing():
    gf3 = PrimeField(3)
    before = dict(_INTERNED)
    for build in (lambda: PrimeField(4), lambda: ModularRing(1),
                  lambda: MatrixRing(gf3, 0)):
        with pytest.raises(RingSpecError):
            build()
    assert _INTERNED == before
    assert "GF:4" not in _INTERNED and "Zmod:1" not in _INTERNED


def test_ring_mismatch_is_one_identity_check():
    gf5 = parse_ring_spec("GF:5")
    assert same_ring(gf5, PrimeField(5)) is gf5
    with pytest.raises(RingError, match=r"^ring mismatch: GF:5 vs Zmod:5$"):
        same_ring(gf5, ModularRing(5))


def _reference_matrix_ops(ring):
    """(add, mul) for a matrix ring: entrywise sums and the k^3 product.

    Written without shortcuts; a matrix base ring gets its own reference
    ops, so nested rings never reach `MatrixRing.add` or `.mul`.
    """
    base, k = ring.base, ring.k
    if isinstance(base, MatrixRing):
        base_add, base_mul = _reference_matrix_ops(base)
    else:
        base_add, base_mul = base.add, base.mul

    def add(a, b):
        return tuple(tuple(base_add(a[i][j], b[i][j]) for j in range(k))
                     for i in range(k))

    def mul(a, b):
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = base.zero
                for t in range(k):
                    acc = base_add(acc, base_mul(a[i][t], b[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    return add, mul


def _fresh_copy(ring, payload):
    """An equal payload that shares no tuple object with `payload`."""
    copy = ring.parse_payload(ring.format_payload(payload))
    assert copy == payload and copy is not payload
    return copy


def test_matrix_ops_match_the_reference_on_every_mat2_gf2_pair():
    ring = parse_ring_spec("Mat:2:GF:2")
    add, mul = _reference_matrix_ops(ring)
    elems = elements(ring)
    # The enumeration builds its own tuples: its one and zero are equal
    # to the ring's, but not the same objects.
    assert ring.one in elems and ring.zero in elems
    assert all(e is not ring.one and e is not ring.zero for e in elems)
    for a in elems:
        for b in elems:
            assert ring.add(a, b) == add(a, b)
            assert ring.mul(a, b) == mul(a, b)


@pytest.mark.parametrize("spec", ["Mat:3:Zmod:6", "Mat:2:Int",
                                  "Mat:2:Mat:2:GF:2"])
def test_matrix_ops_match_the_reference_on_random_pairs(spec):
    ring = parse_ring_spec(spec)
    add, mul = _reference_matrix_ops(ring)
    rng = random.Random(5)
    pool = [ring.random_payload(rng) for _ in range(40)]
    pool += [_fresh_copy(ring, ring.one), _fresh_copy(ring, ring.zero)]
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
    pairs += [(x, y) for x in pool[-2:] for y in pool]
    pairs += [(y, x) for x in pool[-2:] for y in pool]
    for a, b in pairs:
        assert ring.add(a, b) == add(a, b)
        assert ring.mul(a, b) == mul(a, b)


def test_matrix_identity_operands_skip_the_base_ring(monkeypatch):
    ring = parse_ring_spec("Mat:2:Zmod:6")
    one, zero = _fresh_copy(ring, ring.one), _fresh_copy(ring, ring.zero)
    a = ((1, 2), (3, 4))

    def unreachable(*args):
        raise AssertionError("base ring reached")

    monkeypatch.setattr(ring.base, "add", unreachable)
    monkeypatch.setattr(ring.base, "mul", unreachable)
    assert ring.mul(one, a) is a and ring.mul(a, one) is a
    assert ring.add(zero, a) is a and ring.add(a, zero) is a
