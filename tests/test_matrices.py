import gc
import math
import random
from functools import reduce

import pytest
from oracle_reference import phi

import rowfin
from rowfin import matrices as mx
from rowfin.indexing import (AffineTable, IndexError_, LayerStep, SevenPartition,
                             _table_landing)
from rowfin.matrices import FinVec, MatrixError, RowFiniteMap, row_evals
from rowfin.rings import IntegerRing, PrimeField, RingError, parse_ring_spec
from rowfin.triangular import sandwich_A, sandwich_B
from rowfin.twogen import PHI, POSITION, SIGMA1_ROW

Z = IntegerRing()
GF2 = parse_ring_spec("GF:2")
GF5 = parse_ring_spec("GF:5")
Z6 = parse_ring_spec("Zmod:6")


def shift_map(ring, offset=1):
    return mx.from_index_map(ring, lambda a: a + offset)


def product(maps):
    """maps[0] maps[1] ... through `compose`."""
    return reduce(mx.compose, maps)


def factors_of(f):
    """The factors a chain's steps walk; any other map is its own factor."""
    return [step[0] for step in f.steps] if isinstance(f, mx.Chain) else [f]


def random_map(ring, rng, window=16, density=0.3):
    rows = {}
    for r in range(1, window + 1):
        entries = {c: ring.random_payload(rng)
                   for c in range(1, window + 1) if rng.random() < density}
        if entries:
            rows[r] = entries
    return mx.from_rows(ring, rows)


def test_finvec_prunes_zero_entries():
    v = FinVec(Z, {2: 1, 7: 3, 9: 0})
    assert v.support() == {2, 7}
    assert 9 not in v.entries
    assert FinVec.zero(Z).support() == frozenset()
    with pytest.raises(MatrixError):
        FinVec(Z, {0: 1})


def test_finvec_char2_cancellation():
    v = FinVec.unit(GF2, 1)
    assert not v.add(v).entries


def test_finvec_add_neg():
    v = FinVec(Z, {1: 2, 3: -1})
    assert not v.add(v.neg()).entries
    assert v.add(FinVec(Z, {3: 1})).support() == {1}


def test_finvec_add_sums_several_vectors_into_one():
    u, v, w = FinVec(Z, {1: 2, 3: -1}), FinVec(Z, {1: -2, 4: 5}), FinVec(Z, {1: 7})
    assert u.add(v, w) == u.add(v).add(w) == FinVec(Z, {1: 7, 3: -1, 4: 5})
    assert not u.add(u.neg(), w, w.neg()).entries
    assert u.add() == u and u.add().entries is not u.entries
    # Every summand's ring is checked, not only the first one's.
    with pytest.raises(RingError, match="ring mismatch: Int vs GF:5"):
        u.add(v, FinVec.unit(GF5, 1))


def test_projection_and_matrix_unit_rows():
    proj = mx.from_index_map(Z, lambda a: a if a % 2 == 0 else None)
    assert not proj.row(3).entries
    assert proj.row(4) == FinVec.unit(Z, 4)
    e25 = mx.matrix_unit(Z, 2, 5)
    assert e25.row(2) == FinVec.unit(Z, 5)
    assert not e25.row(1).entries


def test_add_maps_inverse():
    rng = random.Random(3)
    f = random_map(Z6, rng)
    total = mx.add_maps(f, mx.compose(f, mx.scalar_map(Z6, -1)))
    for a in range(1, 21):
        assert not total.row(a).entries


def test_matrix_unit_composition():
    e12 = mx.matrix_unit(Z, 1, 2)
    e23 = mx.matrix_unit(Z, 2, 3)
    e34 = mx.matrix_unit(Z, 3, 4)
    assert mx.first_mismatch(mx.compose(e12, e23), mx.matrix_unit(Z, 1, 3), 10) is None
    assert mx.first_mismatch(mx.compose(e12, e34), mx.zero_map(Z), 10) is None


def test_vector_application():
    A = sandwich_A(Z)
    assert FinVec.unit(Z, 2).apply(A) == FinVec(Z, {2: 1, 3: 1})
    assert not FinVec.zero(Z).apply(A).entries
    e23 = mx.matrix_unit(Z, 2, 3)
    v = FinVec(Z, {1: 1, 2: 1})
    assert v.apply(e23) == FinVec.unit(Z, 3)


def test_equal_on_window():
    ident = mx.identity_map(Z)
    assert mx.first_mismatch(ident, ident, 5) is None
    mismatch = mx.first_mismatch(ident, mx.zero_map(Z), 1)
    assert mismatch is not None
    assert mismatch.startswith("row 1:")


def test_window_check_reads_the_first_map_as_got():
    mismatch = mx.first_mismatch(mx.zero_map(Z), mx.identity_map(Z), 1)
    assert mismatch == "row 1: got FinVec(), expected FinVec(1:1)"


def test_two_lazy_expressions_for_projection_agree():
    p1 = mx.RowFiniteMap(Z, lambda a: FinVec.unit(Z, a) if a % 2 == 0
                         else FinVec.zero(Z))
    p2 = mx.from_index_map(Z, lambda a: a if a % 2 == 0 else None)
    assert mx.first_mismatch(p1, p2, 50) is None


def test_block_matrix_rows():
    A = sandwich_A(Z)
    assert [A.row(r) for r in range(1, 4)] == [
        FinVec(Z, {1: 1}), FinVec(Z, {2: 1, 3: 1}), FinVec(Z, {4: 1, 5: 1, 6: 1})]
    B = sandwich_B(Z)
    rows = [B.row(r) for r in range(1, 7)]
    assert rows == [FinVec.unit(Z, k) for k in (1, 1, 2, 1, 2, 3)]


def test_sparse_roundtrip():
    assert mx.first_mismatch(mx.from_sparse(Z, [(1, 2, "1")]),
                             mx.matrix_unit(Z, 1, 2), 5) is None
    assert mx.first_mismatch(mx.from_sparse(Z, []), mx.zero_map(Z), 5) is None
    A = sandwich_A(Z)
    triples = mx.to_sparse(A, 10)
    again = mx.from_sparse(Z, triples)
    assert mx.to_sparse(again, 10) == triples
    with pytest.raises(MatrixError):
        mx.from_sparse(Z, [(1, 1, "1"), (1, 1, "2")])


def test_sparse_text_format(sparse_text):
    f = mx.from_sparse(GF5, [(1, 2, "3"), (4, 1, "2")])
    text = sparse_text(f, 5)
    ring, g = mx.load_sparse(text)
    assert ring == GF5
    assert mx.first_mismatch(f, g, 5) is None
    with pytest.raises(MatrixError):
        mx.load_sparse("1 2 3\n")


def test_ring_mismatch_rejected():
    with pytest.raises(RingError, match="ring mismatch: Int vs GF:5"):
        mx.compose(mx.identity_map(Z), mx.identity_map(GF5))
    with pytest.raises(RingError, match="ring mismatch: Int vs GF:5"):
        FinVec.unit(Z, 1).apply(mx.identity_map(GF5))
    with pytest.raises(RingError, match="ring mismatch: GF:5 vs Zmod:5"):
        FinVec.unit(GF5, 1).add(FinVec.unit(parse_ring_spec("Zmod:5"), 1))


def test_vectors_over_directly_built_rings_agree():
    # classify builds PrimeField(p) directly; construction interns it, so
    # it is the parsed ring itself.
    twin = PrimeField(5)
    assert twin is GF5
    v, w = FinVec(GF5, {1: 2, 4: 3}), FinVec(twin, {1: 2, 4: 3})
    assert v == w and w == v and hash(v) == hash(w)
    assert v != FinVec(twin, {1: 2})
    assert v.add(w) == FinVec(GF5, {1: 4, 4: 1})
    assert not w.add(v.neg()).entries


def test_vector_hash_and_equality_read_entries_then_ring():
    twin = PrimeField(3)
    gf3 = parse_ring_spec("GF:3")
    v, w = FinVec(twin, {1: 2, 5: 1}), FinVec(gf3, {5: 1, 1: 2})
    assert twin is gf3
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    # Equal entries over unequal rings: unequal vectors, both kept.
    z = FinVec(parse_ring_spec("Zmod:3"), {1: 2, 5: 1})
    assert z != w and w != z
    assert len({w, z}) == 2


@pytest.mark.parametrize("ring", [Z6, GF5])
def test_map_ring_axioms_on_window(ring):
    rng = random.Random(11)
    f, g, h = (random_map(ring, rng) for _ in range(3))
    w = 16
    assert mx.first_mismatch(mx.add_maps(mx.add_maps(f, g), h),
                             mx.add_maps(f, mx.add_maps(g, h)), w) is None
    assert mx.first_mismatch(mx.add_maps(f, g), mx.add_maps(g, f), w) is None
    assert mx.first_mismatch(mx.compose(mx.compose(f, g), h),
                             mx.compose(f, mx.compose(g, h)), w) is None
    assert mx.first_mismatch(
        mx.compose(f, mx.add_maps(g, h)),
        mx.add_maps(mx.compose(f, g), mx.compose(f, h)), w) is None
    assert mx.first_mismatch(
        mx.compose(mx.add_maps(f, g), h),
        mx.add_maps(mx.compose(f, h), mx.compose(g, h)), w) is None
    ident = mx.identity_map(ring)
    assert mx.first_mismatch(mx.compose(f, ident), f, w) is None
    assert mx.first_mismatch(mx.compose(ident, f), f, w) is None


def test_apply_is_linear():
    rng = random.Random(5)
    f = random_map(GF5, rng)
    for _ in range(20):
        u = FinVec(GF5, {rng.randint(1, 16): rng.randrange(5) for _ in range(3)})
        v = FinVec(GF5, {rng.randint(1, 16): rng.randrange(5) for _ in range(3)})
        assert u.add(v).apply(f) == u.apply(f).add(v.apply(f))
        c = rng.randrange(5)
        assert u.scale_left(c).apply(f) == u.apply(f).scale_left(c)


def test_composition_is_lazy():
    k = 12
    shifts = [shift_map(Z) for _ in range(k)]
    chain = product(shifts)
    before = row_evals.count
    assert chain.row(1) == FinVec.unit(Z, k + 1)
    assert row_evals.count - before == k


def test_rows_below_1_raise_after_the_memo_holds_rows():
    rng = random.Random(27)
    g = random_map(GF5, rng)
    s = shift_map(GF5)
    for f in (g, s, mx.compose(s, s), mx.Chain(GF5, (s, g, s))):
        for a in range(1, 9):
            f.row(a)
        assert f._memo
        for bad in (0, -3):
            with pytest.raises(MatrixError, match="row index must be >= 1"):
                f.row(bad)


def test_row_memoization_is_pure():
    calls = []

    def rowfn(a):
        calls.append(a)
        return FinVec.unit(Z, a)

    f = RowFiniteMap(Z, rowfn)
    first = f.row(4)
    second = f.row(4)
    assert first is second
    assert calls == [4]


# ---------------------------------------------------------------------------
# Monomial and chain kinds against the general row path

MAT2 = parse_ring_spec("Mat:2:GF:2")


def generic(m):
    """The same map behind the general row path only: the slow reference."""
    return RowFiniteMap(m.ring, m.row)


def slow_apply(vec, f):
    """sum_a vec[a] * row_a(f), one full vector per term."""
    acc = FinVec.zero(vec.ring)
    for idx, val in vec.entries.items():
        acc = acc.add(f.row(idx).scale_left(val))
    return acc


def slow_product(maps):
    """Row a of maps[0] maps[1] ..., pushed through generic wrappers."""
    ring = maps[0].ring
    wrapped = [generic(m) for m in maps]

    def rowfn(a):
        vec = wrapped[0].row(a)
        for m in wrapped[1:]:
            vec = slow_apply(vec, m)
        return vec

    return RowFiniteMap(ring, rowfn)


E11, E12, E22 = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1))


@pytest.mark.parametrize("ring, vec, rows", [
    # Zero divisors: 2 * 3 = 3 * 2 = 3 * 4 = 0 in Zmod:6.
    (Z6, {1: 2, 2: 3}, {1: {5: 3}, 2: {5: 2, 6: 4}}),
    (Z6, {1: 2, 2: 1, 3: 3}, {1: {5: 3}, 2: {5: 2}, 3: {5: 4, 7: 1}}),
    # Rows that are all zero, after and before a nonzero one.
    (Z6, {1: 5, 4: 1, 9: 2}, {4: {2: 1}}),
    (Z6, {1: 5, 4: 1, 9: 2}, {}),
    (Z6, {4: 3}, {}),
    (Z6, {}, {1: {1: 1}}),
    # Non-unit scalars: E11 * E22 = 0 and E12 * E22 = E12, E22 * E12 = 0.
    (MAT2, {1: E11, 2: E12}, {1: {3: E22}, 2: {3: E22, 4: E12}}),
    (MAT2, {1: E22}, {1: {3: E12}}),
    (MAT2, {1: E11, 2: E22, 3: E12}, {2: {1: E11}}),
    (MAT2, {1: E11, 2: E22}, {}),
], ids=["products-zero", "some-zero", "zero-rows", "all-rows-zero",
        "one-term-zero-row", "empty", "mat-mixed", "mat-one-term-zero-product",
        "mat-zero-rows", "mat-all-rows-zero"])
def test_push_matches_scaling_every_term(ring, vec, rows):
    m = mx.from_rows(ring, rows)
    v = FinVec(ring, vec)
    got = mx.push(v, m.row)
    assert got.ring is ring
    assert got.entries == slow_apply(v, m).entries


@pytest.mark.parametrize("ring", [Z6, MAT2])
def test_push_matches_scaling_every_term_on_random_rows(ring):
    rng = random.Random(33)
    for _ in range(200):
        # About half the rows are zero, so push skips many terms.
        m = mx.from_rows(ring, {a: {c: ring.random_payload(rng)
                                    for c in rng.sample(range(1, 9), 2)}
                                for a in range(1, 13) if rng.random() < 0.5})
        v = random_vec(ring, rng, window=12)
        got = mx.push(v, m.row)
        assert got.ring is ring
        assert got.entries == slow_apply(v, m).entries


def random_monomial(ring, rng, window=16):
    # Not injective, so remapped entries collide and must be summed.
    table = {a: rng.randint(1, window) for a in range(1, window + 1)
             if rng.random() < 0.7}
    m = mx.from_index_map(ring, table.get)
    if rng.random() < 0.5:
        m = mx.compose(mx.scalar_map(ring, ring.random_payload(rng)), m)
    return m


def random_vec(ring, rng, window=16):
    return FinVec(ring, {rng.randint(1, window): ring.random_payload(rng)
                         for _ in range(rng.randint(0, 5))})


@pytest.mark.parametrize("ring", [Z6, GF5, MAT2])
def test_monomial_apply_matches_general_rows(ring):
    rng = random.Random(21)
    for _ in range(40):
        m = random_monomial(ring, rng)
        assert isinstance(m, mx.Monomial)
        for _ in range(5):
            v = random_vec(ring, rng)
            assert v.apply(m) == slow_apply(v, generic(m))
            assert v.apply(generic(m)) == slow_apply(v, generic(m))


@pytest.mark.parametrize("ring", [Z6, GF5, MAT2])
def test_monomial_compose_matches_general_rows(ring):
    rng = random.Random(22)
    for _ in range(20):
        parts = [random_monomial(ring, rng) for _ in range(rng.randint(2, 4))]
        prod = product(parts)
        assert isinstance(prod, mx.Monomial)
        assert mx.first_mismatch(prod, slow_product(parts), 16) is None


@pytest.mark.parametrize("ring", [Z6, GF5, MAT2])
def test_chain_matches_general_rows(ring):
    rng = random.Random(23)
    for _ in range(15):
        factors = [random_monomial(ring, rng) if rng.random() < 0.5
                   else random_map(ring, rng, density=0.15)
                   for _ in range(rng.randint(2, 6))]
        prod = product(factors)
        assert mx.first_mismatch(prod, slow_product(factors), 16) is None
        # A product of two chains is one flat chain.
        split = rng.randint(1, len(factors) - 1)
        again = mx.compose(product(factors[:split]),
                           product(factors[split:]))
        assert not any(isinstance(f, mx.Chain) for f in factors_of(again))
        assert mx.first_mismatch(again, prod, 16) is None
    # Edges of the single-term path, built as direct chains so that
    # monomials stay apart.  Coefficients are random payloads, so over
    # Mat:2:GF:2 a product taken in the wrong order shows.
    holes = mx.from_index_map(ring, lambda a: None if a % 3 == 0 else a)
    fold = mx.from_index_map(ring, lambda a: 2)   # many terms -> one term
    zero = mx.zero_map(ring)
    for _ in range(10):
        g, h = (random_map(ring, rng, density=0.15) for _ in range(2))
        dense = random_map(ring, rng, density=0.6)
        c1, c2 = (mx.scalar_map(ring, ring.random_payload(rng)) for _ in range(2))
        for factors in ((g, zero, h),            # zero coefficient
                        (holes, g, h),           # None index first
                        (g, holes, h),           # None index in the middle
                        (g, h, c1),              # general first factor
                        (dense, fold, c1, g, c2, h),  # collapse, then go on
                        (c1, holes, g, c2, fold, h, c1)):
            chain = mx.Chain(ring, factors)
            assert mx.first_mismatch(chain, slow_product(list(factors)), 16) is None


def test_chain_steps_walk_the_parts_of_composite_monomials():
    """Chains holding products of monomials against the general row path.
    A chain walks a monomial factor's primitive index functions, so it
    never reads or fills that factor's row memo."""
    ring = MAT2
    rng = random.Random(28)
    f1 = mx.from_index_map(ring, phi)
    c = mx.scalar_map(ring, ((1, 1), (0, 1)))        # a non-unit coefficient
    f1_6 = product([f1] * 3 + [c] + [f1] * 3)
    holes = mx.from_index_map(ring, lambda a: None if a % 3 == 0 else a)
    s = shift_map(ring)
    hole_in_middle = product([s, holes, s])
    zero_coeff = product([s, mx.zero_map(ring), s])
    run1 = product([c, s, f1, mx.scalar_map(ring, ((0, 1), (1, 1)))])
    run2 = product([s, c, s])
    composites = (f1_6, hole_in_middle, zero_coeff, run1, run2)
    assert all(isinstance(m, mx.Monomial) and len(m.walk) > 1 for m in composites)
    assert f1_6.coeff == c.coeff and hole_in_middle.coeff == ring.one
    assert zero_coeff.coeff == ring.zero
    for _ in range(5):
        g, h = (random_map(ring, rng, window=64, density=0.05) for _ in range(2))
        for factors in ((g, f1_6, h),
                        (f1_6, g),
                        (g, hole_in_middle, h),
                        (hole_in_middle, g, f1_6),
                        (g, zero_coeff, h),
                        (g, h, zero_coeff),
                        (run1, g, run2),
                        (run1, g, f1_6, h, run2)):
            chain = mx.Chain(ring, factors)
            for a in range(1, 17):
                chain.row(a)
            assert not any(m._memo for m in composites)
            assert mx.first_mismatch(chain, slow_product(list(factors)), 16) is None
            for m in composites:    # the reference read their rows
                m._memo.clear()
    # One row of f1_6: c times e_{phi^6(a)}, kept in the monomial's row memo.
    a = 100
    for _ in range(6):
        a = phi(a)
    assert f1_6.row(100) == FinVec(ring, {a: c.coeff})
    assert list(f1_6._memo) == [100]


def random_table(rng, moduli=range(1, 7), dens=(1, 2, 3)):
    """A random exact AffineTable: some residues undefined, some entries
    constant (so entries collide), some with a denominator above 1."""
    m = rng.choice(moduli)
    entries = []
    for r in range(m):
        if rng.random() < 0.2:
            entries.append(None)
            continue
        den = rng.choice(dens)
        num = rng.randint(0, 3) * den // math.gcd(den, m)
        least = r or m
        # The least member of the class goes to q >= 1, exactly.
        entries.append((num, den, den * rng.randint(1, 4) - num * least))
    return AffineTable(m, entries)


def test_affine_tables_are_exact_or_rejected():
    assert AffineTable(3, [(2, 3, 0), (2, 3, 1), (2, 3, 2)])(10) == 7
    for m, entries in ((3, [(1, 2, 0)] * 3),          # t / 2 with t = 1 mod 3
                       (2, [(1, 2, 0), (1, 2, 0)]),   # t / 2 with t odd
                       (1, [(3, 2, 1)]),              # 3t + 1 odd at t = 2
                       (7, [(1, 1, 1)] * 6 + [(1, 1, -7)]),  # 6 -> -1
                       (1, [(-1, 1, 9)]),             # falls below 1
                       (1, [(0, 1, 0)]),              # constant 0
                       (2, [(1, 1, 0)])):             # one entry short
        with pytest.raises(IndexError_):
            AffineTable(m, entries)


def test_integer_tables_of_one_modulus_merge_into_one_step():
    rng = random.Random(34)
    for _ in range(200):
        m = rng.randint(1, 6)
        a, b = (random_table(rng, moduli=[m], dens=[1]) for _ in range(2))
        merged = mx.compose(mx.from_index_map(GF5, a), mx.from_index_map(GF5, b))
        assert len(merged.walk) == 1
        for t in range(1, 40):
            first = a(t)
            assert merged.walk[0](t) == (None if first is None else b(first))
    # A denominator above 1, or two moduli, merge too, down to the
    # least modulus; an identity merged table leaves the walk.
    position = AffineTable(7, [(1, 7, -r % 7) for r in range(7)])
    seven = AffineTable(1, [(7, 1, -6)])
    for f, g, walk in ((position, AffineTable(7, [(1, 1, 1)] * 7),
                        [[(1, 7, 7 + -r % 7) for r in range(7)]]),
                       (AffineTable(7, [(1, 1, 1)] * 7), position,
                        [[(1, 7, 1 + -(r + 1) % 7) for r in range(7)]]),
                       (AffineTable(2, [(1, 1, 2)] * 2),
                        AffineTable(3, [(1, 1, 3)] * 3), [[(1, 1, 5)]]),
                       (seven, position, [])):
        both = mx.compose(mx.from_index_map(GF5, f), mx.from_index_map(GF5, g))
        assert [list(step.entries) for step in both.walk] == walk
    # A merged table with more entries than the two together: two steps.
    f = AffineTable(5, [(1, 1, r + 1) for r in range(5)])
    g = AffineTable(7, [(1, 1, r + 1) for r in range(7)])
    assert f.then(g).modulus == 35
    both = mx.compose(mx.from_index_map(GF5, f), mx.from_index_map(GF5, g))
    assert both.walk == (f, g)


def far_rows(modulus):
    """Rows 1..10^5, and one row of every residue mod `modulus` from
    10^9, 10^12 and 10^18."""
    far = [top + d for top in (10 ** 9, 10 ** 12, 10 ** 18) for d in range(modulus)]
    return list(range(1, 10 ** 5 + 1)) + far


def test_table_then_is_the_two_tables_in_turn():
    """The exact composite of seeded random tables with denominators
    against the two tables called in turn, and its modulus the least."""
    rng = random.Random(36)
    for _ in range(12):
        a, b = (random_table(rng, moduli=range(1, 9)) for _ in range(2))
        both = a.then(b)
        m = both.modulus
        assert m <= a.modulus * b.modulus
        for d in range(1, m):
            if m % d == 0:
                assert any(both.entries[t] != both.entries[t % d] for t in range(m))
        for t in far_rows(m):
            first = a(t)
            assert both(t) == (None if first is None else b(first)), (t, a.entries,
                                                                       b.entries)


def same_table(a, b):
    return (a.modulus, a.entries) == (b.modulus, b.entries)


def test_cached_composites_are_the_fresh_composites():
    """`_composite` has the modulus and entries of a fresh `then`, for
    seeded random pairs and for f1's powers PHI^1..PHI^11 and their
    meets with POSITION and SIGMA1_ROW; a pair composed again gives the
    same object."""
    rng = random.Random(40)
    pairs = [tuple(random_table(rng, moduli=range(1, 9)) for _ in range(2))
             for _ in range(40)]
    cached = fresh = PHI
    for n in range(1, 12):
        assert same_table(cached, fresh), n
        pairs += [(cached, fresh), (cached, POSITION), (cached, SIGMA1_ROW)]
        cached, fresh = mx._composite(cached, PHI), fresh.then(PHI)
    for a, b in pairs:
        both = mx._composite(a, b)
        assert same_table(both, a.then(b)), (a.entries, b.entries)
        assert mx._composite(a, b) is both


@pytest.mark.parametrize("ring", [Z6, GF5, MAT2])
def test_table_steps_match_general_rows(ring):
    """Monomials with table steps, alone and among index functions and
    scalars: vectors of several terms apply through `remap`, and products
    and chains against the general row path.  A table step is not
    counted in `row_evals`."""
    rng = random.Random(35)
    tables = [random_table(rng) for _ in range(30)]
    before = row_evals.count
    for table in tables:
        m = mx.from_index_map(ring, table)
        for a in range(1, 17):
            m.row(a)
    assert row_evals.count == before
    for _ in range(40):
        parts = [mx.from_index_map(ring, rng.choice(tables)) if rng.random() < 0.6
                 else random_monomial(ring, rng) for _ in range(rng.randint(1, 4))]
        m = product(parts)
        assert isinstance(m, mx.Monomial)
        for _ in range(5):
            v = random_vec(ring, rng)
            assert v.apply(m) == slow_apply(v, generic(m)) == slow_apply(v, slow_product(parts))
        g = random_map(ring, rng, density=0.15)
        chain = mx.Chain(ring, (g, m, g))
        assert mx.first_mismatch(chain, slow_product([g] + parts + [g]), 16) is None


def piecewise_mod_4(ring, rng):
    """Classes a mod 4: a zero class, a scaled composite monomial with
    holes, a general map and a scalar, each behind its own reindex."""
    c = mx.scalar_map(ring, ((1, 1), (0, 1)))
    holes = mx.from_index_map(ring, lambda a: None if a % 3 == 0 else a)
    pieces = {0: None,
              1: (lambda a: a // 4 + 1, product([c, shift_map(ring), holes])),
              2: (lambda a: a, random_map(ring, rng, window=64, density=0.05)),
              3: (lambda a: 2 * a, mx.scalar_map(ring, ((0, 1), (1, 1))))}
    return mx.Piecewise(ring, lambda a: a % 4, pieces), pieces


def test_piecewise_rows_are_the_pieces_rows():
    pw, pieces = piecewise_mod_4(MAT2, random.Random(29))
    assert isinstance(pieces[1][1], mx.Monomial) and pieces[1][1].coeff != MAT2.one
    for a in range(1, 129):
        piece = pieces[a % 4]
        expected = FinVec.zero(MAT2) if piece is None else piece[1].row(piece[0](a))
        assert pw.row(a) == expected


def test_chains_walk_piecewise_factors():
    """Chains through piecewise factors against the general row path.  A
    single-term row walks the pieces, so a leading piecewise factor's row
    memo stays empty."""
    ring = MAT2
    rng = random.Random(30)
    for _ in range(5):
        g, h = (random_map(ring, rng, window=64, density=0.05) for _ in range(2))
        pw, _ = piecewise_mod_4(ring, rng)
        c = mx.scalar_map(ring, ring.random_payload(rng))
        for factors in ((pw, g), (g, pw, h), (shift_map(ring), pw, pw, h),
                        (pw, c, pw), (h, c, pw)):
            pw._memo.clear()
            chain = product(factors)
            assert isinstance(chain, mx.Chain)
            for a in range(1, 17):
                chain.row(a)
            if factors == (pw, g):
                assert not pw._memo
            assert mx.first_mismatch(chain, slow_product(list(factors)), 16) is None


class ModFour:
    """A classifier of period 4, a mod 4, that names where a table step
    lands as the mod-7 partition does."""

    period = 4
    landing = SevenPartition.landing

    def class_of(self, a):
        return a % 4


def four_pieces(ring, rng):
    g = random_map(ring, rng, window=64, density=0.05)
    return {0: None,
            1: (AffineTable(4, [(1, 4, 4 - r) for r in range(4)]), g),
            2: (AffineTable(1, [(1, 1, 0)]), product([shift_map(ring), g])),
            3: (lambda a: a, g)}


def test_a_table_landing_on_one_piece_becomes_that_piece():
    """t -> 4t - 3 lands every row in class 1, whose piece reads row
    (t + 3) / 4 of g: the product is g, and after a shift it is the
    shift times g.  Landing in class 2 gives the coefficient times the
    piece's product, against the general rows."""
    ring = MAT2
    rng = random.Random(37)
    for _ in range(5):
        pieces = four_pieces(ring, rng)
        pw = mx.Piecewise(ring, ModFour().class_of, pieces)
        c = mx.scalar_map(ring, ring.random_payload(rng))
        into_1 = mx.from_index_map(ring, AffineTable(1, [(4, 1, -3)]))
        into_2 = product([c, mx.from_index_map(ring, AffineTable(2, [(4, 1, 2)] * 2))])
        assert mx.compose(into_1, pw) is pieces[1][1]
        shifted = product([shift_map(ring), into_1])
        both = mx.compose(shifted, pw)
        assert [f.__class__ for f in factors_of(both)] == [mx.Monomial, RowFiniteMap]
        assert factors_of(both)[1] is pieces[1][1]
        assert mx.first_mismatch(both, slow_product([shifted, pw]), 64) is None
        both = mx.compose(into_2, pw)
        assert isinstance(both, mx.Chain) and len(both.steps) == 2
        assert mx.first_mismatch(both, slow_product([into_2, pw]), 64) is None


def test_landing_answers_are_kept_per_partition_class():
    """One table object asked of ModFour and of SevenPartition, in either
    order: each partition gets its own uncached answer."""
    cases = (((28, 1, 0), 0, 7),       # 28t: class 0 mod 4, class 7 mod 7
             ((4, 1, -3), 1, None),    # 4t - 3: class 1 mod 4 only
             ((7, 1, -6), None, 1),    # 7t - 6: class 1 mod 7 only
             ((2, 1, 1), None, None))  # 2t + 1: neither
    for entry, mod_four, seven in cases:
        for order in ((ModFour, SevenPartition), (SevenPartition, ModFour)):
            table = AffineTable(1, [entry])
            answers = {p: p().landing(table) for p in order}
            assert answers == {ModFour: mod_four, SevenPartition: seven}
            assert answers == {p: _table_landing.__wrapped__(p, table) for p in order}


def test_a_seam_the_pieces_do_not_decide_keeps_the_chain():
    """A classifier with no `landing`, a table landing on two pieces, on a
    piece whose reindex is a function, or on a zero piece: the product
    stays a chain of the two, and matches the general row path."""
    ring = MAT2
    rng = random.Random(38)
    for _ in range(5):
        pieces = four_pieces(ring, rng)
        declared = mx.Piecewise(ring, ModFour().class_of, pieces)
        undeclared = mx.Piecewise(ring, lambda a: a % 4, pieces)
        cases = ((AffineTable(1, [(4, 1, 1)]), undeclared),
                 (AffineTable(1, [(2, 1, 1)]), declared),    # classes 1 and 3
                 (AffineTable(1, [(4, 1, 3)]), declared),    # the function piece
                 (AffineTable(1, [(4, 1, 0)]), declared))    # the zero piece
        for table, pw in cases:
            mono = mx.from_index_map(ring, table)
            both = mx.compose(mono, pw)
            assert mx.first_mismatch(both, slow_product([mono, pw]), 64) is None
            assert factors_of(both) == [mono, pw]


def test_identity_monomials_drop_out_of_products():
    g = random_map(GF5, random.Random(39))
    one = mx.identity_map(GF5)
    assert mx.compose(one, g) is g and mx.compose(g, one) is g
    both = mx.compose(one, one)
    assert isinstance(both, mx.Monomial) and not both.walk and both.coeff == GF5.one
    s = shift_map(GF5)
    chain = mx.compose(mx.compose(g, s), g)
    for both in (mx.compose(chain, one), mx.compose(one, chain)):
        assert factors_of(both) == factors_of(chain)


def test_piecewise_rejects_a_piece_in_another_ring():
    with pytest.raises(RingError, match="ring mismatch: GF:5 vs Zmod:6"):
        mx.Piecewise(GF5, lambda a: 1, {1: (lambda a: a, mx.identity_map(Z6))})


def test_chain_rejects_mixed_rings_at_construction():
    gf3 = random_map(parse_ring_spec("GF:3"), random.Random(26))
    with pytest.raises(RingError, match="ring mismatch: GF:5 vs GF:3"):
        mx.Chain(GF5, (mx.identity_map(GF5), gf3))


def test_monomials_meeting_in_a_chain_merge():
    g = random_map(GF5, random.Random(24))
    s = shift_map(GF5)
    chain = product([s, s, g, s, s, s, g])
    assert isinstance(chain, mx.Chain)
    assert [type(f) for f in factors_of(chain)] == [mx.Monomial, RowFiniteMap,
                                                    mx.Monomial, RowFiniteMap]


def test_long_chain_row_needs_no_recursion():
    rng = random.Random(25)
    g = random_map(Z6, rng, density=0.2)
    chain = product([shift_map(Z6, 0), g] * 3000)
    assert isinstance(chain, mx.Chain) and len(chain.steps) == 6000
    for a in range(1, 5):
        chain.row(a)


KINDS = {
    "primitive-monomial": lambda: shift_map(GF5),
    "composite-monomial": lambda: product([shift_map(GF5), mx.scalar_map(GF5, 2),
                                           shift_map(GF5, 3)]),
    "scalar": lambda: mx.scalar_map(GF5, 3),
    "piecewise": lambda: mx.Piecewise(
        GF5, lambda a: a % 2,
        {0: None, 1: (lambda a: a // 2 + 1, random_map(GF5, random.Random(1)))}),
    "chain": lambda: mx.Chain(GF5, (shift_map(GF5), random_map(GF5, random.Random(2)),
                                    mx.scalar_map(GF5, 4))),
    "add_maps": lambda: mx.add_maps(shift_map(GF5), random_map(GF5, random.Random(3))),
    "from_rows": lambda: mx.from_rows(GF5, {1: {2: 1}, 3: {1: 4, 5: 2}}),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_no_map_kind_makes_a_reference_cycle(kind):
    """A map's row function never refers to the map, so a dropped map is
    freed by reference counting, with nothing left for the cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        f = KINDS[kind]()
        for a in range(1, 9):
            f.row(a)
        del f
        assert gc.collect() == 0
    finally:
        gc.enable()


SAME_MAP_RINGS = ["Int", "Zmod:6", "Mat:2:GF:2"]
LAYER_KINDS = ("embed", "shift", "project", "keep")


def step_recipe(rng, shared):
    """A walk step drawn as a recipe that `cook` builds into a fresh step:
    a memo step shared by every map, a memo step of the same function
    made anew, a random table or a layer step."""
    kind = rng.randrange(4)
    if kind == 0:
        return ("shared", rng.choice(shared))
    if kind == 1:
        return ("fresh", rng.choice((1, 2)))
    if kind == 2:
        table = random_table(rng)
        return ("table", table.modulus, table.entries)
    return ("layer", rng.choice(LAYER_KINDS), rng.randint(-1, 1))


def cook(recipe):
    kind, *args = recipe
    if kind == "shared":
        return args[0]
    if kind == "fresh":
        return mx._memoized_index(lambda a, d=args[0]: a + d)
    if kind == "table":
        return AffineTable(*args)
    return LayerStep(*args)


def monomial_of(ring, recipes, coeff, by_compose):
    """The monomial of the cooked steps times coeff: one `Monomial`, or
    a product of one-step monomials through `compose`, which merges."""
    steps = [cook(r) for r in recipes]
    if not by_compose:
        return mx.Monomial(ring, tuple(steps), coeff)
    return product([mx.scalar_map(ring, coeff)]
                   + [mx.Monomial(ring, (step,)) for step in steps])


@pytest.mark.parametrize("spec", SAME_MAP_RINGS)
def test_same_map_is_sound_on_random_monomial_pairs(spec):
    """same_map never says False, and where it says True the two maps
    agree on rows 1..32 and on rows near 10^9."""
    ring = parse_ring_spec(spec)
    rng = random.Random(sum(map(ord, spec)))
    shared = [mx._memoized_index(lambda a: a + 1),
              mx._memoized_index(lambda a: a if a % 2 else None)]
    coeffs = [ring.one, ring.one, ring.zero] + [ring.random_payload(rng)
                                                 for _ in range(2)]
    answers = {True: 0, None: 0}
    for _ in range(300):
        recipes = [step_recipe(rng, shared) for _ in range(rng.randint(0, 3))]
        other, coeff, other_coeff = list(recipes), rng.choice(coeffs), None
        change = rng.randrange(4)
        layers = [n for n, r in enumerate(other) if r[0] == "layer"]
        if change == 1 and other:
            other[rng.randrange(len(other))] = step_recipe(rng, shared)
        elif change == 2:
            other_coeff = rng.choice(coeffs)
        elif change == 3 and layers:
            n = rng.choice(layers)
            other[n] = other[n][:2] + (other[n][2] + rng.choice((-1, 1)),)
        f = monomial_of(ring, recipes, coeff, rng.random() < 0.5)
        g = monomial_of(ring, other, coeff if other_coeff is None else other_coeff,
                        rng.random() < 0.5)
        answer = mx.same_map(f, g)
        assert answer in answers
        answers[answer] += 1
        if answer:
            assert mx.first_mismatch(f, g, 32) is None
            for a in range(10 ** 9, 10 ** 9 + 32):
                assert f.row(a) == g.row(a), a
    assert min(answers.values()) > 50, answers


@pytest.mark.parametrize("spec", SAME_MAP_RINGS)
def test_add_maps_of_random_monomial_pairs_agrees_with_the_row_sum(spec):
    """Two monomials whose walks match step for step add to one monomial,
    the sum of the coefficients; it agrees with the general row sum on
    rows 1..32 and near 10^9.  Any other pair stays a general map."""
    ring = parse_ring_spec(spec)
    rng = random.Random(sum(map(ord, spec)) + 1)
    shared = [mx._memoized_index(lambda a: a + 1),
              mx._memoized_index(lambda a: a if a % 2 else None)]
    coeffs = [ring.one, ring.zero] + [ring.random_payload(rng) for _ in range(3)]
    reduced = 0
    for _ in range(300):
        recipes = [step_recipe(rng, shared) for _ in range(rng.randint(0, 3))]
        other = list(recipes)
        if other and rng.random() < 0.3:
            other[rng.randrange(len(other))] = step_recipe(rng, shared)
        f = monomial_of(ring, recipes, rng.choice(coeffs), rng.random() < 0.5)
        g = monomial_of(ring, other, rng.choice(coeffs), rng.random() < 0.5)
        total = mx.add_maps(f, g)
        rows = RowFiniteMap(ring, lambda a: f.row(a).add(g.row(a)))
        if isinstance(total, mx.Monomial):
            reduced += 1
            assert total.walk == f.walk
            assert total.coeff == ring.add(f.coeff, g.coeff)
        else:
            assert not mx._same_walk(f, g)
        assert mx.first_mismatch(total, rows, 32) is None
        for a in range(10 ** 9, 10 ** 9 + 32):
            assert total.row(a) == rows.row(a), a
    assert 50 < reduced < 250, reduced


@pytest.mark.parametrize("spec", SAME_MAP_RINGS)
def test_to_sparse_reads_a_monomial_off_its_walk(spec):
    """A monomial's triples on rows 1..64 are those its rows give, for
    random walks of tables, layer steps and memoized index functions,
    some undefined on rows, and scalar or matrix coefficients; a zero
    coefficient gives none."""
    ring = parse_ring_spec(spec)
    rng = random.Random(sum(map(ord, spec)) + 2)
    shared = [mx._memoized_index(lambda a: a + 1),
              mx._memoized_index(lambda a: a if a % 2 else None)]
    coeffs = [ring.one, ring.zero] + [ring.random_payload(rng) for _ in range(3)]
    undefined = 0
    for _ in range(200):
        recipes = [step_recipe(rng, shared) for _ in range(rng.randint(0, 3))]
        f = monomial_of(ring, recipes, rng.choice(coeffs), rng.random() < 0.5)
        got = mx.to_sparse(f, 64)
        assert got == [(a, c, ring.format_payload(v)) for a in range(1, 65)
                       for c, v in sorted(f.row(a).entries.items())]
        if ring.is_zero(f.coeff):
            assert got == []
        elif 0 < len(got) < 64:
            undefined += 1
    assert undefined > 20, undefined


def test_piecewise_rows_of_a_class_with_no_piece_are_one_zero():
    """A class missing from `pieces` has zero rows, as a None piece does,
    and every zero row of a map is the one zero vector of its ring."""
    g = random_map(GF5, random.Random(6), density=0.5)
    pw = mx.Piecewise(GF5, lambda a: a % 3, {1: None, 2: (lambda a: a, g)})
    zeros = [pw.row(a) for a in range(1, 31) if a % 3 != 2]
    assert all(z is zeros[0] for z in zeros) and not zeros[0].entries
    assert mx.identity_map(GF5).then(mx.from_index_map(GF5, {}.get)).row(4) is zeros[0]
    for a in range(2, 31, 3):
        assert pw.row(a) == g.row(a)


def test_same_map_decides_one_object_and_no_other_kind():
    f = random_map(GF5, random.Random(4))
    assert mx.same_map(f, f) is True
    assert mx.same_map(f, mx.from_rows(GF5, {})) is None
    chain = mx.Chain(GF5, (shift_map(GF5), f))
    assert mx.same_map(chain, mx.Chain(GF5, (shift_map(GF5), f))) is None
    with pytest.raises(RingError, match="ring mismatch"):
        mx.same_map(mx.identity_map(GF5), mx.identity_map(Z6))


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from rowfin import *", namespace)
    assert sorted(set(rowfin.__all__) - set(namespace)) == []
