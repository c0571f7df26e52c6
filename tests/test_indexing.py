import math
import random
import re

import pytest
import oracle_reference as ref

from rowfin import classify as cl
from rowfin.indexing import (AffineTable, LayerPartition, LayerStep,
                             PreorderDescriptor, PreorderSpecError,
                             SevenPartition, ZPairing, cantor_pair,
                             cantor_unpair, parse_preorder, tri, tri_block,
                             tri_split, zfold, zunfold)


def test_zfold_examples():
    assert [zfold(i) for i in (0, -1, 1, -2, 2)] == [1, 2, 3, 4, 5]
    for i in range(-50, 51):
        assert zunfold(zfold(i)) == i


def test_cantor_pairing_bijective_on_grid():
    seen = {}
    for a in range(1, 60):
        for b in range(1, 60):
            n = cantor_pair(a, b)
            assert n not in seen
            seen[n] = (a, b)
            assert cantor_unpair(n) == (a, b)
    # The image covers an initial segment with no gaps.
    assert min(seen) == 1
    small = [n for n in seen if n <= 1000]
    assert sorted(small) == list(range(1, 1001))


def test_z_pairing_examples():
    zp = ZPairing()
    assert ref.encode(0, 1) == 1
    assert zp.decode(ref.encode(-2, 5)) == (-2, 5)
    codes = {ref.encode(i, g) for i in range(-50, 51) for g in range(1, 51)}
    assert len(codes) == 101 * 50
    for n in range(1, 2000):
        i, g = zp.decode(n)
        assert ref.encode(i, g) == n


def test_layer_partition_classes_and_landing():
    part = LayerPartition()
    for i in range(-20, 21):
        for gamma in (1, 2, 7, 10 ** 9):
            assert part.class_of(ref.encode(i, gamma)) == i
    assert part.landing(LayerStep("embed", -4)) == -4
    for step in (LayerStep("shift", 1), LayerStep("project", 0),
                 LayerStep("keep", 2), AffineTable(1, [(1, 1, 0)])):
        assert part.landing(step) is None


def test_seven_partition_landing_names_the_class_of_every_image():
    """A table lands on one class when every image it gives, read on
    rows 1..10^4, is in that class; otherwise there is no answer."""
    part = SevenPartition()
    rng = random.Random(41)
    tables = [AffineTable(1, [(7, 1, -6)]), AffineTable(1, [(7, 1, 0)]),
              AffineTable(2, [(7, 2, 0), None]), AffineTable(1, [(1, 1, 0)]),
              AffineTable(7, [(1, 7, -r % 7) for r in range(7)])]
    tables += [AffineTable(m, [(7 * rng.randint(1, 3), 1, rng.randint(0, 6))
                               if rng.random() < 0.7 else None for _ in range(m)])
               for m in (1, 2, 3, 5) for _ in range(5)]
    answers = set()
    for table in tables:
        classes = {part.class_of(table(t)) for t in range(1, 10 ** 4)
                   if table(t) is not None}
        landed = part.landing(table)
        answers.add(landed is None)
        assert landed == (classes.pop() if len(classes) == 1 else None), table.entries
    assert answers == {True, False}
    assert part.landing(LayerStep("embed", 0)) is None


def test_seven_partition_examples():
    part = SevenPartition()
    assert part.class_of(1) == 1
    assert part.class_of(14) == 7
    counts = {i: 0 for i in range(1, 8)}
    for k in range(1, 7001):
        c = part.class_of(k)
        counts[c] += 1
    assert set(counts.values()) == {1000}


def loop_cantor_unpair(n):
    """The replaced form of `cantor_unpair`, with its correction loops."""
    s = (math.isqrt(8 * n - 7) + 1) // 2
    while s * (s + 1) // 2 < n:
        s += 1
    while (s - 1) * s // 2 >= n:
        s -= 1
    a = n - (s - 1) * s // 2
    return a, s - a + 1


def loop_tri_split(r):
    """The replaced form of `tri_split`, with its correction loops."""
    i = (math.isqrt(8 * r - 7) + 1) // 2
    while tri(i) < r:
        i += 1
    while tri(i - 1) >= r:
        i -= 1
    return i, r - tri(i - 1)


def test_closed_forms_match_the_correction_loops():
    big = [n for c in (10**12, 2**61 - 1, 10**30) for n in range(c - 200, c + 201)]
    # Both ends of the diagonals s near 10**6 and 10**15.
    big += [tri(s) + d for c in (10**6, 10**15) for s in range(c - 3, c + 3)
            for d in (0, 1)]
    for n in [*range(1, 2 * 10**5 + 1), *big]:
        assert cantor_unpair(n) == loop_cantor_unpair(n), n
        assert tri_split(n) == loop_tri_split(n), n


def test_tri_block_examples():
    assert list(tri_block(1)) == [1]
    assert list(tri_block(3)) == [4, 5, 6]
    # Cross-check against the running sum of block widths.
    start = 1
    for i in range(1, 40):
        assert list(tri_block(i)) == list(range(start, start + i))
        for r in range(start, start + i):
            assert tri_split(r) == (i, r - start + 1)
        start += i
    assert list(tri_block(5)) == [11, 12, 13, 14, 15]
    assert tri(5) == 15


# ---------------------------------------------------------------------------
# Preorder descriptors


PREORDER_SPECS = ["diag", "le", "ge", "full", "mod:3:(1,2)",
                  "union-finite:(1,2),(2,3)"]


@pytest.mark.parametrize("spec", PREORDER_SPECS)
def test_preorder_descriptors_self_consistent(spec):
    # The constructor rejects a table that is not a preorder.
    assert parse_preorder(spec).name == spec


def test_preorder_relations():
    le = parse_preorder("le")
    assert le.rel(2, 5) and not le.rel(5, 2)
    ge = parse_preorder("ge")
    assert ge.rel(5, 2) and not ge.rel(2, 5)
    assert [b for b in range(1, 9) if ge.rel(4, b)] == [1, 2, 3, 4]
    diag = parse_preorder("diag")
    assert diag.rel(3, 3) and not diag.rel(3, 4)
    full = parse_preorder("full")
    assert full.rel(9, 2)


def test_mod_preorder_closure():
    rho = parse_preorder("mod:3:(1,2)")
    assert rho.rel(1, 2)       # class 1 -> class 2
    assert rho.rel(4, 8)       # same classes, shifted
    assert not rho.rel(2, 1)
    assert rho.rel(3, 3)
    assert [b for b in range(1, 6) if rho.rel(1, b)] == [1, 2, 4, 5]


def test_mod_preorder_transitive_closure_of_pairs():
    rho = parse_preorder("mod:4:(1,2),(2,3)")
    assert rho.rel(1, 3)
    assert not rho.rel(1, 4)


def test_union_finite_preorder():
    rho = parse_preorder("union-finite:(1,2),(2,3)")
    assert rho.rel(1, 3)
    assert [b for b in range(1, 13) if rho.rel(1, b)] == [1, 2, 3]
    assert [b for b in range(1, 13) if rho.rel(9, b)] == [9]
    assert cl.classify_preorder(rho) == cl.D_CLASS


def test_union_finite_stores_only_off_diagonal_pairs():
    rho = parse_preorder("union-finite:(1,100000)")
    assert rho.finite == {(1, 100000)}
    assert rho.rel(1, 100000) and rho.rel(50000, 50000)
    assert not rho.rel(100000, 1)
    # A cycle closes to diagonal pairs, which the form leaves implicit.
    assert parse_preorder("union-finite:(1,2),(2,1)").finite == {(1, 2), (2, 1)}
    with pytest.raises(PreorderSpecError, match="not off-diagonal"):
        PreorderDescriptor("loop", 1, frozenset({(1, 1, 0)}), 2,
                           frozenset({(1, 1)}))


def _relation(m, table, K, finite):
    """The relation of a normal form, read off its definition."""
    def rel(a, b):
        if a <= K and b <= K:
            return a == b or (a, b) in finite
        return ((a - 1) % m + 1, (b - 1) % m + 1, (b > a) - (b < a)) in table
    return rel


def _brute_force_is_preorder(m, table, K, finite, n):
    """Reflexivity and transitivity of a normal form on rows 1..n, by brute
    force over the form's definition."""
    rel = _relation(m, table, K, finite)
    rows = range(1, n + 1)
    up = {a: {b for b in rows if rel(a, b)} for a in rows}
    return (all(a in up[a] for a in rows)
            and all(up[b] <= up[a] for a in rows for b in up[a]))


def _random_form(rng, m, K, density):
    table = {(c, c, 0) for c in range(1, m + 1)}
    table |= {(c, d, s) for c in range(1, m + 1) for d in range(1, m + 1)
              for s in (-1, 1) if rng.random() < density}
    finite = {(a, b) for a in range(1, K + 1) for b in range(1, K + 1)
              if a != b and rng.random() < density}
    return table, finite


def _closed_form(rng, m, K):
    """A random form closed up: every a ~ c implied on rows 1..K+5m by a
    chain a ~ b ~ c is added to `finite` or the table, until none is."""
    table, finite = _random_form(rng, m, K, 0.15)
    rows = range(1, K + 5 * m + 1)
    while True:
        rel = _relation(m, table, K, finite)
        up = {a: {b for b in rows if rel(a, b)} for a in rows}
        implied = {(a, c) for a in rows for b in up[a] for c in up[b]} - {
            (a, b) for a in rows for b in up[a]}
        if not implied:
            return table, finite
        for a, c in implied:
            if a <= K and c <= K:
                finite.add((a, c))
            else:
                table.add(((a - 1) % m + 1, (c - 1) % m + 1,
                           (c > a) - (c < a)))


def _flip(rng, m, K, table, finite):
    """Toggle one table triple, or one pair of `finite` when K > 1."""
    if K > 1 and rng.random() < 0.5:
        finite ^= {tuple(rng.sample(range(1, K + 1), 2))}
    else:
        c, d = rng.randint(1, m), rng.randint(1, m)
        table ^= {(c, d, rng.choice((-1, 0, 1) if c == d else (-1, 1)))}


def test_exact_decision_matches_brute_force_on_random_forms():
    # The constructor decides on the table's classes; brute force looks
    # at rows 1..K+5m.  Half the forms are random, so most of those are
    # rejected; half are closed forms with up to two entries toggled.
    # A rejection must name rows in 1..K+3m that really break the rule.
    rng = random.Random(7)
    verdicts = {True: 0, False: 0}
    for n in range(2000):
        m, K = rng.randint(1, 4), rng.randint(0, 6)
        if n % 2:
            table, finite = _closed_form(rng, m, K)
            for _ in range(rng.randint(0, 2)):
                _flip(rng, m, K, table, finite)
        else:
            table, finite = _random_form(rng, m, K, 0.3)
        try:
            PreorderDescriptor("random", m, frozenset(table), K,
                               frozenset(finite))
            accepted = True
        except PreorderSpecError as exc:
            accepted = False
            rel = _relation(m, table, K, finite)
            rows = [int(r) for r in re.findall(r"\d+", str(exc))]
            assert 1 <= min(rows) and max(rows) <= K + 3 * m, exc
            if "not reflexive" in str(exc):
                assert not rel(rows[0], rows[0]), exc
            else:
                a, b, c, a2, c2 = rows
                assert (a, c) == (a2, c2), exc
                assert rel(a, b) and rel(b, c) and not rel(a, c), exc
        assert accepted == _brute_force_is_preorder(m, table, K, finite,
                                                    K + 5 * m)
        verdicts[accepted] += 1
    assert min(verdicts.values()) >= 400


def test_preorder_spec_errors():
    for bad in ["nope", "mod:3", "mod:x:(1,2)", "mod:3:(1,9)",
                "union-finite:(1;2)"]:
        with pytest.raises(PreorderSpecError):
            parse_preorder(bad)
