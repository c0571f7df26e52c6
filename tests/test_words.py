import itertools
import random

import pytest
from oracle_reference import brute_oracle, first_words, words_up_to

from rowfin import fearing as fr
from rowfin import matrices as mx
from rowfin import twogen as tg
from rowfin import words as wd
from rowfin.matrices import FinVec
from rowfin.rings import IntegerRing, RingError, parse_ring_spec
from rowfin.words import (NEG_ONE, ONE, ZERO, Const, Gen, Prod, Sum, WordError,
                          eval_word, format_word, prod_chain, proximity_oracle,
                          support_closure, word_generators, word_length)

Z = IntegerRing()
GF2 = parse_ring_spec("GF:2")
Z5 = parse_ring_spec("Zmod:5")


def shift(ring):
    return mx.from_index_map(ring, lambda a: a + 1)


def test_word_length_examples():
    a, b = Gen("a"), Gen("b")
    assert word_length(a) == 1
    assert word_length(ONE) == 1
    assert word_length(Sum(a, b)) == 2
    assert word_length(Prod(Sum(ONE, a), b)) == 3


def test_word_generators():
    w = Prod(Sum(Gen("a"), ONE), Gen("b"))
    assert word_generators(w) == {"a", "b"}
    assert word_generators(NEG_ONE) == frozenset()


def test_prod_chain_left_associated():
    a, b, c = Gen("a"), Gen("b"), Gen("c")
    assert prod_chain([a, b, c]) == Prod(Prod(a, b), c)
    assert prod_chain([a]) == a
    with pytest.raises(WordError):
        prod_chain([])


def tree(w):
    """w as nested tuples read off its fields, with no use of its printed form."""
    if isinstance(w, (Sum, Prod)):
        return (w.__class__.__name__, tree(w.left), tree(w.right))
    return (w.__class__.__name__, w.name if isinstance(w, Gen) else w.value)


def test_printed_form_is_injective():
    rng = random.Random(2)
    # Fresh leaf objects, so equal words are never one object.
    leaves = [lambda: Const(0), lambda: Const(1), lambda: Const(-1),
              lambda: Gen("f1"), lambda: Gen("s")]

    def random_word(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(leaves)()
        ctor = rng.choice([Sum, Prod])
        return ctor(random_word(depth - 1), random_word(depth - 1))

    equal = 0
    for _ in range(2000):
        a, b = random_word(rng.randint(0, 3)), random_word(rng.randint(0, 3))
        same = tree(a) == tree(b)
        equal += same
        assert (format_word(a) == format_word(b)) is same
        assert (a == b) is same and (a != b) is not same
        assert repr(a) == format_word(a)
        if same:
            assert hash(a) == hash(b)
    assert 100 < equal < 1900
    assert format_word(Prod(Sum(ONE, Gen("s")), NEG_ONE)) == "((1 + s) * -1)"


def test_deep_word_helpers_do_not_recurse():
    w = tg.u_word(1000)
    # g_i = f1^6 f3 f1^i f3 has 8 + i leaves; u_1000 = g1 g4^1000 g3 g5^1000 g2.
    length = 9 + 1000 * 12 + 11 + 1000 * 13 + 10
    text = format_word(w)
    # 2003 factors chained left, the first of them eight products deep.
    assert text.startswith("(" * (2002 + 8) + "f1 * f1)")
    assert text.count("(") == length - 1
    back = tg.u_word(1000)
    assert back == w and back is not w
    assert hash(back) == hash(w)
    assert word_length(back) == word_length(w) == length
    assert word_generators(w) == {"f1", "f3"}
    assert format_word(back) == text
    assert back != tg.u_word(999)
    assert Prod(w, ONE) != Sum(w, ONE)
    assert Prod(w, ONE) != Prod(back, ZERO)
    assert repr(w) == text


def test_sum_and_prod_equality_and_hash():
    a, b = Gen("a"), Gen("b")
    assert Sum(a, b) == Sum(Gen("a"), Gen("b"))
    assert hash(Sum(a, b)) == hash(Sum(Gen("a"), Gen("b")))
    assert Sum(a, b) != Prod(a, b)
    assert Sum(a, b) != Sum(b, a)
    assert Prod(a, b) != a and a != Prod(a, b)
    assert len({Sum(a, b), Sum(a, b), Prod(a, b), a}) == 3


def test_generator_names_are_identifiers():
    # Otherwise Sum(Gen("1"), ONE) would print, and so compare, as Sum(ONE, ONE).
    for bad in ["1", "a b", "", "-1", "(s * s)"]:
        with pytest.raises(WordError, match="identifier"):
            Gen(bad)
    assert Gen("f1").name == "f1" and Gen("_s2").name == "_s2"


def test_eval_word_basics():
    env = {"s": shift(Z)}
    assert mx.first_mismatch(eval_word(ONE, env, Z), mx.identity_map(Z), 10) is None
    assert mx.first_mismatch(eval_word(ZERO, env, Z), mx.zero_map(Z), 10) is None
    w = Sum(Gen("s"), NEG_ONE)
    got = eval_word(w, env, Z)
    assert got.row(3) == FinVec(Z, {4: 1, 3: -1})
    with pytest.raises(WordError):
        eval_word(Gen("t"), env, Z)
    with pytest.raises(RingError, match="^ring mismatch: GF:2 vs Int$"):
        eval_word(Prod(ONE, Gen("s")), env, GF2)


def test_support_closure_examples():
    env = {"s": shift(Z)}
    rep = support_closure(FinVec.unit(Z, 1), lambda a: {a}, env, 3)
    assert rep.cover == {1, 2, 3, 4}
    # Diagonal alone never moves coordinates.
    rep = support_closure(FinVec(Z, {2: 1, 5: 1}), lambda a: {a}, {}, 7)
    assert rep.cover == {2, 5}
    rep = support_closure(FinVec.zero(Z), lambda a: {a}, {}, 3)
    assert rep.cover == frozenset()


def test_support_closure_rejects_an_infinite_bound_at_a_reached_row():
    env = {"s": shift(Z)}

    def supp(a):
        return itertools.count(1) if a == 3 else frozenset({a})

    # Radius 2 reaches row 3 but never steps from it.
    rep = support_closure(FinVec.unit(Z, 1), supp, env, 2)
    assert rep.cover == {1, 2, 3}
    with pytest.raises(WordError, match="row 3 is not a finite set"):
        support_closure(FinVec.unit(Z, 1), supp, env, 3)


def reference_closure(x, supp, maps, r):
    """Gamma_r by re-expanding the whole cover at every step: the slow
    oracle for `support_closure`."""
    cover = frozenset(x.support())
    for _ in range(r):
        out = set(cover)
        for a in cover:
            out.update(supp(a))
            for m in maps.values():
                out.update(m.row_support(a))
        cover = frozenset(out)
    return cover


DESCRIPTORS = [fr.diagonal_fearing(), fr.banded_fearing(1),
               fr.banded_fearing(2), fr.stretch_fearing(2),
               fr.paired_fearing()]


def test_support_closure_expands_each_row_once():
    rng = random.Random(3)
    maps = {"s": shift(Z), "m": mx.from_rows(Z, {2: {7: 1}, 6: {1: 1, 9: 1}})}
    for descriptor in DESCRIPTORS:
        for r in range(0, 6):
            x = FinVec(Z, {rng.randint(1, 8): 1 for _ in range(2)})
            calls = []

            def supp(a):
                calls.append(a)
                return descriptor.supp(a)

            cover = support_closure(x, supp, maps, r).cover
            assert cover == reference_closure(x, descriptor.supp, maps, r)
            # The rows expanded are the radius r - 1 cover, once each.
            expanded = (reference_closure(x, descriptor.supp, maps, r - 1)
                        if r else [])
            assert sorted(calls) == sorted(expanded), descriptor.name


def test_support_closure_monotone_in_radius():
    env = {"s": shift(Z)}
    covers = []
    for r in range(5):
        covers.append(support_closure(FinVec.unit(Z, 3), lambda a: {a}, env,
                                      r).cover)
    for small, big in zip(covers, covers[1:]):
        assert small <= big


def test_oracle_trivial_cases():
    env = {"s": shift(Z)}
    x1 = FinVec.unit(Z, 1)
    res = proximity_oracle(x1, x1, env, 2)
    assert res.found and res.r == 1
    res = proximity_oracle(x1, FinVec.unit(Z, 2), env, 2)
    assert res.found and res.r == 1 and res.witness == Gen("s")


def test_oracle_length_three_example():
    # 2*e3 from e1 needs a doubled double shift; lengths 1 and 2 fail.
    env = {"s": shift(Z5)}
    x1 = FinVec.unit(Z5, 1)
    x2 = FinVec(Z5, {3: 2})
    assert not proximity_oracle(x1, x2, env, 2).found
    res = proximity_oracle(x1, x2, env, 3)
    assert res.found and res.r == 3
    assert word_length(res.witness) == 3
    # Re-evaluating the witness reproduces the target exactly.
    assert x1.apply(eval_word(res.witness, env, Z5)) == x2


def test_oracle_minimizes_over_larger_bounds():
    env = {"s": shift(Z5)}
    x1 = FinVec.unit(Z5, 1)
    x2 = FinVec(Z5, {3: 2})
    r3 = proximity_oracle(x1, x2, env, 3)
    r5 = proximity_oracle(x1, x2, env, 5)
    assert r3.r == r5.r == 3
    assert r3.witness == r5.witness


def test_oracle_budget(monkeypatch):
    monkeypatch.setattr(wd, "WORD_CAP", 50)
    env = {"s": shift(Z)}
    with pytest.raises(wd.OracleBudgetExceeded, match="word cap 50"):
        proximity_oracle(FinVec.unit(Z, 1), FinVec.unit(Z, 9), env, 6)


def test_oracle_budget_counts_candidates_built(monkeypatch):
    # Over GF(2), 1 and -1 share a class, so length 2 is built from the
    # 3 representatives of length 1: 4 + 18 = 22 candidates in all.
    env = {"s": shift(GF2)}
    x1, x2 = FinVec.unit(GF2, 1), FinVec.unit(GF2, 9)
    assert proximity_oracle(x1, x2, env, 2).words_tried == 22
    monkeypatch.setattr(wd, "WORD_CAP", 22)
    assert not proximity_oracle(x1, x2, env, 2).found
    monkeypatch.setattr(wd, "WORD_CAP", 21)
    with pytest.raises(wd.OracleBudgetExceeded, match="at length 2"):
        proximity_oracle(x1, x2, env, 2)


def test_oracle_words_tried_is_pinned():
    # A change to the merge rule moves these counts.  With the shift alone
    # a word's vector fixes its rows; a second map makes the cover matter.
    res = proximity_oracle(FinVec.unit(GF2, 1), FinVec.unit(GF2, 9),
                           {"s": shift(GF2)}, 6)
    assert (res.found, res.r, res.witness, res.words_tried) == (False, 6, None, 340)
    m = mx.from_rows(GF2, {2: {5: 1}, 3: {1: 1, 2: 1}})
    res = proximity_oracle(FinVec.unit(GF2, 1), FinVec.unit(GF2, 20),
                           {"s": shift(GF2), "m": m}, 4)
    assert (res.found, res.words_tried) == (False, 503)
    assert brute_oracle(FinVec.unit(GF2, 1), FinVec.unit(GF2, 20),
                        {"s": shift(GF2), "m": m}, 4).words_tried == 26055


@pytest.mark.parametrize("spec", ["Zmod:6", "GF:3", "Mat:2:GF:2"])
def test_parent_rows_are_the_rows_of_the_built_map(spec):
    # The oracle reads a candidate's rows off its parents' rows; they must
    # be the rows of the map add_maps or compose would build for it.
    ring = parse_ring_spec(spec)
    rng = random.Random(20261019)
    for _ in range(12):
        env = {"s": shift(ring), "m": mx.from_rows(ring, {
            a: {c: ring.random_payload(rng) for c in rng.sample(range(1, 9), 2)}
            for a in rng.sample(range(1, 7), 4)})}
        x1 = _random_vec(rng, ring, 4, 2)
        cover = sorted(support_closure(x1, lambda a: {a}, env, 3).cover)
        lmat, rmat = (eval_word(_random_word(rng, 2), env, ring) for _ in range(2))
        assert wd._rows(None, lmat, None, cover) == tuple(lmat.row(a) for a in cover)
        assert wd._rows(Sum, lmat, rmat, cover) == tuple(
            mx.add_maps(lmat, rmat).row(a) for a in cover)
        assert wd._rows(Prod, lmat, rmat, cover) == tuple(
            mx.compose(lmat, rmat).row(a) for a in cover)


def _random_word(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([ZERO, ONE, NEG_ONE, Gen("s"), Gen("m")])
    return rng.choice([Sum, Prod])(_random_word(rng, depth - 1),
                                   _random_word(rng, depth - 1))


def test_oracle_builds_maps_for_representatives_only(monkeypatch):
    """add_maps and compose run once per kept representative of length >= 2.

    With the shift alone over GF(2) and x1 = e1, a word's class on any
    cover is its polynomial in s, so the representatives of length l are
    the polynomials of least length l.  The last level keeps nothing and
    builds no map, found or not.
    """
    built = []
    for name in ("add_maps", "compose"):
        original = getattr(wd, name)
        monkeypatch.setattr(wd, name, lambda f, g, original=original:
                            built.append(1) or original(f, g))
    env = {"s": shift(GF2)}
    least = _shift_polynomial_lengths(6)
    for r_max in range(1, 7):
        kept = sum(1 for n in least.values() if 2 <= n < r_max)
        last = next(bits for bits, n in least.items() if n == r_max)
        for bits in (last, 1 << 12):  # found at the last level, out of reach
            built.clear()
            x2 = FinVec(GF2, {1 + i: 1 for i in range(13) if bits >> i & 1})
            res = proximity_oracle(FinVec.unit(GF2, 1), x2, env, r_max)
            assert res.found == (bits == last) and res.r == r_max
            assert len(built) == kept, (r_max, bits)
    assert kept > 0


def _random_vec(rng, ring, top, entries):
    return FinVec(ring, {rng.randint(1, top): ring.random_payload(rng)
                         for _ in range(entries)})


def test_merged_oracle_matches_brute_force():
    """Same found, r and witness as the reference that merges nothing.

    Half the cases bind a random finite-support map m beside the shift,
    as `oracle --in` does.  Each case asks the brute-force oracle about
    one random target, mostly out of reach, and reads its answer for up
    to ten reachable targets off one full enumeration: a merge rule that
    drops a needed word shows up as a later or missing witness there.
    Shift-only cases at radii 5 and 6 then reach the levels where most
    words equal a shorter one and are dropped.
    """
    rng = random.Random(20261018)
    rings = [parse_ring_spec(spec) for spec in ("GF:2", "Zmod:5", "Mat:2:GF:2")]
    checked = skipped = 0
    for case in range(72):
        ring = rings[case % 3]
        env = {"s": shift(ring)}
        if case % 2:
            env["m"] = mx.from_rows(ring, {
                a: {c: ring.random_payload(rng)
                    for c in rng.sample(range(1, 9), rng.randint(1, 2))}
                for a in rng.sample(range(1, 7), rng.randint(1, 6))})
        top = 3 if ring.spec.startswith("Mat") or "m" in env else 4
        r_max = rng.randint(1, top)
        x1 = _random_vec(rng, ring, 4, rng.randint(1, 2))
        x2 = _random_vec(rng, ring, 8, rng.randint(1, 2))
        try:
            ref = brute_oracle(x1, x2, env, r_max)
            first = first_words(x1, env, r_max)
        except wd.OracleBudgetExceeded:
            skipped += 1
            continue
        got = proximity_oracle(x1, x2, env, r_max)
        assert (got.found, got.r, got.witness) == (ref.found, ref.r, ref.witness), (
            ring.spec, sorted(env), r_max, x1, x2)
        assert got.words_tried <= ref.words_tried
        if not ref.found:
            assert ref.words_tried == words_up_to(env, r_max)
        reachable = list(first)
        for x2 in rng.sample(reachable, min(10, len(reachable))):
            got, ref = proximity_oracle(x1, x2, env, r_max), first[x2]
            assert (got.found, got.r, got.witness) == (True, ref.r, ref.witness), (
                ring.spec, sorted(env), r_max, x1, x2)
            assert got.words_tried <= ref.words_tried
        checked += 1
    assert skipped < checked

    # The shift alone over GF(2) at radii 5 and 6, where most words equal
    # a shorter one on the cover and are dropped.  One enumeration to
    # length 5 gives the brute-force answer for every target reached by
    # then, at either radius: a brute-force search that finds its target
    # by length 5 never builds length 6.
    env = {"s": shift(GF2)}
    x1 = FinVec(GF2, {1: 1, 3: 1})
    first = first_words(x1, env, 5)
    for x2, ref in first.items():
        for r_max in (5, 6):
            got = proximity_oracle(x1, x2, env, r_max)
            assert (got.found, got.r, got.witness) == (True, ref.r, ref.witness), (
                r_max, x2)
            assert got.words_tried <= ref.words_tried
    assert {ref.r for ref in first.values()} == {1, 2, 3, 4, 5}
    # Out of reach, brute force tries every word up to length 5.
    far = FinVec.unit(GF2, 2)
    assert far not in first
    got = proximity_oracle(x1, far, env, 5)
    assert (got.found, got.r, got.witness) == (False, 5, None)
    assert got.words_tried <= words_up_to(env, 5)
    # Length 6 passes WORD_CAP by brute force, so radius 6 is checked
    # against the least length of each polynomial in s instead.
    least = _shift_polynomial_lengths(6)
    outcomes = set()
    for bits in range(1, 1 << 8):
        x2 = FinVec(GF2, {1 + i: 1 for i in range(8) if bits >> i & 1})
        got = proximity_oracle(FinVec.unit(GF2, 1), x2, env, 6)
        assert (got.found, got.r) == ((True, least[bits]) if bits in least
                                      else (False, 6)), bits
        if got.found:
            assert word_length(got.witness) == got.r
            assert FinVec.unit(GF2, 1).apply(eval_word(got.witness, env, GF2)) == x2
        outcomes.add((got.found, got.r))
    assert {(True, 6), (False, 6)} <= outcomes


def _shift_polynomial_lengths(r_max):
    """Least length of a shift-only word for each polynomial p(s) over GF(2).

    A word in the shift s alone evaluates to a polynomial in s, kept here
    as a bitmask (bit i is the coefficient of s^i), and e1 . p(s) has
    entry 1 at 1 + i for each set bit i.  So this is an exact, merge-free
    reference for found and r when x1 = e1.
    """
    def times(p, q):
        out = 0
        while q:
            if q & 1:
                out ^= p
            p, q = p << 1, q >> 1
        return out

    levels = [{0, 1, 2}]  # 0, 1 = -1, and s
    for n in range(2, r_max + 1):
        levels.append({op(p, q) for m in range(1, n)
                       for p in levels[m - 1] for q in levels[n - m - 1]
                       for op in (int.__xor__, times)})
    least = {}
    for n, level in enumerate(levels, 1):
        for p in level:
            least.setdefault(p, n)
    return least


def test_ball_containment_property():
    """support(x . eval(w)) is always inside the closure cover of radius len(w)."""
    rng = random.Random(9)
    env = {"s": shift(GF2), "d": mx.scalar_map(GF2, 1)}

    def random_word(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([ZERO, ONE, NEG_ONE, Gen("s"), Gen("d")])
        ctor = rng.choice([Sum, Prod])
        return ctor(random_word(depth - 1), random_word(depth - 1))

    for _ in range(60):
        w = random_word(3)
        x = FinVec(GF2, {rng.randint(1, 12): 1 for _ in range(rng.randint(1, 3))})
        val = x.apply(eval_word(w, env, GF2))
        rep = support_closure(x, lambda a: {a}, env, word_length(w))
        assert val.support() <= rep.cover
