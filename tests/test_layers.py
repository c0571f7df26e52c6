"""Layer steps (`rowfin.indexing.LayerStep`) against the decode-and-encode
closures they replaced (`oracle_reference.layer_index`).

Each step kind, and each composition rule as `Monomial.then` applies
it, is cross-checked on rows 1..10^5 and on runs of rows near 10^9,
10^12 and 10^18.  A wrong result planted in each rule in turn must
fail that cross-check, and, where a report composes layer steps by that
rule, the default `two-gen` and `maltsev` reports too.  So must a
partition that names the wrong landing class for a step.
"""

import pytest
import oracle_reference as ref

from rowfin import cli
from rowfin import matrices as mx
from rowfin import twogen as tg
from rowfin.indexing import IndexError_, LayerPartition, LayerStep, SevenPartition
from rowfin.rings import parse_ring_spec

Z = parse_ring_spec("Int")

NEAR = [top + d for top in (10 ** 9, 10 ** 12, 10 ** 18) for d in range(-100, 100)]
ROWS = list(range(1, 10 ** 5 + 1)) + NEAR


def walked(steps, t):
    """t sent through the steps' reference index maps, None once undefined."""
    for kind, k in steps:
        t = ref.layer_index(kind, k)(t)
        if t is None:
            return None
    return t


def first_difference(steps, rows):
    """The first row where the merged walk of the steps differs from the
    reference, as (row, got, expected), or None."""
    mono = mx.Monomial(Z)
    for kind, k in steps:
        mono = mono.then(mx.Monomial(Z, (LayerStep(kind, k),)))
    for t in rows:
        got, expected = mx._walk(mono.walk, t), walked(steps, t)
        if got != expected:
            return t, got, expected
    return None


STEPS = [("embed", 0), ("embed", -3), ("shift", 1), ("shift", -1),
         ("shift", 4), ("project", 0), ("project", -2), ("keep", 0), ("keep", 3)]


@pytest.mark.parametrize("kind, k", STEPS)
def test_each_step_matches_the_pairing_closures(kind, k):
    step, index = LayerStep(kind, k), ref.layer_index(kind, k)
    assert [t for t in ROWS if step(t) != index(t)] == []


def test_an_unknown_kind_is_rejected():
    with pytest.raises(IndexError_, match="unknown layer step 'lift'"):
        LayerStep("lift", 1)


# Each composition rule, with the step pairs it merges.
RULES = {
    "embed shift": [(("embed", 0), ("shift", 1)), (("embed", -2), ("shift", 5))],
    "shift shift": [(("shift", 1), ("shift", -1)), (("shift", -2), ("shift", 3))],
    "shift project": [(("shift", -1), ("project", 0)), (("shift", 2), ("project", -1))],
    "embed project": [(("embed", 0), ("project", 0)), (("embed", -3), ("project", -3))],
    "project embed": [(("project", 0), ("embed", 0)), (("project", 2), ("embed", 2))],
}

# The rules a report reaches: the construction identities g2 g1, g1 g2,
# g4 g5 and g5 g4, the u-word prefixes g1 g_up^k, the middle maps
# g1 g_up^k g3, where embed(k) meets the project(k) of g3's piece, and
# the u-word suffixes g_down^k g2.
REPORTED = ("embed shift", "shift shift", "shift project", "embed project",
            "project embed")


def rule_failures(rows):
    """Each rule's pair whose merged walk is not one step or differs
    from the reference, with its first differing row: a rule's first
    pair on `rows`, the others on the first 2000 of them and the rows
    near 10^9, 10^12 and 10^18."""
    failures = []
    for name, pairs in RULES.items():
        for n, pair in enumerate(pairs):
            a, b = (LayerStep(*step) for step in pair)
            merged = a.then(b)
            difference = first_difference(pair,
                                          rows if n == 0 else rows[:2000] + NEAR)
            if merged is None or len(merged) > 1 or difference:
                failures.append((name, pair, merged, difference))
    return failures


def test_every_composition_rule_matches_the_pairing_closures():
    assert rule_failures(ROWS) == []


def test_rules_give_the_documented_steps():
    def merged(a, b):
        out = LayerStep(*a).then(LayerStep(*b))
        return None if out is None else [(s.kind, s.k) for s in out]

    assert merged(("embed", 2), ("shift", -5)) == [("embed", -3)]
    assert merged(("shift", 2), ("shift", 3)) == [("shift", 5)]
    assert merged(("shift", 2), ("shift", -2)) == []
    assert merged(("shift", 2), ("project", 1)) == [("project", -1)]
    assert merged(("embed", 4), ("project", 4)) == []
    assert merged(("project", 4), ("embed", 4)) == [("keep", 4)]


# Adjacent pairs that no rule merges: they stay two steps, and the walk
# still matches the reference.
UNMERGED = [(("keep", 0), ("shift", 1)), (("embed", 0), ("project", 1)),
            (("project", 0), ("embed", 1)), (("shift", 1), ("embed", 0)),
            (("project", 0), ("shift", 1)), (("keep", 1), ("keep", 1)),
            (("shift", 1), ("keep", 0)), (("project", 1), ("project", 1))]


@pytest.mark.parametrize("pair", UNMERGED)
def test_other_pairs_stay_two_steps(pair):
    mono = mx.Monomial(Z, (LayerStep(*pair[0]),)).then(
        mx.Monomial(Z, (LayerStep(*pair[1]),)))
    assert [(s.kind, s.k) for s in mono.walk] == list(pair)
    assert first_difference(pair, list(range(1, 2001)) + NEAR) is None


def test_merges_cascade_where_the_walks_meet():
    """embed(0) shift(1) then shift(-1) project(0): the shifts cancel,
    and embed(0) project(0) is then the identity, so nothing is left."""
    left = mx.Monomial(Z, (LayerStep("embed", 0), LayerStep("shift", 1)))
    right = mx.Monomial(Z, (LayerStep("shift", -1), LayerStep("project", 0)))
    assert left.then(right).walk == ()


# A wrong result for each rule in turn, given where the rule applies.
MUTANTS = {
    "embed shift": lambda a, b: (LayerStep("embed", a.k - b.k),),
    "shift shift": lambda a, b: (LayerStep("shift", a.k - b.k),),
    "shift project": lambda a, b: (LayerStep("project", b.k + a.k),),
    "embed project": lambda a, b: (LayerStep("keep", a.k),),
    "project embed": lambda a, b: (),
}


@pytest.mark.parametrize("rule", sorted(MUTANTS))
def test_a_wrong_rule_fails_the_cross_check_and_the_reports(monkeypatch, rule):
    then, kinds = LayerStep.then, tuple(rule.split())

    def mutant(a, b):
        right = then(a, b)
        if right is not None and (a.kind, b.kind) == kinds:
            return MUTANTS[rule](a, b)
        return right

    monkeypatch.setattr(LayerStep, "then", mutant)
    assert {name for name, *_ in rule_failures(ROWS[:100])} == {rule}
    failed = [argv for argv in (["two-gen"], ["maltsev"]) if cli.run(argv)[0].failed]
    assert failed == ([["two-gen"], ["maltsev"]] if rule in REPORTED else [])


def test_the_g_maps_are_layer_steps():
    g = tg.build_g_family({}, Z)
    steps = {i: [(s.kind, s.k) for s in g[i].walk] for i in (1, 2, 4, 5)}
    assert steps == {1: [("embed", 0)], 2: [("project", 0)], 4: [("shift", 1)],
                     5: [("shift", -1)]}
    assert [(s.kind, s.k) for s in tg.pi_sigma(Z).walk] == [("keep", 0)]


# A landing class one off: embed(k) said to land on layer k + 1, and a
# table step on the mod-7 class before the one it lands on.  (One class
# after sends f1^6 to class 1, which has no piece, so nothing reduces
# and only the `all rows` details change.)
LANDING_MUTANTS = {
    "layer k + 1": (LayerPartition, lambda c: c + 1),
    "seven one class down": (SevenPartition, lambda c: (c - 2) % 7 + 1),
}


@pytest.mark.parametrize("mutant", sorted(LANDING_MUTANTS))
def test_a_wrong_landing_fails_the_reports(monkeypatch, mutant):
    partition, wrong = LANDING_MUTANTS[mutant]
    landing = partition.landing

    def mutated(self, step):
        c = landing(self, step)
        return None if c is None else wrong(c)

    monkeypatch.setattr(partition, "landing", mutated)
    failed = [argv for argv in (["two-gen"], ["maltsev"]) if cli.run(argv)[0].failed]
    assert failed == [["two-gen"], ["maltsev"]]
