import random
import re
import time

import pytest

from rowfin import classify as cl
from rowfin import matrices as mx
from rowfin.indexing import (PreorderDescriptor, PreorderSpecError,
                             parse_preorder)
from rowfin.rings import IntegerRing, MatrixRing, PrimeField, parse_ring_spec
from rowfin.triangular import sandwich_A

Z = IntegerRing()
GF3 = parse_ring_spec("GF:3")


def test_membership_examples():
    diag = parse_preorder("diag")
    violations = cl.preorder_membership(mx.matrix_unit(Z, 1, 2), diag,
                                        range(1, 9))
    assert violations
    assert violations[0] == (1, 2)
    assert not cl.preorder_membership(mx.identity_map(Z), diag, range(1, 9))

    ge = parse_preorder("ge")
    violations = cl.preorder_membership(sandwich_A(Z), ge, range(1, 9))
    assert violations
    assert violations[0] == (2, 3)

    le = parse_preorder("le")
    assert not cl.preorder_membership(mx.matrix_unit(Z, 1, 2), le, range(1, 9))
    assert cl.preorder_membership(mx.matrix_unit(Z, 2, 1), le, range(1, 9))


VERDICTS = [
    ("diag", "DClass"),
    ("ge", "DClass"),
    ("le", "EClass"),
    ("full", "EClass"),
    ("union-finite:(1,2),(2,3),(5,9)", "DClass"),
    ("mod:3:(1,2)", "EClass"),
]


# The specs of acceptance criterion 05 that VERDICTS does not list.
CRITERION_05 = [
    ("union-finite:(1,2),(2,3),(4,7)", "DClass"),
    ("mod:5:(1,2),(2,3)", "EClass"),
]


@pytest.mark.parametrize("spec,expected", VERDICTS + CRITERION_05)
def test_classification_table(spec, expected, reference_relation):
    rho = parse_preorder(spec)
    assert cl.classify_preorder(rho) == expected
    rows = range(1, 61)
    assert {(a, b) for a in rows for b in rows
            if rho.rel(a, b)} == reference_relation(spec, 60)


def test_normal_form_rejects_a_relation_that_is_not_reflexive():
    with pytest.raises(PreorderSpecError, match="not reflexive at 1"):
        PreorderDescriptor("no-diagonal", 1, frozenset({(1, 1, 1), (1, 1, -1)}))


def test_normal_form_rejects_a_relation_that_is_not_transitive():
    # Row 1 reaches row 2 and row 2 reaches row 3, but class 1 does not
    # reach class 1 upwards.  The message names the nearest such rows.
    table = frozenset({(1, 1, 0), (2, 2, 0), (1, 2, 1), (2, 1, 1)})
    with pytest.raises(PreorderSpecError, match="1 ~ 2 ~ 3 but not 1 ~ 3"):
        PreorderDescriptor("skew", 2, table)
    # The same form, built without the constructor's check.
    rho = object.__new__(PreorderDescriptor)
    rho.name, rho.period, rho.table, rho.K, rho.finite = \
        "skew", 2, table, 0, frozenset()
    assert rho.rel(1, 2) and rho.rel(2, 3) and not rho.rel(1, 3)


CHAIN_300 = "union-finite:" + ",".join(f"({a},{a + 1})" for a in range(1, 300))


@pytest.mark.parametrize("spec,expected", [(CHAIN_300, "DClass"),
                                           ("mod:400:(1,2)", "EClass")],
                         ids=["chain-300", "mod-400"])
def test_exact_decision_is_fast_on_long_specs(spec, expected):
    start = time.monotonic()
    assert cl.classify_preorder(parse_preorder(spec)) == expected
    assert time.monotonic() - start < 1.0


def random_target(ring, rng, window):
    rows = {}
    for j in range(1, window + 1):
        entries = {c: ring.random_payload(rng)
                   for c in range(1, window + 1) if rng.random() < 0.4}
        if entries:
            rows[j] = entries
    return mx.from_rows(ring, rows)


# Hand-built normal forms whose least rising triple (c, d, +1) has c != d
# and whose exceptions reach K > 0.
SKEW_2 = PreorderDescriptor("skew-2", 2,
                            frozenset({(1, 1, 0), (2, 2, 0), (2, 1, 1)}),
                            3, frozenset({(1, 3)}))
SKEW_3 = PreorderDescriptor("skew-3", 3,
                            frozenset({(1, 1, 0), (2, 2, 0), (3, 3, 0),
                                       (3, 2, 1), (3, 2, -1), (1, 2, 1)}),
                            4, frozenset({(1, 2), (3, 2), (4, 2)}))

WITNESS_CASES = [(parse_preorder(spec), (1, 1))
                 for spec in ("le", "full", "mod:1:", "mod:3:(1,2)",
                              "mod:5:(1,2),(2,3)")]
WITNESS_CASES += [(SKEW_2, (2, 1)), (SKEW_3, (1, 2))]


def test_eclass_witness_takes_the_least_rising_triple():
    for rho, classes in WITNESS_CASES:
        witness = cl.eclass_witness(rho, GF3)
        assert (witness.anchor_class, witness.bar_class) == classes, rho.name


def test_witness_bars_are_disjoint_and_above_their_anchors():
    for rho, _ in WITNESS_CASES:
        witness = cl.eclass_witness(rho, GF3)
        m, K = rho.period, rho.K
        bars = {}
        for j in range(1, 9):
            a = witness.anchor(j)
            assert a > K and (a - 1) % m + 1 == witness.anchor_class
            for t in range(1, 9):
                b = witness.bar(j, t)
                assert b not in bars, "bars must be pairwise disjoint"
                bars[b] = t
                assert b > a and rho.rel(a, b)
        # h sends each bar cell back to its position and every other row
        # to zero.
        top = max(bars)
        cells = {witness.bar(j, t): t for j in range(1, top) for t in range(1, top)
                 if witness.bar(j, t) <= top}
        for alpha in range(1, top + 1):
            row = witness.h.row(alpha)
            if alpha in cells:
                assert row == mx.FinVec.unit(GF3, cells[alpha])
            else:
                assert row.is_zero()


def test_disjoint_witness_lifts_arbitrary_targets():
    rng = random.Random(1)
    for rho, _ in WITNESS_CASES:
        witness = cl.eclass_witness(rho, GF3)
        for _ in range(5):
            target = random_target(GF3, rng, 12)
            lifted = witness.lift(target, 12)
            assert witness.verify(target, lifted, 12) is None
            anchors = [witness.anchor(j) for j in range(1, 13)]
            assert not cl.preorder_membership(lifted, rho, anchors)


def test_nested_witness_lifts_upper_triangular():
    # The le witness of the nested case, on targets with cells only on or
    # above the diagonal.
    witness = cl.eclass_witness(parse_preorder("le"), GF3)
    rng = random.Random(0)
    for _ in range(5):
        full = random_target(GF3, rng, 12)
        target = mx.from_rows(GF3, {
            j: {c: v for c, v in full.row(j).entries.items() if c >= j}
            for j in range(1, 13)})
        lifted = witness.lift(target, 12)
        assert witness.verify(target, lifted, 12) is None
        anchors = [witness.anchor(j) for j in range(1, 13)]
        assert not cl.preorder_membership(lifted, witness.rho, anchors)


def test_witness_lift_of_zero_is_zero():
    witness = cl.eclass_witness(parse_preorder("le"), GF3)
    lifted = witness.lift(mx.zero_map(GF3), 10)
    for a in range(1, 20):
        assert lifted.row(a).is_zero()


def test_disjoint_witness_fixed_example():
    witness = cl.eclass_witness(parse_preorder("mod:2:(1,2)"), GF3)
    target = mx.add_maps(mx.matrix_unit(GF3, 1, 1), mx.matrix_unit(GF3, 2, 3))
    assert witness.verify(target, witness.lift(target, 8), 8) is None


def test_disjoint_witness_checks_every_row_of_the_lift():
    # Bars in class 3, which class 1 does not reach: row 12 of a target
    # lifts to anchor 34 with a cell outside the preorder.  The sandwich
    # still holds, and row 34 lies beyond the window.
    rho = parse_preorder("mod:3:(1,2)")
    witness = cl.EquivWitness(rho, GF3, 1, 3)
    target = mx.matrix_unit(GF3, 12, 1)
    failure = witness.verify(target, witness.lift(target, 12), 12)
    assert re.search(r"membership at \(34, 237\)", failure)


def test_witness_check_sees_an_extra_cell_on_a_bar():
    for rho, _ in WITNESS_CASES:
        witness = cl.eclass_witness(rho, GF3)
        target = random_target(GF3, random.Random(5), 12)
        extra = mx.matrix_unit(GF3, witness.anchor(1), witness.bar(1, 1))
        lifted = mx.add_maps(witness.lift(target, 12), extra)
        assert re.search("sandwich mismatch: row 1",
                         witness.verify(target, lifted, 12))


def test_eclass_witness_refuses_dclass():
    with pytest.raises(cl.ClassifyError):
        cl.eclass_witness(parse_preorder("ge"), GF3)


def test_simple_full_census():
    census = cl.simple_full_check(2, 2)
    assert census.count == 4
    diag = ((1, 1), (2, 2))
    expected = {
        diag,                                  # diagonal
        tuple(sorted(diag + ((1, 2),))),       # upper
        tuple(sorted(diag + ((2, 1),))),       # lower
        tuple(sorted(diag + ((1, 2), (2, 1)))),  # full
    }
    assert set(census.preorders) == expected
    assert sorted(census.sizes) == [4, 8, 8, 16]


def reference_census(n, p):
    """The element-set census: every subring as the set of its p^dim matrices.

    Closes sets under pairwise products, sums and negation, and extends
    each subring by every element outside it.  Exponential in n*n; the
    slow oracle for `simple_full_check`.
    """
    ring = MatrixRing(PrimeField(p), n)
    all_elems = [ring.nth_element(i) for i in range(ring.size())]
    diagonal = [e for e in all_elems
                if all(e[i][j] == 0 for i in range(n) for j in range(n) if i != j)]

    def closure(gens):
        s = set(gens)
        frontier = set(gens)
        while frontier:
            new = set()
            items = list(s)
            for a in frontier:
                for b in items:
                    for c in (ring.mul(a, b), ring.mul(b, a),
                              ring.add(a, b), ring.neg(a)):
                        if c not in s:
                            new.add(c)
            s |= new
            frontier = new
        return frozenset(s)

    base = closure(diagonal)
    found = {base}
    queue = [base]
    while queue:
        s = queue.pop()
        for x in all_elems:
            if x in s:
                continue
            bigger = closure(s | {x})
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    preorders = {tuple(sorted({(i + 1, j + 1) for e in s for i in range(n)
                               for j in range(n) if e[i][j] != 0}))
                 for s in found}
    return len(found), preorders, sorted(len(s) for s in found)


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)])
def test_simple_full_matches_element_set_census(n, p):
    census = cl.simple_full_check(n, p)
    count, preorders, sizes = reference_census(n, p)
    assert census.count == count
    assert set(census.preorders) == preorders
    assert len(census.preorders) == count
    assert sorted(census.sizes) == sizes


def orbit_free_census(n, p):
    """The census search with no permutation orbits: every closed subring
    is extended by every line of E/S.  The reference for
    `simple_full_check`, built from the same cell algebra and read out in
    the same order."""
    algebra = cl._CellAlgebra(PrimeField(p), n)
    base = algebra.close({}, [], [algebra.unit(i, i) for i in range(n)])
    found = {algebra.key(base): base}
    queue = [base]
    while queue:
        s = queue.pop()
        gens = list(s.values())
        for x in algebra.line_representatives(s):
            bigger = algebra.close(s, gens, [x])
            key = algebra.key(bigger)
            if key not in found:
                found[key] = bigger
                queue.append(bigger)
    subrings = []
    for s in found.values():
        rel = {(c // n + 1, c % n + 1)
               for row in s.values() for c, v in enumerate(row) if v}
        subrings.append((len(s), sorted((b, a) for a, b in rel),
                         tuple(sorted(rel))))
    subrings.sort()
    return (len(found), [rel for _, _, rel in subrings],
            [p ** dim for dim, _, _ in subrings])


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_orbit_search_matches_the_orbit_free_search(n, p):
    census = cl.simple_full_check(n, p)
    count, preorders, sizes = orbit_free_census(n, p)
    assert (census.count, census.preorders, census.sizes) == (count, preorders,
                                                               sizes)


def is_preorder(rel, n):
    rel = set(rel)
    return (all((a, a) in rel for a in range(1, n + 1))
            and all((a, d) in rel for a, b in rel for c, d in rel if b == c))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_simple_full_three_by_three(p):
    census = cl.simple_full_check(3, p)
    assert census.count == 29  # preorders on three points (OEIS A000798)
    assert len(set(census.preorders)) == 29
    assert all(is_preorder(rel, 3) for rel in census.preorders)
    assert census.sizes == [p ** len(rel) for rel in census.preorders]
    # By size, ties by the cells read column by column.
    keys = [(len(rel), sorted((b, a) for a, b in rel))
            for rel in census.preorders]
    assert keys == sorted(keys)


def test_simple_full_rejects_bad_parameters(monkeypatch):
    for n, p, match in ((2, 4, "prime"), (0, 2, ">= 1")):
        with pytest.raises(cl.ClassifyError, match=match) as info:
            cl.simple_full_check(n, p)
        assert not isinstance(info.value, cl.CensusInfeasible)
    # 63 candidate lines at the 3x3 diagonal over GF(2).
    monkeypatch.setattr(cl, "CENSUS_CAP", 62)
    with pytest.raises(cl.CensusInfeasible, match="feasibility cap 62"):
        cl.simple_full_check(3, 2)
    monkeypatch.setattr(cl, "CENSUS_CAP", 63)
    assert cl.simple_full_check(3, 2).count == 29


def test_simple_full_trivial_and_cap():
    assert cl.simple_full_check(1, 3).count == 1
    with pytest.raises(cl.ClassifyError):
        cl.simple_full_check(3, 11)

