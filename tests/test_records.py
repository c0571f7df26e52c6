"""Semantics of rowfin's record classes that other code relies on.

Words compare and hash by their printed form and preorder descriptors by
value, a preorder descriptor validates its form when built, and an oracle
result is built positionally, as the brute-force oracle in
`oracle_reference` builds it.
"""

import pytest

from rowfin.indexing import PreorderDescriptor, PreorderSpecError, parse_preorder
from rowfin.words import NEG_ONE, ONE, ZERO, Const, Gen, ProximityResult, Sum


def test_generators_and_constants_compare_and_hash_by_value():
    assert Gen("s") == Gen("s") and hash(Gen("s")) == hash(Gen("s"))
    assert Gen("s") != Gen("t")
    assert Const(1) == ONE and hash(Const(1)) == hash(ONE)
    assert Const(0) == ZERO and Const(-1) == NEG_ONE
    assert ZERO != ONE != NEG_ONE
    # Equality needs the same class: no leaf equals a bare value or a sum.
    assert Gen("s") != "s" and Const(1) != 1
    assert Gen("s") != Sum(Gen("s"), ZERO)
    assert len({Gen("s"), Gen("s"), Const(0), ZERO, Gen("t")}) == 3


def test_preorder_descriptors_compare_and_hash_by_value():
    le = PreorderDescriptor("le", 1, frozenset({(1, 1, 0), (1, 1, 1)}))
    assert le == parse_preorder("le") and hash(le) == hash(parse_preorder("le"))
    assert (le.K, le.finite) == (0, frozenset())
    # Every field counts, the name too.
    assert le != PreorderDescriptor("le2", 1, le.table)
    assert le != parse_preorder("ge")
    assert parse_preorder("union-finite:(1,2)") != parse_preorder("union-finite:(1,3)")
    assert le != "le"
    assert len({le, parse_preorder("le"), parse_preorder("diag")}) == 2


@pytest.mark.parametrize("args, message", [
    (("p0", 0, frozenset()), "period 0 must be >= 1 and K 0 >= 0"),
    (("k-1", 1, frozenset({(1, 1, 0)}), -1), "period 1 must be >= 1 and K -1 >= 0"),
    (("class", 1, frozenset({(1, 2, 1)})), r"table triple \(1,2,1\)"),
    (("sign", 1, frozenset({(1, 1, 2)})), r"table triple \(1,1,2\)"),
    (("zero-sign", 2, frozenset({(1, 2, 0)})), r"table triple \(1,2,0\)"),
    (("beyond-K", 1, frozenset({(1, 1, 0)}), 2, frozenset({(1, 3)})),
     r"finite pair \(1,3\)"),
], ids=["period", "K", "table-class", "table-sign", "table-zero-sign",
        "finite-beyond-K"])
def test_a_bad_preorder_form_is_rejected_when_built(args, message):
    with pytest.raises(PreorderSpecError, match=message):
        PreorderDescriptor(*args)


def test_proximity_results_are_built_positionally():
    res = ProximityResult(True, 3, Gen("s"), 12)
    assert (res.found, res.r, res.witness, res.words_tried) == (True, 3, Gen("s"), 12)
    res = ProximityResult(False, 5, None, 40)
    assert (res.found, res.r, res.witness, res.words_tried) == (False, 5, None, 40)
