"""Semantics of rowfin's record classes that other code relies on.

A preorder descriptor validates its form when built and has no finite
exceptions unless given them, and an oracle result is built
positionally, as the brute-force oracle in `oracle_reference` builds it.
"""

import pytest

from rowfin.indexing import PreorderDescriptor, PreorderSpecError, parse_preorder
from rowfin.words import Gen, ProximityResult


def test_preorder_descriptor_fields():
    le = PreorderDescriptor("le", 1, frozenset({(1, 1, 0), (1, 1, 1)}))
    assert (le.K, le.finite) == (0, frozenset())
    parsed = parse_preorder("le")
    assert (parsed.name, parsed.period, parsed.table, parsed.K, parsed.finite) == (
        "le", 1, le.table, 0, frozenset())
    assert parse_preorder("union-finite:(1,2)").finite != \
        parse_preorder("union-finite:(1,3)").finite


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
    s = Gen("s")
    res = ProximityResult(True, 3, s, 12)
    assert (res.found, res.r, res.witness, res.words_tried) == (True, 3, s, 12)
    res = ProximityResult(False, 5, None, 40)
    assert (res.found, res.r, res.witness, res.words_tried) == (False, 5, None, 40)
