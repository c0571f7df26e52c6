import itertools

import pytest

from rowfin import fearing as fr
from rowfin import matrices as mx
from rowfin import triangular as tr
from rowfin.matrices import FinVec
from rowfin.rings import parse_ring_spec
from rowfin.words import WordError, proximity_oracle

GF2 = parse_ring_spec("GF:2")
GF3 = parse_ring_spec("GF:3")


def shift(ring):
    return mx.from_index_map(ring, lambda a: a + 1)


def certified(p, g, ring):
    """x_j g = y_j for block p, with x_j = e_start and y_j = e_escape."""
    return FinVec.unit(ring, p.start).apply(g) == FinVec.unit(ring, p.escape)


def test_descriptor_supports():
    assert fr.diagonal_fearing().supp(5) == {5}
    assert fr.banded_fearing(2).supp(5) == {3, 4, 5, 6, 7}
    assert fr.banded_fearing(2).supp(1) == {1, 2, 3}
    assert fr.stretch_fearing(2).supp(3) == frozenset(range(1, 7))
    assert fr.paired_fearing().supp(3) == fr.paired_fearing().supp(4) == {4}


def test_descriptor_membership_and_samples():
    for make in [fr.diagonal_fearing, lambda: fr.banded_fearing(1),
                 lambda: fr.stretch_fearing(2), fr.paired_fearing]:
        descriptor = make()
        for seed in range(5):
            h = descriptor.sample(GF3, seed)
            for a in range(1, 25):
                assert h.row_support(a) <= descriptor.supp(a)


def test_fear_witness_first_block_geometry():
    witness = fr.fear_witness(fr.diagonal_fearing(), {"s": shift(GF3)}, 3, GF3)
    first = witness.pairs[0]
    assert first.start == 1
    assert first.cover == {1, 2}
    assert first.escape == 3


def test_fear_witness_no_extra_maps():
    witness = fr.fear_witness(fr.diagonal_fearing(), {}, 4, GF3)
    for p in witness.pairs:
        assert p.cover == {p.start}
        assert p.escape == p.start + 1
        assert certified(p, witness.g, GF3)


def test_fear_witness_blocks_disjoint_and_certified():
    witness = fr.fear_witness(fr.diagonal_fearing(), {"s": shift(GF3)}, 8, GF3)
    seen = set()
    for p in witness.pairs:
        block = {p.start, p.escape}
        assert p.start < p.escape and not (block & seen)
        seen |= block
        assert certified(p, witness.g, GF3)
        assert p.escape not in p.cover


def test_fear_witness_requires_pointwise_finiteness():
    weak = fr.FearingDescriptor(
        "one-wide-row",
        lambda a: itertools.count(1) if a == 1 else frozenset({a}),
    )
    with pytest.raises(WordError, match="row 1 is not a finite set"):
        fr.fear_witness(weak, {}, 2, GF3)


def test_closure_and_lower_embed_share_one_finiteness_test():
    env = {"s": shift(GF3)}
    setdiag = fr.FearingDescriptor("setdiag", lambda a: {a})
    witness = fr.fear_witness(setdiag, env, 4, GF3)
    for p in witness.pairs:
        assert certified(p, witness.g, GF3)
        assert p.escape not in p.cover
    g, f = tr.fear_lower_embed(setdiag, GF3)
    assert mx.first_mismatch(mx.compose(g, f), mx.identity_map(GF3), 8) is None
    assert [g.row(k) for k in range(1, 9)] == [FinVec.unit(GF3, k)
                                               for k in range(1, 9)]
    counting = fr.FearingDescriptor("counting", lambda a: itertools.count(1))
    with pytest.raises(WordError, match="not a finite set"):
        fr.fear_witness(counting, env, 4, GF3)
    # The maps are lazy: the bound is read with the first row.
    g, _ = tr.fear_lower_embed(counting, GF3)
    with pytest.raises(tr.SandwichError, match="not finitely fearing"):
        g.row(1)


def test_fear_witness_oracle_confirms_certificates():
    env = {"s": shift(GF2)}
    witness = fr.fear_witness(fr.diagonal_fearing(), env, 2, GF2)
    for p in witness.pairs:
        res = proximity_oracle(FinVec.unit(GF2, p.start),
                               FinVec.unit(GF2, p.escape), env, p.j)
        assert not res.found
