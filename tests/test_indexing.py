import pytest

from rowfin import classify as cl
from rowfin.indexing import (PairedSliceSet, PreorderSpecError,
                             ResidueClassSet, SevenPartition, TailSet,
                             ZPairing, cantor_pair, cantor_unpair,
                             parse_preorder, tri, tri_block, tri_split, zfold,
                             zunfold)


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
    assert zp.encode(0, 1) == 1
    assert zp.decode(zp.encode(-2, 5)) == (-2, 5)
    codes = {zp.encode(i, g) for i in range(-50, 51) for g in range(1, 51)}
    assert len(codes) == 101 * 50
    for n in range(1, 2000):
        i, g = zp.decode(n)
        assert zp.encode(i, g) == n


def test_seven_partition_examples():
    part = SevenPartition()
    assert part.class_of(1) == 1
    assert part.class_of(14) == 7
    assert part.piece(3).nth(2) == 10
    counts = {i: 0 for i in range(1, 8)}
    for k in range(1, 7001):
        c = part.class_of(k)
        counts[c] += 1
        assert part.piece(c).contains(k)
    assert set(counts.values()) == {1000}


def test_infset_enumerators_consistent():
    sets = [ResidueClassSet(7, [3]), ResidueClassSet(3, [1, 2]), TailSet(5),
            PairedSliceSet(TailSet(1), 2)]
    for s in sets:
        prev = 0
        for j in range(1, 60):
            v = s.nth(j)
            assert v > prev
            assert s.index_of(v) == j
            assert s.contains(v)
            prev = v


def test_paired_slices_partition_base():
    base = ResidueClassSet(4, [1])
    slices = [PairedSliceSet(base, j) for j in range(1, 6)]
    hits = {}
    for j, s in enumerate(slices, start=1):
        for t in range(1, 40):
            v = s.nth(t)
            assert v not in hits, "slices must be pairwise disjoint"
            hits[v] = j
            assert base.contains(v)


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


def test_preorder_spec_errors():
    for bad in ["nope", "mod:3", "mod:x:(1,2)", "mod:3:(1,9)",
                "union-finite:(1;2)"]:
        with pytest.raises(PreorderSpecError):
            parse_preorder(bad)
