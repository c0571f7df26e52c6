import random

import pytest

from rowfin import classify as cl
from rowfin import cli
from rowfin import fearing as fr
from rowfin import matrices as mx
from rowfin import triangular as tr
from rowfin.indexing import parse_preorder, tri, tri_block, tri_split
from rowfin.matrices import FinVec
from rowfin.rings import IntegerRing, parse_ring_spec

Z = IntegerRing()
GF5 = parse_ring_spec("GF:5")


def test_sandwich_A_rows():
    A = tr.sandwich_A(Z)
    for i in range(1, 20):
        assert A.row(i) == FinVec(Z, {c: 1 for c in tri_block(i)})
    assert A.row_support(4) == {7, 8, 9, 10}


def test_sandwich_B_rows():
    B = tr.sandwich_B(Z)
    rows = [B.row(r) for r in range(1, 7)]
    assert rows == [FinVec.unit(Z, k) for k in (1, 1, 2, 1, 2, 3)]


def test_AB_product_row_sums():
    # Row i of A*B collects one unit vector per block column: ones on 1..i.
    AB = mx.compose(tr.sandwich_A(Z), tr.sandwich_B(Z))
    for i in range(1, 12):
        assert AB.row(i) == FinVec(Z, {k: 1 for k in range(1, i + 1)})


def test_sandwich_X_identity():
    X = tr.sandwich_X(mx.identity_map(Z))
    for i in range(1, 13):
        assert X.row(tri(i)) == FinVec.unit(Z, tri(i))
    axb = mx.compose(mx.compose(tr.sandwich_A(Z), X), tr.sandwich_B(Z))
    assert mx.first_mismatch(axb, mx.identity_map(Z), 12) is None


def test_sandwich_X_zero():
    X = tr.sandwich_X(mx.zero_map(Z))
    for d in range(1, 40):
        assert not X.row(d).entries


def test_sandwich_X_random_lower_triangular():
    rng = random.Random(1)
    rows = {i: {c: rng.randrange(1, 5) for c in range(1, i + 1)
                if rng.random() < 0.6}
            for i in range(1, 15)}
    Y = mx.from_rows(GF5, {i: r for i, r in rows.items() if r})
    X = tr.sandwich_X(Y)
    axb = mx.compose(mx.compose(tr.sandwich_A(GF5), X), tr.sandwich_B(GF5))
    assert mx.first_mismatch(axb, Y, 14) is None
    assert all(X.row_support(d) <= {d} for d in range(1, tri(14) + 1))


@pytest.mark.parametrize("spec", ["GF:5", "Zmod:6", "Int", "Mat:2:GF:2"])
def test_fast_rows_match_canonicalising_constructor(spec):
    # A's and X's rows wrap payloads without re-canonicalising them; the
    # canonicalising FinVec constructor is the reference.
    ring, window = parse_ring_spec(spec), 12
    rng = random.Random(spec)
    for _ in range(5):
        rows = {}
        for i in range(1, window + 1):
            entries = {c: ring.random_payload(rng)
                       for c in range(1, i + 1) if rng.random() < 0.5}
            if entries:
                rows[i] = entries
        Y = mx.from_rows(ring, rows)
        A, X = tr.sandwich_A(ring), tr.sandwich_X(Y)
        for d in range(1, tri(window) + 1):
            i, k = tri_split(d)
            slow_a = FinVec(ring, {c: ring.one for c in tri_block(d)})
            slow_x = FinVec(ring, {d: Y.row(i).entries.get(k, ring.zero)})
            for fast, slow in ((A.row(d), slow_a), (X.row(d), slow_x)):
                assert fast.entries == slow.entries, (spec, d)
                assert fast.support() == slow.support(), (spec, d)


def test_sandwich_report_fails_an_upper_cell_of_Y_at_its_row(monkeypatch):
    # X reads only the cells (i, k <= i) of Y, so a cell above the diagonal
    # leaves X diagonal and makes AXB differ from Y in that cell's row.
    draw = cli._random_lower_triangular

    def with_upper_cell(ring, rng, window):
        return mx.add_maps(draw(ring, rng, window), mx.matrix_unit(ring, 2, 3))

    monkeypatch.setattr(cli, "_random_lower_triangular", with_upper_cell)
    report, _, _ = cli.run(["sandwich", "--count", "3", "--window", "8"])
    checks = report.doc["checks"]
    assert [c["name"] for c in checks] == [
        f"trial {t} {what}" for t in range(3) for what in ("AXB=Y", "X diagonal")]
    for axb, diagonal in zip(checks[::2], checks[1::2]):
        assert axb["verdict"] == "fail" and axb["detail"].startswith("row 2:")
        assert diagonal["verdict"] == "pass"


def lower_embed(descriptor, ring, n):
    """g, f and l'_1..l'_n read off g's rows, after checking g f = 1 on 1..n."""
    g, f = tr.fear_lower_embed(descriptor, ring)
    assert mx.first_mismatch(mx.compose(g, f), mx.identity_map(ring), n) is None
    targets = []
    for k in range(1, n + 1):
        [(target, coeff)] = g.row(k).entries.items()
        assert coeff == ring.one
        targets.append(target)
    return g, f, targets


def test_lower_embed_diagonal_is_identity():
    g, f, targets = lower_embed(fr.diagonal_fearing(), Z, 20)
    assert targets == list(range(1, 21))
    assert mx.first_mismatch(f, mx.identity_map(Z), 20) is None
    assert mx.first_mismatch(g, mx.identity_map(Z), 20) is None


def test_lower_embed_stretch():
    _, _, targets = lower_embed(fr.stretch_fearing(2), Z, 16)
    assert targets == [2 * k for k in range(1, 17)]


def test_lower_embed_repeated_maxima():
    # paired supp has l_1 = l_2 = 2, l_3 = l_4 = 4, ...; the emitted
    # targets must still be strictly increasing.
    _, _, targets = lower_embed(fr.paired_fearing(), Z, 16)
    assert targets[:4] == [2, 3, 4, 5]
    for a, b in zip(targets, targets[1:]):
        assert a < b


def scan_invert(seq, alpha):
    """The k with l'_k = alpha, or None, by walking k = 1, 2, ...: the
    slow reference for `_TargetSequence.invert`."""
    k = 1
    while True:
        v = seq.get(k)
        if v == alpha:
            return k
        if v > alpha:
            return None
        k += 1


@pytest.mark.parametrize("name", sorted(cli._DESCRIPTORS))
def test_lower_embed_inverse_matches_the_scan(name):
    descriptor = cli._DESCRIPTORS[name]
    _, f = tr.fear_lower_embed(descriptor, Z)
    seq = tr._TargetSequence(descriptor.supp)
    for alpha in range(1, 2001):
        k = scan_invert(seq, alpha)
        expected = FinVec.zero(Z) if k is None else FinVec.unit(Z, k)
        assert f.row(alpha) == expected, alpha


@pytest.mark.parametrize("make", [lambda: fr.banded_fearing(1),
                                  lambda: fr.stretch_fearing(2),
                                  fr.paired_fearing])
def test_lower_embed_triangularizes_members(make):
    descriptor = make()
    _, f, _ = lower_embed(descriptor, GF5, 24)
    for seed in range(10):
        h = descriptor.sample(GF5, seed)
        for a in range(1, 25):
            assert h.row_support(a) <= descriptor.supp(a)
        fh = mx.compose(f, h)
        assert cl.preorder_membership(fh, parse_preorder("ge"), range(1, 25)) == []
