import random
from functools import reduce

import pytest
import oracle_reference as ref
from oracle_reference import u_word

from rowfin import matrices as mx
from rowfin import twogen as tg
from rowfin.indexing import SevenPartition, ZPairing
from rowfin.matrices import FinVec
from rowfin.rings import RingError, parse_ring_spec
from rowfin.words import eval_word, format_word

GF3 = parse_ring_spec("GF:3")
Z6 = parse_ring_spec("Zmod:6")


def product(maps):
    return reduce(mx.compose, maps)


def units_family(ring):
    return {i: mx.matrix_unit(ring, 1, i + 3) for i in range(-2, 3)}


def random_family(ring, seed, count=5, corner=24):
    rng = random.Random(seed)
    out = {}
    for i in range(count):
        rows = {}
        for _ in range(rng.randint(1, 5)):
            r, c = rng.randint(1, corner), rng.randint(1, corner)
            rows.setdefault(r, {})[c] = ring.random_payload(rng)
        out[i] = mx.from_rows(ring, rows)
    return out


def test_g_family_identities():
    g = tg.build_g_family(units_family(GF3), GF3)
    assert sorted(g) == [1, 2, 3, 4, 5]
    ident = mx.identity_map(GF3)
    assert mx.first_mismatch(mx.compose(g[2], g[1]), tg.pi_sigma(GF3), 128) is None
    assert mx.first_mismatch(mx.compose(g[1], g[2]), ident, 128) is None
    assert mx.first_mismatch(mx.compose(g[4], g[5]), ident, 128) is None
    assert mx.first_mismatch(mx.compose(g[5], g[4]), ident, 128) is None


def test_g_family_empty_source():
    g = tg.build_g_family({}, GF3)
    for a in range(1, 30):
        assert not g[3].row(a).entries


def test_g_family_single_identity_source():
    g = tg.build_g_family({0: mx.identity_map(GF3)}, GF3)
    prod = product([g[1], g[3], g[2]])
    assert mx.first_mismatch(prod, mx.identity_map(GF3), 20) is None


def test_g_family_single_unit_source():
    g = tg.build_g_family({1: mx.matrix_unit(GF3, 1, 2)}, GF3)
    prod = product([g[1], g[4], g[3], g[5], g[2]])
    assert mx.first_mismatch(prod, mx.matrix_unit(GF3, 1, 2), 20) is None
    # The 0-layer is empty, so the undressed product is zero.
    assert mx.first_mismatch(product([g[1], g[3], g[2]]),
                             mx.zero_map(GF3), 20) is None


def test_g_family_rejects_mismatched_ring():
    with pytest.raises(RingError, match="^ring mismatch: GF:3 vs Zmod:6$"):
        tg.build_g_family({0: mx.identity_map(Z6)}, GF3)


def test_corrupted_g3_breaks_recovery():
    source = units_family(GF3)
    g = tg.build_g_family(source, GF3)
    broken = mx.add_maps(g[3], mx.matrix_unit(GF3, 1, 1))
    got = product([g[1], broken, g[2]])
    assert mx.first_mismatch(got, source[0], 20) is not None


def phi_inv(beta):
    """The inverse of f1's index map, None on class 1."""
    c = (beta - 1) % 7 + 1
    if c == 1:
        return None
    if c <= 6:
        return beta - 1
    j = beta // 7
    q, odd = divmod(j - 1, 2)
    return 7 * q + (6 if odd == 0 else 7)


def undo_f1_six_times(alpha):
    """The slow oracle for f3's class-7 rows: six steps of phi_inv."""
    k = alpha
    for _ in range(6):
        k = phi_inv(k)
        if k is None:
            return None
    return k


def test_phi_round_trip():
    part = SevenPartition()
    for k in range(1, 300):
        beta = tg.PHI(k)
        assert part.class_of(beta) == min(part.class_of(k) + 1, 7)
        assert phi_inv(beta) == k or part.class_of(k) >= 6
    # Classes 6 and 7 merge injectively into class 7.
    images = [tg.PHI(k) for k in range(1, 400)
              if part.class_of(k) >= 6]
    assert len(images) == len(set(images))
    for beta in images:
        assert part.class_of(beta) == 7
        k = phi_inv(beta)
        assert tg.PHI(k) == beta


def test_closed_form_class_7_rows_match_six_inverse_steps():
    for j in range(1, 10 ** 5):
        assert ref.sigma1_index(7 * j) == undo_f1_six_times(7 * j)
        assert tg.SIGMA1_ROW(7 * j) == 7 * undo_f1_six_times(7 * j) - 6
    rng = random.Random(17)
    alphas = [7 * rng.randrange(1, 10 ** 12 // 7) for _ in range(20000)]
    alphas += [7 * 2 ** s * m for s in range(30) for m in (1, 3, 5, 7, 9, 99)]
    for alpha in alphas:
        k = ref.sigma1_index(alpha)
        assert k is not None and k == undo_f1_six_times(alpha)
        assert tg.SIGMA1_ROW(alpha) == 7 * k - 6
    # f3's class-7 row is e_{7k-6}, read through the closed form.
    _, f3 = tg.build_two_generators(tg.build_g_family({}, GF3))
    for alpha in (7, 448, 7 * 2 ** 40 * 3):
        k = undo_f1_six_times(alpha)
        assert f3.row(alpha) == FinVec.unit(GF3, 7 * k - 6)


def cross_check_rows(modulus):
    """Rows 1..10^5, and a run of `modulus` rows (one of each residue)
    from 10^9, 10^12 and 10^18."""
    far = [top + d for top in (10 ** 9, 10 ** 12, 10 ** 18) for d in range(modulus)]
    return list(range(1, 10 ** 5 + 1)) + far


@pytest.mark.parametrize("table, oracle, domain", [
    (tg.PHI, ref.phi, range(7)),
    (tg.POSITION, ref.position, range(7)),
    (tg.SIGMA1_ROW, ref.sigma1_row, range(0, 448, 7)),   # class 7
], ids=["PHI", "POSITION", "SIGMA1_ROW"])
def test_index_tables_match_their_oracles(table, oracle, domain):
    m = table.modulus
    assert [r for r in range(m) if table.entries[r] is not None] == list(domain)
    for t in cross_check_rows(m):
        if table.entries[t % m] is not None:
            assert table(t) == oracle(t), t


F1_POWER_6 = ((64, 0), (2, 5), (4, 6), (8, 4), (16, -8), (32, -48), (64, -160))


def test_f1_powers_are_one_merged_table_step():
    """f1^n composes into a monomial with one table step, which agrees
    with n steps of the oracle; f1^6 is the literal table below, and
    SIGMA1_ROW undoes it onto Sigma_1 on every row checked."""
    f1 = mx.from_index_map(GF3, tg.PHI)
    powers = {}
    for n in range(1, 13):
        power = product([f1] * n)
        assert isinstance(power, mx.Monomial) and len(power.walk) == 1
        powers[n] = power.walk[0]
    assert powers[6].entries == tuple((num, 1, off) for num, off in F1_POWER_6)
    rows = cross_check_rows(7)
    for t in rows:
        k = t
        for n in range(1, 13):
            k = ref.phi(k)
            assert powers[n](t) == k, (n, t)
        assert tg.SIGMA1_ROW(powers[6](t)) == 7 * t - 6, t
    # Each g-word chain opens with f1^6 as one table step.
    f1, f3 = tg.build_two_generators(tg.build_g_family({}, GF3))
    for i in range(1, 6):
        first = eval_word(tg.g_word(i), {"f1": f1, "f3": f3}, GF3).steps[0][0]
        assert [step.entries for step in first.walk] == [powers[6].entries]


def f3_row(gmaps, alpha):
    """The oracle for f3's rows: one hand-written row function over the
    mod-7 classes."""
    ring = gmaps[1].ring
    c = SevenPartition().class_of(alpha)
    if c == 1:
        return FinVec.zero(ring)
    if c <= 6:
        # Row of t_i^{-1} f2^{-1} g_i collapses to a plain row of g_i,
        # indexed by alpha's position in its piece.
        return gmaps[c - 1].row((alpha - 1) // 7 + 1)
    # Class 7: t6^{-1} f2, i.e. undo six f1-steps then land in the
    # k-th row of Sigma_1 = {1, 8, 15, ...}.
    return FinVec.unit(ring, ref.sigma1_row(alpha))


PIECEWISE_CASES = [(spec, family) for spec in ("Zmod:6", "GF:5", "Mat:2:GF:2")
                   for family in ("random", "units")]


def family_of(spec, family):
    ring = parse_ring_spec(spec)
    source = random_family(ring, seed=4) if family == "random" else units_family(ring)
    return tg.build_g_family(source, ring)


@pytest.mark.parametrize("spec,family", PIECEWISE_CASES)
def test_piecewise_f3_rows_match_the_row_function(spec, family):
    gmaps = family_of(spec, family)
    _, f3 = tg.build_two_generators(gmaps)
    assert isinstance(f3, mx.Piecewise)
    rng = random.Random(23)
    far = [top + rng.randrange(-10 ** 4, 10 ** 4) for top in (10 ** 9, 10 ** 12)
           for _ in range(200)]
    for alpha in list(range(1, 10 ** 4 + 1)) + far:
        assert f3.row(alpha) == f3_row(gmaps, alpha), alpha


@pytest.mark.parametrize("spec,family", PIECEWISE_CASES)
def test_g_word_chains_walk_f3_as_its_rows_give_it(spec, family):
    """Each g-word chain walks f3's pieces on its single-term rows; the
    same chain with f3 read only by its rows is the reference."""
    gmaps = family_of(spec, family)
    f1, f3 = tg.build_two_generators(gmaps)
    ring = f1.ring
    by_rows = mx.RowFiniteMap(ring, f3.row)
    for i in range(1, 6):
        walked = eval_word(tg.g_word(i), {"f1": f1, "f3": f3}, ring)
        assert f3 in [step[0] for step in walked.steps]
        read = eval_word(tg.g_word(i), {"f1": f1, "f3": by_rows}, ring)
        assert mx.first_mismatch(walked, read, 512) is None


def enumerated_index_maps(n):
    """f1's index map and its inverse on 1..n, read off enumerations of the
    pieces {c, c+7, ...}: the j-th element of piece c goes to the j-th of
    piece c + 1 for c <= 5, and the j-th element of pieces 6 and 7 merged
    goes to the j-th of piece 7.  Also returns the enumerated pieces."""
    # Past every image of 1..n, and n elements deep in piece 1.
    top = 7 * n + 7
    pieces = {c: list(range(c, top, 7)) for c in range(1, 8)}
    phi = {}
    for c in range(1, 6):
        phi.update(zip(pieces[c], pieces[c + 1]))
    phi.update(zip(sorted(pieces[6] + pieces[7]), pieces[7]))
    inverse = {beta: k for k, beta in phi.items()}
    return phi, inverse, pieces


def test_index_maps_match_enumerated_pieces():
    part = SevenPartition()
    n = 5000
    phi, enumerated_inv, pieces = enumerated_index_maps(n)
    for k in range(1, n + 1):
        assert tg.PHI(k) == phi[k]
        assert phi_inv(k) == enumerated_inv.get(k)
    gmaps = tg.build_g_family(random_family(GF3, 4), GF3)
    _, f3 = tg.build_two_generators(gmaps)
    for alpha in range(1, n + 1):
        c = part.class_of(alpha)
        if c == 1:
            expected = FinVec.zero(GF3)
        elif c <= 6:
            expected = gmaps[c - 1].row(pieces[c].index(alpha) + 1)
        else:
            k = alpha
            for _ in range(6):
                k = enumerated_inv.get(k)
                if k is None:
                    break
            expected = (FinVec.zero(GF3) if k is None
                        else FinVec.unit(GF3, pieces[1][k - 1]))
        assert f3.row(alpha) == expected


def test_word_shapes():
    # g_i = f1^6 f3 f1^i f3, a left-associated product of 8 + i leaves.
    assert format_word(tg.g_word(1)) == (
        "((((((((f1 * f1) * f1) * f1) * f1) * f1) * f3) * f1) * f3)")
    for i in range(1, 6):
        factors = ["f1"] * 6 + ["f3"] + ["f1"] * i + ["f3"]
        assert format_word(tg.g_word(i)) == (
            "(" * (7 + i) + "f1" + "".join(f" * {f})" for f in factors[1:]))
    for i in (0, 6):
        with pytest.raises(tg.ConstructionError):
            tg.g_word(i)


def test_u_word_texts_match_the_formatted_words():
    indices = range(-300, 301)
    texts = tg.u_word_texts(indices)
    assert list(texts) == list(indices)
    for k in indices:
        assert texts[k] == format_word(u_word(k))


def test_two_generator_words_units_family():
    source = units_family(GF3)
    gmaps = tg.build_g_family(source, GF3)
    f1, f3 = tg.build_two_generators(gmaps)
    env = {"f1": f1, "f3": f3}
    for i in range(1, 6):
        got = eval_word(tg.g_word(i), env, GF3)
        assert mx.first_mismatch(got, gmaps[i], 32) is None
    for i, u in source.items():
        got = eval_word(u_word(i), env, GF3)
        assert mx.first_mismatch(got, u, 32) is None


def test_two_generator_words_random_family():
    source = random_family(Z6, seed=4)
    f1, f3 = tg.build_two_generators(tg.build_g_family(source, Z6))
    env = {"f1": f1, "f3": f3}
    for i, u in source.items():
        got = eval_word(u_word(i), env, Z6)
        assert mx.first_mismatch(got, u, 32) is None


def test_corrupted_f3_detected():
    gmaps = tg.build_g_family(units_family(GF3), GF3)
    f1, f3 = tg.build_two_generators(gmaps)
    bad_env = {"f1": f1, "f3": mx.add_maps(f3, mx.matrix_unit(GF3, 2, 1))}
    got = eval_word(tg.g_word(1), bad_env, GF3)
    assert mx.first_mismatch(got, gmaps[1], 28) is not None


def test_maltsev_embed_zmod6():
    images = tg.maltsev_embed(Z6, 6)
    assert sorted(images) == [0, 1, 2, 3, 4, 5]
    for i, image in images.items():
        expected = mx.scalar_map(Z6, Z6.nth_element(i))
        assert mx.first_mismatch(image, expected, 16) is None
    with pytest.raises(RingError, match="count 7 exceeds the 6 elements of Zmod:6"):
        tg.maltsev_embed(Z6, 7)


def test_maltsev_embed_sigma_rows():
    g = tg.build_g_family({0: mx.scalar_map(GF3, 2)}, GF3)
    # The diagonal image of 2 sits on layer 0.
    alpha = ZPairing().encode(0, 4)
    assert g[3].row(alpha) == FinVec(GF3, {alpha: 2})


def test_u_word_verifies_at_layer_1000():
    source = {1000: mx.from_rows(GF3, {1: {2: 1, 5: 2}, 3: {1: 1}}),
              -3: mx.matrix_unit(GF3, 2, 2)}
    f1, f3 = tg.build_two_generators(tg.build_g_family(source, GF3))
    _, umaps = tg.word_maps({"f1": f1, "f3": f3}, GF3, sorted(source))
    for i, u in source.items():
        assert mx.first_mismatch(umaps[i], u, 6) is None


@pytest.mark.parametrize("spec", ["Int", "GF:5", "Mat:2:GF:2"])
def test_shared_u_rows_match_the_flat_chain(spec):
    ring = parse_ring_spec(spec)
    indices = [0, 1, 2, 3, 7, 31, 300, -1, -5]
    rng = random.Random(11)
    source = {}
    for k in indices:
        rows = {}
        for _ in range(rng.randint(1, 4)):
            rows.setdefault(rng.randint(1, 8), {})[rng.randint(1, 8)] = \
                ring.random_payload(rng)
        source[k] = mx.from_rows(ring, rows)
    f1, f3 = tg.build_two_generators(tg.build_g_family(source, ring))
    env = {"f1": f1, "f3": f3}
    _, umaps = tg.word_maps(env, ring, indices)
    for k in indices:
        flat = eval_word(u_word(k), env, ring)
        assert mx.first_mismatch(umaps[k], flat, 8) is None
        assert mx.first_mismatch(umaps[k], source[k], 8) is None


def test_shared_u_rows_match_the_flat_chain_under_a_spread_f3():
    """With f3 + f3 s (s the shift a -> a + 1), rows of every g-word carry
    several entries, so each branch of the shared rows is exercised."""
    indices = [0, 1, 2, 3, -1, -2]
    source = random_family(GF3, seed=9, count=len(indices), corner=8)
    source = {k: source[n] for n, k in enumerate(indices)}
    f1, f3 = tg.build_two_generators(tg.build_g_family(source, GF3))
    shift = mx.from_index_map(GF3, lambda a: a + 1)
    env = {"f1": f1, "f3": mx.add_maps(f3, mx.compose(f3, shift))}
    _, umaps = tg.word_maps(env, GF3, indices)
    spread = 0
    for k in indices:
        flat = eval_word(u_word(k), env, GF3)
        assert mx.first_mismatch(umaps[k], flat, 8) is None
        spread = max(spread, max(len(umaps[k].row(a).entries)
                                 for a in range(1, 9)))
    assert spread > 1


def _u_row_pushes(monkeypatch, count):
    """`matrices.push` calls made reading rows 1..8 of u_0..u_{count-1} for
    the Maltsev images of the first `count` integers."""
    calls = [0]
    push = mx.push

    def counted(vec, row):
        calls[0] += 1
        return push(vec, row)

    monkeypatch.setattr(mx, "push", counted)
    Z = parse_ring_spec("Int")
    f1, f3 = tg.build_two_generators(
        tg.build_g_family(tg.maltsev_embed(Z, count), Z))
    _, umaps = tg.word_maps({"f1": f1, "f3": f3}, Z, range(count))
    calls[0] = 0
    for k in range(count):
        for a in range(1, 9):
            umaps[k].row(a)
    return calls[0]


def test_u_rows_share_suffix_rows_across_k(monkeypatch):
    # The suffix rows of G_down^k G2 are shared across k, so twice the
    # u-words cost about twice the pushes (2.0x); a suffix rebuilt from
    # the identity for each k costs about 3.6x.
    small = _u_row_pushes(monkeypatch, 30)
    large = _u_row_pushes(monkeypatch, 60)
    assert large <= 2.5 * small
