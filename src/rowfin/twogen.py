"""Two-generator machinery.

Builds the five-map family that packs a countable matrix family into
conjugates of a single block map, compresses those five maps into words
over two generators, evaluates a report's words with row work shared
across them, and builds the diagonal images of a countable ring's
first elements.
"""

from __future__ import annotations

from functools import partial

from . import matrices as mx
from .indexing import AffineTable, SevenPartition, ZPairing
from .matrices import RowFiniteMap, FinVec
from .rings import BaseRing, RingError, same_ring
from .words import Gen, Word, eval_word, format_word, prod_chain


class ConstructionError(Exception):
    """A g-word index outside 1..5."""


# ---------------------------------------------------------------------------
# The g-family


def pi_sigma(ring: BaseRing) -> RowFiniteMap:
    """Projection onto the central copy Sigma = {0} x N+."""
    decode = ZPairing().decode
    return mx.projection(ring, lambda alpha: decode(alpha)[0] == 0)


def _shift_layer(enc, dec, step: int, alpha: int) -> int:
    """The index of alpha's coordinate moved `step` layers up."""
    i, gamma = dec(alpha)
    return enc(i + step, gamma)


def build_g_family(source: dict, ring: BaseRing) -> dict:
    """{1: g1, ..., 5: g5} for a finite materialized family {i: u_i}.

    g1 embeds the base coordinates into Sigma, g2 is its right inverse
    (zero off Sigma), g4/g5 shift the integer layer, and g3 carries each
    u_i on the i-th layer, so that u_i = g1 g4^i g3 g5^i g2.  g3 reads
    `source` when its rows are read.  Nothing is verified here: a
    report's `construction` and word checks are the verification.
    """
    pairing = ZPairing()
    enc, dec = pairing.encode, pairing.decode
    for u in source.values():
        same_ring(ring, u.ring)

    g1 = mx.from_index_map(ring, lambda k: enc(0, k))

    def g2_target(alpha):
        i, gamma = dec(alpha)
        return gamma if i == 0 else None

    g2 = mx.from_index_map(ring, g2_target)
    g4 = mx.from_index_map(ring, partial(_shift_layer, enc, dec, 1))
    g5 = mx.from_index_map(ring, partial(_shift_layer, enc, dec, -1))

    zero = FinVec._of(ring, {})

    def g3_row(alpha):
        i, gamma = dec(alpha)
        u = source.get(i)
        if u is None:
            return zero
        # Row gamma of u_i transported onto layer i: u's entries are
        # canonical and nonzero, and every encoded index is >= 1.
        return FinVec._of(ring, {enc(i, c): v for c, v in u.row(gamma).entries.items()})

    g3 = RowFiniteMap(ring, g3_row)
    return {1: g1, 2: g2, 3: g3, 4: g4, 5: g5}


# ---------------------------------------------------------------------------
# Two generators


F1 = Gen("f1")
F3 = Gen("f3")


def g_word(i: int) -> Word:
    """The word f1^6 f3 f1^i f3 (left-associated product tree)."""
    if not 1 <= i <= 5:
        raise ConstructionError(f"g-word index must be in 1..5, got {i}")
    return prod_chain([F1] * 6 + [F3] + [F1] * i + [F3])


def _u_factors(i: int) -> list:
    """The g-word indices of u_i = g1 g_up^|i| g3 g_down^|i| g2, left to right."""
    up, down = (4, 5) if i >= 0 else (5, 4)
    k = abs(i)
    return [1] + [up] * k + [3] + [down] * k + [2]


def u_word_texts(indices) -> dict:
    """k -> the printed word of u_k, joined from the five g-word texts.

    u_k's word is the left-associated product of the g-words
    `_u_factors(k)`, so its text opens one bracket per factor after the
    first and closes one after each of them.
    """
    closing = {j: f" * {format_word(g_word(j))})" for j in range(1, 6)}
    first = format_word(g_word(1))
    out = {}
    for k in indices:
        rest = _u_factors(k)[1:]
        out[k] = "(" * len(rest) + first + "".join([closing[j] for j in rest])
    return out


# The index maps of f1 and f3, as exact tables over residues (7 plays 0).

# f1: classes 1..5 advance one class; the j-th rows of classes 6 and 7,
# 7j - 1 and 7j, merge into class 7 as 7(2j - 1) and 7(2j).
PHI = AffineTable(7, [(2, 1, 0)] + [(1, 1, 1)] * 5 + [(2, 1, -5)])

# alpha's position j in its mod-7 piece: alpha = 7(j - 1) + class.
POSITION = AffineTable(7, [(1, 7, -r % 7) for r in range(7)])


def _sigma1_entry(r: int):
    """SIGMA1_ROW's entry for alpha = r mod 448, where alpha = 7j.

    Undoing f1 on 7j halves j while j is even (class 7 from class 7) and
    leaves class 7 for class 6 once j is odd; every later step goes down
    one class.  After e <= 6 halvings, e fixed by j mod 64, f1^6 sends
    the k-th row 7k - 6 of Sigma_1 to alpha, where k = 7(j / 2^e - 1)/2
    + 1 + e below e = 6 and k = 7j / 64 at e = 6.  So 7k - 6 is
    (7 alpha + 2^e (14e - 47)) / 2^(e+1), or (7 alpha - 384) / 64.
    """
    if r % 7:
        return None
    j = r // 7
    if j == 0:
        return 7, 64, -384
    e = (j & -j).bit_length() - 1   # trailing zero bits of j, below 6
    return 7, 2 << e, (14 * e - 47) << e


# For alpha in class 7, the row 7k - 6 of Sigma_1 that f1^6 sends to alpha.
SIGMA1_ROW = AffineTable(448, [_sigma1_entry(r) for r in range(448)])


def build_two_generators(gmaps: dict) -> tuple[RowFiniteMap, RowFiniteMap]:
    """(f1, f3), whose words reproduce the g-maps {1: g1, ..., 5: g5}.

    f1 advances the mod-7 pieces (merging the last two); its index map
    is the table `PHI`, so a product of f1's is one table step.  f3 is
    piecewise over the mod-7 classes, so that g_i = f1^6 f3 f1^i f3 for
    i in 1..5:

    * class 1 gives zero rows;
    * on class c in 2..6, row alpha is row `POSITION(alpha)` of g_{c-1}:
      the row of t_{c-1}^{-1} f2^{-1} g_{c-1} collapses to a plain row of
      g_{c-1}, indexed by alpha's position in its piece;
    * on class 7, row alpha is the unit row e_{7k-6} (`SIGMA1_ROW`):
      t6^{-1} f2 undoes six f1-steps and lands in the k-th row of
      Sigma_1.

    The g-word checks of a report verify those identities.
    """
    ring = gmaps[1].ring
    pieces = {1: None, 7: (SIGMA1_ROW, mx.identity_map(ring))}
    pieces.update((c, (POSITION, gmaps[c - 1])) for c in range(2, 7))
    f1 = mx.from_index_map(ring, PHI)
    return f1, mx.Piecewise(ring, SevenPartition().class_of, pieces)


# ---------------------------------------------------------------------------
# A report's words, evaluated with shared row work


class _Prefix:
    """Rows of P_k = first step^k; row a of P_k is row a of P_{k-1} . step."""

    __slots__ = ("first", "step", "rows")

    def __init__(self, first: RowFiniteMap, step: RowFiniteMap):
        self.first = first
        self.step = step
        self.rows = {}      # a -> [row a of P_0, row a of P_1, ...]

    def row(self, k: int, alpha: int) -> FinVec:
        rows = self.rows.get(alpha)
        if rows is None:
            rows = self.rows[alpha] = [self.first.row(alpha)]
        while len(rows) <= k:
            rows.append(rows[-1].apply(self.step))
        return rows[k]


class _Suffix:
    """Rows of S_k = step^k last; row b of S_k is row b of step . S_{k-1}.

    A row is computed on an explicit work stack that stops at rows
    already known, so depth k costs no recursion.
    """

    __slots__ = ("step", "last", "levels")

    def __init__(self, step: RowFiniteMap, last: RowFiniteMap):
        self.step = step
        self.last = last
        self.levels = []    # levels[j]: b -> row b of S_j

    def row(self, k: int, beta: int) -> FinVec:
        levels = self.levels
        while len(levels) <= k:
            levels.append({})
        stack = [(k, beta)]
        while stack:
            j, b = stack[-1]
            if b in levels[j]:
                stack.pop()
                continue
            if j == 0:
                levels[0][b] = self.last.row(b)
                stack.pop()
                continue
            head = self.step.row(b)
            below = levels[j - 1]
            missing = [(j - 1, c) for c in head.entries if c not in below]
            if missing:
                stack.extend(missing)
                continue
            levels[j][b] = mx.push(head, below.__getitem__)
            stack.pop()
        return levels[k][beta]


def _u_row(prefix: _Prefix, middle: RowFiniteMap, suffix: _Suffix, k: int,
           alpha: int) -> FinVec:
    """Row alpha of u_k = P_k(alpha) . middle . S_k."""
    return mx.push(prefix.row(k, alpha).apply(middle), partial(suffix.row, k))


def word_maps(env: dict, ring: BaseRing, indices) -> tuple[dict, dict]:
    """The maps of g_word(1..5) and of u_k for k in `indices` under env.

    Each g-word is evaluated once, as G_i.  u_k = G1 G_up^k G3 G_down^k G2,
    with (up, down) = (4, 5) for k >= 0 and (5, 4) below, is read through
    the prefix rows of G1 G_up^k and the suffix rows of G_down^k G2, both
    shared across k.  Products are associative, so every row equals the
    row of `eval_word` on the flat left-associated product of u_k's
    g-words.
    """
    g = {i: eval_word(g_word(i), env, ring) for i in range(1, 6)}
    sides = {up: (_Prefix(g[1], g[up]), _Suffix(g[down], g[2]))
             for up, down in ((4, 5), (5, 4))}
    u = {}
    for k in indices:
        prefix, suffix = sides[4 if k >= 0 else 5]
        u[k] = RowFiniteMap(ring, partial(_u_row, prefix, g[3], suffix, abs(k)),
                            primitive=False)
    return g, u


# ---------------------------------------------------------------------------
# Countable-ring embedding


def maltsev_embed(ring: BaseRing, count: int) -> dict:
    """The diagonal images {i: scalar_map(ring.nth_element(i))} for i < count.

    Raises `RingError` when count exceeds the size of a finite ring.
    Nothing is verified here: the `maltsev` report checks the words of
    the images' two-generator construction, that the embedding is
    additive and multiplicative, and that central elements commute.
    """
    size = ring.size()
    if size is not None and count > size:
        raise RingError(f"count {count} exceeds the {size} elements of {ring.spec}")
    return {i: mx.scalar_map(ring, ring.nth_element(i)) for i in range(count)}
