"""Two-generator machinery.

Builds the five-map family that packs a countable matrix family into
conjugates of a single block map, compresses those five maps into words
over two generators, evaluates a report's words with row work shared
across them, and builds the diagonal images of a countable ring's
first elements.
"""

from __future__ import annotations

from functools import cache, partial

from . import matrices as mx
from .indexing import AffineTable, LayerPartition, LayerStep, SevenPartition
from .matrices import RowFiniteMap, FinVec
from .rings import BaseRing, RingError, same_ring
from .words import Gen, Word, eval_word, format_word, prod_chain


class ConstructionError(Exception):
    """A g-word index outside 1..5."""


# ---------------------------------------------------------------------------
# The g-family


def pi_sigma(ring: BaseRing) -> RowFiniteMap:
    """Projection onto the central copy Sigma = {0} x N+: keep(0)."""
    return mx.from_index_map(ring, LayerStep("keep", 0))


def build_g_family(source: dict, ring: BaseRing) -> dict:
    """{1: g1, ..., 5: g5} for a finite materialized family {i: u_i}.

    g1 = embed(0) embeds the base coordinates into Sigma, g2 =
    project(0) is its right inverse (zero off Sigma), g4 = shift(1) and
    g5 = shift(-1) shift the integer layer (`LayerStep`), and g3 carries
    each u_i on the i-th layer, so that u_i = g1 g4^i g3 g5^i g2.  g3 is
    piecewise over the layers (`LayerPartition`): layer i's piece is
    (project(i), u_i embed(i)), so row enc(i, gamma) is row gamma of u_i
    moved onto layer i, and the rows of a layer outside `source` are
    zero.  Nothing is verified here: a report's `construction` and word
    checks are the verification.
    """
    for u in source.values():
        same_ring(ring, u.ring)
    g1, g2, g4, g5 = (mx.from_index_map(ring, LayerStep(kind, k)) for kind, k in
                      (("embed", 0), ("project", 0), ("shift", 1), ("shift", -1)))
    pieces = {i: (LayerStep("project", i),
                  mx.compose(u, mx.from_index_map(ring, LayerStep("embed", i))))
              for i, u in source.items()}
    g3 = mx.Piecewise(ring, LayerPartition().class_of, pieces)
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


@cache
def _g_word_texts() -> tuple:
    """The texts of g_word(1..5), formatted once per process."""
    return tuple(format_word(g_word(j)) for j in range(1, 6))


def u_word_texts(indices) -> dict:
    """k -> the printed word of u_k, joined from the five g-word texts.

    u_k's word is the left-associated product of the g-words
    `_u_factors(k)`, so its text opens one bracket per factor after the
    first and closes one after each of them.
    """
    texts = _g_word_texts()
    closing = {j: f" * {texts[j - 1]})" for j in range(1, 6)}
    first = texts[0]
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

    `SevenPartition.landing` names the class a table step lands on, so
    `compose` reduces each g-word: f1^6 f3 is the table 7t - 6, f1^i
    sends it into class i + 1 on every row, and POSITION takes it back to
    t, leaving g_i itself.  The g-word checks of a report verify that.
    """
    ring = gmaps[1].ring
    pieces = {1: None, 7: (SIGMA1_ROW, mx.identity_map(ring))}
    pieces.update((c, (POSITION, gmaps[c - 1])) for c in range(2, 7))
    f1 = mx.from_index_map(ring, PHI)
    return f1, mx.Piecewise(ring, SevenPartition().class_of, pieces)


# ---------------------------------------------------------------------------
# A report's words


def _u_row(middle: RowFiniteMap, suffix: RowFiniteMap, alpha: int) -> FinVec:
    """Row alpha of u_k = (P_k G3) S_k: the middle row pushed through the
    rows of the suffix S_k, or, when it is zero, that row itself."""
    row = middle.row(alpha)
    if not row.entries:
        return row
    return mx.push(row, suffix.row)


def word_maps(env: dict, ring: BaseRing, indices) -> tuple[dict, dict]:
    """The maps of g_word(1..5) and of u_k for k in `indices` under env.

    The five g-words are evaluated along one chain from the prefix
    P_0 = f1^6 f3 that all five open with: g_word(i) is left-associated,
    so with P_i = P_{i-1} f1 it is G_i = P_i f3, ten `compose` calls in
    all, which reduce each G_i to the g-map g_i itself under the f1 and
    f3 of `build_two_generators`.  u_k = P_k G3 S_k, with P_k = G1
    G_up^k and S_k = G_down^k G2, (up, down) = (4, 5) for k >= 0 and (5,
    4) below; each sign's P_k and S_k are built as |k| rises, one
    `compose` each per depth.  Over the g-maps' layer steps, P_k is
    embed(k), S_k is project(k), and the middle map P_k G3 lands on g3's
    piece k: it is u_k embed(k).  By associativity every row equals the
    row of `eval_word` on u_k's flat left-associated word.
    """
    head = eval_word(prod_chain([F1] * 6 + [F3]), env, ring)
    f1, f3 = eval_word(F1, env, ring), eval_word(F3, env, ring)
    g = {}
    for i in range(1, 6):
        head = mx.compose(head, f1)
        g[i] = mx.compose(head, f3)
    u = {}
    for up, down, negative in ((4, 5, False), (5, 4, True)):
        prefix, suffix, depth = g[1], g[2], 0
        for k in sorted({k for k in indices if (k < 0) == negative}, key=abs):
            while depth < abs(k):
                prefix, suffix = mx.compose(prefix, g[up]), mx.compose(g[down], suffix)
                depth += 1
            u[k] = RowFiniteMap(ring, partial(_u_row, mx.compose(prefix, g[3]), suffix),
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
