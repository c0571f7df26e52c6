"""Ring words over named generators.

Words are binary trees with leaves 0, 1, -1, or a generator name; length
is additive over sums and products.  `format_word` prints a word, such
as `((1 + s) * -1)`; reports carry that text, and no word is read back
from text.  Includes evaluation into row-finite maps, the
support-closure over-approximation of proximity balls, and the proximity
oracle, an exact least-length word search that builds longer words only
from the first word of each class of words with equal rows on the
support-closure cover, classes taken across all lengths so far.
"""

from __future__ import annotations

from .matrices import (FinVec, RowFiniteMap, add_maps, compose, identity_map,
                       scalar_map, zero_map)
from .rings import same_ring


class WordError(Exception):
    pass


class OracleBudgetExceeded(WordError):
    pass


# ---------------------------------------------------------------------------
# Word trees


class Word:
    """A word: a leaf `Gen` or `Const`, or a `Sum` or `Prod` node.

    Generator names are identifiers, so distinct words print differently
    under `format_word`.
    """

    __slots__ = ()


class Gen(Word):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name.isidentifier():
            raise WordError(f"generator name must be an identifier, got {name!r}")
        self.name = name


class Const(Word):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value  # one of -1, 0, 1


ZERO = Const(0)
ONE = Const(1)
NEG_ONE = Const(-1)


class _Binary(Word):
    __slots__ = ("left", "right")

    def __init__(self, left: Word, right: Word):
        self.left = left
        self.right = right


class Sum(_Binary):
    __slots__ = ()


class Prod(_Binary):
    __slots__ = ()


_OPS = {Sum: " + ", Prod: " * "}


def prod_chain(factors) -> Word:
    """Left-associated product of a nonempty factor list."""
    factors = list(factors)
    if not factors:
        raise WordError("empty product")
    acc = factors[0]
    for f in factors[1:]:
        acc = Prod(acc, f)
    return acc


def format_word(w: Word) -> str:
    # The stack holds pending words and the text that closes their parents;
    # each left spine is unrolled in one inner loop.
    out = []
    stack = [w]
    while stack:
        node = stack.pop()
        if node.__class__ is str:
            out.append(node)
            continue
        depth = 0
        while node.__class__ in _OPS:
            op, right = _OPS[node.__class__], node.right
            if right.__class__ in _OPS:
                stack.append(")")
                stack.append(right)
                stack.append(op)
            else:
                stack.append(op + _format_leaf(right) + ")")
            node = node.left
            depth += 1
        if depth:
            out.append("(" * depth)
        out.append(_format_leaf(node))
    return "".join(out)


def _format_leaf(w: Word) -> str:
    return w.name if w.__class__ is Gen else str(w.value)


# ---------------------------------------------------------------------------
# Evaluation


def eval_word(w: Word, env: dict, ring) -> RowFiniteMap:
    """Evaluate into a lazy row-finite map; env binds generator names.

    The left spine is walked in a loop, so a left-associated product of
    any length costs no recursion depth.
    """
    spine = []
    while isinstance(w, (Sum, Prod)):
        spine.append(w)
        w = w.left
    acc = _eval_leaf(w, env, ring)
    for node in reversed(spine):
        right = eval_word(node.right, env, ring)
        acc = add_maps(acc, right) if isinstance(node, Sum) else compose(acc, right)
    return acc


def _eval_leaf(w: Word, env: dict, ring) -> RowFiniteMap:
    if isinstance(w, Const):
        if w.value == 0:
            return zero_map(ring)
        if w.value == 1:
            return identity_map(ring)
        return scalar_map(ring, ring.neg(ring.one))
    try:
        m = env[w.name]
    except KeyError:
        raise WordError(f"unbound generator {w.name!r}") from None
    same_ring(ring, m.ring)
    return m


# ---------------------------------------------------------------------------
# Support closure (the computable ball-support over-approximation)


def is_finite_bound(bound) -> bool:
    """Whether a per-row support bound is a finite set of columns."""
    return isinstance(bound, (set, frozenset))


class SupportBallReport:
    __slots__ = ("cover",)

    def __init__(self, cover: frozenset):
        self.cover = cover


def support_closure(x: FinVec, supp, maps: dict, r: int) -> SupportBallReport:
    """Iterated closure Gamma_r of support(x) under one-step reachability.

    One step from index a reaches the finite set supp(a) (a fearing
    descriptor's row bound) and the row support of a under each map in
    `maps`.  Word values are sums of products, and sums can only shrink
    support, so the support of every vector within proximity r of x lies
    in Gamma_r.  Each step expands only the rows the step before added.
    """
    cover = set(x.support())
    frontier = set(cover)
    for _ in range(r):
        out = set()
        for a in frontier:
            bound = supp(a)
            if not is_finite_bound(bound):
                raise WordError(f"support bound at row {a} is not a finite set")
            out.update(bound)
            for m in maps.values():
                out.update(m.row_support(a))
        frontier = out - cover
        cover |= frontier
    return SupportBallReport(cover=frozenset(cover))


# ---------------------------------------------------------------------------
# Proximity oracle


class ProximityResult:
    __slots__ = ("found", "r", "witness", "words_tried")

    def __init__(self, found: bool, r: int, witness: Word | None,
                 words_tried: int):
        self.found = found
        self.r = r                      # witness length, or the exhausted bound
        self.witness = witness
        self.words_tried = words_tried  # candidates formed, each compared with x2


# The most candidates one oracle query may form, each compared with x2,
# before it gives up.
WORD_CAP = 1_000_000


def proximity_oracle(x1: FinVec, x2: FinVec, env: dict,
                     r_max: int) -> ProximityResult:
    """Least word length r with x2 = x1 . eval(w), and the first such word.

    Words are built by length, then tree shape, then generator, so
    results are deterministic.  A word w of length l < r_max enters a
    longer word of length <= r_max only through its rows on the cover
    Gamma_{r_max-l}(supp x1): as a summand or left factor through its
    vector x1 . w, and as a right factor through its rows on the support
    of the left factor's vector.  So words of one length whose rows agree
    there are interchangeable, and longer words are built from the first
    word of each such class only.  A word whose rows there agree with a
    shorter class representative's is dropped as well: any word holding
    it has a shorter twin with the same vector.  The first witness in full
    order has first-of-class children, and none that a shorter word could
    replace, since that would give an earlier or shorter witness; so the
    search returns the same length and word as enumerating every word.

    A candidate is formed as its operator, its two parent representatives
    and its vector, and its rows on the cover are read off the parents'
    rows.  Only a candidate that becomes a representative is given its
    word and map, and only the witness its word.  Every candidate formed
    is compared with x2 before it is dropped; OracleBudgetExceeded is
    raised once the candidates formed pass WORD_CAP.
    """
    ring = x1.ring
    tried = 0
    # reps[l - 1]: (word, vector, map) of the first word of each class of
    # length l that holds no shorter word.
    reps: list[list[tuple]] = []
    for n in range(1, r_max + 1):
        merge = n < r_max
        if n == 1:
            # A leaf is the candidate (None, rep, None, vector).
            leaves = [(ZERO, FinVec.zero(ring), zero_map(ring)),
                      (ONE, x1, identity_map(ring)),
                      (NEG_ONE, x1.neg(), scalar_map(ring, ring.neg(ring.one)))]
            leaves += [(Gen(name), x1.apply(env[name]), env[name])
                       for name in sorted(env)]
            candidates = [(None, leaf, None, leaf[1]) for leaf in leaves]
        else:
            candidates = _products_and_sums(reps, n)
        seen = set()
        if merge:
            cover = sorted(support_closure(x1, lambda a: {a}, env, r_max - n).cover)
            # Every shorter representative's class on this level's cover,
            # so a word equal to a shorter one there is dropped too.  The
            # cover is inside every shorter level's, so a representative's
            # rows are computed at the level after its own and memos after.
            seen.update(_rows(None, mat, None, cover)
                        for shorter in reps for _, _, mat in shorter)
        level = []
        for op, left, right, vec in candidates:
            tried += 1
            if tried > WORD_CAP:
                raise OracleBudgetExceeded(
                    f"word cap {WORD_CAP} exceeded at length {n}")
            if vec == x2:
                word = left[0] if op is None else op(left[0], right[0])
                return ProximityResult(True, n, word, tried)
            if merge:
                signature = _rows(op, left[2], right and right[2], cover)
                if signature not in seen:
                    seen.add(signature)
                    level.append(_representative(op, left, right, vec))
        reps.append(level)
    return ProximityResult(False, r_max, None, tried)


def _products_and_sums(reps: list, n: int):
    """Candidates of length n over the class representatives, in search order.

    Yields (op, left, right, vector) for (left + right) and then
    (left * right), op being Sum or Prod, for every split n = m1 + m2 and
    every pair of representatives.
    """
    for m1 in range(1, n):
        for left in reps[m1 - 1]:
            lvec = left[1]
            for right in reps[n - m1 - 1]:
                yield (Sum, left, right, lvec.add(right[1]))
                yield (Prod, left, right, lvec.apply(right[2]))


def _rows(op, lmat, rmat, cover) -> tuple:
    """Rows on `cover` of lmat (op None), lmat + rmat (Sum) or lmat rmat (Prod).

    They are the rows of add_maps(lmat, rmat) and compose(lmat, rmat),
    read without building either map: row a of a product is row a of
    its left factor times the right factor, the action being associative.
    """
    if op is None:
        return tuple(lmat.row(a) for a in cover)
    if op is Sum:
        return tuple(lmat.row(a).add(rmat.row(a)) for a in cover)
    return tuple(lmat.row(a).apply(rmat) for a in cover)


def _representative(op, left, right, vec) -> tuple:
    """(word, vector, map) of a kept candidate; a leaf is its own."""
    if op is None:
        return left
    lword, _, lmat = left
    rword, _, rmat = right
    if op is Sum:
        return Sum(lword, rword), vec, add_maps(lmat, rmat)
    return Prod(lword, rword), vec, compose(lmat, rmat)
