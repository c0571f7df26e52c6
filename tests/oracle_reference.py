"""Reference proximity oracle: every word, no class merging.

`brute_oracle` enumerates every word of each length in the order
`rowfin.words.proximity_oracle` uses, and is the slow search the merged
one is cross-checked against.  `first_words` reads the brute-force
answer for every reachable target off one enumeration, and
`words_up_to` counts the words it tries for a target out of reach.

`u_word` is the two-generator word tree of u_i, the reference for the
joined texts of `rowfin.twogen.u_word_texts` and, evaluated flat, for
the shared rows of `rowfin.twogen.word_maps`.

`phi`, `position`, `sigma1_index` and `sigma1_row` are the index maps of
f1 and f3 written as functions, the references for the tables
`rowfin.twogen.PHI`, `POSITION` and `SIGMA1_ROW`.
"""

from __future__ import annotations

from rowfin import twogen as tg
from rowfin import words as wd
from rowfin.matrices import FinVec
from rowfin.words import (NEG_ONE, ONE, ZERO, Gen, ProximityResult, Prod, Sum,
                          Word, eval_word, prod_chain)


def u_word(i: int) -> Word:
    """g1 g4^i g3 g5^i g2 with every factor replaced by its two-generator word."""
    g = {j: tg.g_word(j) for j in range(1, 6)}
    return prod_chain(g[j] for j in tg._u_factors(i))


def phi(k: int) -> int:
    """The index action of f1: classes 1..5 advance; classes 6,7 merge into 7."""
    q, r = divmod(k - 1, 7)     # k is in class r + 1
    if r <= 4:
        return k + 1
    # Position of k among {6,7, 13,14, 20,21, ...}.
    return 7 * (2 * q + (1 if r == 5 else 2))


def sigma1_index(alpha: int) -> int:
    """For alpha in class 7, the k with f1^6 sending 7k - 6 (k-th of Sigma_1) to alpha.

    Undoing f1 on 7j halves j while j is even (class 7 from class 7) and
    leaves class 7 for class 6 once j is odd; every later step goes down
    one class.  After e <= 6 halvings that gives k in closed form, and it
    never runs below class 1.
    """
    j = alpha // 7
    e = min(6, (j & -j).bit_length() - 1)   # trailing zero bits of j
    j >>= e
    return 7 * j if e == 6 else 7 * (j - 1) // 2 + 1 + e


def position(alpha: int) -> int:
    """alpha's position j in its mod-7 piece: alpha = 7(j - 1) + class."""
    return (alpha - 1) // 7 + 1


def sigma1_row(alpha: int) -> int:
    """For alpha in class 7, the k-th element 7k - 6 of Sigma_1 = {1, 8, 15, ...},
    where f1^6 sends it to alpha."""
    return 7 * sigma1_index(alpha) - 6


class _Cand:
    """A candidate word with its vector image and a lazily built matrix."""

    __slots__ = ("word", "vec", "_mat")

    def __init__(self, word, vec):
        self.word = word
        self.vec = vec
        self._mat = None

    def mat(self, env, ring):
        if self._mat is None:
            self._mat = eval_word(self.word, env, ring)
        return self._mat


def brute_words(x1: FinVec, env: dict, r_max: int):
    """Every word of length 1..r_max with its vector x1 . w, in search order.

    Yields (length, word, vector).  Each length is built in full before
    its words are yielded, and building one raises OracleBudgetExceeded
    if it would take the candidates built past WORD_CAP.
    """
    ring = x1.ring
    built = 0
    level = [_Cand(ZERO, FinVec.zero(ring)),
             _Cand(ONE, x1),
             _Cand(NEG_ONE, x1.neg())]
    for name in sorted(env):
        level.append(_Cand(Gen(name), x1.apply(env[name])))

    by_length: list[list[_Cand]] = [level]
    for n in range(1, r_max + 1):
        if n > 1:
            level = []
            for m1 in range(1, n):
                for left in by_length[m1 - 1]:
                    for right in by_length[n - m1 - 1]:
                        level.append(_Cand(Sum(left.word, right.word),
                                           left.vec.add(right.vec)))
                        level.append(_Cand(
                            Prod(left.word, right.word),
                            left.vec.apply(right.mat(env, ring))))
                        if built + len(level) > wd.WORD_CAP:
                            raise wd.OracleBudgetExceeded(
                                f"word cap {wd.WORD_CAP} exceeded at length {n}"
                            )
            by_length.append(level)
        built += len(level)
        for cand in level:
            yield n, cand.word, cand.vec


def brute_oracle(x1: FinVec, x2: FinVec, env: dict,
                 r_max: int) -> ProximityResult:
    """Least word length r with x2 = x1 . eval(w), by exhaustive enumeration."""
    tried = 0
    for n, word, vec in brute_words(x1, env, r_max):
        tried += 1
        if vec == x2:
            return ProximityResult(True, n, word, tried)
    return ProximityResult(False, r_max, None, tried)


def first_words(x1: FinVec, env: dict, r_max: int) -> dict:
    """vector -> brute_oracle's result for that target, from one enumeration.

    For every target x2 in the dict, brute_oracle(x1, x2, env, r_max)
    returns exactly this result: the first word reaching x2, its length
    and the words tried up to it.  For every other target it finds
    nothing.
    """
    first = {}
    for tried, (n, word, vec) in enumerate(brute_words(x1, env, r_max), 1):
        if vec not in first:
            first[vec] = ProximityResult(True, n, word, tried)
    return first


def words_up_to(env: dict, r_max: int) -> int:
    """How many words of length 1..r_max brute_words yields.

    brute_oracle tries this many words before it reports a target out of
    reach, and raises OracleBudgetExceeded instead when it passes WORD_CAP.
    """
    counts = [3 + len(env)]
    for n in range(2, r_max + 1):
        counts.append(2 * sum(counts[m - 1] * counts[n - m - 1]
                              for m in range(1, n)))
    return sum(counts)
