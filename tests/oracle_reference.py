"""Reference proximity oracle: every word, no class merging.

`brute_oracle` enumerates every word of each length in the order
`rowfin.words.proximity_oracle` uses, and is the slow search the merged
one is cross-checked against.  `first_words` reads the brute-force
answer for every reachable target off one enumeration, and
`words_up_to` counts the words it tries for a target out of reach.
"""

from __future__ import annotations

from rowfin import words as wd
from rowfin.matrices import FinVec
from rowfin.words import (NEG_ONE, ONE, ZERO, Gen, ProximityResult, Prod, Sum,
                          eval_word)


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
