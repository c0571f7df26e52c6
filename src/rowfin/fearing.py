"""Fearing descriptors and the escape-endomorphism witness.

A fearing descriptor names a subring by one fact: the per-row support
bound supp(a) of its members.  The witness generator builds, block by
block, an endomorphism whose proximity to its inputs is unbounded over
any finite extra generator set.
"""

from __future__ import annotations

import random

from . import matrices as mx
from .matrices import FinVec, RowFiniteMap
from .rings import BaseRing
from .words import support_closure


class FearingDescriptor:
    """The subring S of all maps whose row a lies in supp(a).

    supp(a) must be a finite set of columns.  A row the support closure
    reaches whose bound is not one raises `WordError` there.
    """

    __slots__ = ("name", "supp")

    def __init__(self, name: str, supp):
        self.name = name
        self.supp = supp            # a -> frozenset

    def sample(self, ring: BaseRing, seed: int) -> RowFiniteMap:
        """A seeded member of S with up to three entries in each of rows 1..24."""
        rng = random.Random(seed)
        rows = {}
        for a in range(1, 25):
            cols = sorted(self.supp(a))
            if not cols:
                continue
            chosen = rng.sample(cols, k=min(len(cols), rng.randint(1, 3)))
            rows[a] = {c: ring.random_payload(rng) for c in chosen}
        return mx.from_rows(ring, rows)


def diagonal_fearing() -> FearingDescriptor:
    return FearingDescriptor("diagonal", lambda a: frozenset({a}))


def banded_fearing(width: int) -> FearingDescriptor:
    return FearingDescriptor(
        f"band{width}",
        lambda a: frozenset(range(max(1, a - width), a + width + 1)),
    )


def stretch_fearing(factor: int) -> FearingDescriptor:
    """supp(k) = {1..factor*k}; the raw lower-embed maxima jump by `factor`."""
    return FearingDescriptor(
        f"stretch{factor}", lambda a: frozenset(range(1, factor * a + 1))
    )


def paired_fearing() -> FearingDescriptor:
    """supp(k) = {2*ceil(k/2)}: consecutive rows share a target, so the
    raw lower-embed maxima repeat."""
    return FearingDescriptor("paired",
                             lambda a: frozenset({2 * ((a + 1) // 2)}))


# ---------------------------------------------------------------------------
# The escape witness


class FearPair:
    """Block j: x_j = e_start, y_j = e_escape, and x_j's radius-j cover."""

    __slots__ = ("j", "start", "escape", "cover")

    def __init__(self, j: int, start: int, escape: int, cover: frozenset):
        self.j = j
        self.start = start
        self.escape = escape
        self.cover = cover


class FearWitness:
    __slots__ = ("pairs", "g")

    def __init__(self, pairs: list, g: RowFiniteMap):
        self.pairs = pairs
        self.g = g


def fear_witness(descriptor: FearingDescriptor, u_maps: dict, J: int,
                 ring: BaseRing) -> FearWitness:
    """Build J escape certificates and the block map g realizing them.

    x_j = e_start is a unit vector beyond all prior blocks; its radius-j
    closure cover is finite (every support bound is a finite set, and
    `support_closure` raises `WordError` at a reached row whose bound is
    not), so a coordinate outside it exists: the escape, and y_j is the
    unit vector there.  g sends x_j to y_j, which lies outside the
    radius-j ball around x_j.  Nothing is verified here: the `fear`
    report checks x_j g = y_j and escape not in cover for each block.
    """
    pairs = []
    used = 0  # largest index consumed by any block so far
    g_rows = {}
    for j in range(1, J + 1):
        start = used + 1
        cover = support_closure(FinVec.unit(ring, start), descriptor.supp,
                                u_maps, j).cover
        escape = max(cover | {used}) + 1
        pairs.append(FearPair(j, start, escape, cover))
        g_rows[start] = {escape: ring.one}
        used = escape
    return FearWitness(pairs=pairs, g=mx.from_rows(ring, g_rows))
