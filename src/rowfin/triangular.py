"""Triangular and diagonal sandwich constructions.

The block matrices A and B sandwich a diagonal matrix into any given
lower-triangular matrix; the fearing lower-embedding squeezes a
finite-support-per-row subring under the lower-triangular matrices.
"""

from __future__ import annotations

from bisect import bisect_left

from . import matrices as mx
from .indexing import tri_block, tri_split
from .matrices import FinVec, RowFiniteMap
from .rings import BaseRing
from .words import is_finite_bound


class SandwichError(Exception):
    """A fearing descriptor whose support bound is not a finite set."""


def sandwich_A(ring: BaseRing) -> RowFiniteMap:
    """Row i carries a width-i block of ones at columns tri_block(i)."""

    one = ring.one  # canonical and nonzero: every ring here has 1 != 0

    def rowfn(i):
        return FinVec._of(ring, {c: one for c in tri_block(i)})

    return RowFiniteMap(ring, rowfn)


def sandwich_B(ring: BaseRing) -> RowFiniteMap:
    """Stacked identity blocks: row T(i-1)+k is e_k for 1 <= k <= i."""
    return mx.from_index_map(ring, lambda r: tri_split(r)[1])


def sandwich_X(Y: RowFiniteMap) -> RowFiniteMap:
    """Diagonal X with A X B = Y, for lower-triangular Y.

    Cell T(i-1)+k of the diagonal holds Y[i,k]. X reads only the cells
    (i, k <= i) of Y, so nothing is checked here: a cell of Y above the
    diagonal makes A X B differ from Y in its row, which the caller's
    A X B = Y check reports. The caller builds A and B once and shares
    their memoised rows across targets.
    """
    ring = Y.ring
    zero = FinVec._of(ring, {})  # shared by every zero row, as in `from_rows`

    def rowfn(d):
        i, k = tri_split(d)
        # Y's stored entries are canonical and nonzero; a missing one is zero.
        v = Y.row(i).entries.get(k)
        return zero if v is None else FinVec._of(ring, {d: v})

    return RowFiniteMap(ring, rowfn)


# ---------------------------------------------------------------------------
# Lower-embedding of a fearing subring


class _TargetSequence:
    """l'_k: strictly increasing majorant of the running support maxima."""

    def __init__(self, supp_fn):
        self.supp_fn = supp_fn
        self._vals: list[int] = []

    def get(self, k: int) -> int:
        while len(self._vals) < k:
            j = len(self._vals) + 1
            supp = self.supp_fn(j)
            raw = max(supp, default=0)
            prev = self._vals[-1] if self._vals else 0
            self._vals.append(max(raw, prev + 1))
        return self._vals[k - 1]

    def invert(self, alpha: int):
        """The k with l'_k = alpha, or None: a bisection of the targets,
        extended first until they reach alpha."""
        vals = self._vals
        while not vals or vals[-1] < alpha:
            self.get(len(vals) + 1)
        k = bisect_left(vals, alpha)
        return k + 1 if vals[k] == alpha else None


def fear_lower_embed(descriptor,
                     ring: BaseRing) -> tuple[RowFiniteMap, RowFiniteMap]:
    """Maps (g, f) with g f = 1 and f h lower-triangular for every h in S.

    Row k of g is the unit vector at l'_k.  The raw maxima l_k may
    repeat; the targets l'_k are their minimal strictly increasing
    majorant, which preserves lower-triangularity.  Both maps are lazy
    and nothing is verified here: reading a row whose support bound is
    not a finite set raises `SandwichError`, and callers check g f = 1.
    """

    def supp_fn(a):
        supp = descriptor.supp(a)
        if not is_finite_bound(supp):
            raise SandwichError(
                f"descriptor {descriptor.name} is not finitely fearing at row {a}"
            )
        return supp

    seq = _TargetSequence(supp_fn)
    return mx.from_index_map(ring, seq.get), mx.from_index_map(ring, seq.invert)
