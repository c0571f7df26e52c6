"""Preorder-indexed subrings: membership, classification, and witnesses.

A preorder on the indices cuts out the incidence-style subring of maps
whose nonzero cells respect the relation.  Such subrings fall into
exactly two classes: diagonal-like (finitely many infinite up-sets) and
full-like (infinitely many).  Both the verdict and the full-like case's
sandwich witness are read off the normal form's table: a triple
(c, d, +1) makes the class full-like and gives the witness's anchors
(class c) and bars (class d).
"""

from __future__ import annotations

from itertools import permutations, product

from . import matrices as mx
from .indexing import PreorderDescriptor, cantor_pair, cantor_unpair
from .matrices import RowFiniteMap
from .rings import BaseRing, PrimeField, RingError


class ClassifyError(Exception):
    pass


class CensusInfeasible(ClassifyError):
    pass


# ---------------------------------------------------------------------------
# Membership


def preorder_membership(f: RowFiniteMap, rho: PreorderDescriptor,
                        rows) -> list:
    """The cells (row, col) of f in the given rows that break the relation."""
    return [(a, b) for a in rows for b in sorted(f.row(a).entries)
            if not rho.rel(a, b)]


# ---------------------------------------------------------------------------
# Classification


D_CLASS = "DClass"
E_CLASS = "EClass"


def classify_preorder(rho: PreorderDescriptor) -> str:
    """Diagonal-like iff only finitely many rows have infinite up-sets.

    A row's up-set is infinite exactly when its class c has a triple
    (c, d, +1) in the table, and then so is every row of class c.  So
    either infinitely many rows have infinite up-sets (EClass) or none do
    (DClass).
    """
    if any(s > 0 for _, _, s in rho.table):
        return E_CLASS
    return D_CLASS


# ---------------------------------------------------------------------------
# Full-class sandwich witness


class EquivWitness:
    """Maps g, h with g * lift(Y) * h = Y on the window, lift(Y) in the subring.

    It rests on one table triple (c, d, +1): every row of class c above K
    relates to every later row of class d.  With a_j and D(n) the j-th row
    of class c and the n-th row of class d above K, row j of Y lifts to row
    a_j, spread along the bar B_j(t) = D(cantor_pair(j, t) + 1).  The bars
    are disjoint because the pairing is injective, and each lies above its
    anchor: D(T(j) + 1) >= K + T(j)*m + 1 > K + j*m >= a_j.  g sends j to
    a_j, and h sends D(n + 1) to t, where (j, t) = cantor_unpair(n).
    """

    def __init__(self, rho: PreorderDescriptor, ring: BaseRing, c: int, d: int):
        self.rho, self.ring = rho, ring
        self.anchor_class, self.bar_class = c, d
        m, K = rho.period, rho.K
        # The first rows of classes c and d above K.
        self._first_anchor = K + 1 + (c - K - 1) % m
        self._first_bar = K + 1 + (d - K - 1) % m
        self.g = mx.from_index_map(ring, self.anchor)
        self.h = mx.from_index_map(ring, self._h_index)

    def anchor(self, j: int) -> int:
        return self._first_anchor + (j - 1) * self.rho.period

    def bar(self, j: int, t: int) -> int:
        return self._first_bar + cantor_pair(j, t) * self.rho.period

    def _h_index(self, alpha):
        n, off = divmod(alpha - self._first_bar, self.rho.period)
        if n < 1 or off:
            return None
        return cantor_unpair(n)[1]

    def lift(self, target: RowFiniteMap, window: int) -> RowFiniteMap:
        rows = {}
        for j in range(1, window + 1):
            entries = {self.bar(j, k): v
                       for k, v in target.row(j).entries.items()}
            if entries:
                rows[self.anchor(j)] = entries
        return mx.from_rows(self.ring, rows)

    def verify(self, target: RowFiniteMap, lifted: RowFiniteMap,
               window: int) -> str | None:
        """None if g * lifted * h = target on the window and every row of
        lifted that g reads (one per anchor) respects the preorder; else
        the first failure."""
        sandwich = mx.compose(mx.compose(self.g, lifted), self.h)
        mismatch = mx.first_mismatch(sandwich, target, window)
        if mismatch:
            return f"sandwich mismatch: {mismatch}"
        violations = preorder_membership(
            lifted, self.rho, (self.anchor(j) for j in range(1, window + 1)))
        if violations:
            return f"lift violates membership at {violations[0]}"
        return None


def eclass_witness(rho: PreorderDescriptor, ring: BaseRing) -> EquivWitness:
    """The witness on the least table triple (c, d, +1)."""
    least = min(((c, d) for c, d, s in rho.table if s > 0), default=None)
    if least is None:
        raise ClassifyError(f"{rho.name} is not full-like")
    return EquivWitness(rho, ring, *least)


# ---------------------------------------------------------------------------
# Finite-scale subring census


class SubringCensus:
    __slots__ = ("count", "preorders", "sizes")

    def __init__(self, count: int, preorders: list, sizes: list):
        self.count = count
        self.preorders = preorders  # sorted pair tuples, one per subring
        self.sizes = sizes


CENSUS_CAP = 20_000


def simple_full_check(n: int, p: int) -> SubringCensus:
    """Enumerate diagonal-containing subrings of the n x n matrices over GF(p).

    Over GF(p) an additive subgroup is a subspace, so a subring is held as
    the reduced row-echelon basis of a subspace of F_p^(n*n), which is
    also its dedup key.  Each subring S is extended by one line of E/S at
    a time, represented by a vector on S's non-pivot cells whose first
    nonzero entry is 1.  CENSUS_CAP bounds the candidate lines at the
    diagonal, (p^(n*n-n) - 1)/(p - 1) = 1 + p + ... + p^(n*n-n-1), which
    is summed only until it passes the cap; past it, `CensusInfeasible`
    is raised.

    Conjugating by a permutation matrix, (i, j) -> (s(i), s(j)) on cells,
    fixes the diagonal and maps the extensions of S onto those of its
    image.  So a newly closed subring enters `found` with its whole
    orbit, and only the orbit member with the least key is extended.

    Each subring must equal the incidence subring of its own nonzero-cell
    relation, and that relation must be a preorder; the census is returned
    for comparison against the preorder count.
    """
    if n < 1:
        raise ClassifyError(f"matrix size must be >= 1, got {n}")
    try:
        field = PrimeField(p)
    except RingError as exc:
        raise ClassifyError(str(exc)) from None
    lines, power = 0, 1
    for _ in range(n * n - n):
        lines += power
        if lines > CENSUS_CAP:
            raise CensusInfeasible("the candidate lines at the diagonal exceed "
                                   f"the feasibility cap {CENSUS_CAP}")
        power *= p
    algebra = _CellAlgebra(field, n)
    diagonal = [algebra.unit(i, i) for i in range(n)]
    base = algebra.close({}, [], diagonal)
    found = {algebra.key(base): base}
    queue = [base]
    while queue:
        s = queue.pop()
        gens = list(s.values())
        for x in algebra.line_representatives(s):
            bigger = algebra.close(s, gens, [x])
            key = algebra.key(bigger)
            if key not in found:
                orbit = algebra.orbit(key, bigger)
                found.update(orbit)
                queue.append(orbit[min(orbit)])

    subrings = []
    for s in found.values():
        rel = {(c // n + 1, c % n + 1)
               for row in s.values() for c, v in enumerate(row) if v}
        # The subring lies inside the matrices supported on rel, so equal
        # dimensions make it exactly that incidence subring.
        if len(s) != len(rel):
            raise ClassifyError(
                f"subring of dimension {len(s)} spans {len(rel)} cells; "
                "not an incidence subring"
            )
        for a, b in rel:
            if (a, a) not in rel:
                raise ClassifyError("relation not reflexive")
            for c, d in rel:
                if b == c and (a, d) not in rel:
                    raise ClassifyError("relation not transitive")
        # By size, ties by the cells read column by column.
        subrings.append((len(s), sorted((b, a) for a, b in rel),
                         tuple(sorted(rel))))
    subrings.sort()
    return SubringCensus(count=len(found),
                         preorders=[rel for _, _, rel in subrings],
                         sizes=[p ** dim for dim, _, _ in subrings])


class _CellAlgebra:
    """The n x n matrices over a prime field as row-major cell vectors.

    A subspace is a reduced row-echelon basis: a dict from pivot cell to
    a basis vector that is 1 there and 0 at every other pivot.  All cell
    arithmetic goes through the field's own operations.
    """

    def __init__(self, field: PrimeField, n: int):
        self.field = field
        self.n = n
        self.cells = n * n
        # Each non-identity permutation s as its cell map: entry c of the
        # permuted vector is entry sources[c] of the original.
        self.sources = [
            tuple(s[c // n] * n + s[c % n] for c in range(self.cells))
            for s in permutations(range(n))][1:]

    def unit(self, i: int, j: int) -> tuple:
        v = [0] * self.cells
        v[i * self.n + j] = self.field.one
        return tuple(v)

    def mul(self, a: tuple, b: tuple) -> tuple:
        n, add, mul = self.n, self.field.add, self.field.mul
        out = [0] * self.cells
        for i in range(n):
            for t in range(n):
                x = a[i * n + t]
                if not x:
                    continue
                for j in range(n):
                    y = b[t * n + j]
                    if y:
                        out[i * n + j] = add(out[i * n + j], mul(x, y))
        return tuple(out)

    def axpy(self, c, x: tuple, y: tuple) -> tuple:
        """c*x + y."""
        add, mul = self.field.add, self.field.mul
        return tuple(add(mul(c, u), v) if u else v for u, v in zip(x, y))

    def insert(self, basis: dict, v: tuple) -> bool:
        """Add v to the span in place; False when it already lies there."""
        neg = self.field.neg
        for pivot, row in basis.items():
            if v[pivot]:
                v = self.axpy(neg(v[pivot]), row, v)
        pivot = next((c for c, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        v = self.axpy(self.field.inv(v[pivot]), v, (0,) * self.cells)
        for q, row in basis.items():
            if row[pivot]:
                basis[q] = self.axpy(neg(row[pivot]), v, row)
        basis[pivot] = v
        return True

    def close(self, basis: dict, gens: list, new: list) -> dict:
        """The subring spanned by a closed subring and some new vectors.

        `gens` spans `basis` and all their pairwise products lie in it, so
        only products involving a newly entered vector are formed.
        """
        basis = dict(basis)
        gens = list(gens)
        done = len(gens)
        for v in new:
            if self.insert(basis, v):
                gens.append(v)
        # A span of all n*n cells is the whole ring, which is closed.
        while done < len(gens) and len(basis) < self.cells:
            v = gens[done]
            for u in gens[:done + 1]:
                for w in (self.mul(v, u), self.mul(u, v)):
                    if self.insert(basis, w):
                        if len(basis) == self.cells:
                            return basis
                        gens.append(w)
            done += 1
        return basis

    def orbit(self, key: tuple, basis: dict) -> dict:
        """The key -> basis map of every permuted image of a subring."""
        orbit = {key: basis}
        if len(basis) == self.cells:
            return orbit  # the whole ring is fixed by every permutation
        for sources in self.sources:
            image = {}
            for row in basis.values():
                self.insert(image, tuple(row[c] for c in sources))
            orbit.setdefault(self.key(image), image)
        return orbit

    def key(self, basis: dict) -> tuple:
        return tuple(basis[q] for q in sorted(basis))

    def line_representatives(self, basis: dict):
        """One vector per line of E/S: supported off the pivots, leading 1."""
        free = [c for c in range(self.cells) if c not in basis]
        one = self.field.one
        for lead in range(len(free)):
            for tail in product(range(self.field.n),
                                repeat=len(free) - lead - 1):
                v = [0] * self.cells
                v[free[lead]] = one
                for c, x in zip(free[lead + 1:], tail):
                    v[c] = x
                yield tuple(v)

