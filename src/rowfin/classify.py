"""Preorder-indexed subrings: membership, classification, and witnesses.

A preorder on the indices cuts out the incidence-style subring of maps
whose nonzero cells respect the relation.  Such subrings fall into
exactly two classes: diagonal-like (finitely many infinite up-sets) and
full-like (infinitely many), and the full-like case carries an explicit
sandwich witness built from the descriptor's refinement metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import matrices as mx
from .indexing import PreorderDescriptor, Refinement
from .matrices import RowFiniteMap
from .rings import BaseRing, PrimeField, RingError


class ClassifyError(Exception):
    pass


# ---------------------------------------------------------------------------
# Membership


@dataclass
class MembershipReport:
    ok: bool
    violations: list  # (row, col) cells breaking the relation


def preorder_membership(f: RowFiniteMap, rho: PreorderDescriptor,
                        rows) -> MembershipReport:
    """The cells of f in the given rows that break the relation."""
    violations = []
    for a in rows:
        for b in sorted(f.row_support(a)):
            if not rho.rel(a, b):
                violations.append((a, b))
    return MembershipReport(ok=not violations, violations=violations)


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
# Full-class sandwich witnesses


@dataclass
class EquivWitness:
    branch: str
    rho: PreorderDescriptor
    ring: BaseRing
    g: RowFiniteMap
    h: RowFiniteMap

    def lift(self, target: RowFiniteMap, window: int) -> RowFiniteMap:
        raise NotImplementedError

    def verify(self, target: RowFiniteMap, window: int) -> RowFiniteMap:
        """Lift; check g * lift * h = target on the window and that every
        row of the lift (one per anchor) respects the preorder."""
        lifted = self.lift(target, window)
        sandwich = mx.compose(mx.compose(self.g, lifted), self.h)
        check = mx.equal_on_window(sandwich, target, window)
        if not check:
            raise ClassifyError(f"sandwich mismatch: {check.describe()}")
        anchors = self.rho.refinement.anchors
        member = preorder_membership(
            lifted, self.rho, (anchors(j) for j in range(1, window + 1)))
        if not member.ok:
            raise ClassifyError(
                f"lift violates membership at {member.violations[0]}"
            )
        return lifted


class NestedWitness(EquivWitness):
    """Upper-triangular targets via nested bars.

    beta_j is picked greedily (least unused) from bars(j); since the bars
    are nested downward, beta_k lies in every earlier bar, so the lifted
    rows stay inside the anchors' up-sets.
    """

    def __init__(self, rho, ring):
        ref = rho.refinement
        self._anchors = ref.anchors
        self._bars = ref.bars
        self._betas: list[int] = []
        g = mx.from_index_map(ring, self._anchor_of, tag="nested_g")
        h = mx.from_index_map(ring, self._h_index, tag="nested_h")
        super().__init__(Refinement.NESTED, rho, ring, g, h)

    def _anchor_of(self, j):
        return self._anchors(j)

    def beta(self, j: int) -> int:
        while len(self._betas) < j:
            jj = len(self._betas) + 1
            bar = self._bars(jj)
            t = 1
            while bar.nth(t) in self._betas:
                t += 1
            self._betas.append(bar.nth(t))
        return self._betas[j - 1]

    def _h_index(self, alpha):
        # h sends each beta_j back to j; betas are distinct by choice.
        j = 1
        while True:
            b = self.beta(j)
            if b == alpha:
                return j
            # The betas need not be increasing; stop once all remaining
            # bars start beyond alpha.
            if self._bars(j).nth(1) > alpha and b > alpha:
                return None
            j += 1

    def lift(self, target: RowFiniteMap, window: int) -> RowFiniteMap:
        rows = {}
        for j in range(1, window + 1):
            row = target.row(j)
            entries = {}
            for k, v in row.entries.items():
                if k < j:
                    raise ClassifyError(
                        f"target not upper-triangular: cell ({j},{k})"
                    )
                entries[self.beta(k)] = v
            if entries:
                rows[self._anchors(j)] = entries
        return mx.from_rows(self.ring, rows, tag="nested_lift")


class DisjointWitness(EquivWitness):
    """Arbitrary targets via pairwise disjoint bars.

    Row j of the target is spread along bar j's enumeration; h collapses
    every bar back onto the base coordinates, and disjointness keeps the
    collapses from clashing.
    """

    def __init__(self, rho, ring):
        ref = rho.refinement
        self._anchors = ref.anchors
        self._bars = ref.bars
        g = mx.from_index_map(ring, ref.anchors, tag="disjoint_g")
        h = mx.from_index_map(ring, self._h_index, tag="disjoint_h")
        super().__init__(Refinement.DISJOINT, rho, ring, g, h)

    def _h_index(self, alpha):
        j = 1
        while True:
            bar = self._bars(j)
            pos = bar.index_of(alpha)
            if pos is not None:
                return pos
            if bar.nth(1) > alpha:
                # Later bars may still start low; bound the scan by
                # checking a stretch of bar heads beyond alpha.
                if all(self._bars(t).nth(1) > alpha for t in range(j, j + 8)):
                    return None
            j += 1

    def lift(self, target: RowFiniteMap, window: int) -> RowFiniteMap:
        rows = {}
        for j in range(1, window + 1):
            bar = self._bars(j)
            entries = {bar.nth(k): v for k, v in target.row(j).entries.items()}
            if entries:
                rows[self._anchors(j)] = entries
        return mx.from_rows(self.ring, rows, tag="disjoint_lift")


def eclass_witness(rho: PreorderDescriptor, ring: BaseRing) -> EquivWitness:
    if classify_preorder(rho) != E_CLASS:
        raise ClassifyError(f"{rho.name} is not full-like")
    if rho.refinement is None:
        raise ClassifyError(f"{rho.name} has no refinement metadata")
    if rho.refinement.branch == Refinement.NESTED:
        return NestedWitness(rho, ring)
    return DisjointWitness(rho, ring)


# ---------------------------------------------------------------------------
# Finite-scale subring census


@dataclass
class SubringCensus:
    n: int
    p: int
    count: int
    preorders: list   # sorted pair tuples, one per subring
    sizes: list


def simple_full_check(n: int, p: int, feasibility_cap: int = 1000) -> SubringCensus:
    """Enumerate diagonal-containing subrings of the n x n matrices over GF(p).

    Over GF(p) an additive subgroup is a subspace, so a subring is held as
    the reduced row-echelon basis of a subspace of F_p^(n*n), which is
    also its dedup key.  Each subring S is extended by one line of E/S at
    a time, represented by a vector on S's non-pivot cells whose first
    nonzero entry is 1.  The cap bounds the candidate lines at the
    diagonal, (p^(n*n-n) - 1)/(p - 1).

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
    lines = (p ** (n * n - n) - 1) // (p - 1)
    if lines > feasibility_cap:
        raise ClassifyError(f"{lines} candidate lines at the diagonal exceed "
                            f"the feasibility cap {feasibility_cap}")
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
                found[key] = bigger
                queue.append(bigger)

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
    return SubringCensus(n=n, p=p, count=len(found),
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
        while done < len(gens):
            v = gens[done]
            for u in gens[:done + 1]:
                for w in (self.mul(v, u), self.mul(u, v)):
                    if self.insert(basis, w):
                        gens.append(w)
            done += 1
        return basis

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

