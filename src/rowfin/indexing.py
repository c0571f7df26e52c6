"""Index combinatorics over the positive integers.

Houses the pairing bijection with Z x N+, decidable infinite subsets,
the mod-7 partition, triangular block indexing, and preorder descriptors
with their refinement metadata and the DSL that builds them.
"""

from __future__ import annotations

import math
import re


class IndexError_(Exception):
    pass


class PreorderSpecError(IndexError_):
    pass


# ---------------------------------------------------------------------------
# Pairing bijections


def zfold(i: int) -> int:
    """Bijection Z -> N+ sending 0,-1,1,-2,2,... to 1,2,3,4,5,..."""
    return 2 * i + 1 if i >= 0 else -2 * i


def zunfold(m: int) -> int:
    return (m - 1) // 2 if m % 2 == 1 else -(m // 2)


def cantor_pair(a: int, b: int) -> int:
    """1-based Cantor diagonal pairing on N+ x N+."""
    s = a + b - 1
    return s * (s - 1) // 2 + a


def cantor_unpair(n: int) -> tuple[int, int]:
    s = (math.isqrt(8 * n - 7) + 1) // 2
    while s * (s + 1) // 2 < n:
        s += 1
    while (s - 1) * s // 2 >= n:
        s -= 1
    a = n - (s - 1) * s // 2
    return a, s - a + 1


class ZPairing:
    """Fixed bijection Z x N+ <-> N+ realizing Omega = Z x Gamma."""

    def encode(self, i: int, gamma: int) -> int:
        if gamma < 1:
            raise IndexError_(f"gamma must be >= 1, got {gamma}")
        return cantor_pair(zfold(i), gamma)

    def decode(self, n: int) -> tuple[int, int]:
        if n < 1:
            raise IndexError_(f"index must be >= 1, got {n}")
        a, b = cantor_unpair(n)
        return zunfold(a), b


# ---------------------------------------------------------------------------
# Decidable infinite subsets


class InfSetEnum:
    """Strictly increasing enumeration of an infinite subset of N+."""

    def nth(self, j: int) -> int:
        raise NotImplementedError

    def contains(self, k: int) -> bool:
        return self.index_of(k) is not None

    def index_of(self, k: int):
        """Position of k in the enumeration (1-based), or None."""
        raise NotImplementedError


class ResidueClassSet(InfSetEnum):
    """Elements of N+ whose residue classes mod m lie in a fixed set.

    Classes are 1-based: class(k) = ((k-1) % m) + 1.
    """

    def __init__(self, m: int, classes):
        self.m = m
        self.classes = tuple(sorted(set(classes)))
        if not self.classes:
            raise IndexError_("empty residue class set")

    def nth(self, j: int) -> int:
        q, r = divmod(j - 1, len(self.classes))
        return q * self.m + self.classes[r]

    def index_of(self, k: int):
        q, r = divmod(k - 1, self.m)
        c = r + 1
        if c not in self.classes:
            return None
        return q * len(self.classes) + self.classes.index(c) + 1


class TailSet(InfSetEnum):
    """All integers >= start."""

    def __init__(self, start: int):
        self.start = start

    def nth(self, j: int) -> int:
        return self.start + j - 1

    def index_of(self, k: int):
        return k - self.start + 1 if k >= self.start else None


class PairedSliceSet(InfSetEnum):
    """Slice `row` of a base enumerator partitioned via the Cantor pairing.

    base.nth(n) belongs to slice j when cantor_unpair(n) has first
    coordinate j.  The slices are pairwise disjoint, each infinite, and
    their union is the base set.
    """

    def __init__(self, base: InfSetEnum, row: int):
        self.base = base
        self.row = row

    def nth(self, j: int) -> int:
        return self.base.nth(cantor_pair(self.row, j))

    def index_of(self, k: int):
        pos = self.base.index_of(k)
        if pos is None:
            return None
        a, b = cantor_unpair(pos)
        return b if a == self.row else None


# ---------------------------------------------------------------------------
# The mod-7 partition


class SevenPartition:
    """N+ split into seven infinite pieces by residue mod 7 (7 plays 0)."""

    def class_of(self, k: int) -> int:
        return (k - 1) % 7 + 1

    def piece(self, i: int) -> ResidueClassSet:
        if not 1 <= i <= 7:
            raise IndexError_(f"piece index must be in 1..7, got {i}")
        return ResidueClassSet(7, [i])


# ---------------------------------------------------------------------------
# Triangular block indexing


def tri(i: int) -> int:
    return i * (i + 1) // 2


def tri_block(i: int) -> range:
    """The i-th contiguous block {T(i-1)+1, ..., T(i)} of widths 1,2,3,..."""
    if i < 1:
        raise IndexError_(f"block index must be >= 1, got {i}")
    return range(tri(i - 1) + 1, tri(i) + 1)


def tri_split(r: int) -> tuple[int, int]:
    """Invert block indexing: r = T(i-1)+k with 1 <= k <= i."""
    i = (math.isqrt(8 * r - 7) + 1) // 2
    while tri(i) < r:
        i += 1
    while tri(i - 1) >= r:
        i -= 1
    return i, r - tri(i - 1)


# ---------------------------------------------------------------------------
# Preorder descriptors


class Refinement:
    """Branch metadata: distinct anchors and per-anchor infinite bars."""

    NESTED = "Nested"
    DISJOINT = "Disjoint"

    def __init__(self, branch: str, anchors, bars):
        if branch not in (self.NESTED, self.DISJOINT):
            raise PreorderSpecError(f"unknown branch {branch!r}")
        self.branch = branch
        self.anchors = anchors  # j -> alpha_j
        self.bars = bars        # j -> InfSetEnum


class PreorderDescriptor:
    """A decidable reflexive-transitive relation with finiteness certificates.

    upset(a) and infinite_upset_indices are either a frozenset (finite) or
    an InfSetEnum (infinite); the tags are trusted after spot-checks, since
    they are not derivable from the relation oracle alone.
    """

    def __init__(self, name: str, rel, upset, infinite_upset_indices,
                 refinement: Refinement | None = None):
        self.name = name
        self.rel = rel
        self.upset = upset
        self.infinite_upset_indices = infinite_upset_indices
        self.refinement = refinement

    def has_finitely_many_infinite_upsets(self) -> bool:
        return isinstance(self.infinite_upset_indices, frozenset)


def check_preorder_descriptor(rho: PreorderDescriptor, bound: int = 40,
                              rng=None) -> list[str]:
    """Spot-check descriptor invariants; returns a list of violations."""
    import random as _random

    rng = rng or _random.Random(0)
    problems = []
    for a in range(1, bound + 1):
        if not rho.rel(a, a):
            problems.append(f"not reflexive at {a}")
    for _ in range(200):
        a, b, c = (rng.randint(1, bound) for _ in range(3))
        if rho.rel(a, b) and rho.rel(b, c) and not rho.rel(a, c):
            problems.append(f"not transitive on ({a},{b},{c})")
    for a in range(1, min(bound, 12) + 1):
        up = rho.upset(a)
        if isinstance(up, frozenset):
            expected = {b for b in range(1, bound + 1) if rho.rel(a, b)}
            if expected != {b for b in up if b <= bound}:
                problems.append(f"upset({a}) inconsistent with rel")
            if rho.infinite_upset_indices is not None:
                tagged = _tagged_infinite(rho, a)
                if tagged:
                    problems.append(f"{a} tagged infinite but upset is finite")
        else:
            for j in range(1, 10):
                b = up.nth(j)
                if not rho.rel(a, b):
                    problems.append(f"upset({a}) lists {b} but rel fails")
            if rho.infinite_upset_indices is not None and not _tagged_infinite(rho, a):
                problems.append(f"{a} has infinite upset but is not tagged")
    if rho.refinement is not None:
        ref = rho.refinement
        anchors = [ref.anchors(j) for j in range(1, 7)]
        if len(set(anchors)) != len(anchors):
            problems.append("anchors not distinct")
        for j in range(1, 7):
            up = rho.upset(ref.anchors(j))
            bar = ref.bars(j)
            for t in range(1, 8):
                b = bar.nth(t)
                inside = b in up if isinstance(up, frozenset) else up.contains(b)
                if not inside:
                    problems.append(f"bars({j}) element {b} outside upset of anchor")
                    break
        for j in range(2, 6):
            for jp in range(1, j):
                bj, bjp = ref.bars(j), ref.bars(jp)
                if ref.branch == Refinement.NESTED:
                    for t in range(1, 12):
                        if not bjp.contains(bj.nth(t)):
                            problems.append(f"bars({j}) not within bars({jp})")
                            break
                else:
                    for t in range(1, 12):
                        if bjp.contains(bj.nth(t)):
                            problems.append(f"bars({j}) meets bars({jp})")
                            break
    return problems


def _tagged_infinite(rho: PreorderDescriptor, a: int) -> bool:
    tags = rho.infinite_upset_indices
    if isinstance(tags, frozenset):
        return a in tags
    return tags.contains(a)


# ---------------------------------------------------------------------------
# Preorder DSL


_PAIRS_RE = re.compile(r"\((\d+),(\d+)\)")


def _parse_pairs(text: str):
    pairs = []
    rest = text
    while rest:
        m = _PAIRS_RE.match(rest)
        if not m:
            raise PreorderSpecError(f"malformed pair list at {rest!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
        rest = rest[m.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise PreorderSpecError(f"malformed pair list at {rest!r}")
    return pairs


def parse_preorder(text: str) -> PreorderDescriptor:
    """Compile the preorder DSL.

    Grammar: `diag | le | ge | full | mod:<m>:<pairs> | union-finite:<pairs>`
    where <pairs> is a comma list like `(1,2),(2,3)`.
    """
    text = text.strip()
    if text == "diag":
        return PreorderDescriptor(
            "diag",
            rel=lambda a, b: a == b,
            upset=lambda a: frozenset({a}),
            infinite_upset_indices=frozenset(),
        )
    if text == "ge":
        return PreorderDescriptor(
            "ge",
            rel=lambda a, b: a >= b,
            upset=lambda a: frozenset(range(1, a + 1)),
            infinite_upset_indices=frozenset(),
        )
    if text == "le":
        return PreorderDescriptor(
            "le",
            rel=lambda a, b: a <= b,
            upset=lambda a: TailSet(a),
            infinite_upset_indices=TailSet(1),
            refinement=Refinement(
                Refinement.NESTED,
                anchors=lambda j: j,
                bars=lambda j: TailSet(j),
            ),
        )
    if text == "full":
        return PreorderDescriptor(
            "full",
            rel=lambda a, b: True,
            upset=lambda a: TailSet(1),
            infinite_upset_indices=TailSet(1),
            refinement=Refinement(
                Refinement.NESTED,
                anchors=lambda j: j,
                bars=lambda j: TailSet(1),
            ),
        )
    if text.startswith("mod:"):
        rest = text[4:]
        head, sep, pairs_text = rest.partition(":")
        if not sep:
            raise PreorderSpecError(f"malformed mod preorder: {text!r}")
        try:
            m = int(head)
        except ValueError as exc:
            raise PreorderSpecError(f"malformed modulus in {text!r}") from exc
        if m < 1:
            raise PreorderSpecError(f"modulus must be >= 1 in {text!r}")
        pairs = _parse_pairs(pairs_text) if pairs_text else []
        return _mod_preorder(text, m, pairs)
    if text.startswith("union-finite:"):
        pairs = _parse_pairs(text[len("union-finite:"):])
        return _union_finite_preorder(text, pairs)
    raise PreorderSpecError(f"unknown preorder spec: {text!r}")


def _mod_preorder(name: str, m: int, pairs) -> PreorderDescriptor:
    for a, b in pairs:
        if not (1 <= a <= m and 1 <= b <= m):
            raise PreorderSpecError(f"class pair ({a},{b}) outside 1..{m}")
    # Reflexive-transitive closure on the m classes.
    reach = [[i == j for j in range(m)] for i in range(m)]
    for a, b in pairs:
        reach[a - 1][b - 1] = True
    for t in range(m):
        for i in range(m):
            if reach[i][t]:
                for j in range(m):
                    if reach[t][j]:
                        reach[i][j] = True

    def cls(k: int) -> int:
        return (k - 1) % m + 1

    def rel(a: int, b: int) -> bool:
        return reach[cls(a) - 1][cls(b) - 1]

    def upset(a: int):
        targets = [c + 1 for c in range(m) if reach[cls(a) - 1][c]]
        return ResidueClassSet(m, targets)

    # Every class is infinite and contains itself, so all upsets are infinite.
    # Anchor on class 1 and slice it into infinitely many disjoint bars.
    class_one = ResidueClassSet(m, [1])
    refinement = Refinement(
        Refinement.DISJOINT,
        anchors=class_one.nth,
        bars=lambda j: PairedSliceSet(class_one, j),
    )
    return PreorderDescriptor(
        name, rel=rel, upset=upset,
        infinite_upset_indices=TailSet(1),
        refinement=refinement,
    )


def _union_finite_preorder(name: str, pairs) -> PreorderDescriptor:
    # Transitive closure of the finite pair digraph, plus the diagonal.
    nodes = sorted({x for p in pairs for x in p})
    succ = {x: set() for x in nodes}
    for a, b in pairs:
        succ[a].add(b)
    closed = {}
    for a in nodes:
        seen, stack = set(), [a]
        while stack:
            x = stack.pop()
            for y in succ.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        closed[a] = frozenset(seen)

    def rel(x: int, y: int) -> bool:
        return x == y or y in closed.get(x, frozenset())

    def upset(a: int):
        return frozenset({a}) | closed.get(a, frozenset())

    return PreorderDescriptor(
        name, rel=rel, upset=upset, infinite_upset_indices=frozenset(),
    )
