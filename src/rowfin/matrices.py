"""Finitely supported vectors and row-finite matrices of four kinds.

Vectors model elements of the direct sum; matrices act on the right and
memoize computed rows.  A map is one of

* general (`RowFiniteMap`): an arbitrary row function;
* `Monomial`: row a is coeff * e_t, where the map's walk sends a to t
  one step at a time, or zero where a step is undefined.  A step is one
  of three kinds of partial index function:
  - a primitive one, memoized;
  - an exact `AffineTable`, evaluated in place with no memo;
  - a `LayerStep` on the layers of the pairing Z x N+ -> N+, evaluated
    by its closed form with no memo.
  Adjacent tables merge into their exact composite, adjacent layer
  steps by their composition rules, and a step that is the identity
  drops out;
* `Piecewise`: row a is row reindex_c(a) of the map m_c of a's class
  c = classify(a), or zero where the class has no piece;
* `Chain`: a flat product of factors.

`compose` reduces a product where its factors meet: an identity
monomial drops out, two monomials become one, and a monomial whose
last walk step lands every row on one piece of a piecewise map (the
classifier's partition says where: `landing`) becomes that piece's
product.  So a word over exact tables, layer steps and such piecewise
maps can reduce to the map it names.

Each structured kind is stored once, as the steps a chain walks: a
monomial as its walk and coefficient, a piecewise map as its cases
(the classifier and one reindex and step per piece), a chain as the
steps of its factors.  `_chain_row` reads the rows of all three; a
monomial or piecewise map is the chain of its single step.  A chain row
carries a single term as (index, coefficient) across the steps and
builds a vector only when it has several terms, and a zero row is its
ring's one shared zero vector.

Zero entries are pruned at every arithmetic step so supports are exact.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial

from .indexing import AffineTable, LayerStep
from .rings import BaseRing, parse_ring_spec, same_ring


class MatrixError(Exception):
    pass


class _RowEvalCounter:
    """Counts evaluations of primitive rows and of memoized index
    functions; test hook.  An `AffineTable` walk step is not counted."""

    def __init__(self):
        self.count = 0


row_evals = _RowEvalCounter()


class FinVec:
    """Finitely supported map N+ -> ring payloads; zero entries never stored."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: BaseRing, entries=None):
        self.ring = ring
        pruned = {}
        if entries:
            for idx, val in entries.items():
                val = ring.canon(val)
                if not ring.is_zero(val):
                    if idx < 1:
                        raise MatrixError(f"index must be >= 1, got {idx}")
                    pruned[idx] = val
        self.entries = pruned

    @classmethod
    def _of(cls, ring: BaseRing, entries: dict) -> "FinVec":
        """Wrap entries that are already canonical, nonzero and indexed >= 1."""
        vec = cls.__new__(cls)
        vec.ring = ring
        vec.entries = entries
        return vec

    @classmethod
    def unit(cls, ring: BaseRing, idx: int) -> "FinVec":
        return cls(ring, {idx: ring.one})

    @classmethod
    def zero(cls, ring: BaseRing) -> "FinVec":
        return cls(ring)

    def support(self) -> frozenset:
        return frozenset(self.entries)

    def add(self, *others: "FinVec") -> "FinVec":
        """self + each of others, summed into one new dict."""
        ring = self.ring
        add, is_zero, zero = ring.add, ring.is_zero, ring.zero
        out = dict(self.entries)
        for other in others:
            if other.ring is not ring:
                same_ring(ring, other.ring)
            for idx, val in other.entries.items():
                s = add(out.get(idx, zero), val)
                if is_zero(s):
                    out.pop(idx, None)
                else:
                    out[idx] = s
        return FinVec._of(ring, out)

    def neg(self) -> "FinVec":
        neg = self.ring.neg
        return FinVec._of(self.ring, {i: neg(v) for i, v in self.entries.items()})

    def scale_left(self, payload) -> "FinVec":
        """payload * self, entrywise on the left (written product order)."""
        mul, is_zero = self.ring.mul, self.ring.is_zero
        out = {}
        for i, v in self.entries.items():
            p = mul(payload, v)
            if not is_zero(p):
                out[i] = p
        return FinVec._of(self.ring, out)

    def apply(self, f: "RowFiniteMap") -> "FinVec":
        """Right action: self . f = sum_a self[a] * row_a(f)."""
        if f.ring is not self.ring:
            same_ring(self.ring, f.ring)
        if isinstance(f, Monomial):
            return f.remap(self)
        return push(self, f.row)

    def __eq__(self, other):
        # Entries first, so rings are compared only for equal entries.  Ring
        # == is identity (rings are interned), but is written as ==:
        # perfbench's self-test needs the ring comparisons counted on the
        # twogen, sandwich and oracle workloads.
        return (isinstance(other, FinVec) and self.entries == other.entries
                and self.ring == other.ring)

    def __hash__(self):
        # The entries alone: equal vectors have equal entries.
        return hash(frozenset(self.entries.items()))

    def __repr__(self):
        inner = ", ".join(f"{i}:{self.ring.format_payload(v)}"
                          for i, v in sorted(self.entries.items()))
        return f"FinVec({inner})"


def push(vec: FinVec, row) -> FinVec:
    """vec . M = sum_a vec[a] * row(a), where row(a) gives row a of M.

    A term whose row is zero is skipped before it is scaled.  With several
    terms, every nonzero one is scaled with `scale_left`, even by one, and
    one `FinVec.add` call sums them into a single accumulator.
    """
    if len(vec.entries) == 1:
        [(idx, val)] = vec.entries.items()
        out = row(idx)
        return out if val == vec.ring.one or not out.entries else out.scale_left(val)
    terms = []
    for idx, val in vec.entries.items():
        out = row(idx)
        if out.entries:
            terms.append(out.scale_left(val))
    if not terms:  # vec is zero, or every row it meets is
        return vec if not vec.entries else FinVec._of(vec.ring, {})
    first, *rest = terms
    return first.add(*rest) if rest else first


class RowFiniteMap:
    """General kind: a lazy, memoized row function N+ -> FinVec; immutable once built.

    The memo table is an as-if-pure cache: concurrent reads may duplicate
    work but always converge to identical rows.
    """

    __slots__ = ("ring", "_rowfn", "_memo", "_primitive")

    def __init__(self, ring: BaseRing, rowfn, primitive: bool = True):
        self.ring = ring
        self._rowfn = rowfn
        self._memo = {}
        self._primitive = primitive

    def row(self, alpha: int) -> FinVec:
        cached = self._memo.get(alpha)
        if cached is None:
            # Checked on a miss only: no index below 1 is ever memoized.
            if alpha < 1:
                raise MatrixError(f"row index must be >= 1, got {alpha}")
            if self._primitive:
                row_evals.count += 1
            cached = self._rowfn(alpha)
            if cached.ring is not self.ring:
                same_ring(self.ring, cached.ring)
            self._memo[alpha] = cached
        return cached

    def row_support(self, alpha: int) -> frozenset:
        return self.row(alpha).support()


def _memoized_index(fn) -> tuple:
    """(memo, index): the partial index function fn, a -> int | None,
    computed once per a and kept in memo; one walk step."""
    memo = {}

    def index(alpha):
        t = memo.get(alpha, 0)  # 0 is never an index: not computed yet
        if t == 0:
            row_evals.count += 1
            t = fn(alpha)
            if t is not None and t < 1:
                raise MatrixError(f"index must be >= 1, got {t}")
            memo[alpha] = t
        return t

    return memo, index


def _walk(walk: tuple, t: int):
    """t sent through a monomial's walk, or None where a step is undefined."""
    for step in walk:
        if step.__class__ is tuple:
            memo, index = step
            t = memo.get(t) or index(t)
        else:
            t = step(t)
        if t is None:
            return None
    return t


@cache
def _zero_row(ring: BaseRing) -> FinVec:
    """The zero row of every structured map over the ring: rings are
    interned, and no vector is changed once built."""
    return FinVec._of(ring, {})


def _chain_row(ring: BaseRing, zero: FinVec, steps: tuple, alpha: int) -> FinVec:
    """Row alpha of the product: e_alpha pushed through the steps in turn.

    A step is (factor, cases, walk, scale), as `_step` builds it.  While
    the running vector is one term c * e_t it travels as the pair (t, c):
    a piecewise step sends t through its classifier and the piece's
    reindex, and then acts as the piece's step (`zero` where the class
    has no piece); a monomial step sends t through its walk as `_walk`
    does, with an index function's memo read first, an affine table
    evaluated in place and a layer step called, and c to c * scale;
    a general step gives c * row t.  A FinVec is carried only while it
    has several terms, and then each step applies its whole factor.
    """
    one, mul, is_zero = ring.one, ring.mul, ring.is_zero
    t, c, vec = alpha, one, None
    for f, cases, walk, scale in steps:
        if vec is not None:
            vec = vec.apply(f)
        else:
            while cases is not None:
                classify, table = cases
                piece = table.get(classify(t))
                if piece is None:
                    return zero
                reindex, f, cases, walk, scale = piece
                t = reindex(t)
            if walk is not None:
                for step in walk:
                    cls = step.__class__
                    if cls is tuple:
                        memo, index = step
                        t = memo.get(t) or index(t)  # a memo hit skips the call
                    elif cls is AffineTable:
                        entry = step.entries[t % step.modulus]
                        if entry is None:
                            return zero
                        num, den, off = entry
                        t = (num * t + off) // den
                        continue
                    else:
                        t = step(t)
                    if t is None:
                        return zero
                if scale is not None:
                    c = mul(c, scale)
                    if is_zero(c):
                        return zero
                continue
            vec = f._memo.get(t) or f.row(t)
            if c != one:
                vec = vec.scale_left(c)
        entries = vec.entries
        if len(entries) == 1:
            [(t, c)] = entries.items()
            vec = None
        elif not entries:
            return zero
    return FinVec._of(ring, {t: c}) if vec is None else vec


# Each kind reads its own rows with `_chain_row`, bound with `partial` to
# its single step with the factor left out (None), rather than pass a
# bound method: a map whose row function refers to the map is a reference
# cycle, freed only by the cyclic GC, and short-lived maps then pile up.
class Monomial(RowFiniteMap):
    """Row a is coeff * e_t, where `walk` sends a to t one step at a
    time; the row is zero where a step gives None.  A step is a (memo,
    index) pair from `_memoized_index`, an `AffineTable` or a
    `LayerStep`.  No walk is the identity.
    """

    __slots__ = ("walk", "coeff")

    def __init__(self, ring: BaseRing, walk: tuple = (), coeff=None):
        coeff = ring.one if coeff is None else ring.canon(coeff)
        scale = None if coeff == ring.one else coeff
        super().__init__(ring, partial(_chain_row, ring, _zero_row(ring),
                                       ((None, None, walk, scale),)), primitive=False)
        self.walk = walk
        self.coeff = coeff

    def remap(self, vec: FinVec) -> FinVec:
        """vec . self: move each entry to its target, scaled on the right."""
        ring, walk, coeff = self.ring, self.walk, self.coeff
        scale = None if coeff == ring.one else coeff
        out = {}
        for t, val in vec.entries.items():
            t = _walk(walk, t)
            if t is None:
                continue
            if scale is not None:
                val = ring.mul(val, scale)
            if t in out:
                val = ring.add(out[t], val)
            elif scale is None:
                out[t] = val
                continue
            if ring.is_zero(val):
                out.pop(t, None)
            else:
                out[t] = val
        return FinVec._of(ring, out)

    def then(self, g: "Monomial") -> "Monomial":
        """The product self g: walks chain, coefficients multiply.  Where
        the walks meet, steps merge for as long as `_merged` reduces the
        pair that meets."""
        left, right = self.walk, g.walk
        while left and right:
            merged = _merged(left[-1], right[0])
            if merged is None:
                break
            left, right = left[:-1] + merged, right[1:]
        return Monomial(self.ring, left + right, self.ring.mul(self.coeff, g.coeff))


def _merged(a, b):
    """The steps that replace the walk step a followed by b, or None to
    keep both.  Two tables merge into their exact composite
    (`_composite`), none if it is the identity, unless it has more
    entries than the two together; two layer steps merge by their
    composition rules (`LayerStep.then`)."""
    cls = a.__class__
    if cls is not b.__class__:
        return None
    if cls is LayerStep:
        return a.then(b)
    if cls is AffineTable:
        merged = _composite(a, b)
        if merged.modulus <= a.modulus + b.modulus:
            return () if merged.entries == ((1, 1, 0),) else (merged,)
    return None


@lru_cache(maxsize=256)
def _composite(a: AffineTable, b: AffineTable) -> AffineTable:
    """`a.then(b)`, kept per process in a cache of fixed size that no
    counter sees.  Tables define no `__eq__` and are never changed: the
    key is the two objects, which the cache holds while it keeps them.
    So the powers of f1's `PHI`, built afresh by every two-generator
    report, come back as the same objects and hit the cache all along."""
    return a.then(b)


class Piecewise(RowFiniteMap):
    """Row a is row reindex_c(a) of m_c, where c = classify(a).

    `pieces` maps a class to (reindex_c, m_c), or to None; the rows of a
    class with no piece are zero.  The map keeps only `cases`: the
    classifier and, per class, None or (reindex_c,) + the step of m_c.
    A classifier bound to a partition with a `landing` method (as
    `SevenPartition.class_of` and `LayerPartition.class_of` are) names
    the class of every image of a walk step, so `compose` can reduce a
    monomial followed by this map to one piece's product (`_land`).
    """

    __slots__ = ("cases",)

    def __init__(self, ring: BaseRing, classify, pieces: dict):
        table = {}
        for c, piece in pieces.items():
            if piece is not None:
                reindex, m = piece
                same_ring(ring, m.ring)
                piece = (reindex,) + _step(m)
            table[c] = piece
        cases = (classify, table)
        super().__init__(ring, partial(_chain_row, ring, _zero_row(ring),
                                       ((None, cases, None, None),)), primitive=False)
        self.cases = cases


class Chain(RowFiniteMap):
    """The product factors[0] factors[1] ... of two or more factors.

    The chain keeps only its factors' steps, and row a is e_a pushed
    through them by `_chain_row`; only the chain's own rows are memoized.
    A single-term row walks a monomial's steps and a piecewise factor's
    pieces, so it neither reads nor fills that factor's row memo.  Every
    factor's ring is checked once, here.
    """

    __slots__ = ("steps",)

    def __init__(self, ring: BaseRing, factors: tuple = (), steps: tuple = None):
        # `compose` passes steps in place of factors whose rings it has checked.
        if steps is None:
            for f in factors:
                same_ring(ring, f.ring)
            steps = tuple(_step(f) for f in factors)
        super().__init__(ring, partial(_chain_row, ring, _zero_row(ring), steps),
                         primitive=False)
        self.steps = steps


def _step(f: RowFiniteMap) -> tuple:
    """(f, cases, walk, scale): how `_chain_row` walks the factor f.

    A monomial gives its walk and its coefficient, or None for one; a
    piecewise map gives its cases; a general map, read by row, neither.
    """
    if isinstance(f, Monomial):
        return f, None, f.walk, None if f.coeff == f.ring.one else f.coeff
    if isinstance(f, Piecewise):
        return f, f.cases, None, None
    return f, None, None, None


# ---------------------------------------------------------------------------
# Constructors


def scalar_map(ring: BaseRing, payload) -> Monomial:
    """Diagonal map with a constant entry."""
    return Monomial(ring, (), payload)


def zero_map(ring: BaseRing) -> Monomial:
    return scalar_map(ring, ring.zero)


def identity_map(ring: BaseRing) -> Monomial:
    return scalar_map(ring, ring.one)


def matrix_unit(ring: BaseRing, i: int, j: int) -> Monomial:
    return from_index_map(ring, {i: j}.get)


def from_index_map(ring: BaseRing, fn) -> Monomial:
    """Map sending e_a to e_{fn(a)}; fn returning None gives a zero row.

    fn is a function, memoized, or an `AffineTable` or a `LayerStep`,
    read as it stands.
    """
    step = fn if isinstance(fn, (AffineTable, LayerStep)) else _memoized_index(fn)
    return Monomial(ring, (step,))


def from_rows(ring: BaseRing, rows: dict) -> RowFiniteMap:
    """Finite-support matrix from an explicit {row: {col: payload}} dict."""
    fixed = {idx: FinVec(ring, row) for idx, row in rows.items()}
    zero = FinVec.zero(ring)
    return RowFiniteMap(ring, lambda a: fixed.get(a, zero))


# ---------------------------------------------------------------------------
# Ring structure


def add_maps(f: RowFiniteMap, g: RowFiniteMap) -> RowFiniteMap:
    """f + g, row by row; two monomials whose walks match step for step
    (`_same_step`) give one monomial, the sum of their coefficients."""
    ring = same_ring(f.ring, g.ring)
    if f.__class__ is Monomial and g.__class__ is Monomial and _same_walk(f, g):
        return Monomial(ring, f.walk, ring.add(f.coeff, g.coeff))
    return RowFiniteMap(ring, lambda a: f.row(a).add(g.row(a)), primitive=False)


def _steps(f: RowFiniteMap) -> tuple:
    return f.steps if isinstance(f, Chain) else (_step(f),)


def compose(f: RowFiniteMap, g: RowFiniteMap) -> RowFiniteMap:
    """Right-action composition: row_a(fg) = row_a(f) . g.

    Products flatten into one Chain, reduced where f's steps meet g's
    (`_join`): an identity monomial drops out, monomials compose into one
    monomial, and a monomial meeting a piecewise map whose rows it all
    sends to one piece becomes that piece's product (`_land`).  Two
    monomials give a monomial.
    """
    ring = same_ring(f.ring, g.ring)
    *steps, last = _steps(f)
    _join(steps, last)
    right = _steps(g)
    for n, step in enumerate(right):
        if not _join(steps, step):
            steps += right[n + 1:]
            break
    if len(steps) == 1:
        return steps[0][0]
    if not steps:
        return identity_map(ring)
    # Every factor of f and of g is in the ring of f and g, checked above.
    return Chain(ring, steps=tuple(steps))


def _is_one(f: RowFiniteMap) -> bool:
    return f.__class__ is Monomial and not f.walk and f.coeff == f.ring.one


def _join(steps: list, step: tuple) -> bool:
    """Append `step` to the product `steps`, reduced where they meet;
    False if it is appended as it stands."""
    f = step[0]
    if f.__class__ is Monomial:
        if _is_one(f):
            return True
        if steps and steps[-1][0].__class__ is Monomial:
            _join(steps, _step(steps.pop()[0].then(f)))
            return True
    elif f.__class__ is Piecewise and steps and steps[-1][0].__class__ is Monomial:
        landed = _land(steps[-1][0], f)
        if landed is not None:
            steps.pop()
            for piece_step in landed:
                _join(steps, piece_step)
            return True
    steps.append(step)
    return False


def _land(mono: Monomial, pw: Piecewise):
    """The steps of mono pw as the product of one piece, or None.

    pw's classifier must be bound to a partition whose `landing` names
    the class c of every image of mono's last walk step, so of every
    row mono sends anywhere.  If c's piece (reindex, m) reindexes by a
    table or a layer step, kinds that `Monomial.then` merges, row a of
    mono pw is coeff times row reindex(mono(a)) of m: mono pw is (mono
    then reindex) times m.
    """
    classify, pieces = pw.cases
    landing = getattr(getattr(classify, "__self__", None), "landing", None)
    if landing is None or not mono.walk:
        return None
    c = landing(mono.walk[-1])
    piece = None if c is None else pieces.get(c)
    if piece is None or piece[0].__class__ not in (AffineTable, LayerStep):
        return None
    reindex, m = piece[0], piece[1]
    return (_step(mono.then(Monomial(mono.ring, (reindex,)))),) + _steps(m)


# ---------------------------------------------------------------------------
# Window verification and serialization


def same_map(f: RowFiniteMap, g: RowFiniteMap):
    """True when f and g are decided equal on every row, else None (not
    decided); never False.

    They are equal when they are one object, or two monomials whose
    canonical coefficients are equal and whose walks match step for
    step: the same step object, equal tables or equal layer steps.
    """
    same_ring(f.ring, g.ring)
    if f is g:
        return True
    if (f.__class__ is Monomial and g.__class__ is Monomial and f.coeff == g.coeff
            and _same_walk(f, g)):
        return True
    return None


def _same_walk(f: Monomial, g: Monomial) -> bool:
    return len(f.walk) == len(g.walk) and all(map(_same_step, f.walk, g.walk))


def _same_step(a, b) -> bool:
    """Whether the walk steps a and b are one object, equal tables or
    equal layer steps; two memoized functions are not compared."""
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__ or cls is tuple:
        return False
    if cls is AffineTable:
        return (a.modulus, a.entries) == (b.modulus, b.entries)
    return (a.kind, a.k) == (b.kind, b.k)


def first_mismatch(f: RowFiniteMap, g: RowFiniteMap, n: int) -> str | None:
    """None if the computed map f and the expected map g agree on rows 1..n.

    Otherwise the first differing row a, as `row a: got <f's row>,
    expected <g's row>`; rows are compared in full.
    """
    same_ring(f.ring, g.ring)
    if n < 1:
        raise MatrixError(f"window must be >= 1, got {n}")
    for a in range(1, n + 1):
        rf, rg = f.row(a), g.row(a)
        if rf != rg:
            return f"row {a}: got {rf!r}, expected {rg!r}"
    return None


def from_sparse(ring: BaseRing, triples) -> RowFiniteMap:
    """Build a finite-support matrix from (row, col, element-text) triples."""
    rows: dict[int, dict] = {}
    seen = set()
    for r, c, text in triples:
        if r < 1:
            raise MatrixError(f"row index must be >= 1, got {r}")
        if c < 1:
            raise MatrixError(f"index must be >= 1, got {c}")
        if (r, c) in seen:
            raise MatrixError(f"duplicate coordinate ({r},{c})")
        seen.add((r, c))
        rows.setdefault(r, {})[c] = ring.parse_payload(text)
    return from_rows(ring, rows)


def to_sparse(f: RowFiniteMap, n: int) -> list:
    """Triples (row, col, element-text) for all nonzero cells in rows 1..n.

    A monomial's cells are read off its walk and its coefficient, formatted
    once, with no row built; any other map's from its rows."""
    if f.__class__ is Monomial:
        if f.ring.is_zero(f.coeff):
            return []
        text = f.ring.format_payload(f.coeff)
        cells = ((a, _walk(f.walk, a)) for a in range(1, n + 1))
        return [(a, t, text) for a, t in cells if t is not None]
    out = []
    for a in range(1, n + 1):
        for c, v in sorted(f.row(a).entries.items()):
            out.append((a, c, f.ring.format_payload(v)))
    return out


def load_sparse(text: str):
    """Parse the sparse triple format; returns (ring, RowFiniteMap)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ring "):
        raise MatrixError("missing `ring <spec>` header")
    ring = parse_ring_spec(lines[0][5:])
    triples = []
    for ln in lines[1:]:
        parts = ln.split(None, 2)
        if len(parts) != 3:
            raise MatrixError(f"malformed triple line: {ln!r}")
        triples.append((int(parts[0]), int(parts[1]), parts[2]))
    return ring, from_sparse(ring, triples)
