"""Finitely supported vectors and row-finite matrices of four kinds.

Vectors model elements of the direct sum; matrices act on the right and
memoize computed rows.  A map is one of

* general (`RowFiniteMap`): an arbitrary row function;
* `Monomial`: row a is coeff * e_{index(a)}, or zero where the partial
  index function is undefined;
* `Piecewise`: row a is row reindex_c(a) of the map m_c of a's class
  c = classify(a), or zero where the class has no piece;
* `Chain`: a flat product of factors, evaluated by a loop over flat
  steps built once: a monomial factor becomes its primitive index parts
  and its scale, which the loop walks itself, and a piecewise factor
  becomes its classifier and one such step per piece.  A chain row
  carries a single term as (index, coefficient) across the steps and
  builds a vector only when it has several terms.

Zero entries are pruned at every arithmetic step so supports are exact.
"""

from __future__ import annotations

from functools import partial

from .rings import BaseRing, RingError


class MatrixError(Exception):
    pass


class _RowEvalCounter:
    """Counts evaluations of primitive rows and index functions; test hook."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


row_evals = _RowEvalCounter()


def _same_ring(ring: BaseRing, other: BaseRing) -> BaseRing:
    """ring, if other is the same ring: identity first (rings are interned), then spec."""
    if other is not ring and other != ring:
        raise RingError(f"ring mismatch: {ring.spec} vs {other.spec}")
    return ring


def _common_ring(x, y) -> BaseRing:
    """The ring shared by x and y."""
    return _same_ring(x.ring, y.ring)


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

    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "FinVec") -> "FinVec":
        ring = self.ring
        if other.ring is not ring:
            _common_ring(self, other)
        add, is_zero, zero = ring.add, ring.is_zero, ring.zero
        out = dict(self.entries)
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
            _common_ring(self, f)
        if isinstance(f, Monomial):
            return f.remap(self)
        return push(self, f.row)

    def __eq__(self, other):
        # Entries first, so rings are compared only for equal entries.  No
        # identity shortcut on the rings: perfbench's self-test needs the
        # ring comparisons counted on the sandwich and oracle workloads.
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

    A term whose row is zero is skipped before it is scaled, and the first
    nonzero term starts the sum.  Every other term is scaled with
    `scale_left`, even by one, and added with `FinVec.add`.
    """
    if len(vec.entries) == 1:
        [(idx, val)] = vec.entries.items()
        out = row(idx)
        return out if val == vec.ring.one or not out.entries else out.scale_left(val)
    acc = None
    for idx, val in vec.entries.items():
        out = row(idx)
        if out.entries:
            term = out.scale_left(val)
            acc = term if acc is None else acc.add(term)
    if acc is None:  # vec is zero, or every row it meets is
        return vec if not vec.entries else FinVec._of(vec.ring, {})
    return acc


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
                _common_ring(self, cached)
            self._memo[alpha] = cached
        return cached

    def row_support(self, alpha: int) -> frozenset:
        return self.row(alpha).support()


def _memoized_index(fn, parts: tuple):
    """Partial index function a -> int | None, computed once per a.

    A primitive one calls `fn`; a composite one (fn None) applies the flat
    tuple `parts` of primitives in turn, reading each part's memo (its
    `memo` attribute) before calling it, and no parts is the identity.
    """
    memo = {}
    steps = tuple((part.memo, part) for part in parts)

    def index(alpha):
        t = memo.get(alpha, 0)  # 0 is never an index: not computed yet
        if t == 0:
            if fn is not None:
                row_evals.count += 1
                t = fn(alpha)
                if t is not None and t < 1:
                    raise MatrixError(f"index must be >= 1, got {t}")
            else:
                t = alpha
                for part_memo, part in steps:
                    t = part_memo.get(t) or part(t)
                    if t is None:
                        break
            memo[alpha] = t
        return t

    index.memo = memo
    return index


# The kinds bind these module functions with `partial` rather than pass a
# bound method: a map whose row function refers to the map is a reference
# cycle, freed only by the cyclic GC, and short-lived maps then pile up.
def _monomial_row(ring: BaseRing, index, coeff, alpha: int) -> FinVec:
    t = index(alpha)
    return FinVec._of(ring, {} if t is None or ring.is_zero(coeff) else {t: coeff})


class Monomial(RowFiniteMap):
    """Row a is coeff * e_{index(a)}, or zero where the index is None.

    The index is a primitive partial function `fn`, or the flat tuple
    `parts` of primitive ones that a product of monomials applies in turn.
    """

    __slots__ = ("index", "parts", "coeff", "_scale")

    def __init__(self, ring: BaseRing, fn=None, coeff=None, parts: tuple = ()):
        index = _memoized_index(fn, parts)
        coeff = ring.one if coeff is None else ring.canon(coeff)
        super().__init__(ring, partial(_monomial_row, ring, index, coeff),
                         primitive=False)
        self.index = index
        self.parts = (index,) if fn is not None else parts
        self.coeff = coeff
        self._scale = None if coeff == ring.one else coeff

    def remap(self, vec: FinVec) -> FinVec:
        """vec . self: move each entry to its target, scaled on the right."""
        ring, index, scale = self.ring, self.index, self._scale
        out = {}
        for idx, val in vec.entries.items():
            t = index(idx)
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
        """The product self g: indices chain, coefficients multiply."""
        return Monomial(self.ring, coeff=self.ring.mul(self.coeff, g.coeff),
                        parts=self.parts + g.parts)


def _piecewise_row(classify, pieces: dict, zero: FinVec, alpha: int) -> FinVec:
    piece = pieces[classify(alpha)]
    if piece is None:
        return zero
    reindex, m = piece
    return m.row(reindex(alpha))


def _walk(f: RowFiniteMap) -> tuple:
    """(f, parts, scale): a monomial's (memo, part) pairs, or None for a map read by row."""
    if isinstance(f, Monomial):
        return f, tuple((part.memo, part) for part in f.parts), f._scale
    return f, None, None


class Piecewise(RowFiniteMap):
    """Row a is row reindex_c(a) of m_c, where c = classify(a).

    `pieces` maps every class that `classify` returns to (reindex_c,
    m_c), or to None for a class whose rows are zero.  `cases` is the
    flat form a chain walks: the classifier and, per class, None or
    (reindex_c, m_c, parts, scale) with m_c's walk from `_walk`.
    """

    __slots__ = ("classify", "pieces", "cases")

    def __init__(self, ring: BaseRing, classify, pieces: dict):
        for piece in pieces.values():
            if piece is not None:
                _same_ring(ring, piece[1].ring)
        pieces = dict(pieces)
        super().__init__(ring, partial(_piecewise_row, classify, pieces,
                                       FinVec._of(ring, {})), primitive=False)
        self.classify = classify
        self.pieces = pieces
        self.cases = (classify, {c: None if piece is None
                                 else (piece[0],) + _walk(piece[1])
                                 for c, piece in pieces.items()})


def _chain_row(ring: BaseRing, steps: tuple, alpha: int) -> FinVec:
    """Row alpha of the product: e_alpha pushed through the steps in turn.

    A step is (factor, cases, parts, scale).  While the running vector is
    one term c * e_t it travels as the pair (t, c): a piecewise step sends
    t through its classifier and the piece's reindex, and then acts as the
    piece's step; a monomial step sends t through its primitive parts
    (memo first) and c to c * scale; a general step gives c * row t.  A
    FinVec is carried only while it has several terms, and then each step
    applies its whole factor.
    """
    one, mul, is_zero = ring.one, ring.mul, ring.is_zero
    t, c, vec = alpha, one, None
    for f, cases, parts, scale in steps:
        if vec is not None:
            vec = vec.apply(f)
        else:
            if cases is not None:
                classify, table = cases
                piece = table[classify(t)]
                if piece is None:
                    return FinVec._of(ring, {})
                reindex, f, parts, scale = piece
                t = reindex(t)
            if parts is not None:
                for memo, part in parts:
                    t = memo.get(t) or part(t)  # a memo hit skips the call
                    if t is None:
                        return FinVec._of(ring, {})
                if scale is not None:
                    c = mul(c, scale)
                    if is_zero(c):
                        return FinVec._of(ring, {})
                continue
            vec = f._memo.get(t) or f.row(t)
            if c != one:
                vec = vec.scale_left(c)
        entries = vec.entries
        if len(entries) == 1:
            [(t, c)] = entries.items()
            vec = None
        elif not entries:
            return vec
    return FinVec._of(ring, {t: c}) if vec is None else vec


def _chain_step(f: RowFiniteMap) -> tuple:
    """(f, cases, parts, scale): a piecewise f's cases, then its walk from `_walk`."""
    f, parts, scale = _walk(f)
    return f, f.cases if isinstance(f, Piecewise) else None, parts, scale


class Chain(RowFiniteMap):
    """The product factors[0] factors[1] ... of two or more factors.

    Row a is e_a pushed through the factors' flat steps in a loop; only
    the chain's own rows are memoized.  A single-term row walks a
    monomial's primitive parts, so it neither reads nor fills a composite
    monomial's index memo, and walks a piecewise factor's pieces, so it
    neither reads nor fills that factor's row memo.  Every factor's ring
    is checked once, here.
    """

    __slots__ = ("factors", "steps")

    def __init__(self, ring: BaseRing, factors: tuple, steps: tuple = None):
        # `compose` passes the steps of factors whose rings it has checked.
        if steps is None:
            for f in factors:
                _same_ring(ring, f.ring)
            steps = tuple(_chain_step(f) for f in factors)
        super().__init__(ring, partial(_chain_row, ring, steps), primitive=False)
        self.factors = factors
        self.steps = steps


# ---------------------------------------------------------------------------
# Constructors


def scalar_map(ring: BaseRing, payload) -> Monomial:
    """Diagonal map with a constant entry."""
    return Monomial(ring, coeff=payload)


def zero_map(ring: BaseRing) -> Monomial:
    return scalar_map(ring, ring.zero)


def identity_map(ring: BaseRing) -> Monomial:
    return scalar_map(ring, ring.one)


def matrix_unit(ring: BaseRing, i: int, j: int) -> Monomial:
    return Monomial(ring, {i: j}.get)


def projection(ring: BaseRing, member) -> Monomial:
    """Projection onto the coordinates where the predicate `member` holds."""
    return Monomial(ring, lambda a: a if member(a) else None)


def from_index_map(ring: BaseRing, fn) -> Monomial:
    """Map sending e_a to e_{fn(a)}; fn returning None gives a zero row."""
    return Monomial(ring, fn)


def from_rows(ring: BaseRing, rows: dict) -> RowFiniteMap:
    """Finite-support matrix from an explicit {row: {col: payload}} dict."""
    fixed = {idx: FinVec(ring, row) for idx, row in rows.items()}
    zero = FinVec.zero(ring)
    return RowFiniteMap(ring, lambda a: fixed.get(a, zero))


# ---------------------------------------------------------------------------
# Ring structure


def add_maps(f: RowFiniteMap, g: RowFiniteMap) -> RowFiniteMap:
    return RowFiniteMap(_common_ring(f, g), lambda a: f.row(a).add(g.row(a)),
                        primitive=False)


def _factors(f: RowFiniteMap) -> tuple:
    return f.factors if isinstance(f, Chain) else (f,)


def _steps(f: RowFiniteMap) -> tuple:
    return f.steps if isinstance(f, Chain) else (_chain_step(f),)


def compose(f: RowFiniteMap, g: RowFiniteMap) -> RowFiniteMap:
    """Right-action composition: row_a(fg) = row_a(f) . g.

    Products flatten into one Chain, and monomials meeting at the seam
    compose into one monomial; two monomials give a monomial.
    """
    ring = _common_ring(f, g)
    left, right = _factors(f), _factors(g)
    lsteps, rsteps = _steps(f), _steps(g)
    if isinstance(left[-1], Monomial) and isinstance(right[0], Monomial):
        seam = left[-1].then(right[0])
        left, lsteps = left[:-1] + (seam,), lsteps[:-1] + (_chain_step(seam),)
        right, rsteps = right[1:], rsteps[1:]
    factors = left + right
    if len(factors) == 1:
        return factors[0]
    # Every factor of f and of g is in the ring of f and g, checked above.
    return Chain(ring, factors, lsteps + rsteps)


# ---------------------------------------------------------------------------
# Window verification and serialization


def first_mismatch(f: RowFiniteMap, g: RowFiniteMap, n: int) -> str | None:
    """None if the computed map f and the expected map g agree on rows 1..n.

    Otherwise the first differing row a, as `row a: got <f's row>,
    expected <g's row>`; rows are compared in full.
    """
    _common_ring(f, g)
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
    """Triples (row, col, element-text) for all nonzero cells in rows 1..n."""
    out = []
    for a in range(1, n + 1):
        for c, v in sorted(f.row(a).entries.items()):
            out.append((a, c, f.ring.format_payload(v)))
    return out


def load_sparse(text: str):
    """Parse the sparse triple format; returns (ring, RowFiniteMap)."""
    from .rings import parse_ring_spec

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
