"""Index combinatorics over the positive integers.

Houses the pairing bijection with Z x N+ and the layer steps and layers
over it, the mod-7 partition, exact affine index tables, triangular
block indexing, and preorder descriptors with the DSL that builds them.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache


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
    """Inverse of `cantor_pair`, in closed form.

    n = T(s-1) + a on the diagonal s = a + b - 1, with 1 <= a <= s, where
    s = (isqrt(8n - 7) + 1) // 2: 8n - 7 = (2s - 1)^2 + 8(a - 1) lies
    below (2s + 1)^2, so the square root's floor is exactly 2s - 1.
    """
    s = (math.isqrt(8 * n - 7) + 1) // 2
    a = n - (s - 1) * s // 2
    return a, s - a + 1


class ZPairing:
    """Fixed bijection Z x N+ <-> N+ realizing Omega = Z x Gamma, (i,
    gamma) <-> cantor_pair(zfold(i), gamma)."""

    def decode(self, n: int) -> tuple[int, int]:
        if n < 1:
            raise IndexError_(f"index must be >= 1, got {n}")
        a, b = cantor_unpair(n)
        return zunfold(a), b


class LayerStep:
    """A partial index map N+ -> N+ acting on the integer layer i of
    `ZPairing`'s enc(i, gamma), evaluated by the closed forms, no memo:

    * embed(k): gamma -> enc(k, gamma);
    * shift(d): enc(i, gamma) -> enc(i + d, gamma);
    * project(k): enc(k, gamma) -> gamma, undefined off layer k;
    * keep(k): the identity on layer k, undefined off it.

    `then` composes two steps exactly where a rule applies.
    """

    __slots__ = ("kind", "k")

    KINDS = ("embed", "shift", "project", "keep")

    def __init__(self, kind: str, k: int):
        if kind not in self.KINDS:
            raise IndexError_(f"unknown layer step {kind!r}")
        self.kind = kind
        self.k = k

    def __call__(self, t: int):
        kind = self.kind
        if kind == "embed":
            return cantor_pair(zfold(self.k), t)
        s = (math.isqrt(8 * t - 7) + 1) // 2    # `cantor_unpair`, inline
        a = t - (s - 1) * s // 2
        if kind == "shift":
            a2 = zfold(zunfold(a) + self.k)
            s2 = s + a2 - a
            return (s2 - 1) * s2 // 2 + a2
        if a != zfold(self.k):
            return None
        return s - a + 1 if kind == "project" else t

    def then(self, other: "LayerStep"):
        """The steps of self followed by other, or None to keep both:

        embed(k) shift(d) = embed(k + d), shift(d) shift(e) = shift(d + e)
        (none at all for d + e = 0), shift(d) project(k) = project(k - d),
        embed(k) project(k) is the identity (no step) and project(k)
        embed(k) = keep(k).
        """
        a, b = self.kind, other.kind
        if b == "shift":
            if a == "embed":
                return (LayerStep("embed", self.k + other.k),)
            if a == "shift":
                d = self.k + other.k
                return (LayerStep("shift", d),) if d else ()
        elif b == "project":
            if a == "shift":
                return (LayerStep("project", other.k - self.k),)
            if a == "embed" and self.k == other.k:
                return ()
        elif b == "embed" and a == "project" and self.k == other.k:
            return (LayerStep("keep", self.k),)
        return None


class LayerPartition:
    """N+ split into the layers of the pairing: alpha's class is its
    layer i, where `ZPairing.decode(alpha)` is (i, gamma).  A `Piecewise`
    map over it reduces products by `landing` (`matrices.compose`).
    """

    pairing = ZPairing()

    def class_of(self, alpha: int) -> int:
        return self.pairing.decode(alpha)[0]

    def landing(self, step):
        """k for the step embed(k), whose every image is on layer k;
        None for any other step."""
        if step.__class__ is LayerStep and step.kind == "embed":
            return step.k
        return None


# ---------------------------------------------------------------------------
# The mod-7 partition


class SevenPartition:
    """N+ split into seven infinite pieces by residue mod 7 (7 plays 0).

    `class_of(k)` depends only on k mod `period`, so `landing` can name
    the class of every image of a table step; a `Piecewise` map over it
    reduces products by that (`matrices.compose`).
    """

    period = 7

    def class_of(self, k: int) -> int:
        return (k - 1) % 7 + 1

    def landing(self, step):
        """The one class of every image of the walk step, or None; only
        a table is decided (`_table_landing`).  The answer is kept per
        process in a cache of fixed size, keyed by this partition's class
        and the table: `period` and `class_of` belong to the class, and a
        class that borrows this method brings its own."""
        if step.__class__ is not AffineTable:
            return None
        return _table_landing(self.__class__, step)


@lru_cache(maxsize=256)
def _table_landing(partition: type, step: AffineTable):
    """The one class under `partition()` of every image of the table, or
    None.  On its class r mod M, t = M s + r goes to k s + c with k =
    num M / den, whose class mod p = `period` repeats in s with period
    p / gcd(k, p): one row of each is classified."""
    class_of, m, p = partition().class_of, step.modulus, partition.period
    landed = set()
    for r, entry in enumerate(step.entries):
        if entry is not None:
            num, den, _ = entry
            least = r or m
            for s in range(p // math.gcd(num * m // den, p)):
                landed.add(class_of(step(least + m * s)))
    return landed.pop() if len(landed) == 1 else None


# ---------------------------------------------------------------------------
# Exact affine index tables


class AffineTable:
    """A partial index map N+ -> N+ that is affine on each residue class.

    `entries[r]` is None, where the map is undefined on t = r mod
    `modulus`, or integers (num, den, off) with t -> (num t + off) // den.
    The constructor checks that every entry is exact on its class: den
    divides num t + off for every t in it, and the image of its least
    member (so of every member, num being >= 0) is at least 1.
    """

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: int, entries):
        entries = tuple(entries)
        if modulus < 1 or len(entries) != modulus:
            raise IndexError_(f"a table of modulus {modulus} needs that many "
                              f"entries, got {len(entries)}")
        for r, entry in enumerate(entries):
            if entry is None:
                continue
            num, den, off = entry
            least = r or modulus
            if not (num >= 0 and den >= 1 and (num * modulus) % den == 0
                    and (num * least + off) % den == 0
                    and num * least + off >= den):
                raise IndexError_(f"entry {entry} is not an exact index map "
                                  f"on the residue {r} mod {modulus}")
        self.modulus = modulus
        self.entries = entries

    def __call__(self, t: int):
        entry = self.entries[t % self.modulus]
        if entry is None:
            return None
        num, den, off = entry
        return (num * t + off) // den

    def then(self, other: "AffineTable") -> "AffineTable":
        """The table of self followed by other, exact on every residue.

        On the class t = m s + r of self's modulus m, the entry (num,
        den, off) sends t to k s + c with k = num m / den, so other's
        residue mod M repeats in s with period M / gcd(k, M).  The
        composite has modulus m times the lcm of those periods, and its
        classes that share one affine map merge, down to the least
        modulus (`_least_table`).
        """
        m, big = self.modulus, other.modulus
        period = 1
        for entry in self.entries:
            if entry is not None:
                num, den, _ = entry
                period = math.lcm(period, big // math.gcd(num * m // den, big))
        first, second = self.entries, other.entries
        entries = []
        for t in range(m * period):
            entry = first[t % m]
            if entry is not None:
                num, den, off = entry
                # Exact: den divides num t + off on all of t's class mod m.
                image = second[(num * t + off) // den % big]
                if image is None:
                    entry = None
                else:
                    a, b, c = image
                    num, den, off = a * num, b * den, a * off + c * den
                    g = math.gcd(num, den, off)
                    entry = (num // g, den // g, off // g)
            entries.append(entry)
        return _least_table(entries)


def _least_table(entries: list) -> AffineTable:
    """The table of the least modulus d whose residues give `entries`:
    entries[t] equals entries[t % d] for every t.  An entry in lowest
    terms names its affine map uniquely, so equal maps merge."""
    n = len(entries)
    for d in range(1, n + 1):
        if n % d == 0 and all(entries[t] == entries[t - d] for t in range(d, n)):
            return AffineTable(d, entries[:d])


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
    """Invert block indexing: r = T(i-1)+k with 1 <= k <= i.

    Closed form: i = (isqrt(8r - 7) + 1) // 2 and k = r - i(i - 1)/2,
    exact for the reason given in `cantor_unpair`.
    """
    i = (math.isqrt(8 * r - 7) + 1) // 2
    return i, r - i * (i - 1) // 2


# ---------------------------------------------------------------------------
# Preorder descriptors


class PreorderDescriptor:
    """A preorder on N+ in normal form: a periodic table with finite exceptions.

    Row k has class (k - 1) % period + 1.  For a, b <= K, a ~ b iff a == b
    or (a, b) is in `finite`; otherwise a ~ b iff (class a, class b,
    sign(b - a)) is in `table`.  `name` is the DSL text, for messages.
    The form is all a preorder carries: its classification and its
    full-class sandwich witness are both read off `table`.

    The constructor rejects a relation that is not reflexive and
    transitive.  Rows above K take every class on either side of any row,
    so with out(c, s) = {d : (c, d, s) in table} it is a preorder iff
    - every (c, c, 0) is in the table;
    - for (c, d, s) in the table with s != 0, out(d, s) lies in out(c, s)
      and out(d, -s) in out(c, s) & out(c, -s);
    - for (a, b) in `finite`, a reaches the rows up to K and the classes
      above K that b reaches, and each class reaching a from above reaches b;
    - rows a != x up to K with a ~ b ~ x for a b above K relate in `finite`.
    Each split of a ~ b ~ x about K is covered; only the last scans rows <= K.
    """

    __slots__ = ("name", "period", "table", "K", "finite")

    def __init__(self, name: str, period: int, table: frozenset, K: int = 0,
                 finite: frozenset = frozenset()):
        self.name = name
        self.period = period
        self.table = table      # (class a, class b, sign(b - a)) that relate
        self.K = K
        self.finite = finite    # the related a != b inside 1..K
        m = period
        if m < 1 or K < 0:
            raise PreorderSpecError(f"period {m} must be >= 1 and K {K} >= 0")
        for c, d, s in self.table:
            if not (1 <= c <= m and 1 <= d <= m and s in (-1, 0, 1)
                    and (s or c == d)):
                raise PreorderSpecError(
                    f"table triple ({c},{d},{s}) needs classes in 1..{m} and "
                    "a sign in -1..1, which is 0 only for equal classes")
        for a, b in self.finite:
            if not (1 <= a <= K and 1 <= b <= K and a != b):
                raise PreorderSpecError(
                    f"finite pair ({a},{b}) is not off-diagonal in 1..{K}")
        _check_preorder(self)

    def rel(self, a: int, b: int) -> bool:
        if a <= self.K and b <= self.K:
            return a == b or (a, b) in self.finite
        m = self.period
        return ((a - 1) % m + 1, (b - 1) % m + 1, (b > a) - (b < a)) in self.table


def _check_preorder(rho: PreorderDescriptor) -> None:
    """Raise unless rho is a preorder, naming a failure on rows 1..K+3m."""
    def above(r: int, c: int) -> int:   # the first row of class c above r
        return r + 1 + (c - 1 - r) % m

    def fail(a: int, b: int, x: int):
        raise PreorderSpecError(f"{rho.name}: not transitive: "
                                f"{a} ~ {b} ~ {x} but not {a} ~ {x}")

    m, K, table, none = rho.period, rho.K, rho.table, frozenset()
    out, into, up = {}, {}, {}  # into(d, s) = {c : (c, d, s) in table}
    for c, d, s in table:
        out.setdefault((c, s), set()).add(d)
        into.setdefault((d, s), set()).add(c)
    bad = [above(K, c) for c in range(1, m + 1) if (c, c, 0) not in table]
    if bad:
        raise PreorderSpecError(f"{rho.name}: not reflexive at {min(bad)}")
    for c in range(1, m + 1):
        for s in (1, -1):
            for d in out.get((c, s), ()):
                # b - a, x - b, x - a have signs s, s2, t; `at` orders a, b, x.
                for s2, t in ((s, s), (-s, s), (-s, -s)):
                    got, want = out.get((d, s2), none), out.get((c, t), none)
                    if not got <= want:
                        at = (0, 2 * s, t * (3 if s2 == s else 1))
                        rows, r = {}, K
                        for p, e in sorted(zip(at, (c, d, min(got - want)))):
                            r = rows[p] = above(r, e)
                        fail(*map(rows.get, at))
    for a, b in rho.finite:
        up.setdefault(a, {a}).add(b)
    for a, b in rho.finite:
        ca, cb = (a - 1) % m + 1, (b - 1) % m + 1
        if not up.get(b, none) <= up[a]:
            fail(a, b, min(up[b] - up[a]))
        got, want = out.get((cb, 1), none), out.get((ca, 1), none)
        if not got <= want:
            fail(a, b, above(K, min(got - want)))
        got, want = into.get((ca, -1), none), into.get((cb, -1), none)
        if not got <= want:
            fail(above(K, min(got - want)), a, b)
    for c in range(1, min(K, m) + 1):   # a ~ b ~ x with a, x <= K < b
        for d in out.get((c, 1), ()):
            for e in out.get((d, -1), ()):
                for a in range(c, K + 1, m):
                    for x in range(e, K + 1, m):
                        if x != a and (a, x) not in rho.finite:
                            fail(a, above(K, d), x)


def _closure(pairs) -> set:
    """The transitive closure of a finite set of pairs."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for a in succ:
        seen, stack = set(), [a]
        while stack:
            for y in succ.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        closed.update((a, y) for y in seen)
    return closed


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


# The one-class families: the signs of b - a that relate.
_ONE_CLASS = {"diag": (0,), "ge": (-1, 0), "le": (0, 1), "full": (-1, 0, 1)}


def parse_preorder(text: str) -> PreorderDescriptor:
    """Compile the preorder DSL to its normal form.

    Grammar: `diag | le | ge | full | mod:<m>:<pairs> | union-finite:<pairs>`
    where <pairs> is a comma list like `(1,2),(2,3)`.
    """
    text = text.strip()
    if text in _ONE_CLASS:
        return PreorderDescriptor(
            text, 1, frozenset((1, 1, s) for s in _ONE_CLASS[text]))
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
        K = max((x for p in pairs for x in p), default=0)
        finite = frozenset((a, b) for a, b in _closure(pairs) if a != b)
        return PreorderDescriptor(text, 1, frozenset({(1, 1, 0)}), K, finite)
    raise PreorderSpecError(f"unknown preorder spec: {text!r}")


def _mod_preorder(name: str, m: int, pairs) -> PreorderDescriptor:
    for a, b in pairs:
        if not (1 <= a <= m and 1 <= b <= m):
            raise PreorderSpecError(f"class pair ({a},{b}) outside 1..{m}")
    reach = _closure(pairs) | {(c, c) for c in range(1, m + 1)}
    table = {(c, d, s) for c, d in reach for s in (-1, 1)}
    table |= {(c, c, 0) for c in range(1, m + 1)}
    return PreorderDescriptor(name, m, frozenset(table))
