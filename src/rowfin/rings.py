"""Exact-arithmetic base rings.

Every ring works on canonical payloads: plain ints for the integer-like
rings, nested tuples-of-tuples for square matrix rings.  Payloads are
hashable and canonical, so payload equality is ring equality.
"""

from __future__ import annotations

import json


class RingError(Exception):
    pass


class RingSpecError(RingError):
    pass


# The primes up to 41, and the least number that is a strong pseudoprime
# to all of them as bases (Sorenson and Webster, 2015).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime: trial division by the bases, then Miller-Rabin
    on them, which is exact below PRIME_BOUND.  An n at or above the bound
    with no factor up to 41 raises RingSpecError.
    """
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    if n >= PRIME_BOUND:
        raise RingSpecError(f"cannot certify {n} prime: a prime modulus "
                            f"must be below {PRIME_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_INTERNED: dict[str, BaseRing] = {}


class _Interned(type):
    """Construction returns the one ring object of its spec, and a
    constructor that raises interns nothing."""

    def __call__(cls, *args, **kwargs):
        ring = super().__call__(*args, **kwargs)
        return _INTERNED.setdefault(ring.spec, ring)


def same_ring(ring: BaseRing, other: BaseRing) -> BaseRing:
    """ring, if other is the same object, else RingError: rings are
    interned, so this identity test is the only ring check."""
    if other is not ring:
        raise RingError(f"ring mismatch: {ring.spec} vs {other.spec}")
    return ring


class BaseRing(metaclass=_Interned):
    """Abstract ring operating on canonical payloads.

    Instances are immutable and interned at construction: each spec
    string has exactly one ring object, however it is built, so ring
    equality and hashing are identity.
    """

    spec: str
    zero: object
    one: object

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def canon(self, a):
        raise NotImplementedError

    def size(self):
        """Number of elements, or None when infinite."""
        return None

    def nth_element(self, index: int):
        """Deterministic enumeration; surjective for finite rings, injective otherwise."""
        raise NotImplementedError

    def random_payload(self, rng):
        raise NotImplementedError

    def random_payloads(self, rng, count: int) -> list:
        """The payloads of `count` calls of `random_payload(rng)`, in order."""
        return [self.random_payload(rng) for _ in range(count)]

    def format_payload(self, a) -> str:
        raise NotImplementedError

    def parse_payload(self, text: str):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_central(self, a) -> bool:
        """Whether a commutes with every payload of the ring."""
        raise NotImplementedError

    def __repr__(self):
        return f"<ring {self.spec}>"


class _UniformDraws:
    """Payloads low + r, r uniform in [0, width), drawn from raw bits.

    r is `width.bit_length()` bits from `rng.getrandbits`, drawn again
    while r >= width: CPython's own `randrange` algorithm, so the draws
    and the generator's state match `rng.randrange(low, low + width)`.
    """

    _low: int
    _width: int
    _bits: int

    def random_payload(self, rng):
        return self.random_payloads(rng, 1)[0]

    def random_payloads(self, rng, count: int) -> list:
        low, width, k, bits = self._low, self._width, self._bits, rng.getrandbits
        out = []
        for _ in range(count):
            r = bits(k)
            while r >= width:
                r = bits(k)
            out.append(low + r)
        return out


class IntegerRing(_UniformDraws, BaseRing):
    spec = "Int"
    zero = 0
    one = 1
    # Random payloads: rng.randint(-10**6, 10**6).
    _low = -(10**6)
    _width = 2 * 10**6 + 1
    _bits = _width.bit_length()

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_central(self, a):
        return True  # commutative

    def canon(self, a):
        if not isinstance(a, int):
            raise RingError(f"not an integer payload: {a!r}")
        return a

    def nth_element(self, index):
        # 0, -1, 1, -2, 2, ...
        if index == 0:
            return 0
        half, odd = divmod(index + 1, 2)
        return half if odd else -half

    def format_payload(self, a):
        return str(a)

    def parse_payload(self, text):
        return self.canon(int(text))


class ModularRing(_UniformDraws, BaseRing):
    """Integers mod n for n >= 2; residues canonicalized into [0, n).

    Random payloads are the draws of rng.randrange(n).
    """

    _low = 0

    def __init__(self, n: int):
        if n < 2:
            raise RingSpecError(f"modulus must be >= 2, got {n}")
        self.n = n
        self._width = n
        self._bits = n.bit_length()
        self.spec = f"Zmod:{n}"
        self.zero = 0
        self.one = 1 % n

    def add(self, a, b):
        return (a + b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def is_central(self, a):
        return True  # commutative

    def canon(self, a):
        if not isinstance(a, int):
            raise RingError(f"not an integer payload: {a!r}")
        return a % self.n

    def size(self):
        return self.n

    def nth_element(self, index):
        return index % self.n

    def format_payload(self, a):
        return str(a)

    def parse_payload(self, text):
        return self.canon(int(text))


class PrimeField(ModularRing):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingSpecError(f"{p} is not prime")
        super().__init__(p)
        self.spec = f"GF:{p}"

    def inv(self, a):
        if a % self.n == 0:
            raise RingError("zero has no inverse")
        return pow(a, self.n - 2, self.n)


class MatrixRing(BaseRing):
    """k-by-k square matrices over a base ring; payloads are tuples of tuples.

    Identity operands short-circuit: `add` with zero and `mul` with one
    return the other operand, found by payload equality (payloads are
    canonical), without touching the base ring.
    """

    def __init__(self, base: BaseRing, k: int):
        if k < 1:
            raise RingSpecError(f"matrix size must be >= 1, got {k}")
        self.base = base
        self.k = k
        self.spec = f"Mat:{k}:{base.spec}"
        z, o = base.zero, base.one
        self.zero = tuple(tuple(z for _ in range(k)) for _ in range(k))
        self.one = tuple(tuple(o if i == j else z for j in range(k)) for i in range(k))

    def add(self, a, b):
        if a == self.zero:
            return b
        if b == self.zero:
            return a
        k = self.k
        return tuple(
            tuple(self.base.add(a[i][j], b[i][j]) for j in range(k)) for i in range(k)
        )

    def mul(self, a, b):
        if a == self.one:
            return b
        if b == self.one:
            return a
        k, br = self.k, self.base
        out = []
        for i in range(k):
            row = []
            for j in range(k):
                acc = br.zero
                for t in range(k):
                    acc = br.add(acc, br.mul(a[i][t], b[t][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def neg(self, a):
        return tuple(tuple(self.base.neg(x) for x in row) for row in a)

    def is_central(self, a):
        """The centre of M_k(R) is Z(R)·I: a is z·I with z central in R."""
        z, zero = a[0][0], self.base.zero
        return self.base.is_central(z) and all(
            x == (z if i == j else zero)
            for i, row in enumerate(a) for j, x in enumerate(row))

    def canon(self, a):
        if not isinstance(a, (list, tuple)):
            raise RingError(f"not a matrix payload: {a!r}")
        if len(a) != self.k:
            raise RingError(f"expected {self.k} rows, got {len(a)}")
        out = []
        for row in a:
            if not isinstance(row, (list, tuple)):
                raise RingError(f"not a matrix row: {row!r}")
            if len(row) != self.k:
                raise RingError(f"expected {self.k} columns, got {len(row)}")
            out.append(tuple(self.base.canon(x) for x in row))
        return tuple(out)

    def size(self):
        b = self.base.size()
        return None if b is None else b ** (self.k * self.k)

    def nth_element(self, index):
        b = self.base.size()
        cells = self.k * self.k
        if b is None:
            # Deal the bits of the index round-robin to the cells: a bijection
            # N -> N^cells, so the enumeration is injective.
            digits = [0] * cells
            bit = 0
            while index:
                index, d = divmod(index, 2)
                digits[bit % cells] |= d << (bit // cells)
                bit += 1
        else:
            digits = []
            for _ in range(cells):
                index, d = divmod(index, b)
                digits.append(d)
        it = iter([self.base.nth_element(d) for d in digits])
        return tuple(tuple(next(it) for _ in range(self.k)) for _ in range(self.k))

    def random_payload(self, rng):
        """k*k base-ring draws from rng, in row-major order, in one bulk call."""
        k = self.k
        cells = iter(self.base.random_payloads(rng, k * k))
        return tuple(zip(*[cells] * k))

    def format_payload(self, a):
        return json.dumps(a, separators=(",", ":"))

    def parse_payload(self, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RingError(f"unparsable matrix element: {text!r}") from exc
        return self.canon(data)


def parse_ring_spec(text: str) -> BaseRing:
    """Parse `Int | Zmod:<n> | GF:<p> | Mat:<k>:<inner-spec>` into the
    ring object of the spec, which its constructor interns."""
    text = text.strip()
    if text == "Int":
        ring = IntegerRing()
    elif text.startswith("Zmod:"):
        ring = ModularRing(_parse_int(text[5:], text))
    elif text.startswith("GF:"):
        ring = PrimeField(_parse_int(text[3:], text))
    elif text.startswith("Mat:"):
        head, sep, inner = text[4:].partition(":")
        if not sep:
            raise RingSpecError(f"malformed ring spec: {text!r}")
        ring = MatrixRing(parse_ring_spec(inner), _parse_int(head, text))
    else:
        raise RingSpecError(f"malformed ring spec: {text!r}")
    return ring


def _parse_int(piece: str, full: str) -> int:
    try:
        return int(piece)
    except ValueError as exc:
        raise RingSpecError(f"malformed ring spec: {full!r}") from exc

