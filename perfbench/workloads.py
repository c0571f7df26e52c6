"""Seeded workload generation and per-report expectations.

A workload is a list of items. Each item is the argv of one `rowfin`
CLI report plus what the benchmark expects of that report beyond its
own PASS verdicts: the exact number of checks, and for oracle queries
and the census an answer the benchmark can confirm independently.

Inputs come only from `random.Random(seed)`, never from `hash()`, so
the same seed gives the same argv lists under every PYTHONHASHSEED.
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("twogen", "sandwich", "oracle", "census")

# Number of preorders on two points (OEIS A000798); the 2x2 census must
# find exactly this many diagonal-containing subrings.
PREORDERS_ON_2 = 4


def _item(argv, checks, **expect):
    return {"argv": [str(a) for a in argv], "checks": checks, **expect}


def twogen(rng, tiny=False):
    """Random families through the two-generator construction."""
    count, window, reports = (3, 24, 3) if tiny else (7, 64, 30)
    rings = ("Zmod:6", "GF:5", "GF:3")
    return [_item(["two-gen", "--family", "random", "--count", count,
                   "--window", window, "--ring", rings[i % 3],
                   "--seed", rng.randrange(2**31)],
                  checks=1 + 5 + count)
            for i in range(reports)]


def sandwich(rng, tiny=False):
    """AXB = Y trials over matrix payloads, interleaved with full-class lifts.

    A lift report costs a few ms and a sandwich report a few hundred, so
    with equal numbers the median item would fall between the two kinds.
    Two sandwich reports per lift keep it inside the sandwich reports.
    """
    count, window, lifts = (2, 8, 2) if tiny else (8, 24, 8)
    preorders = ("le", "mod:3:(1,2)")
    items = []
    for i in range(lifts):
        for _ in range(2):
            items.append(_item(["sandwich", "--ring", "Mat:2:GF:2",
                                "--count", count, "--window", window,
                                "--seed", rng.randrange(2**31)],
                               checks=2 * count))
        items.append(_item(["witness", "--preorder", preorders[i % 2],
                            "--count", 5, "--seed", rng.randrange(2**31)],
                           checks=1 + 5))
    return items


def _vec_text(vec):
    return ",".join(f"{i}:{v}" for i, v in sorted(vec.items()))


def _shift(vec, k):
    return {i + k: v for i, v in vec.items()}


def _oracle_query(rng, ring, modulus, r_max, near=None):
    """One proximity query with a known answer.

    The oracle's only generator is the shift s (e_a -> e_{a+1}), and a
    word of length <= r contains at most r shifts, so any x2 with an
    entry beyond max(supp x1) + r_max is out of reach: those queries run
    the full enumeration and must report not found. `near`, when given,
    is a (kind, k) pair: the target is x1 w for the word w that kind and
    k name, of known length <= r_max, so it must be found no later than
    that length.

    x1 is a single unit multiple: an out-of-reach query then enumerates
    the same words on vectors of the same shape for every seed, so its
    cost depends on the ring and radius only.
    """
    x1 = {rng.randint(1, 5): rng.randrange(1, modulus)}
    if near:
        kind, k = near
        if kind == "shift":        # s^k
            x2 = _shift(x1, k)
        elif kind == "neg":        # (-1 * s^k)
            x2 = {i: (-v) % modulus for i, v in _shift(x1, k).items()}
        else:                      # (1 + s^k)
            x2 = dict(x1)
            for i, v in _shift(x1, k).items():
                x2[i] = (x2.get(i, 0) + v) % modulus
            x2 = {i: v for i, v in x2.items() if v}
        expect = {"found": True, "max_len": k if kind == "shift" else k + 1}
    else:
        far = max(x1) + r_max + 1 + rng.randint(0, 3)
        x2 = {far: rng.randrange(1, modulus)}
        if rng.random() < 0.5:
            x2[rng.randint(1, far - 1)] = rng.randrange(1, modulus)
        expect = {"found": False}
    argv = ["oracle", "--ring", ring, "--x1", _vec_text(x1),
            "--x2", _vec_text(x2), "--r-max", r_max]
    return _item(argv, checks=1, oracle=expect, modulus=modulus, x1=x1, x2=x2)


def oracle(rng, tiny=False):
    """Proximity-oracle enumeration: found and not-found queries, plus fear."""
    queries, r_max, deep = (4, 3, 3) if tiny else (36, 4, 5)
    rings = (("GF:2", 2), ("Zmod:5", 5))
    # A third are found early; the rest run the whole enumeration, so the
    # median item is a full enumeration rather than the boundary between
    # the two kinds. How long a found query searches depends on the word
    # that built its target, so every seed uses the same words in the
    # same slots, and the seed varies only the vectors.
    words = [(kind, k) for kind, top in (("shift", r_max), ("neg", r_max - 1),
                                         ("sum", r_max - 1))
             for k in range(1, top + 1)]
    items = [_oracle_query(rng, *rings[i % 2], r_max,
                           near=words[i // 3 % len(words)] if i % 3 == 0 else None)
             for i in range(queries)]
    # One query a radius deeper than the rest, out of reach by construction.
    # Its candidate list sets the peak memory.
    items.insert(len(items) // 2,
                 _oracle_query(rng, "GF:2", 2, deep, near=False))
    blocks = 3 if tiny else 8
    descriptors = ("diagonal",) if tiny else ("diagonal", "band1", "band2",
                                              "paired")
    for pos, desc in enumerate(descriptors):
        # `fear --oracle-max 2` confirms blocks 1 and 2 with the oracle.
        items.insert(pos * len(items) // len(descriptors),
                     _item(["fear", "--descriptor", desc, "--blocks", blocks,
                            "--oracle-max", 2, "--ring",
                            rng.choice(("GF:2", "GF:3"))],
                           checks=blocks + 2))
    return items


def census(rng, tiny=False):
    """The 2x2 subring census over GF(2) and GF(3), in seeded order."""
    primes = [2] if tiny else [2, 3]
    rng.shuffle(primes)
    return [_item(["simple-full", "--n", 2, "--p", p], checks=1,
                  census=PREORDERS_ON_2)
            for p in primes]


_GENERATORS = {"twogen": twogen, "sandwich": sandwich, "oracle": oracle,
               "census": census}


def generate(name: str, seed: int, tiny: bool = False) -> list:
    """The workload's items for this seed; `tiny` is the self-test size."""
    return _GENERATORS[name](random.Random(seed), tiny)


# ---------------------------------------------------------------------------
# Independent confirmation of report contents


def _parse_word(text):
    """Word text `0 | 1 | -1 | s | (w + w) | (w * w)` to nested tuples."""
    tokens = re.findall(r"-1|[()+*]|\w+", text)
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        left = parse()
        op = tokens[pos]
        pos += 1
        right = parse()
        pos += 1  # ")"
        return (op, left, right)

    tree = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in word {text!r}")
    return tree


def _word_length(tree):
    return 1 if isinstance(tree, str) else (_word_length(tree[1])
                                           + _word_length(tree[2]))


def _act(vec, tree, modulus):
    """x . w for the shift generator s, over integers mod `modulus`."""
    if isinstance(tree, str):
        if tree == "s":
            return _shift(vec, 1)
        c = int(tree)
        return {i: c * v % modulus for i, v in vec.items() if c * v % modulus}
    op, left, right = tree
    if op == "*":
        return _act(_act(vec, left, modulus), right, modulus)
    out = dict(_act(vec, left, modulus))
    for i, v in _act(vec, right, modulus).items():
        out[i] = (out.get(i, 0) + v) % modulus
    return {i: v for i, v in out.items() if v}


def _is_preorder(pairs, n):
    rel = {tuple(p) for p in pairs}
    reflexive = all((i, i) in rel for i in range(1, n + 1))
    transitive = all((a, d) in rel for a, b in rel for c, d in rel if b == c)
    return reflexive and transitive


def confirm(item: dict, doc: dict) -> list:
    """Problems with one report beyond its own verdicts; empty when none.

    Oracle witnesses are replayed with the arithmetic above, not with
    rowfin's own word evaluation, so a defect there cannot confirm itself.
    """
    problems = []
    if len(doc["checks"]) != item["checks"]:
        problems.append(f"{len(doc['checks'])} checks, expected {item['checks']}")
    if "oracle" in item:
        want = item["oracle"]
        wit = doc["witnesses"]
        if wit.get("found") != want["found"]:
            problems.append(f"found={wit.get('found')}, expected {want['found']}")
        elif want["found"]:
            tree = _parse_word(wit["word"])
            if _word_length(tree) > want["max_len"]:
                problems.append(f"witness {wit['word']} longer than "
                                f"{want['max_len']}")
            if _act(item["x1"], tree, item["modulus"]) != item["x2"]:
                problems.append(f"witness {wit['word']} does not map x1 to x2")
    if "census" in item:
        wit = doc["witnesses"]
        if wit.get("count") != item["census"]:
            problems.append(f"census count {wit.get('count')}, "
                            f"expected {item['census']}")
        n = int(item["argv"][item["argv"].index("--n") + 1])
        if not all(_is_preorder(p, n) for p in wit.get("preorders", [])):
            problems.append("census relation that is not a preorder")
    return problems
