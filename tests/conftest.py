import re

import pytest

from rowfin import matrices as mx

_ONE_CLASS = {
    "diag": lambda a, b: a == b,
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
    "full": lambda a, b: True,
}


def brute_force_relation(spec: str, n: int) -> set:
    """The related pairs of a preorder DSL spec inside 1..n, by brute force.

    The one-class families are their defining comparisons.  `mod` and
    `union-finite` are the reflexive-transitive closure, by Warshall's
    algorithm on 1..n, of their generating pairs: for `mod:m`, every pair
    of rows whose classes are equal or a listed class pair.
    """
    rows = range(1, n + 1)
    if spec in _ONE_CLASS:
        return {(a, b) for a in rows for b in rows if _ONE_CLASS[spec](a, b)}
    pairs = {(int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", spec)}
    if spec.startswith("mod:"):
        m = int(spec.split(":")[1])
        pairs = {(a, b) for a in rows for b in rows
                 if (a - b) % m == 0 or ((a - 1) % m + 1, (b - 1) % m + 1) in pairs}
    reach = {a: {a} | {b for x, b in pairs if x == a} for a in rows}
    for t in rows:
        for a in rows:
            if t in reach[a]:
                reach[a] |= reach[t]
    return {(a, b) for a in rows for b in reach[a]}


@pytest.fixture
def reference_relation():
    return brute_force_relation


def dump_sparse(f, n: int) -> str:
    """Rows 1..n of f in the `--in` file format that `load_sparse` reads."""
    lines = [f"ring {f.ring.spec}"]
    lines += [f"{r} {c} {t}" for r, c, t in mx.to_sparse(f, n)]
    return "\n".join(lines) + "\n"


@pytest.fixture
def sparse_text():
    return dump_sparse
