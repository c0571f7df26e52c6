"""Rewrite the golden-report corpus, `reports.json` beside this file.

The corpus maps each argv below, written as one line of space-separated
arguments, to the SHA-256 of its report JSON (`Report.to_json()`, the
`--out` bytes) and its exit status.  `tests/test_golden.py` runs the same argvs and
lists every one whose report differs.  A change that alters report
bytes on purpose reruns this script and names the changed argvs.

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "reports.json"

# The `--in` files, written into the working directory of the run.
FILES = {
    "m.sparse": "ring GF:2\n1 5 1\n",
    "m2.sparse": "ring GF:3\n1 2 1\n2 4 2\n3 1 1\n4 6 1\n5 3 2\n6 8 1\n",
    "row0.sparse": "ring GF:2\n0 5 1\n",
    "bad.sparse": "ring Mat:2:GF:2\n1 2 1\n",
    "gf02.sparse": "ring GF:02\n1 5 1\n",
}

_DETERMINISM = """
two-gen --window 24
classify --preorder le
sandwich --count 3 --window 12
witness --preorder mod:2:(1,2) --count 3
fear --blocks 4
simple-full
oracle --ring Zmod:5 --x1 1:1 --x2 3:2 --r-max 3
fear --blocks 4 --oracle-max 2
fear --ring GF:2 --blocks 5 --oracle-max 5
oracle --ring GF:2 --x1 1:1 --x2 9:1 --r-max 6
witness --preorder le
witness --preorder mod:3:(1,2)
"""

_CONSOLE = """
witness --preorder le --count 2
witness --preorder mod:3:(1,2) --count 2
sandwich --ring Mat:2:GF:2 --count 2 --window 12
sandwich --ring Mat:3:Zmod:6 --count 2 --window 10
two-gen --family random --seed 7
two-gen --ring Mat:2:GF:2 --family random --seed 7 --count 4 --window 24
maltsev --ring Zmod:6 --count 6
maltsev --ring Int --count 40
fear --descriptor paired --blocks 4
fear --ring GF:2 --blocks 6 --oracle-max 6
oracle --mode closure --r-max 3
oracle --ring GF:2 --x1 1:1 --x2 5:1 --r-max 1 --in m.sparse
oracle --ring GF:2 --x1 1:1 --x2 5:1 --r-max 6
oracle --ring GF:3 --x1 1:1 --x2 3:2 --r-max 4 --in m2.sparse
two-gen --ring GF:100000000000000000039 --window 4
maltsev --ring Mat:2:GF:2 --count 16 --window 32
"""

_CORRUPT_AND_MALFORMED = """
oracle --ring GF:2 --x1 1:1 --x2 5:1 --r-max 1 --in row0.sparse
oracle --ring GF:3 --x1 1:1,1:2 --x2 2:2 --r-max 1
classify --preorder ge
simple-full --n 130 --p 2
two-gen --ring GF:618970019642690137449562111 --window 4
witness --preorder mod:3:(1,2) --count 2 --corrupt
sandwich --ring Mat:2:GF:2 --count 2 --window 12 --corrupt
sandwich --ring Mat:3:Zmod:6 --count 2 --window 10 --corrupt
two-gen --family random --seed 7 --corrupt
two-gen --ring Mat:2:GF:2 --family random --seed 7 --count 4 --window 24 --corrupt
maltsev --ring Zmod:6 --count 6 --corrupt
maltsev --ring Mat:2:GF:2 --count 16 --window 32 --corrupt
fear --descriptor paired --blocks 4 --corrupt
oracle --ring Mat:2:Zmod:3 --x1 1:1 --x2 2:1 --r-max 2
oracle --ring Mat:2:GF:2 --x1 1:[[1,0],[0,1]] --x2 2:[[1,0],[0,1]] --r-max 1 --in bad.sparse
oracle --ring GF:3 --x1 1:1 --x2 5:1 --r-max 1 --in m.sparse
oracle --ring GF:2 --x1 1:1 --x2 5:1 --r-max 1 --in gf02.sparse
"""

_FEAR = "\n".join(f"fear --descriptor {d} --blocks 4{c}"
                  for d in ("diagonal", "band1", "band2", "stretch2", "paired")
                  for c in ("", " --corrupt"))

# `fear` at its default 8 blocks, which criterion 07 and the `oracle`
# benchmark workload run; stretch2 does not answer there (ROADMAP
# direction 5).
_FEAR_DEFAULT = "\n".join(f"fear --descriptor {d}{c}"
                          for d in ("diagonal", "band1", "band2", "paired")
                          for c in ("", " --corrupt",
                                    " --oracle-max 2 --ring GF:2"))

_RINGS = """
two-gen --ring Int --window 16
two-gen --ring Mat:2:Mat:2:GF:2 --family random --seed 3 --count 2 --window 12
sandwich --ring Int --count 2 --window 8
sandwich --ring Mat:2:Mat:2:GF:2 --count 1 --window 6
witness --ring Int --preorder le --count 2
oracle --ring Int --x1 1:1 --x2 3:2 --r-max 3
maltsev --ring Mat:2:Int --count 3 --window 8
maltsev --ring Mat:2:Mat:2:GF:2 --count 2 --window 5
maltsev --ring Mat:2:GF:2 --count 2 --window 3 --corrupt
maltsev --ring Zmod:3000 --count 3 --window 4
"""

_FAMILIES = """
two-gen --count 3
two-gen --count 8 --window 12
two-gen --family empty
two-gen --family empty --window 3 --corrupt
"""

_CENSUS = "\n".join(f"simple-full --n {n} --p {p}"
                    for n in (1, 2, 3) for p in (2, 3)) + """
simple-full --n 2 --p 997
simple-full --n 3 --p 11
simple-full --n 4 --p 3
simple-full --n 2 --p 4
"""

# Branches no other argv enters, which `tests/test_reachable.py` needs
# run: the union-finite preorder form, and negation in a matrix ring
# (the oracle's -1 word).
_BRANCHES = """
classify --preorder union-finite:(1,3)
fear --ring Mat:2:Zmod:3 --oracle-max 2
"""


# Each argv once, in first-listed order.
ARGVS = list(dict.fromkeys(
    line for block in (_DETERMINISM, _CONSOLE, _CORRUPT_AND_MALFORMED, _FEAR,
                       _FEAR_DEFAULT, _RINGS, _FAMILIES, _CENSUS, _BRANCHES)
    for line in block.splitlines() if line))


def digests(argvs=None) -> dict:
    """{line: {"sha256": ..., "status": ...}} for each argv line of
    `argvs` (ARGVS if None), in that order, run in one process in a fresh
    directory that holds FILES."""
    from rowfin import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        for name, text in FILES.items():
            Path(name).write_text(text)
        for line in ARGVS if argvs is None else argvs:
            report, _, _ = cli.run(line.split())
            out[line] = {
                "sha256": hashlib.sha256(report.to_json().encode()).hexdigest(),
                "status": 1 if report.failed else 0,
            }
    return out


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def main() -> int:
    CORPUS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {len(ARGVS)} reports to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
