"""Byte identity against the committed golden-report corpus.

`tests/golden/reports.json` holds the SHA-256 and exit status of each
argv in `tests/golden/regen.py`; a change that alters a report on
purpose regenerates the corpus and names the argvs it changed.
"""

import importlib.util
import json
import time
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen",
                                                  GOLDEN / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_match_the_golden_corpus():
    regen = _regen()
    expected = json.loads((GOLDEN / "reports.json").read_text())
    assert list(expected) == regen.ARGVS
    start = time.perf_counter()
    got = regen.digests()
    elapsed = time.perf_counter() - start
    differing = [line for line in regen.ARGVS if got[line] != expected[line]]
    assert not differing, "reports differ from the corpus:\n" + "\n".join(differing)
    assert elapsed < 2, f"the corpus took {elapsed:.2f} s"
