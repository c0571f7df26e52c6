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


def test_reports_run_in_reverse_order_match_the_golden_corpus():
    """No report's bytes depend on the reports run before it in one
    process: the per-process caches of table composites and landings,
    and the g-word texts, carry nothing from one report to the next."""
    regen = _regen()
    expected = json.loads((GOLDEN / "reports.json").read_text())
    start = time.perf_counter()
    got = regen.digests(regen.ARGVS[::-1])
    elapsed = time.perf_counter() - start
    assert list(got) == regen.ARGVS[::-1]
    differing = [line for line in regen.ARGVS if got[line] != expected[line]]
    assert not differing, "reports differ from the corpus:\n" + "\n".join(differing)
    assert elapsed < 3, f"the corpus took {elapsed:.2f} s"
