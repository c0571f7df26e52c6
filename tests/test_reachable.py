"""Every function in `src/rowfin` runs on some CLI path.

A subprocess installs a `sys.settrace` hook before `import rowfin.cli`,
so import-time code counts, then runs every argv of `tests/golden/regen.py`
and one `cli.main` call with its stdout captured.  Each `def` in
`src/rowfin/*.py` that no traced frame entered must be on `ALLOWED`,
with the reason it stays; an entry that is entered, or names no `def`,
fails too.

A `def` is matched to its code object by file, first line (its first
decorator's, where it has one) and name.  Lambdas and comprehensions
belong to the `def` that holds them and are not matched on their own,
so Python 3.12's inlined comprehensions change nothing.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rowfin"

# (file, qualified name) -> why the function stays although nothing
# traced enters it.
ALLOWED = {
    # Each ring class overrides the abstract methods; `__repr__` names a
    # ring in test failure output.
    **{("rings.py", f"BaseRing.{name}"): "interface"
       for name in ("add", "mul", "neg", "canon", "nth_element",
                    "random_payload", "format_payload", "parse_payload",
                    "is_central", "__repr__")},
    # Failure paths of the preorder check: the DSL closes its pairs, so
    # no spec it parses fails the check.
    ("indexing.py", "_check_preorder.above"): "self-check",
    ("indexing.py", "_check_preorder.fail"): "self-check",
    # The lower embedding of a fearing subring, which acceptance
    # criterion 10 checks and no report uses yet (ROADMAP direction 7).
    **{(file, name): "criterion 10 / direction 7"
       for file, name in (("fearing.py", "FearingDescriptor.sample"),
                          ("triangular.py", "_TargetSequence.__init__"),
                          ("triangular.py", "_TargetSequence.get"),
                          ("triangular.py", "_TargetSequence.invert"),
                          ("triangular.py", "fear_lower_embed"),
                          ("triangular.py", "fear_lower_embed.supp_fn"))},
}

# The global trace hook sees each new frame once and returns None, so no
# line in it is traced; `sys.setprofile` sees every call of a C function
# as well, and took 6.1 s against 3.7 s on Python 3.10.  Code objects are
# keyed by id: hashing one rehashes its bytecode and constants.
_TRACE = """
import contextlib, importlib.util, io, json, sys

codes = {}

def trace(frame, event, arg):
    codes[id(frame.f_code)] = frame.f_code

sys.settrace(trace)
import rowfin.cli
spec = importlib.util.spec_from_file_location("golden_regen", sys.argv[1])
regen = importlib.util.module_from_spec(spec)
spec.loader.exec_module(regen)
regen.digests()
with contextlib.redirect_stdout(io.StringIO()):
    rowfin.cli.main(["classify", "--preorder", "le"])
sys.settrace(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno, c.co_name)
                         for c in codes.values()})))
"""


def entered() -> set:
    """(file name, first line, name) of every rowfin code object entered."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _TRACE, str(ROOT / "tests" / "golden" / "regen.py")],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return {(Path(path).name, line, name) for path, line, name in json.loads(out)
            if Path(path).resolve().parent == SRC}


def defs() -> dict:
    """(file name, qualified name) -> (first line, name) of every `def`."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        _collect(ast.parse(path.read_text()), "", path.name, out)
    return out


def _collect(node, prefix: str, file: str, out: dict):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[file, prefix + child.name] = (first, child.name)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _collect(child, prefix + child.name + ".", file, out)
        else:
            _collect(child, prefix, file, out)


def test_every_function_is_entered_or_allowed():
    reached = entered()
    found = defs()
    unreached = sorted((file, line, qualname)
                       for (file, qualname), (line, name) in found.items()
                       if (file, line, name) not in reached
                       and (file, qualname) not in ALLOWED)
    stale = sorted(f"{file} {qualname}" for file, qualname in ALLOWED
                   if (file, qualname) not in found
                   or (file, *found[file, qualname]) in reached)
    problems = []
    if unreached:
        problems += ["no CLI path enters these; delete each or give it an "
                     "ALLOWED reason:"]
        problems += [f"{file}:{line} {qualname}" for file, line, qualname in unreached]
    if stale:
        problems += ["these ALLOWED entries are entered or name no def:"] + stale
    assert not problems, "\n".join(problems)
