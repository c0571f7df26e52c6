#!/usr/bin/env python3
"""Benchmark self-test at a tiny size; run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs `run.py --tiny` untraced and traced, each
under PYTHONHASHSEED=1 and =99, and fails if

* any run is not correct,
* the report digests differ between any two of those four runs,
* the traced per-layer counts differ between the two hash seeds, or
* a per-layer count or span named in EXERCISED reads zero on a workload
  that exercises it (a wrapper installed on the wrong module binding
  reads zero, for example), or
* the metrics printed differ from those BENCHMARK.json names
  (`end_to_end` untraced, `per_layer` traced).

It also checks that run.py fails, without printing a result, in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Per-layer metric -> workloads on which it must be nonzero. `census`
# never canonicalises payloads, compares rings or builds maps, so only
# its ring arithmetic and census counters are required there.
EXERCISED = {
    "rings.mul_calls": ("twogen", "sandwich", "oracle", "census"),
    "rings.add_calls": ("twogen", "sandwich", "oracle", "census"),
    "rings.canon_calls": ("twogen", "sandwich", "oracle"),
    "rings.eq_calls": ("twogen", "sandwich", "oracle"),
    "rings.parse_calls": ("twogen", "sandwich", "oracle"),
    "matrices.row_calls": ("twogen", "sandwich", "oracle"),
    "matrices.rowfn_calls": ("twogen", "sandwich", "oracle"),
    "matrices.apply_calls": ("twogen", "sandwich", "oracle"),
    "matrices.vec_add_calls": ("twogen", "sandwich", "oracle"),
    "matrices.vec_init_calls": ("twogen", "sandwich", "oracle"),
    "matrices.maps_built": ("twogen", "sandwich", "oracle"),
    "matrices.compose_calls": ("twogen", "sandwich", "oracle"),
    "matrices.add_maps_calls": ("oracle",),
    "matrices.primitive_row_evals": ("twogen", "sandwich", "oracle"),
    "words.words_tried": ("oracle",),
    "words.cover_size": ("oracle",),
    "indexing.decode_calls": ("twogen",),
    "indexing.class_of_calls": ("twogen",),
    "indexing.tri_split_calls": ("sandwich",),
    "classify.subrings_found": ("census",),
    "twogen.build_pct": ("twogen",),
    "words.oracle_pct": ("oracle",),
    "triangular.sandwich_x_pct": ("sandwich",),
    "classify.witness_verify_pct": ("sandwich",),
    "classify.census_pct": ("census",),
    "fearing.witness_pct": ("oracle",),
    "cli.to_json_s": ("twogen", "sandwich", "oracle", "census"),
}

SEED = 7

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DECLARED = {trace: {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def run(workload, trace, hash_seed, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def digest_of(stdout):
    for line in stdout.splitlines():
        if line.startswith("# report_sha256 "):
            return line.split()[-1]
    return None


def check_workload(workload) -> list:
    failures, digests, counts = [], {}, {}
    for trace in (0, 1):
        for hash_seed in ("1", "99"):
            tag = f"{workload} trace={trace} PYTHONHASHSEED={hash_seed}"
            out = run(workload, trace, hash_seed)
            if out.returncode != 0:
                failures.append(f"{tag}: exit {out.returncode}: {out.stderr[-300:]}")
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                failures.append(f"{tag}: not correct")
            digests[tag] = digest_of(out.stdout)
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != DECLARED[trace]:
                failures.append(f"{tag}: metrics {printed} are not the"
                                f" BENCHMARK.json ones {DECLARED[trace]}")
            if trace:
                counts[hash_seed] = {k: m["value"]
                                     for k, m in result["metrics"].items()
                                     if m["unit"] == "count"}
                for name, where in EXERCISED.items():
                    if workload in where and not result["metrics"][name]["value"]:
                        failures.append(f"{tag}: {name} reads zero")
    if len(set(digests.values())) != 1:
        failures.append(f"{workload}: report digests differ: {digests}")
    if len(counts) == 2 and counts["1"] != counts["99"]:
        diff = sorted(k for k in counts["1"] if counts["1"][k] != counts["99"].get(k))
        failures.append(f"{workload}: traced counts differ across hash seeds: {diff}")
    return failures


def check_stripped() -> list:
    """run.py must fail, printing no result, without the rowfin sources."""
    stripped = ROOT / ".perfbench" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = run("census", 0, "1", cwd=stripped,
                  script=stripped / "perfbench" / "run.py")
    finally:
        shutil.rmtree(stripped)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"stripped checkout: exit {out.returncode}, output {lines[-1:]}"]
    return []


def main() -> int:
    failures = check_stripped()
    for workload in workloads.WORKLOADS:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        failures += found
    for f in failures:
        print(f"! {f}")
    print("selftest ok" if not failures else f"selftest FAILED ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
