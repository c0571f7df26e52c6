#!/usr/bin/env python3
"""rowfin benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload twogen --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each workload is a seeded list of
`rowfin` CLI argument vectors, run one after another through
`rowfin.cli.run` and `Report.to_json`, the same path as the `rowfin`
command. Passes over the list repeat until `--seconds` have elapsed.
Every report is checked: all its checks must PASS, their number must be
as expected, and oracle and census answers are confirmed independently.

With `--trace 0` the last line holds the end-to-end metrics; their
times are normalised to a reference speed (speed.py), and the raw times
are printed in the table above it. With
`--trace 1` one untraced pass is followed by traced passes, and the last
line holds the per-layer metrics. Either way the last line is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are a readable table. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Child processes that import rowfin and build the inputs; `setup_s` is
# their median. They alternate PYTHONHASHSEED so that inputs are also
# checked to be independent of string hashing.
SETUP_PROBES = 11
PROBE_HASH_SEEDS = ("1", "99")


def import_cli():
    """rowfin.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "rowfin" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'rowfin'} not found; run from a rowfin checkout")
    sys.path.insert(0, str(SRC))
    from rowfin import cli
    if Path(cli.__file__).resolve().parent != SRC / "rowfin":
        sys.exit(f"perfbench: imported rowfin from {cli.__file__}, not {SRC}")
    return cli


def argv_digest(items) -> str:
    return hashlib.sha256(json.dumps([it["argv"] for it in items])
                          .encode()).hexdigest()


def probe_command(args) -> list:
    """A fresh process that imports rowfin and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def measure_setup(args, want_digest):
    """Raw and reference-speed times of SETUP_PROBES set-up probes.

    Each probe is scaled by reference samples taken just before and
    after it. This process is pinned to one CPU meanwhile, and the probe
    inherits the pinning, so both run on the CPU the samples measured.
    """
    raw, norm, problems = [], [], []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        ref = speed.sample()
        for k in range(SETUP_PROBES):
            env = dict(os.environ, PYTHONHASHSEED=PROBE_HASH_SEEDS[k % 2])
            t0 = time.perf_counter()
            out = subprocess.run(probe_command(args), env=env,
                                 capture_output=True, text=True, timeout=120)
            raw.append(time.perf_counter() - t0)
            ref_after = speed.sample()
            norm.append(speed.scale(raw[-1], ref, ref_after))
            ref = ref_after
            got = out.stdout.strip()
            if out.returncode != 0 or got != want_digest:
                problems.append(f"set-up probe (PYTHONHASHSEED={env['PYTHONHASHSEED']})"
                                f" gave inputs {got[:12] or out.stderr.strip()[-200:]}")
    finally:
        os.sched_setaffinity(0, cpus)
    return raw, norm, problems


class Pass:
    """One pass over every item of the workload.

    With a `meter` each item is timed by `speed.SpeedMeter`, which also
    gives its time at reference speed; without one, by `perf_counter`.
    The pass wall time is the sum of its item times.
    """

    def __init__(self, cli, items, tracer=None, meter=None):
        self.latencies = []         # seconds per item
        self.normalised = []        # seconds per item at reference speed
        self.docs = []
        self.errors = []
        digest = hashlib.sha256()
        gc.collect()
        for n, item in enumerate(items):
            if tracer is not None:
                tracer.item = n
                tracer.open("item")

            def render():
                report, _, _ = cli.run(item["argv"])
                return report, report.to_json()

            try:
                if meter is None:
                    t0 = time.perf_counter()
                    report, data = render()
                    raw = norm = time.perf_counter() - t0
                else:
                    (report, data), raw, norm = meter.time(render)
            except Exception as exc:  # a crashed report counts as failed
                self.errors.append(f"item {n} {' '.join(item['argv'])}: "
                                   f"{type(exc).__name__}: {exc}")
                self.docs.append(None)
                continue
            finally:
                if tracer is not None:
                    tracer.close()
            self.latencies.append(raw)
            self.normalised.append(norm)
            digest.update(data.encode())
            self.docs.append(report.doc)
        self.wall = sum(self.latencies)
        self.norm_wall = sum(self.normalised)
        self.digest = digest.hexdigest()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def score(self, items):
        """(checks attempted, checks failed, problems) for this pass."""
        attempted, failed = len(self.errors), len(self.errors)
        problems = list(self.errors)
        for n, (item, doc) in enumerate(zip(items, self.docs)):
            if doc is None:
                continue
            attempted += len(doc["checks"])
            bad = [c for c in doc["checks"] if c["verdict"] != "pass"]
            failed += len(bad)
            problems += [f"item {n} check {c['name']}: {c['verdict']}"
                         f" {c.get('detail', '')}" for c in bad]
            extra = workloads.confirm(item, doc)
            failed += bool(extra)
            problems += [f"item {n} {' '.join(item['argv'])}: {p}" for p in extra]
        return attempted, failed, problems


def tail(samples):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with fewer than eleven
    samples no percentile qualifies and the maximum is returned as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def run_passes(cli, items, seconds, tracer=None, meter=None):
    """Passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset_counts()
            cpu0 = time.process_time()
        p = Pass(cli, items, tracer, meter)
        if tracer is not None:
            p.cpu = time.process_time() - cpu0
            p.counts = tracer.snapshot()
            p.span_s = dict(tracer.self_s)
            p.shares = tracer.sampled_shares()
        passes.append(p)
    return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_raw, setup_norm, meter):
    """The gated metrics are the `_norm` times; raw times go to the table."""
    raw = [x for p in passes for x in p.latencies]
    norm = [x for p in passes for x in p.normalised]
    raw_tail, _, _ = tail(raw)
    norm_tail, pct, n = tail(norm)
    metrics = {
        "setup_s": metric(statistics.median(setup_norm), "s"),
        "wall_norm_s": metric(statistics.median(p.norm_wall for p in passes), "s"),
        "item_p50_norm_ms": metric(1e3 * statistics.median(norm), "ms"),
        "item_tail_norm_ms": metric(1e3 * norm_tail, "ms"),
        # After the first pass, so that it does not depend on how many
        # passes the host's speed allowed.
        "peak_rss_mb": metric(passes[0].peak_rss_mb, "MiB"),
    }
    table = {
        "setup_raw_s": metric(statistics.median(setup_raw), "s"),
        "wall_s": metric(statistics.median(p.wall for p in passes), "s"),
        "item_p50_ms": metric(1e3 * statistics.median(raw), "ms"),
        "item_tail_ms": metric(1e3 * raw_tail, "ms"),
    }
    notes = [f"item tails are p{pct:.1f} of {n} item samples"
             f" over {len(passes)} passes",
             "raw times (setup_raw_s, wall_s, item_p50_ms, item_tail_ms) are"
             " as measured; setup_s and the _norm times are at reference"
             f" speed, from {meter.samples} reference samples in the passes"
             " (perfbench/speed.py)",
             "pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes),
             "pass walls at reference speed (s): "
             + " ".join(f"{p.norm_wall:.3f}" for p in passes),
             "set-up probes (s): " + " ".join(f"{t:.3f}" for t in setup_raw),
             "set-up probes at reference speed (s): "
             + " ".join(f"{t:.3f}" for t in setup_norm)]
    return metrics, table, notes


# Coarse spans reported as a share of the traced pass wall time. Each reads
# exactly zero on every run of a workload that never crosses it, which a
# time metric must not do, so their seconds go to the note lines and the
# span file only.
PCT_SPANS = {
    "twogen.build": "twogen.build_pct",
    "words.oracle": "words.oracle_pct",
    "triangular.sandwich_x": "triangular.sandwich_x_pct",
    "classify.witness_verify": "classify.witness_verify_pct",
    "classify.census": "classify.census_pct",
    "fearing.witness": "fearing.witness_pct",
}


def per_layer(traced, untraced):
    counts = traced[0].counts
    metrics = {name: metric(value, "count") for name, value in counts.items()}
    rows, fns = counts["matrices.row_calls"], counts["matrices.rowfn_calls"]
    metrics["matrices.memo_hit_ratio"] = metric(1 - fns / rows if rows else 0.0,
                                                "ratio")

    def mean(values):
        return sum(values) / len(traced)

    wall = mean(p.wall for p in traced)
    sampled_s = {layer: mean(p.shares[layer] * p.cpu for p in traced)
                 for layer in tracing.SAMPLED}
    metrics["rings.self_s"] = metric(sampled_s["rings"], "s")
    metrics["matrices.self_pct"] = metric(100 * sampled_s["matrices"] / wall, "%")
    span_s = {name: mean(p.span_s.get(name, 0.0) for p in traced)
              for name in list(PCT_SPANS) + ["cli.to_json"]}
    for span, name in PCT_SPANS.items():
        metrics[name] = metric(100 * span_s[span] / wall, "%")
    metrics["cli.to_json_s"] = metric(span_s["cli.to_json"], "s")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.overhead"] = metric(
        wall / statistics.median(p.wall for p in untraced), "ratio")
    table = [f"  {name + '_s':32s} {span_s[name]:.6f} s (span self time)"
             for name in sorted(span_s)]
    return dict(sorted(metrics.items())), table


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (perfbench/selftest.py)")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The oracle's word budget is part of the workload, not of the caller's
    # environment.
    os.environ.pop("ROWFIN_BOUND", None)
    if args.probe:
        import_cli()
        print(argv_digest(workloads.generate(args.workload, args.seed, args.tiny)))
        return 0

    cli = import_cli()
    problems = []
    items = workloads.generate(args.workload, args.seed, args.tiny)
    if not args.trace:
        setup_raw, setup_norm, problems = measure_setup(args, argv_digest(items))

    print(f"# rowfin benchmark: workload={args.workload} seed={args.seed}"
          f" items={len(items)} trace={args.trace}")
    print(f"# python {platform.python_version()}"
          f" ({platform.python_implementation()}), cpus={os.cpu_count()},"
          f" {platform.machine()}")

    if args.trace:
        untraced = run_passes(cli, items, 0)
        t = tracing.Tracer(tracing.rowfin_modules())
        t.install()
        try:
            traced = run_passes(cli, items, args.seconds, tracer=t)
        finally:
            t.uninstall()
        passes = untraced + traced
        if any(p.counts != traced[0].counts for p in traced):
            problems.append("per-layer counts differ between traced passes")
        out_dir = Path.cwd() / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        t.write_spans(span_file)
        metrics, span_lines = per_layer(traced, untraced)
        table = {}
        notes = [f"{len(traced)} traced pass(es) after 1 untraced pass;"
                 f" spans in {span_file.relative_to(Path.cwd())}"] + span_lines
    else:
        meter = speed.SpeedMeter()
        passes = run_passes(cli, items, args.seconds, meter=meter)
        metrics, table, notes = end_to_end(passes, setup_raw, setup_norm, meter)

    attempted = failed = 0
    for p in passes:
        a, f, probs = p.score(items)
        attempted, failed = attempted + a, failed + f
        problems += probs
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append(f"report digests differ between passes: {sorted(digests)}")

    for name, m in {**metrics, **table}.items():
        value = m["value"] if m["unit"] == "count" else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}")
    print(f"  {'check_fail_ratio':32s} {failed / max(attempted, 1):.6g} ratio"
          f" ({failed} of {attempted} checks)")
    for note in notes:
        print(f"# {note}")
    print(f"# report_sha256 {passes[0].digest}")
    print(f"# inputs_sha256 {argv_digest(items)}")
    for p in problems[:20]:
        print(f"! {p}")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
