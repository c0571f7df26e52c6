"""Verification command line.

Each subcommand runs one construction, verifies its postconditions, and
emits a pretty text report plus a machine-readable JSON document with
stable key order.  Identical configs produce byte-identical JSON (wall
time is reported only in the pretty text).  Exit status is nonzero
exactly when a check fails; hitting a resource bound is a warning, not a
failure.  A malformed ring spec or vector, or a size option below its
minimum, is an `input` failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from . import classify as cl
from . import fearing as fr
from . import matrices as mx
from . import triangular as tr
from . import twogen as tg
from . import words as wd
from .indexing import PreorderSpecError, parse_preorder, tri
from .rings import RingError, parse_ring_spec

PASS, FAIL, WARN = "pass", "fail", "warn"


class Report:
    def __init__(self, subcommand: str, config: dict):
        self.doc = {"subcommand": subcommand, "config": config, "checks": [],
                    "witnesses": {}}

    def check(self, name: str, verdict: str, detail=None):
        entry = {"name": name, "verdict": verdict}
        if detail is not None:
            entry["detail"] = detail
        self.doc["checks"].append(entry)

    def holds(self, name: str, failure, detail=None):
        """PASS with detail if failure is None, else FAIL with the failure
        as its detail."""
        if failure is None:
            self.check(name, PASS, detail)
        else:
            self.check(name, FAIL, failure)

    def witness(self, name: str, value):
        self.doc["witnesses"][name] = value

    @property
    def failed(self) -> bool:
        return any(c["verdict"] == FAIL for c in self.doc["checks"])

    def to_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":")) + "\n"

    def pretty(self, elapsed: float) -> str:
        lines = [f"== rowfin {self.doc['subcommand']} =="]
        for key, val in sorted(self.doc["config"].items()):
            lines.append(f"   {key} = {val}")
        for c in self.doc["checks"]:
            mark = {PASS: "ok  ", FAIL: "FAIL", WARN: "warn"}[c["verdict"]]
            detail = f"  ({c['detail']})" if "detail" in c else ""
            lines.append(f" [{mark}] {c['name']}{detail}")
        lines.append(f" wall-time: {elapsed:.3f}s")
        return "\n".join(lines) + "\n"


def _config(args) -> dict:
    """A report's config: every parsed option but the output path."""
    return {key: val for key, val in vars(args).items()
            if key not in ("command", "func", "out")}


# ---------------------------------------------------------------------------
# Built-in source families


def builtin_family(kind: str, ring, seed: int, count: int) -> dict:
    rng = random.Random(seed)
    if kind == "empty":
        return {}
    if kind == "units":
        # u_i = e_(1, i + half + 1) for i in -half..count - half - 1, so
        # every column index stays positive; -2..2 at count 5.
        half = count // 2
        return {i: mx.matrix_unit(ring, 1, i + half + 1)
                for i in range(-half, count - half)}
    if kind == "random":
        return {i: _random_cells(ring, rng, 5, 24) for i in range(count)}
    raise ValueError(f"unknown family {kind!r}")


def _random_cells(ring, rng, k: int, n: int) -> mx.RowFiniteMap:
    """A seeded map with 1..k cells drawn in rows and columns 1..n."""
    rows = {}
    for _ in range(rng.randint(1, k)):
        r, c = rng.randint(1, n), rng.randint(1, n)
        rows.setdefault(r, {})[c] = ring.random_payload(rng)
    return mx.from_rows(ring, rows)


# ---------------------------------------------------------------------------
# Subcommands


ALL_ROWS = "all rows"


def _agreement(f, g, window: int) -> tuple:
    """(mismatch, detail) for f against the expected map g: (None,
    `all rows`) when `same_map` decides that they are equal, reading no
    row, and otherwise `first_mismatch` on rows 1..window and no detail."""
    if mx.same_map(f, g):
        return None, ALL_ROWS
    return mx.first_mismatch(f, g, window), None


def _word_checks(report: Report, gmaps: dict, env: dict, targets: dict,
                 window: int):
    """The checks two-gen and maltsev share, and the `words` witness.

    The four g-family identities as one `construction` check (its first
    failing identity, if any), each g-word under env against g1..g5, and
    each u-word against its target on rows 1..window.  An identity or
    g-word that `same_map` decides holds on every row and reads none:
    the g-maps other than g3 are layer steps, so each identity's product
    composes into the expected map, and a g-word that `compose` reduced
    to its g-map is that map.  The construction check has the detail
    `all rows` when all four identities are decided so.
    """
    ring = gmaps[1].ring
    ident = mx.identity_map(ring)
    identities = (("g2*g1 = pi_sigma", 2, 1, tg.pi_sigma(ring)),
                  ("g1*g2 = 1", 1, 2, ident), ("g4*g5 = 1", 4, 5, ident),
                  ("g5*g4 = 1", 5, 4, ident))
    details = set()
    for name, a, b, expected in identities:
        mismatch, detail = _agreement(mx.compose(gmaps[a], gmaps[b]), expected,
                                      window)
        if mismatch:
            report.check("construction", FAIL, f"{name} failed: {mismatch}")
            break
        details.add(detail)
    else:
        report.holds("construction", None,
                     ALL_ROWS if details == {ALL_ROWS} else None)
    indices = sorted(targets)
    gwords, umaps = tg.word_maps(env, ring, indices)
    for i, g in gmaps.items():
        report.holds(f"g{i} word", *_agreement(gwords[i], g, window))
    for i in indices:
        report.holds(f"u{i} word", mx.first_mismatch(umaps[i], targets[i], window))
    report.witness("words", {str(i): text for i, text
                             in tg.u_word_texts(indices).items()})


def _all_hold(report: Report, name: str, checks):
    """One check for a run of (what, mismatch): its count, or the first failure."""
    count = 0
    for what, mismatch in checks:
        if mismatch is not None:
            report.check(name, FAIL, f"{what} failed: {mismatch}")
            return
        count += 1
    report.check(name, PASS, f"{count} checks")


def cmd_two_gen(args, report: Report):
    ring = parse_ring_spec(args.ring)
    if args.family == "empty":
        # The empty family has no members to count.
        del report.doc["config"]["count"]
    source = builtin_family(args.family, ring, args.seed, args.count)
    gmaps = tg.build_g_family(source, ring)
    f1, f3 = tg.build_two_generators(gmaps)
    env = {"f1": f1, "f3": f3}
    if args.corrupt:
        env["f3"] = mx.add_maps(f3, mx.matrix_unit(ring, 2, 1))
    _word_checks(report, gmaps, env, source, args.window)
    report.witness("f1", mx.to_sparse(f1, args.window))
    report.witness("f3", mx.to_sparse(f3, args.window))


def _hom_checks(ring, images: dict, payloads: list, window: int):
    """Image of a*b = image a * image b, and likewise for a+b, for every
    pair, by `_agreement`: scalar images reduce to scalar monomials."""
    for i, a in enumerate(payloads):
        for j, b in enumerate(payloads):
            yield f"mul ({i},{j})", _agreement(
                mx.compose(images[i], images[j]),
                mx.scalar_map(ring, ring.mul(a, b)), window)[0]
            yield f"add ({i},{j})", _agreement(
                mx.add_maps(images[i], images[j]),
                mx.scalar_map(ring, ring.add(a, b)), window)[0]


def _centre_checks(ring, centre: list, samples: dict, window: int):
    """Each central element's scalar map commutes with each sample."""
    for s in centre:
        delta = mx.scalar_map(ring, s)
        for label, m in samples.items():
            yield (f"{ring.format_payload(s)} commutes with {label}",
                   mx.first_mismatch(mx.compose(delta, m), mx.compose(m, delta),
                                     window))


def cmd_maltsev(args, report: Report):
    ring = parse_ring_spec(args.ring)
    try:
        images = tg.maltsev_embed(ring, args.count)
    except RingError as exc:
        report.check("embedding", WARN, str(exc))
        return
    gmaps = tg.build_g_family(images, ring)
    f1, f3 = tg.build_two_generators(gmaps)
    targets = dict(images)
    if args.corrupt:
        # Negative control: element 0's target gains a stray (1, 2) cell.
        targets[0] = mx.add_maps(images[0], mx.matrix_unit(ring, 1, 2))
    _word_checks(report, gmaps, {"f1": f1, "f3": f3}, targets, args.window)
    payloads = [ring.nth_element(i) for i in range(args.count)]
    _all_hold(report, "hom", _hom_checks(ring, images, payloads, args.window))
    # The central payloads in enumeration order, decided by the ring's
    # structure, so no ring is enumerated.
    centre = [s for s in payloads if ring.is_central(s)]
    # f1, f3 and 20 seeded maps with 1..6 cells in rows and columns
    # 1..window.
    rng = random.Random(args.seed)
    samples = {"f1": f1, "f3": f3}
    for k in range(20):
        samples[f"sample {k}"] = _random_cells(ring, rng, 6, args.window)
    _all_hold(report, "centre",
              _centre_checks(ring, centre, samples, args.window))


def _random_lower_triangular(ring, rng, window: int) -> mx.RowFiniteMap:
    """A sandwich target Y: each cell (i, c) with c <= i drawn with probability 1/2.

    Rows are wrapped as they are drawn: random payloads are already
    canonical, so a zero one is dropped as it is drawn.
    """
    draw, is_zero, coin = ring.random_payload, ring.is_zero, rng.random
    rows = {}
    for i in range(1, window + 1):
        entries = {}
        for c in range(1, i + 1):
            if coin() < 0.5:
                v = draw(rng)
                if not is_zero(v):
                    entries[c] = v
        if entries:
            rows[i] = mx.FinVec._of(ring, entries)
    zero = mx.FinVec.zero(ring)
    return mx.RowFiniteMap(ring, lambda a: rows.get(a, zero))


def cmd_sandwich(args, report: Report):
    ring = parse_ring_spec(args.ring)
    rng = random.Random(args.seed)
    A, B = tr.sandwich_A(ring), tr.sandwich_B(ring)
    diag = parse_preorder("diag")
    for trial in range(args.count):
        Y = _random_lower_triangular(ring, rng, args.window)
        X = tr.sandwich_X(Y)
        if args.corrupt:
            X = mx.add_maps(X, mx.matrix_unit(ring, 1, 1))
        # The one AXB = Y check of the trial. Row i of A spans X's rows
        # tri_block(i), so X's diagonality is checked on all of 1..T(window).
        axb = mx.compose(mx.compose(A, X), B)
        report.holds(f"trial {trial} AXB=Y", mx.first_mismatch(axb, Y, args.window))
        violations = cl.preorder_membership(X, diag,
                                            range(1, tri(args.window) + 1))
        report.holds(f"trial {trial} X diagonal",
                     str(violations[0]) if violations else None)


def cmd_classify(args, report: Report):
    try:
        rho = parse_preorder(args.preorder)
    except PreorderSpecError as exc:
        report.check("classification", FAIL, str(exc))
        return
    verdict = cl.classify_preorder(rho)
    report.check("classification", PASS, verdict)
    report.witness("verdict", verdict)
    if verdict == cl.D_CLASS:
        # The rows with infinite up-sets: a DClass preorder has none.
        report.witness("exceptional_rows", [])


def cmd_witness(args, report: Report):
    ring = parse_ring_spec(args.ring)
    rng = random.Random(args.seed)
    try:
        rho = parse_preorder(args.preorder)
        witness = cl.eclass_witness(rho, ring)
    except (cl.ClassifyError, PreorderSpecError) as exc:
        report.check("witness construction", FAIL, str(exc))
        return
    report.check("witness construction", PASS,
                 f"anchors in class {witness.anchor_class}, "
                 f"bars in class {witness.bar_class}")
    # Negative control: one more cell in anchor 1's row, on bar 1's first
    # column, which h sends to column 1 of the sandwich.
    extra = mx.matrix_unit(ring, witness.anchor(1), witness.bar(1, 1))
    for trial in range(args.count):
        rows = {}
        for j in range(1, args.window + 1):
            entries = {c: ring.random_payload(rng)
                       for c in range(1, args.window + 1) if rng.random() < 0.4}
            if entries:
                rows[j] = entries
        target = mx.from_rows(ring, rows)
        lifted = witness.lift(target, args.window)
        if args.corrupt:
            lifted = mx.add_maps(lifted, extra)
        report.holds(f"trial {trial}", witness.verify(target, lifted, args.window))


# Descriptors hold no state, so one of each serves every run.
_DESCRIPTORS = {d.name: d for d in (
    fr.diagonal_fearing(), fr.banded_fearing(1), fr.banded_fearing(2),
    fr.stretch_fearing(2), fr.paired_fearing())}


def _shift(ring) -> mx.RowFiniteMap:
    """The shift e_a -> e_(a+1), the extra generator of fear and oracle."""
    return mx.from_index_map(ring, lambda a: a + 1)


def cmd_fear(args, report: Report):
    ring = parse_ring_spec(args.ring)
    env = {"s": _shift(ring)}
    witness = fr.fear_witness(_DESCRIPTORS[args.descriptor], env, args.blocks,
                              ring)
    pairs = list(witness.pairs)
    if args.corrupt and pairs:
        # Negative control: block 1's cover now holds its escape index.
        first = pairs[0]
        pairs[0] = fr.FearPair(first.j, first.start, first.escape,
                               first.cover | {first.escape})
    # x_j = e_start and y_j = e_escape; x_j g = y_j puts the escape in
    # supp(x_j g).
    unit = functools.partial(mx.FinVec.unit, ring)
    for p in pairs:
        image, y = unit(p.start).apply(witness.g), unit(p.escape)
        detail = f"escape={p.escape} cover_size={len(p.cover)}"
        if image != y:
            detail += f"; x_j g: got {image!r}, expected {y!r}"
        ok = image == y and p.escape not in p.cover
        report.check(f"block {p.j} escape certificate", PASS if ok else FAIL,
                     detail)
    for p in pairs[: args.oracle_max]:
        try:
            res = wd.proximity_oracle(unit(p.start), unit(p.escape), env, p.j)
        except wd.OracleBudgetExceeded as exc:
            report.check(f"block {p.j} oracle", WARN, str(exc))
            continue
        report.check(f"block {p.j} oracle", FAIL if res.found else PASS,
                     f"words_tried={res.words_tried}")
    report.witness("blocks", [[p.j, [p.start, p.escape]] for p in pairs])


def cmd_simple_full(args, report: Report):
    try:
        census = cl.simple_full_check(args.n, args.p)
    except cl.ClassifyError as exc:
        report.check("census",
                     WARN if isinstance(exc, cl.CensusInfeasible) else FAIL,
                     str(exc))
        return
    report.check("census", PASS, f"count={census.count}")
    report.witness("count", census.count)
    report.witness("preorders", [[list(p) for p in rel]
                                 for rel in census.preorders])


def _split_entries(text: str) -> list:
    """Split on the commas outside brackets, so matrix payloads stay whole."""
    pieces, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            pieces.append(text[start:i])
            start = i + 1
    pieces.append(text[start:])
    return pieces


def _parse_vec(text: str, ring):
    entries = {}
    if text:
        for piece in _split_entries(text):
            idx, _, val = piece.partition(":")
            try:
                idx = int(idx)
                payload = ring.parse_payload(val)
            except ValueError as exc:
                raise RingError(f"malformed vector entry {piece!r}: {exc}") from exc
            if idx < 1:
                raise RingError(f"malformed vector {text!r}: "
                                f"index must be >= 1, got {idx}")
            if idx in entries:
                raise RingError(f"malformed vector {text!r}: repeated index {idx}")
            entries[idx] = payload
    return mx.FinVec(ring, entries)


def cmd_oracle(args, report: Report):
    ring = parse_ring_spec(args.ring)
    x1 = _parse_vec(args.x1, ring)
    env = {"s": _shift(ring)}
    if args.infile:
        try:
            with open(args.infile) as fh:
                file_ring, m = mx.load_sparse(fh.read())
        except (OSError, ValueError, mx.MatrixError, RingError) as exc:
            report.check("input", FAIL, f"--in {args.infile}: {exc}")
            return
        if file_ring is not ring:
            report.check("input", FAIL, "ring mismatch in input file")
            return
        env["m"] = m
    if args.mode == "closure":
        rep = wd.support_closure(x1, lambda a: {a}, env, args.r_max)
        report.check("closure", PASS, f"cover_size={len(rep.cover)}")
        report.witness("cover", sorted(rep.cover))
        return
    x2 = _parse_vec(args.x2, ring)
    try:
        res = wd.proximity_oracle(x1, x2, env, args.r_max)
    except wd.OracleBudgetExceeded as exc:
        report.check("proximity", WARN, str(exc))
        return
    if res.found:
        report.check("proximity", PASS, f"found at length {res.r}")
        report.witness("word", wd.format_word(res.witness))
    else:
        report.check("proximity", PASS, f"not within {res.r}")
        report.witness("word", None)
    report.witness("found", res.found)


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowfin",
        description="Exact verification of row-finite matrix constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring="GF:3", window=20):
        p.add_argument("--ring", default=ring)
        p.add_argument("--window", type=int, default=window)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--corrupt", action="store_true")

    p = sub.add_parser("two-gen")
    common(p, window=28)
    p.add_argument("--family", default="units",
                   choices=["units", "random", "empty"])
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_two_gen)

    p = sub.add_parser("maltsev")
    common(p, ring="Zmod:6", window=16)
    p.add_argument("--count", type=int, default=6)
    p.set_defaults(func=cmd_maltsev)

    p = sub.add_parser("sandwich")
    common(p, ring="GF:5", window=20)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("classify")
    p.add_argument("--preorder", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("witness")
    common(p, ring="GF:3", window=12)
    p.add_argument("--preorder", required=True)
    p.add_argument("--count", type=int, default=5)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("fear")
    p.add_argument("--ring", default="GF:3")
    p.add_argument("--out", default=None)
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--descriptor", default="diagonal",
                   choices=sorted(_DESCRIPTORS))
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--oracle-max", type=int, default=0)
    p.set_defaults(func=cmd_fear)

    p = sub.add_parser("simple-full")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simple_full)

    p = sub.add_parser("oracle")
    p.add_argument("--ring", default="GF:2")
    p.add_argument("--x1", default="1:1")
    p.add_argument("--x2", default="")
    p.add_argument("--r-max", type=int, default=3)
    p.add_argument("--mode", default="proximity",
                   choices=["proximity", "closure"])
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


# The least meaningful value of each size option, by argparse dest.
_MINIMUMS = {"window": 1, "count": 1, "blocks": 1, "r_max": 0, "oracle_max": 0}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args fills a fresh
    # Namespace each call and every default is immutable.
    return build_parser()


def run(argv=None) -> tuple[Report, float, object]:
    """Parse argv and run one subcommand: (report, seconds, parsed args).

    The subcommand fills the report built here.  A `RingError` it raises
    replaces whatever it filled with one `input` failure.  Every call in
    a process reuses one parser, built on the first call.  Argparse
    errors raise SystemExit as usual.
    """
    args = _parser().parse_args(argv)
    start = time.monotonic()
    report = Report(args.command, _config(args))
    too_small = next((f"--{dest.replace('_', '-')} must be >= {low}, "
                      f"got {getattr(args, dest)}"
                      for dest, low in _MINIMUMS.items()
                      if getattr(args, dest, low) < low), None)
    if too_small:
        report.check("input", FAIL, too_small)
    else:
        try:
            args.func(args, report)
        except RingError as exc:
            report = Report(args.command, _config(args))
            report.check("input", FAIL, str(exc))
    return report, time.monotonic() - start, args


def main(argv=None) -> int:
    """Run one subcommand and print its report; 1 if it failed, stdout
    closed or the --out file could not be written."""
    report, elapsed, args = run(argv)
    out = getattr(args, "out", None)
    text = report.pretty(elapsed) + ("" if out else report.to_json())
    printed = _write_stdout(text)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(report.to_json())
        except OSError as exc:
            print(f"rowfin: cannot write {out}: {exc.strerror}", file=sys.stderr)
            return 1
    return 1 if report.failed or not printed else 0


def _write_stdout(text: str) -> bool:
    """Write and flush text to stdout; False if the reader closed the pipe."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit cannot fail
        # again (the recipe in the documentation of Python's `signal`).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
