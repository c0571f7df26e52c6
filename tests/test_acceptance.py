"""Acceptance gate: one check per headline property, exact arithmetic only.

Each test prints a single `criterion NN ... PASS/FAIL` line so the gate
reads as a checklist under `pytest -v -s`.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from oracle_reference import u_word

import rowfin
from rowfin import classify as cl
from rowfin import cli
from rowfin import fearing as fr
from rowfin import matrices as mx
from rowfin import triangular as tr
from rowfin import twogen as tg
from rowfin.indexing import PreorderDescriptor, parse_preorder, tri
from rowfin.matrices import FinVec
from rowfin.rings import parse_ring_spec
from rowfin.words import (NEG_ONE, ONE, ZERO, Gen, Prod, Sum, eval_word,
                          proximity_oracle, support_closure)

Z6 = parse_ring_spec("Zmod:6")
GF2 = parse_ring_spec("GF:2")
GF3 = parse_ring_spec("GF:3")
GF5 = parse_ring_spec("GF:5")
INT = parse_ring_spec("Int")


def report(number, title, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {title}: {verdict}", file=sys.stderr)
    assert ok, f"criterion {number:02d} {title} failed"


def shift(ring):
    return mx.from_index_map(ring, lambda a: a + 1)


def random_family(ring, seed, max_count=7, corner=24):
    rng = random.Random(seed)
    out = {}
    for i in range(rng.randint(1, max_count)):
        rows = {}
        for _ in range(rng.randint(1, 4)):
            r, c = rng.randint(1, corner), rng.randint(1, corner)
            rows.setdefault(r, {})[c] = ring.random_payload(rng)
        out[i] = mx.from_rows(ring, rows)
    return out


def test_criterion_01_two_generator_words():
    start = time.monotonic()
    ok = True
    for seed in range(50):
        ring = Z6 if seed % 2 == 0 else GF5
        source = random_family(ring, seed)
        gmaps = tg.build_g_family(source, ring)
        f1, f3 = tg.build_two_generators(gmaps)
        env = {"f1": f1, "f3": f3}
        for i, u in source.items():
            got = eval_word(u_word(i), env, ring)
            for window in (32, 64):
                if mx.first_mismatch(got, u, window) is not None:
                    ok = False
    elapsed = time.monotonic() - start
    report(1, f"two-generator words, 50 families ({elapsed:.1f}s)",
           ok and elapsed < 10.0)


def test_criterion_02_g_family_identities_window_128():
    gmaps = tg.build_g_family({}, GF3)
    ident = mx.identity_map(GF3)
    ok = (mx.first_mismatch(mx.compose(gmaps[2], gmaps[1]),
                            tg.pi_sigma(GF3), 128) is None
          and mx.first_mismatch(mx.compose(gmaps[1], gmaps[2]), ident, 128) is None
          and mx.first_mismatch(mx.compose(gmaps[4], gmaps[5]), ident, 128) is None
          and mx.first_mismatch(mx.compose(gmaps[5], gmaps[4]), ident, 128) is None)
    report(2, "g-family identities on window 128", ok)


def test_criterion_03_countable_ring_embedding():
    ok = True
    for ring, count in (("Zmod:6", 6), ("Mat:2:GF:2", 16)):
        run, _, _ = cli.run(["maltsev", "--ring", ring, "--count", str(count),
                             "--window", "32"])
        checks = {c["name"]: c for c in run.doc["checks"]}
        if run.failed or any(c["verdict"] != "pass" for c in checks.values()):
            ok = False
        if len(checks) != 1 + 5 + count + 2:
            ok = False
        if checks["hom"]["detail"] != f"{2 * count * count} checks":
            ok = False
        if int(checks["centre"]["detail"].split()[0]) == 0:
            ok = False
    report(3, "diagonal embedding of Zmod:6 and Mat:2:GF:2", ok)


def test_criterion_04_sandwich():
    ok = True
    diag = parse_preorder("diag")
    for seed, ring in enumerate((INT, Z6, GF5)):
        rng = random.Random(seed)
        A, B = tr.sandwich_A(ring), tr.sandwich_B(ring)
        for _ in range(100):
            rows = {}
            for i in range(1, 21):
                entries = {c: ring.random_payload(rng)
                           for c in range(1, i + 1) if rng.random() < 0.4}
                if entries:
                    rows[i] = entries
            Y = mx.from_rows(ring, rows)
            X = tr.sandwich_X(Y)
            axb = mx.compose(mx.compose(A, X), B)
            if mx.first_mismatch(axb, Y, 20) is not None:
                ok = False
            if cl.preorder_membership(X, diag, range(1, tri(20) + 1)):
                ok = False
    report(4, "AXB = Y for 300 random lower-triangular targets", ok)


def test_criterion_05_classification_table(reference_relation):
    table = [("diag", "DClass"), ("ge", "DClass"), ("le", "EClass"),
             ("full", "EClass"),
             ("union-finite:(1,2),(2,3),(4,7)", "DClass"),
             ("mod:5:(1,2),(2,3)", "EClass")]
    rows = range(1, 61)
    ok = True
    for spec, expected in table:
        rho = parse_preorder(spec)
        if cl.classify_preorder(rho) != expected:
            ok = False
        if {(a, b) for a in rows for b in rows
                if rho.rel(a, b)} != reference_relation(spec, 60):
            ok = False
    report(5, "classification verdict table, relations agree with brute force "
              "on rows 1..60", ok)


def test_criterion_06_eclass_witnesses():
    ok = True
    rng = random.Random(42)
    # A hand-built form whose least rising triple is (2, 1, +1), above K = 3.
    skew = PreorderDescriptor("skew", 2,
                              frozenset({(1, 1, 0), (2, 2, 0), (2, 1, 1)}),
                              3, frozenset({(1, 3)}))
    for rho in (parse_preorder("le"), parse_preorder("mod:3:(1,2)"), skew):
        witness = cl.eclass_witness(rho, GF3)
        for _ in range(25):
            rows = {}
            for j in range(1, 13):
                entries = {c: GF3.random_payload(rng)
                           for c in range(1, 13) if rng.random() < 0.4}
                if entries:
                    rows[j] = entries
            target = mx.from_rows(GF3, rows)
            lifted = witness.lift(target, 12)
            if witness.verify(target, lifted, 12) is not None:
                ok = False
                continue
            anchors = [witness.anchor(j) for j in range(1, 13)]
            if cl.preorder_membership(lifted, rho, anchors):
                ok = False
    report(6, "full-class witnesses lift arbitrary targets", ok)


def test_criterion_07_fear_witness():
    descriptor = fr.diagonal_fearing()
    run, _, _ = cli.run(["fear", "--ring", "GF:3", "--blocks", "8"])
    ok = (not run.failed and len(run.doc["checks"]) == 8
          and all(c["verdict"] == "pass" for c in run.doc["checks"]))
    witness = fr.fear_witness(descriptor, {"s": shift(GF3)}, 8, GF3)
    # x_j = e_start and y_j = e_escape.
    ok = ok and len(witness.pairs) == 8 and all(
        FinVec.unit(GF3, p.start).apply(witness.g) == FinVec.unit(GF3, p.escape)
        and p.escape not in p.cover for p in witness.pairs)
    start = time.monotonic()
    env2 = {"s": shift(GF2)}
    witness2 = fr.fear_witness(descriptor, env2, 2, GF2)
    for p in witness2.pairs:
        res = proximity_oracle(FinVec.unit(GF2, p.start),
                               FinVec.unit(GF2, p.escape), env2, p.j)
        if res.found:
            ok = False
    elapsed = time.monotonic() - start
    report(7, f"fear certificates + oracle confirmation ({elapsed:.1f}s)",
           ok and elapsed < 60.0)


def test_criterion_08_ball_containment():
    rng = random.Random(8)
    env = {"s": shift(GF3), "t": mx.from_index_map(GF3, lambda a: a + 2)}

    def random_word(depth):
        """A random word and its length."""
        if depth == 0 or rng.random() < 0.4:
            return rng.choice([ZERO, ONE, NEG_ONE, Gen("s"), Gen("t")]), 1
        ctor = rng.choice([Sum, Prod])
        (left, m), (right, n) = random_word(depth - 1), random_word(depth - 1)
        return ctor(left, right), m + n

    violations = 0
    for _ in range(200):
        w, length = random_word(3)
        x = FinVec(GF3, {rng.randint(1, 15): rng.randrange(1, 3)
                         for _ in range(rng.randint(1, 3))})
        val = x.apply(eval_word(w, env, GF3))
        cover = support_closure(x, lambda a: {a}, env, length).cover
        if not val.support() <= cover:
            violations += 1
    report(8, "support of word values inside closure covers (200 pairs)",
           violations == 0)


def test_criterion_09_simple_full_census():
    census = cl.simple_full_check(2, 2)
    two_element_preorders = {
        ((1, 1), (2, 2)),
        ((1, 1), (1, 2), (2, 2)),
        ((1, 1), (2, 1), (2, 2)),
        ((1, 1), (1, 2), (2, 1), (2, 2)),
    }
    ok = census.count == 4 and set(census.preorders) == two_element_preorders
    report(9, "4 diagonal-containing subrings of the 2x2 matrices over GF(2)",
           ok)


def test_criterion_10_lower_embedding():
    ok = True
    for make in (lambda: fr.banded_fearing(1), lambda: fr.stretch_fearing(2),
                 fr.paired_fearing):
        descriptor = make()
        g, f = tr.fear_lower_embed(descriptor, GF5)
        if mx.first_mismatch(mx.compose(g, f), mx.identity_map(GF5), 64) is not None:
            ok = False
        for seed in range(20):
            h = descriptor.sample(GF5, seed)
            fh = mx.compose(f, h)
            if cl.preorder_membership(fh, parse_preorder("ge"), range(1, 65)):
                ok = False
    report(10, "lower embedding: g*f = 1 and f*h lower-triangular", ok)


def test_criterion_11_determinism():
    ok = True
    for argv in (["two-gen", "--window", "24"],
                 ["classify", "--preorder", "le"],
                 ["sandwich", "--count", "3", "--window", "12"],
                 ["witness", "--preorder", "mod:2:(1,2)", "--count", "3"],
                 ["fear", "--blocks", "4"],
                 ["simple-full"],
                 ["oracle", "--ring", "Zmod:5", "--x1", "1:1",
                  "--x2", "3:2", "--r-max", "3"]):
        first, _, _ = cli.run(argv)
        second, _, _ = cli.run(argv)
        if first.to_json() != second.to_json():
            ok = False
        json.loads(first.to_json())  # must stay valid JSON
    report(11, "byte-identical reports for repeated runs", ok)


def test_criterion_11_determinism_across_hash_seeds(tmp_path):
    src = str(Path(rowfin.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ok = True
    for name, argv in (("two-gen", ["two-gen", "--window", "24"]),
                       ("sandwich", ["sandwich", "--count", "3", "--window", "12"]),
                       ("oracle", ["oracle", "--ring", "Zmod:5", "--x1", "1:1",
                                   "--x2", "3:2", "--r-max", "3"]),
                       ("simple-full-2-3", ["simple-full", "--n", "2", "--p", "3"]),
                       ("simple-full-3-2", ["simple-full", "--n", "3", "--p", "2"]),
                       ("fear", ["fear", "--blocks", "4", "--oracle-max", "2"]),
                       ("fear-oracle-5", ["fear", "--ring", "GF:2", "--blocks", "5",
                                          "--oracle-max", "5"]),
                       ("oracle-6", ["oracle", "--ring", "GF:2", "--x1", "1:1",
                                     "--x2", "9:1", "--r-max", "6"]),
                       ("witness-le", ["witness", "--preorder", "le"]),
                       ("witness-mod", ["witness", "--preorder", "mod:3:(1,2)"])):
        outputs = []
        for hash_seed in ("1", "99"):
            path = tmp_path / f"{name}-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-m", "rowfin.cli", *argv,
                            "--out", str(path)], env=env, check=True,
                           capture_output=True, timeout=120)
            outputs.append(path.read_bytes())
        json.loads(outputs[0])
        if outputs[0] != outputs[1]:
            ok = False
    report(11, "byte-identical reports across processes, PYTHONHASHSEED 1/99", ok)
