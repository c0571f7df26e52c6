import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from oracle_reference import phi, u_word

from rowfin import classify as cl
from rowfin import cli
from rowfin import fearing as fr
from rowfin import matrices as mx
from rowfin import triangular as tr
from rowfin import twogen as tg
from rowfin import words as wd
from rowfin.indexing import AffineTable
from rowfin.rings import parse_ring_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def run_json(argv):
    report, _, _ = cli.run(argv)
    return report, json.loads(report.to_json())


def test_two_gen_units_pass():
    report, doc = run_json(["two-gen", "--ring", "GF:3", "--window", "32"])
    assert not report.failed
    names = {c["name"] for c in doc["checks"]}
    assert {"construction", "g1 word", "u0 word"} <= names
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    assert "f1" in doc["witnesses"] and "words" in doc["witnesses"]


def test_two_gen_empty_family():
    report, doc = run_json(["two-gen", "--family", "empty", "--window", "20"])
    assert not report.failed
    # g3 is the zero map, so its sparse witness would be empty; the five
    # g-identities still verify.
    assert {c["name"] for c in doc["checks"]} == {
        "construction", "g1 word", "g2 word", "g3 word", "g4 word", "g5 word"}


@pytest.mark.parametrize("count, indices", [
    (1, [0]), (2, [-1, 0]), (3, [-1, 0, 1]), (5, [-2, -1, 0, 1, 2]),
    (8, [-4, -3, -2, -1, 0, 1, 2, 3])])
def test_two_gen_units_count(count, indices):
    """--count sets the units family: u_i = e_(1, i + count // 2 + 1)."""
    report, doc = run_json(["two-gen", "--count", str(count), "--window", "12"])
    assert not report.failed
    assert [c["name"] for c in doc["checks"]][6:] == [f"u{i} word"
                                                     for i in indices]
    assert sorted(doc["witnesses"]["words"], key=int) == [str(i) for i in indices]
    source = cli.builtin_family("units", parse_ring_spec("GF:3"), 0, count)
    assert {i: sorted(f.row(1).entries) for i, f in source.items()} == {
        i: [i + count // 2 + 1] for i in indices}


def test_two_gen_empty_family_records_no_count():
    _, doc = run_json(["two-gen", "--family", "empty", "--count", "9",
                       "--window", "4"])
    assert "count" not in doc["config"]
    assert doc == run_json(["two-gen", "--family", "empty", "--window", "4"])[1]


def test_two_gen_corrupt_fails():
    report, doc = run_json(["two-gen", "--window", "20", "--corrupt"])
    assert report.failed
    failing = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert failing and "row" in failing[0]["detail"]


def test_a_broken_g_family_fails_the_construction_check(monkeypatch):
    build = tg.build_g_family

    def broken(source, ring):
        return {**build(source, ring), 5: mx.identity_map(ring)}

    monkeypatch.setattr(tg, "build_g_family", broken)
    report, doc = run_json(["two-gen", "--window", "16"])
    assert report.failed
    assert len(doc["checks"]) == 1 + 5 + 5
    construction = doc["checks"][0]
    assert (construction["name"], construction["verdict"]) == ("construction", "fail")
    assert construction["detail"].startswith("g4*g5 = 1 failed: row 1:")


def test_a_wrong_f1_row_fails_both_reports(monkeypatch, capsys):
    """f1 wrong at row 3 only: the g-word checks must catch it, and each
    report must end in FAIL, not a traceback.  f1's table is swapped for
    the oracle function with that row edited."""
    monkeypatch.setattr(tg, "PHI", lambda k: phi(k) + 7 if k == 3 else phi(k))
    report, doc = run_json(["two-gen", "--window", "16"])
    assert report.failed
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert verdicts["construction"] == "pass"
    assert "fail" in {verdicts[f"g{i} word"] for i in range(1, 6)}
    assert len(doc["checks"]) == 1 + 5 + 5
    report, doc = run_json(["maltsev", "--ring", "Zmod:6", "--count", "6"])
    assert report.failed
    verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
    assert len(verdicts) == 1 + 5 + 6 + 2
    assert verdicts["construction"] == verdicts["hom"] == "pass"
    g1 = next(c for c in doc["checks"] if c["name"] == "g1 word")
    assert (g1["verdict"], g1["detail"][:6]) == ("fail", "row 1:")
    assert cli.main(["maltsev", "--count", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("residue", range(7))
def test_a_one_entry_edit_of_f1s_table_fails_both_reports(monkeypatch, residue):
    """7 added to the offset of one residue's entry of f1's table: the
    g-word checks of `two-gen` and `maltsev` must catch it."""
    entries = list(tg.PHI.entries)
    num, den, off = entries[residue]
    entries[residue] = (num, den, off + 7)
    monkeypatch.setattr(tg, "PHI", AffineTable(7, entries))
    for argv in (["two-gen"], ["maltsev", "--ring", "Zmod:6", "--count", "6"]):
        report, doc = run_json(argv)
        verdicts = {c["name"]: c["verdict"] for c in doc["checks"]}
        assert report.failed and verdicts["construction"] == "pass"
        assert {verdicts[f"g{i} word"] for i in range(1, 6)} == {"fail"}, argv


@pytest.mark.parametrize("argv", [
    ["two-gen", "--family", "random", "--seed", "7", "--corrupt"],
    ["maltsev", "--corrupt"],
])
def test_corrupt_reports_fail(argv, capsys):
    report, doc = run_json(argv)
    assert report.failed
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_exit_codes(capsys):
    assert cli.main(["classify", "--preorder", "le"]) == 0
    assert cli.main(["two-gen", "--window", "16", "--corrupt"]) == 1
    out = capsys.readouterr().out
    assert "EClass" in out and "[FAIL]" in out


def test_determinism_byte_identical():
    for argv in (["two-gen", "--window", "20"],
                 ["classify", "--preorder", "mod:3:(1,2)"],
                 ["sandwich", "--count", "3", "--window", "10"],
                 ["fear", "--blocks", "4"]):
        first, _ = run_json(argv)
        second, _ = run_json(argv)
        assert first.to_json() == second.to_json()


def test_wall_time_only_in_pretty():
    report, _ = run_json(["classify", "--preorder", "diag"])
    assert "wall-time" in report.pretty(0.25)
    assert "wall-time" not in report.to_json()
    assert "0.250s" in report.pretty(0.25)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(["classify", "--preorder", "ge", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["subcommand"] == "classify"
    assert doc["witnesses"]["verdict"] == "DClass"
    # JSON goes to the file, not stdout.
    out = capsys.readouterr().out
    assert "subcommand" not in out


@pytest.mark.parametrize("target, reason", [
    ("missing/x.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_1_without_a_traceback(target, reason, tmp_path):
    proc = run_child(["-m", "rowfin.cli", "classify", "--preorder", "le",
                      "--out", target], cwd=tmp_path, capture_output=True)
    assert proc.returncode == 1
    assert b"EClass" in proc.stdout  # the report is still printed
    assert proc.stderr.decode() == f"rowfin: cannot write {target}: {reason}\n"


def test_classify_verdicts():
    _, doc = run_json(["classify", "--preorder", "le"])
    assert doc["witnesses"]["verdict"] == "EClass"
    _, doc = run_json(["classify", "--preorder", "union-finite:(1,2)"])
    assert doc["witnesses"]["verdict"] == "DClass"
    report, _ = run_json(["classify", "--preorder", "bogus"])
    assert report.failed


def test_maltsev_subcommand():
    report, doc = run_json(["maltsev", "--ring", "Zmod:6", "--count", "6",
                            "--window", "16"])
    assert not report.failed
    # The formatted word trees are the oracle for the joined texts.
    assert doc["witnesses"]["words"] == {str(i): wd.format_word(u_word(i))
                                         for i in range(6)}
    report, _ = run_json(["maltsev", "--count", "4", "--window", "12",
                          "--corrupt"])
    assert report.failed


def test_maltsev_corrupt_fails_in_the_word_check(capsys):
    argv = ["maltsev", "--count", "4", "--window", "12", "--corrupt"]
    report, doc = run_json(argv)
    assert report.failed
    failing = [c for c in doc["checks"] if c["verdict"] == "fail"]
    assert [c["name"] for c in failing] == ["u0 word"]
    assert failing[0]["detail"].startswith("row 1: got FinVec(), expected FinVec(2:1)")
    _, clean = run_json(argv[:-1])
    assert doc["witnesses"] == clean["witnesses"]
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_sandwich_subcommand():
    report, doc = run_json(["sandwich", "--ring", "GF:5", "--count", "4",
                            "--window", "12"])
    assert not report.failed
    assert len(doc["checks"]) == 8  # AXB and diagonal membership per trial
    # The planted (1,1) cell keeps X diagonal; the one AXB check sees it.
    report, doc = run_json(["sandwich", "--count", "2", "--window", "10",
                            "--corrupt"])
    assert [c["verdict"] for c in doc["checks"]] == ["fail", "pass"] * 2
    for check in doc["checks"][::2]:
        assert check["detail"].startswith("row 1: got")


def test_sandwich_checks_diagonality_on_every_row_axb_reads(monkeypatch):
    # Row 40 lies in block 9, past the window of 10 but inside T(10) = 55.
    # Columns 15 and 41 both go to column 5 under B, so the two planted
    # cells cancel in AXB and only the diagonality check can see them.
    make_x = tr.sandwich_X

    def planted(Y):
        extra = mx.from_rows(Y.ring, {40: {15: -1, 41: 1}})
        return mx.add_maps(make_x(Y), extra)

    monkeypatch.setattr(tr, "sandwich_X", planted)
    report, doc = run_json(["sandwich", "--ring", "Int", "--count", "2",
                            "--window", "10"])
    assert [c["verdict"] for c in doc["checks"]] == ["pass", "fail"] * 2
    assert all(c["detail"] == "(40, 15)" for c in doc["checks"][1::2])


def _y_through_from_rows(ring, rng, window):
    """Sandwich's Y from the same draws, canonicalised again by from_rows."""
    rows = {}
    for i in range(1, window + 1):
        entries = {c: ring.random_payload(rng)
                   for c in range(1, i + 1) if rng.random() < 0.5}
        if entries:
            rows[i] = entries
    return mx.from_rows(ring, rows)


def _two_pass_rows(ring, rng, window):
    """The replaced draw of Y's rows: a dict of draws, then one without zeros."""
    rows = {}
    for i in range(1, window + 1):
        entries = {c: ring.random_payload(rng)
                   for c in range(1, i + 1) if rng.random() < 0.5}
        entries = {c: v for c, v in entries.items() if not ring.is_zero(v)}
        if entries:
            rows[i] = entries
    return rows


@pytest.mark.parametrize("spec", ["Mat:2:GF:2", "GF:5", "GF:2", "Zmod:6",
                                  "Mat:3:Zmod:6"])
def test_one_pass_y_draws_match_the_two_pass_draws(spec):
    ring = parse_ring_spec(spec)
    for seed in range(6):
        fast, slow = random.Random(seed), random.Random(seed)
        for window in (1, 5, 17):
            Y = cli._random_lower_triangular(ring, fast, window)
            rows = _two_pass_rows(ring, slow, window)
            assert fast.getstate() == slow.getstate()
            for i in range(1, window + 3):
                assert Y.row(i).entries == rows.get(i, {}), (spec, seed, i)


@pytest.mark.parametrize("ring", ["Mat:2:GF:2", "GF:5"])
@pytest.mark.parametrize("corrupt", [False, True])
def test_sandwich_y_from_canonical_payloads_matches_from_rows(ring, corrupt,
                                                              monkeypatch):
    argv = ["sandwich", "--ring", ring, "--count", "3", "--window", "9"]
    argv += ["--corrupt"] if corrupt else []
    report, _, _ = cli.run(argv)
    assert report.failed == corrupt
    monkeypatch.setattr(cli, "_random_lower_triangular", _y_through_from_rows)
    assert cli.run(argv)[0].to_json() == report.to_json()


def test_witness_subcommand():
    report, doc = run_json(["witness", "--preorder", "le", "--count", "4"])
    assert not report.failed
    assert doc["checks"][0]["detail"] == "anchors in class 1, bars in class 1"
    report, _ = run_json(["witness", "--preorder", "mod:2:(1,2)",
                          "--count", "3", "--window", "8"])
    assert not report.failed
    # The extra cell lies on bar 1, so the sandwich check sees it in every
    # trial, whatever the window.
    for spec in ("le", "full", "mod:2:(1,2)", "mod:3:(1,2)"):
        for window in ("12", "13"):
            report, doc = run_json(["witness", "--preorder", spec, "--count",
                                    "2", "--window", window, "--corrupt"])
            assert [c["verdict"] for c in doc["checks"]] == [
                "pass", "fail", "fail"], (spec, window)
            assert doc["checks"][1]["detail"].startswith(
                "sandwich mismatch: row 1")
    report, _ = run_json(["witness", "--preorder", "ge", "--count", "1"])
    assert report.failed  # DClass preorders have no full-class witness


def test_witness_lift_outside_the_preorder_fails_its_trial(monkeypatch):
    # Bars in class 3, which class 1 does not reach: the sandwich holds, and
    # only the membership check sees the lift.
    monkeypatch.setattr(cl, "eclass_witness",
                        lambda rho, ring: cl.EquivWitness(rho, ring, 1, 3))
    report, doc = run_json(["witness", "--preorder", "mod:3:(1,2)",
                            "--count", "2", "--window", "6"])
    assert report.failed
    assert doc["checks"][1:] == [
        {"detail": "lift violates membership at (1, 24)", "name": f"trial {k}",
         "verdict": "fail"} for k in range(2)]


def test_fear_subcommand():
    report, doc = run_json(["fear", "--ring", "GF:3", "--blocks", "8"])
    assert not report.failed
    assert len(doc["witnesses"]["blocks"]) == 8
    report, doc = run_json(["fear", "--ring", "GF:2", "--blocks", "2",
                            "--oracle-max", "2"])
    assert not report.failed
    oracle_checks = [c for c in doc["checks"] if "oracle" in c["name"]]
    assert len(oracle_checks) == 2
    report, _ = run_json(["fear", "--blocks", "2", "--corrupt"])
    assert report.failed


def test_fear_corrupt_fails_in_the_escape_check(capsys):
    """For every descriptor, only block 1's escape check fails."""
    for descriptor in sorted(cli._DESCRIPTORS):
        plain = ["fear", "--descriptor", descriptor, "--blocks", "4"]
        _, clean = run_json(plain)
        argv = [*plain, "--corrupt"]
        report, doc = run_json(argv)
        assert report.failed
        verdicts = [c["verdict"] for c in doc["checks"]]
        assert verdicts == ["fail", "pass", "pass", "pass"], descriptor
        before, after = clean["checks"][0]["detail"], doc["checks"][0]["detail"]
        size = int(before.rsplit("=", 1)[1])
        assert after == before.replace(f"cover_size={size}", f"cover_size={size + 1}")
        assert doc["checks"][1:] == clean["checks"][1:]
        assert doc["witnesses"] == clean["witnesses"]
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_fear_oracle_max_confirms_blocks_1_to_k():
    report, doc = run_json(["fear", "--blocks", "4", "--oracle-max", "3"])
    assert not report.failed
    oracle_checks = [c["name"] for c in doc["checks"] if "oracle" in c["name"]]
    assert oracle_checks == ["block 1 oracle", "block 2 oracle", "block 3 oracle"]


def test_maltsev_infinite_matrix_ring_checks_its_centre(capsys):
    report, doc = run_json(["maltsev", "--ring", "Mat:2:Int", "--count", "3",
                            "--window", "8"])
    assert not report.failed
    assert [c["name"] for c in doc["checks"]] == [
        "construction", "g1 word", "g2 word", "g3 word", "g4 word", "g5 word",
        "u0 word", "u1 word", "u2 word", "hom", "centre"]
    assert {c["verdict"] for c in doc["checks"]} == {"pass"}
    # Of the first three payloads only the zero matrix is central: one
    # element against f1, f3 and 20 samples.
    assert doc["checks"][-1]["detail"] == "22 checks"
    assert cli.main(["maltsev", "--ring", "Mat:2:Int", "--count", "3",
                     "--window", "8"]) == 0
    json.loads(capsys.readouterr().out.splitlines()[-1])


MALTSEV_TOO_MANY = (
    '{"checks":[{"detail":"count 7 exceeds the 6 elements of Zmod:6",'
    '"name":"embedding","verdict":"warn"}],"config":{"corrupt":false,'
    '"count":7,"ring":"Zmod:6","seed":0,"window":16},"subcommand":"maltsev",'
    '"witnesses":{}}\n'
)


def test_maltsev_count_beyond_ring_size_report_bytes(capsys):
    report, _, _ = cli.run(["maltsev", "--ring", "Zmod:6", "--count", "7"])
    assert report.to_json() == MALTSEV_TOO_MANY
    argv = ["maltsev", "--ring", "GF:2", "--count", "5"]
    _, doc = run_json(argv)
    assert doc["checks"] == [{"name": "embedding", "verdict": "warn",
                              "detail": "count 5 exceeds the 2 elements of GF:2"}]
    assert cli.main(argv) == 0
    capsys.readouterr()


def failing_checks(argv):
    report, doc = run_json(argv)
    return [c for c in doc["checks"] if c["verdict"] == "fail"]


def test_fear_reports_a_wrong_block_map_as_a_failed_certificate(monkeypatch,
                                                                capsys):
    """x_1 g != y_1: block 1's certificate fails in the report, no traceback."""
    build = fr.fear_witness

    def broken(descriptor, u_maps, J, ring):
        witness = build(descriptor, u_maps, J, ring)
        first = witness.pairs[0].start
        stray = mx.matrix_unit(ring, first, first)
        return fr.FearWitness(witness.pairs, mx.add_maps(witness.g, stray))

    monkeypatch.setattr(fr, "fear_witness", broken)
    argv = ["fear", "--blocks", "3"]
    [check] = failing_checks(argv)
    assert check["name"] == "block 1 escape certificate"
    assert check["detail"] == ("escape=3 cover_size=2; x_j g: got "
                               "FinVec(1:1, 3:1), expected FinVec(3:1)")
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_fear_reports_an_escape_outside_y_as_a_failed_certificate(
        monkeypatch):
    """The escape moved past g's target: x_1 g = e_3 misses y_1 = e_4."""
    build = fr.fear_witness

    def broken(descriptor, u_maps, J, ring):
        witness = build(descriptor, u_maps, J, ring)
        first = witness.pairs[0]
        moved = fr.FearPair(first.j, first.start, first.escape + 1,
                            first.cover)
        return fr.FearWitness([moved, *witness.pairs[1:]], witness.g)

    monkeypatch.setattr(fr, "fear_witness", broken)
    [check] = failing_checks(["fear", "--blocks", "3"])
    assert check["name"] == "block 1 escape certificate"
    assert check["detail"] == ("escape=4 cover_size=2; x_j g: got "
                               "FinVec(3:1), expected FinVec(4:1)")


MALTSEV = ["maltsev", "--ring", "Zmod:6", "--count", "6"]


# The g-map swapped for the identity, and the construction check's detail.
# g4 and g5 both break g4*g5 = 1 first.
IDENTITY_SWAPS = {
    1: "g2*g1 = pi_sigma failed: row 4: got FinVec(3:1), expected FinVec(4:1)",
    2: "g2*g1 = pi_sigma failed: row 3: got FinVec(4:1), expected FinVec()",
    4: "g4*g5 = 1 failed: row 1: got FinVec(3:1), expected FinVec(1:1)",
    5: "g4*g5 = 1 failed: row 1: got FinVec(6:1), expected FinVec(1:1)",
}


@pytest.mark.parametrize("argv", [["two-gen", "--family", "empty", "--window", "16"],
                                  ["maltsev", "--count", "1"]],
                         ids=["two-gen", "maltsev"])
@pytest.mark.parametrize("swapped", sorted(IDENTITY_SWAPS))
def test_an_identity_g_map_fails_only_the_construction_check(monkeypatch, argv,
                                                             swapped):
    """f1 and f3 are built from the broken g-maps, so their g-words still
    match them.  The empty family has no u-words, and maltsev's u0 sends
    the zero image through g3, so it stays zero."""
    build = tg.build_g_family

    def broken(source, ring):
        return {**build(source, ring), swapped: mx.identity_map(ring)}

    monkeypatch.setattr(tg, "build_g_family", broken)
    [check] = failing_checks(argv)
    assert check == {"name": "construction", "verdict": "fail",
                     "detail": IDENTITY_SWAPS[swapped]}


def test_maltsev_perturbed_f3_fails_only_a_g_word_check(monkeypatch):
    build = tg.build_two_generators

    def broken(gmaps):
        f1, f3 = build(gmaps)
        # f3's row 5 is row 1 of g4; no u-word reads it on the window.
        return f1, mx.add_maps(f3, mx.matrix_unit(f3.ring, 5, 1))

    monkeypatch.setattr(tg, "build_two_generators", broken)
    [check] = failing_checks(MALTSEV)
    assert check["name"] == "g4 word"
    assert check["detail"].startswith("row 1:")


@pytest.mark.parametrize("argv", [["two-gen", "--family", "random", "--seed", "7"],
                                  MALTSEV])
def test_shifted_f3_piece_fails_the_g4_word_check(monkeypatch, argv):
    """f3's class-5 piece reads row j + 1 of g4 for row j: the g4 word,
    whose chains walk that piece, fails, and no other g-word does."""
    build = tg.build_two_generators

    def shifted(gmaps):
        f1, f3 = build(gmaps)
        classify, table = f3.cases
        pieces = {c: None if case is None else case[:2] for c, case in table.items()}
        reindex, g4 = pieces[5]
        pieces[5] = (lambda a: reindex(a) + 1, g4)
        return f1, mx.Piecewise(f3.ring, classify, pieces)

    monkeypatch.setattr(tg, "build_two_generators", shifted)
    failed = [c["name"] for c in failing_checks(argv)]
    assert [name for name in failed if not name.startswith("u")] == ["g4 word"]


def test_maltsev_non_additive_image_fails_only_the_hom_check(monkeypatch):
    embed = tg.maltsev_embed

    def broken(ring, count):
        images = embed(ring, count)
        # The words reproduce whatever images they are given.
        images[1] = mx.add_maps(images[1], mx.matrix_unit(ring, 1, 2))
        return images

    monkeypatch.setattr(tg, "maltsev_embed", broken)
    [check] = failing_checks(MALTSEV)
    assert check["name"] == "hom"
    assert check["detail"] == ("add (0,1) failed: row 1: "
                               "got FinVec(1:1, 2:1), expected FinVec(1:1)")


def test_maltsev_non_central_payload_fails_only_the_centre_check(monkeypatch):
    ring = parse_ring_spec("Mat:2:GF:2")
    unit = ring.parse_payload("[[0,1],[0,0]]")
    monkeypatch.setattr(ring, "is_central", lambda a: a in (ring.zero, unit))
    [check] = failing_checks(["maltsev", "--ring", "Mat:2:GF:2", "--count", "16",
                              "--window", "32"])
    assert check["name"] == "centre"
    assert check["detail"].startswith("[[0,1],[0,0]] commutes with ")


@pytest.mark.parametrize("argv, detail", [
    (["two-gen", "--ring", "GF:4"], "4 is not prime"),
    (["sandwich", "--ring", "Bogus"], "malformed ring spec: 'Bogus'"),
    (["fear", "--ring", "Zmod:0"], "modulus must be >= 2, got 0"),
    (["oracle", "--x1", "1:x"], "malformed vector entry '1:x'"),
    (["oracle", "--x1", "0:1"], "malformed vector '0:1': index must be >= 1"),
    (["oracle", "--in", "missing.sparse"],
     "--in missing.sparse: [Errno 2] No such file or directory"),
    (["oracle", "--in", "no-header.sparse"],
     "--in no-header.sparse: missing `ring <spec>` header"),
    (["oracle", "--in", "bad-triple.sparse"],
     "--in bad-triple.sparse: malformed triple line: '1 5'"),
    (["oracle", "--in", "row-0.sparse"],
     "--in row-0.sparse: row index must be >= 1, got 0"),
    (["oracle", "--in", "row-minus-2.sparse"],
     "--in row-minus-2.sparse: row index must be >= 1, got -2"),
    (["oracle", "--ring", "GF:3", "--x1", "1:1,1:2", "--x2", "2:2", "--r-max", "1"],
     "malformed vector '1:1,1:2': repeated index 1"),
    (["oracle", "--x1", "0:0,1:1"], "malformed vector '0:0,1:1': index must be >= 1"),
    (["oracle", "--in", "col-0-zero.sparse"],
     "--in col-0-zero.sparse: index must be >= 1, got 0"),
], ids=["two-gen-GF:4", "sandwich-Bogus", "fear-Zmod:0", "oracle-1:x", "oracle-0:1",
        "oracle-in-missing", "oracle-in-no-header", "oracle-in-bad-triple",
        "oracle-in-row-0", "oracle-in-row-minus-2", "oracle-repeated-index",
        "oracle-0:0", "oracle-in-col-0-zero"])
def test_bad_input_is_a_structured_failure(argv, detail, capsys, tmp_path,
                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no-header.sparse").write_text("1 5 1\n")
    (tmp_path / "bad-triple.sparse").write_text("ring GF:2\n1 5\n")
    (tmp_path / "row-0.sparse").write_text("ring GF:2\n0 5 1\n")
    (tmp_path / "row-minus-2.sparse").write_text("ring GF:2\n-2 3 1\n")
    (tmp_path / "col-0-zero.sparse").write_text("ring GF:2\n1 0 0\n")
    report, doc = run_json(argv)
    assert report.failed
    [check] = doc["checks"]
    assert (check["name"], check["verdict"]) == ("input", "fail")
    assert check["detail"].startswith(detail)
    assert doc["subcommand"] == argv[0]
    assert doc["config"] == cli._config(cli._parser().parse_args(argv))
    assert cli.main(argv) == 1
    json.loads(capsys.readouterr().out.splitlines()[-1])


SIZES_BELOW_MINIMUM = [
    (["two-gen", "--window", "0"], "--window must be >= 1, got 0"),
    (["sandwich", "--window", "0", "--count", "1"], "--window must be >= 1"),
    (["maltsev", "--window", "0"], "--window must be >= 1"),
    (["witness", "--preorder", "le", "--window", "0"], "--window must be >= 1"),
    (["maltsev", "--count", "-1"], "--count must be >= 1, got -1"),
    (["fear", "--blocks", "0"], "--blocks must be >= 1, got 0"),
    (["sandwich", "--count", "0"], "--count must be >= 1, got 0"),
    (["fear", "--blocks", "2", "--oracle-max", "-1"],
     "--oracle-max must be >= 0, got -1"),
    (["oracle", "--r-max", "-1"], "--r-max must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv, detail", SIZES_BELOW_MINIMUM,
                         ids=[" ".join(argv) for argv, _ in SIZES_BELOW_MINIMUM])
def test_size_below_its_minimum_is_an_input_failure(argv, detail, capsys):
    report, _, args = cli.run(argv)
    doc = json.loads(report.to_json())
    assert report.failed
    [check] = doc["checks"]
    assert (check["name"], check["verdict"]) == ("input", "fail")
    assert check["detail"].startswith(detail)
    # The report keeps the parsed config, the offending option included.
    assert (doc["subcommand"], doc["config"]) == (argv[0], cli._config(args))
    for option, value in zip(argv[1::2], argv[2::2]):
        assert str(doc["config"][option[2:].replace("-", "_")]) == value
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_classify_takes_no_bound(capsys):
    with pytest.raises(SystemExit):
        cli.run(["classify", "--preorder", "le", "--bound", "40"])
    assert "unrecognized arguments: --bound" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--window", "--seed"])
def test_fear_takes_no_window_or_seed(option, capsys):
    with pytest.raises(SystemExit):
        cli.run(["fear", option, "3", "--blocks", "2"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_one_parser_serves_a_sequence_of_reports(tmp_path, monkeypatch, capsys):
    """Reports through the shared parser equal those of a fresh parser.

    The sequence alternates options on and off, puts an argv argparse
    rejects before a valid one, and ends on an input failure, so an
    option left over from the call before would show in a report.
    """
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.sparse").write_text("ring GF:2\n1 5 1\n")
    oracle = ["oracle", "--x1", "1:1", "--x2", "5:1", "--r-max", "1"]
    sequence = [["two-gen", "--corrupt"], ["two-gen"],
                [*oracle, "--in", "m.sparse"], oracle,
                ["oracle", "--r-max", "three"], ["oracle", "--x2", "2:1"],
                ["two-gen", "--ring", "GF:4"]]

    def outcomes():
        out = []
        for argv in sequence:
            try:
                out.append(json.loads(cli.run(argv)[0].to_json()))
            except SystemExit as exc:
                out.append(exc.code)
        return out

    assert cli._parser() is cli._parser()
    shared = outcomes()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == shared
    assert "invalid int value: 'three'" in capsys.readouterr().err
    corrupt, plain, with_in, without_in, rejected, valid, bad_ring = shared

    def failed(doc):
        return any(c["verdict"] == "fail" for c in doc["checks"])

    assert failed(corrupt) and not failed(plain)
    assert (corrupt["config"]["corrupt"], plain["config"]["corrupt"]) == (True, False)
    assert with_in["witnesses"]["found"] and not without_in["witnesses"]["found"]
    assert (with_in["config"]["infile"], without_in["config"]["infile"]) == (
        "m.sparse", None)
    assert rejected == 2
    assert valid["config"]["r_max"] == 3 and valid["witnesses"]["found"]
    assert failed(bad_ring) and bad_ring["checks"][0]["name"] == "input"


def test_oracle_over_a_matrix_ring():
    ring = parse_ring_spec("Mat:2:GF:2")
    one = "[[1,0],[0,1]]"
    report, doc = run_json(["oracle", "--ring", "Mat:2:GF:2", "--x1", f"1:{one}",
                            "--x2", f"2:{one}", "--r-max", "2"])
    assert not report.failed
    assert doc["checks"] == [{"name": "proximity", "verdict": "pass",
                              "detail": "found at length 1"}]
    assert doc["witnesses"] == {"found": True, "word": "s"}
    direct = wd.proximity_oracle(
        mx.FinVec(ring, {1: ring.one}), mx.FinVec(ring, {2: ring.one}),
        {"s": mx.from_index_map(ring, lambda a: a + 1)}, 2)
    assert (direct.found, direct.r, wd.format_word(direct.witness)) == (
        True, 1, "s")
    # Two entries: the commas inside each payload do not split the vector.
    swap = "[[0,1],[1,0]]"
    report, doc = run_json(["oracle", "--ring", "Mat:2:GF:2",
                            "--x1", f"1:{one},3:{swap}",
                            "--x2", f"2:{one},4:{swap}", "--r-max", "2"])
    assert not report.failed
    assert doc["witnesses"] == {"found": True, "word": "s"}


def readme_cli_examples():
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("rowfin ")]


def test_readme_cli_examples_pass():
    examples = readme_cli_examples()
    assert len(examples) >= 9
    failing = [argv for argv in examples if cli.run(argv)[0].failed]
    assert failing == []


def test_simple_full_subcommand():
    report, doc = run_json(["simple-full", "--n", "2", "--p", "2"])
    assert not report.failed
    assert doc["witnesses"]["count"] == 4
    report, doc = run_json(["simple-full", "--n", "3", "--p", "11"])
    assert not report.failed  # infeasible scale is a warning, not a failure
    assert doc["checks"][0]["verdict"] == "warn"


SIMPLE_FULL_2X2 = (
    '{"checks":[{"detail":"count=4","name":"census","verdict":"pass"}],'
    '"config":{"n":2,"p":%d},"subcommand":"simple-full","witnesses":'
    '{"count":4,"preorders":[[[1,1],[2,2]],[[1,1],[2,1],[2,2]],'
    '[[1,1],[1,2],[2,2]],[[1,1],[1,2],[2,1],[2,2]]]}}\n'
)


def test_simple_full_2x2_report_bytes():
    for p in (2, 3):
        report, _, _ = cli.run(["simple-full", "--n", "2", "--p", str(p)])
        assert report.to_json() == SIMPLE_FULL_2X2 % p


WITNESS_CORRUPT = (
    '{"checks":[{"detail":"anchors in class 1, bars in class 1",'
    '"name":"witness construction","verdict":"pass"},'
    '{"detail":"sandwich mismatch: row 1: got FinVec(1:1, 4:2), '
    'expected FinVec(4:2)","name":"trial 0","verdict":"fail"},'
    '{"detail":"sandwich mismatch: row 1: got FinVec(2:2, 3:2, 4:1), '
    'expected FinVec(1:2, 2:2, 3:2, 4:1)","name":"trial 1","verdict":"fail"}],'
    '"config":{"corrupt":true,"count":2,"preorder":"mod:3:(1,2)",'
    '"ring":"GF:3","seed":0,"window":4},"subcommand":"witness",'
    '"witnesses":{}}\n'
)


def test_witness_corrupt_report_bytes():
    report, _, _ = cli.run(["witness", "--preorder", "mod:3:(1,2)", "--count",
                            "2", "--window", "4", "--corrupt"])
    assert report.to_json() == WITNESS_CORRUPT


SANDWICH_CORRUPT = (
    '{"checks":[{"detail":"row 1: got FinVec(1:1), expected FinVec()",'
    '"name":"trial 0 AXB=Y","verdict":"fail"},'
    '{"name":"trial 0 X diagonal","verdict":"pass"},'
    '{"detail":"row 1: got FinVec(1:2), expected FinVec(1:1)",'
    '"name":"trial 1 AXB=Y","verdict":"fail"},'
    '{"name":"trial 1 X diagonal","verdict":"pass"}],'
    '"config":{"corrupt":true,"count":2,"ring":"GF:5","seed":0,"window":3},'
    '"subcommand":"sandwich","witnesses":{}}\n'
)


def test_sandwich_corrupt_report_bytes():
    report, _, _ = cli.run(["sandwich", "--count", "2", "--window", "3",
                            "--corrupt"])
    assert report.to_json() == SANDWICH_CORRUPT


TWO_GEN_EMPTY_CORRUPT = (
    '{"checks":[{"name":"construction","verdict":"pass"},{"detail":"row 1: '
    'got FinVec(1:2), expected FinVec(1:1)","name":"g1 word",'
    '"verdict":"fail"},{"name":"g2 word","verdict":"pass"},{"name":"g3 '
    'word","verdict":"pass"},{"name":"g4 word","verdict":"pass"},'
    '{"name":"g5 word","verdict":"pass"}],"config":{"corrupt":true,'
    '"family":"empty","ring":"GF:3","seed":0,"window":3},'
    '"subcommand":"two-gen","witnesses":{"f1":[[1,2,"1"],[2,3,"1"],[3,4,'
    '"1"]],"f3":[[2,1,"1"],[3,1,"1"]],"words":{}}}\n'
)


def test_two_gen_corrupt_report_bytes():
    """A g1-word mismatch text, and the f1/f3 witnesses as triple arrays."""
    report, _, _ = cli.run(["two-gen", "--family", "empty", "--window", "3",
                            "--corrupt"])
    assert report.to_json() == TWO_GEN_EMPTY_CORRUPT


MALTSEV_MATRIX_CORRUPT = (
    '{"checks":[{"name":"construction","verdict":"pass"},{"name":"g1 word",'
    '"verdict":"pass"},{"name":"g2 word","verdict":"pass"},{"name":"g3 '
    'word","verdict":"pass"},{"name":"g4 word","verdict":"pass"},'
    '{"name":"g5 word","verdict":"pass"},{"detail":"row 1: got FinVec(), '
    'expected FinVec(2:[[1,0],[0,1]])","name":"u0 word","verdict":"fail"},'
    '{"name":"u1 word","verdict":"pass"},{"detail":"8 checks","name":"hom",'
    '"verdict":"pass"},{"detail":"22 checks","name":"centre",'
    '"verdict":"pass"}],"config":{"corrupt":true,"count":2,'
    '"ring":"Mat:2:GF:2","seed":0,"window":3},"subcommand":"maltsev",'
    '"witnesses":{"words":{"0":"((((((((((f1 * f1) * f1) * f1) * f1) * f1) '
    '* f3) * f1) * f3) * ((((((((((f1 * f1) * f1) * f1) * f1) * f1) * f3) '
    '* f1) * f1) * f1) * f3)) * (((((((((f1 * f1) * f1) * f1) * f1) * f1) '
    '* f3) * f1) * f1) * f3))","1":"((((((((((((f1 * f1) * f1) * f1) * f1) '
    '* f1) * f3) * f1) * f3) * (((((((((((f1 * f1) * f1) * f1) * f1) * f1) '
    '* f3) * f1) * f1) * f1) * f1) * f3)) * ((((((((((f1 * f1) * f1) * f1) '
    '* f1) * f1) * f3) * f1) * f1) * f1) * f3)) * ((((((((((((f1 * f1) * '
    'f1) * f1) * f1) * f1) * f3) * f1) * f1) * f1) * f1) * f1) * f3)) * '
    '(((((((((f1 * f1) * f1) * f1) * f1) * f1) * f3) * f1) * f1) * '
    'f3))"}}}\n'
)


def test_maltsev_matrix_corrupt_report_bytes():
    """A u0-word mismatch text with matrix payloads, and the hom and centre counts."""
    report, _, _ = cli.run(["maltsev", "--ring", "Mat:2:GF:2", "--count", "2",
                            "--window", "3", "--corrupt"])
    assert report.to_json() == MALTSEV_MATRIX_CORRUPT


def test_simple_full_three_by_three_and_infeasible_scales():
    report, doc = run_json(["simple-full", "--n", "3", "--p", "2"])
    assert not report.failed
    assert doc["witnesses"]["count"] == 29
    for n, p in (("3", "11"), ("4", "3")):
        report, doc = run_json(["simple-full", "--n", n, "--p", p])
        assert not report.failed
        assert [c["verdict"] for c in doc["checks"]] == ["warn"]
        assert "feasibility" in doc["checks"][0]["detail"]


@pytest.mark.parametrize("n, p", [("130", "2"), ("100000", "3")])
def test_oversized_census_is_a_quick_warning(tmp_path, n, p):
    """The candidate-line count is summed only until it passes the cap,
    so no huge power is computed or formatted."""
    path = tmp_path / "census.json"
    start = time.perf_counter()
    assert cli.main(["simple-full", "--n", n, "--p", p, "--out", str(path)]) == 0
    assert time.perf_counter() - start < 1
    [check] = json.loads(path.read_text())["checks"]
    assert check["name"] == "census" and check["verdict"] == "warn"
    assert "feasibility" in check["detail"]


@pytest.mark.parametrize("argv, status, name", [
    (["two-gen", "--ring", "GF:100000000000000000039", "--window", "4"], 0, None),
    (["simple-full", "--n", "1", "--p", "100000000000000000039"], 0, None),
    (["two-gen", "--ring", f"GF:{2**89 - 1}", "--window", "4"], 1, "input"),
    (["simple-full", "--n", "1", "--p", f"{2**89 - 1}"], 1, "census"),
], ids=["two-gen-prime", "simple-full-prime", "two-gen-over", "simple-full-over"])
def test_large_prime_moduli_answer_at_once(tmp_path, argv, status, name):
    """A 21-digit prime is certified without trial division up to its root,
    and a prime modulus above the certified bound is a structured failure."""
    path = tmp_path / "large.json"
    start = time.perf_counter()
    assert cli.main(argv + ["--out", str(path)]) == status
    assert time.perf_counter() - start < 1
    checks = json.loads(path.read_text())["checks"]
    failed = [c for c in checks if c["verdict"] == "fail"]
    if name is None:
        assert not failed
    else:
        assert [c["name"] for c in failed] == [name]
        assert "must be below 3317044064679887385961981" in failed[0]["detail"]


def test_simple_full_non_prime_is_a_structured_failure():
    report, doc = run_json(["simple-full", "--n", "2", "--p", "4"])
    assert report.failed
    assert doc["checks"] == [{"detail": "4 is not prime", "name": "census",
                              "verdict": "fail"}]


def test_oracle_subcommand():
    _, doc = run_json(["oracle", "--ring", "Zmod:5", "--x1", "1:1",
                       "--x2", "3:2", "--r-max", "3"])
    assert doc["witnesses"]["found"] is True
    assert doc["witnesses"]["word"]
    _, doc = run_json(["oracle", "--ring", "Zmod:5", "--x1", "1:1",
                       "--x2", "3:2", "--r-max", "2"])
    assert doc["witnesses"]["found"] is False
    _, doc = run_json(["oracle", "--mode", "closure", "--x1", "1:1",
                       "--r-max", "3"])
    assert doc["witnesses"]["cover"] == [1, 2, 3, 4]


def test_oracle_infile(tmp_path, sparse_text):
    ring = parse_ring_spec("GF:2")
    path = tmp_path / "m.sparse"
    path.write_text(sparse_text(mx.matrix_unit(ring, 1, 5), 5))
    _, doc = run_json(["oracle", "--ring", "GF:2", "--x1", "1:1",
                       "--x2", "5:1", "--r-max", "1", "--in", str(path)])
    assert doc["witnesses"]["found"] is True
    assert doc["witnesses"]["word"] == "m"
    assert doc["config"] == {"infile": str(path), "mode": "proximity",
                             "r_max": 1, "ring": "GF:2", "x1": "1:1",
                             "x2": "5:1"}
    report, _ = run_json(["oracle", "--ring", "GF:3", "--x1", "1:1",
                          "--x2", "5:1", "--r-max", "1", "--in", str(path)])
    assert report.failed


def test_bound_env_var(monkeypatch):
    monkeypatch.setattr(wd, "WORD_CAP", 10)
    report, doc = run_json(["oracle", "--ring", "Zmod:5", "--x1", "1:1",
                            "--x2", "3:2", "--r-max", "3"])
    assert not report.failed  # cap exhaustion is a warning
    assert doc["checks"][0]["verdict"] == "warn"


def run_child(argv, extra_env=None, **kwargs):
    """`python argv` in a child process that imports this rowfin."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **(extra_env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, timeout=120, **kwargs)


def test_importing_the_cli_loads_no_code_generators():
    """`import rowfin.cli` loads neither `dataclasses` nor `inspect`.

    It runs in a child, since pytest itself imports both; modules the
    child had before the import, as a bare interpreter has, are allowed.
    """
    probe = ("import sys; before = set(sys.modules); import rowfin.cli; "
             "print(rowfin.cli.__file__, *sorted(set(sys.modules) - before), sep='\\n')")
    proc = run_child(["-c", probe], capture_output=True, text=True, check=True)
    path, *loaded = proc.stdout.splitlines()
    assert Path(path).resolve() == Path(cli.__file__).resolve()
    assert "rowfin.twogen" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


@pytest.mark.parametrize("argv, detail", [
    (["--ring", "Mat:2:Zmod:3", "--x1", "1:1", "--x2", "2:1"],
     "not a matrix payload: 1"),
    (["--ring", "Mat:2:Zmod:3", "--x1", "1:true", "--x2", "2:1"],
     "not a matrix payload: True"),
    (["--ring", "Mat:2:GF:2", "--x1", "1:[[1,0],[0,1]]", "--x2", "2:[[1,0],[0,1]]",
      "--in", "scalar.sparse"], "--in scalar.sparse: not a matrix payload: 1"),
    (["--ring", "Mat:2:GF:2", "--x1", "1:[1,[0,1]]", "--x2", "2:[[1,0],[0,1]]"],
     "not a matrix row: 1"),
], ids=["x1-int", "x1-bool", "in-file-int", "x1-int-row"])
def test_scalar_matrix_payload_is_an_input_failure(argv, detail, tmp_path):
    (tmp_path / "scalar.sparse").write_text("ring Mat:2:GF:2\n1 2 1\n")
    proc = run_child(["-m", "rowfin.cli", "oracle", *argv, "--r-max", "2"],
                     cwd=tmp_path, capture_output=True)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    doc = json.loads(proc.stdout.decode().splitlines()[-1])
    assert doc["checks"] == [{"detail": detail, "name": "input", "verdict": "fail"}]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # The read end of the child's stdout pipe is closed before the child
    # starts, so its first write or flush meets a closed pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_child(["-m", "rowfin.cli", "classify", "--preorder", "ge"],
                         {"PYTHONUNBUFFERED": unbuffered},
                         stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"Exception ignored" not in proc.stderr
