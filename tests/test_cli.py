"""End-to-end tests for the command-line interface."""

import csv
import dataclasses
import functools
import inspect
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from composite_codec import (
    bounds,
    capacity,
    cli,
    core,
    deletion,
    error_model,
    oracle,
    substitution,
)


def run_cli(*args, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        sys.stdin = io.StringIO(stdin)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_decompose_text():
    code, out, _ = run_cli("decompose", "012340", "--k", "4")
    assert code == 0
    assert out == "000010\n000110\n001110\n011110\n"


def test_decompose_json():
    code, out, _ = run_cli("decompose", "012", "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"sequence": "012", "row0": "001", "row1": "011"}


def test_reconstruct_marks_invalid_columns():
    code, out, _ = run_cli("reconstruct", "000010/000110/011110/010110")
    assert code == 0
    assert out == "02?340\n"


def test_reconstruct_roundtrip():
    code, out, _ = run_cli("reconstruct", "001/011")
    assert (code, out) == (0, "012\n")


def test_transform_reverse_and_shift():
    assert run_cli("transform", "012", "--k", "2", "--reverse")[1] == "210\n"
    assert run_cli("transform", "012", "--k", "2", "--shift", "1")[1] == "120\n"


def test_ball_size_goldens():
    assert run_cli("ball", "size", "0" * 30, "--k", "2", "--spec", "(1,0)")[1] == "1\n"
    assert run_cli("ball", "size", "012" * 10, "--k", "2", "--spec", "(1,0)")[1] == "21\n"
    assert run_cli("ball", "size", "012", "--k", "2", "--spec", "d:(1,0)")[1] == "2\n"


def test_ball_enumerate_sorted():
    code, out, _ = run_cli("ball", "enumerate", "01", "--k", "2", "--spec", "t:1")
    assert code == 0
    assert out == "00\n01\n02\n11\n"


def test_ball_inbound():
    code, out, _ = run_cli("ball", "inbound", "01", "--k", "2", "--spec", "t:1")
    assert code == 0
    assert out == "00\n01\n02\n11\n"


def test_ball_received_rows():
    code, out, _ = run_cli("ball", "received", "01", "--k", "2", "--spec", "(1,0)")
    assert code == 0
    assert out == "00/01\n01/01\n10/01\n"


def test_bounds_table4_csv():
    code, out, _ = run_cli(
        "bounds", "--table", "table4", "--n-min", "2", "--n-max", "4",
        "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        'n,gspb_del,"aspv_d(1,0)",aspv_d(1)',
        "2,7,6,3",
        "3,18,14,7",
        "4,47,34,17",
    ]


def test_bounds_table_leaves_a_cell_empty_where_its_bound_does_not_apply():
    # no deletion GSPB below n = 2 and no deletion average below n = 1
    code, out, err = run_cli(
        "bounds", "--table", "table4", "--n-min", "0", "--n-max", "3",
        "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        'n,gspb_del,"aspv_d(1,0)",aspv_d(1)',
        "0,,,",
        "1,,3,1",
        "2,7,6,3",
        "3,18,14,7",
    ]


@pytest.mark.parametrize("args, error", [
    (("table1", "--e0", "-1"), "negative budget in (-1, 1)"),
    (("table1", "--e", "-2"), "negative budget -2"),
    (("summary7", "--e1", "-1"), "negative budget in (1, -1)"),
])
def test_bounds_table_rejects_a_negative_budget_before_the_header(args, error):
    assert run_cli("bounds", "--table", *args) == (1, "", f"error: {error}\n")


def test_bounds_table_builds_only_the_specs_it_reads():
    assert list(bounds.emit_bound_table("table2", range(2, 4), e0=-1)) == \
        list(bounds.emit_bound_table("table2", range(2, 4)))
    assert run_cli("bounds", "--table", "table2", "--n-max", "3", "--e0", "-1") == \
        (1, "", "error: bounds --table table2 does not read --e0\n")


@pytest.mark.parametrize("kind", bounds.TABLE_KINDS)
def test_bounds_table_cells_match_the_queries(kind):
    for k in range(1, 5) if "k" in bounds.TABLE_READS[kind] else [2]:
        columns = bounds._TABLES[kind](k, 1, 1, 2)
        code, out, _ = run_cli("bounds", "--table", kind, "--n-min", "-1",
                               "--n-max", "6", "--k", str(k), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n"] + [header for header, *_ in columns]
        assert [row[0] for row in rows[1:]] == [str(n) for n in range(-1, 7)]
        for row in rows[1:]:
            for cell, (header, name, cell_k, spec) in zip(row[1:], columns):
                code, out, _ = run_cli(
                    "bounds", "--n", row[0], "--k", str(cell_k), "--spec", str(spec),
                    "--bound", name, "--format", "csv")
                if code:
                    assert (code, cell) == (1, ""), (kind, k, row[0], header)
                    continue
                (query,) = csv.DictReader(io.StringIO(out))
                want = query["floor"] if kind == "table4" else query["value"]
                assert cell == want, (kind, k, row[0], header)


def test_table_reads_name_the_parameters_each_table_reads():
    base = dict(k=2, e0=1, e1=1, e=2)
    for kind in bounds.TABLE_KINDS:
        columns = bounds._TABLES[kind]
        read = {name for name in base
                if columns(**dict(base, **{name: base[name] + 1})) != columns(**base)}
        assert read == set(bounds.TABLE_READS[kind]), kind


def test_bound_tables_and_queries_call_the_module_bound_functions(monkeypatch):
    calls = []
    gspb_upper = bounds.gspb_upper

    def counted(*args):
        calls.append(args)
        return gspb_upper(*args)
    monkeypatch.setattr(bounds, "gspb_upper", counted)
    table = bounds.emit_bound_table("table2", [5])
    assert next(table)[1] == "gspb_(1,0,...,0)"
    assert next(table)[1] == "182/3"
    assert len(calls) == 2  # the (1,0) and t:1 columns
    assert run_cli("bounds", "--n", "4", "--spec", "(1,0)", "--bound", "gspb")[0] == 0
    assert calls[2:] == [(4, 2, error_model.PerChannel((1, 0)))]


def test_bounds_single_query_json():
    code, out, _ = run_cli(
        "bounds", "--n", "4", "--spec", "(1,0)", "--bound", "gspb",
        "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "bound": "gspb",
        "kind": "valid_upper",
        "value": "121/5",
        "floor": 24,
        "validity": "n >= 0",
    }


def test_bounds_validity_error_exits_1():
    code, out, err = run_cli("bounds", "--n", "20", "--spec", "t:2", "--bound", "gspb")
    assert code == 1
    assert out == ""
    assert "n >= 48" in err


# the single-point query grid of the bound-tables benchmark
_QUERY_N = (4, 8, 12, 20, 48, 100)
_QUERY_SPECS = {2: ("(1,0)", "(0,1)", "(1,1)", "(2,1)", "t:1", "t:2", "d:(1,0)", "d:1"),
                3: ("(1,0,0)", "(1,1,0)", "t:1", "t:2"),
                4: ("(1,0,0,0)", "t:1")}


@pytest.mark.parametrize("n", _QUERY_N)
def test_bounds_lower_never_exceeds_upper(n):
    for k, specs in _QUERY_SPECS.items():
        for spec in specs:
            code, out, _ = run_cli("bounds", "--n", str(n), "--k", str(k),
                                   "--spec", spec, "--format", "csv")
            assert code == 0, (n, k, spec)
            rows = list(csv.DictReader(io.StringIO(out)))
            lower = [r for r in rows if r["kind"] == "valid_lower"]
            upper = [r for r in rows if r["kind"] == "valid_upper"]
            for lo in lower:
                for up in upper:
                    assert Fraction(lo["value"]) <= Fraction(up["value"]), (
                        n, k, spec, lo["bound"], up["bound"])


def test_bounds_lists_deletion_lower_bounds_by_spec():
    def listed(spec):
        out = run_cli("bounds", "--n", "20", "--spec", spec, "--format", "csv")[1]
        return {r["bound"] for r in csv.DictReader(io.StringIO(out))
                if r["bound"].startswith("lower:")}

    assert listed("d:(1,0)") == {"lower:vt", "lower:vt1", "lower:tenengolts",
                                 "lower:tenengolts1"}
    assert listed("d:1") == {"lower:vt1", "lower:tenengolts1"}
    assert listed("(1,1)") == {"lower:coset"}
    _one_error_line(("bounds", "--n", "20", "--spec", "(1,1)", "--bound", "lower:vt"))


def test_encode_membership_constructions():
    assert run_cli("encode", "0000", "--construction", "lee", "--k", "4")[:2] == (0, "0000\n")
    assert run_cli("encode", "0110", "--construction", "vt")[:2] == (0, "0110\n")


def test_encode_rejects_non_member():
    code, out, err = run_cli("encode", "0120", "--construction", "lee", "--k", "4")
    assert code == 1
    assert out == ""
    assert "not a codeword" in err


def test_encode_systematic_constructions():
    assert run_cli("encode", "012", "--construction", "c4")[:2] == (0, "0120001\n")
    code, out, _ = run_cli("encode", "0120", "--construction", "ternary")
    assert (code, out) == (0, "012011100\n")


def test_decode_constructions():
    assert run_cli("decode", "1000000/0000000", "--construction", "c1")[:2] == (0, "0000000\n")
    assert run_cli("decode", "010000/0110001", "--construction", "c4")[:2] == (0, "012\n")
    lee = run_cli("decode", "00001/00000/00000/00000", "--construction", "lee", "--k", "4")
    assert lee[:2] == (0, "00000\n")


def test_decode_roundtrip_after_deletion():
    _, word, _ = run_cli("encode", "0120", "--construction", "ternary")
    word = word.strip()
    # message length is inferred from the received length
    code, out, _ = run_cli("decode", word[1:], "--construction", "ternary")
    assert (code, out) == (0, "0120\n")


# received words one or two bit flips past a correctable error, one per
# failure text of the substitution and deletion decoders
@pytest.mark.parametrize("args, text", [
    (("c1", "--spec", "(1,1)", "1001/0000"),
     "channel 0: syndrome 5 points outside the word; more than one error"),
    (("c1", "--spec", "(1,1)", "110/000"), "corrected rows disagree at column 0"),
    (("c2", "011/011"), "syndrome 3 points outside the word; more than one error"),
    (("c2", "110/000"), "2 inconsistent columns; budget is one error"),
    (("c2", "--k", "3", "0/1/0"), "column 0 not explainable by one first-channel error"),
    (("c2", "101/001"), "repaired word is not a codeword"),
    (("c2", "--inner", "optimal", "101000/111001"),
     "fingerprint is not within one error of a codeword"),
    (("lee", "110/000"), "2 inconsistent columns; budget is one error"),
    (("lee", "100/010"), "column 0 repair does not match the checksum"),
    (("lee", "100/100"), "checksum residue 2 needs an out-of-range level at column 1"),
    (("ternary", "111"),
     "0 data words match the syndromes; more than one deletion or a corrupted tail"),
    (("c3", "100/0000"), "rows disagree at column 0"),
    (("c5", "100/0000"), "rows disagree at column 0"),
    (("c4", "100/0110"), "rows disagree at column 0"),
    (("c4", "110/0111"),
     "0 data words match the syndromes; more than one deletion or a corrupted tail"),
    (("c6", "100100/0110110"), "rows disagree at column 0"),
    (("c6", "110110/0110110"),
     "0 data words match the syndromes; more than one deletion or a corrupted tail"),
    (("c6", "110100/0010110"),
     "boundary pattern (0, 0) on the intact row is not reachable by one deletion"),
    (("c6", "0110100/110101"), "syndrome decoding contradicts the intact row"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_every_decoder_failure_text_is_pinned(args, text):
    assert run_cli("decode", "--construction", *args) == (1, "", f"error: {text}\n")


@pytest.mark.parametrize("args", [
    ("c4", "00011001/110111011"), ("c4", "10000/010000"), ("c6", "110100/1110100"),
])
def test_c4_and_c6_reinsert_only_bits_into_a_row(args):
    # c4 and c6 rows are binary: a word past one deletion ends in the
    # syndrome text, never in a row holding the ternary symbol 2
    assert run_cli("decode", "--construction", *args) == (
        1, "", "error: 0 data words match the syndromes; more than one deletion "
        "or a corrupted tail\n")


def test_verify_construction_summary():
    code, out, _ = run_cli("verify", "--construction", "c3", "--n", "4",
                           "--summary", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "construction": "c3", "codewords": 25, "cases": 100,
        "failures": 0, "ok": True,
    }


def test_verify_fiber_uses_first_channel_universe():
    # c2 corrects one first-channel flip; its harness must not demand more
    code, out, _ = run_cli("verify", "--construction", "c2", "--n", "4",
                           "--summary", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "construction": "c2", "codewords": 21, "cases": 105,
        "failures": 0, "ok": True,
    }
    code, out, _ = run_cli("verify", "--construction", "c2", "--n", "3",
                           "--k", "3", "--summary", "--format", "json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_construction_cases_csv():
    code, out, err = run_cli("verify", "--construction", "c6", "--m", "2",
                             "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "construction,codeword,channel,position,received,decoded,status"
    assert len(lines) == 1 + 162
    assert all(line.endswith(",ok") for line in lines[1:])
    assert "162 cases, 0 failures" in err


@pytest.mark.parametrize("refuse", (False, True), ids=("decodes", "refuses"))
def test_verify_listing_decodes_each_received_word_once(monkeypatch, refuse):
    calls = []
    decode = deletion.vt_row_decode

    def counted(y, label):
        calls.append(y)
        if refuse:
            raise core.DomainError(f"refused, call {len(calls)}")
        return decode(y, label)

    monkeypatch.setattr(deletion, "vt_row_decode", counted)
    code, out, err = run_cli("verify", "--construction", "c3", "--n", "6",
                             "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    failures = len(rows) if refuse else 0
    assert (code, err) == (int(refuse), f"{len(rows)} cases, {failures} failures\n")
    verdicts: dict = {}
    for row in rows:
        verdicts.setdefault((row["codeword"], row["received"]), set()).add(
            (row["decoded"], row["status"]))
    # one decode per distinct (codeword, received) pair, and its verdict,
    # an error text included, is repeated for every case that gives it
    assert len(calls) == len(verdicts) < len(rows)
    assert all(len(seen) == 1 for seen in verdicts.values())
    assert all(row["decoded"].startswith("error: refused") == refuse
               for row in rows)


@pytest.mark.parametrize("args, text", [
    (("vt", "--n", "5", "--label", "99"), "label 99 out of range for n=5"),
    (("vt", "--n", "4", "--label", "5"), "label 5 out of range for n=4"),
    (("lee", "--n", "4", "--label", "-1"), "label -1 out of range for n=4"),
])
@pytest.mark.parametrize("summary", ((), ("--summary",)), ids=("listing", "summary"))
def test_verify_refuses_a_label_out_of_range(args, text, summary):
    # not an empty code that passes
    assert run_cli("verify", "--construction", *args, *summary) == (
        1, "", f"error: {text}\n")


# each construction at a small length: the listing and the summary replay
# the same cases
REPLAYS = [
    ("c1", "--k", "3", "--n", "3", "--spec", "(1,0,1)"),
    ("c2", "--k", "2", "--n", "4"),
    ("lee", "--k", "2", "--n", "3"),
    ("c3", "--n", "5"),
    ("c4", "--m", "2"),
    ("c5", "--n", "4"),
    ("c6", "--m", "2"),
    ("vt", "--n", "6"),
    ("ternary", "--m", "3"),
]


def _plant(monkeypatch, exc_type):
    """Give every construction a decoder that raises exc_type on about a
    third of the received words, chosen by the word, and decodes the rest;
    both replays then fail the same cases, whatever order they decode in."""
    for name, entry in list(cli._CONSTRUCTIONS.items()):
        def decode(run, y, stock=entry.decode):
            if hash(y) % 3 == 0:
                raise exc_type(f"planted, {len(y)} symbols")
            return stock(run, y)
        monkeypatch.setitem(cli._CONSTRUCTIONS, name,
                            dataclasses.replace(entry, decode=decode))


@pytest.mark.parametrize("planted", (None, core.DomainError),
                         ids=("stock", "refusing"))
@pytest.mark.parametrize("args", REPLAYS, ids=lambda a: a[0])
def test_verify_listing_and_summary_count_the_same_cases(monkeypatch, args, planted):
    if planted:
        _plant(monkeypatch, planted)
    code, out, err = run_cli("verify", "--construction", *args, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    failed = sum(row["status"] == "fail" for row in rows)
    assert err == f"{len(rows)} cases, {failed} failures\n"
    s_code, s_out, s_err = run_cli("verify", "--construction", *args,
                                   "--summary", "--format", "json")
    summary = json.loads(s_out)
    assert (summary["cases"], summary["failures"]) == (len(rows), failed)
    assert code == s_code == int(failed > 0)
    assert bool(planted) == (failed > 0)
    assert len({row["codeword"] for row in rows}) == summary["codewords"]


def test_verify_listing_reports_a_decoder_crash_as_a_failed_case(monkeypatch):
    # a failed case with the error's text, as a refusal is, not a traceback
    _plant(monkeypatch, RuntimeError)
    code, out, err = run_cli("verify", "--construction", "c3", "--n", "4",
                             "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    failed = [row for row in rows if row["status"] == "fail"]
    assert code == 1 and failed
    assert err == f"{len(rows)} cases, {len(failed)} failures\n"
    assert all(row["decoded"] == "error: planted, 2 symbols" for row in failed)
    assert not any(row["decoded"].startswith("error:")
                   for row in rows if row["status"] == "ok")


def test_verify_sample_is_deterministic():
    # --sample draws that many codewords; all their cases are then checked
    a = run_cli("verify", "--construction", "c3", "--n", "5", "--sample", "20",
                "--seed", "7", "--format", "csv")
    b = run_cli("verify", "--construction", "c3", "--n", "5", "--sample", "20",
                "--seed", "7", "--format", "csv")
    assert a == b
    sampled = {line.split(",")[1] for line in a[1].splitlines()[1:]}
    assert len(sampled) == 20
    c = run_cli("verify", "--construction", "c3", "--n", "5", "--sample", "20",
                "--seed", "8", "--format", "csv")
    assert c[0] == 0 and c != a


def test_verify_transversal():
    code, out, _ = run_cli("verify", "--transversal", "--n", "3", "--k", "2",
                           "--spec", "d:(1,0)", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,k,spec,outputs,min_cover,total_weight,gspb,feasible",
        '3,2,"d:(1,0)",24,1,18,18,true',
    ]
    # off k = 2 the first-row deletion's total weight is its GSPB too
    for k in (1, 3, 4):
        spec = "d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")"
        for n in (2, 3, 4):
            code, out, err = run_cli("verify", "--transversal", "--n", str(n),
                                     "--k", str(k), "--spec", spec, "--format", "json")
            row = json.loads(out)
            assert (code, err, row["feasible"]) == (0, "", True), (k, n)
            assert row["gspb"] is not None, (k, n)
            assert row["total_weight"] == row["gspb"], (k, n)


@pytest.mark.parametrize("n, k, spec", [(3, 2, "(1,1)"), (2, 3, "t:2"),
                                        (4, 2, "(1,0)"), (3, 2, "d:(1,0)"),
                                        (3, 3, "d:(1,0,0)")])
def test_transversal_outputs_are_the_union_of_the_balls(n, k, spec):
    parsed = error_model.parse_spec(spec)
    union = set()
    for s in core.all_sequences(n, k):
        union |= error_model.enumerate_ball(s, k, parsed)
    report = oracle.check_fractional_transversal(
        core.all_sequences(n, k),
        lambda s: error_model.enumerate_ball(s, k, parsed), lambda y: 1)
    assert report.outputs == union
    code, out, _ = run_cli("verify", "--transversal", "--n", str(n), "--k",
                           str(k), "--spec", spec, "--format", "json")
    assert code == 0 and json.loads(out)["outputs"] == len(union)


@pytest.mark.parametrize("n, spec, sequences",
                         [(3, "(1,1,0)", 64), (4, "t:2", 256)])
def test_verify_transversal_enumerates_each_ball_twice(monkeypatch, n, spec,
                                                       sequences):
    # once as an input's ball, once inside the weight rule
    real = error_model.enumerate_sub_ball
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(error_model, "enumerate_sub_ball", counted)
    code, out, _ = run_cli("verify", "--transversal", "--n", str(n), "--k", "3",
                           "--spec", spec, "--format", "csv")
    assert code == 0 and out.endswith(",true\n")
    assert len(calls) == 2 * sequences


def test_verify_transversal_checks_runs_weight_counts(monkeypatch):
    real = error_model.count_runs_weight
    monkeypatch.setattr(error_model, "count_runs_weight",
                        lambda n, rho, w: real(n, rho, w) + (rho == 2))
    _one_error_line(("verify", "--transversal", "--n", "4", "--k", "2",
                     "--spec", "d:(1,0)"))


@pytest.mark.parametrize("args, flag", [
    (("verify", "--construction", "c2", "--spec", "(0,1)", "--n", "4",
      "--summary"), "--spec"),
    (("encode", "--construction", "vt", "--spec", "(1,0)", "0110"), "--spec"),
    (("encode", "--construction", "c4", "--label", "1", "012"), "--label"),
    (("decode", "--construction", "c6", "--label", "1", "010/011"), "--label"),
    (("encode", "--construction", "ternary", "--label", "2", "0120"), "--label"),
    (("verify", "--construction", "c1", "--inner", "optimal", "--n", "3",
      "--summary"), "--inner"),
    (("decode", "--construction", "lee", "--inner", "optimal", "000/000"),
     "--inner"),
    (("encode", "--construction", "c2", "--inner", "optimal", "--label", "1",
      "0000"), "--label"),
])
def test_construction_rejects_flags_it_does_not_read(args, flag):
    _one_error_line(args)
    assert flag in run_cli(*args)[2]


@pytest.mark.parametrize("args, flag", [
    (("--construction", "c3", "--label", "4"), "--construction"),
    (("--label", "4"), "--label"),
    (("--inner", "optimal"), "--inner"),
    (("--summary",), "--summary"),
    (("--sample", "2"), "--sample"),
    (("--m", "4"), "--m"),
    (("--seed", "3"), "--seed"),
])
@pytest.mark.parametrize("mode", ["--codebook", "--transversal"])
def test_verify_codebook_and_transversal_reject_codec_flags(tmp_path, mode,
                                                           args, flag):
    book = tmp_path / "empty.txt"
    book.write_text("")
    selector = ("--codebook", str(book)) if mode == "--codebook" else (
        "--transversal", "--n", "3")
    call = ("verify",) + selector + ("--spec", "(1,0)") + args
    _one_error_line(call)
    assert f"verify {mode} does not read {flag}" in run_cli(*call)[2]


@pytest.mark.parametrize("args, flag", [
    (("--n", "3"), "--n"),
    (("--transversal", "--n", "3"), "--n"),
    (("--transversal",), "--transversal"),
    (("--summary", "--n", "3", "--sample", "2", "--m", "4"), "--n"),
])
def test_verify_codebook_rejects_n_and_transversal(tmp_path, args, flag):
    book = tmp_path / "empty.txt"
    book.write_text("")
    call = ("verify", "--codebook", str(book), "--spec", "(1,0)") + args
    _one_error_line(call)
    assert run_cli(*call)[2] == f"error: verify --codebook does not read {flag}\n"


def test_verify_transversal_accepts_the_default_seed():
    code, out, _ = run_cli("verify", "--transversal", "--n", "2", "--spec",
                           "(1,0)", "--seed", "0")
    assert code == 0 and out.endswith("true\n")


def test_verify_codebook_requires_spec(tmp_path):
    book = tmp_path / "empty.txt"
    book.write_text("")
    _one_error_line(("verify", "--codebook", str(book)))


@pytest.mark.parametrize("args, error", [
    (("bounds", "--table", "table4", "--k", "3", "--n", "9", "--spec", "t:1",
      "--e0", "4"), "bounds --table table4 does not read --n"),
    (("bounds", "--table", "table1", "--k", "3"),
     "bounds --table table1 does not read --k"),
    (("bounds", "--table", "table2", "--e", "3"),
     "bounds --table table2 does not read --e"),
    (("bounds", "--table", "summary8", "--n", "4"),
     "bounds --table summary8 does not read --n"),
    (("bounds", "--table", "table3", "--bound", "gspb"),
     "bounds --table table3 does not read --bound"),
    (("bounds", "--n", "4", "--spec", "t:1", "--n-min", "3"),
     "bounds does not read --n-min"),
    (("bounds", "--n", "4", "--spec", "t:1", "--n-max", "3"),
     "bounds does not read --n-max"),
    (("bounds", "--n", "4", "--spec", "t:1", "--e1", "0"),
     "bounds does not read --e1"),
    (("search-optimal", "--binary-length", "3", "--n", "4", "--spec", "t:1"),
     "search-optimal --binary-length does not read --n"),
    (("search-optimal", "--binary-length", "3", "--k", "3"),
     "search-optimal --binary-length does not read --k"),
    (("search-optimal", "--n", "2", "--spec", "t:1", "--binary-length", "3"),
     "search-optimal --binary-length does not read --n"),
    (("verify", "--construction", "c3", "--n", "4", "--m", "7", "--summary"),
     "construction c3 does not read --m"),
    (("verify", "--construction", "c4", "--m", "3", "--n", "4"),
     "construction c4 does not read --n"),
    (("verify", "--construction", "c3", "--n", "4", "--summary", "--sample", "3"),
     "construction c3 does not read --sample"),
    (("verify", "--construction", "c3", "--n", "4", "--seed", "3"),
     "construction c3 does not read --seed"),
    # c3 builds its spec from --k, so it does not read --spec
    (("verify", "--construction", "c3", "--n", "4", "--spec", "d:1"),
     "construction c3 does not read --spec"),
    (("encode", "--construction", "ternary", "--k", "3", "0120"),
     "construction ternary does not read --k"),
    (("capacity", "--p", "0.1", "--sweep", "0.2,0.3"),
     "capacity --sweep does not read --p"),
    (("capacity", "--p", "0.1", "--plot", os.devnull),
     "capacity --p does not read --plot"),
    (("verify", "--construction", "c4", "--m", "3", "--k", "3"),
     "construction c4 does not read --k"),
])
def test_a_flag_the_mode_does_not_read_is_one_error_line(args, error):
    assert run_cli(*args) == (1, "", f"error: {error}\n")


def test_a_flag_at_its_default_counts_as_unset():
    assert run_cli("bounds", "--table", "table4", "--n-max", "3", "--k", "2",
                   "--e0", "1") == \
        run_cli("bounds", "--table", "table4", "--n-max", "3")
    assert run_cli("verify", "--construction", "c3", "--n", "4", "--summary",
                   "--seed", "0", "--k", "2")[:2] == \
        (0, "c3\t25\t100\t0\ttrue\n")


@pytest.mark.parametrize("args", [
    ("--sweep", "abc"), ("--sweep", "0:1"), ("--sweep", "0:1:x"),
    ("--sweep", "0:1:1e3"), ("--sweep", ",,,"), ("--sweep", "0.1,x"),
    ("--sweep", "0.2", "--plot", os.devnull),
    ("--sweep", "0.2,", "--plot", os.devnull),
    ("--p", "0.1", "--tol", "0"), ("--p", "0.1", "--tol=-1"),
    ("--p", "0.1", "--tol", "nan"), ("--sweep", "0.1,0.2", "--tol", "inf"),
])
def test_malformed_capacity_input_is_one_error_line(args):
    _one_error_line(("capacity",) + args)


def test_construction_accepts_the_flags_it_reads():
    assert run_cli("encode", "--construction", "c4", "--label", "0",
                   "012")[:2] == (0, "0120001\n")
    assert run_cli("encode", "--construction", "c1", "--spec", "(1,1)",
                   "--label", "1", "2000000")[:2] == (0, "2000000\n")
    assert run_cli("encode", "--construction", "c2", "--inner", "optimal",
                   "0000")[0] == 0
    code, out, _ = run_cli("verify", "--construction", "c2", "--label", "1",
                           "--n", "4", "--summary")
    assert code == 0 and out.endswith("true\n")


def test_search_optimal_json():
    code, out, _ = run_cli("search-optimal", "--n", "3", "--k", "2",
                           "--spec", "(1,0)", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["size"] == 9
    assert len(row["witness"]) == 9
    assert row["witness"] == sorted(row["witness"])


def test_search_optimal_save_and_verify_codebook(tmp_path):
    book = tmp_path / "book.txt"
    code, _, _ = run_cli("search-optimal", "--n", "3", "--k", "2",
                         "--spec", "(1,0)", "--save", str(book))
    assert code == 0
    words = book.read_text().split()
    assert len(words) == 9
    code, out, _ = run_cli("verify", "--codebook", str(book), "--k", "2",
                           "--spec", "(1,0)", "--format", "json")
    assert code == 0

    clash = tmp_path / "clash.txt"
    clash.write_text("\n".join(words + ["002"]) + "\n")
    code, out, err = run_cli("verify", "--codebook", str(clash), "--k", "2",
                             "--spec", "(1,0)")
    assert code == 1
    assert out != ""


def test_capacity_single_point():
    code, out, _ = run_cli("capacity", "--p", "0.1")
    assert code == 0
    p, alpha, cap_c, cap_2 = out.split()
    assert p == "0.1"
    assert abs(float(cap_c) - 0.896345356561) < 1e-9
    assert float(cap_c) > float(cap_2)


def test_capacity_sweep_with_oracle():
    code, out, _ = run_cli("capacity", "--sweep", "0.1:0.2:2", "--format",
                           "csv", "--oracle")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,alpha_opt,cap_composite_bits,cap_two_level_bits,cap_oracle_bits"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[2]) - float(cells[4])) < 1e-6


def test_capacity_oracle_refuses_an_uncertified_value(monkeypatch):
    monkeypatch.setattr(capacity, "blahut_arimoto", functools.partial(
        capacity.blahut_arimoto, max_iter=1))
    # p = 0 closes its sandwich at the first iterate and p = 0.45 does not:
    # no row is printed, the p = 0 row included
    args = ("capacity", "--sweep", "0,0.45", "--oracle")
    _one_error_line(args)
    assert run_cli(*args)[2].startswith(
        "error: Blahut-Arimoto did not certify the capacity within max_iter=1")


def test_capacity_plot_to_an_unopenable_path_prints_no_row(tmp_path):
    # the SVG is written before the first row is printed
    _one_error_line(("capacity", "--sweep", "0.1,0.2", "--plot",
                     str(tmp_path / "missing" / "p.svg")))


def test_capacity_plot(tmp_path):
    svg = tmp_path / "curve.svg"
    code, _, _ = run_cli("capacity", "--sweep", "0.05:0.45:5", "--plot", str(svg))
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert "</svg>" in text


def test_input_from_stdin_and_file(tmp_path):
    # inputs separated by a blank line in text mode, one row per line
    code, out, _ = run_cli("decompose", "--k", "2", stdin="012\n210\n")
    assert code == 0
    assert out == "001\n011\n\n100\n110\n"
    infile = tmp_path / "in.txt"
    infile.write_text("012\n")
    code2, out2, _ = run_cli("decompose", "--k", "2", "--in", str(infile))
    assert code2 == 0
    assert out2 == "001\n011\n"


def test_output_to_file(tmp_path):
    target = tmp_path / "rows.txt"
    code, out, _ = run_cli("decompose", "012", "--k", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "001\n011\n"


def test_reruns_are_byte_identical():
    args = ("bounds", "--table", "table4", "--n-min", "2", "--n-max", "10",
            "--format", "csv")
    assert run_cli(*args) == run_cli(*args)
    args = ("ball", "enumerate", "0121", "--k", "2", "--spec", "t:2")
    assert run_cli(*args) == run_cli(*args)


#: stdout of each row mode, line by line, in text, csv and json
LAYOUTS = {
    'decompose --k 2 012 210': {
        'text': (
            '001', '011', '', '100', '110',
        ),
        'csv': (
            'sequence,row0,row1', '012,001,011', '210,100,110',
        ),
        'json': (
            '{"sequence": "012", "row0": "001", "row1": "011"}',
            '{"sequence": "210", "row0": "100", "row1": "110"}',
        ),
    },
    'reconstruct 001/011 000010/000110/011110/010110': {
        'text': (
            '012', '02?340',
        ),
        'csv': (
            'rows,sequence', '001/011,012', '000010/000110/011110/010110,02?340',
        ),
        'json': (
            '{"rows": "001/011", "sequence": "012"}',
            '{"rows": "000010/000110/011110/010110", "sequence": "02?340"}',
        ),
    },
    'transform --k 2 --reverse 012 201': {
        'text': (
            '210', '021',
        ),
        'csv': (
            'sequence,transformed', '012,210', '201,021',
        ),
        'json': (
            '{"sequence": "012", "transformed": "210"}',
            '{"sequence": "201", "transformed": "021"}',
        ),
    },
    'transform --k 3 --shift 1 0123 0120': {
        'text': (
            '1230', '1231',
        ),
        'csv': (
            'sequence,transformed', '0123,1230', '0120,1231',
        ),
        'json': (
            '{"sequence": "0123", "transformed": "1230"}',
            '{"sequence": "0120", "transformed": "1231"}',
        ),
    },
    'ball size --k 2 --spec (1,0) 012 210': {
        'text': (
            '3', '3',
        ),
        'csv': (
            'sequence,size,closed_form', '012,3,true', '210,3,true',
        ),
        'json': (
            '{"sequence": "012", "size": 3, "closed_form": true}',
            '{"sequence": "210", "size": 3, "closed_form": true}',
        ),
    },
    'ball size --k 2 --spec d:(1,0) 012 0120': {
        'text': (
            '2', '3',
        ),
        'csv': (
            'sequence,size,closed_form', '012,2,true', '0120,3,true',
        ),
        'json': (
            '{"sequence": "012", "size": 2, "closed_form": true}',
            '{"sequence": "0120", "size": 3, "closed_form": true}',
        ),
    },
    'ball enumerate --k 2 --spec (1,0) 01 21': {
        'text': (
            '01', '02', '11', '21', '22',
        ),
        'csv': (
            'sequence,member', '01,01', '01,02', '21,11', '21,21', '21,22',
        ),
        'json': (
            '{"sequence": "01", "member": "01"}', '{"sequence": "01", "member": "02"}',
            '{"sequence": "21", "member": "11"}', '{"sequence": "21", "member": "21"}',
            '{"sequence": "21", "member": "22"}',
        ),
    },
    'ball enumerate --k 2 --spec d:(1,0) 01 21': {
        'text': (
            '0/01', '0/11', '1/11',
        ),
        'csv': (
            'sequence,member', '01,0/01', '21,0/11', '21,1/11',
        ),
        'json': (
            '{"sequence": "01", "member": "0/01"}', '{"sequence": "21", "member": "0/11"}',
            '{"sequence": "21", "member": "1/11"}',
        ),
    },
    'ball inbound --k 2 --spec (1,0) 01 21': {
        'text': (
            '01', '02', '11', '21', '22',
        ),
        'csv': (
            'sequence,member', '01,01', '01,02', '21,11', '21,21', '21,22',
        ),
        'json': (
            '{"sequence": "01", "member": "01"}', '{"sequence": "01", "member": "02"}',
            '{"sequence": "21", "member": "11"}', '{"sequence": "21", "member": "21"}',
            '{"sequence": "21", "member": "22"}',
        ),
    },
    'ball received --k 2 --spec (1,0) 01 21': {
        'text': (
            '00/01', '01/01', '10/01', '00/11', '10/11', '11/11',
        ),
        'csv': (
            'sequence,member', '01,00/01', '01,01/01', '01,10/01', '21,00/11', '21,10/11',
            '21,11/11',
        ),
        'json': (
            '{"sequence": "01", "member": "00/01"}',
            '{"sequence": "01", "member": "01/01"}',
            '{"sequence": "01", "member": "10/01"}',
            '{"sequence": "21", "member": "00/11"}',
            '{"sequence": "21", "member": "10/11"}',
            '{"sequence": "21", "member": "11/11"}',
        ),
    },
    'bounds --table table4 --n-min 2 --n-max 3': {
        'text': (
            'n\tgspb_del\taspv_d(1,0)\taspv_d(1)', '2\t7\t6\t3', '3\t18\t14\t7',
        ),
        'csv': (
            'n,gspb_del,"aspv_d(1,0)",aspv_d(1)', '2,7,6,3', '3,18,14,7',
        ),
        'json': (
            '{"n": "2", "gspb_del": "7", "aspv_d(1,0)": "6", "aspv_d(1)": "3"}',
            '{"n": "3", "gspb_del": "18", "aspv_d(1,0)": "14", "aspv_d(1)": "7"}',
        ),
    },
    'bounds --table table4 --n-min 3 --n-max 2': {
        'text': ('n\tgspb_del\taspv_d(1,0)\taspv_d(1)',),
        'csv': (),
        'json': (),
    },
    'bounds --n 3 --spec (1,0)': {
        'text': (
            'sphere\tvalid_upper\t27\t27\te <= n', 'gspb\tvalid_upper\t10\t10\tn >= 0',
            'average\taverage_value\t3\t3\tn >= 0', 'aspv\taverage_value\t9\t9\tn >= 0',
            'lower:coset\tvalid_lower\t27/4\t6\tn >= 0',
            'lower:fiber\tvalid_lower\t9\t9\tk >= 2',
        ),
        'csv': (
            'bound,kind,value,floor,validity', 'sphere,valid_upper,27,27,e <= n',
            'gspb,valid_upper,10,10,n >= 0', 'average,average_value,3,3,n >= 0',
            'aspv,average_value,9,9,n >= 0', 'lower:coset,valid_lower,27/4,6,n >= 0',
            'lower:fiber,valid_lower,9,9,k >= 2',
        ),
        'json': (
            ('{"bound": "sphere", "kind": "valid_upper", "value": 27, "floor": 27, '
             '"validity": "e <= n"}'),
            ('{"bound": "gspb", "kind": "valid_upper", "value": 10, "floor": 10, '
             '"validity": "n >= 0"}'),
            ('{"bound": "average", "kind": "average_value", "value": 3, "floor": 3, '
             '"validity": "n >= 0"}'),
            ('{"bound": "aspv", "kind": "average_value", "value": 9, "floor": 9, '
             '"validity": "n >= 0"}'),
            ('{"bound": "lower:coset", "kind": "valid_lower", "value": "27/4", '
             '"floor": 6, "validity": "n >= 0"}'),
            ('{"bound": "lower:fiber", "kind": "valid_lower", "value": 9, "floor": 9, '
             '"validity": "k >= 2"}'),
        ),
    },
}
#: the one error line of a mode that refuses; the first bad input decides it
REFUSALS = {
    "ball inbound --k 2 --spec d:(1,0) 01 21":
        "error: inbound mode applies to substitution specs\n",
    "ball received --k 2 --spec d:1 01 21":
        "error: received mode applies to substitution specs\n",
    "ball received --k 2 --spec d:1 3 21": "error: letter 3 outside Sigma_3\n",
}


def test_row_layouts_are_pinned_byte_for_byte():
    for argv, formats in LAYOUTS.items():
        for fmt, lines in formats.items():
            want = "".join(line + "\n" for line in lines)
            assert run_cli(*argv.split(), "--format", fmt) == (0, want, ""), (argv, fmt)
    for argv, err in REFUSALS.items():
        for fmt in ("text", "csv", "json"):
            assert run_cli(*argv.split(), "--format", fmt) == (1, "", err), (argv, fmt)


def test_reused_parser_matches_a_fresh_one(monkeypatch):
    calls = [
        ("bounds", "--n", "8", "--spec", "(1,0)", "--bound", "gspb",
         "--bound", "aspv", "--format", "json"),
        ("decompose", "012", "--k", "2"),
        ("bounds", "--n", "8", "--spec", "(1,0)", "--bound", "gspb"),
        ("ball", "enumerate", "0121", "--k", "2", "--spec", "t:2"),
        ("bounds", "--n", "6", "--spec", "d:1", "--bound", "lower:vt1",
         "--bound", "gspb", "--bound", "lower:vt1"),
        ("transform", "--k", "2", "--reverse", "012"),
        ("transform", "--k", "2", "--shift", "1", "012"),
        ("decompose", "013", "--k", "2"),
        ("bounds", "--n", "8", "--spec", "(1,0)"),
    ]
    reused = [run_cli(*args) for args in calls]
    fresh = []
    for args in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run_cli(*args))
    assert reused == fresh
    assert reused[0][1].count("\n") == 2
    assert reused[4][1].count("\n") == 3


def test_caps_override_lasts_for_one_call(monkeypatch):
    monkeypatch.delenv("COMPOSITE_CODEC_CAPS", raising=False)
    # nine letters: over the total-spec enumeration cap of 8
    refused = ("ball", "enumerate", "--k", "2", "--spec", "t:2", "0" * 9)
    assert run_cli(*refused)[0] == 1
    code, out, _ = run_cli(*refused, "--caps", "2048")
    assert code == 0 and out
    assert "COMPOSITE_CODEC_CAPS" not in os.environ
    assert run_cli(*refused)[0] == 1


def test_exit_codes():
    assert run_cli("nonsense")[0] == 2
    assert run_cli("ball", "size", "012", "--k", "2")[0] == 2  # missing --spec
    assert run_cli("verify")[0] in (1, 2)  # no mode selected
    assert run_cli("decompose", "013", "--k", "2")[0] == 1  # bad letter


def test_error_messages_go_to_stderr():
    code, out, err = run_cli("decompose", "013", "--k", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def _one_error_line(args):
    code, out, err = run_cli(*args)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_malformed_spec_is_a_one_line_error():
    for spec in ("t:x", "()", "(1,x)", "t:"):
        _one_error_line(("ball", "size", "--k", "2", "--spec", spec, "012"))


def test_decompose_rejects_resolution_zero():
    _one_error_line(("decompose", "--k", "0", "000"))


@pytest.mark.parametrize("construction", ["c1", "c3"])
def test_decode_checks_the_resolution_before_the_rows(construction):
    assert run_cli("decode", "--construction", construction, "--k", "0", "0/0") == (
        1, "", "error: resolution k must be >= 1, got 0\n")


@pytest.mark.parametrize("args", [
    ("ball", "enumerate", "--k", "3", "--spec", "d:(1,0)", "012"),
    ("ball", "size", "--k", "3", "--spec", "d:(1,0)", "0120"),
    ("ball", "size", "--k", "1", "--spec", "d:(1,0)", "01"),
    ("search-optimal", "--n", "2", "--k", "4", "--spec", "d:(1,0)"),
    ("verify", "--transversal", "--n", "2", "--k", "3", "--spec", "d:(1,0)"),
])
def test_deletion_balls_need_two_rows(args):
    """d:(1,0) names two rows, so its balls need k = 2."""
    k = args[args.index("--k") + 1]
    assert run_cli(*args) == (
        1, "", f"error: deletion spec d:(1,0) has 2 entries, expected k={k}\n")


def test_deletion_specs_at_any_k():
    assert run_cli("ball", "size", "--k", "3", "--spec", "d:1", "0123") == (0, "6\n", "")
    assert run_cli("ball", "size", "--k", "3", "--spec", "d:(1,0,0)",
                   "--format", "csv", "0123") == (
        0, "sequence,size,closed_form\n0123,2,true\n", "")
    assert run_cli("ball", "enumerate", "--k", "3", "--spec", "d:(1,0,0)", "0123") == (
        0, "000/0011/0111\n001/0011/0111\n", "")
    assert run_cli("ball", "size", "--k", "1", "--spec", "d:(1)", "0110") == (0, "3\n", "")
    for mode in ("inbound", "received"):
        assert run_cli("ball", mode, "--k", "3", "--spec", "d:1", "012") == (
            1, "", f"error: {mode} mode applies to substitution specs\n")
    assert run_cli("search-optimal", "--n", "3", "--k", "3",
                   "--spec", "d:1")[1].startswith("size 21\n")
    code, out, err = run_cli("bounds", "--n", "4", "--k", "3", "--spec", "d:1")
    assert (code, err) == (0, "")
    assert [line.split("\t")[0] for line in out.splitlines()] == [
        "gspb", "average", "aspv", "lower:vt1"]
    assert run_cli("bounds", "--n", "4", "--k", "3", "--spec", "d:1",
                   "--bound", "gspb") == (0, "gspb\tvalid_upper\t178\t178\tn >= 2\n", "")
    assert run_cli("bounds", "--n", "4", "--k", "3", "--spec", "d:1",
                   "--bound", "lower:tenengolts1") == (
        1, "", "error: tenengolts1_del bound is stated for k = 2, got k=3\n")


@pytest.mark.parametrize("name, codewords, cases", [("c3", 100, 400), ("c5", 19, 228)])
def test_c3_and_c5_read_the_resolution(name, codewords, cases):
    assert run_cli("verify", "--construction", name, "--n", "4", "--k", "3",
                   "--summary", "--format", "json") == (0, json.dumps({
                       "construction": name, "codewords": codewords,
                       "cases": cases, "failures": 0, "ok": True}) + "\n", "")
    code, out, err = run_cli("verify", "--construction", name, "--n", "2",
                             "--k", "4", "--sample", "2")
    assert code == 0 and err.endswith(" 0 failures\n")
    word = out.split("\t")[1]
    assert run_cli("encode", "--construction", name, "--k", "4", word) == (
        0, word + "\n", "")


def test_transversal_of_the_first_row_deletion_at_length_one():
    # every ball is the one output with an empty row 0; the GSPB needs n >= 2
    assert run_cli("verify", "--transversal", "--n", "1", "--spec", "d:(1,0)") == (
        0, "1\t2\td:(1,0)\t2\t1\t2\t\ttrue\n", "")
    assert run_cli("verify", "--transversal", "--n", "3", "--k", "3",
                   "--spec", "d:(1,0,0)")[0] == 0


@pytest.mark.parametrize("spec", ["t:1", "(1,0)", "t:2", "(0,0)", "(2,1)"])
def test_ball_size_checks_the_letters_for_every_spec(spec):
    args = ("ball", "size", "--spec", spec, "0?1")
    _one_error_line(args)
    assert run_cli(*args)[2] == "error: sequence contains '?'\n"


def _unopenable(tmp_path):
    missing, nodir = str(tmp_path / "missing"), str(tmp_path / "nodir")
    return [
        ("verify", "--codebook", missing, "--spec", "(1,0)"),
        ("ball", "size", "--spec", "(1,0)", "--in", missing),
        ("capacity", "--p", "0.1", "--out", os.path.join(nodir, "x.csv")),
        ("search-optimal", "--n", "2", "--spec", "(1,0)", "--save",
         os.path.join(nodir, "w")),
    ]


@pytest.mark.parametrize("case", range(4), ids=[
    "verify-codebook", "ball-in", "capacity-out", "search-optimal-save"])
def test_unopenable_file_is_a_one_line_error(tmp_path, case):
    args = _unopenable(tmp_path)[case]
    _one_error_line(args)
    assert "No such file or directory" in run_cli(*args)[2]


def test_bounds_lists_averages_for_every_substitution_spec():
    for k, text in ((2, "(2,1)"), (3, "(1,1,0)"), (3, "t:2"), (4, "(0,0,1,1)")):
        spec = error_model.parse_spec(text)
        words = list(core.all_sequences(3, k))
        mean = Fraction(sum(len(error_model.enumerate_sub_ball(s, k, spec))
                            for s in words), len(words))
        code, out, err = run_cli("bounds", "--n", "3", "--k", str(k),
                                 "--spec", text, "--format", "csv")
        assert (code, err) == (0, "")
        rows = {row["bound"]: row for row in csv.DictReader(io.StringIO(out))}
        assert Fraction(rows["average"]["value"]) == mean, text
        assert Fraction(rows["aspv"]["value"]) == len(words) / mean, text
        assert rows["aspv"]["kind"] == "average_value"


@pytest.mark.parametrize("n", (0, -1))
def test_bounds_at_lengths_below_one_end_cleanly(n):
    # every row either prints or, asked for by name, is one error: line
    for k, specs in _QUERY_SPECS.items():
        for spec in specs:
            code, out, err = run_cli("bounds", "--n", str(n), "--k", str(k),
                                     "--spec", spec, "--format", "csv")
            assert (code, err) == (0, ""), (k, spec)
            listed = {row["bound"] for row in csv.DictReader(io.StringIO(out))}
            assert not listed & {"asymptotic", "tighter"}
            if n < 0:
                assert listed == set(), (k, spec)
            for name in cli.BOUND_CHOICES:
                args = ("bounds", "--n", str(n), "--k", str(k), "--spec", spec,
                        "--bound", name)
                if name not in listed:
                    _one_error_line(args)


def test_bounds_at_length_zero_hold_on_the_one_word_space():
    # the empty word is the whole space: every code has one word and every
    # substitution ball is the word itself, so each row printed at n = 0
    # is checked here against both, and none claims n >= 1
    for k, specs in _QUERY_SPECS.items():
        for text in specs:
            code, out, err = run_cli("bounds", "--n", "0", "--k", str(k),
                                     "--spec", text, "--format", "csv")
            assert (code, err) == (0, ""), (k, text)
            rows = list(csv.DictReader(io.StringIO(out)))
            spec = error_model.parse_spec(text)
            if text.startswith("d:"):
                # no deletion happens in an empty row
                assert rows == [], (k, text)
                continue
            optimum = oracle.optimal_code_size(0, k, spec).size
            ball = len(error_model.enumerate_ball((), k, spec))
            assert (optimum, ball) == (1, 1)
            for row in rows:
                value = Fraction(row["value"])
                assert row["validity"] != "n >= 1", (k, text, row)
                if row["kind"] == "valid_upper":
                    assert value >= optimum, (k, text, row)
                elif row["kind"] == "valid_lower":
                    assert value <= optimum, (k, text, row)
                else:
                    want = ball if row["bound"] == "average" else 1 / Fraction(ball)
                    assert value == want, (k, text, row)
            assert {row["validity"] for row in rows if row["bound"] in (
                "gspb", "average", "aspv", "lower:coset")} <= {"n >= 0"}
    for name in ("lower:vt", "lower:vt1", "lower:tenengolts", "lower:tenengolts1"):
        assert run_cli("bounds", "--n", "0", "--spec", "d:(1,0)", "--bound", name)[1:] == (
            "", "error: deletion lower bounds need n >= 1\n")


def test_bounds_name_the_out_of_range_length():
    assert run_cli("bounds", "--n", "0", "--spec", "(1,1)", "--bound",
                   "asymptotic")[2] == "error: asymptotic forms need n >= 1\n"
    assert run_cli("bounds", "--n", "-1", "--spec", "(1,0)", "--bound",
                   "gspb")[2] == "error: length must be >= 0, got -1\n"


def test_verify_transversal_at_lengths_below_one_ends_cleanly():
    for n, spec in ((-1, "(1,0)"), (-1, "t:1"), (0, "t:1")):
        _one_error_line(("verify", "--transversal", "--n", str(n), "--spec", spec))
    code, out, err = run_cli("verify", "--transversal", "--n", "0", "--spec", "(1,0)")
    assert (code, err) == (0, "")


def test_bounds_check_the_first_channel_budget_length():
    # the listing checks the count once, where it listed nothing
    for n in ("4", "-1"):
        for spec, error in (("(1,0)", "budget vector (1,0)"),
                            ("d:(1,0)", "deletion spec d:(1,0)")):
            assert run_cli("bounds", "--n", n, "--k", "3", "--spec", spec,
                           "--format", "csv") == (
                1, "", f"error: {error} has 2 entries, expected k=3\n")
    # a spec that fits k still lists nothing at a negative length
    assert run_cli("bounds", "--n", "-1", "--k", "3", "--spec", "(1,0,0)") == (0, "", "")
    for name in ("gspb", "lower:fiber", "average", "aspv"):
        args = ("bounds", "--n", "4", "--k", "3", "--spec", "(1,0)", "--bound", name)
        _one_error_line(args)
        assert run_cli(*args)[2] == (
            "error: budget vector (1,0) has 2 entries, expected k=3\n")


def test_ball_size_without_closed_form_past_the_enumeration_cap():
    s = "012301230123"
    spec = error_model.parse_spec("(1,1,0)")
    with error_model.raised_caps(len(s)):
        want = len(error_model.enumerate_sub_ball(core.parse_sequence(s, 3), 3,
                                                  spec))
    code, out, err = run_cli("ball", "size", "--k", "3", "--spec", "(1,1,0)",
                             "--format", "csv", s)
    assert (code, err) == (0, "")
    assert out == f"sequence,size,closed_form\n{s},{want},false\n"


# the q-ary letter model; the CLI speaks q = 2 letters only
_UNREACHED = {"core:decompose_letter", "core:reconstruct_column"}


def _public_functions():
    """Code object -> "module:function" for every public function defined
    in the seven library modules."""
    names = {}
    for mod in (core, error_model, bounds, oracle, substitution, deletion,
                capacity):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                names[inspect.unwrap(obj).__code__] = f"{short}:{name}"
    return names


def _reach_invocations(tmp_path):
    book, svg = str(tmp_path / "book.txt"), str(tmp_path / "curve.svg")
    calls = [
        ("decompose", "--k", "2", "012"),
        ("reconstruct", "001/011"),
        ("transform", "--k", "2", "--reverse", "012"),
        ("transform", "--k", "2", "--shift", "1", "012"),
        ("ball", "size", "--spec", "(1,1)", "--format", "csv", "012"),
        ("ball", "size", "--spec", "d:1", "012"),
        ("ball", "enumerate", "--spec", "t:1", "01"),
        ("ball", "inbound", "--spec", "t:1", "01"),
        ("ball", "received", "--spec", "(1,0)", "01"),
        ("bounds", "--n", "8", "--spec", "t:2"),
        # json is where a non-integer rational goes through format_rational
        ("bounds", "--n", "8", "--spec", "t:2", "--format", "json"),
        ("bounds", "--table", "table4", "--n-max", "4"),
        ("search-optimal", "--n", "2", "--spec", "d:1", "--save", book),
        ("search-optimal", "--binary-length", "3"),
        ("verify", "--codebook", book, "--spec", "d:1"),
        ("verify", "--transversal", "--n", "3", "--spec", "d:(1,0)"),
        ("verify", "--construction", "c2", "--inner", "optimal", "--n", "3",
         "--summary"),
        ("capacity", "--sweep", "0.1,0.2", "--plot", svg),
        ("capacity", "--p", "0.1", "--oracle"),
    ]
    for name, size in (("c1", "--n"), ("c2", "--n"), ("lee", "--n"),
                       ("c3", "--n"), ("c4", "--m"), ("c5", "--n"),
                       ("c6", "--m"), ("vt", "--n"), ("ternary", "--m")):
        calls.append(("verify", "--construction", name, size, "3", "--summary"))
    for name, word in (("c1", "0000000"), ("c2", "0000"), ("lee", "000"),
                       ("c3", "0000"), ("c5", "0000"), ("vt", "0000")):
        calls.append(("encode", "--construction", name, word))
    return calls


def test_cli_reaches_every_public_library_function(tmp_path):
    names = _public_functions()
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            reached.add(names[frame.f_code])

    results = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args in _reach_invocations(tmp_path):
            results.append((args, run_cli(*args)))
    finally:
        sys.setprofile(previous)
    for args, (code, _, err) in results:
        assert code == 0, (args, err)
    missing = set(names.values()) - reached
    assert missing == _UNREACHED, (
        f"not reached: {sorted(missing - _UNREACHED)}; "
        f"exempt but reached: {sorted(_UNREACHED - missing)}")


def test_dispatch_matches_parser_subcommands():
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(subparsers.choices) == set(cli.DISPATCH)
    for name in cli.DISPATCH:
        code, _, _ = run_cli(name, "--help")
        assert code == 0


@pytest.mark.parametrize("args", [
    ("verify", "--construction", "c2", "--n", "-1"),
    ("verify", "--construction", "lee", "--n", "-1"),
    ("verify", "--construction", "c3", "--n", "-1"),
    ("verify", "--construction", "c5", "--n", "-1"),
    ("verify", "--construction", "vt", "--n", "-1"),
    ("verify", "--construction", "c1", "--n", "-1"),
    ("verify", "--construction", "c3", "--n", "-1", "--summary"),
    ("verify", "--construction", "c4", "--m", "-1"),
    ("verify", "--construction", "c6", "--m", "-1"),
    ("verify", "--construction", "ternary", "--m", "-1", "--summary"),
    ("search-optimal", "--n", "-1", "--spec", "(1,0)"),
    ("verify", "--construction", "c3", "--n", "4", "--sample", "-3"),
])
def test_negative_lengths_and_samples_are_one_error_line(args):
    _one_error_line(args)


def test_verify_names_a_negative_length_and_sample():
    assert run_cli("verify", "--construction", "c3", "--n", "-2")[2] == \
        "error: length must be >= 0, got -2\n"
    assert run_cli("verify", "--construction", "c6", "--m", "-1")[2] == \
        "error: length must be >= 0, got -1\n"
    assert run_cli("verify", "--construction", "c3", "--n", "4", "--sample", "-3")[2] == \
        "error: sample size must be >= 0, got -3\n"


@pytest.mark.parametrize("args", [
    ("--n", "3", "--k", "-2", "--spec", "t:1"),
    ("--n", "3", "--k", "-1", "--spec", "t:1"),
    ("--n", "3", "--k", "0", "--spec", "t:1"),
    ("--n", "3", "--k", "0", "--spec", "t:1", "--bound", "gspb"),
    ("--table", "table2", "--k", "0"),
    ("--table", "table4", "--k", "-1", "--format", "csv"),
])
def test_bounds_reject_a_resolution_below_one_before_printing(args):
    assert run_cli("bounds", *args) == (
        1, "", f"error: resolution k must be >= 1, got {args[args.index('--k') + 1]}\n")


@pytest.mark.parametrize("args", [
    ("c1", "--k", "3", "--n", "3", "--spec", "(1,0,1)"),
    ("c1", "--k", "2", "--n", "4", "--spec", "(0,1)", "--label", "2"),
    ("lee", "--k", "3", "--n", "3"),
    ("c3", "--n", "5", "--label", "2"),
    ("c5", "--n", "3"),
    ("vt", "--n", "6"),
    ("ternary", "--m", "2"),
])
def test_verify_lists_codewords_and_cases_in_order(args):
    code, out, _ = run_cli("verify", "--construction", *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    listed = [row["codeword"] for row in rows]
    distinct = list(dict.fromkeys(listed))
    if args[0] == "ternary":
        distinct = [word[:2] for word in distinct]  # the messages
    assert distinct == sorted(distinct) and len(distinct) > 1
    for word in dict.fromkeys(listed):
        cases = [row for row in rows if row["codeword"] == word]
        if cases[0]["channel"]:  # row-code deletions: by channel, then position
            keys = [(int(r["channel"]), int(r["position"])) for r in cases]
        else:  # by received word
            keys = [tuple(r["received"].split("/")) for r in cases]
        assert keys == sorted(keys), word


@pytest.mark.parametrize("args, error", [
    (("--n", "-1", "--k", "-1", "--spec", "t:2"), "length must be >= 0, got -1"),
    (("--n", "1", "--k", "-1", "--spec", "t:1"), "resolution k must be >= 1, got -1"),
    (("--n", "1", "--k", "0", "--spec", "t:1"), "resolution k must be >= 1, got 0"),
])
def test_search_checks_length_and_resolution_before_searching(args, error):
    assert run_cli("search-optimal", *args) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize("construction", ["c2", "lee"])
def test_encode_names_an_unknown_letter_in_a_checksum_word(construction):
    # as c1 does, and not a TypeError out of the letter arithmetic
    for args in (("01?1",), ("--k", "3", "?")):
        assert run_cli("encode", "--construction", construction, *args) == (
            1, "", "error: sequence contains '?'\n")


@pytest.mark.parametrize("label, n", [(99, 3), (4, 3), (-1, 3), (1, 0)])
def test_verify_c2_rejects_a_label_past_the_longest_fiber(label, n):
    # the longest fiber's Hamming code has 2^ceil(log2(n+1)) cosets
    args = ("verify", "--construction", "c2", "--n", str(n), "--label", str(label))
    for extra in ((), ("--summary",)):
        assert run_cli(*args, *extra) == (
            1, "", f"error: label {label} out of range for n={n}\n")


def test_verify_c2_accepts_every_label_of_the_longest_fiber():
    for label in range(4):
        code, out, _ = run_cli("verify", "--construction", "c2", "--n", "3",
                               "--label", str(label), "--summary")
        assert code == 0 and out.endswith("\ttrue\n")


def test_decode_names_the_received_row_count():
    assert run_cli("decode", "--construction", "c1", "001") == (
        1, "", "error: expected 2 rows, got 1\n")
    assert run_cli("decode", "--construction", "c3", "01/011/0") == (
        1, "", "error: expected 2 rows, got 3\n")


def test_large_lengths_end_in_one_line_or_print_in_full():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    # refused from n and the cap, before (k+1)^n is built
    assert run_cli("search-optimal", "--n", "10000", "--spec", "t:1") == (
        1, "", "error: space size 3^10000 exceeds the oracle cap 1024\n")
    assert run_cli("search-optimal", "--n", "100000000", "--spec", "t:1")[0] == 1
    code, out, err = run_cli("bounds", "--n", "10000", "--spec", "t:1",
                             "--bound", "gspb", "--format", "csv")
    assert (code, err) == (0, "")
    row = list(csv.DictReader(io.StringIO(out)))[0]
    value = bounds.gspb_upper(10000, 2, error_model.parse_spec("t:1")).value
    assert len(row["value"]) > 4300
    with cli._all_digits():  # the test reads the digits back under the same lift
        assert row["value"] == bounds.format_rational(value)
        assert row["floor"] == str(value.numerator // value.denominator)
    # the digit limit is lifted for the dispatch only
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_the_environment_does_not_raise_a_cap(monkeypatch):
    monkeypatch.setenv("COMPOSITE_CODEC_CAPS", "4096")
    refused = ("ball", "enumerate", "--k", "2", "--spec", "t:2", "0" * 9)
    assert run_cli(*refused) == (1, "", "error: n=9 exceeds enumeration cap 8\n")
    assert run_cli(*refused, "--caps", "9")[0] == 0


def test_optimal_inner_codes_past_their_reach_are_refused_at_once():
    # the length-8 search (very long) is refused before any shorter one
    # runs, and no cap admits it
    refusal = (1, "", "error: optimal_binary_single_error supports length <= 7\n")
    for caps in ((), ("--caps", "8"), ("--caps", "12"), ("--caps", "2048")):
        for word in ("0" * 8, "0" * 9, "012012012012"):
            assert run_cli("encode", "--construction", "c2", "--inner", "optimal",
                           word, *caps) == refusal
        for length in ("8", "9"):
            assert run_cli("verify", "--construction", "c2", "--inner", "optimal",
                           "--n", length, *caps) == refusal
            assert run_cli("search-optimal", "--binary-length", length,
                           *caps) == refusal
