"""End-to-end tests for the command-line interface."""

import inspect
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

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
        "validity": "n >= 1",
    }


def test_bounds_validity_error_exits_1():
    code, out, err = run_cli("bounds", "--n", "20", "--spec", "t:2", "--bound", "gspb")
    assert code == 1
    assert out == ""
    assert "n >= 48" in err


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


_MODULES = {
    "core": core,
    "error_model": error_model,
    "bounds": bounds,
    "oracle": oracle,
    "substitution": substitution,
    "deletion": deletion,
    "capacity": capacity,
}


def _public_functions(mod):
    for name in dir(mod):
        if name.startswith("_"):
            continue
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            yield name


def test_operations_map_covers_every_public_function():
    missing = []
    for mod_name, mod in _MODULES.items():
        for fn_name in _public_functions(mod):
            if f"{mod_name}:{fn_name}" not in cli.OPERATIONS:
                missing.append(f"{mod_name}:{fn_name}")
    assert not missing, f"library functions with no CLI route: {missing}"


def test_operations_map_points_at_real_functions_and_subcommands():
    for key, subcommand in cli.OPERATIONS.items():
        mod_name, fn_name = key.split(":")
        assert hasattr(_MODULES[mod_name], fn_name), key
        assert subcommand in cli.DISPATCH, key


def test_dispatch_matches_parser_subcommands():
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(subparsers.choices) == set(cli.DISPATCH)
    for name in cli.DISPATCH:
        code, _, _ = run_cli(name, "--help")
        assert code == 0
