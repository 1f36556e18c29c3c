from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fiqs import (
    apply_op,
    enumerate_all,
    raw_from_matrix,
    record_from_csv_row,
    record_from_json_line,
    record_to_csv_row,
    record_to_json_line,
    surface_record,
)
from fiqs.cli import main
from fiqs.verify import ClaimResult, VerifyReport
from test_canon import _random_ops


def test_classify_scrambled_matrix(capsys):
    assert main(["classify", "--matrix", "0,2,-1,-1"]) == 0
    out = capsys.readouterr().out
    assert "series=s11" in out
    assert "eta=(1,1)" in out
    assert "matrix=0,-2,1,1" in out


def test_invariants_by_eta(capsys):
    assert main(["invariants", "--eta", "3,s11,3,3,-2,-2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["picard_index"] == 72
    assert obj["degree"] == "8/3"
    assert obj["ke"] is True


def test_invariants_by_matrix(capsys):
    assert main(["invariants", "--matrix", "1,0,0,-2,1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["series"] == "s22"
    assert obj["picard_index"] == 18


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--matrix", "0,-2,1,1", "--rho", "1"],
        ["invariants", "--eta", "3,s11,3,3,-2,-2", "--rho", "1"],  # --rho with --eta once printed the rho = 3 record
        ["invariants", "--eta", "3,s11,3,3,-2,-2", "--rho", "3"],
        ["classify", "--rho", "1", "--matrix", "0,2,-1,-1"],
    ],
)
def test_classify_and_invariants_refuse_rho(capsys, argv):
    """The third row's length or the eta gives rho, so --rho is an unrecognized argument: exit 1, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "error: unrecognized arguments: --rho" in captured.err
    assert captured.out == ""


def test_enumerate_jsonl_stdout(capsys):
    assert main(["enumerate", "--rho", "2", "--iota", "1"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["series"] == "s12"
    assert "2 records" in captured.err


def test_enumerate_csv_to_file(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main(["enumerate", "--rho", "1", "--iota-max", "5", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8  # header + 7 records
    assert lines[0].startswith("rho,series,")


@pytest.mark.parametrize("option, name", [("--iota", "iota"), ("--iota-max", "iota_max")])
def test_enumerate_names_a_bad_bound_before_opening_out(tmp_path, capsys, option, name):
    out = tmp_path / "records.jsonl"
    assert main(["enumerate", "--rho", "1", option, "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"fiqs: error: {name} must be positive, got 0\n"
    assert not out.exists()


def test_enumerate_series_filter(capsys):
    assert main(["enumerate", "--rho", "1", "--iota-max", "5", "--series", "s11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(json.loads(l)["series"] == "s11" for l in lines)
    assert len(lines) == 5


def test_count_table_and_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.txt"
    assert main(["count", "--rho", "1", "--iota-max", "5", "--plot-data", str(plot)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("#")
    assert out.splitlines()[-1] == "5 2 7 1 4"
    assert plot.read_text() == "1 1\n2 1\n3 3\n4 5\n5 7\n"


def test_count_fails_on_a_bad_plot_path_before_writing(tmp_path, capsys):
    """An unwritable --plot-data path fails before the table reaches stdout, as enumerate --out does."""
    plot = tmp_path / "missing" / "plot.txt"
    assert main(["count", "--rho", "1", "--iota-max", "3", "--plot-data", str(plot)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fiqs: error: [Errno 2]")


def test_verify_small(capsys):
    assert main(["verify", "--iota-max", "3"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_verify_failure_exit_code(monkeypatch, capsys):
    failing = VerifyReport(
        (ClaimResult("rho=1 count at iota <= 200", 883, 882, False),), ()
    )
    monkeypatch.setattr("fiqs.cli.verify_claims", lambda iota_max: failing)
    assert main(["verify", "--iota-max", "200"]) == 2
    assert "overall: FAIL" in capsys.readouterr().out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--rho", "7", "--iota", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["count", "--rho", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # invariants prints one JSONL line and takes no --format
        main(["invariants", "--eta", "3,s11,3,3,-2,-2", "--format", "jsonl"])
    assert exc.value.code == 1


def test_bad_matrix_input_exit_code(capsys):
    assert main(["classify", "--matrix", "0,2,x,-1"]) == 1
    assert main(["classify", "--matrix", "0,2,-1"]) == 1
    # even entry at an implied-even column breaks primitivity
    assert main(["classify", "--matrix", "0,2,2,-1"]) == 1


def test_even_column_is_named(capsys):
    assert main(["classify", "--matrix", "0,-3,2,1"]) == 1
    assert capsys.readouterr().err == "fiqs: error: column 3 needs an odd third-row entry to be primitive\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["classify", "--matrix", "1,2,3,4,5,6"],
         "x- is not elliptic: m- = 9 >= 0 (rho=3, reduced=(12, 11, -1, -1))"),
        (["invariants", "--matrix=-3,-2,-3,-3"],
         "x+ is not elliptic: m+ = -5 <= 0 (rho=1, reduced=(-6, -7))"),
        (["classify", "--matrix", "1,1,0,-2,1"], "columns 1 and 2 coincide"),
        (["invariants", "--matrix", "2,0,0,0,0,-1"], "columns 3 and 4 coincide"),
    ],
)
def test_a_refused_matrix_names_its_reason(capsys, argv, reason):
    """A matrix with no normal form exits 1 with the reason, no traceback: the point that is not elliptic,
    or, checked first, the coinciding columns."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"fiqs: error: {reason}\n"
    assert captured.out == ""


def test_invariants_rejects_bad_eta(capsys):
    assert main(["invariants", "--eta", "1,s11,2,2"]) == 1
    assert main(["invariants", "--eta", "2,s99,1,1,-1"]) == 1


def test_invariants_names_the_violated_inequalities(capsys):
    """A key whose index classes admit its series but whose matrix is not a normal form."""
    assert main(["invariants", "--eta", "3,s11,3,3,-1,-9"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fiqs: error: matrix is not in normal form, violated: a > b, a-b >= -c, -c >= -d\n"
    assert captured.out == ""


_HUGE = 10**30  # an interior point of a rho = 1 key of this index has more weights than a str can hold


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--eta", f"1,s11,{_HUGE + 1},{_HUGE + 1}"],  # s11 needs odd indices
        ["enumerate", "--rho", "1", "--iota", str(_HUGE)],
    ],
    ids=["invariants", "enumerate"],
)
def test_a_resolution_too_long_to_write_is_named(capsys, argv):
    """Exit 1 naming the resolution field, with no traceback and before the chain text is allocated."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("fiqs: error: field 'resolution' of SeriesKey(")
    assert "is too long to write" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert peak < 1_000_000, f"peak of {peak} bytes"


def test_invariants_rejects_eta_rho_out_of_range(capsys):
    for eta in ("4,s11,1,1", "0,s11,1,1"):
        assert main(["invariants", "--eta", eta]) == 1
        err = capsys.readouterr().err
        assert "fiqs: error: rho must be 1, 2 or 3" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "eta, field",
    [
        ("1,s11,1_1,1_1", "iota_plus"),
        ("1,s11,+11,11", "iota_plus"),
        ("1,s11,\u0661\u0661,11", "iota_plus"),  # Arabic-Indic digits
        ("\u0661,s11,11,11", "rho"),
        ("3,s11,3,3,-2,-\u0662", "d"),
    ],
)
def test_invariants_rejects_non_decimal_eta(capsys, eta, field):
    """Only plain decimals name a key: each of these once printed the record of its int() value."""
    assert main(["invariants", "--eta", eta]) == 1
    captured = capsys.readouterr()
    assert f"fiqs: error: field '{field}' must be a decimal integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, matrix, entry",
    [
        ("classify", "1_0,-3,1,1", 1),
        ("classify", "+10,-3,1,1", 1),
        ("classify", "\u0661\u0660,-3,1,1", 1),  # Arabic-Indic digits
        ("classify", "1 0,-3,1,1", 1),
        ("classify", "10,-3,1,1_1", 4),
        ("invariants", "1_0,-3,1,1", 1),
    ],
)
def test_matrix_rejects_non_decimal_entries(capsys, command, matrix, entry):
    """Only plain decimals make a third row: each of these was once read as its int() value."""
    assert main([command, f"--matrix={matrix}"]) == 1
    captured = capsys.readouterr()
    assert f"fiqs: error: matrix entry {entry} must be a decimal integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_a_third_row_gives_its_rho(capsys, rho):
    """classify and invariants read rho from the row's length: every normal form with iota <= 6, and a scramble
    of each, prints its key and matrix, and its record's line."""
    rng = random.Random(rho)
    for iota in range(1, 7):
        for key, m in enumerate_all(rho, iota):
            scrambled = raw_from_matrix(m)
            for op in _random_ops(rho, rng, 4):
                scrambled = apply_op(scrambled, op)
            eta, matrix = ",".join(map(str, key.eta())), ",".join(map(str, m.third_row()))
            for row in (m.third_row(), scrambled.third_row):
                option = "--matrix=" + ",".join(map(str, row))
                assert main(["classify", option]) == 0
                want = f"series={key.series.tag} rho={rho} eta=({eta}) iota={key.iota} matrix={matrix}\n"
                assert capsys.readouterr().out == want
                assert main(["invariants", option]) == 0
                assert capsys.readouterr().out == record_to_json_line(surface_record(key, m)) + "\n"


@pytest.mark.parametrize("command", ["classify", "invariants"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12])
def test_a_row_of_another_length_is_named(capsys, command, n):
    assert main([command, "--matrix=" + ",".join(["-1"] * n)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"fiqs: error: a third row has 4, 5 or 6 entries (rho 1, 2 or 3), got {n}\n"
    assert captured.out == ""


_TOO_LONG = "9" * (sys.get_int_max_str_digits() + 700)  # more digits than int() reads


@pytest.mark.parametrize(
    "argv, what",
    [
        (["classify", f"--matrix=0,-2,{_TOO_LONG},1"], "matrix entry 3"),
        (["invariants", f"--matrix=0,-2,1,1,-{_TOO_LONG}"], "matrix entry 5"),
        (["invariants", f"--eta=3,s11,3,3,-2,-{_TOO_LONG}"], "field 'd'"),
        (["invariants", f"--eta={_TOO_LONG},s11,3,3"], "field 'rho'"),
    ],
)
def test_an_integer_too_long_for_int_is_named(capsys, argv, what):
    """Named by its place in a short message: not echoed, and without int()'s advice to raise the limit."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"fiqs: error: {what} has more than the {sys.get_int_max_str_digits()} digits int() reads\n"
    assert captured.out == ""


def test_matrix_entries_may_be_spaced(capsys):
    assert main(["classify", "--matrix", "0, -2, 1, 1"]) == 0
    assert "matrix=0,-2,1,1" in capsys.readouterr().out


def test_matrix_with_leading_negative_entry(capsys):
    # argparse needs the --matrix=... form when the value starts with '-'
    assert main(["classify", "--matrix=-3,-1,0,2,0,2"]) == 0
    out = capsys.readouterr().out
    assert "series=s11" in out and "eta=(3,3,-2,-2)" in out


# Largest number a fuzzed argv may carry, per subcommand, so that no case runs
# long: enumerate writes every record up to its index, verify's oracle
# suites grow with --iota-max.
_FUZZ_CAPS = {"enumerate": 12, "invariants": 30, "classify": 30, "count": 30, "verify": 3}
_FUZZ_OPTIONS = (
    "--rho", "--iota", "--iota-max", "--series", "--format", "--out", "--eta", "--matrix",
    "--plot-data", "--help", "-h", "--rho=", "--iota-max=", "--matrix=",
)
_FUZZ_WORDS = (
    "", " ", "-", "--", "x", "3.5", "1e3", "0x1f", "-0", "+2", " 4", "nan", "s11", "S22", "s99",
    "jsonl", "csv", "parquet", ",", ",,", "1,", "=", ".", "..", "out.txt", "no/such/dir/f",
    "enumerate", "verify",
)


def _not_a_number(text: str) -> bool:
    """Free text must not smuggle in an uncapped number (as a token or after '=')."""
    for part in text.split("="):
        try:
            int(part)
        except ValueError:
            continue
        return False
    return True


@st.composite
def fuzzed_argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FUZZ_CAPS)))
    cap = _FUZZ_CAPS[command]
    number = st.integers(-3, cap).map(str)
    piece = number | st.sampled_from(("s11", "s12", "s21", "s22", "x", ""))
    token = st.one_of(
        st.sampled_from(_FUZZ_OPTIONS),
        st.sampled_from(_FUZZ_WORDS),
        number,
        st.lists(piece, max_size=7).map(",".join),  # an eta or a third row
        st.text(st.characters(blacklist_characters="/"), max_size=8).filter(_not_a_number),
    )
    return [command] + draw(st.lists(token, max_size=8))


def run_main(argv: list[str]) -> tuple[int, str]:
    """Exit code of main(argv), in a scratch directory, with its stderr."""
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(fuzzed_argv())
def test_cli_argv_fuzz_exits_cleanly(argv):
    code, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err


def _read_csv_text(text: str):
    return record_from_csv_row(text.split(","))  # the rows need no quoting


# (reader, genuine text, its record) for every surface with iota <= 6, a JSONL line and a CSV row each.
_GENUINE = [
    (read, text, rec)
    for rec in (surface_record(key, m) for rho in (1, 2, 3) for iota in range(1, 7) for key, m in enumerate_all(rho, iota))
    for read, text in (
        (record_from_json_line, record_to_json_line(rec)),
        (_read_csv_text, ",".join(record_to_csv_row(rec))),
    )
]
_TEXT_ALPHABET = sorted(set("".join(text for _, text, _ in _GENUINE)) | set(' ."\\eE+'))


@st.composite
def mutated_records(draw):
    """A genuine line or row with 1-3 characters inserted, deleted or replaced, with its reader and record."""
    read, text, rec = draw(st.sampled_from(_GENUINE))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        char = "" if kind == "delete" else draw(st.sampled_from(_TEXT_ALPHABET))
        text = text[:i] + char + text[i + (kind != "insert") :]
    return read, text, rec


@settings(max_examples=300, deadline=None)
@given(mutated_records())
def test_reader_mutation_fuzz(case):
    """A mutated line or row reads back as its original record or raises ValueError, never another exception."""
    read, text, rec = case
    try:
        got = read(text)
    except ValueError:
        return
    assert got == rec, text


@pytest.mark.parametrize(
    "argv, code",
    [
        (["count", "--rho", "3", "--iota-max", "30"], 0),
        (["count", "--rho", "3", "--iota-max", "x"], 1),
        (["enumerate", "--rho", "2", "--iota", "3", "--out", "no/such/dir/f"], 1),
        (["invariants", "--eta", "3,s11,3,3,-2,x"], 1),
        (["classify", "--matrix", ",,"], 1),
        (["verify", "--help"], 0),
        (["verify", "--iota-max", "3"], 0),
    ],
)
def test_cli_argv_fixed_cases(argv, code):
    assert run_main(argv)[0] == code
