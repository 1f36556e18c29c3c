from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from fiqs.census import ClaimResult, VerifyReport
from fiqs.cli import main


def test_classify_scrambled_matrix(capsys):
    assert main(["classify", "--rho", "1", "--matrix", "0,2,-1,-1"]) == 0
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
    assert main(["invariants", "--matrix", "1,0,0,-2,1", "--rho", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["series"] == "s22"
    assert obj["picard_index"] == 18


def test_invariants_matrix_requires_rho(capsys):
    assert main(["invariants", "--matrix", "0,-2,1,1"]) == 1


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


def test_bad_matrix_input_exit_code(capsys):
    assert main(["classify", "--rho", "1", "--matrix", "0,2,x,-1"]) == 1
    assert main(["classify", "--rho", "1", "--matrix", "0,2,-1"]) == 1
    # even entry at an implied-even column breaks primitivity
    assert main(["classify", "--rho", "1", "--matrix", "0,2,2,-1"]) == 1


def test_invariants_rejects_bad_eta(capsys):
    assert main(["invariants", "--eta", "1,s11,2,2"]) == 1
    assert main(["invariants", "--eta", "2,s99,1,1,-1"]) == 1


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
    assert main([command, "--rho", "1", f"--matrix={matrix}"]) == 1
    captured = capsys.readouterr()
    assert f"fiqs: error: matrix entry {entry} must be a decimal integer" in captured.err
    assert captured.out == ""


def test_matrix_entries_may_be_spaced(capsys):
    assert main(["classify", "--rho", "1", "--matrix", "0, -2, 1, 1"]) == 0
    assert "matrix=0,-2,1,1" in capsys.readouterr().out


def test_matrix_with_leading_negative_entry(capsys):
    # argparse needs the --matrix=... form when the value starts with '-'
    assert main(["classify", "--rho", "3", "--matrix=-3,-1,0,2,0,2"]) == 0
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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["count", "--rho", "3", "--iota-max", "30"], 0),
        (["count", "--rho", "3", "--iota-max", "x"], 1),
        (["enumerate", "--rho", "2", "--iota", "3", "--out", "no/such/dir/f"], 1),
        (["invariants", "--eta", "3,s11,3,3,-2,x"], 1),
        (["classify", "--rho", "2", "--matrix", ",,"], 1),
        (["verify", "--help"], 0),
        (["verify", "--iota-max", "3"], 0),
    ],
)
def test_cli_argv_fixed_cases(argv, code):
    assert run_main(argv)[0] == code
