"""Acceptance suite: every quantitative exit criterion, exact tolerances.

The paper's quantitative results are the rows of ``fiqs verify --iota-max
200``.  The suite runs it once, in-process, pins the sha256 of its report,
and each criterion asserts the exact ``PASS`` rows that state it.  That each
row can fail is shown in ``tests/test_verify.py``: a mutant of its closed
form or oracle, or a wrong value on one surface, fails it.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from contextlib import redirect_stdout
from math import lcm
from types import SimpleNamespace

import pytest

from fiqs import apply_op, canonicalize, emit_plot_data, raw_from_matrix
from fiqs.cli import main
from test_canon import _random_ops

from conftest import up_to

# sha256 of the stdout of `fiqs verify --iota-max 200`.
VERIFY_200_SHA256 = "d34118f8b95757018f3f3aa09af34107d8f95ca38998b6dd5d37bf59ca57f383"


@pytest.fixture(scope="module")
def verify_200():
    """One in-process `fiqs verify --iota-max 200` run: its report lines and its wall time."""
    out = io.StringIO()
    t0 = time.monotonic()
    with redirect_stdout(out):
        code = main(["verify", "--iota-max", "200"])
    seconds = time.monotonic() - t0
    text = out.getvalue()
    assert code == 0, text
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_200_SHA256, text
    return SimpleNamespace(lines=set(text.splitlines()), seconds=seconds)


def _clean(claim: str, cap: int) -> str:
    """The row of a surface claim that no surface up to Gorenstein index cap fails."""
    return f"PASS {claim} (iota <= {cap}): expected 0, got 0"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


def _report_rows(number: int, name: str, run, rows: list[str], ok: bool = True, detail: str = "") -> None:
    """Report criterion number as passed when every one of its verify rows is in the run and ok holds."""
    missing = [row for row in rows if row not in run.lines]
    detail = f"{len(rows) - len(missing)} of {len(rows)} verify rows pass" + (f", {detail}" if detail else "")
    _report(number, name, ok and not missing, detail)


def test_criterion_1_census_exactness(verify_200):
    rows = [
        "PASS census claim arithmetic 883 + 71198 + 15466258: expected 15538339, got 15538339",
        "PASS rho=1 count at iota <= 200: expected 883, got 883",
        "PASS rho=2 count at iota <= 200: expected 71198, got 71198",
        "PASS rho=3 count at iota <= 200: expected 15466258, got 15466258",
        "PASS total count at iota <= 200: expected 15538339, got 15538339",
    ]
    name = "census counts at iota <= 200 are 883 / 71198 / 15466258, total 15538339"
    seconds = verify_200.seconds
    _report_rows(1, name, verify_200, rows, seconds < 600, f"verify run {seconds:.2f}s single-threaded")


def test_criterion_2_ke_census_exactness(verify_200):
    rows = [
        "PASS rho=1 KE count at iota <= 200: expected 150, got 150",
        "PASS rho=2 KE count at iota <= 200: expected 0, got 0",
        "PASS rho=3 KE count at iota <= 200: expected 1006633, got 1006633",
    ]
    _report_rows(2, "Kaehler-Einstein counts at iota <= 200 are 150 / 0 / 1006633", verify_200, rows)


def test_criterion_3_oracle_equivalence(verify_200):
    rows = [
        _clean("class group formula = smith oracle", 30),
        _clean("local gorenstein formula = solve oracle", 30),
        _clean("degree matrix form = series form", 50),
        _clean("picard matrix form = series form", 50),
        _clean("ke family rule = barycenter test", 30),
    ]
    name = "oracle suite (class group, local Gorenstein, degree, Picard, KE) exact at iota <= 30"
    seconds = verify_200.seconds
    _report_rows(3, name, verify_200, rows, seconds < 30, f"verify run {seconds:.1f}s")


def test_criterion_4_chain_determinant_law(verify_200):
    name = "resolution chain determinants equal local class group orders, iota <= 30"
    _report_rows(4, name, verify_200, [_clean("chain determinant = local order", 30)])


def test_criterion_5_bounds_suite(verify_200):
    name = "degree, log canonicity and Picard index bounds hold on every surface, iota <= 50"
    _report_rows(5, name, verify_200, [_clean("degree, log canonicity, picard bounds", 50)])


def test_criterion_6_canonicalization_round_trip(surfaces_by_rho, verify_200):
    pool = [m for rho in (1, 2, 3) for _, m in up_to(surfaces_by_rho[rho], 20)]
    rng = random.Random(1729)
    bad = 0
    scrambles = 0
    # every surface with iota <= 20 gets at least one randomized scramble,
    # comfortably more than 1000 overall
    for m in pool:
        raw = raw_from_matrix(m)
        for op in _random_ops(m.rho, rng, rng.randint(1, 6)):
            raw = apply_op(raw, op)
        scrambles += 1
        if canonicalize(raw) != m:
            bad += 1
    name = "randomized scrambles recover the normal form (iota <= 20); classify inverts the tables (iota <= 50)"
    rows = [_clean("classify inverts matrix_from_eta", 50)]
    _report_rows(6, name, verify_200, rows, scrambles >= 1000 and bad == 0, f"{scrambles} scrambles, {bad} failures")


def test_criterion_7_plot_data_regression():
    # independent oracle: scan divisor pairs straight from the four series
    # predicates and accumulate, then compare against the emitter
    def brute_count(iota: int) -> int:
        divs = [n for n in range(1, iota + 1) if iota % n == 0]
        n = 0
        for ip in divs:
            for im in divs:
                if lcm(ip, im) != iota:
                    continue
                if ip % 2 == 1 and im % 2 == 1 and ip <= im:
                    n += 1
                if ip % 2 == 1 and im % 4 == 0 and 2 * ip <= im:
                    n += 1
                if ip % 4 == 0 and im % 2 == 1 and ip <= 2 * im:
                    n += 1
                if ip % 4 == 0 and im % 4 == 0 and ip <= im:
                    n += 1
        return n

    cumulative = []
    total = 0
    for iota in range(1, 6):
        total += brute_count(iota)
        cumulative.append(total)
    golden = "".join(f"{i} {c}\n" for i, c in zip(range(1, 6), cumulative))

    sink = io.StringIO()
    emit_plot_data(1, 5, sink)
    ok = golden == "1 1\n2 1\n3 3\n4 5\n5 7\n" and sink.getvalue() == golden
    _report(7, 'emit_plot_data(rho=1, 5) emits exactly "1 1 / 2 1 / 3 3 / 4 5 / 5 7"', ok)


def test_criterion_8_divisibility_invariants(verify_200):
    rows = [
        _clean("local gorenstein divides local order", 50),
        _clean("gorenstein index divides picard index", 50),
        _clean("gorenstein index = lcm of local indices", 50),
        _clean("positivity: degree > 0, 0 < eps <= 1", 50),
    ]
    name = (
        "iota = lcm(iota+, iota-); iota+- divide local orders; iota divides the Picard index; "
        "degree > 0; 0 < eps <= 1 (iota <= 50)"
    )
    _report_rows(8, name, verify_200, rows)
