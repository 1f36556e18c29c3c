from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

import fiqs.canon
import fiqs.census
import fiqs.invariants
import fiqs.kaehler
from fiqs import (
    SERIES_TAGS,
    SeriesId,
    SeriesKey,
    count,
    count_exact,
    count_ke,
    emit_plot_data,
    enumerate_all,
    export_records,
    is_ke_family,
    record_from_csv_row,
    record_from_json_line,
    record_to_csv_row,
    record_to_json_line,
    surface_record,
    verify_claims,
)
from fiqs.census import (
    CSV_COLUMNS,
    _bounds_violations,
    _cd_count,
    _index_bounds,
    _ke_cd_count,
    _ke_explicit_ranges,
    record_to_obj,
)
from fiqs.cli import main
from fiqs.series import _WEIGHTS, _lcm_pairs

from conftest import reference_pair_ok


def brute_cd_count(bound: int) -> int:
    return sum(
        1
        for c in range(-bound, 0)
        for d in range(c, 0)
        if 2 * c + d >= -bound
    )


def test_cd_count_closed_form():
    for bound in range(0, 60):
        assert _cd_count(bound) == brute_cd_count(bound)


def brute_ke_cd_count(bound: int, t: int) -> int:
    total = 0
    c_lo = -((bound - 1) // 2)
    for c in range(c_lo, 0):
        d_lo = max(c, -bound - 2 * c)
        d_hi = min(-1, -t - 1 - c)
        if d_hi >= d_lo:
            total += d_hi - d_lo + 1
    return total


def test_ke_cd_count_closed_form():
    # covers bound < 3, t >= bound and both call shapes (2i, i) and (4i, 2i)
    for bound in range(0, 401):
        for t in range(0, 301):
            assert _ke_cd_count(bound, t) == brute_ke_cd_count(bound, t), (bound, t)


def test_lcm_pairs_match_full_divisor_scan():
    for n in range(1, 2001):
        divs = [k for k in range(1, n + 1) if n % k == 0]
        scan = [(p, q) for p in divs for q in divs if lcm(p, q) == n]
        assert _lcm_pairs(n) == scan, n


def reference_count_exact(rho: int, iota: int) -> int:
    """count_exact as a loop over the four tags, each pair tested by the tag ladder."""
    total = 0
    for ip, im in _lcm_pairs(iota):
        for tag in SERIES_TAGS:
            if not reference_pair_ok(rho, tag, ip, im):
                continue
            if rho == 1:
                total += 1
                continue
            wp, wm = _WEIGHTS[rho][tag]
            s = wp * ip + wm * im
            total += s // 2 - (s + 3) // 4 if rho == 2 else _cd_count(s)
    return total


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_count_exact_matches_tag_loop(rho):
    for iota in range(1, 2001):
        assert count_exact(rho, iota) == reference_count_exact(rho, iota), iota


@pytest.mark.parametrize(
    "rho, total, ke_total",
    [(1, 25_067, 2_250), (2, 21_280_019, 0), (3, 66_124_422_141, 3_376_499_500)],
)
def test_census_totals_at_3000(rho, total, ke_total):
    table = count(rho, 3000)
    assert (table.total, table.ke_total) == (total, ke_total)


def test_count_ke_matches_explicit_ranges():
    for iota in range(1, 61):
        assert count_ke(3, iota) == len(_ke_explicit_ranges(3, iota)), iota


def test_counts_match_enumeration():
    for rho in (1, 2, 3):
        for iota in range(1, 26):
            pairs = enumerate_all(rho, iota)
            assert count_exact(rho, iota) == len(pairs), (rho, iota)
            assert count_ke(rho, iota) == sum(is_ke_family(k) for k, _ in pairs), (rho, iota)


def test_count_table_prefix_sums():
    table = count(1, 10)
    cum = 0
    ke_cum = 0
    for row in table.rows:
        cum += row.exact
        ke_cum += row.ke
        assert row.cumulative == cum
        assert row.ke_cumulative == ke_cum
        assert row.ke <= row.exact


def test_count_small_values():
    assert count(1, 1).total == 1
    table = count(1, 5)
    assert [r.exact for r in table.rows] == [1, 0, 2, 2, 2]
    assert table.total == 7


def test_plot_data_small_golden():
    sink = io.StringIO()
    assert emit_plot_data(1, 5, sink) == 5
    assert sink.getvalue() == "1 1\n2 1\n3 3\n4 5\n5 7\n"


def test_cli_plot_data_matches_emit_plot_data(tmp_path, capsys):
    for rho in (1, 2, 3):
        plot = tmp_path / f"plot{rho}.txt"
        assert main(["count", "--rho", str(rho), "--iota-max", "50", "--plot-data", str(plot)]) == 0
        sink = io.StringIO()
        assert emit_plot_data(rho, 50, sink) == 50
        assert plot.read_text(encoding="ascii") == sink.getvalue()


def test_plot_data_line_format():
    sink = io.StringIO()
    emit_plot_data(2, 7, sink)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 7
    for i, line in enumerate(lines, start=1):
        iota, cum = line.split(" ")
        assert int(iota) == i
        assert int(cum) >= 0


def test_export_jsonl_single_surface():
    sink = io.StringIO()
    assert export_records(1, 1, "jsonl", sink) == 1
    obj = json.loads(sink.getvalue())
    assert obj["rho"] == 1
    assert obj["series"] == "s11"
    assert obj["a"] == 0 and obj["b"] == -2
    assert obj["degree"] == "2/1"
    assert obj["local_orders"] == {"x+": 4, "x-": 4, "x0": 2}
    assert obj["c"] is None and obj["d"] is None


def test_export_csv_header_and_rows():
    sink = io.StringIO()
    assert export_records(2, 1, "csv", sink) == 2
    lines = sink.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


def test_export_single_iota_and_series_filter():
    sink = io.StringIO()
    n = export_records(1, 0, "jsonl", sink, iota=4, series="s12")
    assert n == 1
    obj = json.loads(sink.getvalue())
    assert obj["series"] == "s12" and obj["gorenstein_index"] == 4


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError):
        export_records(1, 1, "parquet", io.StringIO())


@pytest.mark.parametrize(
    "rho, iota_max, fmt, kwargs, message",
    [
        (3, 0, "jsonl", {}, "iota_max must be positive, got 0"),
        (3, -5, "csv", {}, "iota_max must be positive, got -5"),
        (4, 0, "csv", {}, "rho must be 1, 2 or 3, got 4"),
        (0, 5, "jsonl", {}, "rho must be 1, 2 or 3, got 0"),
        (1, 5, "csv", {"iota": 0}, "iota must be positive, got 0"),
        (1, 5, "csv", {"series": "s99"}, "unknown series tag 's99'"),
    ],
)
def test_export_rejects_bad_arguments_before_writing(rho, iota_max, fmt, kwargs, message):
    sink = io.StringIO()
    with pytest.raises(ValueError, match=message):
        export_records(rho, iota_max, fmt, sink, **kwargs)
    assert sink.getvalue() == ""


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_csv_export_equals_csv_writer(rho):
    """The comma-joined rows are what csv.writer writes: no field needs quoting."""
    sink, ref = io.StringIO(), io.StringIO()
    export_records(rho, 15, "csv", sink)
    writer = csv.writer(ref, lineterminator="\n")
    rows = [list(CSV_COLUMNS)]
    for iota in range(1, 16):
        rows += [record_to_csv_row(surface_record(key, m)) for key, m in enumerate_all(rho, iota)]
    for row in rows:
        assert not any(ch in field for field in row for ch in ',"\r\n'), row
        writer.writerow(row)
    assert sink.getvalue() == ref.getvalue()


def test_export_full_picard_one_census():
    sink = io.StringIO()
    assert export_records(1, 200, "jsonl", sink) == 883
    lines = sink.getvalue().splitlines()
    assert len(lines) == 883
    last = json.loads(lines[-1])
    assert last["gorenstein_index"] == 200


def csv_row_from_obj(obj: dict) -> list[str]:
    """A CSV row built from the dict form, field by field."""
    row = []
    for field in CSV_COLUMNS[:15]:
        v = obj[field]
        if v is None:
            row.append("")
        elif isinstance(v, bool):
            row.append("true" if v else "false")
        else:
            row.append(str(v))
    for p in ("x+", "x-", "x0", "x1", "x2"):
        row.append(str(obj["local_orders"][p]) if p in obj["local_orders"] else "")
    for p in ("x+", "x-", "x0", "x1", "x2"):
        chains = obj["resolution"]
        row.append(";".join(str(w) for w in chains[p]) if p in chains else "")
    return row


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_direct_encoders_match_dict_form(rho):
    for iota in range(1, 16):
        for key, m in enumerate_all(rho, iota):
            rec = surface_record(key, m)
            obj = record_to_obj(rec)
            assert record_to_json_line(rec) == json.dumps(obj, separators=(",", ":"))
            assert record_to_csv_row(rec) == csv_row_from_obj(obj)


@pytest.mark.parametrize(
    "rho, iota_max, fmt, digest",
    [
        (3, 8, "jsonl", "e19de7e553479783c0d67fad46ed92fe397cb658b9ecee33eed6ef10b1e87568"),
        (2, 20, "csv", "151c80ee1e0f17a5ce8fc638cd18217b963e3b026976c334df49bd2bfe93fc08"),
    ],
)
def test_export_golden_digest(rho, iota_max, fmt, digest):
    sink = io.StringIO()
    export_records(rho, iota_max, fmt, sink)
    assert hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest() == digest


def test_jsonl_round_trip():
    for rho in (1, 2, 3):
        for iota in range(1, 16):
            for key, m in enumerate_all(rho, iota):
                rec = surface_record(key, m)
                assert record_from_json_line(record_to_json_line(rec)) == rec


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_jsonl_reader_accepts_any_spacing_and_key_order(rho):
    """Off the byte-equal path, a line is compared as a JSON object."""
    for iota in range(1, 16):
        for key, m in enumerate_all(rho, iota):
            rec = surface_record(key, m)
            obj = record_to_obj(rec)
            assert record_from_json_line(json.dumps(obj)) == rec
            assert record_from_json_line(json.dumps(dict(reversed(obj.items())), indent=1)) == rec


def test_csv_round_trip():
    for rho in (1, 2, 3):
        for iota in range(1, 16):
            for key, m in enumerate_all(rho, iota):
                rec = surface_record(key, m)
                assert record_from_csv_row(record_to_csv_row(rec)) == rec


def test_csv_round_trip_of_short_chains():
    """A chain of no weights (a smooth point) and one of a single weight survive a CSV file."""
    records = [surface_record(key, m) for rho in (2, 3) for iota in (1, 2, 3) for key, m in enumerate_all(rho, iota)]
    chosen = [
        next(r for r in records if any(len(c) == n for c in r.resolution.chains.values())) for n in (0, 1)
    ]
    for rec in chosen:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(record_to_csv_row(rec))
        (row,) = csv.reader(io.StringIO(buf.getvalue()))
        assert record_from_csv_row(row) == rec


_GOOD_REC = surface_record(SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2))
_RHO1_REC = surface_record(SeriesKey(SeriesId(1, "s11"), 3, 3))


def _json_with(**fields):
    obj = json.loads(record_to_json_line(_GOOD_REC))
    obj.update(fields)
    return json.dumps(obj)


def _csv_with(column, value, rec=_GOOD_REC):
    row = record_to_csv_row(rec)
    row[CSV_COLUMNS.index(column)] = value
    return row


@pytest.mark.parametrize(
    "decode, raw, field",
    [
        (record_from_csv_row, ["1"], "series"),
        (record_from_csv_row, [], "rho"),
        (record_from_csv_row, record_to_csv_row(_GOOD_REC)[:8], "gorenstein_index"),
        (record_from_csv_row, _csv_with("degree", "1/0"), "degree"),
        (record_from_csv_row, _csv_with("iota_plus", "x"), "iota_plus"),
        (record_from_json_line, "[]", "object"),
        (record_from_json_line, "{}", "rho"),
        (record_from_json_line, _json_with(degree="1/0"), "degree"),
        (record_from_json_line, _json_with(local_orders=5), "local_orders"),
        (record_from_json_line, _json_with(resolution=[1]), "resolution"),
        (record_from_csv_row, _csv_with("ke", "yes"), "'ke'"),
        (record_from_csv_row, _csv_with("ke", "True"), "'ke'"),
        (record_from_json_line, _json_with(ke="yes"), "'ke'"),
        (record_from_json_line, _json_with(ke=1), "'ke'"),
        (record_from_csv_row, record_to_csv_row(_GOOD_REC) + ["junk"], "extra column after 'resolution_x2'"),
        (record_from_csv_row, record_to_csv_row(_RHO1_REC)[:-1], "missing column 'resolution_x2'"),
        (record_from_json_line, _json_with(extra=1), "extra field 'extra'"),
        (record_from_json_line, _json_with(local_orders={"x+": 3, "x-": 3}), "'local_orders'"),
        (record_from_json_line, _json_with(picard_index="72"), "'picard_index'"),
        (record_from_json_line, _json_with(c=-2.0), "'c'"),
        (record_from_json_line, _json_with(rho=3.5), "'rho'"),
        (record_from_json_line, _json_with(c=None), "'c'"),
        (record_from_json_line, _json_with(series=["s11"]), "'series'"),
        (record_from_json_line, record_to_json_line(_GOOD_REC)[:-1], "malformed JSON record"),
        (record_from_json_line, json.dumps({**record_to_obj(_RHO1_REC), "c": 0}), "'c'"),
        (record_from_csv_row, _csv_with("degree", "16/6"), "'degree'"),
        (record_from_csv_row, _csv_with("rho", "03"), "'rho'"),
        (record_from_csv_row, _csv_with("d", ""), "'d'"),
        (record_from_csv_row, _csv_with("c", "0", _RHO1_REC), "'c'"),
        (record_from_csv_row, _csv_with("local_x1", "1", _RHO1_REC), "'local_x1'"),
        # a repeated field is rejected, not judged by its last (here correct) copy
        (record_from_json_line, _json_with(picard_index=73)[:-1] + ', "picard_index": 72}', "duplicate field 'picard_index'"),
        (record_from_json_line, record_to_json_line(_GOOD_REC).replace('"x0":2', '"x0":3,"x0":2', 1), "duplicate field 'x0'"),
        # a field repeated inside a nested object is named with the object around it
        (
            record_from_json_line,
            record_to_json_line(_GOOD_REC).replace('"x0":2', '"x0":3,"x0":2', 1),
            "duplicate field 'x0' in 'local_orders'",
        ),
        (
            record_from_json_line,
            record_to_json_line(_GOOD_REC).replace('"x0":[-2]', '"x0":[-2],"x0":[-2]', 1),
            "duplicate field 'x0' in 'resolution'",
        ),
    ],
)
def test_decoders_name_malformed_field(decode, raw, field):
    with pytest.raises(ValueError, match=field):
        decode(raw)


# One tampered value per field of _GOOD_REC.  A key field gets a value that
# parses to its number, or does not parse, so that the key stays the same.
_JSON_TAMPERS = {
    "rho": "3",
    "series": "S11",
    "iota_plus": 3.0,
    "iota_minus": "3",
    "c": [-2],
    "d": "-2",
    "a": 4,
    "b": 2,
    "gorenstein_index": 6,
    "cl_rank": 2,
    "cl_torsion": 2,
    "degree": "16/6",
    "log_canonicity": "1/3",
    "picard_index": 73,
    "ke": False,
    "local_orders": {"x+": 3, "x-": 3, "x0": 2, "x1": 2, "x2": 3},
    "resolution": {"x+": [-3], "x-": [-3], "x0": [-2], "x1": [-2], "x2": [-2, -2]},
}


@pytest.mark.parametrize("field", list(record_to_obj(_GOOD_REC)))
def test_json_reader_names_tampered_field(field):
    with pytest.raises(ValueError, match=re.escape(f"'{field}'")):
        record_from_json_line(_json_with(**{field: _JSON_TAMPERS[field]}))


_CSV_TAMPERS = {
    "rho": " 3",
    "series": "S11",
    "iota_plus": "+3",
    "iota_minus": "3.0",
    "c": "-2 ",
    "d": "-02",
    "a": "4",
    "b": "2",
    "gorenstein_index": "6",
    "cl_rank": "2",
    "cl_torsion": "2",
    "degree": "3/1",
    "log_canonicity": "4/6",
    "picard_index": "73",
    "ke": "false",
    "local_x+": "4",
    "local_x-": "6",
    "local_x0": "1",
    "local_x1": "3",
    "local_x2": "4",
    "resolution_x+": "-4",
    "resolution_x-": "-2;-2",
    "resolution_x0": "",
    "resolution_x1": "-2;-2",
    "resolution_x2": "-3",
}


@pytest.mark.parametrize("column", CSV_COLUMNS)
def test_csv_reader_names_tampered_column(column):
    with pytest.raises(ValueError, match=re.escape(f"'{column}'")):
        record_from_csv_row(_csv_with(column, _CSV_TAMPERS[column]))


def test_cli_eta_errors_name_the_field(capsys):
    assert main(["invariants", "--eta", "3,s11,3,3,-2,x"]) == 1
    assert "'d'" in capsys.readouterr().err
    assert main(["invariants", "--eta", "2,s99,1,1,-1"]) == 1
    assert "'series'" in capsys.readouterr().err
    assert main(["invariants", "--eta", "3,s11,3,3"]) == 1
    assert "eta for rho=3 needs 6 fields, got 4" in capsys.readouterr().err


def test_verify_claims_small_range_passes():
    report = verify_claims(6)
    assert report.ok, report.to_text()
    claims = {r.claim for r in report.results}
    assert any("class group" in c for c in claims)
    assert any("census claim arithmetic" in c for c in claims)
    # census totals are not checked below full scale
    assert not any("count at iota <= 200" in c for c in claims)


def test_verify_report_text_shape():
    report = verify_claims(4)
    text = report.to_text()
    assert text.strip().endswith("overall: PASS")
    assert all(line.startswith(("PASS", "FAIL", "NOTE", "overall")) for line in text.strip().splitlines())


@pytest.mark.parametrize(
    "name, claim",
    [("_degree", "degree matrix form = series form"), ("_picard_index", "picard matrix form = series form")],
)
def test_verify_catches_a_broken_closed_form(monkeypatch, capsys, name, claim):
    """A wrong closed form in the record is caught by its oracle, and fiqs verify exits 2."""
    correct = getattr(fiqs.invariants, name)
    monkeypatch.setattr(fiqs.invariants, name, lambda *args: correct(*args) + 1)
    results = {r.claim.split(" (iota")[0]: r for r in verify_claims(4).results}
    assert not results[claim].passed
    assert main(["verify", "--iota-max", "4"]) == 2
    assert f"FAIL {claim}" in capsys.readouterr().out


# sha256 of verify_claims(12).to_text(): speeding up the verify loop must not change its report.
VERIFY_12_SHA256 = "d65ce9fd3b5c52965e091f919054b3563a5671c3cdf654276a477c7aadb9ad81"


def test_verify_report_is_pinned():
    assert hashlib.sha256(verify_claims(12).to_text().encode()).hexdigest() == VERIFY_12_SHA256


def _off_torsion(snf):
    return SimpleNamespace(rank=snf.rank, torsion_order=snf.torsion_order + 1)


# Each oracle kernel made off by one: (where it is looked up, its name there,
# the wrong version of a correct function, the claim whose oracle it is).
_ORACLE_MUTANTS = {
    "smith torsion": (
        fiqs.invariants, "smith_normal_form",
        lambda f: lambda m: _off_torsion(f(m)),
        "class group formula = smith oracle",
    ),
    "solve3": (
        fiqs.invariants, "solve3",
        lambda f: lambda m, rhs: tuple(Fraction(u.numerator, u.denominator + 1) for u in f(m, rhs)),
        "local gorenstein formula = solve oracle",
    ),
    "centroid": (
        fiqs.kaehler, "_centroid_homogeneous",
        lambda f: lambda vertices: (f(vertices)[0] + 1, f(vertices)[1]),
        "barycenters = polygon dual centroids",
    ),
    "orbit images": (
        fiqs.canon._ORBITS, 3,
        lambda f: lambda p: tuple((q[0] + 1, *q[1:]) for q in f(p)),
        "canonicalize fixes canonical raw form",
    ),
    "upper bound": (
        fiqs.census._UPPER_BOUNDS, 1,
        lambda f: lambda iota: (*f(iota)[:2], f(iota)[2] - 1),
        "degree, log canonicity, picard bounds",
    ),
}


@pytest.mark.parametrize("mutant", sorted(_ORACLE_MUTANTS))
def test_verify_catches_a_broken_oracle(monkeypatch, capsys, mutant):
    """An oracle kernel off by one fails its own claim and no other, and fiqs verify exits 2."""
    where, name, wrong, claim = _ORACLE_MUTANTS[mutant]
    if isinstance(where, dict):
        monkeypatch.setitem(where, name, wrong(where[name]))
    else:
        monkeypatch.setattr(where, name, wrong(getattr(where, name)))
    failed = {r.claim.split(" (iota")[0] for r in verify_claims(4).results if not r.passed}
    assert failed == {claim}
    assert main(["verify", "--iota-max", "4"]) == 2
    assert f"FAIL {claim}" in capsys.readouterr().out


def test_errors_on_nonpositive_bounds():
    with pytest.raises(ValueError):
        count(1, 0)
    with pytest.raises(ValueError):
        count_exact(1, 0)
    with pytest.raises(ValueError):
        emit_plot_data(1, 0, io.StringIO())
    with pytest.raises(ValueError):
        verify_claims(0)


def reference_bounds_violations(rho, key, deg, eps, pic):
    """The bound checks with the bounds of all three rho built on every call."""
    iota = key.iota
    bad = []
    deg_lo = Fraction(rho + 1, iota)
    deg_hi = {1: 1 + Fraction(4, iota), 2: Fraction(9, 2) + Fraction(9, 2 * iota), 3: 4 + Fraction(4, iota)}[rho]
    if not deg_lo <= deg <= deg_hi:
        bad.append(f"degree bound at {key}")
    k2 = {1: 4, 2: 9, 3: 4}[rho]
    if not (Fraction(1, iota) <= eps and eps * eps * iota <= k2):
        bad.append(f"log canonicity bound at {key}")
    pic_hi = {
        1: 8 * iota * iota,
        2: Fraction(27, 2) * iota**3 * (3 * iota - 1),
        3: 2 * iota**2 * (4 * iota - 1) ** 2 * (2 * iota - 1),
    }[rho]
    if not iota <= pic <= pic_hi:
        bad.append(f"picard bound at {key}")
    return bad


def test_bounds_violations_match_reference():
    """Every surface with iota <= 30 as computed; about 20 per rho and iota pushed past each bound."""
    flagged = set()
    for rho in (1, 2, 3):
        for iota in range(1, 31):
            surfaces = enumerate_all(rho, iota)
            for i, (key, m) in enumerate(surfaces):
                rec = surface_record(key, m)
                deg, eps, pic = rec.degree, rec.log_canonicity, rec.picard_index
                cases = [(deg, eps, pic)]
                if i % max(1, len(surfaces) // 20) == 0:
                    cases += [
                        (deg / 2 / iota, eps / 2 / iota, pic // (2 * iota)),
                        (deg * 8, eps * 4, pic * 64 * iota**3),
                        (Fraction(rho + 1, iota), 3 * eps, 0),
                    ]
                for args in cases:
                    got = _bounds_violations(_index_bounds(rho, iota), key, *args)
                    assert got == reference_bounds_violations(rho, key, *args), (key, args)
                    flagged.update((rho, msg.split(" at ")[0]) for msg in got)
    # the pushed values cross every bound of every rho
    kinds = ("degree bound", "log canonicity bound", "picard bound")
    assert flagged == {(rho, k) for rho in (1, 2, 3) for k in kinds}
