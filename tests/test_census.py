from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

import fiqs.canon
import fiqs.census
import fiqs.invariants
import fiqs.kaehler
from fiqs import (
    SERIES_TAGS,
    DefiningMatrix,
    SeriesId,
    SeriesKey,
    chain_determinant,
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
    _JSON_FIELDS,
    _cd_count,
    _csv_frame,
    _json_frame,
    _room,
    _triangle_count,
    record_to_obj,
)
from fiqs.cli import main
from fiqs.invariants import POINT_LABELS, _record, _values
from fiqs.verify import _ke_explicit_ranges
from fiqs.series import _DIGITS, _WEIGHTS, SERIES_IDS, _lcm_pairs, enumerate_eta, matrix_from_eta, series_membership

from conftest import reference_pair_ok


def brute_cd_count(bound: int) -> int:
    return sum(
        1
        for c in range(-bound, 0)
        for d in range(c, 0)
        if 2 * c + d >= -bound
    )


def test_cd_count_closed_form():
    for bound in range(0, 201):
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


def test_triangle_count_closed_form():
    for s in range(0, 2001, 2):
        assert _triangle_count(s) == brute_ke_cd_count(s, s // 2), s


def test_count_ke_is_its_two_brute_shapes():
    # s11 at iota+ = iota- = iota for odd iota, and s22
    for iota in range(1, 1001):
        s11 = brute_ke_cd_count(2 * iota, iota) if iota % 2 == 1 else 0
        assert count_ke(3, iota) == s11 + brute_ke_cd_count(4 * iota, 2 * iota), iota


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


def test_export_keeps_no_long_chain_alive():
    """Chains of large local order are written, not memoised: five records near iota 10**5 leave almost nothing behind."""
    tracemalloc.start()
    try:
        assert export_records(1, 1, "jsonl", io.StringIO(), iota=100_001) == 5
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 250_000, f"{kept} bytes still allocated after export"


class _Discard:
    """A sink that keeps nothing, so traced memory is export's own."""

    def write(self, text: str) -> None:
        pass


def _export_peak(fmt: str, iota: int) -> int:
    export_records(3, 1, fmt, _Discard(), iota=iota)  # fill the chain-text memo first
    tracemalloc.start()
    try:
        export_records(3, 1, fmt, _Discard(), iota=iota)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_export_streams_the_keys_of_an_index(fmt):
    """Keys are made one at a time: rho 3 has 753 surfaces at iota 12 and 3 463 at 24, and the peak stays flat.

    Holding one (series, iota)'s keys in a list costs about 250 kB more at 24 than at 12.
    """
    low, high = _export_peak(fmt, 12), _export_peak(fmt, 24)
    assert high - low < 50_000, f"peak {low} bytes at iota 12, {high} at 24"


@pytest.mark.parametrize("rho, iota_max", [(1, 200), (3, 12)])
def test_export_leaves_the_frame_memos_alone(rho, iota_max):
    """Export builds each block's frame once, unmemoised: the memos serve only the record encoders and readers."""
    before = (_json_frame.cache_info(), _csv_frame.cache_info())
    for fmt in ("jsonl", "csv"):
        export_records(rho, iota_max, fmt, _Discard())
    assert (_json_frame.cache_info(), _csv_frame.cache_info()) == before


def test_export_runs_each_check_once(monkeypatch):
    """One index-class check per (series, lcm pair) examined, and one key and one matrix made per record."""
    calls = {"_pair_ok": 0, "SeriesKey": 0, "DefiningMatrix": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(fiqs.series, "_pair_ok", counting("_pair_ok", fiqs.series._pair_ok))
    for cls in (SeriesKey, DefiningMatrix):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    records = export_records(3, 12, "jsonl", _Discard())
    pairs = len(SERIES_TAGS) * sum(len(_lcm_pairs(iota)) for iota in range(1, 13))
    assert calls == {"_pair_ok": pairs, "SeriesKey": records, "DefiningMatrix": records}
    assert records == count(3, 12).total


@pytest.mark.parametrize("fmt, header", [("jsonl", 0), ("csv", 1)])
def test_failing_export_writes_the_lines_before_the_error(monkeypatch, fmt, header):
    """Lines are written in chunks, and an error still leaves exactly the lines made before it in the sink."""
    whole = io.StringIO()
    export_records(3, 12, fmt, whole)
    values, made = fiqs.census._values, [0]

    def failing(key, m):
        made[0] += 1
        if made[0] > 500:
            raise RuntimeError("the 501st record fails")
        return values(key, m)

    monkeypatch.setattr(fiqs.census, "_values", failing)
    sink = io.StringIO()
    with pytest.raises(RuntimeError, match="501st"):
        export_records(3, 12, fmt, sink)
    assert sink.getvalue() == "".join(whole.getvalue().splitlines(keepends=True)[: header + 500])


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
        (True, 2, "jsonl", {}, "rho must be 1, 2 or 3, got True"),
        (1.0, 2, "jsonl", {}, "rho must be 1, 2 or 3, got 1.0"),
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


_RHO3_JSONL_SHA256 = "e19de7e553479783c0d67fad46ed92fe397cb658b9ecee33eed6ef10b1e87568"


@pytest.mark.parametrize(
    "rho, iota_max, fmt, digest",
    [
        (3, 8, "jsonl", _RHO3_JSONL_SHA256),
        (2, 20, "csv", "151c80ee1e0f17a5ce8fc638cd18217b963e3b026976c334df49bd2bfe93fc08"),
    ],
)
def test_export_golden_digest(rho, iota_max, fmt, digest):
    sink = io.StringIO()
    export_records(rho, iota_max, fmt, sink)
    assert hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize(
    "rho, iota_max, fmt, digest, records",
    [
        (1, 60, "csv", "fa1b05789673eae6fba599bdd84c217deb60a9b12f6d20bd3379aa56fe969fd7", 190),
        (2, 20, "jsonl", "7afcf9e1538ab8d96c01a67f7994fc0f57032d75c6c7fe9bbd57e57b36f8d739", 501),
        (3, 8, "csv", "a9f7476d4637e060bb9b0f0cc688a2dcf75ee8bdf24a29257148c3267b11a659", 727),
        (1, 200, "jsonl", "9e4c394e3e5de8fe2432916a4e0152e4a0abfd065449f0a1916719d1debc8f6c", 883),
    ],
)
def test_export_golden_digest_every_rho_and_format(rho, iota_max, fmt, digest, records):
    """The pins above and these cover each rho in each format: CSV pads the points a rho lacks."""
    sink = io.StringIO()
    assert export_records(rho, iota_max, fmt, sink) == records
    assert hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_export_equals_dict_form_of_each_key(rho):
    """Each exported line and row is the dict form of surface_record(key), encoded field by field."""
    keys = [key for iota in range(1, 16) for tag in SERIES_TAGS for key in enumerate_eta(SERIES_IDS[rho, tag], iota)]
    objs = [record_to_obj(surface_record(key)) for key in keys]
    jsonl, table = io.StringIO(), io.StringIO()
    assert export_records(rho, 15, "jsonl", jsonl) == export_records(rho, 15, "csv", table) == len(keys)
    assert jsonl.getvalue().splitlines() == [json.dumps(obj, separators=(",", ":")) for obj in objs]
    rows = list(csv.reader(io.StringIO(table.getvalue())))
    assert rows == [list(CSV_COLUMNS)] + [csv_row_from_obj(obj) for obj in objs]


@st.composite
def member_keys(draw, bound=10**6):
    """Keys that satisfy their series predicate, with iota+ and iota- up to bound.

    Each local index is drawn from the index class of its tag digit (a residue
    mod 12), and c, d from the ranges the predicate allows.
    """
    rho = draw(st.sampled_from((1, 2, 3)))
    tag = draw(st.sampled_from(SERIES_TAGS))
    indices = []
    for digit in tag[1:]:
        residue = draw(st.sampled_from(sorted(_DIGITS[rho][int(digit) - 1][1])))
        indices.append(12 * draw(st.integers(1 if residue == 0 else 0, (bound - residue) // 12)) + residue)
    ip, im = indices
    wp, wm = _WEIGHTS[rho][tag]
    assume(wp * ip <= wm * im)
    s, c, d = wp * ip + wm * im, None, None
    if rho == 2:
        assume(1 - s // 2 <= -s // 4)
        c = draw(st.integers(1 - s // 2, -s // 4))
    elif rho == 3:
        assume(s >= 3)
        c = draw(st.integers(-((s - 1) // 2), -1))
        d = draw(st.integers(max(c, -s - 2 * c), -1))
    key = SeriesKey(SERIES_IDS[rho, tag], ip, im, c, d)
    assume(series_membership(key))
    return key


def obj_from_record(rec) -> dict:
    """The dict form of a record, built field by field from its attributes, apart from the text kernels."""
    key, m, group = rec.key, rec.matrix, rec.class_group
    return {
        "rho": key.rho, "series": key.series.tag, "iota_plus": key.iota_plus, "iota_minus": key.iota_minus,
        "c": key.c, "d": key.d, "a": m.a, "b": m.b, "gorenstein_index": rec.gorenstein_index,
        "cl_rank": group.free_rank, "cl_torsion": group.torsion_order,
        "degree": f"{rec.degree.numerator}/{rec.degree.denominator}",
        "log_canonicity": f"{rec.log_canonicity.numerator}/{rec.log_canonicity.denominator}",
        "picard_index": rec.picard_index, "ke": rec.ke,
        "local_orders": dict(zip(POINT_LABELS[key.rho], rec.orders)),
        "resolution": {p: list(chain) for p, chain in rec.resolution.chains.items()},
    }


@settings(max_examples=10, deadline=None)  # a chain near 10**6 weights takes about 0.3 s to encode both ways
@given(member_keys())
def test_text_kernels_equal_dict_form_at_large_orders(key):
    """The text kernels equal the record's fields at local orders up to about 10**6, far past the export tests.

    The JSON line is compared as text, so field order counts and ``true`` is not ``1``.
    """
    rec = surface_record(key)
    obj = obj_from_record(rec)
    assert list(obj) == list(_JSON_FIELDS) and list(obj["local_orders"]) == list(POINT_LABELS[key.rho])
    assert record_to_json_line(rec) == json.dumps(obj, separators=(",", ":"))
    assert record_to_csv_row(rec) == csv_row_from_obj(obj)


# The twins of a genuine record in its own block: each changes one field the block does not fix, and gives
# that field's text in the dict form.
_TWINS = (
    ("degree", {"degree": Fraction(7, 5)}, "7/5"),
    ("log_canonicity", {"log_canonicity": Fraction(3, 11)}, "3/11"),
    ("cl_torsion", {"class_group": fiqs.invariants.ClassGroup(3, 7)}, 7),
    ("picard_index", {"picard_index": 12345}, 12345),
    ("gorenstein_index", {"gorenstein_index": 3.0}, 3.0),  # the frame memo is typed: 3.0 is not the int 3
)


@pytest.mark.parametrize("rho, tag, eta", [(1, "s11", (3, 3)), (2, "s12", (1, 3, -4)), (3, "s11", (3, 3, -2, -2))])
def test_frames_write_each_records_own_values(monkeypatch, rho, tag, eta):
    """A frame holds only what its key names: after a genuine record, twins of its block write their own values.

    No value is computed on the way: the closed forms are broken while the lines are written.
    """
    rec = surface_record(SeriesKey(SERIES_IDS[rho, tag], *eta))
    line, row = record_to_json_line(rec), record_to_csv_row(rec)  # the block's frames are built and memoised
    genuine = json.loads(line)
    for name in ("_torsion", "_degree", "_log_canonicity", "_picard_index", "_ke_rule"):
        monkeypatch.setattr(fiqs.invariants, name, None)
    for field, change, value in (*_TWINS, ("ke", {"ke": not rec.ke}, not rec.ke)):
        obj = {**genuine, field: value}
        twin = replace(rec, **change)
        assert record_to_json_line(twin) == json.dumps(obj, separators=(",", ":")), field
        assert record_to_csv_row(twin) == csv_row_from_obj(obj), field
    assert (record_to_json_line(rec), record_to_csv_row(rec)) == (line, row)


def test_export_digest_with_cold_and_warm_frames():
    """The pinned export is the same whether its frames are built during the run or were built before it."""
    _json_frame.cache_clear()
    for state in ("cold", "warm"):
        sink = io.StringIO()
        export_records(3, 8, "jsonl", sink)
        assert hashlib.sha256(sink.getvalue().encode("ascii")).hexdigest() == _RHO3_JSONL_SHA256, state


@settings(max_examples=25, deadline=None)
@given(member_keys(bound=10**5))
def test_frames_hold_no_interior_chain(key):
    """A frame's size is bounded whatever the interior orders: only the fill-in holds their chains."""
    m, o, values = _values(key, matrix_from_eta(key))
    args = (key.rho, key.series.tag, key.iota_plus, key.iota_minus, m.a, values[0], o[0], o[1])
    assert len(_json_frame(*args)) < 400 and len(_csv_frame(*args)) < 200, key


def test_field_kernel_keeps_the_checks(monkeypatch):
    """The path behind export checks a key as surface_record does, with the same error."""
    outside = SeriesKey(SeriesId(1, "s12"), 1, 3)  # s12 needs 4 | iota-
    with pytest.raises(ValueError) as want:
        surface_record(outside)
    with pytest.raises(ValueError) as got:
        _values(outside, matrix_from_eta(outside))
    assert str(got.value) == str(want.value) == f"key does not satisfy its series predicate: {outside}"

    # Every member key expands to a normal form, so make one inequality fail for all of rho 3.
    texts = (*fiqs.series._INEQUALITIES[3], "a < 0")
    monkeypatch.setitem(fiqs.series._HOLDS, 3, fiqs.series._predicate(" and ".join(texts)))
    monkeypatch.setitem(fiqs.series._CHECKS, 3, tuple((t, fiqs.series._predicate(t)) for t in texts))
    key = SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)
    with pytest.raises(ValueError) as want:
        surface_record(key)
    with pytest.raises(ValueError) as got:
        _values(key, matrix_from_eta(key))
    assert str(got.value) == str(want.value) == "matrix is not in normal form, violated: a < 0"


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
        assert record_from_csv_row(tuple(row)) == rec  # a tuple of str is a row too


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
        # nested too deep for the decoder: a bare RecursionError is no named rejection
        (record_from_json_line, "[" * 1000, "malformed JSON record"),
        (
            record_from_json_line,
            record_to_json_line(_GOOD_REC)[:-1] + ',"extra":' + "[" * 5000 + "]" * 5000 + "}",
            "malformed JSON record",
        ),
        (record_from_json_line, json.dumps({**record_to_obj(_RHO1_REC), "c": 0}), "'c'"),
        # a line that is no str is named, not a bare TypeError from the prefix pattern
        (record_from_json_line, record_to_json_line(_GOOD_REC).encode(), "must be a str, got bytes"),
        (record_from_json_line, None, "must be a str, got NoneType"),
        (record_from_csv_row, _csv_with("degree", "16/6"), "'degree'"),
        (record_from_csv_row, _csv_with("rho", "03"), "'rho'"),
        (record_from_csv_row, _csv_with("d", ""), "'d'"),
        (record_from_csv_row, _csv_with("c", "0", _RHO1_REC), "'c'"),
        (record_from_csv_row, _csv_with("local_x1", "1", _RHO1_REC), "'local_x1'"),
        # a row that is no list or tuple of str is named, not a bare TypeError or a column count
        (record_from_csv_row, 5, "^a CSV record row must be a list or tuple of str, got int$"),
        (record_from_csv_row, ",".join(record_to_csv_row(_GOOD_REC)), "must be a list or tuple of str, got str$"),
        (record_from_csv_row, ",".join(record_to_csv_row(_GOOD_REC)).encode(), "tuple of str, got bytes$"),
        (record_from_csv_row, None, "must be a list or tuple of str, got NoneType$"),
        (record_from_csv_row, [3, *record_to_csv_row(_GOOD_REC)[1:]], "^column 'rho' must be a str, got 3$"),
        (record_from_csv_row, [int(c) if c.isdigit() else c for c in record_to_csv_row(_GOOD_REC)], "'rho' must be a str"),
        (record_from_csv_row, _csv_with("degree", None), "^column 'degree' must be a str, got None$"),
        (record_from_csv_row, _csv_with("resolution_x2", b"-2"), "^column 'resolution_x2' must be a str, got b'-2'$"),
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


_BAD_KEY_PREFIX = '{"rho":3,"series":"s11","iota_plus":1,"iota_minus":1,"c":-99999999999999,"d":-1,'


def test_a_line_that_is_no_json_is_malformed_whatever_its_prefix():
    """A prefix naming a key with no normal form does not decide the message: the line is read as JSON first."""
    with pytest.raises(ValueError, match="^malformed JSON record: "):
        record_from_json_line(_BAD_KEY_PREFIX)
    whole = json.dumps({**record_to_obj(_GOOD_REC), "iota_plus": 1, "iota_minus": 1, "c": -99999999999999, "d": -1},
                       separators=(",", ":"))
    assert whole.startswith(_BAD_KEY_PREFIX)
    with pytest.raises(ValueError, match="^matrix is not in normal form, violated: a > b, a-b >= -c$"):
        record_from_json_line(whole)


@pytest.mark.parametrize(
    "cell, message",
    [
        ("-" + "9" * 5000, f"^field 'c' has more than the {sys.get_int_max_str_digits()} digits int\\(\\) reads$"),
        ("x" * 5000, "^field 'c' must be an integer, got 'xxx"),
    ],
)
def test_a_long_key_cell_is_named_not_echoed(cell, message):
    with pytest.raises(ValueError, match=message) as exc:
        record_from_csv_row(_csv_with("c", cell))
    assert len(str(exc.value)) < 200


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


# An 89-character JSON line and a 25-column CSV row of the same key, each too short for its x0 chain of
# 4 000 001 weights; neither is the key's encoding.
_HUGE_KEY_LINE = '{"rho":1,"series":"s11","iota_plus":2000001,"iota_minus":2000001,"c":null,"d":null,"a":0}'
_HUGE_KEY_ROW = ["1", "s11", "2000001", "2000001"] + [""] * (len(CSV_COLUMNS) - 4)


@pytest.mark.parametrize(
    "decode, raw", [(record_from_json_line, _HUGE_KEY_LINE), (record_from_csv_row, _HUGE_KEY_ROW)]
)
def test_short_input_of_a_huge_key_builds_no_record(decode, raw):
    """A short line is rejected before the record of its key is built, so its memory does not grow with iota."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            decode(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak of {peak} bytes"


def test_room_is_named_before_the_record():
    with pytest.raises(ValueError, match="'resolution'.* needs at least 12000003 characters, got 42"):
        record_from_csv_row(_HUGE_KEY_ROW)
    line = json.dumps({**record_to_obj(_RHO1_REC), "iota_plus": 2000001, "iota_minus": 2000001})  # no field missing
    with pytest.raises(ValueError, match="'resolution'"):
        record_from_json_line(line)


# Per rho, the interior local orders of a member key add up to s / q, with s = w+ iota+ + w- iota-.
_INTERIOR_SHARE = {1: 4, 2: 2, 3: 1}


def _assert_room(key):
    rec = _record(key, *_values(key, matrix_from_eta(key)))
    rho, o = key.rho, rec.orders
    wp, wm = _WEIGHTS[rho][key.series.tag]
    assert sum(o[2:]) * _INTERIOR_SHARE[rho] == wp * key.iota_plus + wm * key.iota_minus, key
    assert len(record_to_json_line(rec)) >= _room(rec.matrix), key
    assert len(",".join(record_to_csv_row(rec))) >= _room(rec.matrix), key


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_every_genuine_line_and_row_has_room(rho):
    """The readers' length bound holds for every line and row up to iota 30."""
    for iota in range(1, 31):
        for tag in SERIES_TAGS:
            for key in enumerate_eta(SERIES_IDS[rho, tag], iota):
                _assert_room(key)


@settings(max_examples=25, deadline=None)
@given(member_keys(bound=10**5))
def test_large_genuine_lines_and_rows_have_room(key):
    _assert_room(key)


@settings(max_examples=25, deadline=None)
@given(member_keys(bound=10**5))
def test_chain_determinant_law_at_large_orders(key):
    """Every chain's determinant is its point's local order, far past the iota <= 30 of the verify claim."""
    rec = surface_record(key)
    chains = rec.resolution.chains
    for label, order in rec.local.orders.items():
        assert chain_determinant(chains[label]) == order, label


def test_cli_eta_errors_name_the_field(capsys):
    assert main(["invariants", "--eta", "3,s11,3,3,-2,x"]) == 1
    assert "'d'" in capsys.readouterr().err
    assert main(["invariants", "--eta", "2,s99,1,1,-1"]) == 1
    assert "'series'" in capsys.readouterr().err
    assert main(["invariants", "--eta", "3,s11,3,3"]) == 1
    assert "eta for rho=3 needs 6 fields, got 4" in capsys.readouterr().err
    assert main(["invariants", "--eta", "1,s11,1"]) == 1
    assert "eta needs at least RHO,SERIES,IOTA+,IOTA-" in capsys.readouterr().err


def test_errors_on_nonpositive_bounds():
    with pytest.raises(ValueError):
        count(1, 0)
    with pytest.raises(ValueError):
        count_exact(1, 0)
    with pytest.raises(ValueError):
        emit_plot_data(1, 0, io.StringIO())
    with pytest.raises(ValueError):
        verify_claims(0)


def test_count_checks_its_arguments_once(monkeypatch):
    calls = {"_check_rho": 0, "_check_index": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fiqs.census, name, counting(name, getattr(fiqs.census, name)))
    table = count(3, 50)
    assert calls == {"_check_rho": 1, "_check_index": 1}
    assert [r.exact for r in table.rows] == [count_exact(3, i) for i in range(1, 51)]
    assert [r.ke for r in table.rows] == [count_ke(3, i) for i in range(1, 51)]
    with pytest.raises(ValueError, match=r"^iota_max must be positive, got 0$"):
        count(7, 0)  # the index is named before rho, as when every row was checked
    with pytest.raises(ValueError, match=r"^rho must be 1, 2 or 3, got 7$"):
        count(7, 5)


_MEMBER = DefiningMatrix(3, 1, -3, -3, -3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: count_ke(3, 12.0), "iota must be an int, got 12.0"),
        (lambda: count_exact(3, 12.0), "iota must be an int, got 12.0"),
        (lambda: count_exact(3, "12"), "iota must be an int, got '12'"),
        (lambda: count(3, 12.0), "iota_max must be an int, got 12.0"),
        (lambda: emit_plot_data(3, 12.0, io.StringIO()), "iota_max must be an int, got 12.0"),
        (lambda: verify_claims(3.0), "iota_max must be an int, got 3.0"),
        (lambda: fiqs.kaehler.barycenter_oracle(_MEMBER, "0"), "kappa='0' is not special for rho=3"),
        (lambda: fiqs.kaehler.barycenter_oracle(_MEMBER, True), "kappa=True is not special for rho=3"),
        (lambda: fiqs.kaehler.degeneration_polygon(_MEMBER, 1.0), "kappa=1.0 is not special for rho=3"),
        (lambda: enumerate_all(3, 12.0), "iota must be an int, got 12.0"),
        (lambda: enumerate_eta(SERIES_IDS[3, "s11"], "12"), "iota must be an int, got '12'"),
        (lambda: enumerate_eta(("x",), 3), "series must be a SeriesId, got ('x',)"),
        (lambda: count(3, True), "iota_max must be an int, got True"),
    ],
    ids=["count_ke", "count_exact float", "count_exact str", "count", "emit_plot_data", "verify_claims",
         "barycenter_oracle", "barycenter_oracle bool", "degeneration_polygon float", "enumerate_all", "enumerate_eta",
         "enumerate_eta series", "count bool"],
)
def test_bad_index_arguments_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "kwargs, message", [({}, "iota_max must be an int, got 3.0"), ({"iota": "3"}, "iota must be an int, got '3'")]
)
def test_export_names_a_bad_index_before_writing(kwargs, message):
    sink = io.StringIO()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        export_records(1, 3.0, "csv", sink, **kwargs)
    assert sink.getvalue() == ""
