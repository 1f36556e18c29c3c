"""Full-scale counting and flat-file serialization.

Counting never materializes surfaces.  A block (series, iota+, iota-) of
rho = 3 has s = w+ iota+ + w- iota-, and its surfaces are the partitions of
s into three parts: their interior local orders are (x0, x1, x2) =
(s + c + d, -c, -d), so the block holds round(s^2 / 12) surfaces.  Its
Kaehler-Einstein surfaces are those of a block with o+ = o- whose three
parts are the sides of a triangle (x0 < x1 + x2), round(s^2 / 48) of them.
Per Gorenstein index the work is one factorisation, which lists the lcm
pairs (iota+, iota-), plus one table lookup and one such expression per
pair (``python3 perfbench/run.py --workload census`` measures it).  Both
forms are proved per residue class in ``tests/test_symbolic.py``, and the
counters agree with brute enumeration (tested for small indices).
:mod:`fiqs.verify` checks the census totals at Gorenstein index 200.

Record export uses a fixed JSONL / CSV schema; exact rationals travel as
"numerator/denominator" strings.  The key determines every field, so export
builds no record.  It runs block by block (``fiqs.series._iter_blocks``): a
block (series, iota+, iota-) fixes both local indices, its index classes are
checked once, and only (c, d) varies inside it.  Export builds each block's
frame once: the line with a ``%s`` for each field that varies inside the
block (c, d, b, torsion, degree, log canonicity, Picard index, ke, the
interior orders and chains).  For each key it makes the matrix
(``fiqs.series._matrix``, a ``DefiningMatrix`` that checks its normal form),
takes the field kernel's (m, local orders, values) from
``fiqs.invariants._values``, fills in the frame (``_fill``) and gathers the
line; the lines reach the sink in chunks of about ``_CHUNK_SIZE``
characters, so memory stays flat in iota.  The record encoders and the
CSV reader write a record by one text kernel, ``_record_text``: one memo
lookup of its block's frame (``_json_frame`` or ``_csv_frame``) and one
``%`` format of the record's own values.  The frames are memoised by
(rho, tag, iota+, iota-, a, iota, o+, o-), ints and a tag, no ``Fraction``;
export builds its frames with the unmemoised builders, so the memos serve
only the encoders and the readers.  A frame embeds only these and the x+/x-
chain texts, of at most three weights: a record that disagrees with its
block still writes its own values, and a frame does not grow with the
interior orders.  ``_json_frame`` is the one statement of
the JSON schema: :func:`record_to_obj` is the parsed line of
:func:`record_to_json_line`.  CSV rows are the fields joined by commas,
unquoted: each field is an integer, a series tag, "n/d", true / false, a ";"-joined
chain, empty or a column name, so none needs quoting, ``csv.writer`` writes
the same line and :func:`record_to_csv_row` is the text split at its commas.

The key (rho, series, iota+, iota-[, c[, d]]) determines every other
field, so the readers parse only the key, build the record from its matrix
and accept the input only if it is that record's encoding; otherwise they
raise ``ValueError`` naming the first field that does not parse, differs,
is missing or is extra, or the resolution, before the record is built, if
the input is too short for the matrix's interior chains (``_room``).
"""

from __future__ import annotations

import json
import re
import reprlib
import sys
from functools import lru_cache
from typing import Callable, TextIO

from .core import value_class
from .invariants import POINT_LABELS, SurfaceRecord, _end_chain, _record, _values
from .series import (
    SERIES_IDS,
    SERIES_TAGS,
    DefiningMatrix,
    SeriesKey,
    _CLASS_WEIGHTS,
    _check_index,
    _check_rho,
    _iter_blocks,
    _lcm_pairs_unordered,
    _matrix,
    _orders,
    _series_id,
    matrix_from_eta,
)

__all__ = [
    "CountRow", "CountTable", "count_exact", "count_ke", "count", "export_records", "emit_plot_data",
    "record_to_obj", "record_to_json_line", "record_from_json_line", "CSV_COLUMNS", "record_to_csv_row",
    "record_from_csv_row",
]


# ---------------------------------------------------------------------------
# closed-form counting
# ---------------------------------------------------------------------------


def _cd_count(s: int) -> int:
    """#{(c, d) : c <= d <= -1, 2c + d >= -s}: the partitions of s into three parts, round(s^2 / 12).

    The local orders (x0, x1, x2) = (s + c + d, -c, -d) of the interior
    points satisfy x0 >= x1 >= x2 >= 1 and x0 + x1 + x2 = s.
    """
    return (s * s + 6) // 12


def _triangle_count(s: int) -> int:
    """The partitions of an even s into three parts that are the sides of a triangle, round(s^2 / 48)."""
    return (s * s + 24) // 48


def count_exact(rho: int, iota: int) -> int:
    """Number of surfaces of Gorenstein index exactly iota.

    Each lcm pair (iota+, iota-) is looked up once in the index-class table
    of its residues mod 12; each admitted series with w+ iota+ <= w- iota-
    adds the size of its (c, d) set, which depends on s = w+ iota+ + w- iota-:
    at rho = 3 the partitions of s into three parts, round(s^2 / 12).
    """
    _check_rho(rho)
    _check_index("iota", iota)
    return _count_exact(rho, iota)


def _count_exact(rho: int, iota: int) -> int:
    """:func:`count_exact` for arguments already checked."""
    table = _CLASS_WEIGHTS[rho]
    total = 0
    for ip, im in _lcm_pairs_unordered(iota):
        for wp, wm in table[ip % 12][im % 12]:
            op, om = wp * ip, wm * im
            if op > om:
                continue
            if rho == 1:
                total += 1
            elif rho == 2:
                s = op + om
                total += s // 2 - (s + 3) // 4  # = #{1 - s/2 <= c <= -s/4}, s even
            else:
                total += _cd_count(op + om)
    return total


def count_ke(rho: int, iota: int) -> int:
    """Number of Kaehler-Einstein surfaces of Gorenstein index exactly iota."""
    _check_rho(rho)
    _check_index("iota", iota)
    return _count_ke(rho, iota)


def _count_ke(rho: int, iota: int) -> int:
    """:func:`count_ke` for arguments already checked.

    At rho = 3 the KE blocks are s11 (iota odd) and s22 at iota+ = iota- =
    iota, of o+ = o- = s / 2; each holds the partitions of s into three
    parts that are the sides of a triangle, round(s^2 / 48).
    """
    if rho == 1:
        return (1 if iota % 2 == 1 else 0) + (1 if iota % 4 == 0 else 0)
    if rho == 2:
        return 0
    return (_triangle_count(2 * iota) if iota % 2 == 1 else 0) + _triangle_count(4 * iota)


@value_class
class CountRow:
    iota: int
    exact: int
    cumulative: int
    ke: int
    ke_cumulative: int


@value_class
class CountTable:
    rho: int
    rows: tuple[CountRow, ...]

    @property
    def total(self) -> int:
        return self.rows[-1].cumulative if self.rows else 0

    @property
    def ke_total(self) -> int:
        return self.rows[-1].ke_cumulative if self.rows else 0

    def to_text(self) -> str:
        """Deterministic serialization, one 'iota exact cumulative ke ke_cum' line per iota."""
        return "".join(
            f"{r.iota} {r.exact} {r.cumulative} {r.ke} {r.ke_cumulative}\n" for r in self.rows
        )

    def to_plot_text(self) -> str:
        """Plot data, one 'iota cumulative' line per iota (see :func:`emit_plot_data`)."""
        return "".join(f"{r.iota} {r.cumulative}\n" for r in self.rows)


def count(rho: int, iota_max: int) -> CountTable:
    """Per-index census of all surfaces with Gorenstein index <= iota_max; the arguments are checked once."""
    _check_index("iota_max", iota_max)
    _check_rho(rho)
    rows = []
    cum = 0
    ke_cum = 0
    for i in range(1, iota_max + 1):
        e = _count_exact(rho, i)
        k = _count_ke(rho, i)
        cum += e
        ke_cum += k
        rows.append(CountRow(i, e, cum, k, ke_cum))
    return CountTable(rho, tuple(rows))


# ---------------------------------------------------------------------------
# record serialization
# ---------------------------------------------------------------------------

_JSON_FIELDS = (
    "rho", "series", "iota_plus", "iota_minus", "c", "d", "a", "b", "gorenstein_index", "cl_rank",
    "cl_torsion", "degree", "log_canonicity", "picard_index", "ke", "local_orders", "resolution",
)

CSV_COLUMNS = _JSON_FIELDS[:15] + tuple(f"{f}_{p}" for f in ("local", "resolution") for p in POINT_LABELS[3])


def record_to_obj(rec: SurfaceRecord) -> dict:
    """JSON-ready dict with the fixed field order and exact rational strings: the parsed :func:`record_to_json_line`."""
    return json.loads(record_to_json_line(rec))


def _end_texts(rho: int, op: int, om: int, sep: str) -> tuple[str, str]:
    """The x+ and x- chain texts of local orders o+ and o-, the weights joined by sep."""
    return sep.join(map(str, _end_chain(rho, op))), sep.join(map(str, _end_chain(rho, om)))


# Per rho, the interior points' members of a JSON line's local_orders and resolution objects, a %s each.
_JSON_INNER = {
    rho: ("".join(f',"{p}":%s' for p in labels[2:]), "".join(f',"{p}":[%s]' for p in labels[2:]))
    for rho, labels in POINT_LABELS.items()
}

_MEMO_SIZE = 4096  # entries per frame memo: a frame is a few hundred characters
_CHUNK_SIZE = 32 * 1024  # characters export gathers before one write to its sink

# A frame is the line of one block (series, iota+, iota-) with a %s for each field that varies inside it:
# c[, d], b, torsion, degree, log canonicity, Picard index, ke, the interior orders and the interior chains.
# It embeds only its own arguments and the x+/x- chain texts of o+ and o-, so it is a pure function of its
# memo key, which holds no Fraction (hashing one is slow), and its size does not grow with the orders.  The
# memo is typed: a record with a float order or index writes it as str() does and leaves the int frame alone.


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _json_frame(rho: int, tag: str, ip: int, im: int, a: int, iota: int, op: int, om: int) -> str:
    """The JSONL frame of a block."""
    plus, minus = _end_texts(rho, op, om, ",")
    cd = ('"c":null,"d":null', '"c":%s,"d":null', '"c":%s,"d":%s')[rho - 1]
    local, resolution = _JSON_INNER[rho]
    return (
        f'{{"rho":{rho},"series":"{tag}","iota_plus":{ip},"iota_minus":{im},{cd},"a":{a},"b":%s,'
        f'"gorenstein_index":{iota},"cl_rank":{rho},"cl_torsion":%s,"degree":"%s/%s","log_canonicity":"%s/%s",'
        f'"picard_index":%s,"ke":%s,"local_orders":{{"x+":{op},"x-":{om}{local}}},'
        f'"resolution":{{"x+":[{plus}],"x-":[{minus}]{resolution}}}}}'
    )


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _csv_frame(rho: int, tag: str, ip: int, im: int, a: int, iota: int, op: int, om: int) -> str:
    """The CSV frame of a block, with the placeholders of :func:`_json_frame`; points the rho lacks are empty."""
    plus, minus = _end_texts(rho, op, om, ";")
    cd = (",", "%s,", "%s,%s")[rho - 1]
    inner = ",%s" * rho + "," * (3 - rho)  # rho interior points, then an empty cell for each of the 3 - rho absent
    return f"{rho},{tag},{ip},{im},{cd},{a},%s,{iota},{rho},%s,%s/%s,%s/%s,%s,%s,{op},{om}{inner},{plus},{minus}{inner}"


def _fill(key: SeriesKey, m: DefiningMatrix, o: tuple[int, ...], values: tuple, link: str) -> tuple:
    """What a frame leaves to fill in, in its order.

    The chain text of an interior point of order n is n - 1 links (a separator and the weight -2) less the
    first separator.  ValueError naming the resolution, before any text is made, if n - 1 links exceed a str.
    """
    iota, torsion, deg, eps, pic, ke = values
    inner = o[2:]
    try:
        chains = [(link * (n - 1))[1:] for n in inner]
    except OverflowError:
        raise ValueError(f"field 'resolution' of {key} is too long to write: {max(inner) - 1} weights") from None
    return (
        *(key.c, key.d)[: key.series.rho - 1], m.b, torsion, deg.numerator, deg.denominator,
        eps.numerator, eps.denominator, pic, "true" if ke else "false", *inner, *chains,
    )


def _record_text(rec: SurfaceRecord, frame: Callable[..., str], link: str) -> str:
    """The text kernel: a record's line or row, its block's memoised frame filled in with the record's own values.

    frame is ``_json_frame`` or ``_csv_frame``, link the chain link of its format.
    """
    key, m, o, iota = rec.key, rec.matrix, rec.orders, rec.gorenstein_index
    values = (iota, rec.class_group.torsion_order, rec.degree, rec.log_canonicity, rec.picard_index, rec.ke)
    text = frame(key.series.rho, key.series.tag, key.iota_plus, key.iota_minus, m.a, iota, o[0], o[1])
    return text % _fill(key, m, o, values, link)


def record_to_json_line(rec: SurfaceRecord) -> str:
    """The record's JSONL line, compact, in ``_JSON_FIELDS`` order; the chains are written from the local orders."""
    return _record_text(rec, _json_frame, ",-2")


def _read_int(what: str, value: object) -> int:
    """An int, from an int or its text; ValueError naming what was read, its value shortened, otherwise."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        if str(exc).startswith("Exceeds the limit"):  # a decimal of more than sys.get_int_max_str_digits() digits
            raise ValueError(f"{what} has more than the {sys.get_int_max_str_digits()} digits int() reads") from None
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}") from None


def _key_from_fields(
    rho: object, series: object, iota_plus: object, iota_minus: object, c: object, d: object
) -> SeriesKey:
    """The key named by the six key fields, each number an int or its text.

    c is read only for rho >= 2 and d only for rho = 3.  A field that does
    not parse raises ``ValueError`` naming it; the series predicate is left
    to :func:`~fiqs.series.matrix_from_eta`.
    """
    rho = _read_int("field 'rho'", rho)
    _check_rho(rho)
    try:
        series_id = SERIES_IDS[rho, series]
    except (KeyError, TypeError):
        raise ValueError(f"field 'series' must be one of {', '.join(SERIES_TAGS)}, got {series!r}") from None
    return SeriesKey(
        series_id,
        _read_int("field 'iota_plus'", iota_plus),
        _read_int("field 'iota_minus'", iota_minus),
        _read_int("field 'c'", c) if rho >= 2 else None,
        _read_int("field 'd'", d) if rho == 3 else None,
    )


def _room(m: DefiningMatrix) -> int:
    """A lower bound on the length of a matrix's line or row: three characters per interior weight -2, with its
    separator; an interior point of order n has n - 1 weights."""
    return 3 * (sum(_orders(m)[2:]) - m.rho)


def _rebuild(key: SeriesKey, length: int) -> SurfaceRecord:
    """The record of a key read from input of this length; ValueError, before its chains are built, if too short."""
    m = matrix_from_eta(key)
    if length < _room(m):
        raise ValueError(f"field 'resolution' of {key} needs at least {_room(m)} characters, got {length}")
    return _record(key, *_values(key, m))


# The key fields at the start of a line written by record_to_json_line.
_JSON_KEY_PREFIX = re.compile(
    r'\{"rho":([0-9]+),"series":"(s[12][12])","iota_plus":([0-9]+),"iota_minus":([0-9]+),'
    r'"c":(null|-?[0-9]+),"d":(null|-?[0-9]+),'
)


class _Repeated(dict):
    """A parsed JSON object that gives the field ``name`` more than once."""

    __slots__ = ("name",)


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict, for ``json.loads(object_pairs_hook=...)``.

    A member whose value repeats a field raises ``ValueError`` naming both,
    as in ``duplicate field 'x0' in 'local_orders'``.  An object that repeats
    a field itself comes back as :class:`_Repeated`, because only the object
    around it knows its name.
    """
    for name, value in pairs:
        if type(value) is _Repeated:
            raise ValueError(f"duplicate field {value.name!r} in {name!r}")
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [name for name, _ in pairs]
        obj = _Repeated(obj)
        obj.name = next(n for n in names if names.count(n) > 1)
    return obj


def record_from_json_line(line: str) -> SurfaceRecord:
    """The record of a JSONL line's key, if the line encodes that record.

    Only the key fields are parsed; the record is rebuilt from the key's
    matrix.  A line as :func:`record_to_json_line` writes it is
    accepted by one string comparison, its key read from the line's prefix.
    Any other JSON object is compared with :func:`record_to_obj` field by
    field, by JSON text: spacing and key order may differ, but ``1`` is not
    ``true`` and ``"72"`` is not ``72``.  ``ValueError`` names the first
    field that does not parse, differs, is missing, is extra or is given
    twice (in a nested object too); a line that is no JSON, or nests too deep
    for the decoder, is a ``malformed JSON record``, and a line that is not
    a ``str`` is refused by name.
    """
    if not isinstance(line, str):
        raise ValueError(f"a JSON record line must be a str, got {type(line).__name__}")
    match = _JSON_KEY_PREFIX.match(line)
    try:
        rec = match and _rebuild(_key_from_fields(*match.groups()), len(line))
    except ValueError:  # the prefix names no record: the JSON path below reads the line and names its fault
        rec = None
    if rec and record_to_json_line(rec) == line:
        return rec
    try:
        obj = json.loads(line, object_pairs_hook=_unique_fields)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON record: {exc}") from None
    if type(obj) is _Repeated:
        raise ValueError(f"malformed JSON record: duplicate field {obj.name!r}")
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    for name in _JSON_FIELDS:
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    rec = _rebuild(_key_from_fields(*(obj[name] for name in _JSON_FIELDS[:6])), len(line))
    want = record_to_obj(rec)
    if json.dumps(obj, sort_keys=True) != json.dumps(want, sort_keys=True):
        for name, value in obj.items():
            if name not in want:
                raise ValueError(f"extra field {name!r}")
            got, text = json.dumps(value, sort_keys=True), json.dumps(want[name], sort_keys=True)
            if got != text:
                raise ValueError(f"field {name!r} is {got}, expected {text}")
    return rec


def record_to_csv_row(rec: SurfaceRecord) -> list[str]:
    """The CSV_COLUMNS fields of a record, by the text kernel; points the rho lacks are empty.

    No cell holds a comma (chains are ";"-joined), so the row is the text split at its commas.
    """
    return _record_text(rec, _csv_frame, ";-2").split(",")


def record_from_csv_row(row: list[str]) -> SurfaceRecord:
    """The record of a CSV row's key, if the row is that record's row of text cells.

    Only the key columns are parsed; the record is rebuilt from the key's
    matrix and accepted only if
    :func:`record_to_csv_row` gives the row back.  ``ValueError`` names the
    first column that does not parse, differs, is missing, is extra or is
    not a ``str``, and a row that is not a list or tuple is refused by name.
    """
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"a CSV record row must be a list or tuple of str, got {type(row).__name__}")
    n = len(CSV_COLUMNS)
    if len(row) > n:
        raise ValueError(f"extra column after {CSV_COLUMNS[-1]!r}: {row[n]!r}")
    if len(row) < n:
        raise ValueError(f"missing column {CSV_COLUMNS[len(row)]!r}")
    try:
        joined = ",".join(row)  # the one type pass: join takes only str cells
    except TypeError:
        name, cell = next((name, cell) for name, cell in zip(CSV_COLUMNS, row) if not isinstance(cell, str))
        raise ValueError(f"column {name!r} must be a str, got {cell!r}") from None
    rec = _rebuild(_key_from_fields(*row[:6]), len(joined))
    want = _record_text(rec, _csv_frame, ";-2")
    if want != joined:  # the row has n cells and no cell of want holds a comma, so the texts differ iff a cell does
        for name, got, text in zip(CSV_COLUMNS, row, want.split(",")):
            if got != text:
                raise ValueError(f"column {name!r} is {got!r}, expected {text!r}")
    return rec


def export_records(
    rho: int,
    iota_max: int,
    fmt: str,
    sink: TextIO,
    *,
    iota: int | None = None,
    series: str | None = None,
) -> int:
    """Stream one record per surface to the sink; returns the record count.

    ``iota`` exports a single Gorenstein index, otherwise everything up to
    ``iota_max``.  CSV output starts with a header row.  Bad arguments raise
    ``ValueError`` before anything is written.  Lines are written in chunks
    of about ``_CHUNK_SIZE`` characters; an error writes the lines made
    before it and propagates.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
    series_ids = [_series_id(rho, tag) for tag in (SERIES_TAGS if series is None else (series,))]
    name, bound = ("iota_max", iota_max) if iota is None else ("iota", iota)
    _check_index(name, bound)
    as_csv = fmt == "csv"
    build, link = (_csv_frame.__wrapped__, ";-2") if as_csv else (_json_frame.__wrapped__, ",-2")
    lines = [",".join(CSV_COLUMNS) + "\n"] if as_csv else []
    size = n = 0
    try:
        for i in [iota] if iota is not None else range(1, iota_max + 1):
            for series_id in series_ids:
                for op, om, keys in _iter_blocks(series_id, i):
                    frame = None
                    for key in keys:
                        m, o, values = _values(key, _matrix(rho, op, om, key.c, key.d))
                        if frame is None:  # the block's first key: (a, iota, o+, o-) are the block's
                            frame = build(rho, series_id.tag, key.iota_plus, key.iota_minus, m.a, values[0], op, om)
                            frame += "\n"
                        line = frame % _fill(key, m, o, values, link)
                        lines.append(line)
                        n += 1
                        size += len(line)
                        if size >= _CHUNK_SIZE:
                            text, size = "".join(lines), 0
                            lines.clear()
                            sink.write(text)
    finally:
        if lines:  # the last chunk, or after an error the lines made before it
            sink.write("".join(lines))
    return n


def emit_plot_data(rho: int, iota_max: int, sink: TextIO) -> int:
    """Write 'iota cumulative' lines for iota = 1..iota_max; returns the line count.

    ASCII, single space, newline terminated, no header: the exact format of
    the published filtration plot data.
    """
    sink.write(count(rho, iota_max).to_plot_text())
    return iota_max
