"""Full-scale counting, claim verification and flat-file serialization.

Counting never materializes surfaces: for fixed (series, iota+, iota-) the
admissible (c, d) form a lattice set whose size has a closed form, and so
does its Kaehler-Einstein part.  Per Gorenstein index the work is one
factorisation, which lists the lcm pairs (iota+, iota-), plus one table
lookup and O(1) arithmetic per pair, so the census of all three Picard
numbers up to index 200 takes about 10 ms and up to 1000 about 0.048 s
(reference seconds, Python 3.11 on one core of a shared x86-64 host; see
``python3 perfbench/run.py --workload census``).  The closed-form counters
agree with brute enumeration (tested for small indices), and
:func:`verify_claims` re-checks every quantitative claim of the
classification plus the internal oracle suites.

Record export uses a fixed JSONL / CSV schema; exact rationals travel as
"numerator/denominator" strings.  The key determines every field, so export
builds no record: ``fiqs.invariants._fields`` checks each key as
:func:`~fiqs.invariants.surface_record` does and gives the field kernel's
(m, local orders, values), which one text kernel per format (``_json_text``,
``_csv_row``) writes, with the chains of small local order from a memo.  The
record encoders pass the same triple, read back by ``_record_fields``:
:func:`record_to_json_line` equals ``json.dumps(record_to_obj(rec),
separators=(",", ":"))`` byte for byte, :func:`record_to_obj` being the
documented dict form.  CSV rows are the fields joined by commas, unquoted:
each field is an integer, a series tag, "n/d", true / false, a ";"-joined
chain, empty or a column name, so none needs quoting and ``csv.writer`` writes
the same line.

The key (rho, series, iota+, iota-[, c[, d]]) determines every other
field, so the readers parse only the key, rebuild the record with
:func:`~fiqs.invariants.surface_record` and accept the input only if it
is that record's encoding; otherwise they raise ``ValueError`` naming the
first field that does not parse, differs, is missing or is extra, or the
resolution, before the record is built, if the input is too short for it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import lcm
from operator import not_
from typing import Callable, TextIO

from .canon import NormalFormError, canonicalize, raw_from_matrix
from .invariants import (
    _ELLIPTIC,
    _SHARED_ORDER_MAX,
    POINT_LABELS,
    SurfaceRecord,
    _chain,
    _fields,
    _resolution,
    chain_determinant,
    class_group_oracle,
    degree_from_eta,
    local_gorenstein_oracle,
    picard_index_from_eta,
    record_from_matrix,
    surface_record,
)
from .kaehler import Barycenter, _ke_criterion, barycenter_oracle, barycenters
from .series import (
    SERIES_IDS,
    SERIES_TAGS,
    DefiningMatrix,
    SeriesKey,
    _CLASS_WEIGHTS,
    _WEIGHTS,
    _check_rho,
    _lcm_pairs_unordered,
    _series_id,
    enumerate_all,
    enumerate_eta,
)

__all__ = [
    "CountRow", "CountTable", "ClaimResult", "VerifyReport", "count_exact", "count_ke", "count",
    "verify_claims", "export_records", "emit_plot_data", "record_to_obj", "record_to_json_line",
    "record_from_json_line", "CSV_COLUMNS", "record_to_csv_row", "record_from_csv_row",
    "CENSUS_IOTA_MAX", "CENSUS_CLAIMS",
]

# Census totals at Gorenstein index <= 200: (count, ke_count) per rho.
CENSUS_IOTA_MAX = 200
CENSUS_CLAIMS = {1: (883, 150), 2: (71198, 0), 3: (15466258, 1006633)}
CENSUS_TOTAL = 15538339


# ---------------------------------------------------------------------------
# closed-form counting
# ---------------------------------------------------------------------------


def _cd_count(bound: int) -> int:
    """#{(c, d) : c <= d <= -1, 2c + d >= -bound} in closed form."""
    if bound < 3:
        return 0
    third = bound // 3
    total = third * (third + 1) // 2  # c' = -c <= bound/3: d' ranges over 1..c'
    hi = (bound - 1) // 2
    lo = third + 1
    if hi >= lo:
        # remaining c': d' ranges over 1..bound-2c', an arithmetic series
        first = bound - 2 * lo
        last = bound - 2 * hi
        total += (first + last) * (hi - lo + 1) // 2
    return total


def _arith_sum(slope: int, intercept: int, lo: int, hi: int) -> int:
    """Sum of slope * x + intercept over the integers lo <= x <= hi."""
    if hi < lo:
        return 0
    return (slope * (lo + hi) + 2 * intercept) * (hi - lo + 1) // 2


def _ke_cd_count(bound: int, t: int) -> int:
    """#{(c, d) : c <= d <= -1, 2c + d >= -bound, c + d <= -t - 1} in closed form.

    With x = -c and y = -d, y runs over max(1, t+1-x)..min(x, bound-2x).  The
    two max/min terms switch at x = t and x = bound // 3, so the count per x
    is linear on four pieces; each piece is clipped to where it is positive
    and summed as an arithmetic series.
    """
    third = bound // 3
    half = (bound - 1) // 2  # bound - 2x >= 1
    return (
        # x <= t, x <= bound/3: y in t+1-x..x
        _arith_sum(2, -t, t // 2 + 1, min(t, third))
        # x <= t, x > bound/3: y in t+1-x..bound-2x
        + _arith_sum(-1, bound - t, third + 1, min(t, bound - t - 1))
        # x > t, x <= bound/3: y in 1..x
        + _arith_sum(1, 0, t + 1, third)
        # x > t, x > bound/3: y in 1..bound-2x
        + _arith_sum(-2, bound, max(t, third) + 1, half)
    )


def count_exact(rho: int, iota: int) -> int:
    """Number of surfaces of Gorenstein index exactly iota.

    Each lcm pair (iota+, iota-) is looked up once in the index-class table
    of its residues mod 12; each admitted series with w+ iota+ <= w- iota-
    adds the size of its (c, d) set, which depends on s = w+ iota+ + w- iota-.
    """
    _check_rho(rho)
    if iota < 1:
        raise ValueError(f"iota must be positive, got {iota}")
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
    if iota < 1:
        raise ValueError(f"iota must be positive, got {iota}")
    if rho == 1:
        return (1 if iota % 2 == 1 else 0) + (1 if iota % 4 == 0 else 0)
    if rho == 2:
        return 0
    total = 0
    if iota % 2 == 1:
        total += _ke_cd_count(2 * iota, iota)  # s11 at iota+ = iota- = iota
    total += _ke_cd_count(4 * iota, 2 * iota)  # s22
    return total


@dataclass(frozen=True, slots=True)
class CountRow:
    iota: int
    exact: int
    cumulative: int
    ke: int
    ke_cumulative: int


@dataclass(frozen=True, slots=True)
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
    """Per-index census of all surfaces with Gorenstein index <= iota_max."""
    if iota_max < 1:
        raise ValueError(f"iota_max must be positive, got {iota_max}")
    rows = []
    cum = 0
    ke_cum = 0
    for i in range(1, iota_max + 1):
        e = count_exact(rho, i)
        k = count_ke(rho, i)
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
    """JSON-ready dict with the fixed field order and exact rational strings."""
    key, m, deg, eps = rec.key, rec.matrix, rec.degree, rec.log_canonicity
    return {
        "rho": key.rho,
        "series": key.series.tag,
        "iota_plus": key.iota_plus,
        "iota_minus": key.iota_minus,
        "c": key.c,
        "d": key.d,
        "a": m.a,
        "b": m.b,
        "gorenstein_index": rec.gorenstein_index,
        "cl_rank": rec.class_group.free_rank,
        "cl_torsion": rec.class_group.torsion_order,
        "degree": f"{deg.numerator}/{deg.denominator}",
        "log_canonicity": f"{eps.numerator}/{eps.denominator}",
        "picard_index": rec.picard_index,
        "ke": rec.ke,
        "local_orders": dict(zip(POINT_LABELS[key.rho], rec.orders)),
        "resolution": {p: list(chain) for p, chain in _resolution(key.rho, rec.orders).chains.items()},
    }


@lru_cache(maxsize=1024)
def _chain_text(rho: int, order: int, elliptic: bool, sep: str) -> str:
    """A point's resolution chain joined by sep, memoised by its order: the all-(-2) chains recur."""
    chain = _chain(rho, order, elliptic)
    if len(set(chain)) == 1:  # one weight, as in every long chain: its text once, repeated
        return sep.join(repeat(str(chain[0]), len(chain)))
    return sep.join(map(str, chain))


def _chain_texts(rho: int, o: tuple[int, ...], sep: str) -> list[str]:
    """Each point's chain text; only orders up to _SHARED_ORDER_MAX go to the memo, so no long text stays alive."""
    return [
        (_chain_text if n <= _SHARED_ORDER_MAX else _chain_text.__wrapped__)(rho, n, e, sep) for n, e in zip(o, _ELLIPTIC)
    ]


# Per rho, the local_orders and resolution members of a JSON line, with a %s per point.
_JSON_POINTS = {
    rho: (",".join(f'"{p}":%s' for p in labels), ",".join(f'"{p}":[%s]' for p in labels))
    for rho, labels in POINT_LABELS.items()
}


def _json_text(key: SeriesKey, m: DefiningMatrix, o: tuple[int, ...], values: tuple) -> str:
    """The JSONL text kernel: a key's line from the field kernel's (m, local orders o, values)."""
    rho = key.series.rho
    iota, torsion, deg, eps, pic, ke = values
    local, resolution = _JSON_POINTS[rho]
    chains = tuple(_chain_texts(rho, o, ","))
    c, d = key.c, key.d
    return (
        f'{{"rho":{rho},"series":"{key.series.tag}","iota_plus":{key.iota_plus},'
        f'"iota_minus":{key.iota_minus},"c":{"null" if c is None else c},'
        f'"d":{"null" if d is None else d},"a":{m.a},"b":{m.b},'
        f'"gorenstein_index":{iota},"cl_rank":{rho},"cl_torsion":{torsion},'
        f'"degree":"{deg.numerator}/{deg.denominator}","log_canonicity":"{eps.numerator}/{eps.denominator}",'
        f'"picard_index":{pic},"ke":{"true" if ke else "false"},'
        f'"local_orders":{{{local % o}}},"resolution":{{{resolution % chains}}}}}'
    )


def _csv_row(key: SeriesKey, m: DefiningMatrix, o: tuple[int, ...], values: tuple) -> list[str]:
    """The CSV text kernel: a key's row from what :func:`_json_text` takes; points the rho lacks are empty."""
    rho = key.series.rho
    iota, torsion, deg, eps, pic, ke = values
    c, d = key.c, key.d
    absent = [""] * (len(POINT_LABELS[3]) - len(o))
    return [
        str(rho), key.series.tag, str(key.iota_plus), str(key.iota_minus),
        "" if c is None else str(c), "" if d is None else str(d), str(m.a), str(m.b), str(iota), str(rho), str(torsion),
        f"{deg.numerator}/{deg.denominator}", f"{eps.numerator}/{eps.denominator}", str(pic), "true" if ke else "false",
        *map(str, o), *absent, *_chain_texts(rho, o, ";"), *absent,
    ]


def _record_fields(rec: SurfaceRecord) -> tuple:
    """A record's (m, local orders, values), as the field kernel gives them: the inverse of ``_record``."""
    values = (rec.gorenstein_index, rec.class_group.torsion_order, rec.degree, rec.log_canonicity, rec.picard_index, rec.ke)
    return rec.matrix, rec.orders, values


def record_to_json_line(rec: SurfaceRecord) -> str:
    """``json.dumps(record_to_obj(rec), separators=(",", ":"))``; the chains are written from the local orders."""
    return _json_text(rec.key, *_record_fields(rec))


def _key_int(name: str, value: object) -> int:
    """A key field as an int, from an int or its text; ValueError naming the field otherwise."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} must be an integer, got {value!r}") from None


def _key_from_fields(
    rho: object, series: object, iota_plus: object, iota_minus: object, c: object, d: object
) -> SeriesKey:
    """The key named by the six key fields, each number an int or its text.

    c is read only for rho >= 2 and d only for rho = 3.  A field that does
    not parse raises ``ValueError`` naming it; the series predicate is left
    to :func:`~fiqs.invariants.surface_record`.
    """
    rho = _key_int("rho", rho)
    _check_rho(rho)
    try:
        series_id = SERIES_IDS[rho, series]
    except (KeyError, TypeError):
        raise ValueError(f"field 'series' must be one of {', '.join(SERIES_TAGS)}, got {series!r}") from None
    return SeriesKey(
        series_id,
        _key_int("iota_plus", iota_plus),
        _key_int("iota_minus", iota_minus),
        _key_int("c", c) if rho >= 2 else None,
        _key_int("d", d) if rho == 3 else None,
    )


def _room(key: SeriesKey) -> int:
    """A lower bound on a key's line or row length: three characters per interior weight -2, with its separator.

    An interior point of order n has n - 1 weights, and the interior orders of a member key add up to s/4, s/2
    and s for rho = 1, 2 and 3, with s = w+ iota+ + w- iota-.
    """
    wp, wm = _WEIGHTS[key.series.rho][key.series.tag]
    return 3 * ((wp * key.iota_plus + wm * key.iota_minus) // (4, 2, 1)[key.series.rho - 1] - key.series.rho)


def _rebuild(key: SeriesKey, length: int) -> SurfaceRecord:
    """The record of a key read from input of this length; ValueError, before its chains are built, if too short."""
    if length < _room(key):
        raise ValueError(f"field 'resolution' of {key} needs at least {_room(key)} characters, got {length}")
    return surface_record(key)


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

    Only the key fields are parsed; :func:`~fiqs.invariants.surface_record`
    rebuilds the record.  A line as :func:`record_to_json_line` writes it is
    accepted by one string comparison, its key read from the line's prefix.
    Any other JSON object is compared with :func:`record_to_obj` field by
    field, by JSON text: spacing and key order may differ, but ``1`` is not
    ``true`` and ``"72"`` is not ``72``.  ``ValueError`` names the first
    field that does not parse, differs, is missing, is extra or is given
    twice (in a nested object too).
    """
    match = _JSON_KEY_PREFIX.match(line)
    key = match and _key_from_fields(*match.groups())
    if key and len(line) >= _room(key):
        rec = surface_record(key)
        if record_to_json_line(rec) == line:
            return rec
    try:
        obj = json.loads(line, object_pairs_hook=_unique_fields)
    except ValueError as exc:
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
    """The CSV_COLUMNS fields of a record, by the text kernel; points the rho lacks are empty."""
    return _csv_row(rec.key, *_record_fields(rec))


def record_from_csv_row(row: list[str]) -> SurfaceRecord:
    """The record of a CSV row's key, if the row is that record's row of text cells.

    Only the key columns are parsed; the record is rebuilt with
    :func:`~fiqs.invariants.surface_record` and accepted only if
    :func:`record_to_csv_row` gives the row back.  ``ValueError`` names the
    first column that does not parse, differs, is missing or is extra.
    """
    n = len(CSV_COLUMNS)
    if len(row) > n:
        raise ValueError(f"extra column after {CSV_COLUMNS[-1]!r}: {row[n]!r}")
    if len(row) < n:
        raise ValueError(f"missing column {CSV_COLUMNS[len(row)]!r}")
    rec = _rebuild(_key_from_fields(*row[:6]), len(",".join(row)))
    want = record_to_csv_row(rec)
    if want != row:
        for name, got, text in zip(CSV_COLUMNS, row, want):
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
    ``ValueError`` before anything is written.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be 'jsonl' or 'csv', got {fmt!r}")
    series_ids = [_series_id(rho, tag) for tag in (SERIES_TAGS if series is None else (series,))]
    name, bound = ("iota_max", iota_max) if iota is None else ("iota", iota)
    if bound < 1:
        raise ValueError(f"{name} must be positive, got {bound}")
    as_csv = fmt == "csv"
    if as_csv:
        sink.write(",".join(CSV_COLUMNS) + "\n")
    n = 0
    for i in [iota] if iota is not None else range(1, iota_max + 1):
        for series_id in series_ids:
            for key in enumerate_eta(series_id, i):
                fields = _fields(key)
                sink.write((",".join(_csv_row(key, *fields)) if as_csv else _json_text(key, *fields)) + "\n")
                n += 1
    return n


def emit_plot_data(rho: int, iota_max: int, sink: TextIO) -> int:
    """Write 'iota cumulative' lines for iota = 1..iota_max; returns the line count.

    ASCII, single space, newline terminated, no header: the exact format of
    the published filtration plot data.
    """
    sink.write(count(rho, iota_max).to_plot_text())
    return iota_max


# ---------------------------------------------------------------------------
# claim verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClaimResult:
    claim: str
    expected: object
    computed: object
    passed: bool


@dataclass(frozen=True, slots=True)
class VerifyReport:
    results: tuple[ClaimResult, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.claim}: expected {r.expected}, got {r.computed}"
            for r in self.results
        ]
        lines.extend(f"NOTE {n}" for n in self.notes)
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


# Per rho, the upper bounds at Gorenstein index iota: the degree, k^2 for
# the log canonicity bound eps <= k/sqrt(iota), and the Picard index.
_UPPER_BOUNDS: dict[int, Callable[[int], tuple[Fraction, int, Fraction | int]]] = {
    1: lambda iota: (1 + Fraction(4, iota), 4, 8 * iota * iota),
    2: lambda iota: (
        Fraction(9, 2) + Fraction(9, 2 * iota),
        9,
        Fraction(27, 2) * iota**3 * (3 * iota - 1),
    ),
    3: lambda iota: (4 + Fraction(4, iota), 4, 2 * iota**2 * (4 * iota - 1) ** 2 * (2 * iota - 1)),
}


def _index_bounds(rho: int, iota: int) -> tuple:
    """The bounds of Gorenstein index iota for one rho, built once per index.

    (iota, degree lower, degree upper, log canonicity lower, k^2, Picard upper):
    the lower bounds are (rho+1)/iota on the degree, 1/iota on the log
    canonicity and iota on the Picard index.
    """
    deg_hi, k2, pic_hi = _UPPER_BOUNDS[rho](iota)
    return iota, Fraction(rho + 1, iota), deg_hi, Fraction(1, iota), k2, pic_hi


def _bounds_violations(bounds: tuple, key: SeriesKey, deg: Fraction, eps: Fraction, pic: int) -> list[str]:
    """Bound checks on a surface's degree, log canonicity and Picard index.

    ``bounds`` is :func:`_index_bounds` of the surface's rho and index.
    """
    iota, deg_lo, deg_hi, eps_lo, k2, pic_hi = bounds
    bad = []
    if not deg_lo <= deg <= deg_hi:
        bad.append(f"degree bound at {key}")
    # upper bound eps <= k/sqrt(iota) tested by squaring, on the reduced
    # numerator and denominator of eps: num^2 * iota <= k^2 * den^2
    if not (eps_lo <= eps and eps.numerator**2 * iota <= k2 * eps.denominator**2):
        bad.append(f"log canonicity bound at {key}")
    if not iota <= pic <= pic_hi:
        bad.append(f"picard bound at {key}")
    return bad


def _ke_explicit_ranges(rho: int, iota: int) -> list[SeriesKey]:
    """KE keys at one Gorenstein index, spelled out as explicit c, d ranges.

    An independent phrasing of the family rule; verify checks it selects the
    same keys as the inequality predicate behind is_ke_family.
    """
    out = []
    if rho == 1:
        if iota % 2 == 1:
            out.append(SeriesKey(SERIES_IDS[1, "s11"], iota, iota))
        if iota % 4 == 0:
            out.append(SeriesKey(SERIES_IDS[1, "s22"], iota, iota))
    elif rho == 3:
        if iota % 2 == 1:
            for c in range(-iota + 1, -1):
                for d in range(max(c, -2 * iota - 2 * c), -iota - c):
                    out.append(SeriesKey(SERIES_IDS[3, "s11"], iota, iota, c, d))
        for c in range(-2 * iota + 1, -1):
            for d in range(max(c, -4 * iota - 2 * c), -2 * iota - c):
                out.append(SeriesKey(SERIES_IDS[3, "s22"], iota, iota, c, d))
    return out


class _Index:
    """One (rho, iota) of the scan: its surfaces, its bounds and, listed on first use, its explicit KE keys."""

    def __init__(self, rho: int, iota: int) -> None:
        self.rho, self.iota, self.bounds, self.pairs = rho, iota, _index_bounds(rho, iota), enumerate_all(rho, iota)

    @cached_property
    def ke_keys(self) -> set[SeriesKey] | None:
        """The keys the explicit ranges name; None if they name one twice or name one that is no surface here."""
        named = _ke_explicit_ranges(self.rho, self.iota)
        keys = set(named)
        return keys if len(keys) == len(named) and keys <= {key for key, _ in self.pairs} else None


class _Surface:
    """One surface of the scan, classified once; its closed-form barycenters are evaluated on first use."""

    __slots__ = ("index", "key", "m", "rec", "_bcs")

    def __init__(self, index: _Index, key: SeriesKey, m: DefiningMatrix) -> None:
        self.index, self.key, self.m, self.rec, self._bcs = index, key, m, record_from_matrix(m), None

    @property
    def bcs(self) -> list[Barycenter]:
        if self._bcs is None:
            self._bcs = barycenters(self.m)
        return self._bcs


def _canonical_form_fixed(s: _Surface) -> bool:
    try:
        return canonicalize(raw_from_matrix(s.m)) == s.m
    except NormalFormError:
        return False


def _chain_determinants_match(s: _Surface) -> bool:
    chains = _resolution(s.key.rho, s.rec.orders).chains.values()
    return all(chain_determinant(chain) == n for chain, n in zip(chains, s.rec.orders))


# The claims checked surface by surface, in report order: the claim, the largest
# Gorenstein index it is checked to, and its test on one surface (true when the
# surface satisfies the claim).  The tests look their oracles up when called.
_SURFACE_CLAIMS: tuple[tuple[str, int, Callable[[_Surface], bool]], ...] = (
    ("class group formula = smith oracle", 30, lambda s: s.rec.class_group == class_group_oracle(s.m)),
    ("local gorenstein formula = solve oracle", 30,
     lambda s: s.rec.key.iota_plus == local_gorenstein_oracle(s.m, "plus")
     and s.rec.key.iota_minus == local_gorenstein_oracle(s.m, "minus")),
    ("local gorenstein divides local order", 50, lambda s: s.rec.orders[0] % s.rec.key.iota_plus == 0
     and s.rec.orders[1] % s.rec.key.iota_minus == 0),
    ("gorenstein index = lcm of local indices", 50,
     lambda s: lcm(s.rec.key.iota_plus, s.rec.key.iota_minus) == s.index.iota),
    ("degree matrix form = series form", 50, lambda s: s.rec.degree == degree_from_eta(s.key)),
    ("picard matrix form = series form", 50, lambda s: s.rec.picard_index == picard_index_from_eta(s.key)),
    ("ke family rule = barycenter test", 30, lambda s: s.rec.ke == _ke_criterion(s.bcs)),
    ("barycenters = polygon dual centroids", 20,
     lambda s: all((bc.x, bc.y) == barycenter_oracle(s.m, bc.kappa) for bc in s.bcs)),
    ("chain determinant = local order", 30, _chain_determinants_match),
    ("degree, log canonicity, picard bounds", 50,
     lambda s: not _bounds_violations(s.index.bounds, s.key, s.rec.degree, s.rec.log_canonicity, s.rec.picard_index)),
    ("gorenstein index divides picard index", 50, lambda s: s.rec.picard_index % s.index.iota == 0),
    ("positivity: degree > 0, 0 < eps <= 1", 50, lambda s: s.rec.degree > 0 and 0 < s.rec.log_canonicity <= 1),
    ("classify inverts matrix_from_eta", 50, lambda s: s.key.iota == s.index.iota and s.rec.key == s.key),
    ("canonicalize fixes canonical raw form", 30, _canonical_form_fixed),
    ("ke explicit ranges = ke inequality predicate", 30,
     lambda s: s.index.ke_keys is not None and s.rec.ke == (s.key in s.index.ke_keys)),
)

# Surfaces are checked a batch at a time, one claim over the whole batch: about a fifth
# faster than every claim on one surface in turn, and only a batch's records are held.
_BATCH = 256


def verify_claims(iota_max: int) -> VerifyReport:
    """Re-check the claims of the classification, its oracle suites and, at full scale, the census.

    Each claim of ``_SURFACE_CLAIMS`` runs on every surface up to its own Gorenstein index cap, and
    its report line names min(iota_max, cap): the oracles (Smith form, exact solve, barycenter test,
    chain determinants, canonicalize, explicit KE ranges) to 30, the polygon oracle to 20, the rest
    to 50.  A claim counts the surfaces that fail it.  The census totals are checked whenever
    iota_max >= 200 (computed at 200).
    """
    if iota_max < 1:
        raise ValueError(f"iota_max must be positive, got {iota_max}")
    failures = [0] * len(_SURFACE_CLAIMS)
    low_eps = 0
    for rho in (1, 2, 3):
        for iota in range(1, min(iota_max, max(cap for _, cap, _ in _SURFACE_CLAIMS)) + 1):
            index, eps_note = _Index(rho, iota), Fraction(2, iota)
            tests = [(n, test) for n, (_, cap, test) in enumerate(_SURFACE_CLAIMS) if iota <= cap]
            for start in range(0, len(index.pairs), _BATCH):
                surfaces = [_Surface(index, key, m) for key, m in index.pairs[start : start + _BATCH]]
                for n, test in tests:
                    failures[n] += sum(map(not_, map(test, surfaces)))
                low_eps += sum(s.rec.log_canonicity < eps_note for s in surfaces)

    checks = [(f"{name} (iota <= {min(iota_max, cap)})", 0, n) for (name, cap, _), n in zip(_SURFACE_CLAIMS, failures)]
    claimed = [n for n, _ in CENSUS_CLAIMS.values()]
    checks.append((f"census claim arithmetic {' + '.join(map(str, claimed))}", CENSUS_TOTAL, sum(claimed)))
    if iota_max >= CENSUS_IOTA_MAX:
        at, tables = f"at iota <= {CENSUS_IOTA_MAX}", {rho: count(rho, CENSUS_IOTA_MAX) for rho in CENSUS_CLAIMS}
        for rho, (n, ke) in CENSUS_CLAIMS.items():
            checks.append((f"rho={rho} count {at}", n, tables[rho].total))
            checks.append((f"rho={rho} KE count {at}", ke, tables[rho].ke_total))
        checks.append((f"total count {at}", CENSUS_TOTAL, sum(t.total for t in tables.values())))
    results = tuple(ClaimResult(name, expected, got, got == expected) for name, expected, got in checks)
    note = f"{low_eps} surfaces with eps < 2/iota (the cross-rho combined lower bound; the per-rho bound 1/iota holds)"
    return VerifyReport(results, (note,) if low_eps else ())
