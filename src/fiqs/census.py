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
"numerator/denominator" strings.  Each exported key is checked once, in
:func:`~fiqs.invariants.surface_record`, and each record is encoded
directly: :func:`record_to_json_line` equals
``json.dumps(record_to_obj(rec), separators=(",", ":"))`` byte for byte,
with :func:`record_to_obj` the documented dict form, and resolution chains
are stringified through a bounded memo because the all-(-2) chains recur.
CSV rows are the fields joined by commas, unquoted: each field is an
integer, a series tag, "n/d", true / false, a ";"-joined chain, empty or a
column name, so none needs quoting and ``csv.writer`` writes the same line.

The key (rho, series, iota+, iota-[, c[, d]]) determines every other
field, so the readers parse only the key, rebuild the record with
:func:`~fiqs.invariants.surface_record` and accept the input only if it
is that record's encoding; otherwise they raise ``ValueError`` naming the
first field that does not parse, differs, is missing or is extra.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, TextIO

from .canon import NormalFormError, canonicalize, raw_from_matrix
from .invariants import (
    POINT_LABELS,
    SurfaceRecord,
    chain_determinant,
    class_group_oracle,
    degree_from_eta,
    local_gorenstein_oracle,
    picard_index_from_eta,
    record_from_matrix,
    surface_record,
)
from .kaehler import _ke_criterion, barycenter_oracle, barycenters
from .series import (
    SERIES_IDS,
    SERIES_TAGS,
    SeriesKey,
    _CLASS_WEIGHTS,
    _check_rho,
    _lcm_pairs_unordered,
    _series_id,
    enumerate_all,
    enumerate_eta,
)

__all__ = [
    "CountRow",
    "CountTable",
    "ClaimResult",
    "VerifyReport",
    "count_exact",
    "count_ke",
    "count",
    "verify_claims",
    "export_records",
    "emit_plot_data",
    "record_to_obj",
    "record_to_json_line",
    "record_from_json_line",
    "CSV_COLUMNS",
    "record_to_csv_row",
    "record_from_csv_row",
    "CENSUS_IOTA_MAX",
    "CENSUS_CLAIMS",
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
    "rho",
    "series",
    "iota_plus",
    "iota_minus",
    "c",
    "d",
    "a",
    "b",
    "gorenstein_index",
    "cl_rank",
    "cl_torsion",
    "degree",
    "log_canonicity",
    "picard_index",
    "ke",
    "local_orders",
    "resolution",
)

CSV_COLUMNS = _JSON_FIELDS[:15] + tuple(
    f"local_{p}" for p in POINT_LABELS[3]
) + tuple(f"resolution_{p}" for p in POINT_LABELS[3])


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
        "local_orders": {p: rec.local.orders[p] for p in POINT_LABELS[key.rho]},
        "resolution": {p: list(rec.resolution.chains[p]) for p in POINT_LABELS[key.rho]},
    }


@lru_cache(maxsize=1024)
def _chain_text(chain: tuple[int, ...], sep: str) -> str:
    """Weights of a resolution chain joined by sep; the all-(-2) chains recur."""
    return sep.join(map(str, chain))


# Per rho, each point label with its JSON member prefix '"label":'.
_JSON_POINTS = {rho: tuple((p, f'"{p}":') for p in labels) for rho, labels in POINT_LABELS.items()}


def record_to_json_line(rec: SurfaceRecord) -> str:
    """``json.dumps(record_to_obj(rec), separators=(",", ":"))``, built directly."""
    key, m, cl, deg, eps = rec.key, rec.matrix, rec.class_group, rec.degree, rec.log_canonicity
    points = _JSON_POINTS[key.series.rho]
    orders, chains = rec.local.orders, rec.resolution.chains
    local = ",".join([f"{q}{orders[p]}" for p, q in points])
    resolution = ",".join([f"{q}[{_chain_text(chains[p], ',')}]" for p, q in points])
    return (
        f'{{"rho":{key.series.rho},"series":"{key.series.tag}","iota_plus":{key.iota_plus},'
        f'"iota_minus":{key.iota_minus},"c":{"null" if key.c is None else key.c},'
        f'"d":{"null" if key.d is None else key.d},"a":{m.a},"b":{m.b},'
        f'"gorenstein_index":{rec.gorenstein_index},"cl_rank":{cl.free_rank},"cl_torsion":{cl.torsion_order},'
        f'"degree":"{deg.numerator}/{deg.denominator}","log_canonicity":"{eps.numerator}/{eps.denominator}",'
        f'"picard_index":{rec.picard_index},"ke":{"true" if rec.ke else "false"},'
        f'"local_orders":{{{local}}},"resolution":{{{resolution}}}}}'
    )


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
    if match:
        rec = surface_record(_key_from_fields(*match.groups()))
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
    rec = surface_record(_key_from_fields(*(obj[name] for name in _JSON_FIELDS[:6])))
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
    """The CSV_COLUMNS fields of a record; points the rho lacks are empty."""
    key, m, cl, deg, eps = rec.key, rec.matrix, rec.class_group, rec.degree, rec.log_canonicity
    rho = key.series.rho
    labels = POINT_LABELS[rho]
    absent = [""] * (len(POINT_LABELS[3]) - len(labels))
    orders, chains = rec.local.orders, rec.resolution.chains
    return [
        str(rho), key.series.tag, str(key.iota_plus), str(key.iota_minus),
        "" if key.c is None else str(key.c), "" if key.d is None else str(key.d),
        *map(str, (m.a, m.b, rec.gorenstein_index, cl.free_rank, cl.torsion_order)),
        f"{deg.numerator}/{deg.denominator}", f"{eps.numerator}/{eps.denominator}",
        str(rec.picard_index), "true" if rec.ke else "false",
        *[str(orders[p]) for p in labels], *absent,
        *[_chain_text(chains[p], ";") for p in labels], *absent,
    ]


def record_from_csv_row(row: list[str]) -> SurfaceRecord:
    """The record of a CSV row's key, if the row is that record's row.

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
    rec = surface_record(_key_from_fields(*row[:6]))
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
                rec = surface_record(key)
                sink.write((",".join(record_to_csv_row(rec)) if as_csv else record_to_json_line(rec)) + "\n")
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
        return out
    if rho != 3:
        return out
    if iota % 2 == 1:
        for c in range(-iota + 1, -1):
            for d in range(max(c, -2 * iota - 2 * c), -iota - c):
                out.append(SeriesKey(SERIES_IDS[3, "s11"], iota, iota, c, d))
    for c in range(-2 * iota + 1, -1):
        for d in range(max(c, -4 * iota - 2 * c), -2 * iota - c):
            out.append(SeriesKey(SERIES_IDS[3, "s22"], iota, iota, c, d))
    return out


def verify_claims(iota_max: int) -> VerifyReport:
    """Re-check the internal consistency suites and, at full scale, the census.

    Oracle suites run over Gorenstein index up to min(iota_max, 30), the
    comparison of the closed-form barycenters with the polygon oracle up to
    min(iota_max, 20), bound and round-trip suites up to min(iota_max, 50);
    the full-scale census totals are checked whenever iota_max >= 200
    (computed at 200).  The bounds are built once per (rho, iota), and each
    surface's closed-form barycenters are evaluated once, for both the KE
    criterion and the polygon comparison.  A ``canonicalize`` that raises on
    a normal form counts as a mismatch of its claim.
    """
    if iota_max < 1:
        raise ValueError(f"iota_max must be positive, got {iota_max}")
    results: list[ClaimResult] = []
    notes: list[str] = []

    oracle_cap = min(iota_max, 30)
    bound_cap = min(iota_max, 50)
    polygon_cap = min(iota_max, 20)

    mismatch = {
        "class group formula = smith oracle": 0,
        "local gorenstein formula = solve oracle": 0,
        "local gorenstein divides local order": 0,
        "gorenstein index = lcm of local indices": 0,
        "degree matrix form = series form": 0,
        "picard matrix form = series form": 0,
        "ke family rule = barycenter test": 0,
        "barycenters = polygon dual centroids": 0,
        "chain determinant = local order": 0,
        "degree, log canonicity, picard bounds": 0,
        "gorenstein index divides picard index": 0,
        "positivity: degree > 0, 0 < eps <= 1": 0,
        "classify inverts matrix_from_eta": 0,
        "canonicalize fixes canonical raw form": 0,
        "ke explicit ranges = ke inequality predicate": 0,
    }
    combined_eps_flags = 0

    for rho in (1, 2, 3):
        for iota in range(1, bound_cap + 1):
            enumerated = enumerate_all(rho, iota)
            bounds = _index_bounds(rho, iota)
            eps_note = Fraction(2, iota)
            ke_keys = []
            for key, m in enumerated:
                rec = record_from_matrix(m)
                if key.iota != iota or rec.key != key:
                    mismatch["classify inverts matrix_from_eta"] += 1
                if iota <= oracle_cap:
                    try:
                        fixed = canonicalize(raw_from_matrix(m)) == m
                    except NormalFormError:
                        fixed = False
                    if not fixed:
                        mismatch["canonicalize fixes canonical raw form"] += 1

                ip, im = rec.key.iota_plus, rec.key.iota_minus
                if lcm(ip, im) != iota:
                    mismatch["gorenstein index = lcm of local indices"] += 1
                orders = rec.local.orders
                if orders["x+"] % ip != 0 or orders["x-"] % im != 0:
                    mismatch["local gorenstein divides local order"] += 1

                deg, eps, pic = rec.degree, rec.log_canonicity, rec.picard_index
                if deg != degree_from_eta(key):
                    mismatch["degree matrix form = series form"] += 1
                if pic != picard_index_from_eta(key):
                    mismatch["picard matrix form = series form"] += 1
                if pic % iota != 0:
                    mismatch["gorenstein index divides picard index"] += 1
                if not (deg > 0 and 0 < eps <= 1):
                    mismatch["positivity: degree > 0, 0 < eps <= 1"] += 1
                if _bounds_violations(bounds, key, deg, eps, pic):
                    mismatch["degree, log canonicity, picard bounds"] += 1
                if eps < eps_note:
                    combined_eps_flags += 1

                if rec.ke:
                    ke_keys.append(key)

                if iota <= oracle_cap:
                    if rec.class_group != class_group_oracle(m):
                        mismatch["class group formula = smith oracle"] += 1
                    if ip != local_gorenstein_oracle(m, "plus") or im != local_gorenstein_oracle(m, "minus"):
                        mismatch["local gorenstein formula = solve oracle"] += 1
                    bcs = barycenters(m)
                    if rec.ke != _ke_criterion(bcs):
                        mismatch["ke family rule = barycenter test"] += 1
                    if iota <= polygon_cap:
                        for bc in bcs:
                            if (bc.x, bc.y) != barycenter_oracle(m, bc.kappa):
                                mismatch["barycenters = polygon dual centroids"] += 1
                    for label, chain in rec.resolution.chains.items():
                        if chain and chain_determinant(chain) != orders[label]:
                            mismatch["chain determinant = local order"] += 1
                        if not chain and orders[label] != 1:
                            mismatch["chain determinant = local order"] += 1

            if rho in (1, 3) and iota <= oracle_cap:
                explicit = sorted(_ke_explicit_ranges(rho, iota))
                if explicit != sorted(ke_keys):
                    mismatch["ke explicit ranges = ke inequality predicate"] += 1

    for claim, n in mismatch.items():
        results.append(ClaimResult(f"{claim} (iota <= {bound_cap})", 0, n, n == 0))
    if combined_eps_flags:
        notes.append(
            f"{combined_eps_flags} surfaces with eps < 2/iota "
            "(the cross-rho combined lower bound; the per-rho bound 1/iota holds)"
        )

    results.append(
        ClaimResult(
            "census claim arithmetic 883 + 71198 + 15466258",
            CENSUS_TOTAL,
            sum(c for c, _ in CENSUS_CLAIMS.values()),
            sum(c for c, _ in CENSUS_CLAIMS.values()) == CENSUS_TOTAL,
        )
    )

    if iota_max >= CENSUS_IOTA_MAX:
        grand = 0
        for rho, (expect_n, expect_ke) in CENSUS_CLAIMS.items():
            table = count(rho, CENSUS_IOTA_MAX)
            grand += table.total
            results.append(
                ClaimResult(
                    f"rho={rho} count at iota <= 200", expect_n, table.total, table.total == expect_n
                )
            )
            results.append(
                ClaimResult(
                    f"rho={rho} KE count at iota <= 200",
                    expect_ke,
                    table.ke_total,
                    table.ke_total == expect_ke,
                )
            )
        results.append(
            ClaimResult("total count at iota <= 200", CENSUS_TOTAL, grand, grand == CENSUS_TOTAL)
        )

    return VerifyReport(tuple(results), tuple(notes))
