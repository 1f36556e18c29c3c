"""Correctness gates: pure checks of one pass's outputs.

Every gate returns a list of error strings; an empty list means the output
is correct.  The pinned values below were taken from the seed program and
from the published census; they are the benchmark's own record of the
right answers, so a program change cannot move the program and its
expectations together.  Gates run outside the timed region.
"""

from __future__ import annotations

# Census totals at Gorenstein index <= 200, (count, KE count) per rho.
CENSUS_200 = {1: (883, 150), 2: (71198, 0), 3: (15466258, 1006633)}
# Census totals at Gorenstein index <= 1000, (count, KE count) per rho.
CENSUS_1000 = {1: (6581, 750), 2: (2124667, 0), 3: (2234400346, 125166500)}

# sha256 of `fiqs enumerate --rho R --iota-max N --format F` standard output.
EXPORT_DIGESTS = {
    (3, 30, "jsonl"): "15cf7cd38d6264f5143eb9bd5828ca4305d2a229b185e397deadf61bbcab6592",
    (2, 100, "csv"): "15f4119e4db534faaf169ef14c3ceff72110ef5241b2b38852f51366ba4f2374",
    (1, 200, "jsonl"): "9e4c394e3e5de8fe2432916a4e0152e4a0abfd065449f0a1916719d1debc8f6c",
    (3, 5, "jsonl"): "5b10e770d1c669c148f68fedeed865d86d13b0a6a92550adf9efff9650651394",
    (2, 9, "csv"): "0067217365ba0d0d6ccc3fa14173f64a2b3870f13910c34192a0c502af70a712",
    (1, 12, "jsonl"): "704f588601d5135bb3821fafa216b0929df99d658af701ca479403a70118af2d",
}

# Claims `fiqs verify` reports; all but the last carry an "(iota <= cap)" suffix.
VERIFY_CLAIMS = (
    "class group formula = smith oracle",
    "local gorenstein formula = solve oracle",
    "local gorenstein divides local order",
    "gorenstein index = lcm of local indices",
    "degree matrix form = series form",
    "picard matrix form = series form",
    "ke family rule = barycenter test",
    "barycenters = polygon dual centroids",
    "chain determinant = local order",
    "degree, log canonicity, picard bounds",
    "gorenstein index divides picard index",
    "positivity: degree > 0, 0 < eps <= 1",
    "classify inverts matrix_from_eta",
    "canonicalize fixes canonical raw form",
    "ke explicit ranges = ke inequality predicate",
)
VERIFY_PLAIN_CLAIMS = ("census claim arithmetic 883 + 71198 + 15466258",)

ACCEPTED_REJECTS = ("NormalFormError", "ValueError")


def expected_verify_claims(iota_max: int) -> set[str]:
    cap = min(iota_max, 50)
    return {f"{c} (iota <= {cap})" for c in VERIFY_CLAIMS} | set(VERIFY_PLAIN_CLAIMS)


def _parse_table(text: str) -> list[tuple[int, ...]]:
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            rows.append(tuple(int(x) for x in line.split()))
    return rows


def check_census(
    rho: int, iota_max: int, rc: int, table_text: str, plot_text: str, brute: dict[int, int]
) -> list[str]:
    """`fiqs count` table and plot data for one rho.

    ``brute`` maps iota to the brute-force surface count (``len(enumerate_all)``).
    """
    if rc != 0:
        return [f"census rho={rho}: exit code {rc}"]
    try:
        rows = _parse_table(table_text)
    except ValueError as exc:
        return [f"census rho={rho}: unparsable table ({exc})"]
    errors = []
    if [r[0] for r in rows] != list(range(1, iota_max + 1)) or any(len(r) != 5 for r in rows):
        return [f"census rho={rho}: table is not one 5-column row per iota 1..{iota_max}"]
    cum = ke_cum = 0
    for iota, exact, cumulative, ke, ke_cumulative in rows:
        cum += exact
        ke_cum += ke
        if (cumulative, ke_cumulative) != (cum, ke_cum):
            errors.append(f"census rho={rho} iota={iota}: cumulative columns disagree with running sums")
        if iota in brute and exact != brute[iota]:
            errors.append(f"census rho={rho} iota={iota}: {exact} surfaces, brute force finds {brute[iota]}")
    for cap, pinned in ((200, CENSUS_200), (1000, CENSUS_1000)):
        if iota_max >= cap and rows[cap - 1][2::2] != pinned[rho]:
            errors.append(f"census rho={rho}: totals at iota <= {cap} {rows[cap - 1][2::2]} != {pinned[rho]}")
    plot = plot_text.splitlines()
    expected_plot = [f"{r[0]} {r[2]}" for r in rows]
    if len(plot) != len(expected_plot):
        errors.append(f"census rho={rho}: {len(plot)} plot lines, expected {len(expected_plot)}")
    errors.extend(
        f"census rho={rho}: plot line {got!r} != {want!r}"
        for got, want in zip(plot, expected_plot)
        if got != want
    )
    return errors


def check_export(
    config: tuple[int, int, str], rc: int, digest: str, records: int, stderr: str, closed_form: int
) -> list[str]:
    """One `fiqs enumerate` run: pinned digest and record count = closed-form count."""
    if rc != 0:
        return [f"export {config}: exit code {rc}"]
    errors = []
    if digest != EXPORT_DIGESTS[config]:
        errors.append(f"export {config}: sha256 {digest} != pinned {EXPORT_DIGESTS[config]}")
    if records != closed_form:
        errors.append(f"export {config}: {records} records written, closed-form count is {closed_form}")
    if stderr.strip() != f"{closed_form} records":
        errors.append(f"export {config}: reported {stderr.strip()!r}, expected '{closed_form} records'")
    return errors


def check_ingest_rows(expected: list, results: list) -> list[str]:
    """Canonicalized rows.

    ``expected[i]`` is ``(key, matrix)`` for a scrambled normal form or
    ``None`` for a corrupted row; ``results[i]`` is ``(matrix, key, record)``
    or the exception the pipeline raised.
    """
    if len(results) != len(expected):
        return [f"ingest: {len(results)} row results for {len(expected)} rows"]
    errors = []
    for i, (want, got) in enumerate(zip(expected, results)):
        if want is None:
            if not isinstance(got, BaseException) or type(got).__name__ not in ACCEPTED_REJECTS:
                errors.append(f"ingest row {i}: corrupted row not rejected, got {got!r}")
        elif isinstance(got, BaseException):
            errors.append(f"ingest row {i}: {type(got).__name__}: {got}")
        else:
            key, m = want
            got_m, got_key, rec = got
            if (got_m, got_key, rec.matrix, rec.key) != (m, key, m, key):
                errors.append(f"ingest row {i}: normal form {got_m} / key {got_key}, expected {m} / {key}")
    return errors


def check_ingest_decoded(kind: str, expected: list, decoded: list) -> list[str]:
    """Decoded JSONL lines or CSV rows must equal the records they were encoded from."""
    if len(decoded) != len(expected):
        return [f"ingest {kind}: {len(decoded)} records decoded from {len(expected)}"]
    return [
        f"ingest {kind} {i}: decoded {got!r} != source record"
        for i, (want, got) in enumerate(zip(expected, decoded))
        if got != want
    ]


def check_verify(iota_max: int, rc: int, report: str) -> list[str]:
    """`fiqs verify`: exit code 0, every claim PASS, the seed's set of claim names."""
    errors = [] if rc == 0 else [f"verify: exit code {rc}"]
    names = set()
    for line in report.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL"):
            name = rest.rpartition(": expected ")[0]
            names.add(name)
            if status == "FAIL":
                errors.append(f"verify: claim failed: {rest}")
    if "overall: PASS" not in report.splitlines():
        errors.append("verify: report does not end in overall PASS")
    want = expected_verify_claims(iota_max)
    if names != want:
        errors.append(f"verify: claims missing {sorted(want - names)}, unexpected {sorted(names - want)}")
    return errors
