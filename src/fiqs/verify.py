"""Claim verification.

:func:`verify_claims` re-checks every quantitative claim of the
classification plus the internal oracle suites.  Verify checks each surface
once, when :func:`~fiqs.series.enumerate_all` makes its matrix: a
:class:`~fiqs.series.DefiningMatrix` checks the normal-form inequalities
when it is made, so no oracle re-checks it.  Surfaces of one Gorenstein
index share degeneration polygons, cones and (series, iota+, iota-), so
each index holds one memo, ``_Index.once(oracle, key, *args)``, over one
dict keyed by (oracle, key), where the key is all the oracle reads: the
polygon for the polygon oracle, the third-row entries at the cone's
columns for the exact solve and (series, iota+, iota-) for the series form
of the degree.  Every surface's closed form is compared with the shared
value, and the values are dropped when the index is done.

Rationals are compared as integers.  A ``Fraction`` is stored reduced, with
a positive denominator, so two are equal exactly when their numerators and
denominators are (:func:`_equal`), a sign is the numerator's, and a bound is
a cross-multiplication: deg <= n/d is deg.numerator * d <= n *
deg.denominator.  No claim row, bound or note goes through ``Fraction``'s
own comparisons, whose ``numbers.Rational`` check costs more than the test.
The closed-form barycenters are not ``Fraction``s at all: each surface's are
unreduced integer pairs (``kaehler._barycenter_terms``, denominators of
either sign), read by the KE criterion and compared with the polygon
oracle's ``Fraction``s by cross-multiplication, x_num * x.denominator ==
x.numerator * x_den.  The exact solve reads only denominators, from the
integers of Cramer's rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import not_
from typing import Callable

from .canon import NormalFormError, canonicalize, raw_from_matrix
from .census import count
from .core import value_class
from .invariants import (
    SIGMA_RAY_COLUMNS,
    _chains,
    chain_determinant,
    class_group_oracle,
    degree_from_eta,
    local_gorenstein_oracle,
    picard_index_from_eta,
    record_from_matrix,
)
from .kaehler import _barycenter_terms, _ke_criterion, barycenter_oracle, degeneration_polygon
from .series import SERIES_IDS, DefiningMatrix, SeriesKey, _check_index, enumerate_all

__all__ = ["ClaimResult", "VerifyReport", "verify_claims", "CENSUS_IOTA_MAX", "CENSUS_CLAIMS"]

# Census totals at Gorenstein index <= 200: (count, ke_count) per rho.
CENSUS_IOTA_MAX = 200
CENSUS_CLAIMS = {1: (883, 150), 2: (71198, 0), 3: (15466258, 1006633)}
CENSUS_TOTAL = 15538339


@value_class
class ClaimResult:
    claim: str
    expected: object
    computed: object
    passed: bool


@value_class
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
# the log canonicity bound eps <= k/sqrt(iota), and the Picard index, an int
# (at rho=2, 27/2 iota^3 (3 iota - 1), where iota^3 (3 iota - 1) is even).
_UPPER_BOUNDS: dict[int, Callable[[int], tuple[Fraction, int, int]]] = {
    1: lambda iota: (1 + Fraction(4, iota), 4, 8 * iota * iota),
    2: lambda iota: (Fraction(9, 2) + Fraction(9, 2 * iota), 9, 27 * iota**3 * (3 * iota - 1) // 2),
    3: lambda iota: (4 + Fraction(4, iota), 4, 2 * iota**2 * (4 * iota - 1) ** 2 * (2 * iota - 1)),
}


def _within_bounds(rho: int, iota: int) -> Callable[[Fraction, Fraction, int], bool]:
    """The bound claim of Gorenstein index iota for one rho, as a predicate of (degree, log canonicity, Picard index).

    The lower bounds are (rho+1)/iota on the degree, 1/iota on the log canonicity and iota on the Picard
    index; the upper ones are read from ``_UPPER_BOUNDS`` when the predicate is made, once per index.
    Each bound is a cross-multiplication of numerators and denominators, and eps <= k/sqrt(iota) is
    tested by squaring: num^2 * iota <= k^2 * den^2.
    """
    deg_hi, k2, pic_hi = _UPPER_BOUNDS[rho](iota)
    hi_num, hi_den = deg_hi.numerator, deg_hi.denominator

    def within(deg: Fraction, eps: Fraction, pic: int) -> bool:
        num, den, e_num, e_den = deg.numerator, deg.denominator, eps.numerator, eps.denominator
        return (
            (rho + 1) * den <= num * iota and num * hi_den <= hi_num * den
            and iota <= pic <= pic_hi
            and e_den <= e_num * iota and e_num * e_num * iota <= k2 * e_den * e_den
        )

    return within


def _equal(p: Fraction, q: Fraction) -> bool:
    """p == q, on reduced numerators and denominators."""
    return p.numerator == q.numerator and p.denominator == q.denominator


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
    """One (rho, iota) of the scan: its surfaces, its bound claim, its explicit KE keys and its shared oracle values.

    The explicit KE keys are listed on first use.  :meth:`once` runs an oracle once per distinct input of the
    index, and its values are dropped with the index.
    """

    def __init__(self, rho: int, iota: int) -> None:
        self.rho, self.iota, self.pairs, self.values = rho, iota, enumerate_all(rho, iota), {}
        self.within_bounds = _within_bounds(rho, iota)

    def once(self, oracle: Callable, key: tuple, *args: object) -> object:
        """``oracle(*args)``, once per (oracle, key): the key is what the oracle reads of its arguments."""
        value = self.values.get((oracle, key))
        if value is None:
            value = self.values[oracle, key] = oracle(*args)
        return value

    @cached_property
    def ke_keys(self) -> set[SeriesKey] | None:
        """The keys the explicit ranges name; None if they name one twice or name one that is no surface here."""
        named = _ke_explicit_ranges(self.rho, self.iota)
        keys = set(named)
        return keys if len(keys) == len(named) and keys <= {key for key, _ in self.pairs} else None


class _Surface:
    """One surface of the scan, classified once; its closed-form barycenter terms are evaluated on first use."""

    __slots__ = ("index", "key", "m", "rec", "_bcs")

    def __init__(self, index: _Index, key: SeriesKey, m: DefiningMatrix) -> None:
        self.index, self.key, self.m, self.rec, self._bcs = index, key, m, record_from_matrix(m), None

    @property
    def bcs(self) -> list[tuple[int, int, int, int, int]]:
        """(kappa, x_num, x_den, y_num, y_den) per special kappa, unreduced (``kaehler._barycenter_terms``)."""
        if self._bcs is None:
            self._bcs = _barycenter_terms(self.m)
        return self._bcs


def _canonical_form_fixed(s: _Surface) -> bool:
    try:
        return canonicalize(raw_from_matrix(s.m)) == s.m
    except NormalFormError:
        return False


# The (plus, minus) cone columns of SIGMA_RAY_COLUMNS, one pair per rho.
_CONES = {rho: (cones["plus"], cones["minus"]) for rho, cones in SIGMA_RAY_COLUMNS.items()}


def _local_indices(s: _Surface) -> tuple[int, int]:
    """(iota+, iota-) by ``local_gorenstein_oracle``, once per cone: of s.m, the oracle reads the third row
    at the cone's columns.
    """
    t, index = s.m.third_row(), s.index
    (i, j, k), (u, v, w) = _CONES[index.rho]
    return (index.once(local_gorenstein_oracle, ("plus", t[i], t[j], t[k]), s.m, "plus"),
            index.once(local_gorenstein_oracle, ("minus", t[u], t[v], t[w]), s.m, "minus"))


def _barycenters_match(s: _Surface) -> bool:
    """Each closed-form pair equals the polygon oracle's coordinate: x_num * x.denominator == x.numerator * x_den."""
    for kappa, x_num, x_den, y_num, y_den in s.bcs:
        x, y = s.index.once(barycenter_oracle, degeneration_polygon(s.m, kappa), s.m, kappa)
        if x_num * x.denominator != x.numerator * x_den or y_num * y.denominator != y.numerator * y_den:
            return False
    return True


def _chain_determinants_match(s: _Surface) -> bool:
    orders = s.rec.orders
    return all(chain_determinant(chain) == n for chain, n in zip(_chains(s.key.rho, orders), orders))


# The claims checked surface by surface, in report order: the claim, the largest
# Gorenstein index it is checked to, and its test on one surface (true when the
# surface satisfies the claim).  The tests look their oracles up when called; the
# polygon and solve oracles and the series form of the degree go through _Index.once,
# keyed by the polygon, the cone's third-row entries and (series, iota+, iota-).
_SURFACE_CLAIMS: tuple[tuple[str, int, Callable[[_Surface], bool]], ...] = (
    ("class group formula = smith oracle", 30, lambda s: s.rec.class_group == class_group_oracle(s.m)),
    ("local gorenstein formula = solve oracle", 30,
     lambda s: (s.rec.key.iota_plus, s.rec.key.iota_minus) == _local_indices(s)),
    ("local gorenstein divides local order", 50, lambda s: s.rec.orders[0] % s.rec.key.iota_plus == 0
     and s.rec.orders[1] % s.rec.key.iota_minus == 0),
    ("gorenstein index = lcm of local indices", 50,
     lambda s: lcm(s.rec.key.iota_plus, s.rec.key.iota_minus) == s.index.iota),
    ("degree matrix form = series form", 50, lambda s: _equal(
        s.rec.degree, s.index.once(degree_from_eta, (s.key.series, s.key.iota_plus, s.key.iota_minus), s.key))),
    ("picard matrix form = series form", 50, lambda s: s.rec.picard_index == picard_index_from_eta(s.key)),
    ("ke family rule = barycenter test", 30, lambda s: s.rec.ke == _ke_criterion(s.bcs)),
    ("barycenters = polygon dual centroids", 20, _barycenters_match),
    ("chain determinant = local order", 30, _chain_determinants_match),
    ("degree, log canonicity, picard bounds", 50,
     lambda s: s.index.within_bounds(s.rec.degree, s.rec.log_canonicity, s.rec.picard_index)),
    ("gorenstein index divides picard index", 50, lambda s: s.rec.picard_index % s.index.iota == 0),
    ("positivity: degree > 0, 0 < eps <= 1", 50,
     lambda s: s.rec.degree.numerator > 0 and 0 < s.rec.log_canonicity.numerator <= s.rec.log_canonicity.denominator),
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

    Each surface's matrix is checked once, when it is made.  The polygon and solve oracles and the
    series form of the degree run once per distinct input of each index (see ``_Index.once``); every
    surface's closed form is compared with that shared value, and no value outlives the call.
    """
    _check_index("iota_max", iota_max)
    failures = [0] * len(_SURFACE_CLAIMS)
    low_eps = 0
    for rho in (1, 2, 3):
        for iota in range(1, min(iota_max, max(cap for _, cap, _ in _SURFACE_CLAIMS)) + 1):
            index = _Index(rho, iota)
            tests = [(n, test) for n, (_, cap, test) in enumerate(_SURFACE_CLAIMS) if iota <= cap]
            for start in range(0, len(index.pairs), _BATCH):
                surfaces = [_Surface(index, key, m) for key, m in index.pairs[start : start + _BATCH]]
                for n, test in tests:
                    failures[n] += sum(map(not_, map(test, surfaces)))
                # eps < 2/iota, on the numerator and denominator of eps
                low_eps += sum(s.rec.log_canonicity.numerator * iota < 2 * s.rec.log_canonicity.denominator
                               for s in surfaces)

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
