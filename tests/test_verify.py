"""Claim verification: the report of ``verify_claims`` and the oracle mutants each claim catches."""

from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

import fiqs.canon
import fiqs.census
import fiqs.core
import fiqs.invariants
import fiqs.kaehler
import fiqs.verify
from fiqs import DefiningMatrix, SeriesKey, count, enumerate_all, surface_record, verify_claims
from fiqs.cli import main
from fiqs.kaehler import Barycenter, _ke_criterion
from fiqs.series import SERIES_IDS
from fiqs.verify import _equal, _within_bounds

_MEMBER = DefiningMatrix(3, 1, -3, -3, -3)


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
    [
        ("_degree", "degree matrix form = series form"),
        ("_picard_index", "picard matrix form = series form"),
        ("_picard_index", "gorenstein index divides picard index"),
        ("_log_canonicity", "positivity: degree > 0, 0 < eps <= 1"),
    ],
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
    "cramer determinant": (
        fiqs.invariants, "_cramer3",
        lambda f: lambda entries, rhs: (*f(entries, rhs)[:3], 2 * f(entries, rhs)[3]),
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
        fiqs.verify._UPPER_BOUNDS, 1,
        lambda f: lambda iota: (*f(iota)[:2], f(iota)[2] - 1),
        "degree, log canonicity, picard bounds",
    ),
    "degree series form": (
        fiqs.verify, "degree_from_eta",
        lambda f: lambda key: f(key) + 1,
        "degree matrix form = series form",
    ),
    "picard series form": (
        fiqs.verify, "picard_index_from_eta",
        lambda f: lambda key: f(key) + 1,
        "picard matrix form = series form",
    ),
    "closed-form x denominator negated": (
        fiqs.verify, "_barycenter_terms",
        lambda f: lambda m: [(kappa, x_num, -x_den, *y) for kappa, x_num, x_den, *y in f(m)],
        "barycenters = polygon dual centroids",
    ),
    "ke criterion": (
        fiqs.verify, "_ke_criterion",
        lambda f: lambda terms: not f(terms),
        "ke family rule = barycenter test",
    ),
    "ke criterion on the y numerator alone": (
        fiqs.verify, "_ke_criterion",
        lambda f: lambda terms: all(x_num == 0 and y_num > 0 for _, x_num, _, y_num, _ in terms),
        "ke family rule = barycenter test",
    ),
    "chain determinant": (
        fiqs.verify, "chain_determinant",
        lambda f: lambda chain: f(chain) + 1,
        "chain determinant = local order",
    ),
    "explicit ke ranges": (
        fiqs.verify, "_ke_explicit_ranges",
        lambda f: lambda rho, iota: f(rho, iota)[:-1],
        "ke explicit ranges = ke inequality predicate",
    ),
    "explicit ke ranges twice": (
        fiqs.verify, "_ke_explicit_ranges",
        lambda f: lambda rho, iota: f(rho, iota) * 2,
        "ke explicit ranges = ke inequality predicate",
    ),
    "explicit ke ranges off the series": (
        fiqs.verify, "_ke_explicit_ranges",
        lambda f: lambda rho, iota: [*f(rho, iota), SeriesKey(SERIES_IDS[3, "s11"], iota, iota, 1, 1)],
        "ke explicit ranges = ke inequality predicate",
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


# Each claim whose oracle sees the surface's matrix or index, with that oracle's name in
# fiqs.verify and the Gorenstein index it is applied to.
_SCOPED_ORACLES = {
    "class group formula = smith oracle": ("class_group_oracle", lambda out, m: fiqs.invariants.gorenstein_index(m)),
    "local gorenstein formula = solve oracle": (
        "local_gorenstein_oracle", lambda out, m, which: fiqs.invariants.gorenstein_index(m),
    ),
    "barycenters = polygon dual centroids": (
        "barycenter_oracle", lambda out, m, kappa: fiqs.invariants.gorenstein_index(m),
    ),
    "canonicalize fixes canonical raw form": ("canonicalize", lambda out, raw: fiqs.invariants.gorenstein_index(out)),
    "ke explicit ranges = ke inequality predicate": ("_ke_explicit_ranges", lambda out, rho, iota: iota),
}


def test_verify_labels_name_the_scope_checked(monkeypatch):
    """Each oracle claim's label gives the largest Gorenstein index its oracle was applied to."""
    seen = {claim: 0 for claim in _SCOPED_ORACLES}

    def recording(claim, name, iota_of):
        oracle = getattr(fiqs.verify, name)

        def wrapped(*args):
            out = oracle(*args)
            seen[claim] = max(seen[claim], iota_of(out, *args))
            return out

        return wrapped

    for claim, (name, iota_of) in _SCOPED_ORACLES.items():
        monkeypatch.setattr(fiqs.verify, name, recording(claim, name, iota_of))
    report = verify_claims(21)
    assert report.ok, report.to_text()
    caps = {}
    for r in report.results:
        name, _, cap = r.claim.partition(" (iota <= ")
        if cap:
            caps[name] = int(cap.removesuffix(")"))
    assert {claim: caps[claim] for claim in seen} == seen
    assert seen["barycenters = polygon dual centroids"] == 20


def _distinct_oracle_inputs(iota_max: int) -> tuple[int, int, int]:
    """The distinct polygons, cones and (series, iota+, iota-) of each (rho, iota), summed: the values verify shares."""
    polygons = cones = etas = 0
    for rho in (1, 2, 3):
        for iota in range(1, iota_max + 1):
            pairs = enumerate_all(rho, iota)
            matrices = [m for _, m in pairs]
            kappas = fiqs.kaehler.SPECIAL_KAPPAS[rho]
            polygons += len({fiqs.kaehler.degeneration_polygon(m, k) for m in matrices for k in kappas})
            cones += len({
                (which, *(m.third_row()[j] for j in columns))
                for m in matrices for which, columns in fiqs.invariants.SIGMA_RAY_COLUMNS[rho].items()
            })
            etas += len({(key.series, key.iota_plus, key.iota_minus) for key, _ in pairs})
    return polygons, cones, etas


def test_verify_evaluates_each_oracle_input_once_per_call(monkeypatch):
    """Each distinct polygon, cone and degree input of an index is evaluated once per verify run, and not kept."""
    calls = {"barycenter_oracle": 0, "local_gorenstein_oracle": 0, "degree_from_eta": 0}
    for name in calls:
        oracle = getattr(fiqs.verify, name)

        def counted(*args, name=name, oracle=oracle):
            calls[name] += 1
            return oracle(*args)

        monkeypatch.setattr(fiqs.verify, name, counted)
    polygons, cones, etas = _distinct_oracle_inputs(12)
    surfaces = sum(len(enumerate_all(rho, iota)) for rho in (1, 2, 3) for iota in range(1, 13))
    assert polygons < surfaces and cones < 2 * surfaces and etas < surfaces  # the values are shared
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        assert verify_claims(12).ok
        assert calls == {"barycenter_oracle": polygons, "local_gorenstein_oracle": cones, "degree_from_eta": etas}


def test_verify_builds_no_closed_form_fraction(monkeypatch):
    """verify_claims(6) passes with ``barycenters`` and ``solve3`` raising where they are defined and imported.

    Verify reads the closed-form barycenters as integer pairs and the exact solve as Cramer integers, so
    neither ``Fraction`` path may come back into it unnoticed.
    """
    def refusing(name):
        def refuse(*args):
            raise AssertionError(f"verify called {name}")

        return refuse

    for name in ("barycenters", "solve3"):
        for module in (fiqs.kaehler, fiqs.core, fiqs.verify, fiqs.invariants):
            monkeypatch.setattr(module, name, refusing(name), raising=False)
    with pytest.raises(AssertionError, match="barycenters"):
        fiqs.kaehler.barycenters(_MEMBER)
    with pytest.raises(AssertionError, match="solve3"):
        fiqs.core.solve3(None, (0, 1, 1))
    report = verify_claims(6)
    assert report.ok, report.to_text()


def test_verify_checks_each_surface_once(monkeypatch):
    """One normal-form check per matrix made: each surface's, by enumerate_all, and the canonicalize claim's result."""
    calls = [0]
    post_init = DefiningMatrix.__post_init__

    def counted(m):
        calls[0] += 1
        post_init(m)

    monkeypatch.setattr(DefiningMatrix, "__post_init__", counted)
    assert verify_claims(6).ok
    surfaces = sum(count(rho, 6).total for rho in (1, 2, 3))
    assert calls[0] == surfaces + surfaces  # the canonicalize claim runs to iota 30


def _failures(report):
    return {r.claim.split(" (iota")[0]: r.computed for r in report.results if not r.passed}


def _seen_earlier(iota, m, input_of):
    """Whether a surface of rho 3 at this index gives the oracle input of m before m does."""
    earlier = []
    for _, other in enumerate_all(3, iota):
        if other == m:
            return input_of(m) in earlier
        earlier.append(input_of(other))
    raise AssertionError(f"{m} is not at iota {iota}")


def test_verify_compares_a_surface_whose_polygon_was_shared(monkeypatch):
    """A wrong closed form is caught on a surface whose polygon an earlier surface of its index gave."""
    assert _seen_earlier(9, _MEMBER, lambda m: fiqs.kaehler.degeneration_polygon(m, 0))
    correct = fiqs.verify._barycenter_terms

    def off_y0(m):
        terms = correct(m)
        if m != _MEMBER:
            return terms
        kappa, x_num, x_den, y_num, y_den = terms[0]
        return [(kappa, x_num, x_den, y_num + y_den, y_den), *terms[1:]]  # y + 1

    monkeypatch.setattr(fiqs.verify, "_barycenter_terms", off_y0)
    assert _failures(verify_claims(9)) == {"barycenters = polygon dual centroids": 1}


def test_verify_compares_a_surface_whose_cone_was_shared(monkeypatch):
    """A wrong local index is caught on a surface whose plus cone an earlier surface of its index gave.

    The record's key carries the local indices, so the three other claims that read them fail on the
    same surface too; each counts it once.
    """
    m = DefiningMatrix(3, 1, -4, -4, -1)
    assert _seen_earlier(9, m, lambda m: m.a)  # the plus cone's third-row entries are (a, 0, 0)
    correct = fiqs.verify.record_from_matrix

    def off_plus(matrix):
        rec = correct(matrix)
        return replace(rec, key=replace(rec.key, iota_plus=rec.key.iota_plus + 1)) if matrix == m else rec

    monkeypatch.setattr(fiqs.verify, "record_from_matrix", off_plus)
    assert _failures(verify_claims(9)) == {
        "local gorenstein formula = solve oracle": 1,
        "local gorenstein divides local order": 1,
        "gorenstein index = lcm of local indices": 1,
        "classify inverts matrix_from_eta": 1,
    }


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
    """The bound predicate holds exactly where the reference finds no violation.

    Every surface with iota <= 30 as computed; about 20 per rho and iota pushed past each bound.
    """
    flagged = set()
    for rho in (1, 2, 3):
        for iota in range(1, 31):
            within = _within_bounds(rho, iota)
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
                    want = reference_bounds_violations(rho, key, *args)
                    assert within(*args) == (not want), (key, args)
                    flagged.update((rho, msg.split(" at ")[0]) for msg in want)
    # the pushed values cross every bound of every rho
    kinds = ("degree bound", "log canonicity bound", "picard bound")
    assert flagged == {(rho, k) for rho in (1, 2, 3) for k in kinds}


def reference_within_bounds(rho, iota):
    """``_within_bounds`` in Fraction comparisons: each bound compared as a rational, not cross-multiplied."""
    deg_lo, eps_lo = Fraction(rho + 1, iota), Fraction(1, iota)
    deg_hi, k2, pic_hi = fiqs.verify._UPPER_BOUNDS[rho](iota)
    return lambda deg, eps, pic: deg_lo <= deg <= deg_hi and iota <= pic <= pic_hi and (
        eps_lo <= eps and eps.numerator**2 * iota <= k2 * eps.denominator**2
    )


def reference_ke_criterion(bcs):
    """``_ke_criterion`` in Fraction comparisons."""
    return all(bc.x == 0 and bc.y > 0 for bc in bcs)


_TINY = Fraction(1, 10**9)
_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=1000)


def _at_or_beside(value):
    """value or just either side of it: 10**-9 for a rational, 1 for an int."""
    step = 1 if isinstance(value, int) else _TINY
    return st.sampled_from([value - step, value, value + step])


@st.composite
def bound_cases(draw):
    """(rho, iota, degree, eps, Picard index): arbitrary, zero and negative values, and values at each bound.

    The edges are (rho+1)/iota and the upper degree bound, 1/iota and, at a square iota = r^2, k/r for eps,
    iota and the upper Picard bound.
    """
    rho = draw(st.sampled_from((1, 2, 3)))
    iota = draw(st.one_of(st.integers(1, 60), st.integers(1, 8).map(lambda r: r * r)))
    deg_hi, k2, pic_hi = fiqs.verify._UPPER_BOUNDS[rho](iota)
    deg_edges = [Fraction(rho + 1, iota), deg_hi]
    deg = draw(st.one_of(_RATIONALS, st.just(Fraction(0)), st.sampled_from(deg_edges).flatmap(_at_or_beside)))
    eps_edges = [Fraction(1, iota)]
    if isqrt(iota) ** 2 == iota:
        eps_edges.append(Fraction(isqrt(k2), isqrt(iota)))
    eps = draw(st.one_of(_RATIONALS, st.just(Fraction(0)), st.sampled_from(eps_edges).flatmap(_at_or_beside)))
    pic_edges = [iota, pic_hi]
    pic = draw(st.one_of(st.integers(-10, 10**7), st.sampled_from(pic_edges).flatmap(_at_or_beside)))
    return rho, iota, deg, eps, pic


@given(bound_cases())
@example((2, 4, Fraction(3, 4), Fraction(3, 2), 4))  # eps = k/sqrt(iota) = 3/2
@example((2, 1, Fraction(9), Fraction(1), 27))  # degree and Picard index at their upper bounds
@example((1, 1, Fraction(-2), Fraction(-1), -1))
def test_within_bounds_matches_the_fraction_form(case):
    rho, iota, deg, eps, pic = case
    assert _within_bounds(rho, iota)(deg, eps, pic) == reference_within_bounds(rho, iota)(deg, eps, pic)


_NUMERATORS = st.integers(-30, 30) | st.just(0)
_DENOMINATORS = st.integers(-30, 30).filter(bool)


@given(st.lists(st.tuples(st.sampled_from((0, 1, 2)), _NUMERATORS, _DENOMINATORS, _NUMERATORS, _DENOMINATORS),
                max_size=3))
@example([(0, 0, -3, -1, -3), (1, 0, 5, 0, -2)])  # y = 1/3, then y = 0
@example([(0, 0, -3, -1, -3), (1, 0, 5, 4, 2)])
@example([(0, 0, -3, 1, -3)])  # y = -1/3: a positive numerator over a negative denominator
@example([(2, 2, -4, 2, 4), (0, 0, 7, -6, -2)])  # x = -1/2, y = 3
def test_ke_criterion_matches_the_fraction_form(terms):
    """The criterion on unreduced pairs with denominators of both signs equals the Fraction form."""
    bcs = [Barycenter(kappa, Fraction(x_num, x_den), Fraction(y_num, y_den))
           for kappa, x_num, x_den, y_num, y_den in terms]
    assert _ke_criterion(terms) == reference_ke_criterion(bcs)


@given(st.one_of(_RATIONALS, st.integers(-5, 5)), st.one_of(_RATIONALS, st.integers(-5, 5)))
@example(Fraction(2, 4), Fraction(1, 2))
@example(Fraction(3), 3)
@example(Fraction(-1, 2), Fraction(1, -2))
def test_equal_matches_the_fraction_form(p, q):
    assert _equal(p, q) == (p == q)


def test_verify_makes_no_fraction_comparison(monkeypatch):
    """The claim rows, the bound predicate, the low-eps note and the KE criterion compare integers only."""
    calls = dict.fromkeys(("__eq__", "__lt__", "__le__", "__gt__", "__ge__"), 0)

    def counting(name, compare):
        def wrapper(*args):
            calls[name] += 1
            return compare(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    half = Fraction(1, 2)
    assert half < 1 and half <= 1 and half > 0 and half >= 0 and half == Fraction(2, 4)  # the counters count
    assert calls == dict.fromkeys(calls, 1)
    calls.update(dict.fromkeys(calls, 0))
    assert verify_claims(4).ok
    assert calls == dict.fromkeys(calls, 0)


# The rows verify_claims adds at iota_max >= 200, after the surface claims.
_CENSUS_ROWS = [
    "PASS census claim arithmetic 883 + 71198 + 15466258: expected 15538339, got 15538339",
    "PASS rho=1 count at iota <= 200: expected 883, got 883",
    "PASS rho=1 KE count at iota <= 200: expected 150, got 150",
    "PASS rho=2 count at iota <= 200: expected 71198, got 71198",
    "PASS rho=2 KE count at iota <= 200: expected 0, got 0",
    "PASS rho=3 count at iota <= 200: expected 15466258, got 15466258",
    "PASS rho=3 KE count at iota <= 200: expected 1006633, got 1006633",
    "PASS total count at iota <= 200: expected 15538339, got 15538339",
]


def test_verify_checks_the_census_at_full_scale(monkeypatch):
    """At iota_max >= 200 the census rows are checked, and each can fail.

    A KE count off by one fails exactly its three rows, an exact count off by one its four, and a
    claimed count off by one its own row and the claim arithmetic.  One surface claim, capped at
    index 1, keeps the surface scan to a handful of surfaces.
    """
    name, _, test = fiqs.verify._SURFACE_CLAIMS[0]
    monkeypatch.setattr(fiqs.verify, "_SURFACE_CLAIMS", ((name, 1, test),))
    report = verify_claims(200)
    assert report.ok, report.to_text()
    assert report.to_text().splitlines()[1:9] == _CENSUS_ROWS
    for kernel, failed in (
        ("_count_ke", {
            "rho=1 KE count at iota <= 200": 350,
            "rho=2 KE count at iota <= 200": 200,
            "rho=3 KE count at iota <= 200": 1006833,
        }),
        ("_count_exact", {
            "rho=1 count at iota <= 200": 1083,
            "rho=2 count at iota <= 200": 71398,
            "rho=3 count at iota <= 200": 15466458,
            "total count at iota <= 200": 15538939,
        }),
    ):
        with monkeypatch.context() as mp:
            correct = getattr(fiqs.census, kernel)
            mp.setattr(fiqs.census, kernel, lambda rho, iota: correct(rho, iota) + 1)
            assert _failures(verify_claims(200)) == failed
    monkeypatch.setitem(fiqs.verify.CENSUS_CLAIMS, 2, (71199, 0))
    assert _failures(verify_claims(200)) == {
        "census claim arithmetic 883 + 71199 + 15466258": 15538340,
        "rho=2 count at iota <= 200": 71198,
    }
