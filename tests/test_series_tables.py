"""classify and the KE family rule read the series weights from one table.

The per-rho ladders they used to carry, each with its own weights and order
formulas, are kept here as references, and so is the c/d ladder of the
series predicate, which is now the index classes plus the normal form.
"""

from __future__ import annotations

from itertools import chain, product

import pytest
from hypothesis import assume, given, strategies as st

from fiqs import SERIES_TAGS, DefiningMatrix, SeriesKey, classify, enumerate_all, matrix_from_eta, series_membership
from fiqs.canon import validate
from fiqs.kaehler import _ke_rule
from fiqs.series import SERIES_IDS, _WEIGHTS, _digit, _pair_ok

from conftest import reference_pair_ok


def reference_classify(m: DefiningMatrix) -> SeriesKey:
    """The ladder classify replaced: a rho = 1 case, then weights 1 and p = 3 / 2."""
    assert not validate(m.rho, *m.params()), m
    if m.rho == 1:
        i, ip = ("1", m.a + 1) if m.a % 2 == 0 else ("2", 2 * m.a + 2)
        j, im = ("1", -m.b - 1) if m.b % 2 == 0 else ("2", -2 * m.b - 2)
        return SeriesKey(SERIES_IDS[1, f"s{i}{j}"], ip, im)
    if m.rho == 2:
        p, np_, nm = 3, 2 * m.a + 1, -(2 * m.b + 2 * m.c + 1)
    else:
        p, np_, nm = 2, m.a, -(m.b + m.c + m.d)
    i, ip = ("2", np_ // p) if np_ % p == 0 else ("1", np_)
    j, im = ("2", nm // p) if nm % p == 0 else ("1", nm)
    return SeriesKey(SERIES_IDS[m.rho, f"s{i}{j}"], ip, im, m.c, m.d)


def reference_ke_rule(key: SeriesKey) -> bool:
    """The tag ladder the KE family rule replaced, with its own s11/s22 weight."""
    rho, tag = key.series.rho, key.series.tag
    if rho == 2 or tag not in ("s11", "s22"):
        return False
    if key.iota_plus != key.iota_minus:
        return False
    if rho == 1:
        return True
    t = key.iota_plus
    c, d = key.c, key.d
    w = 1 if tag == "s11" else 2
    return -2 * w * t <= 2 * c + d and c <= d <= -1 and c + d <= -w * t - 1


def reference_series_membership(key: SeriesKey) -> bool:
    """The per-rho c/d ladder the series predicate carried after the index classes."""
    rho, tag, ip, im = key.rho, key.series.tag, key.iota_plus, key.iota_minus
    if not reference_pair_ok(rho, tag, ip, im):
        return False
    if rho == 1:
        return True
    wp, wm = _WEIGHTS[rho][tag]
    s, c = wp * ip + wm * im, key.c
    if rho == 2:
        # 1 - s/2 <= c <= -s/4, both sides compared exactly over rationals
        return c <= -1 and 2 - s <= 2 * c and 4 * c <= -s
    return c <= key.d <= -1 and 2 * c + key.d >= -s


@pytest.mark.parametrize("rho", (1, 2, 3))
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_series_membership_equals_the_ladder(rho, tag):
    """Every key with iota+, iota- <= 8 and c, d from -(s + 1) to 1, members and not, on both sides of each bound."""
    series, members = SERIES_IDS[rho, tag], 0
    wp, wm = _WEIGHTS[rho][tag]
    for ip in range(1, 9):
        for im in range(1, 9):
            span = range(-(wp * ip + wm * im + 1), 2)
            for cd in product(span, repeat=rho - 1):
                key = SeriesKey(series, ip, im, *cd)
                member = reference_series_membership(key)
                assert series_membership(key) == member, key
                members += member
    assert members > 0


def assert_matches_references(key: SeriesKey, m: DefiningMatrix) -> None:
    assert classify(m) == reference_classify(m) == key
    assert _ke_rule(m) == reference_ke_rule(key), key


@pytest.mark.parametrize("rho", (1, 2, 3))
def test_every_surface_to_iota_60_matches_the_ladders(rho, surfaces_by_rho):
    beyond_50 = (pair for iota in range(51, 61) for pair in enumerate_all(rho, iota))
    ke = 0
    for key, m in chain(surfaces_by_rho[rho], beyond_50):
        assert_matches_references(key, m)
        ke += _ke_rule(m)
    assert (ke > 0) == (rho != 2)


@st.composite
def large_keys(draw):
    """Series members with iota+, iota- up to about 10**6, admitted by the reference ladder."""
    rho = draw(st.sampled_from((1, 2, 3)))
    tag = draw(st.sampled_from(SERIES_TAGS))
    ip0 = draw(st.integers(1, 10**6))
    im0 = ip0 if draw(st.booleans()) else draw(st.integers(1, 10**6))
    # the nearest admitted pair above (ip0, im0): each index class is a set of residues mod 12
    pairs = [(ip0 + i, im0 + j) for i in range(12) for j in range(12)]
    admitted = [p for p in pairs if reference_pair_ok(rho, tag, *p)]
    assume(admitted)
    ip, im = admitted[0]
    wp, wm = _WEIGHTS[rho][tag]
    s = wp * ip + wm * im
    assume(s > 2)  # the smallest s admits no c for rho = 2, 3
    c = d = None
    if rho == 2:
        c = draw(st.integers(1 - s // 2, (-s) // 4))
    elif rho == 3:
        c = draw(st.integers(-((s - 1) // 2), -1))
        d = draw(st.integers(max(c, -s - 2 * c), -1))
    return SeriesKey(SERIES_IDS[rho, tag], ip, im, c, d)


@given(large_keys())
def test_large_keys_match_the_ladders(key):
    assert series_membership(key)
    rho, tag = key.rho, key.series.tag
    wp, wm = _WEIGHTS[rho][tag]
    assert _digit(rho, wp * key.iota_plus) == (tag[1], key.iota_plus)
    assert _digit(rho, wm * key.iota_minus) == (tag[2], key.iota_minus)
    assert_matches_references(key, matrix_from_eta(key))


@pytest.mark.parametrize("rho", (1, 2, 3))
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_digit_reads_back_every_admitted_pair(rho, tag):
    """_digit depends on the order mod 144: iota+ runs through all residues mod 144, and
    so does iota- from 433 on, where every series admits the ordering w+ iota+ <= w- iota-."""
    wp, wm = _WEIGHTS[rho][tag]
    admitted = 0
    for ip in range(1, 145):
        for im in range(433, 577):
            if _pair_ok(rho, tag, ip, im):
                admitted += 1
                assert _digit(rho, wp * ip) == (tag[1], ip), (ip, im)
                assert _digit(rho, wm * im) == (tag[2], im), (ip, im)
    assert admitted > 0
