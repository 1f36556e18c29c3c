from __future__ import annotations

import ast
import re

import pytest

import fiqs.series
from fiqs import (
    SERIES_TAGS,
    DefiningMatrix,
    SeriesId,
    SeriesKey,
    enumerate_all,
    enumerate_eta,
    matrix_from_eta,
    series_membership,
    validate,
)
from fiqs.kaehler import barycenter_oracle, degeneration_polygon
from fiqs.invariants import (
    class_group_oracle,
    degree_from_eta,
    local_gorenstein_oracle,
    local_orders,
    picard_index_from_eta,
    resolution_graph,
)
from fiqs.series import _WEIGHTS, SERIES_IDS, _iter_blocks, _orders, _pair_ok
from fiqs.verify import _ke_explicit_ranges

from conftest import reference_pair_ok, up_to


def test_enumerate_rho1_iota3():
    keys = enumerate_eta(SeriesId(1, "s11"), 3)
    assert [k.eta() for k in keys] == [(1, 3), (3, 3)]


def test_enumerate_rho2_s11_iota1_empty():
    # c must satisfy 0 <= c <= -1/2: empty
    assert enumerate_eta(SeriesId(2, "s11"), 1) == []


def test_enumerate_rho2_s22_iota1():
    keys = enumerate_eta(SeriesId(2, "s22"), 1)
    assert [k.eta() for k in keys] == [(1, 1, -2)]


def test_enumerate_rho3_s11_iota3_contains_diagonal():
    keys = enumerate_eta(SeriesId(3, "s11"), 3)
    assert (3, 3, -2, -2) in [k.eta() for k in keys]


def _drawn_matrix(m: DefiningMatrix) -> list[list[int]]:
    """The matrix the ``series`` module docstring draws for the rho of m, with the parameters of m put in."""
    drawn = re.search(rf"rho={m.rho}: (\[.*\])", fiqs.series.__doc__).group(1)
    params = dict(zip("abcd", m.params()))
    return ast.literal_eval(re.sub("[abcd]", lambda name: str(params[name.group()]), drawn))


def test_matrix_tables():
    tables = {
        SeriesKey(SeriesId(1, "s11"), 1, 1): DefiningMatrix(1, 0, -2),
        SeriesKey(SeriesId(2, "s22"), 1, 1, -2): DefiningMatrix(2, 1, 0, -2),
        SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2): DefiningMatrix(3, 3, 1, -2, -2),
    }
    for key, m in tables.items():
        assert matrix_from_eta(key) == m
        assert m.expand().to_lists() == _drawn_matrix(m)


def test_matrix_from_eta_rejects_nonmembers():
    bad = SeriesKey(SeriesId(1, "s11"), 2, 2)  # even local indices not allowed in s11
    assert not series_membership(bad)
    with pytest.raises(ValueError):
        matrix_from_eta(bad)


def test_enumerate_all_small_counts():
    assert len(enumerate_all(1, 1)) == 1
    assert len(enumerate_all(1, 2)) == 0  # even local indices must be divisible by 4
    assert [(k.series.tag, k.eta()) for k, _ in enumerate_all(2, 1)] == [
        ("s12", (1, 1, -1)),
        ("s22", (1, 1, -2)),
    ]


def test_enumerate_all_checks_iota_once(monkeypatch):
    """One index check per call, and the keys of enumerate_eta series by series, each with its matrix."""
    calls = [0]
    check = fiqs.series._check_index

    def counted(name, value):
        calls[0] += 1
        check(name, value)

    monkeypatch.setattr(fiqs.series, "_check_index", counted)
    for rho in (1, 2, 3):
        for iota in range(1, 13):
            calls[0] = 0
            pairs = enumerate_all(rho, iota)
            assert calls[0] == 1
            keys = [key for tag in SERIES_TAGS for key in enumerate_eta(SeriesId(rho, tag), iota)]
            assert pairs == [(key, matrix_from_eta(key)) for key in keys]
    with pytest.raises(ValueError, match=r"^rho must be 1, 2 or 3, got 4$"):
        enumerate_all(4, 0)  # rho is named before the index
    with pytest.raises(ValueError, match=r"^iota must be positive, got 0$"):
        enumerate_all(3, 0)


def test_enumerate_all_equals_the_per_key_reference():
    """enumerate_all is enumerate_eta's keys each with matrix_from_eta's matrix, and the (o+, o-) of each block
    are the first two local orders of its keys' matrices by the determinant formulas."""
    for rho in (1, 2, 3):
        for iota in range(1, 21):
            keys = [key for tag in SERIES_TAGS for key in enumerate_eta(SERIES_IDS[rho, tag], iota)]
            assert enumerate_all(rho, iota) == [(key, matrix_from_eta(key)) for key in keys]
            blocks = [
                (op, om, key)
                for tag in SERIES_TAGS
                for op, om, block in _iter_blocks(SERIES_IDS[rho, tag], iota)
                for key in block
            ]
            assert [key for _, _, key in blocks] == keys
            for op, om, key in blocks:
                assert (op, om) == _orders(matrix_from_eta(key))[:2], key


def test_enumerate_rejects_nonpositive_iota():
    with pytest.raises(ValueError):
        enumerate_eta(SeriesId(1, "s11"), 0)
    with pytest.raises(ValueError):
        enumerate_all(2, -3)


def test_every_enumerated_matrix_validates(surfaces_by_rho):
    for rho in (1, 2, 3):
        for key, m in up_to(surfaces_by_rho[rho], 30):
            assert not validate(rho, *m.params()), (key, m)
            assert series_membership(key)


def test_matrices_pairwise_distinct_within_iota():
    for rho in (1, 2, 3):
        for iota in range(1, 21):
            params = [m.params() for _, m in enumerate_all(rho, iota)]
            assert len(params) == len(set(params)), (rho, iota)


def test_rho1_parity_table():
    expected = {"s11": (0, 0), "s12": (0, 1), "s21": (1, 0), "s22": (1, 1)}
    for iota in range(1, 41):
        for key, m in enumerate_all(1, iota):
            assert (m.a % 2, m.b % 2) == expected[key.series.tag]


def test_gorenstein_index_is_lcm(surfaces_by_rho):
    for rho in (1, 2, 3):
        for iota in range(1, 31):
            for key, _ in enumerate_all(rho, iota):
                assert key.iota == iota


def test_enumeration_is_deterministic():
    for rho in (1, 2, 3):
        assert enumerate_all(rho, 12) == enumerate_all(rho, 12)


def test_enumeration_ordering():
    keys = enumerate_eta(SeriesId(3, "s22"), 2)
    etas = [k.eta() for k in keys]
    assert etas == sorted(etas)


def test_series_cover_all_valid_matrices():
    """Every matrix satisfying the construction inequalities lies in exactly one series."""
    from fiqs import classify

    def check(m):
        key = classify(m)
        assert series_membership(key)
        assert matrix_from_eta(key) == m

    for b in range(-20, -1):
        for a in range(0, -b - 1):
            check(DefiningMatrix(1, a, b))
    for a in range(0, 8):
        for b in range(-10, a):
            for c in range(-10, 0):
                if not validate(2, a, b, c):
                    check(DefiningMatrix(2, a, b, c))
    for a in range(1, 7):
        for b in range(-8, a):
            for c in range(-8, 0):
                for d in range(-8, 0):
                    if not validate(3, a, b, c, d):
                        check(DefiningMatrix(3, a, b, c, d))


def test_key_field_arity_enforced():
    with pytest.raises(ValueError):
        SeriesKey(SeriesId(1, "s11"), 1, 1, c=-1)
    with pytest.raises(ValueError):
        SeriesKey(SeriesId(3, "s11"), 1, 1, c=-1)  # missing d
    with pytest.raises(ValueError):
        SeriesKey(SeriesId(2, "s11"), 0, 1, c=-1)


@pytest.mark.parametrize("rho", (1, 2, 3))
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_pair_ok_matches_reference_ladder(rho, tag):
    for ip in range(1, 151):
        for im in range(1, 151):
            assert _pair_ok(rho, tag, ip, im) == reference_pair_ok(rho, tag, ip, im), (ip, im)


def test_local_orders_are_weighted_indices(surfaces_by_rho):
    """The local class group orders of x+/x- are w+ iota+ and w- iota- (matrix side)."""
    for rho in (1, 2, 3):
        for key, m in up_to(surfaces_by_rho[rho], 30):
            wp, wm = _WEIGHTS[rho][key.series.tag]
            orders = local_orders(m)
            assert (orders["x+"], orders["x-"]) == (wp * key.iota_plus, wm * key.iota_minus), key


def test_rho1_tables_against_tag_ladder():
    """The rho = 1 matrix and resolution centres read from the weights equal the halving ladder."""
    for iota in range(1, 61):
        for key, m in enumerate_all(1, iota):
            tag, ip, im = key.series.tag, key.iota_plus, key.iota_minus
            a = ip - 1 if tag in ("s11", "s12") else ip // 2 - 1
            b = -im - 1 if tag in ("s11", "s21") else -(im // 2) - 1
            assert m == DefiningMatrix(1, a, b)
            chains = resolution_graph(key).chains
            assert chains["x+"] == (-2, -1 - ip if tag in ("s11", "s12") else -1 - ip // 2, -2)
            assert chains["x-"] == (-2, -1 - im if tag in ("s11", "s21") else -1 - im // 2, -2)


def test_oracles_do_not_read_series_tables():
    series_tables = {"_WEIGHTS", "_CLASS_WEIGHTS", "_DIGITS", "_digit", "_orders"}
    for fn in (
        degree_from_eta,
        picard_index_from_eta,
        _ke_explicit_ranges,
        barycenter_oracle,
        degeneration_polygon,
        class_group_oracle,
        local_gorenstein_oracle,
    ):
        assert not series_tables & set(fn.__code__.co_names), fn.__name__
