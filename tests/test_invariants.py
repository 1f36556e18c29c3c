from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

import fiqs.canon
import fiqs.census
import fiqs.invariants
from fiqs import (
    ClassGroup,
    DefiningMatrix,
    LocalData,
    ResolutionGraph,
    SurfaceRecord,
    barycenters,
    classify,
    SeriesId,
    SeriesKey,
    chain_determinant,
    class_group,
    class_group_oracle,
    degree,
    degree_from_eta,
    enumerate_all,
    gorenstein_index,
    is_ke_family,
    is_ke_oracle,
    is_valid,
    local_data,
    local_gorenstein,
    local_gorenstein_oracle,
    local_orders,
    log_canonicity,
    matrix_from_eta,
    picard_index,
    picard_index_from_eta,
    record_from_csv_row,
    record_from_json_line,
    record_from_matrix,
    record_to_csv_row,
    record_to_json_line,
    resolution_graph,
    series_membership,
    surface_record,
    validate,
)
from fiqs.canon import _checked
from fiqs.invariants import POINT_LABELS, _fields, _record
from fiqs.series import SERIES_IDS, _WEIGHTS

from conftest import up_to

M1 = DefiningMatrix(1, 0, -2)
M2 = DefiningMatrix(2, 1, 0, -2)
M3 = DefiningMatrix(3, 3, 1, -2, -2)


class TestClassGroup:
    def test_formula(self):
        assert class_group(M1) == ClassGroup(1, 4)
        assert class_group(M2) == ClassGroup(2, 1)
        assert class_group(M3) == ClassGroup(3, 1)

    def test_oracle(self):
        assert class_group_oracle(M1) == ClassGroup(1, 4)
        assert class_group_oracle(M2) == ClassGroup(2, 1)
        assert class_group_oracle(M3) == ClassGroup(3, 1)

    def test_oracle_equality_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 12):
                assert class_group(m) == class_group_oracle(m)


class TestLocalData:
    def test_orders(self):
        assert local_orders(M1) == {"x+": 4, "x-": 4, "x0": 2}
        assert local_orders(M2) == {"x+": 3, "x-": 3, "x0": 1, "x1": 2}
        assert local_orders(M3) == {"x+": 3, "x-": 3, "x0": 2, "x1": 2, "x2": 2}

    def test_local_gorenstein(self):
        assert local_gorenstein(M1) == (1, 1)
        assert local_gorenstein(M2) == (1, 1)
        assert local_gorenstein(M3) == (3, 3)

    def test_oracle_values(self):
        assert local_gorenstein_oracle(M1, "plus") == 1
        assert local_gorenstein_oracle(DefiningMatrix(1, 1, -3), "plus") == 4  # 2a+2, a odd
        assert local_gorenstein_oracle(M3, "minus") == 3

    def test_oracle_equality_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 12):
                assert local_gorenstein(m) == (
                    local_gorenstein_oracle(m, "plus"),
                    local_gorenstein_oracle(m, "minus"),
                )

    def test_interior_points_have_index_one(self):
        data = local_data(M3)
        assert data.gorenstein_indices == {"x+": 3, "x-": 3, "x0": 1, "x1": 1, "x2": 1}

    def test_index_divides_order(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 12):
                ip, im = local_gorenstein(m)
                orders = local_orders(m)
                assert orders["x+"] % ip == 0
                assert orders["x-"] % im == 0

    def test_gorenstein_index(self):
        assert gorenstein_index(M1) == 1
        assert gorenstein_index(DefiningMatrix(1, 0, -4)) == 3


class TestDegree:
    def test_matrix_formula(self):
        assert degree(M1) == 2
        assert degree(M2) == 3
        assert degree(M3) == Fraction(8, 3)

    def test_series_formula(self):
        assert degree_from_eta(SeriesKey(SeriesId(1, "s11"), 1, 3)) == Fraction(4, 3)
        assert degree_from_eta(SeriesKey(SeriesId(2, "s12"), 1, 1, -1)) == 6
        assert degree_from_eta(SeriesKey(SeriesId(3, "s22"), 1, 1, -1, -1)) == 4

    def test_agreement_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                assert degree(m) == degree_from_eta(key)


class TestLogCanonicity:
    def test_values(self):
        assert log_canonicity(M1) == 1
        assert log_canonicity(M2) == 1
        assert log_canonicity(M3) == Fraction(2, 3)

    def test_range(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 12):
                assert 0 < log_canonicity(m) <= 1
                assert degree(m) > 0


class TestPicardIndex:
    def test_matrix_formula(self):
        assert picard_index(M1) == 8
        assert picard_index(M2) == 18
        assert picard_index(M3) == 72

    def test_series_formula(self):
        assert picard_index_from_eta(SeriesKey(SeriesId(1, "s11"), 1, 1)) == 8
        assert picard_index_from_eta(SeriesKey(SeriesId(2, "s22"), 1, 1, -2)) == 18
        assert picard_index_from_eta(SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)) == 72

    def test_agreement_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                assert picard_index(m) == picard_index_from_eta(key)

    def test_gorenstein_divides_picard(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                assert picard_index(m) % key.iota == 0


def reference_resolution(key: SeriesKey) -> ResolutionGraph:
    """The chains built from the series weights: x+/x- centres from w+ iota+, w- iota-."""
    rho = key.rho
    wp, wm = _WEIGHTS[rho][key.series.tag]
    op, om = wp * key.iota_plus, wm * key.iota_minus
    orders = local_orders(matrix_from_eta(key))
    if rho == 1:
        chains = {"x+": (-2, -1 - op // 4, -2), "x-": (-2, -1 - om // 4, -2)}
    else:
        plus, minus = ((-2, -(1 + op) // 2), (-2, -(1 + om) // 2)) if rho == 2 else ((-op,), (-om,))
        chains = {"x+": () if orders["x+"] == 1 else plus, "x-": () if orders["x-"] == 1 else minus}
    for label in POINT_LABELS[rho][2:]:
        chains[label] = (-2,) * (orders[label] - 1)
    return ResolutionGraph(chains)


def reference_local_data(key: SeriesKey, m: DefiningMatrix) -> LocalData:
    """Orders by the determinant formulas; Gorenstein index one everywhere, then eta at x+/x-."""
    gor = dict.fromkeys(POINT_LABELS[key.rho], 1)
    gor["x+"] = key.iota_plus
    gor["x-"] = key.iota_minus
    return LocalData(local_orders(m), gor)


class TestResolutionGraphs:
    def test_rho1_chains(self):
        graph = resolution_graph(SeriesKey(SeriesId(1, "s11"), 1, 3))
        assert graph.chains == {
            "x+": (-2, -2, -2),
            "x-": (-2, -4, -2),
            "x0": (-2, -2, -2),
        }

    def test_rho2_chains_with_smooth_x0(self):
        graph = resolution_graph(SeriesKey(SeriesId(2, "s22"), 1, 1, -2))
        assert graph.chains == {"x+": (-2, -2), "x-": (-2, -2), "x0": (), "x1": (-2,)}

    def test_rho3_smooth_x_plus(self):
        # iota+ = 1 in s11 means the canonical resolution contracts to a smooth point
        key = SeriesKey(SeriesId(3, "s11"), 1, 5, -2, -2)
        graph = resolution_graph(key)
        assert graph.chains["x+"] == ()

    def test_rho2_smooth_x_plus(self):
        key = SeriesKey(SeriesId(2, "s12"), 1, 1, -1)
        assert resolution_graph(key).chains["x+"] == ()

    def test_weights_at_most_minus_two(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, _ in up_to(surfaces_by_rho[rho], 12):
                for chain in resolution_graph(key).chains.values():
                    assert all(w <= -2 for w in chain)

    def test_chain_determinant_examples(self):
        assert chain_determinant(()) == 1
        assert chain_determinant((-2,)) == 2
        assert chain_determinant((-2, -2, -2)) == 4
        # [-2, -(1+iota+), -2] has determinant 4 iota+ = 4a+4
        assert chain_determinant((-2, -4, -2)) == 12

    def test_chains_and_local_data_match_reference(self, surfaces_by_rho):
        """Chains read from the orders equal those built from the series weights."""
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 30):
                rec = surface_record(key)
                assert rec.resolution == reference_resolution(key) == resolution_graph(key)
                assert rec.local == reference_local_data(key, m) == local_data(m)

    def test_determinant_law_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                orders = local_orders(m)
                for label, chain in resolution_graph(key).chains.items():
                    assert chain_determinant(chain) == orders[label]


class TestSurfaceRecord:
    def test_bundle(self):
        key = SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)
        rec = surface_record(key)
        assert rec.matrix == M3
        assert rec.gorenstein_index == 3
        assert rec.degree == Fraction(8, 3)
        assert rec.picard_index == 72
        assert rec.ke is True

    def test_from_matrix_classifies_first(self):
        assert record_from_matrix(M2) == surface_record(classify(M2), M2)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            degree(DefiningMatrix(1, 4, -2))
        with pytest.raises(ValueError):
            local_gorenstein_oracle(M1, "sideways")

    @pytest.mark.parametrize(
        "closed_form",
        [
            class_group,
            class_group_oracle,
            local_orders,
            local_gorenstein,
            lambda m: local_gorenstein_oracle(m, "plus"),
            local_data,
            gorenstein_index,
            degree,
            log_canonicity,
            picard_index,
            record_from_matrix,
        ],
    )
    def test_every_closed_form_rejects_invalid_matrices(self, closed_form):
        # one violated normal-form inequality per rho (b <= -2, c < 0, 0 < a)
        for m in (DefiningMatrix(1, 0, -1), DefiningMatrix(2, 1, 0, 2), DefiningMatrix(3, 0, -1, -1, -1)):
            with pytest.raises(ValueError):
                closed_form(m)

    def test_key_with_foreign_matrix_rejected(self):
        (k1, _), (_, m2) = enumerate_all(3, 6)[:2]
        assert classify(m2) != k1
        with pytest.raises(ValueError):
            surface_record(k1, m2)
        with pytest.raises(ValueError):
            surface_record(k1, DefiningMatrix(3, 0, -1, -1, -1))

    def test_key_outside_its_series_rejected(self):
        with pytest.raises(ValueError):
            surface_record(SeriesKey(SeriesId(1, "s12"), 1, 3))  # s12 needs 4 | iota-

    def test_fields_equal_eta_and_checked_forms(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                rec = surface_record(key)
                assert rec.key == key and rec.matrix == m
                assert rec.class_group == class_group(m)
                assert rec.orders == tuple(local_orders(m).values()) and tuple(local_orders(m)) == POINT_LABELS[rho]
                assert rec.local == local_data(m)
                assert (rec.local.gorenstein_indices["x+"], rec.local.gorenstein_indices["x-"]) == key.eta()[:2]
                assert rec.gorenstein_index == key.iota == gorenstein_index(m)
                assert rec.degree == degree_from_eta(key) == degree(m)
                assert rec.log_canonicity == log_canonicity(m)
                assert rec.picard_index == picard_index_from_eta(key) == picard_index(m)
                assert rec.ke == is_ke_family(key)
                assert rec.resolution == resolution_graph(key)
                assert surface_record(key, m) == rec == record_from_matrix(m)

    def test_each_path_checks_once(self, monkeypatch):
        calls = {"validate": 0, "classify": 0, "matrix_from_eta": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(fiqs.canon, "validate", counting("validate", fiqs.canon.validate))
        monkeypatch.setattr(fiqs.invariants, "classify", counting("classify", fiqs.invariants.classify))
        monkeypatch.setattr(
            fiqs.invariants, "matrix_from_eta", counting("matrix_from_eta", fiqs.invariants.matrix_from_eta)
        )
        key = classify(M3)
        calls.update(validate=0)
        surface_record(key)
        assert calls == {"validate": 1, "classify": 0, "matrix_from_eta": 1}
        calls.update(validate=0, matrix_from_eta=0)
        surface_record(key, M3)
        assert calls == {"validate": 1, "classify": 1, "matrix_from_eta": 0}
        calls.update(validate=0, classify=0)
        record_from_matrix(M3)
        assert calls == {"validate": 1, "classify": 1, "matrix_from_eta": 0}


class TestRecordLayout:
    """A record stores its local orders; its local data and chains are derived from them when read."""

    def test_stored_fields(self):
        assert [f.name for f in dataclasses.fields(SurfaceRecord)] == [
            "key", "matrix", "class_group", "orders", "gorenstein_index", "degree", "log_canonicity",
            "picard_index", "ke",
        ]

    def test_every_path_gives_an_equal_record(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 8):
                rec = surface_record(key)
                spaced = json.dumps(json.loads(record_to_json_line(rec)), indent=1)  # the field-by-field reader
                twins = (
                    surface_record(key, m), record_from_matrix(m), record_from_json_line(record_to_json_line(rec)),
                    record_from_json_line(spaced), record_from_csv_row(record_to_csv_row(rec)),
                )
                for twin in twins:
                    assert twin == rec and hash(twin) == hash(rec)

    def test_records_are_equal_exactly_when_their_keys_are(self, surfaces_by_rho):
        pairs = [pair for rho in (1, 2, 3) for pair in up_to(surfaces_by_rho[rho], 12)]
        records = [surface_record(key) for key, _ in pairs] + [record_from_matrix(m) for _, m in pairs]
        distinct = set(records)
        assert len(distinct) == len(pairs)
        assert {rec.key for rec in distinct} == {key for key, _ in pairs}
        first = surface_record(pairs[0][0])
        assert first != dataclasses.replace(first, orders=(*first.orders[:-1], first.orders[-1] + 1))

    def test_derived_views_are_not_stored(self):
        rec = surface_record(SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2))
        assert rec.orders == (3, 3, 2, 2, 2)
        assert rec.local == LocalData(
            dict(zip(POINT_LABELS[3], rec.orders)), {"x+": 3, "x-": 3, "x0": 1, "x1": 1, "x2": 1}
        )
        assert rec.resolution.chains == {"x+": (-3,), "x-": (-3,), "x0": (-2,), "x1": (-2,), "x2": (-2,)}
        assert "local" not in repr(rec) and "orders=(3, 3, 2, 2, 2)" in repr(rec)


# The matrix-parameter forms in the local orders o+ = o[x+], o- = o[x-],
# written out here: degree p * (1/o+ + 1/o-) and log canonicity e / o-.
_DEGREE_FACTORS = {1: 4, 2: Fraction(9, 2), 3: 4}
_LOG_CANONICITY_NUMERATORS = {1: 4, 2: 3, 3: 2}
_MEMOS = ("_degree", "_log_canonicity", "_class_group", "_end_chain")


def _records_up_to_12(surfaces_by_rho):
    return [record_from_matrix(m) for rho in (1, 2, 3) for _, m in up_to(surfaces_by_rho[rho], 12)]


class TestSharedValues:
    """Records with the same orders hold one object per value, and it is the right value."""

    def test_shared_values_are_correct(self, surfaces_by_rho):
        for rec in _records_up_to_12(surfaces_by_rho):
            rho, op, om = rec.key.rho, rec.local.orders["x+"], rec.local.orders["x-"]
            assert rec.degree == degree_from_eta(rec.key) == _DEGREE_FACTORS[rho] * (Fraction(1, op) + Fraction(1, om))
            assert rec.log_canonicity == Fraction(_LOG_CANONICITY_NUMERATORS[rho], om)

    def test_equal_orders_share_one_object(self, surfaces_by_rho):
        first = {}
        records = _records_up_to_12(surfaces_by_rho)
        for rec in records:
            rho, o, chains = rec.key.rho, rec.local.orders, rec.resolution.chains
            values = {
                ("degree", rho, o["x+"], o["x-"]): rec.degree,
                ("log canonicity", rho, o["x-"]): rec.log_canonicity,
                ("class group", rho, rec.class_group.torsion_order): rec.class_group,
            }
            for label, order in o.items():
                values[("end chain", rho, order) if label in ("x+", "x-") else ("interior chain", order)] = chains[label]
            for what, value in values.items():
                assert first.setdefault(what, value) is value, what
        assert len(first) < len(records)

    def test_values_come_back_after_cache_clear(self, surfaces_by_rho):
        before = _records_up_to_12(surfaces_by_rho)
        for name in _MEMOS:
            getattr(fiqs.invariants, name).cache_clear()
        assert _records_up_to_12(surfaces_by_rho) == before

    def test_float_field_still_fails(self):
        """A float field is rejected before it reaches a memo: the int result is not returned for it."""
        assert degree(DefiningMatrix(2, 1, -1, -2)) == Fraction(12, 5)
        with pytest.raises(ValueError, match="DefiningMatrix field 'a' must be an int, got 1.0"):
            degree(DefiningMatrix(2, 1.0, -1, -2))


# Every public function that takes a matrix and checks it, plus record_from_matrix.
_MATRIX_FUNCTIONS = (
    validate, is_valid, _checked, classify, local_orders, local_data, local_gorenstein, gorenstein_index,
    class_group, class_group_oracle, degree, log_canonicity, picard_index, barycenters, is_ke_oracle,
    record_from_matrix,
)


@pytest.mark.parametrize("fn", _MATRIX_FUNCTIONS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("field", ["a", "b", "c", "d"])
def test_float_field_is_named(fn, field):
    """A float parameter is rejected with the ValueError that names it, never a wrong value or a bare TypeError."""
    params = dict(a=3, b=1, c=-2, d=-2)
    fn(DefiningMatrix(3, **params))  # the int matrix passes
    params[field] = float(params[field])
    with pytest.raises(ValueError, match=f"^DefiningMatrix field '{field}' must be an int, got {params[field]}$"):
        fn(DefiningMatrix(3, **params))


@pytest.mark.parametrize(
    "fn", (series_membership, is_ke_family, degree_from_eta, picard_index_from_eta), ids=lambda fn: fn.__name__
)
@pytest.mark.parametrize("field", ["iota_plus", "iota_minus", "c", "d"])
def test_float_key_field_is_named(fn, field):
    """A float key field is rejected with the ValueError that names it, never a wrong value or a bare TypeError."""
    fields = dict(iota_plus=3, iota_minus=3, c=-2, d=-2)
    fn(SeriesKey(SERIES_IDS[3, "s11"], **fields))  # the int key passes
    fields[field] = float(fields[field])
    with pytest.raises(ValueError, match=f"^SeriesKey field '{field}' must be an int, got {fields[field]}$"):
        fn(SeriesKey(SERIES_IDS[3, "s11"], **fields))


class TestOneKernel:
    """One field kernel computes every value of a record, and _record only assembles it."""

    def test_every_record_path_equals_the_kernel(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                fields = _fields(key)
                rec = _record(key, *fields)
                assert rec == surface_record(key) == surface_record(key, m) == record_from_matrix(m)
                assert fiqs.census._record_fields(surface_record(key)) == fields

    def test_each_path_runs_the_kernel_once(self, monkeypatch):
        calls = {"_torsion": 0, "_ke_rule": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fiqs.invariants, name, counting(name, getattr(fiqs.invariants, name)))
        key = classify(M3)
        for path in (lambda: _fields(key), lambda: surface_record(key), lambda: surface_record(key, M3),
                     lambda: record_from_matrix(M3)):
            calls.update(_torsion=0, _ke_rule=0)
            path()
            assert calls == {"_torsion": 1, "_ke_rule": 1}
        fields = _fields(key)
        calls.update(_torsion=0, _ke_rule=0)
        _record(key, *fields)
        assert calls == {"_torsion": 0, "_ke_rule": 0}
