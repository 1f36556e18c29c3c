from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from fiqs import (
    SERIES_TAGS,
    AdmissibleOp,
    DefiningMatrix,
    NormalFormError,
    RawMatrix,
    SeriesId,
    SeriesKey,
    apply_op,
    canonicalize,
    classify,
    enumerate_all,
    is_valid,
    matrix_from_eta,
    raw_from_matrix,
    validate,
)
from fiqs.canon import _HOLDS, ARM_COLUMNS, SWAPPABLE_ARM_PAIRS, _violations, parameter_orbit, reduce_raw
from fiqs.series import SERIES_IDS

from conftest import up_to


# The generators of the symmetry group as maps on parameter tuples: the
# negation of the last row and the arm swaps.  reference_orbit closes a tuple
# under them; parameter_orbit lists the same set as closed-form images.
def _neg1(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b = p
    return (-b - 2, -a - 2)


def _swap2(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c = p
    return (a, a + c, b - a)


def _neg2(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c = p
    return (-b - c - 1, -a - c - 1, c)


def _swap3_12(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d = p
    return (a, b, d, c)


def _swap3_01(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d = p
    return (a, a + c, b - a, d)


def _neg3(p: tuple[int, ...]) -> tuple[int, ...]:
    a, b, c, d = p
    return (-b - c - d, -a - c - d, c, d)


_GENERATORS = {1: (_neg1,), 2: (_swap2, _neg2), 3: (_swap3_12, _swap3_01, _neg3)}


def reference_orbit(rho: int, params: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Closure of a parameter tuple under the generators (set-and-frontier loop)."""
    seen = {params}
    frontier = [params]
    while frontier:
        p = frontier.pop()
        for f in _GENERATORS[rho]:
            q = f(p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return frozenset(seen)


class TestValidate:
    def test_minimal_instance_ok(self):
        assert validate(DefiningMatrix(1, 0, -2)) == ()

    def test_names_violated_inequality(self):
        assert validate(DefiningMatrix(1, 1, -2)) == ("a <= -b-2",)

    def test_rho3_ok(self):
        assert validate(DefiningMatrix(3, 3, 1, -2, -2)) == ()

    def test_multiple_violations_all_reported(self):
        bad = validate(DefiningMatrix(2, -1, 3, 2))
        assert "b < a" in bad and "c < 0" in bad and "a >= 0" in bad


class TestApplyOp:
    def test_negate(self):
        raw = RawMatrix(1, (0, -2, 1, 1))
        assert apply_op(raw, AdmissibleOp("negate_last_row")).third_row == (0, 2, -1, -1)

    def test_row_additions(self):
        raw = RawMatrix(1, (0, 2, -1, -1))
        raw = apply_op(raw, AdmissibleOp("add_row", row=1, multiplier=1))
        raw = apply_op(raw, AdmissibleOp("add_row", row=2, multiplier=1))
        assert raw.third_row == (-2, 0, 1, 1)

    def test_swap_within_arm(self):
        raw = RawMatrix(2, (1, 0, 0, -2, 1))
        swapped = apply_op(raw, AdmissibleOp("swap_within_arm", arm=1))
        assert swapped.third_row == (1, 0, -2, 0, 1)

    def test_swap_singleton_arm_rejected(self):
        with pytest.raises(ValueError):
            apply_op(RawMatrix(1, (0, -2, 1, 1)), AdmissibleOp("swap_within_arm", arm=1))

    def test_swap_unequal_arms_rejected(self):
        # rho=2: the single-column arm {v5} cannot trade places with a pair
        with pytest.raises(ValueError):
            apply_op(RawMatrix(2, (1, 0, 0, -2, 1)), AdmissibleOp("swap_arms", arms=(1, 2)))

    def test_primitivity_guard(self):
        with pytest.raises(ValueError):
            RawMatrix(1, (0, -2, 2, 1))
        with pytest.raises(ValueError):
            RawMatrix(2, (1, 0, 0, -2, 2))


class TestCanonicalize:
    def test_negated_scramble_recovers(self):
        assert canonicalize(RawMatrix(1, (0, 2, -1, -1))) == DefiningMatrix(1, 0, -2)

    def test_canonical_is_fixed_point(self):
        m = DefiningMatrix(2, 1, 0, -2)
        assert canonicalize(raw_from_matrix(m)) == m

    def test_orbit_example_rho2(self):
        orbit = parameter_orbit(2, (1, 0, -2))
        assert orbit == {(1, 0, -2), (1, -1, -1)}
        valid = [p for p in orbit if validate(DefiningMatrix(2, *p)) == ()]
        assert valid == [(1, 0, -2)]

    def test_orbit_sizes_bounded(self, surfaces_by_rho):
        caps = {1: 2, 2: 4, 3: 12}
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 15):
                assert len(parameter_orbit(rho, m.params())) <= caps[rho]

    def test_rho2_maps_commute(self, surfaces_by_rho):
        for _, m in up_to(surfaces_by_rho[2], 15):
            p = m.params()
            assert _neg2(_swap2(p)) == _swap2(_neg2(p))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(NormalFormError):
            canonicalize(RawMatrix(2, (1, 1, 0, -2, 1)))
        with pytest.raises(NormalFormError):
            canonicalize(RawMatrix(3, (2, 0, 0, 0, 0, -1)))


def _random_ops(rho: int, rng: random.Random, n: int) -> list[AdmissibleOp]:
    kinds = ["add_row", "swap_within_arm", "swap_arms", "negate_last_row"]
    two_col_arms = [i for i, cols in enumerate(ARM_COLUMNS[rho]) if len(cols) == 2]
    ops = []
    for _ in range(n):
        kind = rng.choice(kinds)
        if kind == "add_row":
            ops.append(AdmissibleOp("add_row", row=rng.choice((1, 2)), multiplier=rng.randint(-3, 3)))
        elif kind == "swap_within_arm":
            ops.append(AdmissibleOp("swap_within_arm", arm=rng.choice(two_col_arms)))
        elif kind == "swap_arms":
            ops.append(AdmissibleOp("swap_arms", arms=rng.choice(sorted(SWAPPABLE_ARM_PAIRS[rho]))))
        else:
            ops.append(AdmissibleOp("negate_last_row"))
    return ops


def test_scramble_stability(surfaces_by_rho):
    rng = random.Random(20240)
    for rho in (1, 2, 3):
        surfaces = up_to(surfaces_by_rho[rho], 14)
        for key, m in surfaces:
            raw = raw_from_matrix(m)
            for op in _random_ops(rho, rng, rng.randint(1, 6)):
                raw = apply_op(raw, op)
            assert canonicalize(raw) == m, (key, raw)


def test_closed_form_maps_match_matrix_level(surfaces_by_rho):
    """The parameter maps equal arm swap / negation performed on the raw matrix."""
    negs = {1: _neg1, 2: _neg2, 3: _neg3}
    for rho in (1, 2, 3):
        for _, m in up_to(surfaces_by_rho[rho], 20):
            raw = raw_from_matrix(m)
            p = reduce_raw(raw)
            assert p == m.params()
            assert reduce_raw(apply_op(raw, AdmissibleOp("negate_last_row"))) == negs[rho](p)
            if rho == 2:
                assert reduce_raw(apply_op(raw, AdmissibleOp("swap_arms", arms=(0, 1)))) == _swap2(p)
            if rho == 3:
                assert reduce_raw(apply_op(raw, AdmissibleOp("swap_arms", arms=(1, 2)))) == _swap3_12(p)
                assert reduce_raw(apply_op(raw, AdmissibleOp("swap_arms", arms=(0, 1)))) == _swap3_01(p)
            if rho == 1:
                # the two singleton arms swap without changing the parameters
                assert reduce_raw(apply_op(raw, AdmissibleOp("swap_arms", arms=(1, 2)))) == p


class TestClassify:
    def test_examples(self):
        assert classify(DefiningMatrix(1, 0, -2)) == SeriesKey(SeriesId(1, "s11"), 1, 1)
        assert classify(DefiningMatrix(2, 1, 0, -2)) == SeriesKey(SeriesId(2, "s22"), 1, 1, -2)
        assert classify(DefiningMatrix(3, 3, 1, -2, -2)) == SeriesKey(
            SeriesId(3, "s11"), 3, 3, -2, -2
        )

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            classify(DefiningMatrix(1, 5, -2))

    def test_round_trip_small(self):
        for rho in (1, 2, 3):
            for iota in range(1, 16):
                for key, m in enumerate_all(rho, iota):
                    assert classify(m) == key
                    assert matrix_from_eta(classify(m)) == m


def reference_canonicalize(m: RawMatrix) -> DefiningMatrix:
    """The orbit filter that builds and validates a DefiningMatrix per orbit element."""
    params = reduce_raw(m)
    passing = [
        p for p in sorted(parameter_orbit(m.rho, params)) if is_valid(DefiningMatrix(m.rho, *p))
    ]
    if len(passing) != 1:
        raise NormalFormError(
            f"expected exactly one normal form in the orbit, found {len(passing)} "
            f"(rho={m.rho}, reduced={params})"
        )
    return DefiningMatrix(m.rho, *passing[0])


def canon_outcome(canon, raw: RawMatrix):
    try:
        return canon(raw)
    except NormalFormError as exc:
        return f"NormalFormError: {exc}"


_NORMAL_FORMS = {rho: [m for iota in range(1, 13) for _, m in enumerate_all(rho, iota)] for rho in (1, 2, 3)}


@st.composite
def scrambled_raw(draw):
    """A normal form moved by admissible operations, one arm made to coincide in some draws."""
    rho = draw(st.sampled_from((1, 2, 3)))
    raw = raw_from_matrix(draw(st.sampled_from(_NORMAL_FORMS[rho])))
    two_col_arms = [i for i, cols in enumerate(ARM_COLUMNS[rho]) if len(cols) == 2]
    op = st.one_of(
        st.builds(AdmissibleOp, st.just("add_row"), row=st.sampled_from((1, 2)), multiplier=st.integers(-3, 3)),
        st.builds(AdmissibleOp, st.just("swap_within_arm"), arm=st.sampled_from(two_col_arms)),
        st.builds(AdmissibleOp, st.just("swap_arms"), arms=st.sampled_from(sorted(SWAPPABLE_ARM_PAIRS[rho]))),
        st.just(AdmissibleOp("negate_last_row")),
    )
    for o in draw(st.lists(op, max_size=8)):
        raw = apply_op(raw, o)
    if draw(st.booleans()):
        i, j = ARM_COLUMNS[rho][draw(st.sampled_from(two_col_arms))]
        row = list(raw.third_row)
        row[j] = row[i]
        raw = RawMatrix(rho, tuple(row))
    return raw


@st.composite
def arbitrary_raw(draw):
    """Any in-shape third row: small entries, odd where primitivity needs it."""
    rho = draw(st.sampled_from((1, 2, 3)))
    row = draw(st.lists(st.integers(-12, 12), min_size=rho + 3, max_size=rho + 3))
    odd = {1: (2, 3), 2: (4,), 3: ()}[rho]
    return RawMatrix(rho, tuple(2 * x + 1 if j in odd else x for j, x in enumerate(row)))


class TestCanonicalizeEqualsReference:
    @given(scrambled_raw())
    def test_scrambled_and_corrupted(self, raw):
        assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)

    @given(arbitrary_raw())
    def test_arbitrary_rows(self, raw):
        assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)

    def test_no_normal_form_message(self):
        raw = RawMatrix(1, (-3, -2, -3, -3))
        with pytest.raises(NormalFormError, match="expected exactly one normal form in the orbit, found 0"):
            canonicalize(raw)
        assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)


@pytest.mark.parametrize("rho", (1, 2, 3))
@pytest.mark.parametrize("tag", SERIES_TAGS)
def test_classify_shares_series_ids(rho, tag):
    key = next(k for iota in range(1, 13) for k, _ in enumerate_all(rho, iota) if k.series.tag == tag)
    series = classify(matrix_from_eta(key)).series
    assert series is SERIES_IDS[rho, tag]
    assert series == SeriesId(rho, tag)
    assert key.series is series


_PARAM = st.integers(-6, 6) | st.integers(-10**6, 10**6)  # small values hit the fixed points


@given(st.integers(1, 3).flatmap(lambda rho: st.tuples(st.just(rho), st.tuples(*[_PARAM] * (rho + 1)))))
def test_parameter_orbit_equals_closure(case):
    rho, params = case
    assert parameter_orbit(rho, params) == reference_orbit(rho, params)


def test_parameter_orbit_equals_closure_on_normal_forms():
    for rho in (1, 2, 3):
        for m in _NORMAL_FORMS[rho]:
            assert parameter_orbit(rho, m.params()) == reference_orbit(rho, m.params()), m


def reference_violations(rho, a, b, c=None, d=None):
    """The normal-form inequalities as a per-rho ladder that lists each failure as it tests it."""
    bad = []
    if rho == 1:
        if not b <= -2:
            bad.append("b <= -2")
        if not 0 <= a:
            bad.append("0 <= a")
        if not a <= -b - 2:
            bad.append("a <= -b-2")
    elif rho == 2:
        if not b < a:
            bad.append("b < a")
        if not c < 0:
            bad.append("c < 0")
        if not a >= 0:
            bad.append("a >= 0")
        if not b + c <= -1:
            bad.append("b+c <= -1")
        if not a - b <= -c:
            bad.append("a-b <= -c")
        if not a <= -b - c - 1:
            bad.append("a <= -b-c-1")
    else:
        if not a > b:
            bad.append("a > b")
        if not c < 0:
            bad.append("0 > c")
        if not d < 0:
            bad.append("0 > d")
        if not a - b >= -c:
            bad.append("a-b >= -c")
        if not -c >= -d:
            bad.append("-c >= -d")
        if not b + c + d < 0:
            bad.append("b+c+d < 0")
        if not a > 0:
            bad.append("0 < a")
        if not a <= -b - c - d:
            bad.append("a <= -b-c-d")
    return tuple(bad)


def assert_checks_match_reference(rho, params):
    want = reference_violations(rho, *params)
    assert _violations(rho, *params) == want, (rho, params)
    assert _HOLDS[rho](*params) is (not want), (rho, params)  # the orbit filter of canonicalize
    assert validate(DefiningMatrix(rho, *params)) == want, (rho, params)


@given(st.integers(1, 3).flatmap(lambda rho: st.tuples(st.just(rho), st.tuples(*[_PARAM] * (rho + 1)))))
def test_checks_match_reference_ladder(case):
    assert_checks_match_reference(*case)


def test_checks_match_reference_ladder_on_orbits():
    """Every orbit image of every normal form with iota <= 12: one passes, the others fail."""
    for rho in (1, 2, 3):
        for m in _NORMAL_FORMS[rho]:
            for p in parameter_orbit(rho, m.params()):
                assert_checks_match_reference(rho, p)
