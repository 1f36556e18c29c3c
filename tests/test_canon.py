from __future__ import annotations

import random
import re
from fractions import Fraction

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
    matrix_from_eta,
    raw_from_matrix,
    validate,
)
from fiqs.canon import ARM_COLUMNS, SWAPPABLE_ARM_PAIRS, parameter_orbit, reduce_raw
from fiqs.series import _HOLDS, FIRST_TWO_ROWS, SERIES_IDS

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
        assert validate(1, 0, -2) == ()
        assert DefiningMatrix(1, 0, -2).params() == (0, -2)

    def test_names_violated_inequality(self):
        assert validate(1, 1, -2) == ("a <= -b-2",)
        with pytest.raises(ValueError, match=r"^matrix is not in normal form, violated: a <= -b-2$"):
            DefiningMatrix(1, 1, -2)

    def test_rho3_ok(self):
        assert validate(3, 3, 1, -2, -2) == ()

    def test_multiple_violations_all_reported(self):
        bad = validate(2, -1, 3, 2)
        assert "b < a" in bad and "c < 0" in bad and "a >= 0" in bad

    @pytest.mark.parametrize(
        "params, message",
        [
            ((0, 1, -2), "rho must be 1, 2 or 3, got 0"),
            ((1, 0, -2, -1), "c must be present exactly for rho >= 2 (rho=1)"),
            ((3, 3, 1, -2), "d must be present exactly for rho = 3 (rho=3)"),
            ((1, 0.0, -2), "DefiningMatrix field 'a' must be an int, got 0.0"),
            ((2, 1, 0, True), "DefiningMatrix field 'c' must be an int, got True"),
        ],
    )
    def test_parameters_are_checked_as_a_matrix_checks_its_fields(self, params, message):
        for make in (validate, DefiningMatrix):
            with pytest.raises(ValueError) as info:
                make(*params)
            assert str(info.value) == message


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

    @pytest.mark.parametrize("arm", [7, -1, 3, True, 1.0, None])
    def test_arm_outside_the_three_arms_rejected(self, arm):
        """An arm index is 0, 1 or 2: no IndexError later, and -1 does not wrap round to arm 2."""
        with pytest.raises(ValueError, match=re.escape(f"swap_within_arm needs an arm index 0, 1 or 2, got {arm!r}")):
            AdmissibleOp("swap_within_arm", arm=arm)

    @pytest.mark.parametrize("arms", [5, (1, "2"), (True, 2), (0, 1.0), [0, 1], (0, 1, 2), (1,), None])
    def test_arms_other_than_a_pair_of_ints_rejected(self, arms):
        """The arm pair is named when the op is made, not a bare TypeError when it is applied; True is not arm 1."""
        message = f"swap_arms field 'arms' must be a tuple of two ints, got {arms!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            AdmissibleOp("swap_arms", arms=arms)

    @pytest.mark.parametrize("multiplier", [0.5, 1.0, "1", True, None])
    def test_non_int_multiplier_rejected(self, multiplier):
        """The multiplier is named, not the third-row entry it would have made."""
        with pytest.raises(ValueError, match=re.escape(f"add_row multiplier must be an int, got {multiplier!r}")):
            AdmissibleOp("add_row", row=1, multiplier=multiplier)

    @pytest.mark.parametrize("row", [True, 1.0, 3, None])
    def test_row_other_than_one_or_two_rejected(self, row):
        with pytest.raises(ValueError, match=re.escape(f"add_row needs row 1 or 2, got {row!r}")):
            AdmissibleOp("add_row", row=row, multiplier=1)

    def test_swap_unequal_arms_rejected(self):
        # rho=2: the single-column arm {v5} cannot trade places with a pair
        with pytest.raises(ValueError):
            apply_op(RawMatrix(2, (1, 0, 0, -2, 1)), AdmissibleOp("swap_arms", arms=(1, 2)))

    def test_primitivity_guard(self):
        with pytest.raises(ValueError):
            RawMatrix(1, (0, -2, 2, 1))
        with pytest.raises(ValueError):
            RawMatrix(2, (1, 0, 0, -2, 2))

    @pytest.mark.parametrize(
        "rho, row, column",
        [(1, (0, -2, 2, 1), 3), (1, (0, -2, 1, 0), 4), (1, (0, -2, 4, -2), 3), (2, (1, 0, 0, -2, 2), 5)],
    )
    def test_primitivity_names_the_column(self, rho, row, column):
        with pytest.raises(ValueError) as info:
            RawMatrix(rho, row)
        assert str(info.value) == f"column {column} needs an odd third-row entry to be primitive"

    @pytest.mark.parametrize(
        "rho, row, message",
        [
            (2, (1.5, 0, 0, -2, 1), "third-row entry 1 must be an int, got 1.5"),
            (1, (0, "3", 1, 1), "third-row entry 2 must be an int, got '3'"),
            (1, (0, -2, 1.0, 1), "third-row entry 3 must be an int, got 1.0"),
            (3, (3, 1, 0, -2, 0, Fraction(-2)), "third-row entry 6 must be an int, got Fraction(-2, 1)"),
            (1, (True, -7, 1, 1), "third-row entry 1 must be an int, got True"),
        ],
    )
    def test_non_int_entries_rejected(self, rho, row, message):
        with pytest.raises(ValueError) as info:
            canonicalize(RawMatrix(rho, row))
        assert str(info.value) == message


class TestCanonicalize:
    def test_negated_scramble_recovers(self):
        assert canonicalize(RawMatrix(1, (0, 2, -1, -1))) == DefiningMatrix(1, 0, -2)

    def test_canonical_is_fixed_point(self):
        m = DefiningMatrix(2, 1, 0, -2)
        assert canonicalize(raw_from_matrix(m)) == m

    def test_orbit_example_rho2(self):
        orbit = parameter_orbit(2, (1, 0, -2))
        assert orbit == {(1, 0, -2), (1, -1, -1)}
        valid = [p for p in orbit if validate(2, *p) == ()]
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
        """No invalid matrix reaches classify: the constructor refuses it."""
        with pytest.raises(ValueError, match="not in normal form"):
            classify(DefiningMatrix(1, 5, -2))

    def test_round_trip_small(self):
        for rho in (1, 2, 3):
            for iota in range(1, 16):
                for key, m in enumerate_all(rho, iota):
                    assert classify(m) == key
                    assert matrix_from_eta(classify(m)) == m


def reference_slope_sums(m: RawMatrix) -> tuple[Fraction, Fraction]:
    """(m+, m-): the sums over the arms of the largest and of the smallest slope t/l of the full columns.

    A column (r1, r2, t) lies on the arm of its leading signs, with l = max(|r1|, |r2|).
    """
    arms: dict[tuple[int, int], list[Fraction]] = {}
    for r1, r2, t in zip(*FIRST_TWO_ROWS[m.rho], m.third_row):
        sign = ((r1 > 0) - (r1 < 0), (r2 > 0) - (r2 < 0))
        arms.setdefault(sign, []).append(Fraction(t, max(abs(r1), abs(r2))))
    return sum(map(max, arms.values())), sum(map(min, arms.values()))


def reference_canonicalize(m: RawMatrix) -> DefiningMatrix:
    """The orbit filter that validates each orbit element by name and counts the passing ones."""
    params = reduce_raw(m)
    passing = [p for p in sorted(parameter_orbit(m.rho, params)) if not validate(m.rho, *p)]
    if len(passing) == 1:
        return DefiningMatrix(m.rho, *passing[0])
    plus, minus = reference_slope_sums(m)
    where = f"(rho={m.rho}, reduced={params})"
    if passing or plus > 0 > minus:
        raise NormalFormError(f"expected exactly one normal form in the orbit, found {len(passing)} {where}")
    if plus <= 0:
        raise NormalFormError(f"x+ is not elliptic: m+ = {plus} <= 0 {where}")
    raise NormalFormError(f"x- is not elliptic: m- = {minus} >= 0 {where}")


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
def arbitrary_raw(draw, bound=12):
    """Any in-shape third row: entries up to about +-bound, odd where primitivity needs it."""
    rho = draw(st.sampled_from((1, 2, 3)))
    row = draw(st.lists(st.integers(-bound, bound), min_size=rho + 3, max_size=rho + 3))
    odd = {1: (2, 3), 2: (4,), 3: ()}[rho]
    return RawMatrix(rho, tuple(2 * x + 1 if j in odd else x for j, x in enumerate(row)))


class TestCanonicalizeEqualsReference:
    @given(scrambled_raw())
    def test_scrambled_and_corrupted(self, raw):
        assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)

    @given(arbitrary_raw())
    def test_arbitrary_rows(self, raw):
        assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)

    @given(st.one_of(scrambled_raw(), arbitrary_raw()))
    def test_reduction_equals_reference_ladder(self, raw):
        assert canon_outcome(reduce_raw, raw) == canon_outcome(reference_reduce_raw, raw)

    @given(st.one_of(arbitrary_raw(), arbitrary_raw(100)))
    def test_accepts_exactly_the_complete_fans(self, raw):
        accepted = not isinstance(canon_outcome(canonicalize, raw), str)
        assert accepted == is_complete_fan(raw), raw

    @given(st.one_of(scrambled_raw(), arbitrary_raw(), arbitrary_raw(100)))
    def test_every_refusal_names_its_reason(self, raw):
        """A refusal names two coinciding columns or the fixed point that is not elliptic."""
        outcome = canon_outcome(canonicalize, raw)
        if isinstance(outcome, str):
            assert _REFUSAL.fullmatch(outcome), outcome

    def test_no_normal_form_message(self):
        for raw, message in (
            (RawMatrix(1, (-3, -2, -3, -3)), "x+ is not elliptic: m+ = -5 <= 0 (rho=1, reduced=(-6, -7))"),
            (RawMatrix(3, (1, 2, 3, 4, 5, 6)), "x- is not elliptic: m- = 9 >= 0 (rho=3, reduced=(12, 11, -1, -1))"),
            (RawMatrix(2, (-5, -4, 0, -1, 1)), "x+ is not elliptic: m+ = -7/2 <= 0 (rho=2, reduced=(-4, -5, -1))"),
            (RawMatrix(2, (3, 1, 0, -1, 1)), "x- is not elliptic: m- = 1/2 >= 0 (rho=2, reduced=(3, 1, -1))"),
        ):
            with pytest.raises(NormalFormError) as info:
                canonicalize(raw)
            assert str(info.value) == message
            assert canon_outcome(canonicalize, raw) == canon_outcome(reference_canonicalize, raw)


_REFUSAL = re.compile(
    r"NormalFormError: (columns \d and \d coincide"
    r"|x\+ is not elliptic: m\+ = -?\d+(/2)? <= 0 \(rho=\d, reduced=\(.*\)\)"
    r"|x- is not elliptic: m- = \d+(/2)? >= 0 \(rho=\d, reduced=\(.*\)\))"
)


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


@pytest.mark.parametrize(
    "rho, params, message",
    [
        (4, (1, 2), "rho must be 1, 2 or 3, got 4"),
        (True, (1, 2), "rho must be 1, 2 or 3, got True"),
        (1.0, (1, 2), "rho must be 1, 2 or 3, got 1.0"),
        (1, (1, 2, 3), "rho=1 needs a tuple of 2 parameters, got (1, 2, 3)"),
        (3, (1, -3, -1), "rho=3 needs a tuple of 4 parameters, got (1, -3, -1)"),
        (2, [1, 0, -2], "rho=2 needs a tuple of 3 parameters, got [1, 0, -2]"),
        (3, (1.5, -3, -1, -1), "DefiningMatrix field 'a' must be an int, got 1.5"),
        (2, (1, 0, True), "DefiningMatrix field 'c' must be an int, got True"),
        (1, (0, "-2"), "DefiningMatrix field 'b' must be an int, got '-2'"),
    ],
)
def test_parameter_orbit_checks_its_arguments(rho, params, message):
    """Each bad argument is a ValueError naming it as validate does: no KeyError, unpacking error or float orbit."""
    with pytest.raises(ValueError) as info:
        parameter_orbit(rho, params)
    assert str(info.value) == message


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


def reference_reduce_raw(m: RawMatrix) -> tuple[int, ...]:
    """The row reduction written out per rho, one ladder branch each."""
    t = list(m.third_row)
    if m.rho == 1:
        k = (1 - t[2]) // 2
        l = (1 - t[3]) // 2
        a, b = t[0] - k - l, t[1] - k - l
        if a == b:
            raise NormalFormError("columns 1 and 2 coincide")
        return (max(a, b), min(a, b))
    if m.rho == 2:
        x = t[0] + t[2]
        y = t[1] + t[2]
        c = t[3] - t[2]
        l = (1 - t[4]) // 2
        x, y = x - l, y - l
        if c == 0:
            raise NormalFormError("columns 3 and 4 coincide")
        if c > 0:
            x, y, c = x + c, y + c, -c
        if x == y:
            raise NormalFormError("columns 1 and 2 coincide")
        return (max(x, y), min(x, y), c)
    x = t[0] + t[2] + t[4]
    y = t[1] + t[2] + t[4]
    c = t[3] - t[2]
    d = t[5] - t[4]
    if c == 0:
        raise NormalFormError("columns 3 and 4 coincide")
    if d == 0:
        raise NormalFormError("columns 5 and 6 coincide")
    if c > 0:
        x, y, c = x + c, y + c, -c
    if d > 0:
        x, y, d = x + d, y + d, -d
    if x == y:
        raise NormalFormError("columns 1 and 2 coincide")
    return (max(x, y), min(x, y), c, d)


def _cross(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def is_complete_fan(m: RawMatrix) -> bool:
    """Whether the columns of the full matrix are pairwise distinct and positively span Q^3.

    Integer arithmetic only.  The columns positively span exactly when no
    nonzero w has <w, v> >= 0 for every column v, that is, when the dual cone
    {w : <w, v> >= 0 for all columns v} is {0}.  That needs rank 3, and with
    rank 3 the dual cone is pointed: if it is not {0}, it has an extreme ray,
    and in three dimensions an extreme ray is orthogonal to two linearly
    independent columns, so it is spanned by their cross product.  Hence the
    columns positively span exactly when some cross product of two columns is
    nonzero and every nonzero one w has a column with <w, v> < 0 and a column
    with <w, v> > 0.  Below rank 3 there is no nonzero cross product, or each
    one is orthogonal to every column, and the test fails as it should.
    """
    r1, r2 = FIRST_TWO_ROWS[m.rho]
    cols = list(zip(r1, r2, m.third_row))
    if len(set(cols)) != len(cols):
        return False
    crosses = [w for i, u in enumerate(cols) for v in cols[i + 1:] if any(w := _cross(u, v))]
    return bool(crosses) and all(
        {-1, 1} <= {(p > 0) - (p < 0) for p in (sum(x * y for x, y in zip(w, v)) for v in cols)} for w in crosses
    )


def assert_checks_match_reference(rho, params):
    want = reference_violations(rho, *params)
    assert validate(rho, *params) == want, (rho, params)
    assert _HOLDS[rho](*params) is (not want), (rho, params)  # the orbit filter of canonicalize
    if want:  # the constructor refuses exactly the tuples the ladder fails, naming the failures
        with pytest.raises(ValueError) as info:
            DefiningMatrix(rho, *params)
        assert str(info.value) == f"matrix is not in normal form, violated: {', '.join(want)}", (rho, params)
    else:
        assert DefiningMatrix(rho, *params).params() == params


@given(st.integers(1, 3).flatmap(lambda rho: st.tuples(st.just(rho), st.tuples(*[_PARAM] * (rho + 1)))))
def test_checks_match_reference_ladder(case):
    assert_checks_match_reference(*case)


def test_checks_match_reference_ladder_on_orbits():
    """Every orbit image of every normal form with iota <= 12: one passes, the others fail."""
    for rho in (1, 2, 3):
        for m in _NORMAL_FORMS[rho]:
            for p in parameter_orbit(rho, m.params()):
                assert_checks_match_reference(rho, p)
