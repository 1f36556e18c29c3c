from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from fiqs import IntMatrix, SmithForm, enumerate_all, smith_normal_form, solve3
from fiqs.invariants import _solve_denominator
from fiqs.series import FIRST_TWO_ROWS


def det_by_permutation_expansion(m: IntMatrix) -> int:
    """Independent reference: sum over permutations of signed products."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m.entries[i * m.cols + perm[i]]
        total += sign * prod
    return total


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m.entries[i * m.cols + j] for j in cols] for i in rows])
            g = gcd(g, det_by_permutation_expansion(sub))
    return g


class TestFromRows:
    def test_keeps_int_entries(self):
        m = IntMatrix.from_rows([[1, -2, 0], [3, 4, 5]])
        assert (m.rows, m.cols, m.entries) == (2, 3, (1, -2, 0, 3, 4, 5))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1.5, 0], [0, "3"]], "entry 1 of row 1 must be an int, got 1.5"),
            ([[1, 0], [0, "3"]], "entry 2 of row 2 must be an int, got '3'"),
            ([[2.9, 0], [0, 4]], "entry 1 of row 1 must be an int, got 2.9"),
            ([[1, 0, Fraction(1, 2)]], "entry 3 of row 1 must be an int, got Fraction(1, 2)"),
        ],
    )
    def test_non_int_entries_rejected(self, rows, message):
        with pytest.raises(ValueError) as info:
            smith_normal_form(IntMatrix.from_rows(rows))
        assert str(info.value) == message


@pytest.mark.parametrize(
    "shape, entries, message",
    [
        ((2, 2), (2.9, 0, 0, 4), "entry 1 of row 1 must be an int, got 2.9"),
        ((2, 2), (1, 0, 0, "3"), "entry 2 of row 2 must be an int, got '3'"),
        ((3, 3), (1, 0, 0, 0, 1.0, 0, 0, 0, 1), "entry 2 of row 2 must be an int, got 1.0"),
    ],
)
def test_direct_construction_rejects_non_int_entries(shape, entries, message):
    """The entry check sits in the constructor, so the oracles' direct builds get it too."""
    with pytest.raises(ValueError) as info:
        IntMatrix(*shape, entries)
    assert str(info.value) == message


class TestRow:
    def test_rows_in_range(self):
        m = IntMatrix(2, 3, (1, 2, 3, 4, 5, 6))
        assert [m.row(0), m.row(1)] == [(1, 2, 3), (4, 5, 6)]
        assert IntMatrix(2, 0, ()).row(1) == ()

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_row_out_of_range_is_named(self, i):
        with pytest.raises(IndexError) as info:
            IntMatrix(2, 2, (1, 2, 3, 4)).row(i)
        assert str(info.value) == f"row {i} of a matrix with 2 rows"


def reference_smith_normal_form(m: IntMatrix) -> SmithForm:
    """``smith_normal_form`` with a pivot scan over the whole trailing block, even after a unit entry."""
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    n = min(nr, nc)
    factors: list[int] = []
    for t in range(n):
        while True:
            pos = None
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    v = abs(a[i][j])
                    if v != 0 and (best is None or v < best):
                        best = v
                        pos = (i, j)
            if pos is None:
                factors.extend([0] * (n - t))
                return SmithForm(tuple(factors), len([f for f in factors if f != 0]))
            pi, pj = pos
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] % p != 0:
                    q = a[i][t] // p
                    for j in range(t, nc):
                        a[i][j] -= q * a[t][j]
                    dirty = True
            for j in range(t + 1, nc):
                if a[t][j] % p != 0:
                    q = a[t][j] // p
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
                    dirty = True
            if dirty:
                continue
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    for j in range(t, nc):
                        a[i][j] -= q * a[t][j]
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    for i in range(t, nr):
                        a[i][j] -= q * a[i][t]
            culprit = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % p != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            for j in range(t, nc):
                a[t][j] += a[culprit][j]
        factors.append(abs(a[t][t]))
    return SmithForm(tuple(factors), len([f for f in factors if f != 0]))


_NON_UNITS = st.integers(-30, 30).filter(lambda x: abs(x) != 1)


@st.composite
def int_matrices(draw) -> IntMatrix:
    """Matrices up to 4 x 5 with small entries: arbitrary, zero, scaled, unitless, late unit, or of low rank.

    A scaled matrix has entries that are multiples of some d in 2..6 but for one, prime to d and larger,
    so the smallest entry is a non-unit pivot that leaves remainders or fails the divisibility chain.  A
    unitless matrix has no entry ±1, so any unit pivot appears only after an elimination step; a late-unit
    matrix is a unitless one with a ±1 only in its last row or its last column.  A low-rank matrix has
    rank below min(rows, cols).
    """
    nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["any", "zero", "scaled", "unitless", "late unit", "low rank"]))
    if kind == "zero":
        return IntMatrix(nr, nc, (0,) * (nr * nc))
    if kind in ("unitless", "late unit"):
        entries = draw(st.lists(_NON_UNITS, min_size=nr * nc, max_size=nr * nc))
        if kind == "late unit" and entries:
            last_row = [(nr - 1) * nc + j for j in range(nc)]
            last_col = [i * nc + nc - 1 for i in range(nr)]
            entries[draw(st.sampled_from(draw(st.sampled_from([last_row, last_col]))))] = draw(st.sampled_from([-1, 1]))
        return IntMatrix(nr, nc, tuple(entries))
    if kind == "any":
        return IntMatrix(nr, nc, tuple(draw(st.lists(st.integers(-30, 30), min_size=nr * nc, max_size=nr * nc))))
    if kind == "scaled":
        d = draw(st.integers(2, 6))
        entries = [d * x for x in draw(st.lists(st.integers(-6, 6), min_size=nr * nc, max_size=nr * nc))]
        if entries:
            r = draw(st.sampled_from([r for r in range(1, d) if gcd(r, d) == 1]))
            prime = draw(st.sampled_from([-1, 1])) * (d * draw(st.integers(1, 6)) + r)
            entries[draw(st.integers(0, len(entries) - 1))] = prime
        return IntMatrix(nr, nc, tuple(entries))
    k = draw(st.integers(0, max(0, min(nr, nc) - 1)))
    u = draw(st.lists(st.integers(-6, 6), min_size=nr * k, max_size=nr * k))
    v = draw(st.lists(st.integers(-6, 6), min_size=k * nc, max_size=k * nc))
    product = (sum(u[i * k + x] * v[x * nc + j] for x in range(k)) for i in range(nr) for j in range(nc))
    return IntMatrix(nr, nc, tuple(product))


class TestSmith:
    @given(int_matrices())
    @example(IntMatrix(0, 3, ()))
    @example(IntMatrix(3, 0, ()))
    @example(IntMatrix(2, 3, (0,) * 6))
    @example(IntMatrix.from_rows([[2, 4, 6], [1, 2, 3], [3, 6, 9]]))
    @example(IntMatrix.from_rows([[-1, -1, 0, 2], [-1, -1, 2, 0], [4, 0, 1, 1]]))
    @example(IntMatrix.from_rows([[4, 6], [8, 4]]))  # remainders in the pivot's row
    @example(IntMatrix.from_rows([[6, 9], [4, 2]]))  # remainders in the pivot's column
    @example(IntMatrix.from_rows([[2, 0], [0, 3]]))  # the divisibility chain fails
    @example(IntMatrix.from_rows([[2, 4, 6], [4, 6, 8], [6, 9, -1]]))  # a unit only in the last row
    @example(IntMatrix.from_rows([[4, 6, 1], [6, 8, 10], [10, 12, 14]]))  # a unit only in the last column
    @example(IntMatrix.from_rows([[2, 3], [4, 9]]))  # the unit 3 mod 2 appears after a step
    @example(IntMatrix.from_rows([[3, 5, 7], [6, 4, 2]]))  # no unit until the remainders
    @example(IntMatrix.from_rows([[1, 0, 0, 0], [0, 2, 4, 6]]))  # a 1 x 3 remainder
    @example(IntMatrix.from_rows([[1, 0], [0, 2], [0, 4], [0, 6]]))  # a 3 x 1 remainder
    @example(IntMatrix.from_rows([[1, 1, 1], [1, 2, 3], [4, 6, 10]]))  # units clear to a 1 x 1 remainder
    @example(IntMatrix.from_rows([[6, 10, 15], [10, 15, 6]]))  # no unit at all: the factors are 1, 1
    @example(IntMatrix.from_rows([[2, 4], [6, 8]]))  # no unit, no unit factor
    def test_unit_pivot_scan_matches_full_scan(self, m):
        """The elimination gives the reference's Smith form; the reference scans the whole block, clearing entrywise."""
        assert smith_normal_form(m) == reference_smith_normal_form(m)

    def test_defining_matrices_match_full_scan(self):
        """On P of every surface with iota <= 12, the factors the class group oracle reads are the reference's."""
        matrices = 0
        for rho in (1, 2, 3):
            r1, r2 = FIRST_TWO_ROWS[rho]
            for iota in range(1, 13):
                for _, dm in enumerate_all(rho, iota):
                    m = IntMatrix(3, rho + 3, (*r1, *r2, *dm.third_row()))
                    assert smith_normal_form(m) == reference_smith_normal_form(m), dm
                    matrices += 1
        assert matrices == 2875

    def test_zero_matrix(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert snf.invariant_factors == (0, 0)
        assert snf.rank == 0

    def test_already_diagonal(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 6]]))
        assert snf.invariant_factors == (2, 6)

    def test_class_group_presentation(self):
        # P^T for rho=1, (a, b) = (0, -2): cokernel Z^4/im(P^T) = Z x Z/4
        p_t = IntMatrix.from_rows([[-1, -1, 0], [-1, -1, -2], [2, 0, 1], [0, 2, 1]])
        snf = smith_normal_form(p_t)
        assert snf.invariant_factors == (1, 1, 4)
        assert snf.rank == 3

    def test_divisibility_chain_enforced(self):
        with pytest.raises(ValueError):
            SmithForm((2, 3), 2)
        with pytest.raises(ValueError):
            SmithForm((0, 2), 1)

    def test_random_matrices_against_minor_gcds(self):
        # d1 * ... * dk equals the gcd of all k x k minors
        rng = random.Random(11)
        for _ in range(120):
            nr, nc = rng.choice([(3, 3), (4, 3), (3, 4), (2, 3)])
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            )
            snf = smith_normal_form(m)
            fac = snf.invariant_factors
            for x, y in zip(fac, fac[1:]):
                assert (x == 0 and y == 0) or y % x == 0
            prod = 1
            for k, f in enumerate(fac, start=1):
                prod *= f
                assert prod == minors_gcd(m, k)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(13)
        for _ in range(60):
            nr, nc = rng.choice([(3, 3), (4, 3), (5, 3)])
            rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
            ours = smith_normal_form(IntMatrix.from_rows(rows))
            theirs = [int(f) for f in invariant_factors(sympy.Matrix(rows))]
            nonzero = [f for f in ours.invariant_factors if f != 0]
            assert nonzero == [abs(f) for f in theirs if f != 0]


class TestSolve3:
    def test_identity(self):
        m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert solve3(m, (1, 2, 3)) == (1, 2, 3)

    def test_cartier_form_at_x_plus(self):
        # rho=1, a=0: the anticanonical form on sigma+ is already integral
        m = IntMatrix.from_rows([[-1, 2, 0], [-1, 0, 2], [0, 1, 1]])
        assert solve3(m, (0, 1, 1)) == (0, 0, 1)

    def test_cartier_form_at_x_minus(self):
        # rho=1, b=-2: integral solution, so the local index is 1
        m = IntMatrix.from_rows([[-1, 2, 0], [-1, 0, 2], [-2, 1, 1]])
        u = solve3(m, (0, 1, 1))
        assert all(f.denominator == 1 for f in u)
        for j in range(3):
            col = [m.entries[i * m.cols + j] for i in range(m.rows)]
            assert sum(ui * vi for ui, vi in zip(u, col)) == (0, 1, 1)[j]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            solve3(IntMatrix.from_rows([[1, 1, 1], [1, 1, 1], [0, 0, 1]]), (1, 1, 1))

    @given(
        st.lists(st.integers(-9, 9), min_size=9, max_size=9),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_substitution_recovers_rhs(self, entries, rhs):
        m = IntMatrix(3, 3, tuple(entries))
        if det_by_permutation_expansion(m) == 0:
            return
        u = solve3(m, rhs)
        for j in range(3):
            col = [m.entries[i * m.cols + j] for i in range(m.rows)]
            assert sum(ui * vi for ui, vi in zip(u, col)) == rhs[j]

    @given(
        st.lists(st.integers(-50, 50), min_size=9, max_size=9),
        st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)),
    )
    def test_against_sympy(self, entries, rhs):
        sympy = pytest.importorskip("sympy")
        m = IntMatrix(3, 3, tuple(entries))
        if det_by_permutation_expansion(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                solve3(m, rhs)
            return
        theirs = sympy.Matrix(3, 3, entries).T.LUsolve(sympy.Matrix(rhs))
        assert solve3(m, rhs) == tuple(Fraction(int(q.p), int(q.q)) for q in theirs)

    def test_shape_and_length_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            solve3(IntMatrix.from_rows([[1, 0], [0, 1]]), (1, 1, 1))
        with pytest.raises(ValueError, match="3x3"):
            solve3(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), (1, 1, 1))
        with pytest.raises(ValueError, match="length 3"):
            solve3(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (1, 1))

    @pytest.mark.parametrize(
        "rhs, message",
        [
            ((0.5, 1, 1), "entry 1 of row 1 must be an int, got 0.5"),
            ((0, 1, True), "entry 3 of row 1 must be an int, got True"),
            ([0, Fraction(1), 1], "entry 2 of row 1 must be an int, got Fraction(1, 1)"),
            (5, "'int' object is not iterable"),
            ((1, 1, 1, 1), "expected 3 entries, got 4"),
        ],
    )
    def test_bad_rhs_is_named(self, rhs, message):
        """A rhs that is not three ints is a ValueError naming the entry, never arithmetic in floats."""
        with pytest.raises(ValueError) as info:
            solve3(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), rhs)
        assert str(info.value) == f"rhs must be a sequence of length 3 of ints: {message}"

    @given(
        st.lists(st.integers(-9, 9) | st.integers(-(10**6), 10**6), min_size=9, max_size=9),
        st.tuples(*[st.integers(-9, 9) | st.integers(-(10**6), 10**6)] * 3),
    )
    @example([1, 0, 0, 0, 1, 0, 0, 0, 1], (0, 1, 1))
    @example([-1, 2, 0, -1, 0, 2, 4, 1, 1], (0, 1, 1))
    @example([2, 0, 0, 0, 4, 0, 0, 0, 6], (0, 0, 0))
    def test_denominator_only_index_equals_the_fraction_lcm(self, entries, rhs):
        """``_solve_denominator`` (|det| over one gcd) equals the lcm of solve3's reduced denominators.

        Each draw is solved as drawn and with two rows swapped, so each sign of the determinant is seen.
        """
        for rows in (entries, entries[3:6] + entries[:3] + entries[6:]):
            m = IntMatrix(3, 3, tuple(rows))
            if det_by_permutation_expansion(m) == 0:
                return
            want = lcm(*(u.denominator for u in solve3(m, rhs)))
            assert _solve_denominator(m.entries, rhs) == want


_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


class TestRationalArithmetic:
    @given(_fractions, _fractions)
    def test_add_sub_roundtrip(self, x, y):
        assert (x + y) - y == x

    @given(_fractions)
    def test_multiplicative_inverse(self, x):
        if x != 0:
            assert x * (1 / x) == 1

    @given(_fractions, _fractions)
    def test_total_order(self, x, y):
        assert (x < y) + (x == y) + (x > y) == 1

    def test_stored_reduced_with_positive_denominator(self):
        q = Fraction(6, -4)
        assert q.numerator == -3 and q.denominator == 2

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / 0
