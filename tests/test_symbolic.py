"""Closed forms of the census proved symbolically, one residue class at a time.

A block (series, iota+, iota-) of rho = 3 with s = w+ iota+ + w- iota- holds
the partitions of s into three parts, x0 >= x1 >= x2 >= 1 with x0 = s + c + d,
x1 = -c and x2 = -d, and its Kaehler-Einstein surfaces are those parts that
are the sides of a triangle, x0 < x1 + x2 (with s = 2t even, x1 + x2 > t).
Counted over x = x1, the number of x2 is linear in x on two pieces whose
bounds are floors of s / q.  On a residue class s = 6k + r every such floor
is linear in k, so sympy sums each piece in closed form, and the counting
code, run on the same class, must equal that sum as a polynomial in k.

The code runs on :class:`KPoly`, an integer polynomial in k whose ``//`` and
``%`` are exact when the divisor divides every coefficient but the constant
one, so the test proves the expressions of ``fiqs.census`` themselves, not a
copy.  A sum over lo..hi is the polynomial sympy gives only when
hi >= lo - 1, which each piece checks for every k >= 1; k = 0 and the split
into pieces are checked against the partitions themselves on small values.

The degree has two forms: the series form n+/(d iota+) + n-/(d iota-), with
the numerators of ``_DEGREE_NUMERATORS`` and d = 2 for rho = 2, else 1, and
the matrix form p (o+ + o-) / (q o+ o-) of ``_ORDER_FORMS`` in the local
orders o+- = w+- iota+- of ``_WEIGHTS``.  Per series, sympy proves the two
equal as rational functions of iota+ and iota-, so the verify claim that
compares them holds at every index, not only at the indices it runs.

The Kaehler-Einstein family rule reads the normal form: a + b = -2 for
rho = 1, a + b + c + d = 0 and b > 0 for rho = 3.  With the parameters of
``matrix_from_eta`` in the local orders o+- and c, d as symbols, sympy
proves a + b + 2 = (o+ - o-) / 4 and a + b + c + d = o+ - o-, and on the
slice o+ = o- that x1 + x2 - x0 = 2b for the interior orders (a - b, -c, -d).
So the rule is o+ = o- and, for rho = 3, the triangle inequality
x0 < x1 + x2, which is the rule in the key (o+ = o-, c + d < -o+) at every
index.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from fiqs.census import _cd_count, _count_ke, _triangle_count
from fiqs.invariants import _DEGREE_NUMERATORS, _ORDER_FORMS, _orders, degree, degree_from_eta
from fiqs.kaehler import _ke_rule
from fiqs.series import _WEIGHTS, SERIES_IDS, SERIES_TAGS, enumerate_eta, matrix_from_eta

sympy = pytest.importorskip("sympy")

k, x = sympy.symbols("k x", integer=True)


class KPoly:
    """An integer polynomial in k, closed under the arithmetic of the counting code."""

    def __init__(self, expr):
        self.expr = sympy.expand(expr)

    def __add__(self, other):
        return KPoly(self.expr + _expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return KPoly(self.expr - _expr(other))

    def __rsub__(self, other):
        return KPoly(_expr(other) - self.expr)

    def __mul__(self, other):
        return KPoly(self.expr * _expr(other))

    __rmul__ = __mul__

    def _split(self, q: int):
        """(self - constant) / q and the constant; q must divide every other coefficient."""
        const = int(self.expr.coeff(k, 0))
        rest = self.expr - const
        assert all(int(coeff) % q == 0 for coeff in sympy.Poly(rest, k).coeffs()), (self.expr, q)
        return rest / q, const

    def __floordiv__(self, q: int):
        rest, const = self._split(q)
        return KPoly(rest + const // q)

    def __mod__(self, q: int) -> int:
        return self._split(q)[1] % q


def _expr(value):
    return value.expr if isinstance(value, KPoly) else value


def symbolic_sum(term, lo, hi):
    """Sum of term(x) over lo <= x <= hi for every k >= 1, where hi - lo + 1 is linear in k and not negative."""
    width = sympy.expand(_expr(hi) - _expr(lo) + 1)
    slope, const = int(width.coeff(k, 1)), int(width.coeff(k, 0))
    assert slope >= 0 and slope + const >= 0, (lo, hi)
    return sympy.summation(_expr(term(x)), (x, _expr(lo), _expr(hi)))


def integer_sum(term, lo, hi):
    return sum(term(v) for v in range(lo, hi + 1))


def partition_pieces(s, total):
    """#{(x1, x2) : 1 <= x2 <= x1 <= s - x1 - x2}, the partitions of s into three parts, as two sums over x1.

    Up to s/3, x2 <= x1 is the tighter bound; above it x2 <= s - 2 x1, which is
    at least 1 while x1 <= (s - 1)/2.
    """
    third = s // 3
    return total(lambda v: v, 1, third) + total(lambda v: s - 2 * v, third + 1, (s - 1) // 2)


def triangle_pieces(t, total):
    """The partitions of s = 2t into three parts with x1 + x2 >= t + 1 (a triangle), as two sums over x1.

    x2 runs from t + 1 - x1 to min(x1, 2t - 2 x1): up to 2t/3 that is 2 x1 - t
    values, at least 1 from x1 = t // 2 + 1; above 2t/3 it is t - x1 values,
    at least 1 while x1 <= t - 1.
    """
    third = 2 * t // 3
    return total(lambda v: 2 * v - t, t // 2 + 1, third) + total(lambda v: t - v, third + 1, t - 1)


def partitions(s):
    return [(s - x1 - x2, x1, x2) for x1 in range(1, s) for x2 in range(1, x1 + 1) if s - x1 - x2 >= x1]


def triangles(s):
    return [p for p in partitions(s) if p[0] < p[1] + p[2]]


def test_pieces_count_partitions_and_triangles():
    for s in range(0, 61):
        assert partition_pieces(s, integer_sum) == len(partitions(s)) == _cd_count(s), s
    for t in range(0, 31):
        assert triangle_pieces(t, integer_sum) == len(triangles(2 * t)) == _triangle_count(2 * t), t


@pytest.mark.parametrize("r", range(6))
def test_cd_count_is_round_s2_over_12(r):
    s = KPoly(6 * k + r)
    assert sympy.expand(_cd_count(s).expr - partition_pieces(s, symbolic_sum)) == 0


@pytest.mark.parametrize("r", range(6))
def test_triangle_count_is_round_s2_over_48(r):
    t = KPoly(6 * k + r)
    assert sympy.expand(_triangle_count(2 * t).expr - triangle_pieces(t, symbolic_sum)) == 0


@pytest.mark.parametrize("r", range(6))
def test_count_ke_is_the_s11_and_s22_triangles(r):
    """count_ke(3, iota) counts the KE blocks s11 (iota odd, s = 2 iota) and s22 (s = 4 iota) at iota+ = iota- = iota."""
    iota = KPoly(6 * k + r)
    s11 = triangle_pieces(iota, symbolic_sum) if r % 2 == 1 else 0
    assert sympy.expand(_count_ke(3, iota).expr - s11 - triangle_pieces(2 * iota, symbolic_sum)) == 0


def test_kpoly_refuses_an_inexact_floor():
    with pytest.raises(AssertionError):
        KPoly(3 * k + 1) // 2


iota_plus, iota_minus = sympy.symbols("iota_plus iota_minus", positive=True, integer=True)


def series_degree(rho, tag, ip, im):
    """n+/(d iota+) + n-/(d iota-), the numerators by the tag's digits, d = 2 for rho = 2, else 1."""
    d = 2 if rho == 2 else 1
    numerators = _DEGREE_NUMERATORS[rho]
    return sympy.Rational(numerators[tag[1]], d) / ip + sympy.Rational(numerators[tag[2]], d) / im


def matrix_degree(rho, op, om):
    """p (o+ + o-) / (q o+ o-), with (p, q) of _ORDER_FORMS."""
    p, q = _ORDER_FORMS[rho][:2]
    return sympy.Integer(p) * (op + om) / (q * op * om)


def _fraction(value):
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("rho, tag", [(rho, tag) for rho in (1, 2, 3) for tag in SERIES_TAGS])
def test_degree_series_form_is_matrix_form(rho, tag):
    """One rational identity per series in iota+ and iota-; each side is tied to the code on the members of iota <= 12."""
    wp, wm = _WEIGHTS[rho][tag]
    series_form = series_degree(rho, tag, iota_plus, iota_minus)
    assert sympy.cancel(series_form - matrix_degree(rho, wp * iota_plus, wm * iota_minus)) == 0
    members = [key for iota in range(1, 13) for key in enumerate_eta(SERIES_IDS[rho, tag], iota)]
    assert members
    for key in members:
        m = matrix_from_eta(key)
        op, om = _orders(m)[:2]
        assert (op, om) == (wp * key.iota_plus, wm * key.iota_minus), key
        at_key = {iota_plus: key.iota_plus, iota_minus: key.iota_minus}
        assert _fraction(series_form.subs(at_key)) == degree_from_eta(key), key
        assert _fraction(matrix_degree(rho, op, om)) == degree(m), key


o_plus, o_minus, c_sym, d_sym = sympy.symbols("o_plus o_minus c d", integer=True)

# The parameters (a, b) of matrix_from_eta in the local orders o+- of x+- and c, d, for rho = 1 and 3.
_KE_PARAMS = {1: (o_plus / 4 - 1, -o_minus / 4 - 1), 3: (o_plus, -o_minus - c_sym - d_sym)}


def test_ke_rule_in_the_normal_form_is_the_rule_in_the_orders():
    """Each identity holds as a polynomial; the parameters are tied to matrix_from_eta on the members of iota <= 12."""
    a, b = _KE_PARAMS[1]
    assert sympy.expand(a + b + 2 - (o_plus - o_minus) / 4) == 0
    a, b = _KE_PARAMS[3]
    assert sympy.expand(a + b + c_sym + d_sym - (o_plus - o_minus)) == 0
    x0, x1, x2 = a - b, -c_sym, -d_sym
    assert sympy.expand((x1 + x2 - x0 - 2 * b).subs(o_plus, o_minus)) == 0
    for rho in (1, 3):
        ke = 0
        for tag in SERIES_TAGS:
            wp, wm = _WEIGHTS[rho][tag]
            for key in (key for iota in range(1, 13) for key in enumerate_eta(SERIES_IDS[rho, tag], iota)):
                m, op, om = matrix_from_eta(key), wp * key.iota_plus, wm * key.iota_minus
                at_key = {o_plus: op, o_minus: om, c_sym: key.c or 0, d_sym: key.d or 0}
                assert (m.a, m.b) == tuple(value.subs(at_key) for value in _KE_PARAMS[rho]), key
                assert _ke_rule(m) == (op == om and (rho == 1 or key.c + key.d < -op)), key
                ke += _ke_rule(m)
        assert ke > 0
