"""Kaehler-Einstein existence via the barycenter criterion.

A surface admits a Kaehler-Einstein metric if and only if, for every
special toric degeneration kappa, the barycenter b_kappa of the moment
polytope satisfies b_kappa = (0, y) with y > 0.  The special kappa are
fixed per Picard number: {1, 2} for rho=1 (with identical polygons),
{2} for rho=2 and {0, 1, 2} for rho=3.

The moment polytope is the dual { u : <u, v> >= -1 for all v } of the
degeneration's Fano polygon, whose integral vertices are written down in
:func:`degeneration_polygon`.  The closed forms, obtained by carrying out
the dual-centroid computation symbolically, exist once, in
``_barycenter_terms``: per special kappa, (kappa, x_num, x_den, y_num,
y_den) as unreduced ints, whose denominators are negative on a normal form.
:func:`barycenters` makes them ``Fraction``s; the criterion (``_ke_criterion``)
reads the integers, x = 0 as x_num == 0 and y > 0 as y_num and y_den of one
sign, so ``verify_claims`` builds no ``Fraction`` per surface for the
closed forms: it evaluates the terms once per surface for both the
criterion and the comparison with the polygons, the latter by
cross-multiplication.  :func:`barycenter_oracle` redoes the computation
from the polygon in integer homogeneous coordinates, exact, so the two
paths check each other; it never reads the closed forms.  The oracle reads
the matrix only through :func:`degeneration_polygon`, so its value is a
function of the polygon's vertices alone, and ``verify_claims`` evaluates it
once per distinct polygon of a Gorenstein index.  No function here checks
its matrix: a :class:`~fiqs.series.DefiningMatrix` is a normal form when it
is made.  The public :func:`dual_polygon` and :func:`polygon_centroid` check
their vertices; the oracle's come from :func:`degeneration_polygon`.

At the family level the criterion collapses to a rule in the normal form:
no rho=2 surface is Kaehler-Einstein (its single barycenter lies on the
line y = x/2, so y > 0 forces x != 0), and for rho=1, 3 exactly the members
with equal local orders o+ = o- at x+ and x- (s11 and s22 with
iota+ = iota-) and, for rho=3, a positive b survive.  In the matrix,
a + b + 2 = (o+ - o-) / 4 at rho=1 and a + b + c + d = o+ - o- at rho=3.  At
rho=3 the interior local orders (x0, x1, x2) = (a - b, -c, -d) are a
partition of s = o+ + o- into three parts, and on the slice
a + b + c + d = 0 the difference x1 + x2 - x0 is 2b, so b > 0 is the
triangle inequality: the KE surfaces of such a block are the integer
triangles of perimeter s, round(s^2 / 48) of them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable

from .core import IntMatrix, value_class
from .series import DefiningMatrix, SeriesKey, _check_kappa, matrix_from_eta

__all__ = [
    "SPECIAL_KAPPAS",
    "Barycenter",
    "degeneration_polygon",
    "dual_polygon",
    "polygon_centroid",
    "barycenter_oracle",
    "barycenters",
    "is_ke_oracle",
    "is_ke_family",
]

SPECIAL_KAPPAS: dict[int, tuple[int, ...]] = {1: (1, 2), 2: (2,), 3: (0, 1, 2)}


@value_class
class Barycenter:
    """Moment-polytope barycenter of the special degeneration kappa."""

    kappa: int
    x: Fraction
    y: Fraction


def degeneration_polygon(m: DefiningMatrix, kappa: int) -> tuple[tuple[int, int], ...]:
    """Vertices of the Fano polygon of the degeneration kappa (debug/oracle).

    Degeneration kappa merges the two arms other than arm kappa into one
    row of vertices, with the slopes of arm kappa on the opposite row.
    ValueError if kappa is not special (an int: True is not 1).
    """
    _check_kappa(m.rho, kappa, SPECIAL_KAPPAS[m.rho])
    a, b = m.a, m.b
    if m.rho == 1:
        return ((1, -2), (1 + 2 * a, 2), (1 + 2 * b, 2))
    if m.rho == 2:
        return ((1, -2), (a, 1), (b + m.c, 1))
    c, d = m.c, m.d
    if kappa == 0:
        return ((0, 1), (c + d, 1), (b, -1), (a, -1))
    if kappa == 1:
        return ((a, 1), (b + d, 1), (c, -1), (0, -1))
    return ((a, 1), (b + c, 1), (d, -1), (0, -1))


def _half_hull(points: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """One chain of the monotone-chain hull: the points kept by left turns only."""
    chain: list[tuple[int, int]] = []
    for x, y in points:
        while len(chain) >= 2:
            (ox, oy), (px, py) = chain[-2], chain[-1]
            if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                break
            chain.pop()
        chain.append((x, y))
    return chain


def _hull_ccw(points: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Counterclockwise convex hull (monotone chain) of distinct lattice points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 distinct vertices")
    return _half_hull(pts)[:-1] + _half_hull(reversed(pts))[:-1]


def _dual_homogeneous(vertices: tuple[tuple[int, int], ...]) -> list[tuple[int, int, int]]:
    """Dual vertices as integer triples (p, q, det), each standing for (p/det, q/det).

    The dual vertex of the hull edge from (x1, y1) to (x2, y2) is
    (y1 - y2, x2 - x1) / det with det = x1*y2 - x2*y1, which is positive
    exactly when the origin lies strictly left of the edge.
    """
    hull = _hull_ccw(vertices)
    out: list[tuple[int, int, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:] + hull[:1]):
        det = x1 * y2 - x2 * y1
        if det <= 0:
            raise ValueError("origin is not in the interior of the polygon")
        out.append((y1 - y2, x2 - x1, det))
    # <u, v> >= -1 for every dual vertex u and hull vertex v, times det > 0
    for p, q, det in out:
        for vx, vy in hull:
            if p * vx + q * vy < -det:
                raise ValueError("dual vertex computation is inconsistent")
    return out


def _centroid_homogeneous(vertices: list[tuple[int, int, int]]) -> tuple[Fraction, Fraction]:
    """Area centroid of a polygon whose vertices are triples (p, q, den), den > 0.

    The vertices are put over the lcm L of their denominators, so the
    shoelace sums run on integers: the centroid is (cx, cy) / (3 * area2 * L).
    """
    big = lcm(*(den for _, _, den in vertices))
    pts = [(p * (big // den), q * (big // den)) for p, q, den in vertices]
    area2 = cx = cy = 0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        w = x1 * y2 - x2 * y1
        area2 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if area2 == 0:
        raise ValueError("degenerate polygon")
    den = 3 * area2 * big
    return Fraction(cx, den), Fraction(cy, den)


def dual_polygon(vertices: tuple[tuple[int, int], ...]) -> list[tuple[Fraction, Fraction]]:
    """Vertices of { u : <u, v> >= -1 for all v }, for a polygon with 0 inside.

    ValueError naming the first vertex that is not a pair of ints (a bool is not an int).
    """
    pairs = []
    for k, v in enumerate(vertices, 1):
        try:
            pairs.append(IntMatrix(1, 2, tuple(v)).entries)  # its constructor checks the pair and its ints
        except (TypeError, ValueError):
            raise ValueError(f"vertex {k} must be a pair of ints, got {v!r}") from None
    return [(Fraction(p, det), Fraction(q, det)) for p, q, det in _dual_homogeneous(tuple(pairs))]


def polygon_centroid(vertices: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact area centroid of a polygon given by vertices in boundary order.

    ValueError naming the first vertex that is not a pair of rationals, ints or ``Fraction``s (a bool is neither).
    """
    triples = []
    for k, v in enumerate(vertices, 1):
        try:
            x, y = v
        except (TypeError, ValueError):
            x = y = None
        if not (isinstance(x, Rational) and isinstance(y, Rational)) or type(x) is bool or type(y) is bool:
            raise ValueError(f"vertex {k} must be a pair of rationals, got {v!r}")
        den = lcm(x.denominator, y.denominator)
        triples.append((x.numerator * (den // x.denominator), y.numerator * (den // y.denominator), den))
    return _centroid_homogeneous(triples)


def barycenter_oracle(m: DefiningMatrix, kappa: int) -> tuple[Fraction, Fraction]:
    """Barycenter recomputed from the polygon: dual, then centroid.

    Integer homogeneous coordinates, exact; a single ``Fraction`` per final
    coordinate.  Independent of the closed forms of :func:`barycenters`.
    """
    return _centroid_homogeneous(_dual_homogeneous(degeneration_polygon(m, kappa)))


def _barycenter_terms(m: DefiningMatrix) -> list[tuple[int, int, int, int, int]]:
    """(kappa, x_num, x_den, y_num, y_den) of each special kappa: the closed forms, the only copy, as unreduced ints.

    The barycenter is (x_num / x_den, y_num / y_den).  On a normal form every
    denominator is negative, hence nonzero: 3(1+a)(1+b) with a >= 0 >= b + 2
    at rho=1, (2a+1)(2b+2c+1) with b + c <= -1 at rho=2, and 3as and
    3s(a-s) with a > 0 > s = b+c+d at rho=3.  No sign is normalised, so a
    sign is read off a numerator and its denominator together.
    """
    a, b = m.a, m.b
    if m.rho == 1:
        den = 3 * (1 + a) * (1 + b)
        term = (-(a + b + 2), den, a * b - 1, 2 * den)
        return [(1, *term), (2, *term)]
    if m.rho == 2:
        x_num, x_den = -2 * (a + b + m.c + 1), (2 * a + 1) * (2 * b + 2 * m.c + 1)
        return [(2, x_num, x_den, x_num, 2 * x_den)]
    c, d = m.c, m.d
    s = b + c + d
    x_num, x_den, den, ss = -2 * (a + s), 3 * a * s, 3 * s * (a - s), s * s
    return [
        (0, x_num, x_den, ss - a * (b - c - d), den),
        (1, x_num, x_den, a * (b - c + d) - ss, den),
        (2, x_num, x_den, a * (b + c - d) - ss, den),
    ]


def barycenters(m: DefiningMatrix) -> list[Barycenter]:
    """Closed-form barycenters for the special degenerations of the matrix: the terms as ``Fraction``s."""
    return [Barycenter(kappa, Fraction(x_num, x_den), Fraction(y_num, y_den))
            for kappa, x_num, x_den, y_num, y_den in _barycenter_terms(m)]


def _ke_criterion(terms: list[tuple[int, int, int, int, int]]) -> bool:
    """The barycenter criterion on :func:`_barycenter_terms`: x = 0 and y > 0 for every special kappa.

    x = 0 is x_num == 0; y > 0 is y_num nonzero and of the sign of y_den (a product of nonzero ints is positive).
    """
    return all(x_num == 0 and y_num * y_den > 0 for _, x_num, _, y_num, y_den in terms)


def is_ke_oracle(m: DefiningMatrix) -> bool:
    """Kaehler-Einstein criterion applied to the closed-form barycenters (:func:`_barycenter_terms`).

    True when x = 0 and y > 0 for every special kappa.  The closed forms are
    tied to the geometry by comparing them with :func:`barycenter_oracle`
    (``verify_claims`` does so up to its polygon claim's index cap, on the
    same evaluation of the closed forms that it tests with the criterion).
    """
    return _ke_criterion(_barycenter_terms(m))


def is_ke_family(key: SeriesKey) -> bool:
    """Kaehler-Einstein existence at the family level: :func:`_ke_rule` of the key's matrix.

    rho=1: s11/s22 with iota+ = iota-.  rho=2: never.  rho=3: s11/s22 with
    iota+ = iota- and b > 0.  ValueError if the key is not a series member.
    """
    return _ke_rule(matrix_from_eta(key))


def _ke_rule(m: DefiningMatrix) -> bool:
    """The rule of :func:`is_ke_family` in the normal form: a + b = -2 (rho=1), a + b + c + d = 0 and b > 0 (rho=3)."""
    if m.rho == 1:
        return m.a + m.b == -2
    return m.rho == 3 and m.a + m.b + m.c + m.d == 0 and m.b > 0
