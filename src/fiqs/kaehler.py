"""Kaehler-Einstein existence via the barycenter criterion.

A surface admits a Kaehler-Einstein metric if and only if, for every
special toric degeneration kappa, the barycenter b_kappa of the moment
polytope satisfies b_kappa = (0, y) with y > 0.  The special kappa are
fixed per Picard number: {1, 2} for rho=1 (with identical polygons),
{2} for rho=2 and {0, 1, 2} for rho=3.

The moment polytope is the dual { u : <u, v> >= -1 for all v } of the
degeneration's Fano polygon, whose integral vertices are written down in
:func:`degeneration_polygon`.  :func:`barycenters` evaluates the closed
forms obtained by carrying out the dual-centroid computation symbolically;
:func:`barycenter_oracle` redoes it from the polygon with exact rational
arithmetic, so the two paths check each other.

At the family level the criterion collapses to a finite description:
no rho=2 surface is Kaehler-Einstein (its single barycenter lies on the
line y = x/2, so y > 0 forces x != 0), and for rho=1, 3 exactly the s11
and s22 members with iota+ = iota- and, for rho=3, a positive b survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import _checked
from .series import DefiningMatrix, SeriesKey, series_membership

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


@dataclass(frozen=True)
class Barycenter:
    """Moment-polytope barycenter of the special degeneration kappa."""

    kappa: int
    x: Fraction
    y: Fraction


def degeneration_polygon(m: DefiningMatrix, kappa: int) -> tuple[tuple[int, int], ...]:
    """Vertices of the Fano polygon of the degeneration kappa (debug/oracle).

    Degeneration kappa merges the two arms other than arm kappa into one
    row of vertices, with the slopes of arm kappa on the opposite row.
    """
    if kappa not in SPECIAL_KAPPAS[m.rho]:
        raise ValueError(f"kappa={kappa} is not special for rho={m.rho}")
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


def _hull_ccw(points: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Counterclockwise convex hull (monotone chain) of distinct lattice points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 distinct vertices")

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def dual_polygon(vertices: tuple[tuple[int, int], ...]) -> list[tuple[Fraction, Fraction]]:
    """Vertices of { u : <u, v> >= -1 for all v }, for a polygon with 0 inside."""
    hull = _hull_ccw(vertices)
    n = len(hull)
    out: list[tuple[Fraction, Fraction]] = []
    for i in range(n):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % n]
        det = x1 * y2 - x2 * y1
        if det <= 0:
            raise ValueError("origin is not in the interior of the polygon")
        u = (Fraction(y1 - y2, det), Fraction(x2 - x1, det))
        out.append(u)
    for ux, uy in out:
        for vx, vy in hull:
            if ux * vx + uy * vy < -1:
                raise ValueError("dual vertex computation is inconsistent")
    return out


def polygon_centroid(vertices: list[tuple[Fraction, Fraction]]) -> tuple[Fraction, Fraction]:
    """Exact area centroid of a polygon given by vertices in boundary order."""
    area2 = Fraction(0)
    cx = Fraction(0)
    cy = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        area2 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    if area2 == 0:
        raise ValueError("degenerate polygon")
    return cx / (3 * area2), cy / (3 * area2)


def barycenter_oracle(m: DefiningMatrix, kappa: int) -> tuple[Fraction, Fraction]:
    """Barycenter recomputed from the polygon: dual, then exact centroid."""
    return polygon_centroid(dual_polygon(degeneration_polygon(m, kappa)))


def barycenters(m: DefiningMatrix) -> list[Barycenter]:
    """Closed-form barycenters for the special degenerations of the matrix."""
    _checked(m)
    a, b = m.a, m.b
    if m.rho == 1:
        x = Fraction(-(a + b + 2), 3 * (1 + a) * (1 + b))
        y = Fraction(a * b - 1, 6 * (1 + a) * (1 + b))
        return [Barycenter(1, x, y), Barycenter(2, x, y)]
    if m.rho == 2:
        x = Fraction(-2 * (a + b + m.c + 1), (2 * a + 1) * (2 * b + 2 * m.c + 1))
        return [Barycenter(2, x, x / 2)]
    c, d = m.c, m.d
    s = b + c + d
    x = Fraction(-2 * (a + s), 3 * a * s)
    den = 3 * s * (a - s)
    y0 = Fraction(s * s - a * (b - c - d), den)
    y1 = Fraction(a * (b - c + d) - s * s, den)
    y2 = Fraction(a * (b + c - d) - s * s, den)
    return [Barycenter(0, x, y0), Barycenter(1, x, y1), Barycenter(2, x, y2)]


def is_ke_oracle(m: DefiningMatrix) -> bool:
    """Kaehler-Einstein test on the barycenters: x = 0 and y > 0 for all special kappa."""
    return all(bc.x == 0 and bc.y > 0 for bc in barycenters(m))


def is_ke_family(key: SeriesKey) -> bool:
    """Kaehler-Einstein existence at the family level.

    rho=1: s11/s22 with iota+ = iota-.  rho=2: never.  rho=3: s11/s22 with
    iota+ = iota- =: t and -2t <= 2c+d, c <= d <= -1, c+d <= -t-1 (resp.
    the doubled bounds -4t <= 2c+d, c+d <= -2t-1 for s22).
    """
    if not series_membership(key):
        raise ValueError(f"key does not satisfy its series predicate: {key}")
    return _ke_rule(key)


def _ke_rule(key: SeriesKey) -> bool:
    """The rule of :func:`is_ke_family` for a key that satisfies its series predicate."""
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
    return (
        -2 * w * t <= 2 * c + d
        and c <= d <= -1
        and c + d <= -w * t - 1
    )
