from __future__ import annotations

import re

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fiqs import (
    DefiningMatrix,
    SeriesId,
    SeriesKey,
    barycenter_oracle,
    barycenters,
    degeneration_polygon,
    is_ke_family,
    is_ke_oracle,
)
from fiqs.kaehler import (
    SPECIAL_KAPPAS,
    Barycenter,
    _barycenter_terms,
    _hull_ccw,
    _ke_criterion,
    dual_polygon,
    polygon_centroid,
)
from fiqs.series import SERIES_IDS, _orders, matrix_from_eta

from conftest import up_to
from test_census import member_keys
from test_verify import reference_ke_criterion


def reference_barycenters(m):
    """Reference: the closed forms with one ``Fraction`` per coordinate, as ``barycenters`` wrote them before."""
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


def fraction_dual_polygon(vertices):
    """Reference: the dual polygon with one ``Fraction`` per coordinate throughout."""
    hull = _hull_ccw(vertices)
    n = len(hull)
    out = []
    for i in range(n):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % n]
        det = x1 * y2 - x2 * y1
        if det <= 0:
            raise ValueError("origin is not in the interior of the polygon")
        out.append((Fraction(y1 - y2, det), Fraction(x2 - x1, det)))
    for ux, uy in out:
        for vx, vy in hull:
            if ux * vx + uy * vy < -1:
                raise ValueError("dual vertex computation is inconsistent")
    return out


def fraction_polygon_centroid(vertices):
    """Reference: the shoelace centroid summed in ``Fraction`` arithmetic."""
    area2 = cx = cy = Fraction(0)
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


def outcome(dual, centroid, vertices):
    try:
        verts = dual(vertices)
        return verts, centroid(verts)
    except ValueError:
        return "ValueError"


def reference_hull_ccw(points):
    """Reference: the monotone chain with a cross-product closure and one loop per chain."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 distinct vertices")

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_outcome(hull, points):
    try:
        return hull(points)
    except ValueError as exc:
        return f"ValueError: {exc}"


_coord = st.integers(-12, 12)
_point = st.tuples(_coord, _coord)


@st.composite
def polygons_around_origin(draw):
    """Lattice points whose hull has the origin strictly inside.

    p, q span the plane and r = -(s*p + t*q) with s, t >= 1, so the origin is
    a strictly positive combination of the triangle p, q, r; further points
    only enlarge the hull.
    """
    p = draw(_point.filter(lambda v: v != (0, 0)))
    q = draw(_point.filter(lambda v: p[0] * v[1] - p[1] * v[0] != 0))
    s, t = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    r = (-(s * p[0] + t * q[0]), -(s * p[1] + t * q[1]))
    extra = draw(st.lists(_point, max_size=5))
    return (p, q, r, *extra)


class TestBarycenters:
    def test_rho1_symmetric_case(self):
        bcs = barycenters(DefiningMatrix(1, 0, -2))
        assert [bc.kappa for bc in bcs] == [1, 2]
        assert all((bc.x, bc.y) == (0, Fraction(1, 6)) for bc in bcs)

    def test_rho1_asymmetric_case(self):
        bc = barycenters(DefiningMatrix(1, 0, -4))[0]
        assert bc.x == Fraction(-2, 9)

    def test_rho2_lies_on_half_line(self):
        (bc,) = barycenters(DefiningMatrix(2, 1, 0, -2))
        assert bc.kappa == 2
        assert bc.y == bc.x / 2

    def test_rho3_diagonal_case(self):
        bcs = barycenters(DefiningMatrix(3, 3, 1, -2, -2))
        assert [bc.kappa for bc in bcs] == [0, 1, 2]
        assert all((bc.x, bc.y) == (0, Fraction(1, 9)) for bc in bcs)

    def test_polygon_oracle_agrees(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for _, m in up_to(surfaces_by_rho[rho], 20):
                for bc in barycenters(m):
                    assert (bc.x, bc.y) == barycenter_oracle(m, bc.kappa), m


@given(member_keys())
@example(SeriesKey(SERIES_IDS[1, "s11"], 999999, 999999))  # KE
@example(SeriesKey(SERIES_IDS[3, "s11"], 999999, 999999, -500000, -500000))  # KE
@example(SeriesKey(SERIES_IDS[3, "s22"], 1000000, 1000000, -700000, -700000))  # x = 0, not KE
@example(SeriesKey(SERIES_IDS[2, "s12"], 1, 1, -1))
@settings(deadline=None)
def test_barycenter_terms_equal_the_fraction_reference(key):
    """On normal forms with entries up to about 10**6, the integer terms are the reference closed forms.

    Every denominator is nonzero, ``barycenters`` equals the reference, and the criterion on the
    unreduced terms equals the criterion on the reference ``Fraction``s.
    """
    m = matrix_from_eta(key)
    terms = _barycenter_terms(m)
    assert all(x_den != 0 and y_den != 0 for _, _, x_den, _, y_den in terms)
    reference = reference_barycenters(m)
    assert [Barycenter(kappa, Fraction(x_num, x_den), Fraction(y_num, y_den))
            for kappa, x_num, x_den, y_num, y_den in terms] == reference == barycenters(m)
    assert _ke_criterion(terms) == reference_ke_criterion(reference) == is_ke_oracle(m)


class TestPolygons:
    def test_special_kappas(self):
        assert SPECIAL_KAPPAS == {1: (1, 2), 2: (2,), 3: (0, 1, 2)}

    def test_non_special_kappa_rejected(self):
        with pytest.raises(ValueError):
            degeneration_polygon(DefiningMatrix(2, 1, 0, -2), 0)

    @pytest.mark.parametrize(
        "fn",
        (degeneration_polygon, barycenter_oracle, lambda m, kappa: barycenters(m)),
        ids=("degeneration_polygon", "barycenter_oracle", "barycenters"),
    )
    def test_matrix_is_checked(self, fn):
        """The polygon oracle and the closed forms take only normal forms: no other matrix can be made."""
        m = DefiningMatrix(3, 3, 1, -2, -2)
        fn(m, 0)
        with pytest.raises(ValueError, match="^matrix is not in normal form, violated: -c >= -d$"):
            fn(replace(m, d=-7), 0)
        with pytest.raises(ValueError, match="^DefiningMatrix field 'a' must be an int, got 3.0$"):
            fn(replace(m, a=3.0), 0)
        with pytest.raises(ValueError, match="^matrix is not in normal form, violated: a <= -b-2$"):
            fn(DefiningMatrix(1, 5, -2), 1)

    def test_dual_polygon_square(self):
        # conv(+-e1, +-e2) is self-dual up to rotation: dual is the square
        # with vertices (+-1, +-1)
        verts = dual_polygon(((1, 0), (0, 1), (-1, 0), (0, -1)))
        assert sorted(verts) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert polygon_centroid(verts) == (0, 0)

    def test_dual_requires_interior_origin(self):
        with pytest.raises(ValueError):
            dual_polygon(((1, 0), (2, 1), (1, 2)))

    @pytest.mark.parametrize(
        "vertices, k, v",
        [
            (((1.5, 1), (-1, 1), (0, -1)), 1, "(1.5, 1)"),
            (((1, 1), (-1, True), (0, -1)), 2, "(-1, True)"),
            (((1, 1), (-1, 1, 0), (0, -1)), 2, "(-1, 1, 0)"),
            (((1, 1), (-1, 1), 0), 3, "0"),
        ],
    )
    def test_dual_polygon_names_a_bad_vertex(self, vertices, k, v):
        with pytest.raises(ValueError, match=rf"^vertex {k} must be a pair of ints, got {re.escape(v)}$"):
            dual_polygon(vertices)

    @pytest.mark.parametrize(
        "vertices, k, v",
        [
            ([(0.5, 0), (1, 0), (0, 1)], 1, "(0.5, 0)"),
            ([(0, 0), (1, False), (0, 1)], 2, "(1, False)"),
            ([(0, 0), (1, 0), (Fraction(1), 1, 0)], 3, "(Fraction(1, 1), 1, 0)"),
            ([(0, 0), "ab", (0, 1)], 2, "'ab'"),
        ],
    )
    def test_polygon_centroid_names_a_bad_vertex(self, vertices, k, v):
        with pytest.raises(ValueError, match=rf"^vertex {k} must be a pair of rationals, got {re.escape(v)}$"):
            polygon_centroid(vertices)

    def test_centroid_of_triangle(self):
        tri = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(0)), (Fraction(0), Fraction(3))]
        assert polygon_centroid(tri) == (1, 1)

    @given(polygons_around_origin())
    def test_integer_path_equals_fraction_reference(self, vertices):
        ours = outcome(dual_polygon, polygon_centroid, vertices)
        assert ours != "ValueError"
        assert ours == outcome(fraction_dual_polygon, fraction_polygon_centroid, vertices)

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), max_size=6))
    def test_integer_path_matches_reference_on_any_points(self, points):
        vertices = tuple(points)
        assert outcome(dual_polygon, polygon_centroid, vertices) == outcome(
            fraction_dual_polygon, fraction_polygon_centroid, vertices
        )

    @given(st.lists(_point, max_size=8))
    def test_hull_matches_reference(self, points):
        vertices = tuple(points)
        assert hull_outcome(_hull_ccw, vertices) == hull_outcome(reference_hull_ccw, vertices)

    @pytest.mark.parametrize(
        "vertices",
        [
            ((0, 0), (1, 0), (0, 1)),  # origin is a vertex
            ((-1, 0), (1, 0), (0, 1)),  # origin on an edge
            ((1, 0), (2, 1), (1, 2)),  # origin outside
            ((-1, -1), (0, 0), (1, 1), (2, 2)),  # collinear through the origin
            ((1, 1), (2, 2), (3, 3)),  # collinear, away from the origin
            ((1, 0), (1, 0), (-1, 0)),  # fewer than 3 distinct points
        ],
    )
    def test_both_paths_reject_origin_not_interior(self, vertices):
        for dual, centroid in ((dual_polygon, polygon_centroid), (fraction_dual_polygon, fraction_polygon_centroid)):
            with pytest.raises(ValueError):
                centroid(dual(vertices))

    @pytest.mark.parametrize(
        "vertices",
        [
            [],
            [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(2, 3))],
        ],
    )
    def test_both_centroids_reject_degenerate_polygon(self, vertices):
        for centroid in (polygon_centroid, fraction_polygon_centroid):
            with pytest.raises(ValueError, match="degenerate"):
                centroid(vertices)


class TestKeOracle:
    def test_examples(self):
        assert is_ke_oracle(DefiningMatrix(1, 0, -2)) is True
        assert is_ke_oracle(DefiningMatrix(3, 3, 1, -2, -2)) is True

    def test_rho2_never_ke(self, surfaces_by_rho):
        for _, m in up_to(surfaces_by_rho[2], 20):
            assert is_ke_oracle(m) is False


class TestKeFamily:
    def test_rho1_rule(self):
        assert is_ke_family(SeriesKey(SeriesId(1, "s11"), 3, 3)) is True
        assert is_ke_family(SeriesKey(SeriesId(1, "s11"), 1, 3)) is False
        assert is_ke_family(SeriesKey(SeriesId(1, "s22"), 4, 4)) is True
        assert is_ke_family(SeriesKey(SeriesId(1, "s12"), 1, 4)) is False

    def test_rho3_rule(self):
        assert is_ke_family(SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -2)) is True
        # c + d = -3 > -iota - 1 = -4: barycenter drops to the axis
        assert is_ke_family(SeriesKey(SeriesId(3, "s11"), 3, 3, -2, -1)) is False

    def test_rejects_invalid_keys(self):
        with pytest.raises(ValueError):
            is_ke_family(SeriesKey(SeriesId(1, "s11"), 2, 2))

    def test_rho3_rule_is_the_triangle_inequality(self, surfaces_by_rho):
        # KE exactly when o+ = o- and the interior local orders are the sides of a triangle
        surfaces = up_to(surfaces_by_rho[3], 24)
        assert sum(is_ke_family(key) for key, _ in surfaces) > 0
        for key, m in surfaces:
            op, om, x0, x1, x2 = _orders(m)
            assert x0 >= x1 >= x2 >= 1, key
            assert is_ke_family(key) == (op == om and x0 < x1 + x2), key

    def test_family_equals_oracle_small(self, surfaces_by_rho):
        for rho in (1, 2, 3):
            for key, m in up_to(surfaces_by_rho[rho], 12):
                assert is_ke_family(key) == is_ke_oracle(m), key

    def test_rho1_ke_barycenter_height(self, surfaces_by_rho):
        # whenever the first coordinate vanishes, the second is exactly 1/6
        for key, m in surfaces_by_rho[1]:
            if is_ke_family(key):
                assert all(bc.y == Fraction(1, 6) for bc in barycenters(m))

    def test_rho3_degenerate_slice_identity(self, surfaces_by_rho):
        # s11 with iota+ = iota-: the matrix parameters always satisfy
        # a + b + c + d = 0, i.e. d = -a - b - c
        for key, m in up_to(surfaces_by_rho[3], 20):
            if key.series.tag in ("s11", "s22") and key.iota_plus == key.iota_minus:
                assert m.a + m.b + m.c + m.d == 0
