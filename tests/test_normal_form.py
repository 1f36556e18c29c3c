"""The normal form exists and is unique: a proof from the live tables.

``canon.canonicalize`` returns the first element of the reduced orbit that
passes the normal-form inequalities, and refuses a matrix only by naming an
elliptic fixed point that is not elliptic.  Three statements make that
right, and this module proves them for every integer parameter tuple:

- uniqueness: p and g(p) both in normal form, for an orbit map g, forces
  g(p) = p; since the orbit maps form a group, an orbit holds at most one
  normal form;
- existence: on ``reduce_raw``'s output (a > b, c < 0, d < 0), m+ > 0 > m-
  puts some orbit element in normal form;
- converse: an orbit element in normal form forces m+ > 0 > m-.

A fourth statement makes ``invariants._picard_index`` need no guard: every
local order of a normal form (``series._orders``) is at least 1, so the
product of the orders is a positive multiple of the torsion, a gcd that
includes the order of x+.

Here m+ and m- are the sums of the arms' largest and smallest slopes,
m+ = a + k/2 and m- = b + c + d + k/2 with k one-column arms
(``canon._SINGLE_COLUMNS``); x+ (x-) is elliptic when m+ > 0 (m- < 0).

The inequalities are read from ``series._INEQUALITIES``, the orbit maps
from ``canon._ORBITS`` and the orders from ``series._orders``, each as an
integer affine function: read at 0 and at the unit vectors, checked at
further points.  Each statement is refuted case by case by Fourier-Motzkin
elimination over integer rows: a row is divided by the gcd of its
coefficients, its constant rounded up, which keeps every integer point, so
a derived 0 < 0 means no integer point.
"""

from __future__ import annotations

import re
from itertools import product
from math import gcd
from types import SimpleNamespace

import pytest

from fiqs import enumerate_all
from fiqs.canon import _ORBITS, _SINGLE_COLUMNS
from fiqs.invariants import POINT_LABELS
from fiqs.series import _INEQUALITIES, _orders, _predicate

# A row (coefficients, constant) states coefficients . x + constant <= 0 on the
# parameters x = (a, b[, c[, d]]); an affine map is one (coefficients, constant) per output.
Row = tuple[tuple[int, ...], int]

_PROBES = ((2, -3, 5, 7), (-11, 13, 1, -4), (6, 6, -9, 2))


def _units(n: int) -> list[tuple[int, ...]]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _affine(f, n: int) -> Row:
    """The integer affine function f of n ints, read at 0 and the unit vectors; asserted at further points."""
    const = f((0,) * n)
    coeffs = tuple(f(u) - const for u in _units(n))
    for point in _PROBES:
        assert f(point[:n]) == const + sum(x * y for x, y in zip(coeffs, point)), (f, point)
    return coeffs, const


def _inequality(text: str, n: int) -> Row:
    """The row of one normal-form inequality; a strict one leaves a gap of 1 between integers."""
    lhs, op, rhs = re.fullmatch(r"(.+?)\s*(<=|>=|<|>)\s*(.+)", text).groups()
    diff = eval(f"lambda a=0, b=0, c=0, d=0: ({lhs}) - ({rhs})", {})
    coeffs, const = _affine(lambda p: diff(*p), n)
    if op in (">", ">="):
        coeffs, const = tuple(-x for x in coeffs), -const
    return coeffs, const + (op in ("<", ">"))


def _orbit_maps(rho: int) -> list[tuple[Row, ...]]:
    n = rho + 1
    images = len(_ORBITS[rho]((0,) * n))
    return [tuple(_affine(lambda p, i=i, j=j: _ORBITS[rho](p)[i][j], n) for j in range(n)) for i in range(images)]


def _identity(n: int) -> tuple[Row, ...]:
    return tuple((u, 0) for u in _units(n))


def _after(row: Row, g: tuple[Row, ...]) -> Row:
    """The row read at g(p): the row's affine function composed with g."""
    coeffs, const = row
    n = len(coeffs)
    return (
        tuple(sum(coeffs[j] * g[j][0][i] for j in range(n)) for i in range(n)),
        const + sum(coeffs[j] * g[j][1] for j in range(n)),
    )


def _compose(g: tuple[Row, ...], h: tuple[Row, ...]) -> tuple[Row, ...]:
    """g after h."""
    return tuple(_after(row, h) for row in g)


def _negation(row: Row) -> Row:
    """Not (h <= 0), that is h >= 1, for integer h."""
    coeffs, const = row
    return tuple(-x for x in coeffs), 1 - const


def _feasible(rows: list[Row]) -> bool:
    """False when Fourier-Motzkin derives 0 < 0 from the rows: then no integer point satisfies them all.

    Each row is divided by the gcd of its coefficients and its constant rounded
    up; of rows with equal coefficients only the strongest is kept.  True means
    only that elimination found no contradiction.
    """
    strongest: dict[tuple[int, ...], int] = {}

    def add(coeffs: tuple[int, ...], const: int) -> bool:
        g = 0
        for x in coeffs:
            g = gcd(g, x)
        if g == 0:
            return const <= 0
        coeffs, const = tuple(x // g for x in coeffs), -(-const // g)
        if strongest.get(coeffs, const - 1) < const:
            strongest[coeffs] = const
        return True

    if not all(add(*row) for row in rows):
        return False
    while strongest:
        rows = list(strongest.items())
        variables = {i for coeffs, _ in rows for i, x in enumerate(coeffs) if x}

        def cost(i: int) -> int:
            up = sum(coeffs[i] > 0 for coeffs, _ in rows)
            down = sum(coeffs[i] < 0 for coeffs, _ in rows)
            return up * down - up - down

        i = min(variables, key=cost)
        up = [(c, k) for c, k in rows if c[i] > 0]
        down = [(c, k) for c, k in rows if c[i] < 0]
        strongest = {c: k for c, k in rows if c[i] == 0}
        for cu, ku in up:
            for cd, kd in down:
                s, t = -cd[i], cu[i]
                if not add(tuple(s * x + t * y for x, y in zip(cu, cd)), s * ku + t * kd):
                    return False
    return True


def _normal_form(rho: int, texts) -> list[Row]:
    return [_inequality(text, rho + 1) for text in texts]


def _reduced(rho: int) -> list[Row]:
    """What ``reduce_raw`` guarantees: a > b and c, d < 0."""
    n = rho + 1
    units = _units(n)
    return [(tuple(y - x for x, y in zip(units[0], units[1])), 1), *((u, 1) for u in units[2:])]


def _elliptic(rho: int) -> tuple[Row, Row]:
    """The rows of x+ and x- elliptic: 2m+ = 2a + k >= 1 and 2m- = 2(b + c + d) + k <= -1."""
    n, k = rho + 1, len(_SINGLE_COLUMNS[rho])
    return (tuple(-2 * (i == 0) for i in range(n)), 1 - k), (tuple(2 * (i > 0) for i in range(n)), k + 1)


def uniqueness_failures(rho: int, texts=None) -> tuple[int, list]:
    """(cases, the cases not refuted) of: p and g(p) in normal form with g(p)_k - p_k >= 1 or <= -1."""
    nf = _normal_form(rho, _INEQUALITIES[rho] if texts is None else texts)
    identity, n = _identity(rho + 1), rho + 1
    cases, failures = 0, []
    for index, g in enumerate(_orbit_maps(rho)):
        if g == identity:
            continue
        images = [_after(row, g) for row in nf]
        for k in range(n):
            diff = (tuple(x - (i == k) for i, x in enumerate(g[k][0])), g[k][1])
            for sign in (1, -1):
                cases += 1
                apart = _negation((tuple(sign * x for x in diff[0]), sign * diff[1]))  # sign * diff >= 1
                if _feasible([*nf, *images, apart]):
                    failures.append((index, k, sign))
    return cases, failures


def existence_search(rho: int) -> tuple[int, list]:
    """(nodes visited, feasible leaves) of the search for a reduced elliptic p with no orbit element in normal form.

    Depth first: each level takes one orbit map and branches on which inequality g(p) violates.
    """
    nf = _normal_form(rho, _INEQUALITIES[rho])
    maps = _orbit_maps(rho)
    hypotheses = [*_reduced(rho), *_elliptic(rho)]
    nodes, leaves = 0, []

    def search(rows: list[Row], level: int, path: tuple[int, ...]) -> None:
        nonlocal nodes
        nodes += 1
        if not _feasible(rows):
            return
        if level == len(maps):
            leaves.append(path)
            return
        for j, row in enumerate(nf):
            search([*rows, _negation(_after(row, maps[level]))], level + 1, (*path, j))

    search(hypotheses, 0, ())
    return nodes, leaves


def converse_failures(rho: int) -> tuple[int, list]:
    """(cases, the cases not refuted) of: p reduced, g(p) in normal form, and 2m+ <= 0 or 2m- >= 0."""
    nf = _normal_form(rho, _INEQUALITIES[rho])
    cases, failures = 0, []
    for index, g in enumerate(_orbit_maps(rho)):
        for name, elliptic in zip(("x+", "x-"), _elliptic(rho)):
            cases += 1
            if _feasible([*_reduced(rho), *(_after(row, g) for row in nf), _negation(elliptic)]):
                failures.append((index, name))
    return cases, failures


def _order_forms(rho: int) -> list[Row]:
    """The local orders of ``series._orders``, read on a stand-in with the matrix's attributes, in POINT_LABELS order."""
    stand_in = lambda p: SimpleNamespace(rho=rho, **dict(zip("abcd", (*p, None, None))))
    return [_affine(lambda p, i=i: _orders(stand_in(p))[i], rho + 1) for i in range(len(POINT_LABELS[rho]))]


def order_failures(rho: int, shift: int = 0) -> tuple[int, list]:
    """(cases, the points not refuted) of: p in normal form and the point's local order minus shift <= 0."""
    nf = _normal_form(rho, _INEQUALITIES[rho])
    forms = _order_forms(rho)
    failures = [p for p, (coeffs, const) in zip(POINT_LABELS[rho], forms) if _feasible([*nf, (coeffs, const - shift)])]
    return len(forms), failures


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_rows_are_the_inequalities(rho):
    """Each row holds at a point exactly when its inequality's text does."""
    texts = _INEQUALITIES[rho]
    for text, (coeffs, const) in zip(texts, _normal_form(rho, texts)):
        test = _predicate(text)
        for p in ((0, 0, 0, 0), (1, -2, -1, -1), (0, -2, 0, -1), (3, 1, -2, -2), (-1, 0, 1, 2), (2, 2, -3, -4)):
            assert test(*p[: rho + 1]) is (sum(x * y for x, y in zip(coeffs, p)) + const <= 0), (text, p)


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_orbit_maps_form_a_group(rho):
    """The identity is an orbit map, and so is each composite and some inverse of each map."""
    maps = _orbit_maps(rho)
    identity = _identity(rho + 1)
    assert maps[0] == identity
    for g in maps:
        assert any(_compose(h, g) == identity for h in maps)
        for h in maps:
            assert _compose(g, h) in maps


@pytest.mark.parametrize("rho, cases", [(1, 4), (2, 18), (3, 88)])
def test_normal_form_is_unique_in_its_orbit(rho, cases):
    assert uniqueness_failures(rho) == (cases, [])


@pytest.mark.parametrize("rho, nodes", [(1, 7), (2, 49), (3, 10881)])
def test_an_elliptic_orbit_holds_a_normal_form(rho, nodes):
    assert existence_search(rho) == (nodes, [])


@pytest.mark.parametrize("rho, cases", [(1, 4), (2, 8), (3, 24)])
def test_a_normal_form_forces_both_points_elliptic(rho, cases):
    assert converse_failures(rho) == (cases, [])


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_a_refused_orbit_fails_exactly_one_point(rho):
    """On reduce_raw's output m+ > m-, so 2m+ <= 0 and 2m- >= 0 never hold together."""
    assert not _feasible([*_reduced(rho), *map(_negation, _elliptic(rho))])


@pytest.mark.parametrize(
    "rho, dropped, found, witness", [(3, "-c >= -d", 28, (1, -1, -1, -1)), (2, "a <= -b-c-1", 8, (0, -1, -1))]
)
def test_the_prover_finds_a_dropped_inequality(rho, dropped, found, witness):
    """Without one inequality two orbit elements of the witness pass, and the prover finds feasible cases."""
    texts = [t for t in _INEQUALITIES[rho] if t != dropped]
    assert len(texts) == len(_INEQUALITIES[rho]) - 1
    assert len(uniqueness_failures(rho, texts)[1]) == found
    holds = _predicate(" and ".join(texts))
    assert len({p for p in _ORBITS[rho](witness) if holds(*p)}) == 2


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_the_statements_hold_on_a_box(rho):
    """On every reduced tuple with entries in [-5, 5]: one orbit element passes when m+ > 0 > m-, none otherwise."""
    holds, k = _predicate(" and ".join(_INEQUALITIES[rho])), len(_SINGLE_COLUMNS[rho])
    for p in product(range(-5, 6), repeat=rho + 1):
        if p[0] > p[1] and all(x < 0 for x in p[2:]):
            passing = {q for q in _ORBITS[rho](p) if holds(*q)}
            assert len(passing) == (2 * p[0] + k > 0 > 2 * sum(p[1:]) + k), p


@pytest.mark.parametrize("rho, cases", [(1, 3), (2, 4), (3, 5)])
def test_every_local_order_of_a_normal_form_is_positive(rho, cases):
    assert order_failures(rho) == (cases, [])


@pytest.mark.parametrize("rho, shifted", [(1, ["x0"]), (2, ["x+", "x0", "x1"]), (3, list(POINT_LABELS[3]))])
def test_the_prover_finds_an_order_shifted_down(rho, shifted):
    """With an order shifted down by 2 the prover finds exactly the points of order <= 2 on some surface."""
    assert order_failures(rho, shift=2) == (len(POINT_LABELS[rho]), shifted)
    surfaces = (m for iota in range(1, 7) for _, m in enumerate_all(rho, iota))
    small = {p for m in surfaces for p, o in zip(POINT_LABELS[rho], _orders(m)) if o <= 2}
    assert set(shifted) == small
