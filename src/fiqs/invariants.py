"""Geometric invariants of a surface given by a defining matrix.

Closed forms are authoritative and cheap (census-grade); each one is
paired with an independent oracle where the derivation allows it:

* divisor class group: gcd formula vs Smith normal form of the defining
  matrix, built from its rows,
* local Gorenstein indices: parity / divisibility case split vs an exact
  linear solve on the rays of the elliptic fixed point cones,
* degree and Picard index: matrix-parameter expressions vs the tabulated
  forms in the local Gorenstein indices,
* resolution graphs: tabulated chains, checked downstream by the
  determinant law (the negated intersection matrix of each chain has
  determinant equal to the local class group order).  The chains are read
  from the local class group orders: those of x+/x- are w+ iota+ and
  w- iota-, so the chain centres need no series table.

Records share their values: the degree, log canonicity and x+/x- chains
come from bounded memos keyed by the local orders they read (typed, so a
float order still fails), the class group from one keyed by (rho, torsion),
and interior chains of small order from a table.  All are immutable, so
sharing changes no comparison, pickle or copy of a record.  A record stores
its local orders as a tuple, not its local data or chains: the key and the
orders fix both, so ``SurfaceRecord.local`` and ``.resolution`` build them
when read, and code in this package reads ``orders`` instead.

Input is checked once, at the boundary.  Each public closed form checks its
matrix (:func:`fiqs.canon.validate`) or its key (the series predicate),
raising ``ValueError`` on failure, and then calls an unchecked kernel, one
per field, written in the local class group orders.  One field kernel,
``_values``, calls them for every record and exported line and returns
(m, local orders, values); ``_record`` assembles a record from that triple,
and the encoders of :mod:`fiqs.census` write a line from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm, prod

from .canon import ARM_COLUMNS, _checked, classify
from .core import IntMatrix, smith_normal_form, solve3
from .kaehler import _ke_rule
from .series import FIRST_TWO_ROWS, DefiningMatrix, SeriesKey, _check_ints, _orders, matrix_from_eta

__all__ = [
    "POINT_LABELS", "SIGMA_RAY_COLUMNS", "ClassGroup", "LocalData", "ResolutionGraph",
    "SurfaceRecord", "class_group", "class_group_oracle", "local_orders", "local_gorenstein",
    "local_gorenstein_oracle", "local_data", "gorenstein_index", "degree", "degree_from_eta",
    "log_canonicity", "picard_index", "picard_index_from_eta", "resolution_graph",
    "chain_determinant", "surface_record", "record_from_matrix",
]

# Fixed-point labels per Picard number: the elliptic points x+ and x-, then
# the ring fixed points.
POINT_LABELS: dict[int, tuple[str, ...]] = {
    1: ("x+", "x-", "x0"),
    2: ("x+", "x-", "x0", "x1"),
    3: ("x+", "x-", "x0", "x1", "x2"),
}

# Columns spanning the cones sigma+ / sigma- of the elliptic fixed points:
# the first / last column of each arm.
SIGMA_RAY_COLUMNS: dict[int, dict[str, tuple[int, int, int]]] = {
    rho: {"plus": tuple(arm[0] for arm in arms), "minus": tuple(arm[-1] for arm in arms)}
    for rho, arms in ARM_COLUMNS.items()
}

# The matrix-parameter closed forms in the local class group orders
# o = (x+, x-, x0[, x1[, x2]]), per rho as (p, q, e, t): degree
# p/q * (1/o[x+] + 1/o[x-]), log canonicity e/o[x-], class group torsion
# gcd(o[x+], t*o[x0], o[x1], ...), Picard index prod(o) / torsion.
_ORDER_FORMS = {1: (4, 1, 4, 2), 2: (9, 2, 3, 1), 3: (4, 1, 2, 1)}
_MEMO_SIZE = 4096  # entries per memo of a shared record value


@dataclass(frozen=True, slots=True)
class ClassGroup:
    """Divisor class group Z^free_rank x Z/torsion (torsion_order 1 = free)."""

    free_rank: int
    torsion_order: int


@dataclass(frozen=True, slots=True)
class LocalData:
    """Per fixed point: local class group order and local Gorenstein index."""

    orders: dict[str, int]
    gorenstein_indices: dict[str, int]


@dataclass(frozen=True, slots=True)
class ResolutionGraph:
    """Per fixed point, the chain of exceptional-curve self-intersections.

    An empty chain means the point is smooth.
    """

    chains: dict[str, tuple[int, ...]]


@dataclass(frozen=True, slots=True)
class SurfaceRecord:
    """Full invariant bundle of one surface.

    ``orders`` holds the local class group orders in ``POINT_LABELS`` order.
    :attr:`local` and :attr:`resolution` are derived from the key and the
    orders on each read, so equality, hashing and pickling see only the
    stored fields, all immutable.
    """

    key: SeriesKey
    matrix: DefiningMatrix
    class_group: ClassGroup
    orders: tuple[int, ...]
    gorenstein_index: int
    degree: Fraction
    log_canonicity: Fraction
    picard_index: int
    ke: bool

    @property
    def local(self) -> LocalData:
        """Orders and local Gorenstein indices per fixed point, built on each read."""
        return _local_data(self.key, self.orders)

    @property
    def resolution(self) -> ResolutionGraph:
        """Resolution chains per fixed point, built on each read."""
        return _resolution(self.key.rho, self.orders)


def _torsion(rho: int, o: tuple[int, ...]) -> int:
    return gcd(o[0], _ORDER_FORMS[rho][3] * o[2], *o[3:])


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _degree(rho: int, op: int, om: int) -> Fraction:
    p, q = _ORDER_FORMS[rho][:2]
    return Fraction(p * (op + om), q * op * om)


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _log_canonicity(rho: int, om: int) -> Fraction:
    return Fraction(_ORDER_FORMS[rho][2], om)


_class_group = lru_cache(maxsize=_MEMO_SIZE, typed=True)(ClassGroup)


def _picard_index(o: tuple[int, ...], torsion: int) -> int:
    num = prod(o)
    if num % torsion != 0 or num <= 0:
        raise ArithmeticError(f"Springer expression is not a positive integer for orders {o}")
    return num // torsion


# Per point in POINT_LABELS order: whether it is elliptic (x+, x-) or interior.
_ELLIPTIC = (True, True, False, False, False)

# Chains are shared up to this local order: _A_CHAINS[n] is the interior chain
# (-2,)*(n-1), and fiqs.census memoises chain texts up to the same order only.
_SHARED_ORDER_MAX = 256
_A_CHAINS = tuple((-2,) * (n - 1) for n in range(_SHARED_ORDER_MAX + 1))


@lru_cache(maxsize=_MEMO_SIZE, typed=True)
def _end_chain(rho: int, order: int) -> tuple[int, ...]:
    if rho == 1:
        return (-2, -1 - order // 4, -2)
    return () if order == 1 else (-2, -(1 + order) // 2) if rho == 2 else (-order,)


def _chain(rho: int, order: int, elliptic: bool) -> tuple[int, ...]:
    """The resolution chain of a point from its local order: w iota at x+/x-, n at an A_(n-1) point."""
    if elliptic:
        return _end_chain(rho, order)
    return _A_CHAINS[order] if order <= _SHARED_ORDER_MAX else (-2,) * (order - 1)


def _local_data(key: SeriesKey, o: tuple[int, ...]) -> LocalData:
    """Orders and local Gorenstein indices: iota+/iota- at x+/x-, one at the interior points."""
    labels = POINT_LABELS[key.series.rho]
    return LocalData(dict(zip(labels, o)), dict(zip(labels, (key.iota_plus, key.iota_minus, 1, 1, 1))))


def _resolution(rho: int, o: tuple[int, ...]) -> ResolutionGraph:
    return ResolutionGraph(dict(zip(POINT_LABELS[rho], map(_chain, repeat(rho), o, _ELLIPTIC))))


def _values(key: SeriesKey, m: DefiningMatrix) -> tuple:
    """The field kernel: (m, local orders, values) of a key and its checked matrix; no other code computes the values."""
    rho, o = m.rho, _orders(m)
    torsion = _torsion(rho, o)
    deg, eps = _degree(rho, o[0], o[1]), _log_canonicity(rho, o[1])
    return m, o, (key.iota, torsion, deg, eps, _picard_index(o, torsion), _ke_rule(key))


def _fields(key: SeriesKey) -> tuple:
    """The field kernel of a key, checked as :func:`surface_record` checks one."""
    return _values(key, _checked(matrix_from_eta(key)))


def _record(key: SeriesKey, m: DefiningMatrix, o: tuple[int, ...], values: tuple) -> SurfaceRecord:
    """The record of the field kernel's (m, o, values), assembled without computing a value."""
    iota, torsion, deg, eps, pic, ke = values
    return SurfaceRecord(key, m, _class_group(m.rho, torsion), o, iota, deg, eps, pic, ke)


def class_group(m: DefiningMatrix) -> ClassGroup:
    """Divisor class group: free of rank rho, torsion by the gcd formula."""
    return _class_group(m.rho, _torsion(m.rho, _orders(_checked(m))))


def class_group_oracle(m: DefiningMatrix) -> ClassGroup:
    """Divisor class group as the cokernel Z^(rho+3) / im(P^T), via Smith form."""
    _checked(m)
    # P itself: it has the invariant factors of its transpose
    r1, r2 = FIRST_TWO_ROWS[m.rho]
    n = m.rho + 3
    snf = smith_normal_form(IntMatrix(3, n, (*r1, *r2, *m.third_row())))
    return ClassGroup(n - snf.rank, snf.torsion_order)


def local_orders(m: DefiningMatrix) -> dict[str, int]:
    """Local class group orders of the fixed points (determinant formulas)."""
    return dict(zip(POINT_LABELS[m.rho], _orders(_checked(m))))


def local_gorenstein(m: DefiningMatrix) -> tuple[int, int]:
    """Local Gorenstein indices (iota+, iota-), read back from the local orders by :func:`classify`."""
    key = classify(m)
    return key.iota_plus, key.iota_minus


def local_gorenstein_oracle(m: DefiningMatrix, which: str) -> int:
    """Local Gorenstein index of x+/x- via an exact linear solve.

    Solves <u, v_i> = alpha_i over the three rays of sigma+/sigma-, where
    alpha_i is the anticanonical coefficient (0 on the elliptic column, 1 on
    the others); the index is the lcm of the denominators of u.
    """
    _checked(m)
    if which not in ("plus", "minus"):
        raise ValueError(f"which must be 'plus' or 'minus', got {which!r}")
    i, j, k = SIGMA_RAY_COLUMNS[m.rho][which]
    r1, r2 = FIRST_TWO_ROWS[m.rho]
    t = m.third_row()
    rays = IntMatrix(3, 3, (r1[i], r1[j], r1[k], r2[i], r2[j], r2[k], t[i], t[j], t[k]))
    u = solve3(rays, (0, 1, 1))
    return lcm(u[0].denominator, u[1].denominator, u[2].denominator)


def local_data(m: DefiningMatrix) -> LocalData:
    """Orders and local Gorenstein indices for all fixed points.

    Interior points always have local Gorenstein index one.
    """
    return _local_data(classify(m), _orders(m))


def gorenstein_index(m: DefiningMatrix) -> int:
    return classify(m).iota


def degree(m: DefiningMatrix) -> Fraction:
    """Anticanonical self-intersection from the matrix parameters."""
    return _degree(m.rho, *_orders(_checked(m))[:2])


# Per-series numerators of the degree summands n+/iota+ + n-/iota- (for
# rho=2 the summands are n/(2 iota)).
_DEGREE_NUMERATORS = {
    1: {"1": 1, "2": 2},
    2: {"1": 9, "2": 3},
    3: {"1": 4, "2": 2},
}


def degree_from_eta(key: SeriesKey) -> Fraction:
    """Anticanonical degree in terms of the local Gorenstein indices; ValueError naming a key field not an int."""
    _check_ints(key, key.iota_plus, key.iota_minus, key.c, key.d)
    rho, tag = key.series.rho, key.series.tag
    np_ = _DEGREE_NUMERATORS[rho][tag[1]]
    nm = _DEGREE_NUMERATORS[rho][tag[2]]
    den = 2 if rho == 2 else 1
    return Fraction(np_, den * key.iota_plus) + Fraction(nm, den * key.iota_minus)


def log_canonicity(m: DefiningMatrix) -> Fraction:
    """One plus the minimal discrepancy; attained on the sink side by slope ordering."""
    return _log_canonicity(m.rho, _orders(_checked(m))[1])


def picard_index(m: DefiningMatrix) -> int:
    """Picard index by Springer's formula: product of the local orders over the torsion order."""
    o = _orders(_checked(m))
    return _picard_index(o, _torsion(m.rho, o))


# Per tag digit, the factor w in the tabulated Picard forms for rho = 2, 3
# (spelled out here so that this oracle does not read the series table).
_PICARD_FACTORS = {2: {"1": 1, "2": 3}, 3: {"1": 1, "2": 2}}


def picard_index_from_eta(key: SeriesKey) -> int:
    """Picard index in terms of eta (tabulated forms, one per series); ValueError naming a key field not an int."""
    _check_ints(key, key.iota_plus, key.iota_minus, key.c, key.d)
    rho, tag = key.series.rho, key.series.tag
    ip, im = key.iota_plus, key.iota_minus
    c, d = key.c, key.d
    if rho == 1:
        if tag == "s11":
            num, den = 8 * ip * im * (ip + im), gcd(2 * ip, ip + im)
        elif tag == "s12":
            num, den = 4 * ip * im * (2 * ip + im), gcd(4 * ip, 2 * ip + im)
        elif tag == "s21":
            num, den = 4 * ip * im * (ip + 2 * im), gcd(2 * ip, ip + 2 * im)
        else:
            num, den = 2 * ip * im * (ip + im), gcd(2 * ip, ip + im)
    else:
        # rho = 2, 3: one form per rho in the factors w+, w- of the tag digits
        wp, wm = _PICARD_FACTORS[rho][tag[1]], _PICARD_FACTORS[rho][tag[2]]
        if rho == 2:
            num = -wp * wm * c * ip * im * (wp * ip + wm * im + 2 * c)
            den = gcd(2 * wp * ip, wp * ip + wm * im, 2 * c)
        else:
            num = wp * wm * c * d * ip * im * (wp * ip + wm * im + c + d)
            den = gcd(wp * ip, wm * im, c, d)
    if num % den != 0 or num <= 0:
        raise ArithmeticError(f"tabulated Picard expression is not a positive integer for {key}")
    return num // den


def resolution_graph(key: SeriesKey) -> ResolutionGraph:
    """Weighted resolution chains over the possibly singular fixed points.

    The elliptic points x+/x- get a central vertex (weight tabulated per
    series in the local Gorenstein index) with 2 / 1 / 0 flanking (-2)
    vertices for rho = 1 / 2 / 3; each interior point gets a pure (-2)
    chain of length one less than its local class group order.  Points of
    local class group order one are smooth: empty chain.
    """
    return _resolution(key.rho, _orders(_checked(matrix_from_eta(key))))


def chain_determinant(chain: tuple[int, ...]) -> int:
    """Determinant of the negated intersection matrix of a chain.

    The matrix is tridiagonal with diagonal -weights and off-diagonal -1;
    the empty chain has determinant 1 (smooth point).
    """
    prev2, prev1 = 0, 1
    for w in chain:
        prev2, prev1 = prev1, -w * prev1 - prev2
    return prev1


def surface_record(key: SeriesKey, matrix: DefiningMatrix | None = None) -> SurfaceRecord:
    """Assemble the full invariant bundle for one series member.

    The input is checked once.  A key alone must satisfy its series
    predicate, and the matrix it expands to must be a valid normal form; a
    key given with a matrix must be what :func:`classify` returns for that
    matrix.  A failed check raises ``ValueError``.
    """
    if matrix is None:
        return _record(key, *_fields(key))
    if classify(matrix) != key:
        raise ValueError(f"matrix {matrix} is not the normal form of {key}")
    return _record(key, *_values(key, matrix))


def record_from_matrix(m: DefiningMatrix) -> SurfaceRecord:
    """Invariant bundle for a normal-form matrix, classified once."""
    key = classify(m)
    return _record(key, *_values(key, m))
