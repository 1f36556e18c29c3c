"""Normal forms of defining matrices.

A defining matrix is only unique up to admissible operations: adding
integer multiples of the first two rows to the last row, swapping the two
columns of an arm, swapping structurally identical arms (together with the
induced unimodular change of the first two rows, which never touches the
last row), and negating the last row.  Each isomorphy class contains
exactly one matrix satisfying the normal-form inequalities, and only such a
matrix can be a :class:`~fiqs.series.DefiningMatrix`: it checks them when it
is made.  :func:`validate` names the inequalities a parameter tuple violates.

:func:`canonicalize` recovers that unique representative in three steps:
row-reduce the stored third row arm by arm, reading the arm layout from
``ARM_COLUMNS`` (each one-column arm's entry becomes 1, each two-column
arm's first entry 0 and its second negative), list the orbit of the reduced
parameter tuple under the finite symmetry group of the arm swaps and the
negation (one closed-form image per group element), and return the first
orbit element that passes the one normal-form test a new matrix runs
(``fiqs.series._HOLDS``).  ``tests/test_normal_form.py`` proves it the only
one, and that one exists exactly when x+ and x- are elliptic: m+ > 0 > m-,
with m+ (m-) the sum of the arms' largest (smallest) slopes t/l.  Otherwise
:class:`NormalFormError` names the point that is not elliptic.
:func:`classify` reads the series back from the local orders of x+ and x-
(``fiqs.series._orders`` and ``_digit``).
"""

from __future__ import annotations

from fractions import Fraction

from .core import value_class
from .series import (
    _CHECKS, _HOLDS, FIRST_TWO_ROWS, SERIES_IDS, DefiningMatrix, SeriesKey, _check_params, _check_rho, _digit, _orders,
)

__all__ = [
    "NormalFormError",
    "AdmissibleOp",
    "RawMatrix",
    "ARM_COLUMNS",
    "SWAPPABLE_ARM_PAIRS",
    "validate",
    "apply_op",
    "raw_from_matrix",
    "reduce_raw",
    "parameter_orbit",
    "canonicalize",
    "classify",
]


class NormalFormError(Exception):
    """Canonicalization failed: two columns coincide, or x+ (x-) is not elliptic: m+ <= 0 (m- >= 0)."""


# Column indices of the arms; the first arm holds the pair of columns with
# leading pattern (-1,-1).
ARM_COLUMNS: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((0, 1), (2,), (3,)),
    2: ((0, 1), (2, 3), (4,)),
    3: ((0, 1), (2, 3), (4, 5)),
}

# The columns of the one-column arms, per rho.  Their leading entries are 0
# and 2, so such a column is primitive exactly when its third entry is odd.
_SINGLE_COLUMNS = {rho: tuple(c for arm in arms if len(arm) == 1 for c in arm) for rho, arms in ARM_COLUMNS.items()}

# Arm pairs that are structurally identical and hence swappable.
SWAPPABLE_ARM_PAIRS: dict[int, frozenset[tuple[int, int]]] = {
    1: frozenset({(1, 2)}),
    2: frozenset({(0, 1)}),
    3: frozenset({(0, 1), (0, 2), (1, 2)}),
}


@value_class
class AdmissibleOp:
    """One isomorphy-preserving matrix move.

    kind is one of "add_row" (row 1 or 2, integer multiplier),
    "swap_within_arm" (arm index 0, 1 or 2), "swap_arms" (pair of arm
    indices) and "negate_last_row".
    """

    kind: str
    row: int | None = None
    multiplier: int | None = None
    arm: int | None = None
    arms: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("add_row", "swap_within_arm", "swap_arms", "negate_last_row"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "add_row" and (type(self.row) is not int or self.row not in (1, 2)):
            raise ValueError(f"add_row needs row 1 or 2, got {self.row!r}")
        if self.kind == "add_row" and type(self.multiplier) is not int:
            raise ValueError(f"add_row multiplier must be an int, got {self.multiplier!r}")
        if self.kind == "swap_within_arm" and (type(self.arm) is not int or self.arm not in (0, 1, 2)):
            raise ValueError(f"swap_within_arm needs an arm index 0, 1 or 2, got {self.arm!r}")
        if self.kind == "swap_arms" and not (
            type(self.arms) is tuple and len(self.arms) == 2 and all(type(x) is int for x in self.arms)
        ):
            raise ValueError(f"swap_arms field 'arms' must be a tuple of two ints, got {self.arms!r}")


@value_class
class RawMatrix:
    """A defining matrix with standard first two rows and free third row."""

    rho: int
    third_row: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_rho(self.rho)
        if not isinstance(self.third_row, tuple):  # a list would make an unhashable value
            raise ValueError(f"RawMatrix field 'third_row' must be a tuple, got {self.third_row!r}")
        if len(self.third_row) != self.rho + 3:
            raise ValueError(f"third row must have {self.rho + 3} entries")
        if not {int}.issuperset(map(type, self.third_row)):  # one pass; a bool is not an int
            i, x = next((i, x) for i, x in enumerate(self.third_row, 1) if type(x) is not int)
            raise ValueError(f"third-row entry {i} must be an int, got {x!r}")
        for k in _SINGLE_COLUMNS[self.rho]:
            if self.third_row[k] % 2 == 0:
                raise ValueError(f"column {k + 1} needs an odd third-row entry to be primitive")


def raw_from_matrix(m: DefiningMatrix) -> RawMatrix:
    return RawMatrix(m.rho, m.third_row())


def validate(rho: int, a: int, b: int, c: int | None = None, d: int | None = None) -> tuple[str, ...]:
    """The normal-form inequalities that the parameters (a, b[, c[, d]]) violate (empty = a normal form).

    The parameters are checked as a :class:`~fiqs.series.DefiningMatrix` checks its fields.
    """
    _check_params(DefiningMatrix, rho, a, b, c, d)
    return tuple(text for text, holds in _CHECKS[rho] if not holds(a, b, c, d))


def apply_op(m: RawMatrix, op: AdmissibleOp) -> RawMatrix:
    """Apply one admissible operation to the stored third row.

    Arm swaps are realized purely as column-block permutations: the induced
    unimodular change of the first two rows restores the standard patterns
    without touching the third row.
    """
    t = list(m.third_row)
    if op.kind == "negate_last_row":
        return RawMatrix(m.rho, tuple(-x for x in t))
    if op.kind == "add_row":
        row = FIRST_TWO_ROWS[m.rho][op.row - 1]
        return RawMatrix(m.rho, tuple(x + op.multiplier * r for x, r in zip(t, row)))
    if op.kind == "swap_within_arm":
        cols = ARM_COLUMNS[m.rho][op.arm]
        if len(cols) != 2:
            raise ValueError(f"arm {op.arm} of rho={m.rho} is a single column")
        i, j = cols
        t[i], t[j] = t[j], t[i]
        return RawMatrix(m.rho, tuple(t))
    pair = tuple(sorted(op.arms))
    if pair not in SWAPPABLE_ARM_PAIRS[m.rho]:
        raise ValueError(f"arms {op.arms} of rho={m.rho} are not structurally identical")
    ci = ARM_COLUMNS[m.rho][pair[0]]
    cj = ARM_COLUMNS[m.rho][pair[1]]
    for x, y in zip(ci, cj):
        t[x], t[y] = t[y], t[x]
    return RawMatrix(m.rho, tuple(t))


def reduce_raw(m: RawMatrix) -> tuple[int, ...]:
    """Row-reduce to the canonical third-row shape and slope-order the arms.

    Returns the free parameters (a, b[, c[, d]]) with a > b and c, d < 0.
    """
    t = m.third_row
    x, y = t[0], t[1]
    params = []
    for arm in ARM_COLUMNS[m.rho][1:]:
        if len(arm) == 1:
            # an odd entry 2l + 1 becomes 1: subtract l times the row holding the column's 2
            shift = (t[arm[0]] - 1) // 2
        else:
            i, j = arm
            p = t[j] - t[i]
            if p == 0:
                raise NormalFormError(f"columns {i + 1} and {j + 1} coincide")
            # subtract t[i] times the arm's row; if that leaves t[j] = p > 0,
            # swap the two columns and subtract p times the row once more
            shift = t[i] + max(p, 0)
            params.append(-abs(p))
        x, y = x + shift, y + shift
    if x == y:
        raise NormalFormError("columns 1 and 2 coincide")
    return (max(x, y), min(x, y), *params)


# The orbit of a slope-ordered parameter tuple under the group generated by
# the arm swaps and the negation of the last row, one closed-form image per
# group element: Z2 for rho=1, Z2 x Z2 for rho=2, S3 x Z2 for rho=3.
def _orbit1(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    a, b = p
    return ((a, b), (-b - 2, -a - 2))


def _orbit2(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    a, b, c = p
    n = -b - c - 1
    return ((a, b, c), (a, a + c, b - a), (n, -a - c - 1, c), (n, -b - 1, b - a))


def _orbit3(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    a, b, c, d = p
    n, e = -b - c - d, b - a
    return (
        (a, b, c, d), (a, b, d, c),
        (a, a + c, e, d), (a, a + d, e, c),
        (a, a + c, d, e), (a, a + d, c, e),
        (n, -a - c - d, c, d), (n, -a - c - d, d, c),
        (n, -b - d, e, d), (n, -b - c, e, c),
        (n, -b - d, d, e), (n, -b - c, c, e),
    )


_ORBITS = {1: _orbit1, 2: _orbit2, 3: _orbit3}


def parameter_orbit(rho: int, params: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """Orbit of a slope-ordered parameter tuple under the symmetry maps.

    At most 2 / 4 / 12 elements for rho = 1 / 2 / 3; ValueError names a bad rho, length or entry.
    """
    _check_rho(rho)
    if type(params) is not tuple or len(params) != rho + 1:
        raise ValueError(f"rho={rho} needs a tuple of {rho + 1} parameters, got {params!r}")
    _check_params(DefiningMatrix, rho, *params, *(None,) * (3 - rho))
    return frozenset(_ORBITS[rho](params))


def canonicalize(m: RawMatrix) -> DefiningMatrix:
    """The unique normal form in the isomorphy class of a raw matrix; NormalFormError says why there is none."""
    params = reduce_raw(m)
    holds = _HOLDS[m.rho]
    for p in _ORBITS[m.rho](params):
        if holds(*p):
            return DefiningMatrix(m.rho, *p)
    k = len(_SINGLE_COLUMNS[m.rho])
    plus, minus = 2 * params[0] + k, 2 * sum(params[1:]) + k  # 2m+ and 2m-: one of them fails, as m+ > m-
    reason = (f"x+ is not elliptic: m+ = {Fraction(plus, 2)} <= 0" if plus <= 0
              else f"x- is not elliptic: m- = {Fraction(minus, 2)} >= 0")
    raise NormalFormError(f"{reason} (rho={m.rho}, reduced={params})")


def classify(m: DefiningMatrix) -> SeriesKey:
    """The unique (series, eta) whose table matrix equals the given normal form."""
    o = _orders(m)
    i, ip = _digit(m.rho, o[0])
    j, im = _digit(m.rho, o[1])
    return SeriesKey(SERIES_IDS[m.rho, f"s{i}{j}"], ip, im, m.c, m.d)
