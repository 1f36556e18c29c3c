"""Normal forms of defining matrices.

A defining matrix is only unique up to admissible operations: adding
integer multiples of the first two rows to the last row, swapping the two
columns of an arm, swapping structurally identical arms (together with the
induced unimodular change of the first two rows, which never touches the
last row), and negating the last row.  Each isomorphy class contains
exactly one matrix satisfying the normal-form inequalities checked by
:func:`validate`.

:func:`canonicalize` recovers that unique representative in three steps:
row-reduce the stored third row so the designated entries take their
canonical values, list the orbit of the reduced parameter tuple under the
finite symmetry group of the arm swaps and the negation (one closed-form
image per group element), and select the single orbit element passing the
normal-form inequalities.  The orbit is checked on the parameter tuples
themselves, with the kernel behind :func:`validate`; only the one passing
tuple becomes a :class:`~fiqs.series.DefiningMatrix`.  Zero or several passing elements
indicate corrupted input and raise :class:`NormalFormError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .series import FIRST_TWO_ROWS, SERIES_IDS, DefiningMatrix, SeriesKey

__all__ = [
    "NormalFormError",
    "AdmissibleOp",
    "RawMatrix",
    "ARM_COLUMNS",
    "SWAPPABLE_ARM_PAIRS",
    "validate",
    "is_valid",
    "apply_op",
    "raw_from_matrix",
    "reduce_raw",
    "parameter_orbit",
    "canonicalize",
    "classify",
]


class NormalFormError(Exception):
    """Canonicalization failed: no unique normal form in the symmetry orbit."""


# Column indices of the arms; the first arm holds the pair of columns with
# leading pattern (-1,-1).
ARM_COLUMNS: dict[int, tuple[tuple[int, ...], ...]] = {
    1: ((0, 1), (2,), (3,)),
    2: ((0, 1), (2, 3), (4,)),
    3: ((0, 1), (2, 3), (4, 5)),
}

# Arm pairs that are structurally identical and hence swappable.
SWAPPABLE_ARM_PAIRS: dict[int, frozenset[tuple[int, int]]] = {
    1: frozenset({(1, 2)}),
    2: frozenset({(0, 1)}),
    3: frozenset({(0, 1), (0, 2), (1, 2)}),
}


@dataclass(frozen=True, slots=True)
class AdmissibleOp:
    """One isomorphy-preserving matrix move.

    kind is one of "add_row" (row 1 or 2, integer multiplier),
    "swap_within_arm" (arm index), "swap_arms" (pair of arm indices) and
    "negate_last_row".
    """

    kind: str
    row: int | None = None
    multiplier: int | None = None
    arm: int | None = None
    arms: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("add_row", "swap_within_arm", "swap_arms", "negate_last_row"):
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.kind == "add_row" and (self.row not in (1, 2) or self.multiplier is None):
            raise ValueError("add_row needs row in (1, 2) and a multiplier")
        if self.kind == "swap_within_arm" and self.arm is None:
            raise ValueError("swap_within_arm needs an arm index")
        if self.kind == "swap_arms" and self.arms is None:
            raise ValueError("swap_arms needs an arm pair")


@dataclass(frozen=True, slots=True)
class RawMatrix:
    """A defining matrix with standard first two rows and free third row."""

    rho: int
    third_row: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rho not in (1, 2, 3):
            raise ValueError(f"rho must be 1, 2 or 3, got {self.rho}")
        if len(self.third_row) != self.rho + 3:
            raise ValueError(f"third row must have {self.rho + 3} entries")
        # primitivity of the columns with an even leading entry
        if self.rho == 1 and (self.third_row[2] % 2 == 0 or self.third_row[3] % 2 == 0):
            raise ValueError("columns 3 and 4 need odd third-row entries to be primitive")
        if self.rho == 2 and self.third_row[4] % 2 == 0:
            raise ValueError("column 5 needs an odd third-row entry to be primitive")


def raw_from_matrix(m: DefiningMatrix) -> RawMatrix:
    return RawMatrix(m.rho, m.third_row())


def _violations(
    rho: int, a: int, b: int, c: int | None = None, d: int | None = None
) -> tuple[str, ...]:
    """The normal-form inequalities that the parameters (a, b[, c[, d]]) violate."""
    bad: list[str] = []
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


def validate(m: DefiningMatrix) -> tuple[str, ...]:
    """Normal-form inequality check; returns the violated inequalities (empty = ok)."""
    return _violations(m.rho, m.a, m.b, m.c, m.d)


def is_valid(m: DefiningMatrix) -> bool:
    return not validate(m)


def _checked(m: DefiningMatrix) -> DefiningMatrix:
    """The matrix itself; ValueError naming the violated inequalities if it is not a normal form."""
    bad = validate(m)
    if bad:
        raise ValueError(f"matrix is not in normal form, violated: {', '.join(bad)}")
    return m


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

    At most 2 / 4 / 12 elements for rho = 1 / 2 / 3.
    """
    return frozenset(_ORBITS[rho](params))


def canonicalize(m: RawMatrix) -> DefiningMatrix:
    """The unique normal form in the isomorphy class of a raw matrix."""
    params = reduce_raw(m)
    passing = [p for p in parameter_orbit(m.rho, params) if not _violations(m.rho, *p)]
    if len(passing) != 1:
        raise NormalFormError(
            f"expected exactly one normal form in the orbit, found {len(passing)} "
            f"(rho={m.rho}, reduced={params})"
        )
    return DefiningMatrix(m.rho, *passing[0])


def classify(m: DefiningMatrix) -> SeriesKey:
    """The unique (series, eta) whose table matrix equals the given normal form."""
    _checked(m)
    if m.rho == 1:
        i, ip = ("1", m.a + 1) if m.a % 2 == 0 else ("2", 2 * m.a + 2)
        j, im = ("1", -m.b - 1) if m.b % 2 == 0 else ("2", -2 * m.b - 2)
        return SeriesKey(SERIES_IDS[1, f"s{i}{j}"], ip, im)
    # the orders of x+/x- are w * iota+/w * iota- with series weight w in {1, p}
    if m.rho == 2:
        p, np_, nm = 3, 2 * m.a + 1, -(2 * m.b + 2 * m.c + 1)
    else:
        p, np_, nm = 2, m.a, -(m.b + m.c + m.d)
    i, ip = ("2", np_ // p) if np_ % p == 0 else ("1", np_)
    j, im = ("2", nm // p) if nm % p == 0 else ("1", nm)
    return SeriesKey(SERIES_IDS[m.rho, f"s{i}{j}"], ip, im, m.c, m.d)
