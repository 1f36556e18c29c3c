"""The twelve series of defining matrices, indexed by local Gorenstein indices.

For each Picard number rho = 1, 2, 3 there are four series s11, s12, s21,
s22 of surfaces.  A member is named by a key eta = (iota+, iota-[, c[, d]])
consisting of the local Gorenstein indices of the two elliptic fixed points
and, for rho >= 2, the negated local class group orders c (and d) of the
interior ring fixed points.  The Gorenstein index of the surface is
lcm(iota+, iota-).   Each key expands to a unique slope-ordered defining
matrix

    rho=1: [[-1,-1,2,0], [-1,-1,0,2], [a,b,1,1]]
    rho=2: [[-1,-1,1,1,0], [-1,-1,0,0,2], [a,b,0,c,1]]
    rho=3: [[-1,-1,1,1,0,0], [-1,-1,0,0,1,1], [a,b,0,c,0,d]]

whose third-row parameters satisfy per-rho normal-form inequalities (see
:func:`fiqs.canon.validate`).  The two digits of a series tag record a
divisibility case at each of the two elliptic fixed points: the local
Gorenstein index there lies in an index class (a set of residues mod 12),
and the local class group order is w * iota with a series weight w.  The
exact predicates are in :func:`series_membership`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .core import IntMatrix

__all__ = [
    "SERIES_TAGS",
    "SERIES_IDS",
    "SeriesId",
    "SeriesKey",
    "DefiningMatrix",
    "FIRST_TWO_ROWS",
    "series_membership",
    "enumerate_eta",
    "matrix_from_eta",
    "enumerate_all",
]

SERIES_TAGS = ("s11", "s12", "s21", "s22")

# Fixed first two rows of the defining matrix, per Picard number.
FIRST_TWO_ROWS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    1: ((-1, -1, 2, 0), (-1, -1, 0, 2)),
    2: ((-1, -1, 1, 1, 0), (-1, -1, 0, 0, 2)),
    3: ((-1, -1, 1, 1, 0, 0), (-1, -1, 0, 0, 1, 1)),
}


def _check_rho(rho: int) -> None:
    if rho not in (1, 2, 3):
        raise ValueError(f"rho must be 1, 2 or 3, got {rho}")


@dataclass(frozen=True, order=True, slots=True)
class SeriesId:
    rho: int
    tag: str

    def __post_init__(self) -> None:
        _check_rho(self.rho)
        if self.tag not in SERIES_TAGS:
            raise ValueError(f"unknown series tag {self.tag!r}")


# The twelve series ids, shared by every key that names one.
SERIES_IDS: dict[tuple[int, str], SeriesId] = {
    (rho, tag): SeriesId(rho, tag) for rho in (1, 2, 3) for tag in SERIES_TAGS
}


def _series_id(rho: int, tag: str) -> SeriesId:
    """The shared id of (rho, tag); ValueError naming rho or the tag if there is none."""
    try:
        return SERIES_IDS[rho, tag]
    except (KeyError, TypeError):
        return SeriesId(rho, tag)  # raises the ValueError of the bad field


@dataclass(frozen=True, order=True, slots=True)
class SeriesKey:
    """One surface: a series together with eta = (iota+, iota-[, c[, d]])."""

    series: SeriesId
    iota_plus: int
    iota_minus: int
    c: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        rho = self.series.rho
        if self.iota_plus < 1 or self.iota_minus < 1:
            raise ValueError("local Gorenstein indices must be positive")
        if (self.c is not None) != (rho >= 2):
            raise ValueError(f"c must be present exactly for rho >= 2 (rho={rho})")
        if (self.d is not None) != (rho == 3):
            raise ValueError(f"d must be present exactly for rho = 3 (rho={rho})")

    @property
    def rho(self) -> int:
        return self.series.rho

    @property
    def iota(self) -> int:
        """Gorenstein index: lcm of the two local indices."""
        return lcm(self.iota_plus, self.iota_minus)

    def eta(self) -> tuple[int, ...]:
        return tuple(v for v in (self.iota_plus, self.iota_minus, self.c, self.d) if v is not None)


@dataclass(frozen=True, order=True, slots=True)
class DefiningMatrix:
    """Normal-form defining matrix, stored by its free third-row parameters."""

    rho: int
    a: int
    b: int
    c: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        _check_rho(self.rho)
        if (self.c is not None) != (self.rho >= 2):
            raise ValueError(f"c must be present exactly for rho >= 2 (rho={self.rho})")
        if (self.d is not None) != (self.rho == 3):
            raise ValueError(f"d must be present exactly for rho = 3 (rho={self.rho})")

    def params(self) -> tuple[int, ...]:
        return tuple(v for v in (self.a, self.b, self.c, self.d) if v is not None)

    def third_row(self) -> tuple[int, ...]:
        if self.rho == 1:
            return (self.a, self.b, 1, 1)
        if self.rho == 2:
            return (self.a, self.b, 0, self.c, 1)
        return (self.a, self.b, 0, self.c, 0, self.d)

    def expand(self) -> IntMatrix:
        """The full 3x(rho+3) integer matrix."""
        r1, r2 = FIRST_TWO_ROWS[self.rho]
        return IntMatrix.from_rows([r1, r2, self.third_row()])


def _lcm_pairs_unordered(iota: int) -> list[tuple[int, int]]:
    """All (p, q) with p, q dividing iota and lcm(p, q) = iota, in no set order.

    At each prime power r^e of iota one side takes r^e and the other any r^k
    with k <= e, so there are prod(2e + 1) pairs, read off the factorisation.
    """
    pairs = [(1, 1)]
    n, r = iota, 2
    while n > 1:
        if r * r > n:
            r = n  # what is left is prime
        if n % r == 0:
            powers = [1]
            while n % r == 0:
                n //= r
                powers.append(powers[-1] * r)
            full = powers[-1]
            sides = [(full, x) for x in powers] + [(x, full) for x in powers[:-1]]
            pairs = [(p * u, q * v) for p, q in pairs for u, v in sides]
        r += 1
    return pairs


def _lcm_pairs(iota: int) -> list[tuple[int, int]]:
    """The pairs of :func:`_lcm_pairs_unordered`, lexicographic."""
    return sorted(_lcm_pairs_unordered(iota))


# Series weights (w+, w-): the local class group order of the elliptic fixed
# point x+ (x-) is w+ * iota+ (w- * iota-), for every rho.
_WEIGHTS = {
    1: {"s11": (4, 4), "s12": (4, 2), "s21": (2, 4), "s22": (2, 2)},
    2: {"s11": (1, 1), "s12": (1, 3), "s21": (3, 1), "s22": (3, 3)},
    3: {"s11": (1, 1), "s12": (1, 2), "s21": (2, 1), "s22": (2, 2)},
}

# Index classes of the tag digits 1 and 2 as residues mod 12: the local
# Gorenstein index of a point whose digit is 1 (2) lies in the first
# (second) set.  rho=1: odd / 0 mod 4; rho=2: odd and prime to 3 / odd;
# rho=3: odd / any.
_ODD = frozenset(range(1, 12, 2))
_INDEX_CLASSES = {
    1: (_ODD, frozenset({0, 4, 8})),
    2: (frozenset({1, 5, 7, 11}), _ODD),
    3: (_ODD, frozenset(range(12))),
}

# _CLASS_WEIGHTS[rho][iota+ % 12][iota- % 12]: the weights (w+, w-) of the
# series whose index classes admit the pair, in SERIES_TAGS order.
_CLASS_WEIGHTS = {
    rho: tuple(
        tuple(
            tuple(
                _WEIGHTS[rho][tag]
                for tag in SERIES_TAGS
                if rp in classes[int(tag[1]) - 1] and rm in classes[int(tag[2]) - 1]
            )
            for rm in range(12)
        )
        for rp in range(12)
    )
    for rho, classes in _INDEX_CLASSES.items()
}


def _pair_ok(rho: int, tag: str, ip: int, im: int) -> bool:
    """Index classes and ordering of (iota+, iota-): w+ iota+ <= w- iota-."""
    w = _WEIGHTS[rho][tag]
    return w in _CLASS_WEIGHTS[rho][ip % 12][im % 12] and w[0] * ip <= w[1] * im


def series_membership(key: SeriesKey) -> bool:
    """Whether eta satisfies the defining predicate of its series."""
    rho, tag = key.series.rho, key.series.tag
    ip, im = key.iota_plus, key.iota_minus
    if not _pair_ok(rho, tag, ip, im):
        return False
    if rho == 1:
        return True
    wp, wm = _WEIGHTS[rho][tag]
    s, c = wp * ip + wm * im, key.c
    if rho == 2:
        # 1 - s/2 <= c <= -s/4, both sides compared exactly over rationals
        return c <= -1 and 2 - s <= 2 * c and 4 * c <= -s
    return c <= key.d <= -1 and 2 * c + key.d >= -s


def enumerate_eta(series: SeriesId, iota: int) -> list[SeriesKey]:
    """All keys of one series with Gorenstein index exactly iota.

    Ascending lexicographic in (iota+, iota-, c, d).
    """
    if iota < 1:
        raise ValueError(f"iota must be positive, got {iota}")
    rho, tag = series.rho, series.tag
    out: list[SeriesKey] = []
    for ip, im in _lcm_pairs(iota):
        if not _pair_ok(rho, tag, ip, im):
            continue
        if rho == 1:
            out.append(SeriesKey(series, ip, im))
            continue
        wp, wm = _WEIGHTS[rho][tag]
        s = wp * ip + wm * im
        if rho == 2:
            c_lo = 1 - s // 2  # s is even: both iota are odd and the weights match parity
            c_hi = (-s) // 4  # floor of -s/4
            for c in range(c_lo, c_hi + 1):
                out.append(SeriesKey(series, ip, im, c))
            continue
        c_lo = -((s - 1) // 2)  # smallest c admitting some d
        for c in range(c_lo, 0):
            d_lo = max(c, -s - 2 * c)
            for d in range(d_lo, 0):
                out.append(SeriesKey(series, ip, im, c, d))
    return out


def matrix_from_eta(key: SeriesKey) -> DefiningMatrix:
    """The defining matrix P_eta of a series member."""
    if not series_membership(key):
        raise ValueError(f"key does not satisfy its series predicate: {key}")
    rho = key.series.rho
    wp, wm = _WEIGHTS[rho][key.series.tag]
    op, om = wp * key.iota_plus, wm * key.iota_minus  # local orders of x+, x-
    if rho == 1:
        return DefiningMatrix(1, op // 4 - 1, -(om // 4) - 1)
    if rho == 2:
        return DefiningMatrix(2, (op - 1) // 2, -(om + 1) // 2 - key.c, key.c)
    return DefiningMatrix(3, op, -om - key.c - key.d, key.c, key.d)


def enumerate_all(rho: int, iota: int) -> list[tuple[SeriesKey, DefiningMatrix]]:
    """All surfaces of Gorenstein index exactly iota, in deterministic order.

    Series tags in the fixed order s11, s12, s21, s22, keys ascending within
    each series.
    """
    _check_rho(rho)
    if iota < 1:
        raise ValueError(f"iota must be positive, got {iota}")
    out = []
    for tag in SERIES_TAGS:
        for key in enumerate_eta(SERIES_IDS[rho, tag], iota):
            out.append((key, matrix_from_eta(key)))
    return out
