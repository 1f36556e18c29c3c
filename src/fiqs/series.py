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

whose third-row parameters satisfy per-rho normal-form inequalities
(``_INEQUALITIES``; :func:`fiqs.canon.validate` names the ones a parameter
tuple violates).  The two digits of a series tag record a
divisibility case at each of the two elliptic fixed points: the local
Gorenstein index there lies in an index class (a set of residues mod 12),
and the local class group order is w * iota with a series weight w.  This
module is the one home of that fact (``_DIGITS``, read back from the orders
by ``_digit``) and the one module that turns a key into local orders.  Keys
and matrices check their field types when made (``_check_params``, a bool
refused), and every index argument goes through ``_check_index``.  A
:class:`DefiningMatrix` is a normal form: it checks the inequalities when it
is made, so no other code re-checks a matrix, and a key is a member of its
series (:func:`series_membership`) when its index classes admit the series
(``_pair_ok``, checked by :func:`matrix_from_eta`) and its matrix is made.

Enumeration runs block by block.  A block (series, iota+, iota-) fixes both
local indices and only (c, d) varies inside it; ``_iter_blocks`` checks the
index classes once per lcm pair and yields each admitted block's local
orders (o+, o-) and its keys, made one at a time.  ``_matrix`` holds the
only copy of the matrix formulas, in o+, o-, c and d: :func:`matrix_from_eta`
calls it after its own per-key ``_pair_ok`` check, and :func:`enumerate_all`
and export call it for the keys of a block.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Iterator

from .core import IntMatrix, value_class

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
    if type(rho) is not int or rho not in (1, 2, 3):
        raise ValueError(f"rho must be 1, 2 or 3, got {rho}")


def _check_index(name: str, value: int) -> None:
    """ValueError naming a Gorenstein index argument that is not a positive int (a bool is not an int)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def _check_kappa(rho: int, kappa: int, special: tuple[int, ...]) -> None:
    """ValueError naming a degeneration kappa that is not one of the special ones of rho (a bool is not an int)."""
    if type(kappa) is not int or kappa not in special:
        raise ValueError(f"kappa={kappa!r} is not special for rho={rho}")


def _check_params(cls: type, rho: int, x: int, y: int, c: int | None, d: int | None) -> None:
    """ValueError naming the first bad field of a new cls (key or matrix): rho, the c/d shape, then x, y, c, d not an int."""
    if type(rho) is not int or rho not in (1, 2, 3):  # the test of _check_rho, inline: one call per key or matrix
        _check_rho(rho)
    if (c is not None) != (rho >= 2):
        raise ValueError(f"c must be present exactly for rho >= 2 (rho={rho})")
    if (d is not None) != (rho == 3):
        raise ValueError(f"d must be present exactly for rho = 3 (rho={rho})")
    if type(x) is int and type(y) is int and (c is None or type(c) is int) and (d is None or type(d) is int):
        return
    for name, value in zip(cls.__slots__[1:], (x, y, c, d)):
        if not (type(value) is int or value is None and name in ("c", "d")):
            raise ValueError(f"{cls.__name__} field {name!r} must be an int, got {value!r}")


@value_class(order=True)
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
    """The shared id of (rho, tag); ValueError naming rho or the tag if there is none.

    rho is checked first: True or 1.0 would find the id of rho 1 as key 1.
    """
    _check_rho(rho)
    try:
        return SERIES_IDS[rho, tag]
    except (KeyError, TypeError):
        return SeriesId(rho, tag)  # raises the ValueError of the bad field


@value_class(order=True)
class SeriesKey:
    """One surface: a series together with eta = (iota+, iota-[, c[, d]])."""

    series: SeriesId
    iota_plus: int
    iota_minus: int
    c: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        if type(self.series) is not SeriesId:
            raise ValueError(f"SeriesKey field 'series' must be a SeriesId, got {self.series!r}")
        _check_params(SeriesKey, self.series.rho, self.iota_plus, self.iota_minus, self.c, self.d)
        if self.iota_plus < 1 or self.iota_minus < 1:
            name = "iota_plus" if self.iota_plus < 1 else "iota_minus"
            raise ValueError(f"SeriesKey field {name!r} must be positive, got {getattr(self, name)}")

    @property
    def rho(self) -> int:
        return self.series.rho

    @property
    def iota(self) -> int:
        """Gorenstein index: lcm of the two local indices."""
        return lcm(self.iota_plus, self.iota_minus)

    def eta(self) -> tuple[int, ...]:
        return tuple(v for v in (self.iota_plus, self.iota_minus, self.c, self.d) if v is not None)


# The normal-form inequalities of the parameters (a, b[, c[, d]]) per rho,
# each written once, as the Python expression it is reported under.
_INEQUALITIES = {
    1: ("b <= -2", "0 <= a", "a <= -b-2"),
    2: ("b < a", "c < 0", "a >= 0", "b+c <= -1", "a-b <= -c", "a <= -b-c-1"),
    3: ("a > b", "0 > c", "0 > d", "a-b >= -c", "-c >= -d", "b+c+d < 0", "0 < a", "a <= -b-c-d"),
}


def _predicate(expression: str) -> Callable[..., bool]:
    """``lambda a, b, c=None, d=None: expression``, compiled from its text."""
    return eval(f"lambda a, b, c=None, d=None: {expression}", {})


# Per rho: whether all inequalities hold, as one short-circuit test (run by
# every new DefiningMatrix and by the orbit filter of canon.canonicalize), and
# each inequality with its own test, run only to name the failures.
_HOLDS = {rho: _predicate(" and ".join(texts)) for rho, texts in _INEQUALITIES.items()}
_CHECKS = {rho: tuple((text, _predicate(text)) for text in texts) for rho, texts in _INEQUALITIES.items()}


@value_class(order=True)
class DefiningMatrix:
    """Normal-form defining matrix, stored by its free third-row parameters.

    Made only in normal form: ValueError naming the violated inequalities otherwise.
    """

    rho: int
    a: int
    b: int
    c: int | None = None
    d: int | None = None

    def __post_init__(self) -> None:
        rho, a, b, c, d = self.rho, self.a, self.b, self.c, self.d
        _check_params(DefiningMatrix, rho, a, b, c, d)
        if not _HOLDS[rho](a, b, c, d):
            bad = ", ".join(text for text, holds in _CHECKS[rho] if not holds(a, b, c, d))
            raise ValueError(f"matrix is not in normal form, violated: {bad}")

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


# Per rho, the weight w and the index class (residues mod 12) of the tag digits
# 1 and 2: at an elliptic fixed point with digit k, the local Gorenstein index
# lies in class k and the local class group order is w_k times it.  rho=1: odd
# / 0 mod 4; rho=2: odd and prime to 3 / odd; rho=3: odd / any.
_ODD = frozenset(range(1, 12, 2))
_DIGITS = {
    1: ((4, _ODD), (2, frozenset({0, 4, 8}))),
    2: ((1, frozenset({1, 5, 7, 11})), (3, _ODD)),
    3: ((1, _ODD), (2, frozenset(range(12)))),
}

# Series weights (w+, w-) per tag: the local class group order of x+ (x-) is
# w+ * iota+ (w- * iota-).  The digit pairs run in SERIES_TAGS order 11, 12, 21, 22.
_WEIGHTS = {
    rho: dict(zip(SERIES_TAGS, [(wp, wm) for wp, _ in digits for wm, _ in digits]))
    for rho, digits in _DIGITS.items()
}

# _CLASS_WEIGHTS[rho][iota+ % 12][iota- % 12]: the weights (w+, w-) of the
# series whose index classes admit the pair, in SERIES_TAGS order.
_CLASS_WEIGHTS = {
    rho: tuple(
        tuple(tuple((wp, wm) for wp, cp in digits if rp in cp for wm, cm in digits if rm in cm) for rm in range(12))
        for rp in range(12)
    )
    for rho, digits in _DIGITS.items()
}

# _DIGIT_OF[rho][o % 144]: the tag digit and weight w of an elliptic fixed point
# of local class group order o, if the class of that digit admits o // w.  144 is
# 12 times a multiple of every weight, so the residue fixes o % w and (o // w) % 12.
_DIGIT_OF = {
    rho: tuple(
        next(((str(k), w) for k, (w, cls) in enumerate(digits, 1) if r % w == 0 and r // w % 12 in cls), None)
        for r in range(144)
    )
    for rho, digits in _DIGITS.items()
}


def _pair_ok(rho: int, tag: str, ip: int, im: int) -> bool:
    """Index classes and ordering of (iota+, iota-): w+ iota+ <= w- iota-."""
    w = _WEIGHTS[rho][tag]
    return w in _CLASS_WEIGHTS[rho][ip % 12][im % 12] and w[0] * ip <= w[1] * im


def series_membership(key: SeriesKey) -> bool:
    """Whether eta satisfies the defining predicate of its series: :func:`matrix_from_eta` raises no ValueError."""
    try:
        matrix_from_eta(key)
    except ValueError:
        return False
    return True


def enumerate_eta(series: SeriesId, iota: int) -> list[SeriesKey]:
    """All keys of one series with Gorenstein index exactly iota.

    Ascending lexicographic in (iota+, iota-, c, d).  The arguments are
    checked once, the series first.
    """
    if type(series) is not SeriesId:
        raise ValueError(f"series must be a SeriesId, got {series!r}")
    _check_index("iota", iota)
    return [key for _, _, keys in _iter_blocks(series, iota) for key in keys]


def _iter_blocks(series: SeriesId, iota: int) -> Iterator[tuple[int, int, Iterator[SeriesKey]]]:
    """The blocks (series, iota+, iota-) of index iota whose index classes admit the series, as (o+, o-, the
    block's keys, made one at a time), for an index already checked.

    The blocks run in ascending (iota+, iota-) and the keys of a block in ascending (c, d): the order of
    :func:`enumerate_eta`.  ``_pair_ok`` runs once per lcm pair; a block may hold no key.
    """
    rho, tag = series.rho, series.tag
    wp, wm = _WEIGHTS[rho][tag]
    for ip, im in _lcm_pairs(iota):
        if _pair_ok(rho, tag, ip, im):
            op, om = wp * ip, wm * im
            yield op, om, _block_keys(series, ip, im, op + om)


def _block_keys(series: SeriesId, ip: int, im: int, s: int) -> Iterator[SeriesKey]:
    """The keys of the block (series, iota+, iota-) of local orders o+ + o- = s, ascending in (c, d)."""
    rho = series.rho
    if rho == 1:
        yield SeriesKey(series, ip, im)
    elif rho == 2:
        c_lo = 1 - s // 2  # s is even: both iota are odd and the weights match parity
        c_hi = (-s) // 4  # floor of -s/4
        for c in range(c_lo, c_hi + 1):
            yield SeriesKey(series, ip, im, c)
    else:
        c_lo = -((s - 1) // 2)  # smallest c admitting some d
        for c in range(c_lo, 0):
            for d in range(max(c, -s - 2 * c), 0):
                yield SeriesKey(series, ip, im, c, d)


def _matrix(rho: int, op: int, om: int, c: int | None, d: int | None) -> DefiningMatrix:
    """The defining matrix of local orders o+ = w+ iota+ and o- = w- iota- and interior parameters c, d."""
    if rho == 1:
        return DefiningMatrix(1, op // 4 - 1, -(om // 4) - 1)
    if rho == 2:
        return DefiningMatrix(2, (op - 1) // 2, -(om + 1) // 2 - c, c)
    return DefiningMatrix(3, op, -om - c - d, c, d)


def matrix_from_eta(key: SeriesKey) -> DefiningMatrix:
    """The defining matrix P_eta of a series member; ValueError naming the key or the violated inequalities."""
    rho, tag = key.series.rho, key.series.tag
    ip, im = key.iota_plus, key.iota_minus
    if not _pair_ok(rho, tag, ip, im):
        raise ValueError(f"key does not satisfy its series predicate: {key}")
    wp, wm = _WEIGHTS[rho][tag]
    return _matrix(rho, wp * ip, wm * im, key.c, key.d)


def _orders(m: DefiningMatrix) -> tuple[int, ...]:
    """Local class group orders in POINT_LABELS order (determinant formulas)."""
    a, b = m.a, m.b
    if m.rho == 1:
        return (4 * a + 4, -4 * b - 4, a - b)
    if m.rho == 2:
        return (1 + 2 * a, -1 - 2 * b - 2 * m.c, a - b, -m.c)
    return (a, -b - m.c - m.d, a - b, -m.c, -m.d)


def _digit(rho: int, order: int) -> tuple[str, int]:
    """Tag digit and local Gorenstein index of x+ or x- of a normal form, from its order w * iota."""
    digit, w = _DIGIT_OF[rho][order % 144]
    return digit, order // w


def enumerate_all(rho: int, iota: int) -> list[tuple[SeriesKey, DefiningMatrix]]:
    """All surfaces of Gorenstein index exactly iota, in deterministic order.

    Series tags in the fixed order s11, s12, s21, s22, keys ascending within
    each series (the order of :func:`enumerate_eta`).  The arguments are
    checked once, rho first.
    """
    _check_rho(rho)
    _check_index("iota", iota)
    return [
        (key, _matrix(rho, op, om, key.c, key.d))
        for tag in SERIES_TAGS
        for op, om, keys in _iter_blocks(SERIES_IDS[rho, tag], iota)
        for key in keys
    ]
