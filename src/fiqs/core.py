"""Exact integer and rational arithmetic kernel.

Everything in this module is pure and exact: rationals are
:class:`fractions.Fraction` (always stored reduced, with positive
denominator), integers are Python ints.  Since Python integers are
arbitrary precision, the arithmetic here cannot silently wrap; any
quantity that fits the problem domain (products up to ~10**14 for the
largest Picard indices in range) is represented exactly.  There is no
floating point anywhere.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

__all__ = [
    "IntMatrix",
    "SmithForm",
    "solve3",
    "smith_normal_form",
    "value_class",
]

def _slot_init(cls: type) -> Callable[..., None]:
    """The ``__init__`` of a slotted dataclass that stores each field through its slot descriptor.

    Compiled from text, as ``dataclasses`` compiles its own: the setters and
    defaults are closure cells and the module is the globals, so the
    annotations resolve as they do on the generated method.
    """
    fs = fields(cls)
    for f in fs:
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"value_class {cls.__name__}: field {f.name!r} needs the generated __init__")
    cells = {f"_set_{f.name}": vars(cls)[f.name].__set__ for f in fs}
    cells.update({f"_default_{f.name}": f.default for f in fs if f.default is not MISSING})
    params = "".join(f", {f.name}" if f.default is MISSING else f", {f.name}=_default_{f.name}" for f in fs)
    body = [f"_set_{f.name}(self, {f.name})" for f in fs]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    lines = [f"def make({', '.join(cells)}):", f"    def __init__(self{params}):", *(f"        {b}" for b in body)]
    made: dict[str, Callable[..., Callable[..., None]]] = {}
    exec("\n".join([*lines, "    return __init__"]), sys.modules[cls.__module__].__dict__, made)
    init = made["make"](**cells)
    init.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def value_class(cls: type | None = None, /, *, order: bool = False) -> type | Callable[[type], type]:
    """``dataclass(frozen=True, slots=True, order=order)``, with an ``__init__`` that stores through the slots.

    The ``__init__`` that ``dataclass`` generates for a frozen class stores
    each field by ``object.__setattr__(self, name, value)``, which looks the
    name up in the type on every call, and the record paths build several
    such values per surface.  The installed ``__init__`` calls each slot's
    member descriptor (``cls.__dict__[name].__set__``, bound once per class),
    which skips that lookup and the frozen ``__setattr__``, and then runs
    ``__post_init__`` as the generated one does.  Its parameters, their order,
    defaults and annotations are the generated ones; equality, hashing,
    ordering, ``repr``, pickling and ``dataclasses.replace`` are
    ``dataclass``'s own.  A field it does not handle (``default_factory``,
    ``init=False``, ``kw_only``) is a TypeError when the class is decorated.
    """

    def wrap(cls: type) -> type:
        cls = dataclass(cls, frozen=True, order=order, slots=True)
        cls.__init__ = _slot_init(cls)
        return cls

    return wrap if cls is None else wrap(cls)


@value_class
class IntMatrix:
    """Immutable integer matrix with row-major entries."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.rows) is not int or type(self.cols) is not int:  # a bool is not an int
            name = "rows" if type(self.rows) is not int else "cols"
            raise ValueError(f"IntMatrix field {name!r} must be an int, got {getattr(self, name)!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if not isinstance(self.entries, tuple):  # a list would make an unhashable value
            raise ValueError(f"IntMatrix field 'entries' must be a tuple, got {self.entries!r}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(f"expected {self.rows * self.cols} entries, got {len(self.entries)}")
        if not {int}.issuperset(map(type, self.entries)):  # one pass; a bool is not an int
            k, x = next((k, x) for k, x in enumerate(self.entries) if type(x) is not int)
            raise ValueError(f"entry {k % self.cols + 1} of row {k // self.cols + 1} must be an int, got {x!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> IntMatrix:
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(x for r in rows for x in r))

    def row(self, i: int) -> tuple[int, ...]:
        """Row i, counted from 0; IndexError unless 0 <= i < rows."""
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} of a matrix with {self.rows} rows")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


@value_class
class SmithForm:
    """Invariant factors d1 | d2 | ... of an integer matrix; rank = number of nonzero factors."""

    invariant_factors: tuple[int, ...]
    rank: int

    def __post_init__(self) -> None:
        fac = self.invariant_factors
        if type(fac) is not tuple:  # a list would make an unhashable value
            raise ValueError(f"SmithForm field 'invariant_factors' must be a tuple, got {fac!r}")
        if not {int}.issuperset(map(type, fac)):  # a bool is not an int
            x = next(x for x in fac if type(x) is not int)
            raise ValueError(f"SmithForm field 'invariant_factors' must hold ints, got {x!r}")
        if fac and min(fac) < 0:
            raise ValueError(f"SmithForm field 'invariant_factors' must be nonnegative, got {fac!r}")
        if type(self.rank) is not int:
            raise ValueError(f"SmithForm field 'rank' must be an int, got {self.rank!r}")
        nonzero = fac.index(0) if 0 in fac else len(fac)
        for x, y in zip(fac, fac[1:nonzero]):
            if y % x:
                raise ValueError(f"divisibility chain violated: {x} does not divide {y}")
        if any(fac[nonzero:]):
            raise ValueError("zero factor followed by nonzero factor")
        if self.rank != nonzero:
            raise ValueError("rank does not match number of nonzero factors")

    @property
    def torsion_order(self) -> int:
        """Product of the invariant factors that exceed 1."""
        t = 1
        for f in self.invariant_factors:
            if f > 1:
                t *= f
        return t


def _cramer3(entries: Sequence[int], rhs: Sequence[int]) -> tuple[int, int, int, int]:
    """Cramer's rule for ``m^T u = rhs`` on the nine row-major int entries of m: (n0, n1, n2, det), u_i = n_i / det.

    n_i = <rhs, c_i>, where c_i is the cross product of the two rows of m
    other than row i (its cofactor row), and det = det(m), of either sign;
    nothing is reduced.  ValueError on a singular matrix.  The only copy of
    the cofactor formulas: :func:`solve3` makes its ``Fraction``s from this,
    and :func:`~fiqs.invariants.local_gorenstein_oracle` reads only the
    denominators, from the integers.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = entries
    # cofactor rows: b x c, c x a, a x b for the rows a, b, c of m
    u0, u1, u2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    v0, v1, v2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    w0, w1, w2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * u0 + a1 * u1 + a2 * u2
    if det == 0:
        raise ValueError("singular matrix")
    r0, r1, r2 = rhs
    return r0 * u0 + r1 * u1 + r2 * u2, r0 * v0 + r1 * v1 + r2 * v2, r0 * w0 + r1 * w1 + r2 * w2, det


def solve3(m: IntMatrix, rhs: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
    """Solve ``m^T u = rhs`` exactly, i.e. find u with <u, column_j(m)> = rhs[j].

    Cramer's rule on integers (``_cramer3``), one ``Fraction`` per
    coordinate of u.  ValueError on a matrix that is not 3x3, on a singular
    one, and on a rhs that is not three ints (a bool is not an int): the
    message names the entry, as the check of an ``IntMatrix`` row does.
    """
    if m.rows != 3 or m.cols != 3:
        raise ValueError(f"solve3 requires a 3x3 matrix, got {m.rows}x{m.cols}")
    try:
        row = IntMatrix(1, 3, tuple(rhs))
    except (TypeError, ValueError) as exc:  # not iterable, not of length 3, or an entry that is no int
        raise ValueError(f"rhs must be a sequence of length 3 of ints: {exc}") from None
    n0, n1, n2, det = _cramer3(m.entries, row.entries)
    return Fraction(n0, det), Fraction(n1, det), Fraction(n2, det)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form by one elimination loop over a shrinking list of rows.

    Returns the full diagonal of invariant factors (length min(rows, cols),
    zeros at the end for rank-deficient input), normalized nonnegative.

    Each pass picks a pivot in what is left of the matrix, a unit (±1) if
    there is one.  A unit pivot clears its column with one row operation per
    other row; the column operations that would clear its row change no other
    row, so its row and column are dropped, the rest is the Schur complement,
    and the factor is 1 (a unit divides every entry).  A remainder of one row
    or one column is one factor, the gcd of its entries.  Only a pivot of
    least absolute value above 1 runs the remainder steps: an entry left in
    its column or row (mod the pivot) becomes the next, smaller pivot, and a
    row with an entry it does not divide is added to its row (the
    divisibility chain); once neither happens its row and column are dropped
    with the factor |pivot|, and every entry left is a multiple of it.
    """
    n, c = min(m.rows, m.cols), m.cols
    a = [list(m.entries[i : i + c]) for i in range(0, m.rows * c, c)] if n else []
    factors: list[int] = []
    while a:
        if len(a) == 1:
            factors.append(gcd(*a[0]))
            break
        if len(a[0]) == 1:
            factors.append(gcd(*(row[0] for row in a)))
            break
        for pi, pivot_row in enumerate(a):
            if 1 in pivot_row:
                p, pj = 1, pivot_row.index(1)
                break
            if -1 in pivot_row:
                p, pj = -1, pivot_row.index(-1)
                break
        else:
            nonzero = ((abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x)
            p, pi, pj = min(nonzero, default=(0, 0, 0))
            if not p:
                break
            pivot_row = a[pi]
            p = pivot_row[pj]
        # clear the pivot's column, one row operation per row; for a unit
        # pivot the quotient x // p is exact and nothing is left
        dirty = False
        for i, row in enumerate(a):
            v = row[pj]
            if v and i != pi:
                q = v // p
                a[i] = row = [x - q * y for x, y in zip(row, pivot_row)]
                dirty = dirty or row[pj] != 0
        if p != 1 and p != -1:
            if dirty:
                continue
            # the column is clear, so the column operations that reduce the
            # pivot's row change that row alone: each entry becomes its
            # remainder mod p
            a[pi] = pivot_row = [x % p for x in pivot_row]
            pivot_row[pj] = p
            if any(pivot_row[:pj]) or any(pivot_row[pj + 1 :]):
                continue
            culprit = next((row for row in a if any(x % p for x in row)), None)
            if culprit is not None:
                a[pi] = [x + y for x, y in zip(pivot_row, culprit)]
                continue
        factors.append(abs(p))
        del a[pi]
        for row in a:
            del row[pj]
    factors.extend([0] * (n - len(factors)))
    return SmithForm(tuple(factors), n - factors.count(0))
