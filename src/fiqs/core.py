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
        for x, y in zip(fac, fac[1:]):
            if x == 0 and y != 0:
                raise ValueError("zero factor followed by nonzero factor")
            if x != 0 and y % x != 0:
                raise ValueError(f"divisibility chain violated: {x} does not divide {y}")
        if self.rank != sum(1 for f in fac if f != 0):
            raise ValueError("rank does not match number of nonzero factors")

    @property
    def torsion_order(self) -> int:
        """Product of the invariant factors that exceed 1."""
        t = 1
        for f in self.invariant_factors:
            if f > 1:
                t *= f
        return t


def solve3(m: IntMatrix, rhs: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
    """Solve ``m^T u = rhs`` exactly, i.e. find u with <u, column_j(m)> = rhs[j].

    Cramer's rule on integers: u_i = <rhs, c_i> / det(m), where c_i is the
    cross product of the two rows of m other than row i (its cofactor row).
    Raises on singular input.
    """
    if m.rows != 3 or m.cols != 3:
        raise ValueError(f"solve3 requires a 3x3 matrix, got {m.rows}x{m.cols}")
    if len(rhs) != 3:
        raise ValueError("rhs must have length 3")
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = m.entries
    # cofactor rows: b x c, c x a, a x b for the rows a, b, c of m
    u0, u1, u2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    v0, v1, v2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    w0, w1, w2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    det = a0 * u0 + a1 * u1 + a2 * u2
    if det == 0:
        raise ValueError("singular matrix")
    r0, r1, r2 = rhs
    return (
        Fraction(r0 * u0 + r1 * u1 + r2 * u2, det),
        Fraction(r0 * v0 + r1 * v1 + r2 * v2, det),
        Fraction(r0 * w0 + r1 * w1 + r2 * w2, det),
    )


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form via elementary row/column operations.

    Returns the full diagonal of invariant factors (length min(rows, cols),
    zeros at the end for rank-deficient input), normalized nonnegative.
    """
    a = m.to_lists()
    nr, nc = m.rows, m.cols
    n = min(nr, nc)
    factors: list[int] = []

    for t in range(n):
        while True:
            # smallest nonzero entry of the trailing block becomes the pivot;
            # none is below 1, so the scan stops at the first unit
            best = pi = pj = 0
            for i in range(t, nr):
                row = a[i]
                for j in range(t, nc):
                    v = abs(row[j])
                    if v and (not best or v < best):
                        best, pi, pj = v, i, j
                        if v == 1:
                            break
                if best == 1:
                    break
            if not best:
                factors.extend([0] * (n - t))
                return SmithForm(tuple(factors), len([f for f in factors if f != 0]))
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            pivot_row = a[t]
            p = pivot_row[t]

            # reduce column t below the pivot, one row operation per row; a
            # remainder left there is the next, smaller pivot
            dirty = False
            for i in range(t + 1, nr):
                row = a[i]
                if row[t] != 0:
                    q = row[t] // p
                    a[i] = row = [x - q * y for x, y in zip(row, pivot_row)]
                    dirty = dirty or row[t] != 0
            if dirty:
                continue

            # column t is zero below the pivot, so the column operations that
            # reduce row t change row t alone: each entry becomes its remainder
            # mod p, zero for a unit pivot
            rest = [0] * (nc - t - 1) if best == 1 else [x % p for x in pivot_row[t + 1 :]]
            pivot_row[t + 1 :] = rest
            if any(rest):
                continue
            if best == 1:
                break  # a unit divides every entry: the divisibility chain holds

            # enforce the divisibility chain: pivot must divide the rest
            culprit = next((row for row in a[t + 1 :] if any(x % p for x in row[t + 1 :])), None)
            if culprit is None:
                break
            a[t] = [x + y for x, y in zip(pivot_row, culprit)]

        factors.append(abs(a[t][t]))

    return SmithForm(tuple(factors), len([f for f in factors if f != 0]))
