"""Scrambling a defining matrix and recovering its normal form.

Admissible operations (row additions into the last row, column swaps
within arms, arm-block swaps, last-row negation) never change the surface.
canonicalize() undoes any combination of them: it reduces the third row,
lists the finite symmetry orbit of the parameters and returns the first
element satisfying the normal-form inequalities, which is the only one
(proved in tests/test_normal_form.py).
"""

import random

from fiqs import (
    AdmissibleOp,
    DefiningMatrix,
    apply_op,
    canonicalize,
    classify,
    raw_from_matrix,
    validate,
)
from fiqs.canon import parameter_orbit

m = DefiningMatrix(3, 5, -1, -3, -2)
print(f"start from the normal form {m.params()}  ({classify(m).series.tag}, eta={classify(m).eta()})")

raw = raw_from_matrix(m)
script = [
    AdmissibleOp("negate_last_row"),
    AdmissibleOp("add_row", row=1, multiplier=2),
    AdmissibleOp("swap_arms", arms=(1, 2)),
    AdmissibleOp("add_row", row=2, multiplier=-1),
    AdmissibleOp("swap_within_arm", arm=0),
]
for op in script:
    raw = apply_op(raw, op)
    print(f"  after {op.kind:18s} third row = {raw.third_row}")

recovered = canonicalize(raw)
print(f"canonicalize() recovers {recovered.params()}  (equal to the start: {recovered == m})")

print()
print("the symmetry orbit of the parameters, with the inequality report per element:")
for p in sorted(parameter_orbit(3, m.params())):
    bad = validate(3, *p)
    verdict = "normal form" if not bad else f"violates {', '.join(bad)}"
    print(f"  {p}  ->  {verdict}")

print()
print("random scrambles, recovered every time:")
rng = random.Random(5)
for trial in range(5):
    raw = raw_from_matrix(m)
    n = rng.randint(1, 6)
    for _ in range(n):
        kind = rng.choice(["add_row", "negate_last_row", "swap_arms", "swap_within_arm"])
        if kind == "add_row":
            op = AdmissibleOp("add_row", row=rng.choice((1, 2)), multiplier=rng.randint(-3, 3))
        elif kind == "swap_arms":
            op = AdmissibleOp("swap_arms", arms=rng.choice([(0, 1), (0, 2), (1, 2)]))
        elif kind == "swap_within_arm":
            op = AdmissibleOp("swap_within_arm", arm=rng.choice((0, 1, 2)))
        else:
            op = AdmissibleOp("negate_last_row")
        raw = apply_op(raw, op)
    print(f"  {n} ops -> {raw.third_row} -> {canonicalize(raw).params()}")
