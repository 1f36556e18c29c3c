"""Census at full scale, plot data and record export.

Counting uses closed forms per (series, iota+, iota-), so the complete
census up to Gorenstein index 200 (15.5 million surfaces) takes a fraction
of a second and never materializes a record.  Export streams records in a
fixed JSONL / CSV schema.  Reading a record back parses only its key and
rebuilds the record, so a line whose invariants do not belong to its key
is rejected, with the first wrong field named.
"""

import io
import time

from fiqs import (
    count,
    emit_plot_data,
    export_records,
    record_from_json_line,
    verify_claims,
)

t0 = time.perf_counter()
tables = {rho: count(rho, 200) for rho in (1, 2, 3)}
elapsed = time.perf_counter() - t0

print(f"census up to Gorenstein index 200 in {elapsed * 1000:.1f} ms:")
for rho, table in tables.items():
    print(f"  rho={rho}: {table.total:>10,} surfaces, {table.ke_total:>9,} Kaehler-Einstein")
print(f"  total : {sum(t.total for t in tables.values()):>10,}")

print()
print("plot data (iota, cumulative) for the filtration figures, first lines:")
sink = io.StringIO()
emit_plot_data(1, 200, sink)
lines = sink.getvalue().splitlines()
print("  " + " | ".join(lines[:6]) + " | ... | " + lines[-1])

print()
print("JSONL export of everything with iota <= 2 at Picard number three:")
sink = io.StringIO()
n = export_records(3, 2, "jsonl", sink)
print(f"  {n} records")
for line in sink.getvalue().splitlines()[:4]:
    print(f"  {line}")

print()
print("records round-trip exactly:")
line = sink.getvalue().splitlines()[0]
rec = record_from_json_line(line)
print(f"  parsed degree {rec.degree} (exact fraction), key {rec.key.series.tag}{rec.key.eta()}")

print()
print("a line whose Picard index was edited is rejected:")
tampered = line.replace(f'"picard_index":{rec.picard_index},', f'"picard_index":{rec.picard_index + 1},')
try:
    record_from_json_line(tampered)
except ValueError as exc:
    print(f"  ValueError: {exc}")

print()
print("claim verification at small scale (add --iota-max 200 for the full census):")
report = verify_claims(5)
print("  " + report.to_text().strip().splitlines()[-1])
