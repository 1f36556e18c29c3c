"""The four workloads: inputs from the seed, one timed pass, its gate.

Each workload has ``setup(seed, size)`` (input generation, counted in
``setup_s``), ``run_pass(inputs)`` (the timed work; returns its outputs),
``reference(inputs)`` (expectations computed once, outside the timed
region) and ``check(inputs, output, reference)`` (a list of errors).  The
program is reached through module attributes at call time
(``canon.canonicalize``), as its own callers reach it, so a traced pass
sees the tracer's wrappers.

``size`` is "full" for measurements and "tiny" for the self-tests.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import os
import random
import tempfile
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import gates

# Scratch files of a run (census plot data) go here, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / "out"


def fiqs_module(short: str):
    return importlib.import_module(f"fiqs.{short}")


def call_cli(argv: list[str], sink) -> tuple[int, str]:
    """``fiqs.cli.main(argv)`` with stdout into ``sink``; returns (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        try:
            rc = fiqs_module("cli").main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, err.getvalue()


class HashSink:
    """Text sink that only hashes and counts what is written."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def write(self, text: str) -> int:
        data = text.encode("ascii")
        self._hash.update(data)
        self.bytes += len(data)
        self.lines += data.count(b"\n")
        return len(text)

    def flush(self) -> None:
        pass

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class PassOutput:
    """What a pass produced; ``items`` is the number of items it completed.

    Where items are timed one by one, ``item_seconds`` holds their times and
    ``item_ends`` the ``perf_counter`` instant each ended.
    """

    items: int
    data: object
    item_seconds: array = field(default_factory=lambda: array("d"))
    item_ends: array = field(default_factory=lambda: array("d"))
    io_bytes: int = 0


# ---------------------------------------------------------------------------
# census: closed-form counting through `fiqs count --plot-data`
# ---------------------------------------------------------------------------


class Census:
    name = "census"
    sizes = {"full": {"iota_max": 1000, "brute_cap": 40}, "tiny": {"iota_max": 200, "brute_cap": 8}}

    def setup(self, seed: int, size: str) -> dict:
        return dict(self.sizes[size])

    def run_pass(self, inputs: dict) -> PassOutput:
        out = []
        WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            for rho in (1, 2, 3):
                plot = os.path.join(tmp, f"plot_rho{rho}.txt")
                table = io.StringIO()
                rc, _ = call_cli(
                    ["count", "--rho", str(rho), "--iota-max", str(inputs["iota_max"]), "--plot-data", plot],
                    table,
                )
                plot_text = Path(plot).read_text(encoding="ascii") if os.path.exists(plot) else ""
                out.append((rho, rc, table.getvalue(), plot_text))
        return PassOutput(items=3 * inputs["iota_max"], data=out)

    def reference(self, inputs: dict) -> dict:
        enumerate_all = fiqs_module("series").enumerate_all
        cap = inputs["brute_cap"]
        return {rho: {i: len(enumerate_all(rho, i)) for i in range(1, cap + 1)} for rho in (1, 2, 3)}

    def check(self, inputs: dict, output: PassOutput, ref: dict) -> list[str]:
        errors = []
        for rho, rc, table, plot in output.data:
            errors += gates.check_census(rho, inputs["iota_max"], rc, table, plot, ref[rho])
        return errors


# ---------------------------------------------------------------------------
# export: the record write path through `fiqs enumerate`
# ---------------------------------------------------------------------------


class Export:
    name = "export"
    sizes = {
        "full": ((3, 30, "jsonl"), (2, 100, "csv"), (1, 200, "jsonl")),
        "tiny": ((3, 5, "jsonl"), (2, 9, "csv"), (1, 12, "jsonl")),
    }

    def setup(self, seed: int, size: str) -> dict:
        return {"configs": self.sizes[size]}

    def run_pass(self, inputs: dict) -> PassOutput:
        out = []
        records = nbytes = 0
        for rho, iota_max, fmt in inputs["configs"]:
            sink = HashSink()
            rc, err = call_cli(
                ["enumerate", "--rho", str(rho), "--iota-max", str(iota_max), "--format", fmt], sink
            )
            n = sink.lines - (fmt == "csv")  # the CSV header row is not a record
            out.append(((rho, iota_max, fmt), rc, sink.hexdigest(), n, err))
            records += n
            nbytes += sink.bytes
        return PassOutput(items=records, data=out, io_bytes=nbytes)

    def reference(self, inputs: dict) -> dict:
        count = fiqs_module("census").count
        return {config: count(config[0], config[1]).total for config in inputs["configs"]}

    def check(self, inputs: dict, output: PassOutput, ref: dict) -> list[str]:
        errors = []
        for config, rc, digest, records, err in output.data:
            errors += gates.check_export(config, rc, digest, records, err, ref[config])
        return errors


# ---------------------------------------------------------------------------
# ingest: canonicalize scrambled matrices, decode JSONL lines and CSV rows
# ---------------------------------------------------------------------------

# The matrix shape of the classification, per rho: the arms with two columns
# (whose columns can be swapped, or made to coincide) and the pairs of
# structurally identical arms that can be exchanged.
TWO_COLUMN_ARMS = {1: ((0, 1),), 2: ((0, 1), (2, 3)), 3: ((0, 1), (2, 3), (4, 5))}
SWAPPABLE_ARMS = {1: ((1, 2),), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
CORRUPT_SHARE = 0.05
INGEST_IOTA_MAX = 30


def random_op(rng: random.Random, rho: int):
    canon = fiqs_module("canon")
    kind = rng.choice(("add_row", "swap_within_arm", "swap_arms", "negate_last_row"))
    if kind == "add_row":
        return canon.AdmissibleOp("add_row", row=rng.choice((1, 2)), multiplier=rng.choice((-3, -2, -1, 1, 2, 3)))
    if kind == "swap_within_arm":
        return canon.AdmissibleOp("swap_within_arm", arm=rng.randrange(len(TWO_COLUMN_ARMS[rho])))
    if kind == "swap_arms":
        return canon.AdmissibleOp("swap_arms", arms=rng.choice(SWAPPABLE_ARMS[rho]))
    return canon.AdmissibleOp("negate_last_row")


def corrupt(rng: random.Random, raw):
    """Make the two columns of one arm coincide: no normal form exists."""
    i, j = rng.choice(TWO_COLUMN_ARMS[raw.rho])
    row = list(raw.third_row)
    row[j] = row[i]
    return type(raw)(raw.rho, tuple(row))


@dataclass
class IngestInputs:
    raws: list  # RawMatrix per row, what the program receives
    expected: list  # (key, matrix) per row, None for a corrupted row
    json_lines: list[str]
    json_records: list
    csv_lines: list[str]
    csv_records: list
    corrupt_share: float


def make_ingest_inputs(seed: int, rows: int, lines: int) -> IngestInputs:
    """Seeded inputs: scrambled normal forms with iota <= 30, ~5 % corrupted, and encoded records.

    rho is drawn uniformly, then a normal form of that rho uniformly; each
    row is scrambled by 1-8 random admissible moves.
    """
    series, canon, invariants, census = (fiqs_module(m) for m in ("series", "canon", "invariants", "census"))
    rng = random.Random(seed)
    forms = {
        rho: [pair for iota in range(1, INGEST_IOTA_MAX + 1) for pair in series.enumerate_all(rho, iota)]
        for rho in (1, 2, 3)
    }

    def draw():
        return rng.choice(forms[rng.choice((1, 2, 3))])

    corrupted = set(rng.sample(range(rows), round(rows * CORRUPT_SHARE)))
    raws, expected = [], []
    for i in range(rows):
        key, m = draw()
        raw = canon.raw_from_matrix(m)
        for _ in range(rng.randint(1, 8)):
            raw = canon.apply_op(raw, random_op(rng, m.rho))
        if i in corrupted:
            raw = corrupt(rng, raw)
        raws.append(raw)
        expected.append(None if i in corrupted else (key, m))

    cache = {}

    def record():
        key, m = draw()
        if key not in cache:
            cache[key] = invariants.surface_record(key, m)
        return cache[key]

    json_records = [record() for _ in range(lines)]
    json_lines = [census.record_to_json_line(r) for r in json_records]
    csv_records = [record() for _ in range(lines)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for r in csv_records:
        writer.writerow(census.record_to_csv_row(r))
    csv_lines = buf.getvalue().splitlines()
    return IngestInputs(raws, expected, json_lines, json_records, csv_lines, csv_records, len(corrupted) / rows)


class Ingest:
    name = "ingest"
    sizes = {"full": (20000, 10000), "tiny": (200, 50)}

    def setup(self, seed: int, size: str) -> IngestInputs:
        return make_ingest_inputs(seed, *self.sizes[size])

    def run_pass(self, inputs: IngestInputs) -> PassOutput:
        canon, invariants, census = (fiqs_module(m) for m in ("canon", "invariants", "census"))
        times, ends = array("d"), array("d")
        rows = []
        for raw in inputs.raws:
            t0 = perf_counter()
            try:
                m = canon.canonicalize(raw)
                key = canon.classify(m)
                result = (m, key, invariants.record_from_matrix(m))
            except Exception as exc:  # expected rejects and failures alike; the gate tells them apart
                result = exc
            t1 = perf_counter()
            times.append(t1 - t0)
            ends.append(t1)
            rows.append(result)
        decoded_json = [_decode(census.record_from_json_line, line) for line in inputs.json_lines]
        decoded_csv = [_decode(census.record_from_csv_row, row) for row in csv.reader(inputs.csv_lines)]
        nbytes = sum(len(s) + 1 for s in inputs.json_lines) + sum(len(s) + 1 for s in inputs.csv_lines)
        return PassOutput(
            items=len(rows) + len(decoded_json) + len(decoded_csv),
            data=(rows, decoded_json, decoded_csv),
            item_seconds=times,
            item_ends=ends,
            io_bytes=nbytes,
        )

    def reference(self, inputs: IngestInputs) -> None:
        return None

    def check(self, inputs: IngestInputs, output: PassOutput, ref: None) -> list[str]:
        rows, decoded_json, decoded_csv = output.data
        return (
            gates.check_ingest_rows(inputs.expected, rows)
            + gates.check_ingest_decoded("jsonl", inputs.json_records, decoded_json)
            + gates.check_ingest_decoded("csv", inputs.csv_records, decoded_csv)
        )


def _decode(reader, item):
    try:
        return reader(item)
    except Exception as exc:  # counted by the gate as a wrong record
        return exc


# ---------------------------------------------------------------------------
# verify: the oracle layer through `fiqs verify`
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    sizes = {"full": 12, "tiny": 3}

    def setup(self, seed: int, size: str) -> dict:
        iota_max = self.sizes[size]
        count = fiqs_module("census").count
        # verify checks every surface up to min(iota_max, 50) against the oracles
        surfaces = sum(count(rho, min(iota_max, 50)).total for rho in (1, 2, 3))
        return {"iota_max": iota_max, "surfaces": surfaces}

    def run_pass(self, inputs: dict) -> PassOutput:
        report = io.StringIO()
        rc, _ = call_cli(["verify", "--iota-max", str(inputs["iota_max"])], report)
        return PassOutput(items=inputs["surfaces"], data=(rc, report.getvalue()))

    def reference(self, inputs: dict) -> None:
        return None

    def check(self, inputs: dict, output: PassOutput, ref: None) -> list[str]:
        rc, report = output.data
        return gates.check_verify(inputs["iota_max"], rc, report)


WORKLOADS = {w.name: w for w in (Census(), Export(), Ingest(), Verify())}
