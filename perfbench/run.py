"""Benchmark of the fiqs package: one workload per invocation.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory (nothing to build).  With ``--trace 0`` the
workload's passes run untraced for ``--seconds`` and the end-to-end metrics
are reported.  With ``--trace 1`` untraced passes run for half of
``--seconds``, then one pass runs under the span tracer and the per-layer
metrics are reported.  Every pass is checked by the workload's correctness
gate outside the timed region.

Times are in reference seconds: the CPU speed is sampled while each span is
measured and the span is scaled by it (see ``speed.py``); the raw wall
times and the scales go to the results file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file with
the same metrics plus a run stamp (Python version, git revision, source
digest, nproc, load average at start) goes to ``perfbench/out/``; the
traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.layers import EXPECTED_LABELS, TracedRun, per_layer_metrics  # noqa: E402
from perfbench.tracer import LAYER_MODULES, SpanTracer  # noqa: E402
from perfbench.workloads import WORK_DIR, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
# Set-up runs this many times per invocation: once here, the rest in fresh
# processes, so that the import is cold each time; setup_s is their median.
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_us", "us"),
    ("peak_rss_mb", "MB"),
)
MAX_REPORTED_ERRORS = 20


class ProgramMissing(Exception):
    """The checkout holds no fiqs sources to benchmark."""


def load_program() -> None:
    """Import fiqs and its layer modules from ``src/`` of this checkout, never from elsewhere."""
    package = SRC / "fiqs"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no fiqs package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fiqs = importlib.import_module("fiqs")
    if Path(fiqs.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"fiqs was imported from {fiqs.__file__}, not from {package}")
    for short in LAYER_MODULES:
        importlib.import_module(f"fiqs.{short}")


def timed_setup(workload, seed: int, size: str):
    """(set-up time in reference seconds, raw seconds, inputs)."""
    with speed.SpeedSampler() as sampler:
        load_program()
        inputs = workload.setup(seed, size)
    return sampler.seconds * sampler.scale, sampler.seconds, inputs


def child_setup_seconds(args) -> float:
    """Set-up time (reference seconds) in a fresh interpreter running this script with --setup-only."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fiqs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "platform": platform.platform(),
    }


class GcClock:
    """``gc.callbacks`` hook: collections and time spent collecting."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        elif self._start is not None:
            self.seconds += perf_counter() - self._start
            self.collections += 1
            self._start = None


@dataclass
class Passes:
    """Untraced passes of one workload and what their gates found.

    ``walls`` are raw wall times; ``scales`` turn each into reference
    seconds (see :mod:`perfbench.speed`).  Per-item times are kept as one
    median and one 99th percentile per pass (in reference seconds), so
    memory does not grow with the number of passes.
    """

    walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    items: int = 0  # items per pass
    item_p50s: list[float] = field(default_factory=list)
    item_p99s: list[float] = field(default_factory=list)
    gc_seconds: list[float] = field(default_factory=list)
    gc_collections: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ref_walls(self) -> list[float]:
        return [w * s for w, s in zip(self.walls, self.scales)]

    def gate(self, workload, inputs, output, ref) -> None:
        errors = workload.check(inputs, output, ref)
        self.attempted += max(output.items, 1)
        self.failed += min(len(errors), max(output.items, 1))
        self.errors.extend(errors[: MAX_REPORTED_ERRORS - len(self.errors)])

    def crashed(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(traceback.format_exc())


def sampled_pass(workload, inputs):
    """One pass under the speed sampler: (output, sampler)."""
    with speed.SpeedSampler() as sampler:
        output = workload.run_pass(inputs)
    return output, sampler


def run_passes(workload, inputs, ref, seconds: float, passes: Passes) -> None:
    """Untraced passes until the next one would end after ``seconds`` of measured time."""
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        while True:
            gc.collect()
            clock.seconds, clock.collections = 0.0, 0
            try:
                output, sampler = sampled_pass(workload, inputs)
            except Exception:  # a crashing pass is a failure to report, not a reason to stop silently
                passes.crashed()
                return
            passes.walls.append(sampler.seconds)
            passes.scales.append(sampler.scale)
            passes.gc_seconds.append(clock.seconds * sampler.scale)
            passes.gc_collections.append(clock.collections)
            passes.items = output.items
            if output.item_seconds:
                scales = sampler.scales_at(output.item_ends)
                times = sorted(t * s for t, s in zip(output.item_seconds, scales))
                passes.item_p50s.append(median(times))
                passes.item_p99s.append(times[int(0.99 * (len(times) - 1))])
            passes.gate(workload, inputs, output, ref)
            del output  # do not hold two passes' outputs at once
            if sum(passes.walls) + median(passes.walls) > seconds:
                return
    finally:
        gc.callbacks.remove(clock)


def end_to_end_metrics(setup_samples: list[float], passes: Passes) -> dict:
    pass_s = median(passes.ref_walls)
    if passes.item_p50s:
        item_p50 = median(passes.item_p50s)
    else:  # items are not observable one by one: time per item of the pass
        item_p50 = pass_s / passes.items
    values = {
        "setup_s": median(setup_samples),
        "pass_s": pass_s,
        "items_per_s": passes.items / pass_s,
        "item_p50_us": item_p50 * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_metrics(args, workload, inputs, ref, passes: Passes, report: dict) -> dict:
    run_passes(workload, inputs, ref, args.seconds / 2, passes)
    if not passes.walls:
        return {}
    tracer = SpanTracer(EXPECTED_LABELS)
    gc.collect()
    try:
        with tracer:
            output, sampler = sampled_pass(workload, inputs)
    except Exception:
        passes.crashed()
        return {}
    passes.gate(workload, inputs, output, ref)
    spans_path = WORK_DIR / f"{args.workload}-seed{args.seed}.spans"
    tracer.write(spans_path)
    report.update(absent=tracer.absent, aliases=tracer.aliases, spans_file=str(spans_path))
    run = TracedRun(
        tracer=tracer,
        scale=sampler.scale,
        items=output.items,
        io_bytes=output.io_bytes,
        traced_pass_s=sampler.seconds * sampler.scale,
        untraced_pass_s=passes.ref_walls,
        gc_seconds=passes.gc_seconds,
        gc_collections=passes.gc_collections,
        item_p99_us=median(passes.item_p99s) * 1e6 if args.workload == "ingest" else 0.0,
        fail_ratio=passes.failed / passes.attempted,
    )
    return per_layer_metrics(run)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            seconds, raw, _ = timed_setup(workload, args.seed, args.size)
            print(json.dumps({"setup_s": seconds, "raw_s": raw}))
            return 0
        stamp = run_stamp()
        seconds, _, inputs = timed_setup(workload, args.seed, args.size)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_samples = [seconds]
    if not args.trace:
        setup_samples += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    WORK_DIR.mkdir(exist_ok=True)

    ref = workload.reference(inputs)
    passes, report = Passes(), {}
    if args.trace:
        metrics = traced_metrics(args, workload, inputs, ref, passes, report)
    else:
        run_passes(workload, inputs, ref, args.seconds, passes)
        metrics = end_to_end_metrics(setup_samples, passes) if passes.walls else {}
    correct = passes.failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": passes.attempted, "failed": passes.failed, "metrics": metrics}

    report.update(
        stamp=stamp,
        args=vars(args),
        setup_samples_s=setup_samples,
        pass_walls_s=passes.walls,
        pass_scales=passes.scales,
        pass_item_p50s_s=passes.item_p50s,
        items_per_pass=passes.items,
        errors=passes.errors,
        **result,
    )
    results_path = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for error in passes.errors:
        print(f"gate: {error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
