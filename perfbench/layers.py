"""Per-layer metrics of the traced run.

Times are in reference seconds (see :mod:`perfbench.speed`).

Each entry names the metric, its unit, which direction is better, and how
it is read from the traced pass.  The comment above each group says which
end-to-end metric and workload the group should move, so a change to one
layer can name in advance the numbers it expects to change.

``calls_per_record`` divides by the items of the traced pass (records for
``export``, inputs for ``ingest``); its seed values on ``export`` are
exact: validate 7, matrix_from_eta 2, series_membership 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Callable

from perfbench.tracer import SpanTracer


@dataclass
class TracedRun:
    """Everything a per-layer metric may read."""

    tracer: SpanTracer
    scale: float  # raw seconds of the traced pass -> reference seconds
    items: int  # items of the traced pass
    io_bytes: int  # bytes encoded (export) or decoded (ingest) by the traced pass
    traced_pass_s: float
    untraced_pass_s: list[float]
    gc_seconds: list[float]  # per untraced pass
    gc_collections: list[int]  # per untraced pass
    item_p99_us: float  # ingest rows, median over the untraced passes; 0 on other workloads
    fail_ratio: float


def _self_s(label: str) -> Callable[[TracedRun], float]:
    return lambda r: r.tracer.stat(label).self_ns * r.scale / 1e9


def _calls(label: str) -> Callable[[TracedRun], int]:
    return lambda r: r.tracer.stat(label).calls


def _mean_us(label: str) -> Callable[[TracedRun], float]:
    def read(r: TracedRun) -> float:
        s = r.tracer.stat(label)
        return s.total_ns * r.scale / s.calls / 1e3 if s.calls else 0.0

    return read


def _per_record(label: str) -> Callable[[TracedRun], float]:
    return lambda r: r.tracer.stat(label).calls / r.items if r.items else 0.0


def _validate_hit_ratio(r: TracedRun) -> float:
    """Normal forms found per orbit element validated inside canonicalize."""
    canon = r.tracer.stat("canon.canonicalize")
    validated = r.tracer.calls_under("canon.validate", "canon.canonicalize")
    return (canon.calls - canon.raised) / validated if validated else 0.0


def _reject_ratio(r: TracedRun) -> float:
    canon = r.tracer.stat("canon.canonicalize")
    return canon.raised / canon.calls if canon.calls else 0.0


# (name, unit, better, reader)
PER_LAYER: tuple[tuple[str, str, str, Callable[[TracedRun], float]], ...] = (
    # series: export/items_per_s and verify/pass_s
    ("series.enumerate_all.self_s", "s", "lower", _self_s("series.enumerate_all")),
    ("series.matrix_from_eta.self_s", "s", "lower", _self_s("series.matrix_from_eta")),
    ("series.matrix_from_eta.calls_per_record", "count", "lower", _per_record("series.matrix_from_eta")),
    ("series.series_membership.calls_per_record", "count", "lower", _per_record("series.series_membership")),
    # canon: export/items_per_s (validate) and ingest/item_p50_us
    ("canon.validate.calls_per_record", "count", "lower", _per_record("canon.validate")),
    ("canon.validate.self_s", "s", "lower", _self_s("canon.validate")),
    ("canon.canonicalize.mean_us", "us", "lower", _mean_us("canon.canonicalize")),
    ("canon.classify.mean_us", "us", "lower", _mean_us("canon.classify")),
    ("canon.validate_hit_ratio", "ratio", "higher", _validate_hit_ratio),
    # on ingest this must equal the generator's corrupted share
    ("canon.reject_ratio", "ratio", "higher", _reject_ratio),
    # invariants: export/items_per_s and ingest/item_p50_us; the oracles verify/pass_s
    ("invariants.surface_record.mean_us", "us", "lower", _mean_us("invariants.surface_record")),
    ("invariants.class_group.self_s", "s", "lower", _self_s("invariants.class_group")),
    ("invariants.local_data.self_s", "s", "lower", _self_s("invariants.local_data")),
    ("invariants.degree.self_s", "s", "lower", _self_s("invariants.degree")),
    ("invariants.log_canonicity.self_s", "s", "lower", _self_s("invariants.log_canonicity")),
    ("invariants.picard_index.self_s", "s", "lower", _self_s("invariants.picard_index")),
    ("invariants.resolution_graph.self_s", "s", "lower", _self_s("invariants.resolution_graph")),
    ("invariants.class_group_oracle.self_s", "s", "lower", _self_s("invariants.class_group_oracle")),
    ("invariants.local_gorenstein_oracle.self_s", "s", "lower", _self_s("invariants.local_gorenstein_oracle")),
    # kaehler: export/items_per_s (family rule) and verify/pass_s (oracles)
    ("kaehler.is_ke_family.self_s", "s", "lower", _self_s("kaehler.is_ke_family")),
    ("kaehler.barycenter_oracle.self_s", "s", "lower", _self_s("kaehler.barycenter_oracle")),
    ("kaehler.barycenter_oracle.mean_us", "us", "lower", _mean_us("kaehler.barycenter_oracle")),
    ("kaehler.is_ke_oracle.self_s", "s", "lower", _self_s("kaehler.is_ke_oracle")),
    # core: verify/pass_s
    ("core.smith_normal_form.calls", "count", "lower", _calls("core.smith_normal_form")),
    ("core.smith_normal_form.self_s", "s", "lower", _self_s("core.smith_normal_form")),
    ("core.solve3.self_s", "s", "lower", _self_s("core.solve3")),
    # census counting: census/pass_s (count_exact runs twice per iota and rho: plot data recounts)
    ("census.count.self_s", "s", "lower", _self_s("census.count")),
    ("census.count_exact.calls", "count", "lower", _calls("census.count_exact")),
    ("census.count_exact.self_s", "s", "lower", _self_s("census.count_exact")),
    ("census.count_ke.self_s", "s", "lower", _self_s("census.count_ke")),
    ("census.emit_plot_data.self_s", "s", "lower", _self_s("census.emit_plot_data")),
    # census io: encoders export/items_per_s, decoders ingest/items_per_s
    ("census.record_to_json_line.mean_us", "us", "lower", _mean_us("census.record_to_json_line")),
    ("census.record_to_csv_row.mean_us", "us", "lower", _mean_us("census.record_to_csv_row")),
    ("census.io.bytes_per_record", "B", "lower", lambda r: r.io_bytes / r.items if r.items else 0.0),
    ("census.record_from_json_line.mean_us", "us", "lower", _mean_us("census.record_from_json_line")),
    ("census.record_from_csv_row.mean_us", "us", "lower", _mean_us("census.record_from_csv_row")),
    # census verify: verify/pass_s
    ("census.verify_claims.self_s", "s", "lower", _self_s("census.verify_claims")),
    # cli: pass_s on census, export and verify
    ("cli.main.self_s", "s", "lower", _self_s("cli.main")),
    # runtime, all workloads
    ("python.gc_s", "s", "lower", lambda r: median(r.gc_seconds)),
    ("python.gc_collections", "count", "lower", lambda r: median(r.gc_collections)),
    ("trace.overhead_ratio", "ratio", "lower", lambda r: r.traced_pass_s / median(r.untraced_pass_s)),
    ("trace.spans", "count", "lower", lambda r: len(r.tracer.spans["label"])),
    ("ingest.item_p99_us", "us", "lower", lambda r: r.item_p99_us),
    ("gate.fail_ratio", "ratio", "lower", lambda r: r.fail_ratio),
)

# Function labels the metrics above read; the tracer reports those it cannot find.
EXPECTED_LABELS = tuple(
    sorted(
        {
            name.rsplit(".", 1)[0]
            for name, *_ in PER_LAYER
            if name.rsplit(".", 1)[1] in ("self_s", "calls", "mean_us", "calls_per_record")
        }
        | {"canon.canonicalize", "canon.validate"}
    )
)


def per_layer_metrics(run: TracedRun) -> dict[str, dict]:
    return {name: {"value": read(run), "unit": unit} for name, unit, _, read in PER_LAYER}
