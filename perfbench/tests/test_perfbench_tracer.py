"""Span tracer: wraps as callers look functions up, restores, and keeps exact books."""

from __future__ import annotations

import fiqs
import fiqs.canon
import fiqs.census
import fiqs.invariants
from fiqs import SeriesId, SeriesKey

from perfbench.tracer import SpanTracer, load_spans, self_times_from_spans

KEY = SeriesKey(SeriesId(3, "s11"), 3, 5, -2, -1)


def test_install_patches_caller_bindings_and_uninstall_restores():
    originals = (fiqs.canon.validate, fiqs.invariants.validate, fiqs.validate, fiqs.census.surface_record)
    tracer = SpanTracer()
    with tracer:
        assert fiqs.invariants.validate is not originals[1]
        assert fiqs.invariants.validate.__wrapped__ is originals[1]
        fiqs.invariants.surface_record(KEY)
    assert (fiqs.canon.validate, fiqs.invariants.validate, fiqs.validate, fiqs.census.surface_record) == originals
    # seed program: surface_record validates through seven closed forms
    assert tracer.stat("canon.validate").calls == 7
    assert tracer.stat("invariants.surface_record").calls == 1
    assert tracer.stat("series.matrix_from_eta").calls == 2


def test_self_time_equals_offline_recomputation(tmp_path):
    tracer = SpanTracer()
    with tracer:
        fiqs.census.record_to_json_line(fiqs.invariants.surface_record(KEY))
    path = tmp_path / "spans"
    tracer.write(path)
    labels, spans = load_spans(path)
    assert labels == tracer.labels
    assert len(spans["label"]) == len(tracer.spans["label"])
    offline = self_times_from_spans(labels, spans)
    for label, ns in offline.items():
        assert tracer.stat(label).self_ns == ns
    top = [i for i, p in enumerate(spans["parent"]) if p < 0]
    assert [labels[spans["label"][i]] for i in top] == ["invariants.surface_record", "census.record_to_json_line"]


def test_raised_spans_are_flagged():
    raw = fiqs.RawMatrix(3, (1, 1, 0, -2, 0, -1))  # columns 1 and 2 coincide
    tracer = SpanTracer()
    with tracer:
        try:
            fiqs.canon.canonicalize(raw)
        except fiqs.NormalFormError:
            pass
    assert tracer.stat("canon.canonicalize").raised == 1
    assert tracer.stat("canon.reduce_raw").raised == 1
    assert list(tracer.spans["raised"]) == [1, 1]


def test_absent_and_moved_names_do_not_stop_the_tracer():
    tracer = SpanTracer(("census.no_such_function", "nomodule.count", "census.surface_record"))
    assert tracer.absent == ["census.no_such_function"]
    # found on the package, already wrapped under its defining module
    assert tracer.aliases == {"nomodule.count": "census.count", "census.surface_record": "invariants.surface_record"}
    with tracer:
        fiqs.census.count(1, 3)
    assert tracer.stat("nomodule.count").calls == 1
    assert tracer.stat("census.no_such_function").calls == 0
