"""Tracer: span nesting, sampling, propagation, sinks, the null twin."""

import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    InMemorySink,
    JsonlTraceWriter,
    NullTracer,
    Tracer,
)
from repro.obs.trace import _NULL_SPAN


def test_nested_spans_share_trace_and_chain_parents():
    tracer = Tracer()
    with tracer.span("outer", batch="b") as outer:
        with tracer.span("inner") as inner:
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
            assert tracer.current_trace_id() == outer.trace_id
    assert tracer.current_trace_id() is None
    records = tracer.sink.records
    # Children pop (and record) before their parents.
    assert [r["name"] for r in records] == ["inner", "outer"]
    assert records[1]["attrs"] == {"batch": "b"}
    assert "parent" not in records[1] and records[0]["parent"] == records[1]["span"]
    assert all(r["dur"] >= 0 for r in records)


def test_span_set_and_events_land_in_the_record():
    tracer = Tracer()
    with tracer.span("op") as span:
        span.set(rows=3)
        tracer.event("cache_hit", key="k1")  # routed to the open span
        span.event("direct", n=1)
    record = tracer.sink.records[0]
    assert record["attrs"] == {"rows": 3}
    names = [e["name"] for e in record["events"]]
    assert names == ["cache_hit", "direct"]
    assert record["events"][0]["attrs"] == {"key": "k1"}
    assert all(e["dt"] >= 0 for e in record["events"])


def test_exception_marks_span_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("op"):
            raise ValueError("boom")
    record = tracer.sink.records[0]
    assert record["attrs"]["error"] == "ValueError"


def test_zero_sample_rate_propagates_context_but_records_nothing():
    tracer = Tracer(sample=0.0)
    with tracer.span("outer") as outer:
        assert outer.trace_id is not None  # context still flows
        with tracer.span("inner"):
            tracer.event("hit")
    assert tracer.sink.records == []


def test_sample_rate_validation():
    with pytest.raises(ValueError):
        Tracer(sample=1.5)


def test_activate_reenters_a_foreign_trace():
    tracer = Tracer()
    trace_id = tracer.new_trace_id()
    with tracer.activate(trace_id):
        assert tracer.current_trace_id() == trace_id
        with tracer.span("work") as span:
            assert span.trace_id == trace_id
    assert tracer.sink.spans("work")[0]["trace"] == trace_id


def test_cross_thread_propagation_via_activate():
    tracer = Tracer()
    trace_id = tracer.new_trace_id()

    def worker():
        with tracer.activate(trace_id):
            with tracer.span("on_worker"):
                pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    with tracer.span("on_main"):
        pass
    spans = {r["name"]: r for r in tracer.sink.records}
    assert spans["on_worker"]["trace"] == trace_id
    assert spans["on_main"]["trace"] != trace_id  # threads don't leak stacks


def test_record_span_files_under_current_or_explicit_trace():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        tracer.record_span("measured", 0.25, rows=7)
    foreign = tracer.new_trace_id()
    tracer.record_span("linked", 0.5, trace_id=foreign)
    measured = tracer.sink.spans("measured")[0]
    assert measured["trace"] == parent.trace_id
    assert measured["parent"] == parent.span_id
    assert measured["dur"] == 0.25 and measured["attrs"] == {"rows": 7}
    assert tracer.sink.spans("linked")[0]["trace"] == foreign


def test_record_span_respects_unsampled_context():
    tracer = Tracer(sample=0.0)
    with tracer.span("parent"):
        tracer.record_span("measured", 0.1)
    assert tracer.sink.records == []


def test_in_memory_sink_filters_by_name():
    sink = InMemorySink()
    tracer = Tracer(sink)
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [r["name"] for r in sink.spans("a")] == ["a"]
    assert len(sink.spans()) == 2


def test_jsonl_writer_creates_per_pid_file_in_directory(tmp_path):
    writer = JsonlTraceWriter(tmp_path)
    assert writer.path.parent == tmp_path
    assert writer.path.name.startswith("trace-") and writer.path.suffix == ".jsonl"
    tracer = Tracer(writer)
    with tracer.span("op", batch="b"):
        pass
    tracer.close()
    lines = writer.path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "op" and record["kind"] == "span"


def test_jsonl_writer_accepts_explicit_file_and_reprs_unserializable(tmp_path):
    target = tmp_path / "sub" / "run.jsonl"
    writer = JsonlTraceWriter(target)
    assert writer.path == target
    tracer = Tracer(writer)
    with tracer.span("op", obj=object()):  # not JSON-serializable
        pass
    tracer.close()
    record = json.loads(target.read_text(encoding="utf-8"))
    assert record["attrs"]["obj"].startswith("<object object")


def test_sinks_keep_every_record_from_concurrent_writers(tmp_path):
    memory = InMemorySink()
    writer = JsonlTraceWriter(tmp_path / "spans.jsonl")
    barrier = threading.Barrier(4)

    def emit(index):
        barrier.wait(timeout=10)
        for i in range(200):
            record = {"name": f"w{index}", "i": i, "pad": "x" * 64}
            memory.write(record)
            writer.write(record)
            memory.spans(f"w{index}")  # reads while the others write

    threads = [threading.Thread(target=emit, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    writer.close()
    assert len(memory.spans()) == 800
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert sorted((r["name"], r["i"]) for r in map(json.loads, lines)) == sorted(
        (f"w{index}", i) for index in range(4) for i in range(200)
    )


def test_null_tracer_is_a_shared_true_noop():
    assert isinstance(NULL_TRACER, NullTracer)
    assert NULL_TRACER.enabled is False
    span = NULL_TRACER.span("anything", cost=1)
    assert span is _NULL_SPAN and NULL_TRACER.activate("t") is _NULL_SPAN
    with span as entered:
        entered.set(rows=1)
        entered.event("hit")
        assert entered.sampled is False
    assert NULL_TRACER.new_trace_id() is None
    assert NULL_TRACER.current_trace_id() is None
    NULL_TRACER.event("hit")
    NULL_TRACER.record_span("x", 0.1)
    NULL_TRACER.flush()
    NULL_TRACER.close()
