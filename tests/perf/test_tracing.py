"""Unit tests for the structured trace layer."""

from __future__ import annotations

import json
import threading

from repro.perf.tracing import Tracer, get_tracer, tracer, use_tracer


class TestRecording:
    def test_disabled_by_default_and_costs_nothing(self):
        t = Tracer()
        assert not t.enabled
        t.event("some.kind", value=1)
        with t.span("some.span") as sp:
            sp["late"] = True
        assert len(t) == 0

    def test_global_tracer_is_disabled_by_default(self):
        assert not tracer.enabled

    def test_event_records_fields_and_sequence(self):
        t = Tracer()
        t.enable()
        t.event("a.one", x=1)
        t.event("a.two", x=2, label="hi")
        records = t.records()
        assert [r.kind for r in records] == ["a.one", "a.two"]
        assert [r.seq for r in records] == [0, 1]
        assert records[1].fields == {"x": 2, "label": "hi"}
        assert records[0].duration_s is None

    def test_payload_may_carry_a_kind_field(self):
        # Regression: the record kind is positional-only, so admission
        # records can themselves carry a GR/BE ``kind`` payload field.
        t = Tracer()
        t.enable()
        t.event("admission.decision", kind="GR", accepted=True)
        (record,) = t.records()
        assert record.kind == "admission.decision"
        assert record.fields["kind"] == "GR"

    def test_explicit_domain_timestamp(self):
        t = Tracer()
        t.enable()
        t.event("sim.tick", ts=42.5)
        assert t.records()[0].ts == 42.5

    def test_span_records_duration_and_late_fields(self):
        t = Tracer()
        t.enable()
        with t.span("work", app="a") as sp:
            sp["result"] = 7
        (record,) = t.records()
        assert record.kind == "work"
        assert record.fields == {"app": "a", "result": 7}
        assert record.duration_s is not None and record.duration_s >= 0.0


class TestRingBuffer:
    def test_capacity_bounds_buffer_and_counts_drops(self):
        t = Tracer(capacity=4)
        t.enable()
        for k in range(6):
            t.event("k", n=k)
        assert len(t) == 4
        assert t.dropped == 2
        # The newest records survive, the oldest are evicted.
        assert [r.fields["n"] for r in t.records()] == [2, 3, 4, 5]

    def test_clear_resets_buffer_drops_and_sequence(self):
        t = Tracer(capacity=2)
        t.enable()
        for k in range(5):
            t.event("k", n=k)
        t.clear()
        assert len(t) == 0 and t.dropped == 0
        t.event("k", n=99)
        assert t.records()[0].seq == 0


class TestQuerying:
    def test_exact_and_prefix_kind_filters(self):
        t = Tracer()
        t.enable()
        t.event("repair.element_down")
        t.event("repair.path_replaced")
        t.event("admission.decision")
        assert len(t.records("repair.element_down")) == 1
        assert len(t.records("repair.")) == 2
        assert len(t.records("repair")) == 0  # exact match only
        assert t.kind_counts() == {
            "admission.decision": 1,
            "repair.element_down": 1,
            "repair.path_replaced": 1,
        }


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        t.enable()
        t.event("a", x=1)
        with t.span("b", y=2):
            pass
        path = t.export_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["kind"] for d in docs] == ["a", "b"]
        assert docs[0]["fields"] == {"x": 1}
        assert "duration_s" in docs[1]


class TestScoping:
    def test_use_tracer_overrides_and_restores(self):
        scoped = Tracer()
        assert get_tracer() is tracer
        with use_tracer(scoped):
            assert get_tracer() is scoped
        assert get_tracer() is tracer

    def test_threads_do_not_inherit_scoped_tracer(self):
        scoped = Tracer()
        seen: list[Tracer] = []
        with use_tracer(scoped):
            worker = threading.Thread(target=lambda: seen.append(get_tracer()))
            worker.start()
            worker.join()
        assert seen == [tracer]

    def test_one_writer_keeps_sequence_dense(self):
        # repro.perf's contract is one writer per tracer (nothing in it
        # locks; tests/test_thread_contract.py pins that), so dense
        # sequence numbers are promised to one writing thread only.
        t = Tracer()
        t.enable()
        writer = threading.Thread(
            target=lambda: [t.event("k") for _ in range(2000)]
        )
        writer.start()
        writer.join(timeout=30)
        assert not writer.is_alive()
        records = t.records()
        assert len(records) == 2000
        assert [r.seq for r in records] == list(range(2000))
