"""Unit tests for the observability primitives (``repro.obs``).

Covers the tracer (nesting, adoption, ordering, Chrome/JSONL round-trip),
the metrics registry (counter/gauge/histogram semantics and snapshots),
the hot-spot fold over span records, and the process-wide context
plumbing.  Integration with
the federation runtime lives in ``test_obs_runtime.py``.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    ObsContext,
    SpanRecord,
    Tracer,
    get_obs,
    hotspot_table,
    load_chrome_trace,
    observe,
    read_span_log,
    set_obs,
)
from repro.obs.trace import span_tree


class TestSpanRecord:
    def test_payload_round_trip(self):
        record = SpanRecord(
            name="round",
            category="sim",
            span_id="a-1",
            parent_id="a-0",
            start_s=12.5,
            duration_s=0.25,
            virtual_start_s=3.0,
            virtual_end_s=4.0,
            pid=7,
            tid=9,
            seq=2,
            attrs={"round": 1},
        )
        assert SpanRecord.from_payload(record.to_payload()) == record

    def test_records_pickle(self):
        record = SpanRecord(name="client_task", span_id="x", attrs={"client": 3})
        assert pickle.loads(pickle.dumps(record)) == record

    def test_sort_key_prefers_virtual_time_then_seq(self):
        early = SpanRecord(name="a", virtual_end_s=1.0, seq=9)
        late = SpanRecord(name="b", virtual_end_s=2.0, seq=1)
        tie = SpanRecord(name="c", virtual_end_s=2.0, seq=2)
        unclocked = SpanRecord(name="d", seq=5)
        ordered = sorted([tie, late, unclocked, early], key=SpanRecord.sort_key)
        assert [r.name for r in ordered] == ["d", "a", "b", "c"]


class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            with tracer.span("round", round=0) as rnd:
                assert tracer.current_span_id() == rnd.record.span_id
                with tracer.span("compress"):
                    pass
        assert tracer.current_span_id() is None
        by_name = {r.name: r for r in tracer.records}
        assert by_name["round"].parent_id == run.record.span_id
        assert by_name["compress"].parent_id == by_name["round"].span_id
        assert by_name["run"].parent_id is None
        assert by_name["round"].attrs == {"round": 0}
        # Inner spans close first: FIFO order is compress, round, run.
        assert [r.name for r in tracer.records] == ["compress", "round", "run"]
        assert by_name["run"].duration_s >= by_name["round"].duration_s

    def test_virtual_clock_stamped_at_open_and_close(self):
        clock = iter([1.0, 2.0, 5.0, 5.0])
        tracer = Tracer(virtual_clock=lambda: next(clock))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.records
        assert (inner.virtual_start_s, inner.virtual_end_s) == (2.0, 5.0)
        assert (outer.virtual_start_s, outer.virtual_end_s) == (1.0, 5.0)

    def test_span_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("round") as span:
            span.set("cohort", 8)
        assert tracer.records[0].attrs["cohort"] == 8

    def test_emit_defaults_parent_to_open_span(self):
        tracer = Tracer()
        with tracer.span("round") as rnd:
            emitted = tracer.emit(
                "client_flight", category="scheduler",
                virtual_start_s=1.0, virtual_end_s=3.5, client=2,
            )
        assert emitted.parent_id == rnd.record.span_id
        assert emitted.virtual_end_s == 3.5
        assert emitted.attrs == {"client": 2}

    def test_adopt_reparents_orphans_and_keeps_batch_links(self):
        tracer = Tracer()
        task = SpanRecord(name="client_task", span_id="w-1", parent_id=None)
        sgd = SpanRecord(name="local_sgd", span_id="w-2", parent_id="w-1")
        with tracer.span("round") as rnd:
            tracer.adopt([task, sgd])
        by_name = {r.name: r for r in tracer.records}
        assert by_name["client_task"].parent_id == rnd.record.span_id
        assert by_name["local_sgd"].parent_id == "w-1"
        # Fresh FIFO positions in batch order, distinct from each other.
        assert by_name["client_task"].seq < by_name["local_sgd"].seq

    def test_sorted_records_totally_ordered(self):
        tracer = Tracer()
        tracer.emit("b", virtual_end_s=2.0)
        tracer.emit("a", virtual_end_s=1.0)
        tracer.emit("c", virtual_end_s=2.0)
        keys = [r.sort_key() for r in tracer.sorted_records()]
        assert keys == sorted(keys)
        assert [r.name for r in tracer.sorted_records()] == ["a", "b", "c"]

    def test_concurrent_threads_nest_independently(self):
        tracer = Tracer()
        errors = []

        def worker(name):
            try:
                with tracer.span(name) as outer:
                    with tracer.span(f"{name}-inner"):
                        assert tracer.current_span_id() != outer.record.span_id
            except AssertionError as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        records = tracer.records
        assert len(records) == 8
        by_name = {r.name: r for r in records}
        for i in range(4):
            # Each thread's inner span nests under its own outer span.
            assert by_name[f"t{i}-inner"].parent_id == by_name[f"t{i}"].span_id
            assert by_name[f"t{i}"].parent_id is None
        assert len({r.seq for r in records}) == 8

    def test_chrome_trace_round_trip(self, tmp_path):
        tracer = Tracer(virtual_clock=lambda: 2.5)
        with tracer.span("run"):
            with tracer.span("round", round=0):
                pass
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert all(event["ph"] == "X" for event in payload["traceEvents"])
        loaded = load_chrome_trace(path)
        originals = tracer.sorted_records()
        assert [r.name for r in loaded] == [r.name for r in originals]
        for restored, original in zip(loaded, originals):
            assert restored.span_id == original.span_id
            assert restored.parent_id == original.parent_id
            assert restored.attrs == original.attrs
            assert restored.virtual_end_s == original.virtual_end_s
            assert restored.duration_s == pytest.approx(original.duration_s)

    def test_span_log_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", study="demo"):
            pass
        path = tracer.write_span_log(tmp_path / "spans.jsonl")
        assert read_span_log(path) == tracer.sorted_records()

    def test_span_tree_groups_by_parent(self):
        tracer = Tracer()
        with tracer.span("run"):
            with tracer.span("round"):
                pass
            with tracer.span("round"):
                pass
        tree = span_tree(tracer.records)
        run = tree[None][0]
        assert [r.name for r in tree[run.span_id]] == ["round", "round"]

    def test_clear_keeps_seq_advancing(self):
        tracer = Tracer()
        tracer.emit("a")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emit("b").seq == 2


class TestNullTracer:
    def test_everything_is_inert(self):
        tracer = NullTracer()
        assert not tracer.enabled
        with tracer.span("round", round=1) as span:
            span.set("k", "v")
            assert tracer.current_span_id() is None
        tracer.emit("x", duration_s=1.0)
        tracer.adopt([SpanRecord(name="orphan")])
        assert len(tracer) == 0
        assert tracer.records == []

    def test_span_reuses_one_shared_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("rounds_completed")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("rounds_completed").value == 3.5
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_gauge_tracks_max(self):
        gauge = MetricsRegistry().gauge("async.buffer_depth")
        gauge.set(3)
        gauge.inc()
        gauge.dec(4)
        assert gauge.value == 0.0
        assert gauge.max_value == 4.0

    def test_histogram_buckets_and_summary(self):
        histogram = MetricsRegistry().histogram("staleness", bounds=(1.0, 5.0))
        for value in (0, 1, 2, 9):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 12.0
        assert (summary["min"], summary["max"]) == (0.0, 9.0)
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["buckets"] == {"le_1": 2, "le_5": 1, "inf": 1}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("bad", bounds=(5.0, 1.0))

    def test_empty_histogram_summary_has_no_stats(self):
        summary = MetricsRegistry().histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["mean"] is None

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("depth")
        with pytest.raises(ConfigurationError):
            registry.gauge("depth")
        with pytest.raises(ConfigurationError):
            registry.histogram("depth")

    def test_snapshot_and_render_and_write(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("tasks_executed").inc(5)
        registry.gauge("depth").set(2)
        registry.histogram("staleness").observe(1)
        snap = registry.snapshot()
        assert snap["counters"]["tasks_executed"] == 5.0
        assert snap["gauges"]["depth"] == {"value": 2.0, "max": 2.0}
        assert snap["histograms"]["staleness"]["count"] == 1
        text = registry.render_text()
        assert "counter   tasks_executed = 5" in text
        path = registry.write_json(tmp_path / "metrics.json")
        assert json.loads(path.read_text()) == snap
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_counter_is_exact_under_contention(self):
        # 8 threads x 10k increments: read-modify-write without the
        # per-instrument lock loses updates; the total must be exact,
        # not approximately right.
        registry = MetricsRegistry()
        counter = registry.counter("tasks_executed")
        threads_n, incs = 8, 10_000
        start = threading.Barrier(threads_n)

        def hammer():
            start.wait()
            for _ in range(incs):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == float(threads_n * incs)

    def test_gauge_and_histogram_consistent_under_contention(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        histogram = registry.histogram("staleness", bounds=(8.0,))
        start = threading.Barrier(4)

        def hammer():
            start.wait()
            for _ in range(5_000):
                gauge.inc()
                histogram.observe(1.0)
                gauge.dec()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value == 0.0
        assert 1.0 <= gauge.max_value <= 4.0
        summary = histogram.summary()
        assert summary["count"] == 20_000
        assert summary["sum"] == 20_000.0
        assert summary["buckets"] == {"le_8": 20_000, "inf": 0}


def _span(name, span_id, start, duration, parent=None, tid=1):
    return SpanRecord(
        name=name, span_id=span_id, parent_id=parent,
        start_s=start, duration_s=duration, tid=tid,
    )


def _rows(table):
    """``name -> (calls, total s, self s, mean ms, share %)`` from a table."""
    rows = {}
    for line in table.splitlines()[1:]:
        if line.startswith("..."):
            continue
        name, calls, total, own, mean, share = line.split()
        rows[name] = (int(calls), float(total), float(own), float(mean),
                      float(share.rstrip("%")))
    return rows


class TestHotspotTable:
    def test_self_time_subtracts_nested_children(self):
        records = [
            _span("round", "r", 0.0, 10.0),
            _span("client_task", "c", 1.0, 6.0, parent="r"),
            _span("local_sgd", "l", 2.0, 4.0, parent="c"),
            _span("compress", "z", 7.0, 1.0, parent="r"),
        ]
        rows = _rows(hotspot_table(records))
        assert {name: row[2] for name, row in rows.items()} == {
            "round": 3.0, "client_task": 2.0, "local_sgd": 4.0, "compress": 1.0,
        }
        assert rows["round"][:2] == (1, 10.0)
        assert rows["local_sgd"][3] == 4000.0  # mean ms
        # Hottest self time first.
        assert list(rows) == ["local_sgd", "round", "client_task", "compress"]

    def test_overlapping_children_count_once(self):
        # Two client tasks on two threads overlap during [2, 5]: the round's
        # covered time is their union, 5 s, not their sum.
        records = [
            _span("round", "r", 0.0, 10.0),
            _span("client_task", "a", 1.0, 4.0, parent="r", tid=2),
            _span("client_task", "b", 2.0, 4.0, parent="r", tid=3),
        ]
        rows = _rows(hotspot_table(records))
        assert rows["round"][2] == 5.0
        assert rows["client_task"][:3] == (2, 8.0, 8.0)

    def test_orphan_spans_keep_their_whole_duration(self):
        # A root opened on a thread with no open span, and a span whose
        # parent is not among the records, both inside the round's window:
        # neither is the round's child, so neither shortens its self time.
        records = [
            _span("round", "r", 0.0, 10.0),
            _span("kernel.Linear.forward", "k1", 3.0, 2.0, tid=2),
            _span("kernel.Linear.forward", "k2", 6.0, 1.0, parent="gone", tid=2),
        ]
        rows = _rows(hotspot_table(records))
        assert rows["round"][2] == 10.0
        assert rows["kernel.Linear.forward"][:3] == (2, 3.0, 3.0)

    def test_empty_table(self):
        assert hotspot_table([]) == "(no spans recorded)"

    def test_top_truncates_with_the_remaining_count(self):
        records = [
            _span(name, name, 0.0, seconds)
            for name, seconds in (("a", 5.0), ("b", 4.0), ("c", 3.0),
                                  ("d", 2.0), ("e", 1.0))
        ]
        table = hotspot_table(records, top=2)
        assert list(_rows(table)) == ["a", "b"]
        assert table.splitlines()[-1] == "... (3 more)"
        assert "more" not in hotspot_table(records, top=5)

    def test_self_shares_sum_to_one(self):
        records = [
            _span("round", "r", 0.0, 4.0),
            _span("local_sgd", "l", 0.0, 2.0, parent="r"),
            _span("kernel.ReLU.forward", "k", 0.0, 1.0, parent="l"),
            _span("compress", "z", 2.0, 1.0, parent="r"),
        ]
        rows = _rows(hotspot_table(records))
        assert {name: row[4] for name, row in rows.items()} == {
            "round": 25.0, "local_sgd": 25.0,
            "kernel.ReLU.forward": 25.0, "compress": 25.0,
        }
        # Spans a live tracer recorded: self shares still partition.
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("round"):
                    with tracer.span("compress"):
                        pass
        shares = [row[4] for row in _rows(hotspot_table(tracer.records)).values()]
        # Each printed share is rounded to 0.1 %.
        assert sum(shares) == pytest.approx(100.0, abs=0.05 * len(shares))


class TestObsContext:
    def test_default_context_is_inert(self):
        context = get_obs()
        assert context.tracer is NULL_TRACER
        assert context.metrics is None
        assert not context.tracing

    def test_observe_installs_and_restores(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        with observe(tracer=tracer, metrics=metrics) as context:
            assert get_obs() is context
            assert context.tracer is tracer and context.tracing
            assert context.metrics is metrics
        assert get_obs().tracer is NULL_TRACER
        assert get_obs().metrics is None

    def test_nested_observe_composes(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        with observe(tracer=tracer):
            with observe(metrics=metrics):
                context = get_obs()
                assert context.tracer is tracer
                assert context.metrics is metrics
            assert get_obs().tracer is tracer
            assert get_obs().metrics is None

    def test_observe_none_tracer_means_disabled(self):
        with observe(tracer=Tracer()):
            with observe(tracer=None):
                assert get_obs().tracer is NULL_TRACER

    def test_set_obs_returns_previous(self):
        context = ObsContext(tracer=Tracer())
        previous = set_obs(context)
        try:
            assert get_obs() is context
        finally:
            assert set_obs(previous) is context
        assert get_obs().tracer is NULL_TRACER
