"""Unit tests for the sim-domain half of repro.obs.

Metrics (counters/gauges/histograms with merge semantics), canonical
JSONL sinks, and the global Recorder lifecycle.  The load-bearing
properties: snapshots serialize byte-identically across runs that saw
the same events, histogram merges are order-insensitive, and the
disabled recorder is inert.
"""

import json

import pytest

import copy
import random

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bound,
    merge_snapshots,
    validate_metric_name,
)
from repro.obs.record import Recorder, recorder
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, encode_line


class TestNaming:
    def test_convention_accepted(self):
        for name in ("repro.net.pkt.dropped", "repro.core.detector.x",
                     "repro.obs.a_b.c_1"):
            assert validate_metric_name(name) == name

    @pytest.mark.parametrize("bad", [
        "repro.net",               # no metric segment after the package
        "net.pkt.dropped",         # missing repro. prefix
        "repro.Net.pkt",           # uppercase
        "repro.net.pkt dropped",   # whitespace
        "",
    ])
    def test_convention_rejected(self, bad):
        with pytest.raises(ValueError, match="bad metric name"):
            validate_metric_name(bad)


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("repro.t.c")
        counter.inc()
        counter.inc(3)
        assert counter.to_dict() == {"kind": "counter", "value": 4}
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_tracks_extremes(self):
        gauge = Gauge("repro.t.g")
        gauge.set(-5)
        gauge.set(10)
        gauge.set(2)
        assert gauge.to_dict() == {"kind": "gauge", "value": 2,
                                   "min": -5, "max": 10}

    def test_histogram_is_order_insensitive(self):
        forward, backward = Histogram("repro.t.h"), Histogram("repro.t.h")
        values = [3, 1, 4, 1, 5]
        for v in values:
            forward.observe(v)
        for v in reversed(values):
            backward.observe(v)
        assert forward.to_dict() == backward.to_dict()
        assert forward.count == 5 and forward.min == 1 and forward.max == 5
        assert forward.mean == pytest.approx(sum(values) / 5)

    def test_empty_histogram_mean(self):
        assert Histogram("repro.t.h").mean == 0.0

    @pytest.mark.parametrize("value,bound", [
        (-3, 0.0), (0, 0.0),            # non-positive values pool at 0
        (0.3, 0.5), (0.5, 0.5),
        (0.75, 1.0), (1.0, 1.0),
        (1.5, 2.0), (3, 4.0),
        (1024, 1024.0),                 # exact powers bound themselves
        (1024.5, 2048.0),
    ])
    def test_bucket_bound_power_of_two(self, value, bound):
        assert bucket_bound(value) == bound

    def test_histogram_buckets_in_snapshot(self):
        hist = Histogram("repro.t.h")
        for value in (0.4, 1.0, 3.0, 3.5, 1024):
            hist.observe(value)
        row = hist.to_dict()
        assert row["buckets"] == {"0.5": 1, "1": 1, "4": 2, "1024": 1}
        assert sum(row["buckets"].values()) == row["count"]
        # Keys serialize in numeric order for byte-stable snapshots.
        assert list(row["buckets"]) \
            == sorted(row["buckets"], key=float)


class TestRegistry:
    def test_create_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("repro.t.c").inc()
        registry.counter("repro.t.c").inc()
        assert registry.counter("repro.t.c").value == 2
        assert len(registry) == 1

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro.t.x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("repro.t.x")

    def test_snapshot_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.gauge("repro.t.b").set(1)
        registry.counter("repro.t.a").inc()
        registry.histogram("repro.t.c").observe(2.5)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["repro.t.a", "repro.t.b", "repro.t.c"]
        json.dumps(snapshot)  # must be serializable as-is


class TestMergeSnapshots:
    def test_counters_add_gauges_widen_histograms_combine(self):
        first = MetricsRegistry()
        first.counter("repro.t.c").inc(2)
        first.gauge("repro.t.g").set(5)
        first.histogram("repro.t.h").observe(1)
        second = MetricsRegistry()
        second.counter("repro.t.c").inc(3)
        second.gauge("repro.t.g").set(-1)
        second.histogram("repro.t.h").observe(9)

        merged = merge_snapshots([first.snapshot(), second.snapshot()])
        assert merged["repro.t.c"]["value"] == 5
        assert merged["repro.t.g"] == {"kind": "gauge", "value": -1,
                                       "min": -1, "max": 5}
        hist = merged["repro.t.h"]
        assert (hist["count"], hist["min"], hist["max"]) == (2, 1, 9)
        assert hist["mean"] == pytest.approx(5.0)

    def test_kind_conflict_raises(self):
        with pytest.raises(ValueError, match="conflicting kinds"):
            merge_snapshots([{"repro.t.x": {"kind": "counter", "value": 1}},
                             {"repro.t.x": {"kind": "gauge", "value": 1,
                                            "min": 1, "max": 1}}])

    def test_empty(self):
        assert merge_snapshots([]) == {}

    @staticmethod
    def _random_snapshot(seed):
        rng = random.Random(seed)
        registry = MetricsRegistry()
        registry.counter("repro.t.c").inc(rng.randrange(1, 100))
        hist = registry.histogram("repro.t.h")
        for _ in range(rng.randrange(1, 20)):
            hist.observe(rng.uniform(0.01, 2048))
        return registry.snapshot()

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_is_commutative(self, seed):
        a = self._random_snapshot(seed)
        b = self._random_snapshot(seed + 100)
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    @staticmethod
    def _assert_equivalent(left, right):
        """Merged snapshots agree: exactly on counts/buckets/extremes,
        to float tolerance on the order-sensitive running sums."""
        assert left.keys() == right.keys()
        for name in left:
            lrow, rrow = dict(left[name]), dict(right[name])
            for key in ("total", "mean"):
                if key in lrow:
                    assert lrow.pop(key) \
                        == pytest.approx(rrow.pop(key))
            assert lrow == rrow

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_is_associative(self, seed):
        a = self._random_snapshot(seed)
        b = self._random_snapshot(seed + 100)
        c = self._random_snapshot(seed + 200)
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        flat = merge_snapshots([a, b, c])
        self._assert_equivalent(left, right)
        self._assert_equivalent(left, flat)

    def test_merge_never_mutates_inputs(self):
        a = self._random_snapshot(1)
        b = self._random_snapshot(2)
        a_before, b_before = copy.deepcopy(a), copy.deepcopy(b)
        merged = merge_snapshots([a, b])
        assert a == a_before and b == b_before
        # The merged buckets must not alias either input's dicts.
        merged["repro.t.h"]["buckets"]["0.5"] = 10 ** 9
        assert a == a_before and b == b_before

    def test_self_merge_doubles_counts(self):
        snapshot = self._random_snapshot(3)
        merged = merge_snapshots([snapshot, snapshot])
        hist = merged["repro.t.h"]
        assert hist["count"] == 2 * snapshot["repro.t.h"]["count"]
        for key, count in snapshot["repro.t.h"]["buckets"].items():
            assert hist["buckets"][key] == 2 * count

    def test_legacy_rows_without_buckets_merge(self):
        legacy = {"repro.t.h": {"kind": "histogram", "count": 2,
                                "total": 6.0, "min": 2.0, "max": 4.0,
                                "mean": 3.0}}
        fresh = self._random_snapshot(4)
        merged = merge_snapshots([legacy, fresh])
        hist = merged["repro.t.h"]
        assert hist["count"] == 2 + fresh["repro.t.h"]["count"]
        # Bucket totals only cover the runs that recorded buckets.
        assert sum(hist["buckets"].values()) \
            == fresh["repro.t.h"]["count"]

    def test_bucket_key_spellings_canonicalize(self):
        variant_a = {"repro.t.h": {"kind": "histogram", "count": 1,
                                   "total": 2.0, "min": 2.0, "max": 2.0,
                                   "mean": 2.0, "buckets": {"2": 1}}}
        variant_b = {"repro.t.h": {"kind": "histogram", "count": 1,
                                   "total": 1.5, "min": 1.5, "max": 1.5,
                                   "mean": 1.5, "buckets": {"2.0": 1}}}
        merged = merge_snapshots([variant_a, variant_b])
        assert merged["repro.t.h"]["buckets"] == {"2": 2}


class TestSinks:
    def test_encode_line_is_canonical(self):
        line = encode_line({"b": 1, "a": {"d": 2, "c": 3}})
        assert line == '{"a":{"c":3,"d":2},"b":1}'

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "trace.jsonl"
        sink = JsonlSink(str(path))
        sink.emit({"event": "x", "t": 1.5})
        sink.close()
        with open(path, encoding="utf-8") as handle:
            assert json.loads(handle.readline()) == {"event": "x", "t": 1.5}
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"event": "y", "t": 2.0})
        sink.close()  # idempotent

    def test_memory_and_null_sinks(self):
        memory = MemorySink()
        memory.emit({"event": "x"})
        memory.close()
        assert memory.records == [{"event": "x"}] and memory.closed
        null = NullSink()
        null.emit({"event": "x"})
        null.close()  # nothing to assert: must simply not fail


class TestRecorder:
    def test_disabled_by_default_and_inert(self):
        rec = Recorder()
        assert not rec.active
        rec.event("ignored", 1.0)  # goes to the NullSink
        assert rec.disable() == {}

    def test_lifecycle_flushes_final_snapshot(self):
        rec = Recorder()
        sink = MemorySink()
        rec.enable(sink)
        rec.metrics.counter("repro.t.c").inc()
        rec.event("t.something", 2.5, detail="x")
        snapshot = rec.disable()
        assert not rec.active and sink.closed
        assert snapshot["repro.t.c"]["value"] == 1
        assert sink.records[0] == {"event": "t.something", "t": 2.5,
                                   "detail": "x"}
        final = sink.records[-1]
        assert final["event"] == "obs.metrics" and final["t"] is None
        assert final["metrics"] == snapshot and final["events"] == 1

    def test_double_enable_raises(self):
        rec = Recorder()
        rec.enable(MemorySink())
        try:
            with pytest.raises(RuntimeError, match="already enabled"):
                rec.enable(MemorySink())
        finally:
            rec.disable()

    def test_enable_resets_metrics(self):
        rec = Recorder()
        rec.enable(MemorySink())
        rec.metrics.counter("repro.t.c").inc()
        rec.disable()
        rec.enable(MemorySink())
        assert len(rec.metrics) == 0
        rec.disable()

    def test_global_recorder_is_a_singleton(self):
        assert recorder() is recorder()
        assert not recorder().active  # the suite must leave it disabled
