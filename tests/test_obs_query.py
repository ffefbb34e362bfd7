"""The trace query engine: typed events, filters, index sidecars.

Fixture sweeps run the real ``attack_matrix`` experiment with each
traffic-faulty behavior traced, so the schema test exercises every
event kind the instrumentation can emit; unit tests for the filter and
index layers use small synthetic traces.
"""

import json
import os

import pytest

from repro.__main__ import main
from repro.obs import QueryFilter, TraceEvent, TraceReader, trace_files
from repro.obs.query import (
    INDEX_VERSION,
    index_path,
    scan,
)

BEHAVIORS = ("drop", "misroute", "fabricate")


@pytest.fixture(scope="module")
def attack_sweeps(tmp_path_factory):
    """Behavior -> traced single-cell attack_matrix sweep directory."""
    root = tmp_path_factory.mktemp("attack-sweeps")
    sweeps = {}
    for behavior in BEHAVIORS:
        out = root / behavior
        assert main(["sweep", "attack_matrix", "--seeds", "1",
                     "--jobs", "1", "--no-cache", "--trace",
                     "--out", str(out),
                     "--param", "placement.strategy=fixed",
                     "--param", "placement.router=Denver",
                     "--param", f"adversary.behavior={behavior}",
                     "--param", "adversary.rate=0.5"]) == 0
        sweeps[behavior] = str(out)
    return sweeps


@pytest.fixture(scope="module")
def drop_trace(attack_sweeps):
    traces = trace_files(attack_sweeps["drop"])
    assert len(traces) == 1
    return traces[0]


def write_trace(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return str(path)


SYNTHETIC = [
    {"event": "net.flow_hop", "t": 0.5, "flow": "f1", "router": "A",
     "out_nbr": "B", "src": "A", "dst": "C"},
    {"event": "net.drop", "t": 1.0, "flow": "f1", "router": "B",
     "out_nbr": "C", "src": "A", "dst": "C", "reason": "malicious"},
    {"event": "detector.suspect", "t": 2.0, "by": "A",
     "segment": ["B", "C"], "segment_id": "B>C",
     "interval": [1.0, 2.0], "reason": "alpha", "confidence": 1.0},
    {"event": "obs.metrics", "t": None, "metrics": {}, "events": 3},
]


class TestTraceEvent:
    def test_parse_round_trip(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        events = list(TraceReader(trace).events())
        assert [e.to_dict() for e in events] == SYNTHETIC
        assert events[0].flow == "f1"
        assert events[0].get("out_nbr") == "B"

    def test_routers_collects_all_naming_fields(self):
        event = TraceEvent(event="detector.suspect", t=2.0,
                           fields={"by": "A", "segment": ["B", "C"]})
        assert event.routers == ("A", "B", "C")
        hop = TraceEvent(event="net.flow_hop", t=0.5,
                         fields={"router": "A", "out_nbr": "B"})
        assert hop.routers == ("A", "B")

    def test_untimestamped_event_keeps_none(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        final = list(TraceReader(trace).events())[-1]
        assert final.event == "obs.metrics" and final.t is None


class TestQueryFilter:
    def _events(self):
        return [TraceEvent(event=r["event"],
                           t=r["t"],
                           fields={k: v for k, v in r.items()
                                   if k not in ("event", "t")})
                for r in SYNTHETIC]

    def test_event_kind(self):
        query = QueryFilter(events=("net.drop",))
        assert [e.event for e in self._events() if query.matches(e)] \
            == ["net.drop"]

    def test_time_window_half_open(self):
        query = QueryFilter(t0=0.5, t1=1.0)
        matched = [e for e in self._events() if query.matches(e)]
        assert [e.t for e in matched] == [0.5]  # t1 exclusive

    def test_time_window_never_matches_untimestamped(self):
        query = QueryFilter(t0=0.0)
        assert not query.matches(
            TraceEvent(event="obs.metrics", t=None, fields={}))
        assert QueryFilter().matches(
            TraceEvent(event="obs.metrics", t=None, fields={}))

    def test_router_matches_segment_members(self):
        query = QueryFilter(router="C")
        matched = [e.event for e in self._events() if query.matches(e)]
        assert matched == ["net.drop", "detector.suspect"]

    def test_conjunction(self):
        query = QueryFilter(events=("net.drop", "net.flow_hop"),
                            flow="f1", router="B", t0=1.0, t1=10.0)
        matched = [e.event for e in self._events() if query.matches(e)]
        assert matched == ["net.drop"]  # hop at t=0.5 cut by the window


class TestIndex:
    def test_sidecar_built_on_first_indexed_query(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        sidecar = index_path(trace)
        assert sidecar == str(tmp_path / "t.idx.json")
        assert not os.path.exists(sidecar)
        reader = TraceReader(trace)
        drops = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(drops) == 1
        assert os.path.isfile(sidecar)
        with open(sidecar) as fh:
            index = json.load(fh)
        assert index["version"] == INDEX_VERSION
        assert index["trace_bytes"] == os.path.getsize(trace)
        assert sorted(index["events"]) == sorted(
            {r["event"] for r in SYNTHETIC})
        assert index["flows"] == {"f1": [0, index["events"]["net.drop"][0]]}

    def test_fresh_sidecar_reused(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        reader = TraceReader(trace)
        list(reader.events(QueryFilter(events=("net.drop",))))
        sidecar = index_path(trace)
        # Poison the sidecar's pools while keeping it "fresh"; a reader
        # that trusts it will see no candidates.  That proves reuse.
        with open(sidecar) as fh:
            index = json.load(fh)
        index["events"] = {}
        index["flows"] = {}
        index["routers"] = {}
        with open(sidecar, "w") as fh:
            json.dump(index, fh)
        assert list(TraceReader(trace).events(
            QueryFilter(events=("net.drop",)))) == []

    def test_stale_sidecar_rebuilt_on_size_change(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC[:2])
        list(TraceReader(trace).events(QueryFilter(flow="f1")))
        write_trace(tmp_path / "t.jsonl", SYNTHETIC)  # grows the file
        reader = TraceReader(trace)
        matched = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(matched) == 1
        with open(index_path(trace)) as fh:
            assert json.load(fh)["trace_bytes"] == os.path.getsize(trace)

    def test_unwritable_sidecar_degrades_to_in_memory(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        # A directory squatting the sidecar path makes the write raise
        # OSError regardless of privileges (chmod is no barrier to root).
        os.mkdir(index_path(trace))
        reader = TraceReader(trace)
        drops = list(reader.events(QueryFilter(events=("net.drop",))))
        assert len(drops) == 1
        assert os.path.isdir(index_path(trace))  # still not a file

    def test_reader_summaries_come_from_index(self, tmp_path):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        reader = TraceReader(trace)
        assert reader.flows() == ["f1"]
        assert reader.routers() == ["A", "B", "C"]
        assert reader.event_counts() == {
            "detector.suspect": 1, "net.drop": 1, "net.flow_hop": 1,
            "obs.metrics": 1}


class TestIndexedVsScan:
    @pytest.mark.parametrize("query", [
        QueryFilter(events=("net.drop",)),
        QueryFilter(events=("net.drop", "detector.suspect")),
        QueryFilter(flow="f1"),
        QueryFilter(router="Denver"),
        QueryFilter(router="Denver", events=("net.drop",),
                    t0=1.0, t1=2.0),
        QueryFilter(),
    ])
    def test_same_events_same_order(self, drop_trace, query):
        reader = TraceReader(drop_trace)
        indexed = list(reader.events(query, use_index=True))
        scanned = list(reader.events(query, use_index=False))
        assert indexed == scanned
        assert scanned, "fixture queries must all be non-empty"


class TestScan:
    def test_scan_labels_events_with_their_trace(self, attack_sweeps):
        pairs = list(scan([attack_sweeps["drop"]],
                          QueryFilter(events=("scenario.ground_truth",))))
        assert len(pairs) == 1
        trace, event = pairs[0]
        assert trace == trace_files(attack_sweeps["drop"])[0]
        assert event.get("router") == "Denver"


class TestQueryCli:
    def test_count(self, attack_sweeps, capsys):
        assert main(["obs", "query", attack_sweeps["drop"],
                     "--event", "scenario.ground_truth",
                     "--count"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_jsonl_output_and_limit(self, attack_sweeps, capsys):
        assert main(["obs", "query", attack_sweeps["drop"],
                     "--event", "net.drop", "--router", "Denver",
                     "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["event"] == "net.drop"
            assert record["router"] == "Denver"

    def test_no_index_builds_no_sidecar(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "t.jsonl", SYNTHETIC)
        assert main(["obs", "query", trace, "--event", "net.drop",
                     "--no-index", "--count"]) == 0
        assert capsys.readouterr().out.strip() == "1"
        assert not os.path.exists(index_path(trace))


class TestEventSchema:
    """Every emittable event kind matches the checked-in schema fixture."""

    FIXTURE = os.path.join(os.path.dirname(__file__), "goldens",
                           "trace_event_schema.json")

    def _observed(self, attack_sweeps):
        observed = {}
        for behavior in BEHAVIORS:
            for trace in trace_files(attack_sweeps[behavior]):
                for event in TraceReader(trace).events(use_index=False):
                    entry = observed.setdefault(
                        event.event, {"fields": set(), "timestamped": set()})
                    entry["fields"].add(frozenset(event.fields))
                    entry["timestamped"].add(event.t is not None)
        return observed

    def test_all_kinds_covered_with_exact_fields(self, attack_sweeps):
        with open(self.FIXTURE) as fh:
            schema = json.load(fh)
        observed = self._observed(attack_sweeps)
        assert sorted(observed) == sorted(schema), \
            "event catalogue drifted; update trace_event_schema.json " \
            "and the docs together"
        for kind, spec in schema.items():
            entry = observed[kind]
            assert entry["fields"] == {frozenset(spec["required"])}, \
                f"{kind} fields diverge from the schema fixture"
            assert entry["timestamped"] == {spec["timestamped"]}, \
                f"{kind} timestamped flag diverges from the fixture"
