"""Self-test of the benchmark harness (about 20 s).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import run  # noqa: E402
from ledger import Ledger, Probe  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]], spec


def test_metric_names_and_units_match_the_declared_set():
    end_to_end, spec = _declared("end_to_end")
    per_layer, _ = _declared("per_layer")
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["command"][1:] == ["perfbench/run.py"]


@pytest.fixture
def out_dir():
    path = run.OUT_DIR / "self-test"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- planted failures ----------------------------------------------------------

def _tiny_simulation() -> int:
    from repro.net.events import Simulator

    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    return sim.run()


def planted_raises():
    _tiny_simulation()
    raise RuntimeError("planted failure")


def planted_wrong_sim_events():
    from repro.eval.experiments import AttackMatrixResult

    dispatched = _tiny_simulation()
    return AttackMatrixResult(
        topology="line", behavior="none", placement_strategy="fixed",
        adversary_router="r1", rate=1.0, detected=False, precision=1.0,
        recall=1.0, latency=None, total_suspicions=0, false_suspicions=0,
        segment_precision=0, sim_events=dispatched + 1)


def planted_unregistered_result():
    _tiny_simulation()
    return {"not": "a registered result type"}


@pytest.fixture
def planted_experiments():
    from repro.eval import registry

    names = []
    for fn in (planted_raises, planted_wrong_sim_events,
               planted_unregistered_result):
        name = fn.__name__
        registry.register(registry.ExperimentSpec(
            name, fn, lambda result: [], description="benchmark self-test"))
        names.append(name)
    yield names
    for name in names:
        registry.unregister(name)


def test_planted_failing_scenarios_are_counted_as_failed(planted_experiments,
                                                          out_dir):
    good = [op for op in WORKLOADS["pi2-matrix"].ops(0)
            if op.label.startswith("grid/none/0@")]
    planted = [Op(name, name, {}, lambda result: (0, 0))
               for name in planted_experiments]
    state = run.RunState()
    record = run.run_pass(good + planted, False, state, out_dir)
    assert state.attempted == 4
    assert state.failed == 3
    errors = {op.label: op.error for op in record.ops}
    assert errors[good[0].label] is None
    assert "planted failure" in errors["planted_raises"]
    assert "sim_events" in errors["planted_wrong_sim_events"]
    assert "round-trip" in errors["planted_unregistered_result"]


# -- the wrappers fire -----------------------------------------------------------

def _smoke_ops(name):
    """A short slice of each workload that still runs every layer it names."""
    ops = WORKLOADS[name].ops(0)
    if name == "chi-droptail":
        return [op for op in ops if op.experiment == "fig6_6"]
    if name == "pi2-matrix":
        return [op for op in ops
                if op.label.split("@")[0] in ("abilene/none/0",
                                               "abilene/drop/0")]
    return [dataclasses.replace(op, params={"end_time": 140.0})
            for op in ops]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_fire_and_tracing_changes_no_output(name, out_dir):
    ops = _smoke_ops(name)
    state = run.RunState()
    untraced = run.run_pass(ops, False, state, out_dir)
    traced = run.run_pass(ops, True, state, out_dir)
    # run_op fails a scenario whose digest or event count differs from
    # the first (untraced) pass.
    assert state.errors == []
    assert traced.dispatched == untraced.dispatched
    metrics = run.per_layer_metrics([untraced], traced)
    silent = [c for c in WORKLOADS[name].exercised if not metrics[c]]
    assert silent == []
    ok, line = run.ledger_check(traced)
    assert ok, line


def test_probe_puts_every_original_back():
    import importlib

    from repro.eval import experiments
    from repro.net.events import Simulator
    from repro.net.router import Router

    summaries = importlib.import_module("repro.core.summaries")

    before = (Simulator.run, Simulator.schedule, Router.receive,
              experiments.build_scenario, summaries.fingerprint)
    with Probe(Ledger()):
        assert Simulator.schedule is not before[1]
    after = (Simulator.run, Simulator.schedule, Router.receive,
             experiments.build_scenario, summaries.fingerprint)
    assert after == before


# -- host-speed scaling ----------------------------------------------------------

def test_reference_samples_are_left_out_of_program_time():
    import signal
    from time import perf_counter

    import hostspeed

    handler = signal.getsignal(signal.SIGALRM)
    meter = hostspeed.HostMeter()
    start, program_start = perf_counter(), meter.clock()
    with meter.sampling():
        while perf_counter() - start < 0.5:
            pass
    elapsed = perf_counter() - start
    program = meter.clock() - program_start
    reference, sampled = meter.counters()
    assert sampled >= 3
    assert abs(program + reference - elapsed) < 1e-3
    assert signal.getsignal(signal.SIGALRM) == handler


def test_untraced_pass_scales_times_and_repeats_setup(out_dir):
    from repro.net.events import Simulator

    op = WORKLOADS["chi-droptail"].ops(0)[0]
    with Probe() as probe:
        before = Simulator.dispatched_total
        assert run.time_setup(op, probe, out_dir) > 0
        assert Simulator.dispatched_total == before
    state = run.RunState()
    record = run.run_pass([op], False, state, out_dir, setup_repeats=2)
    assert state.errors == []
    assert record.ops[0].slowdown != 1.0
    assert record.scaled_wall_s == pytest.approx(
        record.ops[0].wall_s / record.ops[0].slowdown)
