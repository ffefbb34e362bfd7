"""Benchmark of the reproduction: end-to-end metrics and a per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pi2-matrix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One process, one thread, scenarios back to back: a closed loop with one
client.  A pass runs every scenario of the workload once; a run repeats
passes until ``--seconds`` is used up (at least ``MIN_PASSES``) and
reports medians over passes.  Untraced passes scale their times by the
host's speed, measured with ``hostspeed.py`` while they run.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer ledger of the
median traced pass.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"

#: Passes a run makes even when one pass outlasts ``--seconds``.
MIN_PASSES = 2

#: Host-speed reference run right before and right after each scenario
#: of an untraced pass, besides the samples taken while it runs.
REFERENCE_BRACKET_S = 0.01

#: Reference run before the first pass, so the samples start warm.
REFERENCE_WARMUP_S = 0.3

#: The ledger must sum to the traced wall time within this share (plus
#: ``LEDGER_SLACK_S`` for the clock reads around each scenario).
LEDGER_TOLERANCE = 0.005
LEDGER_SLACK_S = 0.001

END_TO_END = (
    ("scaled_wall_s", "s"), ("setup_s", "s"),
    ("scaled_events_per_s", "1/s"), ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("eval.build_s", "s"), ("eval.score_s", "s"), ("eval.builds", "count"),
    ("eval.self_s", "s"), ("eval.false_suspicions", "count"),
    ("eval.missed_detections", "count"),
    ("net.events.dispatched", "count"), ("net.events.scheduled", "count"),
    ("net.events.cancelled", "count"), ("net.events.self_s", "s"),
    ("net.router.received", "count"), ("net.router.originated", "count"),
    ("net.router.self_s", "s"), ("net.router.us_per_packet", "us"),
    ("net.queues.offers", "count"), ("net.queues.drop_share", "ratio"),
    ("net.queues.self_s", "s"),
    ("net.tcp.callbacks", "count"), ("net.tcp.self_s", "s"),
    ("net.traffic.callbacks", "count"), ("net.traffic.self_s", "s"),
    ("net.adversary.calls", "count"),
    ("net.adversary.malicious_drops", "count"),
    ("net.adversary.self_s", "s"),
    ("net.routing.spf_calls", "count"), ("net.routing.control_msgs", "count"),
    ("net.routing.self_s", "s"),
    ("crypto.fingerprint.calls", "count"), ("crypto.fingerprint.self_s", "s"),
    ("crypto.signatures.signs", "count"),
    ("crypto.signatures.verifies", "count"),
    ("crypto.signatures.self_s", "s"),
    ("core.summaries.observations", "count"),
    ("core.summaries.state_units", "count"), ("core.summaries.self_s", "s"),
    ("core.validation.checks", "count"),
    ("core.validation.failed_share", "ratio"),
    ("core.validation.self_s", "s"),
    ("core.pi2.rounds", "count"), ("core.pi2.self_s", "s"),
    ("core.chi.tap_calls", "count"), ("core.chi.rounds", "count"),
    ("core.chi.self_s", "s"), ("core.fatih.self_s", "s"),
    ("dist.consensus.runs", "count"), ("dist.broadcast.floods", "count"),
    ("dist.self_s", "s"),
    ("obs.tap_calls", "count"), ("obs.events_emitted", "count"),
    ("obs.self_s", "s"),
    ("bench.traced_wall_s", "s"), ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_s", "s"), ("bench.raw_wall_s", "s"),
    ("bench.host_slowdown", "ratio"),
)


@dataclass
class OpRecord:
    label: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    score_s: float = 0.0
    dispatched: int = 0
    digest: str = ""
    false_suspicions: int = 0
    missed: int = 0
    state_units: int = 0
    #: Host slowdown over the scenario: reference chunk time around it
    #: over ``hostspeed.NOMINAL_CHUNK_S``.  1.0 in traced passes, which
    #: run no reference.
    slowdown: float = 1.0
    error: Optional[str] = None


@dataclass
class PassRecord:
    traced: bool
    ops: List[OpRecord]
    ledger: Optional[object] = None

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def setup_s(self) -> float:
        return sum(op.setup_s for op in self.ops)

    @property
    def score_s(self) -> float:
        return sum(op.score_s for op in self.ops)

    @property
    def dispatched(self) -> int:
        return sum(op.dispatched for op in self.ops)

    @property
    def scaled_wall_s(self) -> float:
        return sum(op.wall_s / op.slowdown for op in self.ops)

    @property
    def scaled_setup_s(self) -> float:
        return sum(op.setup_s / op.slowdown for op in self.ops)

    @property
    def scaled_events_per_s(self) -> float:
        run_s = sum(op.run_s / op.slowdown for op in self.ops)
        return self.dispatched / run_s if run_s > 0 else 0.0

    @property
    def slowdown(self) -> float:
        """The pass's raw wall time over its scaled wall time."""
        return self.wall_s / self.scaled_wall_s


@dataclass
class RunState:
    """Everything a run has seen; checks compare passes against it."""

    reference: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, op: OpRecord, reason: str) -> None:
        if op.error is None:
            op.error = reason
            self.failed += 1
            self.errors.append(f"{op.label}: {reason}")


# ---------------------------------------------------------------------------
# One scenario
# ---------------------------------------------------------------------------

def scenario_body(op, ledger, out_dir: Path):
    """A zero-argument call that runs ``op`` once, with its trace if any."""
    from repro.eval.registry import run_experiment
    from repro.obs import JsonlSink, recorder

    def experiment():
        if ledger is None:
            return run_experiment(op.experiment, op.params)
        return ledger.call("eval", run_experiment, op.experiment, op.params)

    def body():
        if op.trace_name is None:
            return experiment()
        rec = recorder()
        rec.enable(JsonlSink(str(trace_path(op, out_dir))))
        try:
            return experiment()
        finally:
            rec.disable()
    return body


def trace_path(op, out_dir: Path) -> Path:
    return out_dir / f"{op.trace_name}.jsonl"


def run_op(op, probe, state: RunState, out_dir: Path) -> OpRecord:
    """Run one scenario, time its phases and check its output.

    A scenario fails if it raises, if its result does not round-trip
    through ``serialize_result``/``deserialize_result``, if a reported
    ``sim_events`` differs from the kernel's dispatch delta, if it
    dispatches no event, or if its digest differs from the first pass.
    """
    from repro.eval import (deserialize_result, result_type_name,
                            serialize_result)
    from repro.net.events import Simulator

    record = OpRecord(op.label)
    state.attempted += 1
    ledger = probe.ledger
    body = scenario_body(op, ledger, out_dir)

    gc.collect()
    probe.op_start()
    dispatched_before = Simulator.dispatched_total
    clock = probe.meter.clock
    start = clock()
    try:
        if ledger is None:
            with probe.meter.sampling():
                result = body()
        else:
            result = ledger.call("bench", body)
    except Exception:
        record.wall_s = clock() - start
        state.fail(record, "raised " + traceback.format_exc(limit=-1)
                   .strip().splitlines()[-1])
        return record
    end = clock()
    record.wall_s = end - start
    record.dispatched = Simulator.dispatched_total - dispatched_before
    first_run = probe.first_run if probe.first_run is not None else end
    last_run = (probe.last_run_end if probe.last_run_end is not None
                else end)
    record.setup_s = first_run - start
    record.run_s = probe.run_s
    record.score_s = end - last_run
    record.state_units = probe.peak_state_units

    type_name = result_type_name(result)
    data = serialize_result(result)
    text = json.dumps(data, sort_keys=True)
    back = deserialize_result(type_name, json.loads(text))
    if not type_name or json.dumps(serialize_result(back),
                                   sort_keys=True) != text:
        state.fail(record, f"result {type(result).__name__} does not "
                           f"round-trip through serialize_result")
    reported = getattr(result, "sim_events", None)
    if reported is not None and reported != record.dispatched:
        state.fail(record, f"sim_events {reported} != kernel dispatch "
                           f"delta {record.dispatched}")
    if record.dispatched <= 0:
        state.fail(record, "no simulator event dispatched")
    if record.error is None:
        record.false_suspicions, record.missed = op.score(result)
    digest = hashlib.sha256(text.encode())
    digest.update(f"|events={record.dispatched}".encode())
    if op.trace_name is not None:
        # Event count, not bytes: ids drawn from process-wide counters
        # (the RTT probe flow is rtt-1, rtt-2, ... per process) make the
        # trace bytes differ between passes of one process.
        with open(trace_path(op, out_dir), "rb") as trace:
            digest.update(f"|trace_lines={sum(1 for _ in trace)}".encode())
    record.digest = digest.hexdigest()
    expected = state.reference.setdefault(op.label, record.digest)
    if expected != record.digest:
        state.fail(record, "result digest or event count differs from "
                           "the first pass")
    return record


def time_setup(op, probe, out_dir: Path) -> float:
    """Run ``op`` only up to its first ``Simulator.run``; the seconds taken."""
    from ledger import SetupDone

    probe.op_start()
    probe.stop_at_run = True
    start = probe.meter.clock()
    try:
        scenario_body(op, None, out_dir)()
    except SetupDone:
        return probe.first_run - start
    finally:
        probe.stop_at_run = False
    raise AssertionError(f"{op.label} returned without calling "
                         f"Simulator.run")


def run_pass(ops, traced: bool, state: RunState, out_dir: Path,
             setup_repeats: int = 0,
             meter: Optional[hostspeed.HostMeter] = None) -> PassRecord:
    """Run every operation once.

    In an untraced pass, each operation's slowdown is the mean reference
    chunk time over the samples taken while it ran and right around it,
    over ``hostspeed.NOMINAL_CHUNK_S``.  Traced passes run no reference.
    With ``setup_repeats``, an untraced pass also runs each operation's
    set-up alone that many more times, and its ``setup_s`` is the median.
    """
    from ledger import Ledger, Probe

    ledger = Ledger() if traced else None
    records = []
    with Probe(ledger, meter) as probe:
        meter = probe.meter
        for op in ops:
            if traced:
                records.append(run_op(op, probe, state, out_dir))
                continue
            seconds, chunks = meter.counters()
            meter.sample(REFERENCE_BRACKET_S)
            record = run_op(op, probe, state, out_dir)
            if record.error is None and setup_repeats:
                record.setup_s = statistics.median(
                    [record.setup_s] + [time_setup(op, probe, out_dir)
                                        for _ in range(setup_repeats)])
            meter.sample(REFERENCE_BRACKET_S)
            seconds_after, chunks_after = meter.counters()
            record.slowdown = ((seconds_after - seconds)
                               / (chunks_after - chunks)
                               / hostspeed.NOMINAL_CHUNK_S)
            records.append(record)
    return PassRecord(traced, records, ledger)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(passes: List[PassRecord],
                       rss_mb: float) -> Dict[str, float]:
    return {
        "scaled_wall_s": statistics.median(p.scaled_wall_s for p in passes),
        "setup_s": statistics.median(p.scaled_setup_s for p in passes),
        "scaled_events_per_s": statistics.median(
            p.scaled_events_per_s for p in passes),
        "peak_rss_mb": rss_mb,
    }


def ledger_check(traced: PassRecord) -> Tuple[bool, str]:
    """Layer self times must add up to the traced pass's wall time."""
    total = traced.ledger.total_s()
    allowed = LEDGER_TOLERANCE * traced.wall_s + LEDGER_SLACK_S * len(
        traced.ops)
    ok = abs(total - traced.wall_s) <= allowed
    return ok, (f"ledger sum {total:.6f} s vs traced wall "
                f"{traced.wall_s:.6f} s, allowed difference {allowed:.6f} s: "
                f"{'ok' if ok else 'MISMATCH'}")


def per_layer_metrics(untraced: List[PassRecord],
                      traced: PassRecord) -> Dict[str, float]:
    counts = traced.ledger.counts
    self_s = traced.ledger.self_s

    def share(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    received = counts["net.router.received"]
    derived: Dict[str, float] = {
        "eval.build_s": statistics.median(p.setup_s for p in untraced),
        "eval.score_s": statistics.median(p.score_s for p in untraced),
        "eval.false_suspicions": sum(op.false_suspicions
                                     for op in traced.ops),
        "eval.missed_detections": sum(op.missed for op in traced.ops),
        "net.events.dispatched": traced.dispatched,
        "net.router.us_per_packet": (1e6 * self_s["net.router"] / received
                                     if received else 0.0),
        "net.queues.drop_share": share("net.queues.drops",
                                       "net.queues.offers"),
        "core.summaries.state_units": sum(op.state_units
                                          for op in traced.ops),
        "core.validation.failed_share": share("core.validation.failed",
                                              "core.validation.checks"),
        "bench.traced_wall_s": traced.wall_s,
        "bench.trace_overhead": traced.wall_s / statistics.median(
            p.wall_s for p in untraced) - 1.0,
        "bench.unattributed_s": self_s["bench"],
        "bench.raw_wall_s": statistics.median(p.wall_s for p in untraced),
        "bench.host_slowdown": statistics.median(
            p.slowdown for p in untraced),
    }
    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = self_s[name[:-len(".self_s")]]
        else:
            value = counts[name]
        metrics[name] = value
    return metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_ledger(traced: PassRecord) -> None:
    from ledger import LAYERS

    wall = traced.wall_s
    print(f"ledger of the median traced pass ({wall:.3f} s):")
    print(f"  {'layer':<20}{'self_s':>12}{'share':>9}")
    for layer in LAYERS:
        spent = traced.ledger.self_s.get(layer, 0.0)
        print(f"  {layer:<20}{spent:>12.4f}{100 * spent / wall:>8.1f}%")
    print(f"  {'sum':<20}{traced.ledger.total_s():>12.4f}")


def emit(correct: bool, state: RunState, metrics: Dict[str, float],
         units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<32}{_fmt(value):>16} {units[name]}")
    print(f"  operations attempted {state.attempted}, failed {state.failed}")
    for error in state.errors[:20]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def detection_line(passes: List[PassRecord]) -> str:
    first = passes[0].ops
    return (f"  detection: false_suspicions "
            f"{sum(op.false_suspicions for op in first)} count, "
            f"missed_detections {sum(op.missed for op in first)} count "
            f"(per pass, identical on every pass)")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.ops(seed)
    out_dir = OUT_DIR / name
    out_dir.mkdir(parents=True, exist_ok=True)
    state = RunState()
    passes: List[PassRecord] = []
    start = perf_counter()
    meter = hostspeed.HostMeter()
    meter.sample(REFERENCE_WARMUP_S)
    # Untraced-only runs measure; traced runs alternate untraced and
    # traced passes so the overhead ratio compares neighbours.
    cycle = (True, False) if trace else (False,)
    min_passes = len(cycle) if trace else MIN_PASSES
    # Peak RSS is read once the first passes are done: the program's
    # memory creeps up from pass to pass, and a faster host runs more
    # passes in ``--seconds``.
    rss_mb = None
    while True:
        for traced in cycle:
            passes.append(run_pass(ops, traced, state, out_dir,
                                   workload.setup_repeats, meter))
        if rss_mb is None and len(passes) >= min_passes:
            rss_mb = peak_rss_mb()
        elapsed = perf_counter() - start
        per_cycle = elapsed / (len(passes) / len(cycle))
        if len(passes) >= min_passes and elapsed + per_cycle > seconds:
            break

    untraced = [p for p in passes if not p.traced]
    walls = sorted(p.wall_s for p in untraced)
    print(f"workload {name}  seed {seed}  ops/pass {len(ops)}  "
          f"passes {len(untraced)} untraced, {len(passes) - len(untraced)} "
          f"traced  host {perf_counter() - start:.1f} s")
    print(f"  untraced pass raw wall_s min {walls[0]:.4f}, median "
          f"{statistics.median(walls):.4f}, max {walls[-1]:.4f}; host "
          f"slowdown median "
          f"{statistics.median(p.slowdown for p in untraced):.3f}")
    print(detection_line(passes))
    correct = state.failed == 0
    if not trace:
        metrics = end_to_end_metrics(untraced, rss_mb)
        emit(correct, state, metrics, dict(END_TO_END))
        return 0

    traced_passes = sorted((p for p in passes if p.traced),
                           key=lambda p: p.wall_s)
    median_traced = traced_passes[(len(traced_passes) - 1) // 2]
    print_ledger(median_traced)
    ledger_ok, ledger_line = ledger_check(median_traced)
    print(f"  {ledger_line}")
    correct = correct and ledger_ok
    metrics = per_layer_metrics(untraced, median_traced)
    silent = [name for name in workload.exercised if not metrics[name]]
    if silent:
        print(f"  wrappers that never fired: {', '.join(silent)}")
    emit(correct, state, metrics, dict(PER_LAYER))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            print(f"=== {name} --trace {trace} ===", flush=True)
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            if done.returncode != 0:
                status = done.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="chi-droptail, pi2-matrix, fatih-traced or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run the "
              f"benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    os.chdir(ROOT)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
