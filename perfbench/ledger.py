"""Per-layer cost ledger, recorded from outside the program.

The benchmark never edits ``src/``.  Instead, :class:`Probe` replaces a
few public names with thin wrappers for the duration of a pass and puts
the originals back afterwards:

* ``Simulator.run`` is always wrapped (traced or not): it gives each
  scenario's set-up time (start to first ``run``), its simulate time
  and its score time (last ``run`` return to result), read from
  the probe's ``HostMeter`` clock, so host-speed samples are left out.  With
  ``Probe.stop_at_run`` set it raises :class:`SetupDone` instead of
  running, which times a scenario's set-up alone.
* Given a :class:`Ledger`, every layer's public entry points are
  wrapped too, and every callback scheduled through ``Simulator.schedule`` /
  ``schedule_at`` or registered through ``Router.register_flow`` is
  charged to the layer of the module that defines it.

A span is one wrapped call.  Its self time is its duration minus the
time covered by the spans it encloses, so the self times of all layers
add up to the time spent inside the outermost spans.  Spans are folded
into per-layer sums and counters as they close (a pass makes millions
of them); the sums are written out when the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import HostMeter

#: Layers in ledger order.  ``bench`` is the harness itself plus any
#: callback whose module is not listed in ``MODULE_LAYERS``; the ledger
#: reports it as ``bench.unattributed_s``.
LAYERS = (
    "eval", "net.events", "net.router", "net.queues", "net.tcp",
    "net.traffic", "net.adversary", "net.routing", "crypto.fingerprint",
    "crypto.signatures", "core.summaries", "core.validation", "core.pi2",
    "core.chi", "core.fatih", "dist", "obs", "bench",
)

#: Module prefix -> layer; the longest matching prefix wins.  Πk+2 is
#: charged to Fatih, the only detector in the workloads that runs it.
MODULE_LAYERS = {
    "repro.eval": "eval",
    "repro.sweep": "eval",
    "repro.net.events": "net.events",
    "repro.net.router": "net.router",
    "repro.net.packet": "net.router",
    "repro.net.queues": "net.queues",
    "repro.net.tcp": "net.tcp",
    "repro.net.traffic": "net.traffic",
    "repro.net.adversary": "net.adversary",
    "repro.net.routing": "net.routing",
    "repro.net.topology": "net.routing",
    "repro.crypto.fingerprint": "crypto.fingerprint",
    "repro.crypto.signatures": "crypto.signatures",
    "repro.crypto.keys": "crypto.signatures",
    "repro.core.summaries": "core.summaries",
    "repro.core.validation": "core.validation",
    "repro.core.pi2": "core.pi2",
    "repro.core.chi": "core.chi",
    "repro.core.pik2": "core.fatih",
    "repro.core.fatih": "core.fatih",
    "repro.dist": "dist",
    "repro.obs": "obs",
}

#: Extra counters for callbacks, by the callback's qualified name.
CALLBACK_COUNTERS = {
    "LinkStateRouting._run_spf": "net.routing.spf_calls",
    "LinkStateRouting._recv_flood": "net.routing.control_msgs",
    "LinkStateRouting._recv_hello": "net.routing.control_msgs",
    "ProtocolPi2.evaluate_round": "core.pi2.rounds",
    "ProtocolChi.evaluate_round": "core.chi.rounds",
}

#: Explicit entry points: (module, qualified name, layer, call counter).
ENTRY_POINTS = (
    ("repro.net.router", "Router.receive", "net.router",
     "net.router.received"),
    ("repro.net.router", "Router.originate", "net.router",
     "net.router.originated"),
    ("repro.net.routing", "install_static_routes", "net.routing", None),
    ("repro.net.routing", "compute_all_paths", "net.routing",
     "net.routing.spf_calls"),
    ("repro.crypto.fingerprint", "fingerprint", "crypto.fingerprint",
     "crypto.fingerprint.calls"),
    ("repro.crypto.signatures", "Signed.sign", "crypto.signatures",
     "crypto.signatures.signs"),
    ("repro.crypto.signatures", "Signed.verify", "crypto.signatures",
     "crypto.signatures.verifies"),
    ("repro.core.validation", "validate", "core.validation",
     "core.validation.checks"),
    ("repro.dist.consensus", "SignedConsensus.run", "dist",
     "dist.consensus.runs"),
    ("repro.dist.broadcast", "robust_flood", "dist",
     "dist.broadcast.floods"),
    ("repro.eval.scenarios", "build_scenario", "eval", "eval.builds"),
    ("repro.obs.record", "Recorder.event", "obs", "obs.events_emitted"),
)

#: MonitorTap hooks; every class in a mapped module that defines one
#: gets it wrapped (the no-op base class in ``repro.net.router`` excepted).
TAP_METHODS = ("on_receive", "on_enqueue", "on_transmit", "on_drop",
               "on_deliver", "on_originate")

#: Modules imported lazily by the program; loaded before patching so
#: their classes are wrapped too.
IMPORT_FIRST = ("repro.eval.registry", "repro.obs.trace")

#: Tap-owning layers whose tap calls are a reported counter.
TAP_COUNTERS = {"core.chi": "core.chi.tap_calls", "obs": "obs.tap_calls"}


class SetupDone(BaseException):
    """Raised by the wrapped ``Simulator.run`` when a probe only times
    set-up.  A ``BaseException``, so no ``except Exception`` in the
    program swallows it."""


def layer_of_module(module: Optional[str]) -> str:
    best, layer = "", "bench"
    for prefix, name in MODULE_LAYERS.items():
        if module and (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


class Ledger:
    """Self time per layer and counters for one pass."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        # Each frame is [time covered by child spans, layer].  The bottom
        # frame catches time outside every span and is never reported.
        self.stack: List[list] = [[0.0, None]]

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span charged to ``layer``."""
        stack = self.stack
        frame = [0.0, layer]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            stack.pop()
            self.self_s[layer] += duration - frame[0]
            stack[-1][0] += duration

    def total_s(self) -> float:
        return sum(self.self_s.values())


class Probe:
    """Installs the wrappers for one pass; a context manager."""

    def __init__(self, ledger: Optional[Ledger] = None,
                 meter: Optional[HostMeter] = None) -> None:
        self.ledger = ledger
        self.meter = meter if meter is not None else HostMeter()
        self._undo: List[Tuple[object, str, bool, object]] = []
        self._entries: Dict[object, Tuple[str, Tuple[str, ...]]] = {}
        self._builders: "weakref.WeakSet" = weakref.WeakSet()
        self.op_start()

    # -- per-operation phase clock ------------------------------------------
    def op_start(self) -> None:
        self.first_run: Optional[float] = None
        self.last_run_end: Optional[float] = None
        self.run_s = 0.0
        self.peak_state_units = 0
        #: Set to stop a scenario at its first ``Simulator.run``.
        self.stop_at_run = False

    # -- install / restore ---------------------------------------------------
    def __enter__(self) -> "Probe":
        # Import first: a module loaded while patches are in place would
        # copy a wrapper into its namespace and keep it after restore.
        for module_name in IMPORT_FIRST:
            importlib.import_module(module_name)
        from repro.net.events import Simulator

        self._patch(Simulator, "run", self._wrap_run(Simulator.run))
        if self.ledger is not None:
            self._install_traced()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, had, old in reversed(self._undo):
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _patch(self, owner, name: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, name, name in own, own.get(name)))
        setattr(owner, name, value)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` in every loaded ``repro`` module namespace.

        ``from x import f`` copies the binding, so wrapping ``x.f`` alone
        would miss callers that look the name up in their own module.
        """
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _install_traced(self) -> None:
        from repro.core.summaries import SummaryBuilder
        from repro.net.events import Event, Simulator
        from repro.net.router import Router

        for module_name, qualname, layer, counter in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            counters = (counter,) if counter else ()
            hook = self._validate_hook if qualname == "validate" else None
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, layer,
                                   counters, hook)
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self._wrap(
                    original, layer, counters, hook))

        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name.startswith("repro.") \
                    and layer_of_module(name) != "bench":
                self._patch_module_classes(module)

        counts = self.ledger.counts
        self._patch(Simulator, "schedule",
                    self._wrap_schedule(Simulator.schedule))
        self._patch(Simulator, "schedule_at",
                    self._wrap_schedule(Simulator.schedule_at))

        cancel = Event.cancel

        def counted_cancel(event):
            counts["net.events.cancelled"] += 1
            return cancel(event)
        self._patch(Event, "cancel", counted_cancel)

        register_flow = Router.register_flow
        probe = self

        def register_timed_flow(router, flow_id, handler):
            return register_flow(router, flow_id,
                                 probe._wrap(handler, *probe._entry(handler)))
        self._patch(Router, "register_flow", register_timed_flow)

        observe = SummaryBuilder.observe
        init = SummaryBuilder.__init__
        builders = self._builders

        def counted_observe(builder, *args):
            counts["core.summaries.observations"] += 1
            return observe(builder, *args)

        def tracked_init(builder, *args, **kwargs):
            init(builder, *args, **kwargs)
            builders.add(builder)
        self._patch(SummaryBuilder, "observe", counted_observe)
        self._patch(SummaryBuilder, "__init__", tracked_init)

    def _patch_module_classes(self, module) -> None:
        """Wrap tap hooks, adversary forwarding and queue operations."""
        module_name = module.__name__
        layer = layer_of_module(module_name)
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            own = vars(cls)
            if module_name != "repro.net.router":
                for hook in TAP_METHODS:
                    if hook in own:
                        counter = TAP_COUNTERS.get(layer)
                        self._patch_method(cls, hook, layer,
                                           (counter,) if counter else ())
            if layer == "net.adversary" and "on_forward" in own:
                self._patch(cls, "on_forward",
                            self._wrap_forward(own["on_forward"]))
            if layer == "net.queues":
                if "offer" in own:
                    self._patch_method(cls, "offer", layer,
                                       ("net.queues.offers",),
                                       self._offer_hook)
                if "pop" in own:
                    self._patch_method(cls, "pop", layer, ())

    def _patch_method(self, owner, name: str, layer: str,
                      counters: Tuple[str, ...], hook=None) -> None:
        original = vars(owner)[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, layer,
                                             counters, hook))
        else:
            wrapped = self._wrap(original, layer, counters, hook)
        self._patch(owner, name, wrapped)

    # -- result hooks ----------------------------------------------------------
    def _validate_hook(self, result) -> None:
        if not result.ok:
            self.ledger.counts["core.validation.failed"] += 1

    def _offer_hook(self, result) -> None:
        if not result[0]:
            self.ledger.counts["net.queues.drops"] += 1

    # -- wrapper factories ------------------------------------------------------
    # The span bookkeeping is inlined in the hot wrappers below instead of
    # going through Ledger.call: one call frame less per span halves the
    # tracing overhead, and that overhead is charged to the calling layer.
    def _wrap(self, fn, layer: str, counters: Tuple[str, ...], hook=None):
        ledger = self.ledger
        stack, self_s, counts = ledger.stack, ledger.self_s, ledger.counts

        def wrapper(*args, **kwargs):
            for counter in counters:
                counts[counter] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                stack[-1][0] += duration
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_forward(self, fn):
        """``Compromise.on_forward``: count outermost calls and drops."""
        stack, counts = self.ledger.stack, self.ledger.counts
        timed = self._wrap(fn, "net.adversary", ())

        def on_forward(*args):
            outermost = stack[-1][1] != "net.adversary"
            action = timed(*args)
            if outermost:
                counts["net.adversary.calls"] += 1
                if action.kind == "drop":
                    counts["net.adversary.malicious_drops"] += 1
            return action
        return on_forward

    def _entry(self, fn) -> Tuple[str, Tuple[str, ...]]:
        """(layer, counters) of a callback, cached per code object."""
        key = getattr(fn, "__code__", fn)
        entry = self._entries.get(key)
        if entry is None:
            layer = layer_of_module(getattr(fn, "__module__", None))
            extra = CALLBACK_COUNTERS.get(getattr(fn, "__qualname__", ""))
            entry = (layer, (f"{layer}.callbacks",) + ((extra,) if extra
                                                      else ()))
            self._entries[key] = entry
        return entry

    def _wrap_schedule(self, schedule):
        """Time the kernel's schedule call; charge the callback to its owner."""
        ledger = self.ledger
        stack, self_s, counts = ledger.stack, ledger.self_s, ledger.counts
        entry_of = self._entry

        def dispatch(entry, fn, *args):
            layer, counters = entry
            for counter in counters:
                counts[counter] += 1
            frame = [0.0, layer]
            stack.append(frame)
            start = perf_counter()
            try:
                fn(*args)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[layer] += duration - frame[0]
                stack[-1][0] += duration

        def timed_schedule(sim, when, fn, *args):
            counts["net.events.scheduled"] += 1
            entry = entry_of(fn)
            frame = [0.0, "net.events"]
            stack.append(frame)
            start = perf_counter()
            try:
                return schedule(sim, when, dispatch, entry, fn, *args)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s["net.events"] += duration - frame[0]
                stack[-1][0] += duration
        return timed_schedule

    def _wrap_run(self, run):
        probe = self

        clock = self.meter.clock

        def timed_run(sim, *args, **kwargs):
            start = clock()
            if probe.first_run is None:
                probe.first_run = start
            if probe.stop_at_run:
                raise SetupDone
            try:
                if probe.ledger is None:
                    return run(sim, *args, **kwargs)
                return probe.ledger.call("net.events", run, sim,
                                         *args, **kwargs)
            finally:
                end = clock()
                probe.run_s += end - start
                probe.last_run_end = end
                if probe.ledger is not None:
                    probe.ledger.call("bench", probe._sample_state)
        return timed_run

    def _sample_state(self) -> None:
        """Summary state alive when a run returns; the peak is kept."""
        units = sum(builder.state_size() for builder in self._builders)
        self.peak_state_units = max(self.peak_state_units, units)
