"""Typed, composable, sweepable scenario specifications.

A :class:`ScenarioSpec` bundles the four axes the paper's evaluation (and
WedgeTail-style attack matrices) vary independently:

* :class:`TopologySpec` — which network, from a registered catalogue
  (``abilene``, ``sprintlink_like``, ``ebone_like``, ``line``, ``ring``,
  ``grid``, plus anything added via :func:`register_topology`);
* :class:`AdversarySpec` — what the compromised router does (behavior
  kind, intensity/rate, flow targeting);
* :class:`PlacementSpec` — where the compromised router sits (``fixed``,
  ``seeded-random``, ``max-betweenness``, ``articulation-point``);
* :class:`TrafficSpec` — the offered load crossing it.

Every spec serializes with ``to_dict``/``from_dict`` so it can flow
through the sweep engine's ``ParamSpec``/``--grid``/cache-key machinery:
``to_dict`` output is plain JSON data whose canonical dump
(``json.dumps(..., sort_keys=True)``) is byte-stable across a
round-trip, which is what makes grid cells cacheable and mergeable.
Construction is deterministic — placement resolution and adversary
builds draw only from seeds handed in explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.net import (
    Compromise,
    DelayAttack,
    DropFlowAttack,
    DropFractionAttack,
    FabricateAttack,
    MisrouteAttack,
    ModifyAttack,
    Network,
    ReorderAttack,
    Topology,
    abilene,
    chain,
    ebone_like,
    grid,
    ring,
    sprintlink_like,
)

#: Adversarial behaviors an :class:`AdversarySpec` can request (the
#: paper's traffic-faulty taxonomy, §2.2, plus "none" for control cells).
BEHAVIORS = (
    "none", "drop", "modify", "reorder", "delay", "fabricate", "misroute",
)

#: Behaviors whose ``rate`` is a fraction of matched packets, in [0, 1].
_FRACTION_BEHAVIORS = ("drop", "modify", "misroute")

#: Strategies a :class:`PlacementSpec` can use to pick the bad router.
PLACEMENT_STRATEGIES = (
    "fixed", "seeded-random", "max-betweenness", "articulation-point",
)

#: Offered-load shapes a :class:`TrafficSpec` can request.
TRAFFIC_KINDS = ("cbr", "tcp")

#: Canonical option storage: a sorted tuple of (key, value) pairs.
Options = Tuple[Tuple[str, object], ...]


def _canonical_options(options: object) -> Options:
    """Sorted, duplicate-free (key, value) tuple from a mapping/iterable."""
    if isinstance(options, Mapping):
        items = list(options.items())
    else:
        items = [tuple(pair) for pair in options]  # type: ignore[union-attr]
    out = tuple(sorted((str(key), value) for key, value in items))
    names = [key for key, _ in out]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate option keys: {sorted(names)}")
    return out


def _lookup(options: Options, key: str, default: object = None) -> object:
    for name, value in options:
        if name == key:
            return value
    return default


# ---------------------------------------------------------------------------
# Topology catalogue
# ---------------------------------------------------------------------------

_TOPOLOGY_CATALOGUE: Dict[str, Callable[..., Topology]] = {}


def register_topology(name: str, factory: Callable[..., Topology]) -> None:
    """Register ``factory`` under ``name`` for :meth:`TopologySpec.build`.

    The factory receives the spec's options as keyword arguments and must
    be deterministic for a given option set.
    """
    if name in _TOPOLOGY_CATALOGUE:
        raise ValueError(f"topology {name!r} is already registered")
    _TOPOLOGY_CATALOGUE[name] = factory


def topology_names() -> Tuple[str, ...]:
    """Sorted names of every registered topology."""
    return tuple(sorted(_TOPOLOGY_CATALOGUE))


def _line_topology(n: int = 6, **link_kwargs) -> Topology:
    return chain(int(n), **link_kwargs)


def _ring_topology(n: int = 8, **link_kwargs) -> Topology:
    return ring(int(n), **link_kwargs)


def _grid_topology(rows: int = 3, cols: int = 3, **link_kwargs) -> Topology:
    return grid(int(rows), int(cols), **link_kwargs)


for _name, _factory in (
    ("abilene", abilene),
    ("sprintlink_like", sprintlink_like),
    ("ebone_like", ebone_like),
    ("line", _line_topology),
    ("ring", _ring_topology),
    ("grid", _grid_topology),
):
    register_topology(_name, _factory)
del _name, _factory


@dataclass(frozen=True)
class TopologySpec:
    """Which network to build, by catalogue name plus factory options."""

    name: str = "abilene"
    options: Options = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "options", _canonical_options(self.options))

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def build(self) -> Topology:
        try:
            factory = _TOPOLOGY_CATALOGUE[self.name]
        except KeyError:
            raise ValueError(
                f"unknown topology {self.name!r}; registered: "
                f"{', '.join(topology_names())}") from None
        return factory(**{key: value for key, value in self.options})

    def to_dict(self) -> dict:
        return {"name": self.name,
                "options": {key: value for key, value in self.options}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        _check_keys("topology", data, ("name", "options"))
        return cls(name=data.get("name", "abilene"),
                   options=_canonical_options(data.get("options", ())))


# ---------------------------------------------------------------------------
# Adversary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarySpec:
    """What the compromised router does to traffic crossing it.

    ``rate`` is the behavior's intensity: the fraction of matched packets
    affected for ``drop``/``modify``/``misroute`` (in [0, 1]); ignored for
    ``reorder``/``delay`` (use the ``period``/``hold``/``delay`` options);
    and the forged-packet rate multiplier for ``fabricate`` (> 0;
    injection runs at ``rate * 100`` packets/second unless a ``rate_pps``
    option overrides it).  Every rate must be finite; construction raises
    ``ValueError`` otherwise.  ``targeting`` is ``"flows"`` (only the
    scenario's monitored flows are matched) or ``"all"`` (every packet is
    fair game).
    """

    behavior: str = "drop"
    rate: float = 1.0
    targeting: str = "flows"
    options: Options = ()

    def __post_init__(self) -> None:
        behavior = str(self.behavior)
        if behavior not in BEHAVIORS:
            raise ValueError(
                f"unknown adversary behavior {behavior!r}; one of "
                f"{', '.join(BEHAVIORS)}")
        targeting = str(self.targeting)
        if targeting not in ("flows", "all"):
            raise ValueError(
                f"unknown adversary targeting {targeting!r}; "
                f"'flows' or 'all'")
        rate = float(self.rate)
        if not (math.isfinite(rate) and rate >= 0.0):
            raise ValueError(
                f"adversary rate must be finite and >= 0, got {rate}")
        if behavior in _FRACTION_BEHAVIORS and rate > 1.0:
            raise ValueError(
                f"adversary rate for {behavior!r} is the fraction of "
                f"matched packets affected and must be in [0, 1], "
                f"got {rate}")
        if behavior == "fabricate" and rate == 0.0:
            raise ValueError(
                "adversary rate for 'fabricate' scales the forged-packet "
                "rate and must be > 0, got 0.0")
        object.__setattr__(self, "behavior", behavior)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "targeting", targeting)
        object.__setattr__(self, "options", _canonical_options(self.options))

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def build(
        self,
        network: Network,
        router: str,
        flow_ids: Sequence[str],
        seed: int,
        *,
        wrong_neighbor: Optional[str] = None,
        inject_neighbor: Optional[str] = None,
        forged_src: Optional[str] = None,
        forged_dst: Optional[str] = None,
    ) -> Optional[Compromise]:
        """Instantiate the compromise for ``router`` (None for "none").

        ``wrong_neighbor`` is required for ``misroute``;
        ``inject_neighbor``/``forged_src``/``forged_dst`` for
        ``fabricate``.  The caller attaches the returned object to
        ``network.routers[router].compromise`` (and calls ``start`` for
        fabricate, which is an active behaviour).
        """
        flows = sorted(flow_ids)
        target = flows if self.targeting == "flows" else None
        if self.behavior == "none":
            return None
        if self.behavior == "drop":
            if target is None:
                return DropFractionAttack(self.rate, seed=seed)
            return DropFlowAttack(target, fraction=self.rate, seed=seed)
        if self.behavior == "modify":
            return ModifyAttack(target, fraction=self.rate, seed=seed)
        if self.behavior == "reorder":
            return ReorderAttack(target,
                                 period=int(self.option("period", 4)),
                                 hold=float(self.option("hold", 0.05)))
        if self.behavior == "delay":
            return DelayAttack(float(self.option("delay", 0.05)),
                               flows=target)
        if self.behavior == "misroute":
            if wrong_neighbor is None:
                raise ValueError("misroute needs a wrong_neighbor")
            return MisrouteAttack(wrong_neighbor, flows=target,
                                  fraction=self.rate, seed=seed)
        # fabricate
        if inject_neighbor is None or forged_src is None or forged_dst is None:
            raise ValueError(
                "fabricate needs inject_neighbor, forged_src and forged_dst")
        rate_pps = float(self.option("rate_pps", 100.0 * self.rate))
        if rate_pps <= 0.0:
            raise ValueError("fabricate needs a positive injection rate")
        return FabricateAttack(
            network, router, inject_neighbor, forged_src, forged_dst,
            flow_id=str(self.option("flow_id", f"forged-{router}")),
            rate_pps=rate_pps, seed=seed)

    def to_dict(self) -> dict:
        return {"behavior": self.behavior, "rate": self.rate,
                "targeting": self.targeting,
                "options": {key: value for key, value in self.options}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "AdversarySpec":
        _check_keys("adversary", data,
                    ("behavior", "rate", "targeting", "options"))
        return cls(behavior=data.get("behavior", "drop"),
                   rate=data.get("rate", 1.0),
                   targeting=data.get("targeting", "flows"),
                   options=_canonical_options(data.get("options", ())))


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementSpec:
    """Where the compromised router sits.

    * ``fixed`` — the named ``router`` (must be a transit candidate);
    * ``seeded-random`` — uniform over the sorted candidates, seeded;
    * ``max-betweenness`` — the candidate with the highest betweenness
      centrality (lexicographic tie-break);
    * ``articulation-point`` — the highest-betweenness articulation
      point among the candidates, falling back to ``max-betweenness``
      when the candidate set contains no cut vertex.
    """

    strategy: str = "seeded-random"
    router: str = ""

    def __post_init__(self) -> None:
        strategy = str(self.strategy)
        if strategy not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {strategy!r}; one of "
                f"{', '.join(PLACEMENT_STRATEGIES)}")
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "router", str(self.router))

    def resolve(self, topology: Topology, seed: int,
                candidates: Sequence[str]) -> str:
        """Pick the adversary's router, deterministically for a seed."""
        pool = sorted(set(candidates))
        if not pool:
            raise ValueError(
                f"no transit candidates to place an adversary on in "
                f"{topology.name!r}")
        if self.strategy == "fixed":
            if not self.router:
                raise ValueError(
                    "placement.strategy=fixed needs placement.router")
            if self.router not in pool:
                raise ValueError(
                    f"placement.router {self.router!r} is not a transit "
                    f"candidate in {topology.name!r}")
            return self.router
        if self.strategy == "seeded-random":
            return random.Random(seed).choice(pool)
        graph = topology.to_networkx()
        centrality = nx.betweenness_centrality(graph)
        if self.strategy == "articulation-point":
            cut = sorted(set(nx.articulation_points(graph)) & set(pool))
            if cut:
                pool = cut
        # max() keeps the first of equals, so sorted pool => lexicographic
        # tie-break and a deterministic pick.
        return max(pool, key=lambda name: centrality.get(name, 0.0))

    def to_dict(self) -> dict:
        return {"strategy": self.strategy, "router": self.router}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PlacementSpec":
        _check_keys("placement", data, ("strategy", "router"))
        return cls(strategy=data.get("strategy", "seeded-random"),
                   router=data.get("router", ""))


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpec:
    """Offered load: how many flows, how fast, for how long."""

    kind: str = "cbr"
    flows: int = 2
    rate_bps: float = 600_000.0
    duration: float = 4.0

    def __post_init__(self) -> None:
        kind = str(self.kind)
        if kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {kind!r}; one of "
                f"{', '.join(TRAFFIC_KINDS)}")
        flows = int(self.flows)
        if flows < 1:
            raise ValueError("traffic needs at least one flow")
        rate_bps = float(self.rate_bps)
        duration = float(self.duration)
        if rate_bps <= 0.0 or duration <= 0.0:
            raise ValueError("traffic rate_bps and duration must be > 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "rate_bps", rate_bps)
        object.__setattr__(self, "duration", duration)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "flows": self.flows,
                "rate_bps": self.rate_bps, "duration": self.duration}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TrafficSpec":
        _check_keys("traffic", data,
                    ("kind", "flows", "rate_bps", "duration"))
        return cls(kind=data.get("kind", "cbr"),
                   flows=data.get("flows", 2),
                   rate_bps=data.get("rate_bps", 600_000.0),
                   duration=data.get("duration", 4.0))


# ---------------------------------------------------------------------------
# The composed scenario
# ---------------------------------------------------------------------------

def transit_candidates(topology: Topology) -> Tuple[str, ...]:
    """Routers interior to at least one shortest path in *topology*.

    This is the candidate pool adversary placement draws from: only a
    transit router ever sees the traffic it could attack.  Shared by
    scenario construction and forensic ground-truth resolution so the
    two can never disagree about where an adversary may sit.
    """
    from repro.net.routing import compute_all_paths

    paths = compute_all_paths(topology)
    return tuple(sorted({hop for path in paths.values()
                         for hop in path[1:-1]}))


def resolve_ground_truth(spec: "ScenarioSpec") -> dict:
    """The adversary a spec plants, resolved without running anything.

    Returns a JSON-ready dict with the planted ``router`` (None for
    ``behavior="none"`` control cells), the ``behavior``/``rate``, the
    virtual time ``attack_at`` the adversary activates (start of round
    1, i.e. ``spec.tau``), and the topology/placement/seed coordinates.
    Placement resolution is exactly the deterministic procedure
    :func:`repro.eval.build_scenario` uses, so forensic tooling can
    recover ground truth from a sweep manifest's serialized spec alone.
    """
    base = {
        "behavior": spec.adversary.behavior,
        "rate": spec.adversary.rate,
        "placement": spec.placement.strategy,
        "topology": spec.topology.name,
        "seed": spec.seed,
    }
    if spec.adversary.behavior == "none":
        return dict(base, router=None, attack_at=None)
    topo = spec.topology.build()
    bad = spec.placement.resolve(topo, spec.seed,
                                 transit_candidates(topo))
    return dict(base, router=bad, attack_at=spec.tau)


def _as_spec(value: object, cls: type, label: str):
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    raise ValueError(
        f"{label} must be a {cls.__name__} or a mapping, "
        f"got {type(value).__name__}")


def _check_keys(label: str, data: Mapping, allowed: Tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {label} key(s) {', '.join(repr(k) for k in unknown)}; "
            f"accepted: {', '.join(allowed)}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable description of one evaluation cell."""

    topology: TopologySpec = TopologySpec()
    adversary: AdversarySpec = AdversarySpec()
    placement: PlacementSpec = PlacementSpec()
    traffic: TrafficSpec = TrafficSpec()
    tau: float = 1.0
    rounds: int = 3
    seed: int = 0
    options: Options = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "topology",
                           _as_spec(self.topology, TopologySpec, "topology"))
        object.__setattr__(self, "adversary",
                           _as_spec(self.adversary, AdversarySpec,
                                    "adversary"))
        object.__setattr__(self, "placement",
                           _as_spec(self.placement, PlacementSpec,
                                    "placement"))
        object.__setattr__(self, "traffic",
                           _as_spec(self.traffic, TrafficSpec, "traffic"))
        tau = float(self.tau)
        rounds = int(self.rounds)
        if tau <= 0.0:
            raise ValueError("tau must be > 0")
        if rounds < 1:
            raise ValueError("need at least one monitored round")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "options", _canonical_options(self.options))

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def to_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "adversary": self.adversary.to_dict(),
            "placement": self.placement.to_dict(),
            "traffic": self.traffic.to_dict(),
            "tau": self.tau,
            "rounds": self.rounds,
            "seed": self.seed,
            "options": {key: value for key, value in self.options},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        _check_keys("scenario", data,
                    ("topology", "adversary", "placement", "traffic",
                     "tau", "rounds", "seed", "options"))
        return cls(
            topology=_as_spec(data.get("topology"), TopologySpec,
                              "topology"),
            adversary=_as_spec(data.get("adversary"), AdversarySpec,
                               "adversary"),
            placement=_as_spec(data.get("placement"), PlacementSpec,
                               "placement"),
            traffic=_as_spec(data.get("traffic"), TrafficSpec, "traffic"),
            tau=data.get("tau", 1.0),
            rounds=data.get("rounds", 3),
            seed=data.get("seed", 0),
            options=_canonical_options(data.get("options", ())),
        )
