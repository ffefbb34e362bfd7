"""The benchmark's workloads: which registered experiments one pass runs.

Every operation is one scenario run through
``repro.eval.registry.run_experiment``.  A workload turns the workload
seed into its list of operations; the same seed always gives the same
list, and every pass of a run repeats that list unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Topologies of the Π2 attack matrix.  ``sprintlink_like`` is left out:
#: one cell costs about 7 s, over 90% of it all-pairs SPF at build time.
PI2_TOPOLOGIES = ("abilene", "ebone_like", "line", "ring", "grid")

#: Placements drawn per attack-matrix cell in one pass.  A cell's cost
#: depends on where the adversary sits; two draws per cell halve the
#: seed-to-seed variance of a pass's cost.
PI2_PLACEMENTS = 2

#: The router Fig 5.7 compromises.
FATIH_ATTACKED = "KansasCity"


def derived_seed(seed: int, label: str) -> int:
    """A per-scenario seed drawn from the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class Op:
    """One scenario: an experiment name, its parameters and its scorer.

    ``score`` maps the result to (false suspicions, missed detections).
    ``trace_name`` turns on the repo's JSONL trace recorder for the
    scenario, writing that file; ``None`` leaves the recorder off.
    """

    label: str
    experiment: str
    params: Dict[str, object]
    score: Callable[[object], Tuple[int, int]]
    trace_name: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], List[Op]]
    #: Counters a traced pass must see above zero: the layers it runs.
    exercised: Tuple[str, ...] = ()
    #: Extra set-up-only runs per operation and untraced pass, for
    #: workloads whose set-up takes about a millisecond: one sample per
    #: pass is mostly noise.
    setup_repeats: int = 0


def _score_chi(attacked: bool):
    def score(result) -> Tuple[int, int]:
        missed = int(attacked and not result.detected)
        return result.metrics.false_positive_rounds, missed
    return score


def _score_pi2(result) -> Tuple[int, int]:
    missed = int(result.behavior != "none" and not result.detected)
    return result.false_suspicions, missed


def _score_fatih(result) -> Tuple[int, int]:
    segments = result.suspected_segments
    false = sum(1 for segment in segments if FATIH_ATTACKED not in segment)
    caught = result.first_detection is not None and any(
        FATIH_ATTACKED in segment for segment in segments)
    return false, int(not caught)


def chi_droptail_ops(seed: int) -> List[Op]:
    ops = []
    for experiment, attacked in (("fig6_5", False), ("fig6_6", True)):
        cell_seed = derived_seed(seed, experiment)
        ops.append(Op(f"{experiment}@{cell_seed}", experiment,
                      {"seed": cell_seed}, _score_chi(attacked)))
    return ops


def pi2_matrix_ops(seed: int) -> List[Op]:
    from repro.eval import BEHAVIORS

    ops = []
    for topology in PI2_TOPOLOGIES:
        for behavior in BEHAVIORS:
            for draw in range(PI2_PLACEMENTS):
                cell = f"{topology}/{behavior}/{draw}"
                cell_seed = derived_seed(seed, cell)
                ops.append(Op(
                    f"{cell}@{cell_seed}", "attack_matrix",
                    {"topology": topology,
                     "adversary": {"behavior": behavior},
                     "seed": cell_seed},
                    _score_pi2))
    return ops


def fatih_traced_ops(seed: int) -> List[Op]:
    # Fig 5.7 takes no seed: every workload seed runs the same scenario.
    del seed
    return [Op("fig5_7", "fig5_7", {}, _score_fatih, trace_name="fig5_7")]


WORKLOADS = {
    w.name: w for w in (
        Workload("chi-droptail", chi_droptail_ops, exercised=(
            "net.events.dispatched", "net.router.received",
            "net.queues.offers", "net.tcp.callbacks",
            "net.adversary.calls", "crypto.fingerprint.calls",
            "core.chi.tap_calls", "core.chi.rounds"), setup_repeats=8),
        Workload("pi2-matrix", pi2_matrix_ops, exercised=(
            "net.events.dispatched", "net.router.received",
            "net.router.originated", "net.queues.offers",
            "net.traffic.callbacks", "net.adversary.calls",
            "net.adversary.malicious_drops", "net.routing.spf_calls",
            "crypto.fingerprint.calls", "crypto.signatures.signs",
            "crypto.signatures.verifies", "core.summaries.observations",
            "core.summaries.state_units", "core.validation.checks",
            "core.pi2.rounds", "dist.consensus.runs",
            "dist.broadcast.floods", "eval.builds")),
        Workload("fatih-traced", fatih_traced_ops, exercised=(
            "net.events.dispatched", "net.router.received",
            "net.router.originated", "net.queues.offers",
            "net.traffic.callbacks", "net.adversary.calls",
            "net.routing.spf_calls", "net.routing.control_msgs",
            "crypto.fingerprint.calls", "core.summaries.observations",
            "core.validation.checks", "obs.tap_calls",
            "obs.events_emitted"), setup_repeats=8),
    )
}
