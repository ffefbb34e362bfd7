"""Pluggable shard-dispatch backends for ``repro.sweep``.

The :class:`~repro.sweep.executors.base.Executor` protocol turns a
sweep's deterministic ``--shard i/n`` slices into running shards and
collects their artifact directories for the merge path; see
``base.py`` for the contract and EXPERIMENTS.md ("Distributed sweeps")
for usage.  Two backends ship:

* :class:`LocalPoolExecutor` — shards run in this process on the
  classic pool (``--executor local``);
* :class:`SubprocessShardExecutor` — shards are supervised child
  ``python -m repro sweep`` processes with heartbeat/timeout kill
  detection (``--executor subprocess``).
"""

from repro.sweep.executors.base import Executor, ShardHandle, ShardSpec
from repro.sweep.executors.local import LocalPoolExecutor
from repro.sweep.executors.subprocess_shard import SubprocessShardExecutor

__all__ = [
    "Executor",
    "LocalPoolExecutor",
    "ShardHandle",
    "ShardSpec",
    "SubprocessShardExecutor",
]
