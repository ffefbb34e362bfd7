"""Shards as supervised child ``python -m repro sweep`` processes.

Each shard runs ``python -m repro sweep <exp> --shard i/n --out DIR
--heartbeat FILE`` as a child process with stdout/stderr captured to
``shard.log`` inside its artifact directory.  Supervision is three
checks per poll:

* **exit status** — 0 with a ``sweep.json`` is ``ok``; positive exit
  codes (bad config, ``--strict`` abort) are ``failed`` and never
  re-dispatched; death by signal is ``lost``;
* **heartbeat** — the child touches its heartbeat file continuously
  (see ``--heartbeat`` in the sweep CLI); a heartbeat older than
  ``heartbeat_timeout_s`` means the process is wedged or stopped, so it
  is killed and marked ``lost``;
* **shard timeout** — a shard running longer than ``shard_timeout_s``
  wall-clock is killed and marked ``lost``.

A re-dispatched shard shares the parent's result cache, so every cell
the killed attempt finished is answered from cache instead of re-run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List, Optional

from repro.sweep.executors.base import (
    SHARD_FAILED,
    SHARD_LOST,
    SHARD_OK,
    SHARD_RUNNING,
    Executor,
    ShardHandle,
    ShardSpec,
    _HandleRegistry,
)


class SubprocessShardExecutor(Executor):
    """Dispatch shards as supervised local child processes."""

    name = "subprocess"
    wants_heartbeat = True

    def __init__(self, shards: int = 2,
                 python: Optional[str] = None,
                 heartbeat_timeout_s: Optional[float] = None,
                 shard_timeout_s: Optional[float] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive")
        if shard_timeout_s is not None and shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        self._n_shards = shards
        self.python = python or sys.executable
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.shard_timeout_s = shard_timeout_s
        self._registry = _HandleRegistry()

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def handles(self) -> List[ShardHandle]:
        return self._registry.ordered()

    def submit(self, spec: ShardSpec) -> ShardHandle:
        os.makedirs(spec.out_dir, exist_ok=True)
        manifest = os.path.join(spec.out_dir, "sweep.json")
        if os.path.exists(manifest):  # stale artifact from a killed attempt
            os.unlink(manifest)
        log = open(os.path.join(spec.out_dir, "shard.log"), "ab")
        try:
            process = subprocess.Popen(
                spec.command(self.python), stdout=log,
                stderr=subprocess.STDOUT)
        finally:
            log.close()  # the child holds its own descriptor
        handle = ShardHandle(spec, host="localhost", pid=process.pid,
                             worker=(process, time.monotonic()))
        return self._registry.track(handle)

    def poll(self) -> List[ShardHandle]:
        for handle in self._registry.ordered():
            if handle.status == SHARD_RUNNING:
                self._check(handle)
        return self._registry.ordered()

    def _check(self, handle: ShardHandle) -> None:
        process, started = handle.worker
        returncode = process.poll()
        if returncode is None:
            stale = self._stale_reason(handle, started)
            if stale:
                process.kill()
                process.wait(timeout=10)
                handle.status = SHARD_LOST
                handle.error = stale
            return
        handle.wall_s = time.monotonic() - started
        if returncode == 0:
            manifest = os.path.join(handle.spec.out_dir, "sweep.json")
            if os.path.exists(manifest):
                handle.status = SHARD_OK
            else:
                handle.status = SHARD_FAILED
                handle.error = "shard exited 0 without writing sweep.json"
        elif returncode < 0:
            handle.status = SHARD_LOST
            handle.error = f"shard killed by signal {-returncode}"
        else:
            handle.status = SHARD_FAILED
            handle.error = (f"shard exited with status {returncode} "
                            f"(see {handle.spec.out_dir}/shard.log)")

    def _stale_reason(self, handle: ShardHandle,
                      started: float) -> Optional[str]:
        now = time.monotonic()
        if self.shard_timeout_s is not None \
                and now - started > self.shard_timeout_s:
            return (f"shard exceeded timeout of "
                    f"{self.shard_timeout_s} s")
        if self.heartbeat_timeout_s is None or not handle.spec.heartbeat:
            return None
        try:
            age = time.time() - os.path.getmtime(handle.spec.heartbeat)
        except OSError:
            # No heartbeat yet: measure from process start so a child
            # that wedges before its first beat is still caught.
            age = now - started
        if age > self.heartbeat_timeout_s:
            return (f"shard heartbeat stale for {age:.1f} s "
                    f"(limit {self.heartbeat_timeout_s} s)")
        return None

    def collect(self) -> List[str]:
        return [handle.spec.out_dir for handle in self._registry.ordered()
                if handle.status == SHARD_OK]

    def cancel(self) -> None:
        for handle in self._registry.ordered():
            if handle.status != SHARD_RUNNING:
                continue
            process, _started = handle.worker
            if process.poll() is None:
                process.kill()
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    pass
            handle.status = SHARD_LOST
            handle.error = handle.error or "cancelled"
