"""Worker lifecycle: spawn, probe, restart with backoff, drain, scale.

The supervisor runs *inside the router process* as asyncio tasks and
owns every worker subprocess:

* **spawn** -- ``python -m repro.cluster.worker --slot I --announce F``
  with an environment that can import :mod:`repro`; the worker binds an
  ephemeral port and announces it through the file, so N workers never
  race for ports;
* **readiness** -- poll the announce file, then probe ``GET /healthz``
  until it answers 200; only then does the slot join the hash ring;
* **liveness** -- ``proc.poll()`` catches crashes (including
  ``kill -9``) and periodic health probes catch wedged workers; a dead
  worker leaves the ring immediately (its keys re-slot onto the
  survivors) and is restarted with exponential backoff
  (``restart_backoff_s * 2^k``, capped, jittered);
* **circuit breaker** -- after ``breaker_failures`` consecutive
  failures the slot is marked FAILED and no longer restarted (a worker
  that crashes on boot would otherwise flap forever); staying READY for
  ``breaker_reset_s`` closes the breaker.  ``cluster reload``/``scale``
  clear FAILED slots explicitly;
* **drain** -- SIGTERM to every worker reuses the serve layer's drain
  (every accepted request is answered), bounded by ``drain_grace_s``,
  then SIGKILL for stragglers -- no orphans;
* **scale / rolling reload** -- ``scale(n)`` adds slots or drains the
  highest ones away; ``reload()`` restarts slots one at a time, waiting
  for each to turn READY before touching the next, so capacity never
  drops by more than one worker.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import repro
from repro.cluster.membership import (
    DEAD,
    DRAINING,
    FAILED,
    READY,
    STARTING,
    STOPPED,
    Membership,
)
from repro.engine.metrics import Metrics

__all__ = ["ClusterConfig", "Supervisor"]

@dataclass
class ClusterConfig:
    """Every knob of the cluster (router + supervisor + worker spawn)."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 8787
    machine: str = "alpha"
    max_body: int = 64 * 1024
    request_timeout_s: float = 30.0
    drain_grace_s: float = 30.0
    metrics_path: str | None = None
    # supervision
    startup_timeout_s: float = 60.0
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 2.0
    probe_failures: int = 3
    restart_backoff_s: float = 0.25
    restart_backoff_max_s: float = 10.0
    breaker_failures: int = 5
    breaker_reset_s: float = 5.0
    # routing
    ring_replicas: int = 64
    retry_attempts: int = 1
    key_cache: int = 4096
    #: Router-side second-level result cache entries (0 disables): warm
    #: repeats are answered at the front door without a worker hop.
    l2_cache: int = 4096
    #: Hot structural keys replayed to READY workers after scale/reload
    #: (0 disables speculative pre-warming).
    prewarm_top_k: int = 32
    #: The one table directory every worker shares (persistent); the
    #: default is <runtime_dir>/tables, removed with the runtime dir.
    cache_dir: str | None = None
    # worker passthrough
    trace: bool = False
    worker_threads: int = 4
    worker_batch_max: int = 16
    worker_deadline_ms: float = 10.0
    worker_queue_limit: int = 256
    #: Announce files and the default table dir (default: an owned
    #: tempdir, created on start and removed on stop).
    runtime_dir: str | None = None
    worker_extra_args: list[str] = field(default_factory=list)

class Supervisor:
    """Owns the worker subprocesses; mutate only from the event loop."""

    def __init__(self, config: ClusterConfig,
                 membership: Membership | None = None,
                 metrics: Metrics | None = None):
        self.config = config
        self.membership = (membership if membership is not None
                           else Membership(replicas=config.ring_replicas))
        self.metrics = metrics if metrics is not None else Metrics()
        self.target = config.workers
        self.draining = False
        self._procs: dict[int, subprocess.Popen] = {}
        self._probe_misses: dict[int, int] = {}
        self._task: asyncio.Task | None = None
        self._owns_runtime_dir = config.runtime_dir is None
        #: An owned runtime dir exists from :meth:`start` to :meth:`stop`.
        self.runtime_dir: pathlib.Path | None = (
            None if self._owns_runtime_dir
            else pathlib.Path(config.runtime_dir))

    # -- spawning ------------------------------------------------------------

    def _announce_path(self, slot: int) -> pathlib.Path:
        return self.runtime_dir / f"worker-{slot}.json"

    def _worker_cmd(self, slot: int) -> list[str]:
        cfg = self.config
        cmd = [sys.executable, "-m", "repro.cluster.worker",
               "--slot", str(slot),
               "--announce", str(self._announce_path(slot)),
               "--machine", cfg.machine,
               "--timeout", str(cfg.request_timeout_s),
               "--max-body", str(cfg.max_body),
               "--threads", str(cfg.worker_threads),
               "--batch-max", str(cfg.worker_batch_max),
               "--batch-deadline-ms", str(cfg.worker_deadline_ms),
               "--queue-limit", str(cfg.worker_queue_limit),
               "--cache-dir", str(self.tables_dir())]
        cmd.extend(cfg.worker_extra_args)
        return cmd

    def tables_dir(self) -> pathlib.Path:
        """The one disk-tier directory every worker shares."""
        if self.config.cache_dir:
            return pathlib.Path(self.config.cache_dir)
        return self.runtime_dir / "tables"

    def _worker_env(self) -> dict:
        env = dict(os.environ)
        # Make sure the child can import this very repro checkout even
        # when the parent was launched via a source tree on sys.path.
        src_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (src_root + os.pathsep + existing
                                 if existing else src_root)
        if self.config.trace:
            env["REPRO_TRACE"] = "1"
        return env

    def launch(self, slot: int) -> None:
        """Spawn (or respawn) the worker for ``slot``."""
        announce = self._announce_path(slot)
        try:
            announce.unlink()
        except OSError:
            pass
        # Worker stdout is silenced (the announce file carries the port);
        # stderr stays attached for crash diagnostics.
        proc = subprocess.Popen(self._worker_cmd(slot),
                                env=self._worker_env(),
                                stdout=subprocess.DEVNULL)
        self._procs[slot] = proc
        self._probe_misses[slot] = 0
        info = self.membership.transition(slot, STARTING)
        info.pid = proc.pid
        info.port = None
        info.started_at = time.monotonic()
        info.next_restart_at = None
        self.metrics.count("cluster.worker_launches")

    def start(self) -> None:
        """Spawn the initial fleet and begin monitoring."""
        if self.runtime_dir is None:
            self.runtime_dir = pathlib.Path(
                tempfile.mkdtemp(prefix="repro-cluster-"))
        for slot in range(self.target):
            self.launch(slot)
        self._task = asyncio.get_running_loop().create_task(
            self._monitor(), name="repro-cluster-supervisor")

    # -- monitoring ----------------------------------------------------------

    async def _monitor(self) -> None:
        while True:
            try:
                await self._sweep()
            except asyncio.CancelledError:
                raise
            except Exception as err:  # monitoring must never die
                self.metrics.count("cluster.supervisor_errors")
                print(f"repro-cluster: supervisor sweep failed: "
                      f"{type(err).__name__}: {err}", file=sys.stderr,
                      flush=True)
            await asyncio.sleep(self.config.probe_interval_s)

    async def _sweep(self) -> None:
        if self.draining:
            return
        now = time.monotonic()
        for slot in sorted(self.membership.workers):
            info = self.membership.workers[slot]
            if info.state == FAILED:
                continue
            if info.state == DEAD:
                if (info.next_restart_at is not None
                        and now >= info.next_restart_at):
                    self.launch(slot)
                continue
            proc = self._procs.get(slot)
            if proc is None:
                continue
            if proc.poll() is not None and info.state in (STARTING, READY):
                self._on_death(slot, f"exited with code {proc.returncode}")
                continue
            if info.state == STARTING:
                await self._check_startup(slot, info)
            elif info.state == READY:
                await self._check_liveness(slot, info, now)

    async def _check_startup(self, slot: int, info) -> None:
        if info.port is None:
            document = self._read_announce(slot)
            if document is None:
                if (time.monotonic() - info.started_at
                        > self.config.startup_timeout_s):
                    self._kill(slot)
                    self._on_death(slot, "startup timeout (no announce)")
                return
            info.port = int(document["port"])
        if await self.probe_health(info.port):
            self.membership.transition(slot, READY)
            self.metrics.count("cluster.worker_ready")
        elif (time.monotonic() - info.started_at
                > self.config.startup_timeout_s):
            self._kill(slot)
            self._on_death(slot, "startup timeout (healthz never 200)")

    async def _check_liveness(self, slot: int, info, now: float) -> None:
        if (info.consecutive_failures
                and info.ready_at is not None
                and now - info.ready_at > self.config.breaker_reset_s):
            info.consecutive_failures = 0  # stable again: close the breaker
        if await self.probe_health(info.port):
            self._probe_misses[slot] = 0
            return
        self._probe_misses[slot] = self._probe_misses.get(slot, 0) + 1
        self.metrics.count("cluster.probe_misses")
        if self._probe_misses[slot] >= self.config.probe_failures:
            self._kill(slot)
            self._on_death(slot, f"unresponsive to "
                                 f"{self._probe_misses[slot]} probes")

    def _read_announce(self, slot: int) -> dict | None:
        try:
            text = self._announce_path(slot).read_text()
            document = json.loads(text)
        except (OSError, json.JSONDecodeError, ValueError):
            return None
        return document if isinstance(document, dict) and "port" in document \
            else None

    async def probe_health(self, port: int | None) -> bool:
        """One bounded ``GET /healthz`` against a worker port."""
        if port is None:
            return False
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", port),
                self.config.probe_timeout_s)
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(b"GET /healthz HTTP/1.1\r\n"
                         b"host: cluster\r\nconnection: close\r\n\r\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          self.config.probe_timeout_s)
            return b" 200 " in line
        except (OSError, asyncio.TimeoutError, ConnectionError):
            return False
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    # -- failure handling ----------------------------------------------------

    def _on_death(self, slot: int, reason: str) -> None:
        info = self.membership.transition(slot, DEAD)
        info.last_error = reason
        info.restarts += 1
        info.consecutive_failures += 1
        info.port = None
        self._probe_misses[slot] = 0
        self.metrics.count("cluster.worker_deaths")
        if info.consecutive_failures >= self.config.breaker_failures:
            self.membership.transition(slot, FAILED)
            self.metrics.count("cluster.breaker_open")
            print(f"repro-cluster: worker {slot} failed "
                  f"{info.consecutive_failures}x consecutively; circuit "
                  f"breaker open ({reason})", file=sys.stderr, flush=True)
            return
        backoff = min(self.config.restart_backoff_max_s,
                      self.config.restart_backoff_s
                      * (2 ** (info.consecutive_failures - 1)))
        backoff *= 1.0 + 0.25 * random.random()  # jitter: no thundering herd
        info.next_restart_at = time.monotonic() + backoff
        print(f"repro-cluster: worker {slot} died ({reason}); restart in "
              f"{backoff:.2f}s", file=sys.stderr, flush=True)

    def note_suspect(self, slot: int) -> None:
        """The router hit a connection error on this worker; probe it on
        the next sweep rather than waiting a full liveness period."""
        self._probe_misses[slot] = max(self._probe_misses.get(slot, 0), 1)

    def _kill(self, slot: int) -> None:
        proc = self._procs.get(slot)
        if proc is not None and proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass

    # -- scale / reload / drain ----------------------------------------------

    async def scale(self, target: int) -> dict:
        """Grow to ``target`` slots, or drain the highest slots away.
        Also relaunches FAILED slots within the target (explicit admin
        action closes the breaker)."""
        if target < 1:
            raise ValueError("cluster needs at least one worker")
        previous = self.target
        self.target = target
        for slot in range(target):
            info = self.membership.workers.get(slot)
            if info is None:
                self.launch(slot)
            elif info.state in (FAILED, STOPPED):
                info.consecutive_failures = 0
                self.launch(slot)
        removed = [slot for slot in sorted(self.membership.workers)
                   if slot >= target]
        for slot in removed:
            await self._drain_slot(slot)
            self.membership.drop(slot)
        self.metrics.count("cluster.scales")
        return {"previous": previous, "target": target,
                "removed": removed}

    async def reload(self) -> dict:
        """Rolling restart: one slot at a time, waiting for READY."""
        reloaded = []
        for slot in sorted(self.membership.workers):
            info = self.membership.workers[slot]
            if info.state not in (READY, STARTING, FAILED):
                continue
            await self._drain_slot(slot)
            info.consecutive_failures = 0
            self.launch(slot)
            deadline = time.monotonic() + self.config.startup_timeout_s
            while time.monotonic() < deadline:
                if self.membership.workers[slot].state == READY:
                    break
                await asyncio.sleep(self.config.probe_interval_s / 2)
            reloaded.append(slot)
        self.metrics.count("cluster.reloads")
        return {"reloaded": reloaded}

    async def _drain_slot(self, slot: int) -> None:
        """SIGTERM one worker and wait for its serve-layer drain."""
        info = self.membership.workers.get(slot)
        proc = self._procs.get(slot)
        if info is not None:
            self.membership.transition(slot, DRAINING)
        if proc is None or proc.poll() is not None:
            if info is not None:
                self.membership.transition(slot, STOPPED)
            return
        try:
            proc.send_signal(signal.SIGTERM)
        except OSError:
            pass
        deadline = time.monotonic() + self.config.drain_grace_s
        while proc.poll() is None and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if info is not None:
            self.membership.transition(slot, STOPPED)

    async def drain(self) -> None:
        """Graceful cluster-wide drain (SIGTERM path): every worker
        drains concurrently, stragglers are killed, nothing is left."""
        self.draining = True
        for slot in list(self.membership.workers):
            info = self.membership.workers[slot]
            if info.state in (READY, STARTING):
                self.membership.transition(slot, DRAINING)
                proc = self._procs.get(slot)
                if proc is not None and proc.poll() is None:
                    try:
                        proc.send_signal(signal.SIGTERM)
                    except OSError:
                        pass
        deadline = time.monotonic() + self.config.drain_grace_s
        while time.monotonic() < deadline:
            if all(proc.poll() is not None
                   for proc in self._procs.values()):
                break
            await asyncio.sleep(0.05)
        for slot, proc in self._procs.items():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.membership.transition(slot, STOPPED)
        await self.stop()

    async def stop(self) -> None:
        """Tear the monitor down and reap every child (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)
            self._task = None
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        if self._owns_runtime_dir and self.runtime_dir is not None:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)
