"""The multi-tenant serving loop.

``TenantService`` generalizes :class:`~repro.serve.daemon.ServeDaemon`
from one verifier/one stream to a fleet: every tenant directory under
the service root gets its own :class:`~repro.serve.engine.BatchEngine`
(verifier, breaker, retry budget, dead-letter box — a private fault
domain), while the service owns what is genuinely shared:

- the **admission layer**: one bounded queue per tenant, filled by
  pulling that tenant's stream (backpressure) or by push submissions
  (:meth:`TenantService.submit`, answering load-shed when full);
- the **scheduler**: weighted-fair selection among tenants with work,
  so a heavy tenant cannot starve a light one;
- the **memory budget**: an LRU of hydrated models; cold tenants live
  as checkpoints on disk and are rehydrated on demand (single-flight);
- the shared **journal / flight recorder / introspection server**, with
  every event tenant-tagged and a ``/tenants`` endpoint for the fleet
  (all from :class:`~repro.serve.shell.ServeShell`, as in the daemon);
- **graceful degradation**: a tenant whose hydration or stream breaks
  is marked failed and skipped; everyone else keeps committing.  A
  poison batch quarantines into its tenant's private dead-letter box
  exactly as in the single-tenant daemon;
- **graceful shutdown**: SIGTERM finishes the in-flight batch, then
  checkpoints every hydrated tenant (cursor + quarantine ledger), so a
  restarted service resumes every tenant with no batch lost or applied
  twice.

The loop is cooperative and single-threaded: one batch is in flight at
a time, which keeps per-tenant transactional rollback semantics exactly
as strong as the single-tenant daemon's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.chaos.points import crash_point
from repro.obs import EVENT_CHECKPOINT, EVENT_TENANT_FAILED, EVENT_TENANT_SHED
from repro.serve.engine import ServeOptions, ServeStats
from repro.serve.shell import ServeShell
from repro.serve.stream import ChangeBatch, read_stream
from repro.tenants.registry import (
    TenantConfig,
    TenantRegistry,
    discover_tenants,
)
from repro.tenants.scheduler import FairScheduler, TenantQueue
from repro.telemetry import count, names


@dataclass
class TenantServiceOptions:
    """Service-level knobs.  ``serve`` holds the per-tenant engine knobs,
    the per-tenant ``checkpoint_every`` cadence (0 = only on evict /
    shutdown) and the shell's poll interval, health/journal files and
    obs server; its ``checkpoint_file``, ``queue_capacity`` and
    ``audit_every`` are single-stream settings."""

    serve: ServeOptions = field(default_factory=ServeOptions)
    #: LRU budget over hydrated verifiers (bytes); 0 = unlimited.
    memory_budget_bytes: int = 0
    #: Bound of each tenant's pending-batch queue.
    tenant_queue_capacity: int = 8
    #: Loop iterations between control scans (evict markers, new tenant
    #: directories appearing under the root).
    control_scan_every: int = 16
    #: Stop when every tenant's stream is exhausted (False = keep
    #: polling for appended batches / new tenants until stopped).
    drain: bool = True

    def __post_init__(self) -> None:
        if self.tenant_queue_capacity < 1:
            raise ValueError("tenant_queue_capacity must be >= 1")


class TenantService(ServeShell):
    """Serve every tenant directory under ``directory``, fairly."""

    def __init__(
        self,
        directory: Union[str, Path],
        options: Optional[TenantServiceOptions] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.directory = Path(directory)
        self.options = options or TenantServiceOptions()
        super().__init__(self.options.serve, sleep)
        self._iterations = 0
        self.registry = TenantRegistry(
            self.options.serve,
            journal=self.journal,
            recorder=self.recorder,
            memory_budget_bytes=self.options.memory_budget_bytes,
            clock=clock,
            sleep=sleep,
        )
        self.scheduler = FairScheduler()
        self._queues: Dict[str, TenantQueue[ChangeBatch]] = {}
        self._streams: Dict[str, Optional[Iterator[ChangeBatch]]] = {}
        self._exhausted: Dict[str, bool] = {}
        self._since_checkpoint: Dict[str, int] = {}
        for config in discover_tenants(self.directory):
            self._admit_tenant(config)
        self._start_obs_server()

    # -- membership ------------------------------------------------------------

    def _admit_tenant(self, config: TenantConfig) -> None:
        self.registry.register(config)
        self.scheduler.register(config.tenant_id, config.weight)
        self._queues[config.tenant_id] = TenantQueue(
            self.options.tenant_queue_capacity
        )
        self._streams[config.tenant_id] = None  # opened lazily
        self._exhausted[config.tenant_id] = False
        self._since_checkpoint[config.tenant_id] = 0

    def add_tenant(self, config: TenantConfig) -> None:
        """Admit a tenant mid-run (also reached by the control scan when
        a new tenant directory appears under the root)."""
        if config.tenant_id in self.registry:
            from repro.tenants.registry import TenantError

            raise TenantError(
                f"tenant {config.tenant_id} already registered"
            )
        self._admit_tenant(config)

    # -- admission -------------------------------------------------------------

    def submit(self, tenant_id: str, batch: ChangeBatch) -> bool:
        """Push-path admission: queue one batch for ``tenant_id``.

        Returns False — a **load-shed** — when the tenant's queue is
        full or the tenant has failed; the batch is the caller's to
        retry later.  Shedding is per-tenant: one tenant at its bound
        does not affect anyone else's admission."""
        state = self.registry.state(tenant_id)
        if not state.failed and self._queues[tenant_id].push(batch):
            return True
        state.shed += 1
        count(names.TENANT_SHED)
        self.journal.emit(
            EVENT_TENANT_SHED,
            tenant=tenant_id,
            batch=batch.batch_id,
            queue_depth=len(self._queues[tenant_id]),
            failed=state.failed,
        )
        return False

    def _refill(self, tenant_id: str) -> None:
        """Pull-path admission: read the tenant's stream into its queue,
        never further ahead than the queue bound (backpressure)."""
        state = self.registry.state(tenant_id)
        if state.failed or self._exhausted[tenant_id]:
            return
        queue = self._queues[tenant_id]
        if queue.free == 0:
            return
        stream = self._streams[tenant_id]
        if stream is None:
            stream = self._open_stream(tenant_id)
            if stream is None:
                return
        while queue.free > 0:
            try:
                batch = next(stream)
            except StopIteration:
                self._exhausted[tenant_id] = True
                break
            except Exception as error:  # noqa: BLE001 - fault containment
                self._fail_tenant(tenant_id, "stream", error)
                break
            if batch is None:
                break
            queue.push(batch)

    def _open_stream(self, tenant_id: str) -> Optional[Iterator[ChangeBatch]]:
        state = self.registry.state(tenant_id)
        path = state.config.stream_file
        if not path.exists():
            self._exhausted[tenant_id] = True
            return None
        stream = read_stream(path)
        # Resume: entries before the cursor were committed (or
        # quarantined) by a previous service instance.
        for _ in range(state.cursor):
            try:
                next(stream)
                state.stats.skipped_on_resume += 1
            except StopIteration:
                break
        self._streams[tenant_id] = stream
        return stream

    # -- the loop --------------------------------------------------------------

    def run(self, handle_signals: bool = False) -> Dict[str, ServeStats]:
        self._run(handle_signals)
        return {
            state.tenant_id: state.stats for state in self.registry.states()
        }

    def _serve_step(self) -> bool:
        self._iterations += 1
        if (
            self.options.control_scan_every > 0
            and self._iterations % self.options.control_scan_every == 0
        ):
            self.scan_controls()
        for tenant_id in list(self._queues):
            self._refill(tenant_id)
        ready = self._ready_ids()
        if ready:
            self._serve_one(ready)
        elif not self._drained():
            self.scan_controls()  # idle: look again before the heartbeat
        return bool(ready)

    def _ready_ids(self) -> List[str]:
        return [
            tenant_id
            for tenant_id, queue in self._queues.items()
            if queue and not self.registry.state(tenant_id).failed
        ]

    def _drained(self) -> bool:
        if not self.options.drain:
            return False
        return all(
            self._exhausted[tenant_id]
            or self.registry.state(tenant_id).failed
            for tenant_id in self._queues
        )

    def _serve_one(self, ready: List[str]) -> None:
        tenant_id = self.scheduler.next_tenant(ready)
        if tenant_id is None:
            return
        state = self.registry.state(tenant_id)
        batch = self._queues[tenant_id].pop()
        try:
            engine = self.registry.hydrate(tenant_id)
        except Exception as error:  # noqa: BLE001 - fault containment
            self._fail_tenant(tenant_id, "hydrate", error, batch=batch)
            return
        # Engine-level failures (poison, deadline, breaker) are contained
        # inside process_batch: it quarantines and returns False.  Only a
        # bug escaping the transactional rollback reaches the except arm,
        # and even that fails just this tenant, not the service.
        try:
            engine.process_batch(batch)
        except Exception as error:  # noqa: BLE001 - fault containment
            self._fail_tenant(tenant_id, "process", error, batch=batch)
            return
        state.cursor += 1
        crash_point("cursor.commit")
        self._since_checkpoint[tenant_id] += 1
        if (
            self.options.serve.checkpoint_every > 0
            and self._since_checkpoint[tenant_id]
            >= self.options.serve.checkpoint_every
        ):
            self._since_checkpoint[tenant_id] = 0
            # checkpoint_tenant already journals the failure case and
            # marks the tenant degraded; only a landed write earns the
            # checkpoint event.
            if self.registry.checkpoint_tenant(state):
                self.journal.emit(
                    EVENT_CHECKPOINT, tenant=tenant_id, cursor=state.cursor
                )
        self._write_health("serving", last_tenant=tenant_id)

    def _fail_tenant(
        self,
        tenant_id: str,
        phase: str,
        error: BaseException,
        batch: Optional[ChangeBatch] = None,
    ) -> None:
        """Blast-radius containment: the tenant is out, the fleet is not."""
        state = self.registry.state(tenant_id)
        state.failed = True
        state.last_error = f"{phase}: {type(error).__name__}: {error}"
        dropped = self._queues[tenant_id].clear()
        self.journal.emit(
            EVENT_TENANT_FAILED,
            tenant=tenant_id,
            batch=batch.batch_id if batch is not None else None,
            phase=phase,
            error_type=type(error).__name__,
            error=str(error),
            dropped=dropped,
        )
        self.registry._publish_gauges()
        # Leave the engine (if any) out of rotation but checkpoint what
        # committed so far: the cursor is still valid for a later replay.
        if state.engine is not None:
            try:
                self.registry.evict(tenant_id, reason="failed")
            except Exception:  # noqa: BLE001 - already failing
                state.engine = None

    def scan_controls(self) -> None:
        """React to operator controls: ``.evict`` markers inside tenant
        directories, and brand-new tenant directories under the root."""
        for state in self.registry.states():
            marker = state.config.evict_marker
            if marker.exists():
                try:
                    marker.unlink()
                except OSError:
                    pass
                self.registry.evict(state.tenant_id, reason="request")
        try:
            discovered = discover_tenants(self.directory)
        except Exception:  # noqa: BLE001 - racing mkdir is fine
            return
        for config in discovered:
            if config.tenant_id not in self.registry:
                self._admit_tenant(config)

    def _dispose(self) -> None:
        # Checkpoint-and-release every hydrated tenant: the durable
        # cursor in each tenant's extras is what makes restart lossless.
        self.registry.evict_all(reason="shutdown")

    # -- the introspection surface ---------------------------------------------

    def _totals(self) -> Dict[str, int]:
        states = self.registry.states()
        return {
            "batches_seen": sum(s.stats.batches_seen for s in states),
            "batches_ok": sum(s.stats.batches_ok for s in states),
            "retries": sum(s.stats.retries for s in states),
            "quarantined": sum(s.stats.quarantined for s in states),
            "new_violations": sum(s.stats.new_violations for s in states),
            "shed": sum(s.shed for s in states),
            "degraded": sum(1 for s in states if s.degraded),
            "failed": sum(1 for s in states if s.failed),
            "hydrated": len(self.registry.hydrated_ids),
        }

    def tenants_payload(self) -> dict:
        """``GET /tenants``: the whole fleet, one entry per tenant."""
        return {
            "registered": len(self.registry),
            "hydrated": self.registry.hydrated_ids,
            "degraded": [
                s.tenant_id for s in self.registry.states() if s.degraded
            ],
            "memory": {
                "budget_bytes": self.registry.memory_budget_bytes,
                "footprint_bytes": self.registry.total_footprint(),
            },
            "tenants": [s.describe() for s in self.registry.states()],
        }

    def _start_fields(self) -> Dict[str, Any]:
        return {"tenants": len(self.registry), "mode": "multi-tenant"}

    def _stop_fields(self) -> Dict[str, Any]:
        totals = self._totals()
        return {
            "tenants": len(self.registry),
            "batches_ok": totals["batches_ok"],
            "batches_seen": totals["batches_seen"],
            "quarantined": totals["quarantined"],
        }

    def _health_fields(self) -> Dict[str, Any]:
        return {
            "mode": "multi-tenant",
            "tenants": len(self.registry),
            "queue_depth": sum(len(q) for q in self._queues.values()),
            **self._totals(),
        }

    def _stats_fields(self) -> Dict[str, Any]:
        return {
            "totals": self._totals(),
            "tenants": {
                s.tenant_id: dict(vars(s.stats))
                for s in self.registry.states()
            },
        }

    def summary(self) -> str:
        totals = self._totals()
        parts = [
            f"{len(self.registry)} tenants",
            f"{totals['batches_ok']}/{totals['batches_seen']} batches ok",
            f"{totals['quarantined']} quarantined",
        ]
        if totals["shed"]:
            parts.append(f"{totals['shed']} shed")
        if totals["degraded"]:
            parts.append(f"{totals['degraded']} degraded")
        if totals["failed"]:
            parts.append(f"{totals['failed']} failed")
        return ", ".join(parts)
