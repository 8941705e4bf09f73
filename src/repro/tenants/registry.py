"""Per-tenant state: layout, lifecycle, and the hydration LRU.

One tenant is one directory::

    TENANTS_DIR/<tenant-id>/
        tenant.json      {"id": ..., "weight": ...}   (optional; defaults)
        snapshot/        the base configuration snapshot
        stream.jsonl     the tenant's change-batch stream
        checkpoint.ckpt  written on evict / periodic / shutdown
        deadletter/      the tenant's private poison-batch quarantine

and one :class:`TenantState` in memory: identity + weight, the
**resident** robustness state that must survive evict/hydrate cycles
(circuit breaker, cumulative :class:`~repro.serve.engine.ServeStats`,
stream cursor), and — only while hydrated — a live
:class:`~repro.serve.engine.BatchEngine` holding the verifier.

:class:`TenantRegistry` owns the fleet and enforces the **memory
budget**: hydrated tenants form an LRU; hydrating one more tenant than
the budget allows evicts the least-recently-served tenant to its
checkpoint first.  Hydration is **single-flight**: concurrent requests
for the same cold tenant coalesce onto one restore (the thundering-herd
guard), with waiters sharing the winner's engine or exception.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.config.io import load_snapshot
from repro.config.schema import ConfigError
from repro.core.realconfig import RealConfig
from repro.obs import (
    EVENT_CHECKPOINT_FALLBACK,
    EVENT_TENANT_EVICTED,
    EVENT_TENANT_HYDRATED,
    EventJournal,
    FlightRecorder,
    TenantJournal,
)
from repro.resilience.checkpoint import CheckpointError, restore_checkpoint
from repro.serve.breaker import CircuitBreaker
from repro.serve.deadletter import DeadLetterBox
from repro.serve.engine import BatchEngine, ServeOptions, ServeStats
from repro.serve.shell import (
    cursor_from_extras,
    resume_cursor_from,
    write_cursor_checkpoint,
)
from repro.telemetry import count, get_metrics, names, set_gauge, span

TENANT_CONFIG_FILE = "tenant.json"
SNAPSHOT_DIR = "snapshot"
STREAM_FILE = "stream.jsonl"
CHECKPOINT_FILE = "checkpoint.ckpt"
DEADLETTER_DIR = "deadletter"
#: Dropping this file into a tenant directory asks a live service to
#: checkpoint-and-evict that tenant at its next control scan.
EVICT_MARKER = ".evict"


class TenantError(ConfigError):
    """Raised for malformed tenant directories or unknown tenant ids."""


class TenantConfig:
    """Identity + layout of one tenant directory."""

    def __init__(
        self, tenant_id: str, root: Union[str, Path], weight: float = 1.0
    ) -> None:
        if not tenant_id:
            raise TenantError("tenant id must be non-empty")
        if weight <= 0:
            raise TenantError(f"tenant {tenant_id}: weight must be > 0")
        self.tenant_id = tenant_id
        self.root = Path(root)
        self.weight = float(weight)

    @property
    def snapshot_dir(self) -> Path:
        return self.root / SNAPSHOT_DIR

    @property
    def stream_file(self) -> Path:
        return self.root / STREAM_FILE

    @property
    def checkpoint_file(self) -> Path:
        return self.root / CHECKPOINT_FILE

    @property
    def deadletter_dir(self) -> Path:
        return self.root / DEADLETTER_DIR

    @property
    def evict_marker(self) -> Path:
        return self.root / EVICT_MARKER

    def save(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"id": self.tenant_id, "weight": self.weight}
        (self.root / TENANT_CONFIG_FILE).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )

    @classmethod
    def load(cls, root: Union[str, Path]) -> "TenantConfig":
        root = Path(root)
        config_path = root / TENANT_CONFIG_FILE
        tenant_id = root.name
        weight = 1.0
        if config_path.exists():
            try:
                payload = json.loads(config_path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise TenantError(
                    f"unreadable tenant config {config_path}: {error}"
                ) from error
            tenant_id = str(payload.get("id", tenant_id))
            weight = float(payload.get("weight", 1.0))
        if not (root / SNAPSHOT_DIR).is_dir():
            raise TenantError(
                f"tenant directory {root} has no {SNAPSHOT_DIR}/ snapshot"
            )
        return cls(tenant_id, root, weight=weight)


def discover_tenants(directory: Union[str, Path]) -> List[TenantConfig]:
    """All tenant directories under ``directory``, sorted by id.  A
    subdirectory is a tenant iff it holds a ``snapshot/``; anything else
    (control files, journals) is ignored."""
    directory = Path(directory)
    if not directory.is_dir():
        raise TenantError(f"{directory} is not a directory")
    configs = []
    for child in sorted(directory.iterdir()):
        if child.is_dir() and (child / SNAPSHOT_DIR).is_dir():
            configs.append(TenantConfig.load(child))
    return sorted(configs, key=lambda c: c.tenant_id)


def estimate_footprint(verifier: RealConfig) -> int:
    """Bytes one hydrated verifier roughly pins: the pickled size of its
    captured pipeline state (the same data a checkpoint holds).  An
    estimate, not an accounting — the LRU budget only needs a consistent
    relative measure across tenants."""
    payload = (
        verifier.generator.capture_state(),
        verifier.model.capture_state(),
        verifier.checker.capture_state(),
    )
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class TenantState:
    """Everything the service knows about one tenant.

    The breaker, stats, and cursor are *resident*: they live here, not
    in the engine, so evicting the tenant's model cannot launder away a
    tripping breaker or reset its quarantine count.
    """

    def __init__(self, config: TenantConfig, options: ServeOptions) -> None:
        self.config = config
        self.stats = ServeStats()
        self.breaker: Optional[CircuitBreaker] = None
        if options.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                failure_threshold=options.breaker_threshold,
                cooldown_seconds=options.breaker_cooldown,
            )
        #: Stream entries fully disposed of (committed or quarantined).
        self.cursor = 0
        self.engine: Optional[BatchEngine] = None
        self.footprint = 0
        self.hydrations = 0
        self.evictions = 0
        self.shed = 0
        self.failed = False
        #: The last evict/periodic checkpoint write failed (storage
        #: fault): the tenant keeps serving from memory but its durable
        #: lineage is stale — reported as degraded until a write lands.
        self.checkpoint_failed = False
        self.last_error: Optional[str] = None
        if config.checkpoint_file.exists():
            try:
                self.cursor = resume_cursor_from(config.checkpoint_file)
            except CheckpointError:
                # An unreadable checkpoint must not make the tenant
                # inadmissible: keep it registered and let hydration
                # surface the error inside the tenant's fault domain.
                pass

    @property
    def tenant_id(self) -> str:
        return self.config.tenant_id

    @property
    def hydrated(self) -> bool:
        return self.engine is not None

    @property
    def degraded(self) -> bool:
        """Reduced service: failed outright, breaker forcing rebuild
        mode, or poison already quarantined from this tenant's stream."""
        from repro.serve.breaker import OPEN

        if self.failed or self.checkpoint_failed:
            return True
        if self.breaker is not None and self.breaker.state == OPEN:
            return True
        return self.stats.quarantined > 0

    def describe(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant_id,
            "weight": self.config.weight,
            "status": (
                "failed"
                if self.failed
                else ("hydrated" if self.hydrated else "evicted")
            ),
            "degraded": self.degraded,
            "checkpoint_failed": self.checkpoint_failed,
            "cursor": self.cursor,
            "footprint_bytes": self.footprint,
            "hydrations": self.hydrations,
            "evictions": self.evictions,
            "shed": self.shed,
            "breaker": self.breaker.snapshot() if self.breaker else None,
            "batches_seen": self.stats.batches_seen,
            "batches_ok": self.stats.batches_ok,
            "quarantined": self.stats.quarantined,
            "retries": self.stats.retries,
            "new_violations": self.stats.new_violations,
            "last_error": self.last_error,
        }


class _Flight:
    """One in-progress hydration; waiters share its outcome."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.engine: Optional[BatchEngine] = None
        self.error: Optional[BaseException] = None


class TenantRegistry:
    """The fleet: tenant states, the hydration LRU, and the budget.

    ``memory_budget_bytes`` of 0 means unlimited (no eviction pressure).
    ``journal`` is the shared service journal; each tenant's engine gets
    a :class:`~repro.obs.TenantJournal` view over it.
    """

    def __init__(
        self,
        options: ServeOptions,
        journal: Optional[EventJournal] = None,
        recorder: Optional[FlightRecorder] = None,
        memory_budget_bytes: int = 0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.options = options
        self.journal = journal if journal is not None else EventJournal(None)
        self.recorder = (
            recorder if recorder is not None else FlightRecorder()
        )
        self.memory_budget_bytes = memory_budget_bytes
        self._clock = clock
        self._sleep = sleep
        self._states: Dict[str, TenantState] = {}
        #: Hydrated tenants, least-recently-served first.
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self._flight_lock = threading.Lock()
        self._in_flight: Dict[str, _Flight] = {}
        #: Actual restore executions (the single-flight test counts these
        #: against the number of concurrent hydrate() callers).
        self.restores_performed = 0

    # -- membership ------------------------------------------------------------

    def register(self, config: TenantConfig) -> TenantState:
        if config.tenant_id in self._states:
            raise TenantError(f"tenant {config.tenant_id} already registered")
        state = TenantState(config, self.options)
        self._states[config.tenant_id] = state
        set_gauge(names.TENANTS_REGISTERED, len(self._states))
        return state

    def state(self, tenant_id: str) -> TenantState:
        try:
            return self._states[tenant_id]
        except KeyError:
            raise TenantError(f"unknown tenant {tenant_id!r}") from None

    def states(self) -> List[TenantState]:
        return [self._states[tid] for tid in sorted(self._states)]

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._states

    @property
    def hydrated_ids(self) -> List[str]:
        return list(self._lru)

    def total_footprint(self) -> int:
        return sum(self._states[tid].footprint for tid in self._lru)

    # -- hydration (single-flight) ---------------------------------------------

    def hydrate(self, tenant_id: str) -> BatchEngine:
        """The tenant's live engine, restoring it if cold.

        Thread-safe and single-flight: when N callers ask for the same
        cold tenant at once, exactly one performs the restore; the rest
        block until it finishes and share the engine (or the exception).
        A hot tenant is just touched to the MRU end of the LRU.
        """
        state = self.state(tenant_id)
        with self._flight_lock:
            if state.engine is not None:
                self._lru.move_to_end(tenant_id)
                return state.engine
            flight = self._in_flight.get(tenant_id)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._in_flight[tenant_id] = flight
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.engine is not None
            return flight.engine
        try:
            engine = self._hydrate_now(state)
            flight.engine = engine
            return engine
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._flight_lock:
                del self._in_flight[tenant_id]
            flight.done.set()

    def _hydrate_now(self, state: TenantState) -> BatchEngine:
        config = state.config
        source = (
            "checkpoint" if config.checkpoint_file.exists() else "snapshot"
        )
        with span(
            names.SPAN_TENANT_HYDRATE,
            tenant=state.tenant_id,
            source=source,
        ):
            self.restores_performed += 1
            if source == "checkpoint":
                # One resolution serves both the verifier and the cursor:
                # resolving twice could straddle a concurrent write and
                # pair generation N's state with generation N-1's cursor.
                restored = restore_checkpoint(config.checkpoint_file)
                verifier = restored.verifier
                state.cursor = max(
                    state.cursor, cursor_from_extras(restored.extras)
                )
                if restored.fell_back:
                    self.journal.emit(
                        EVENT_CHECKPOINT_FALLBACK,
                        tenant=state.tenant_id,
                        requested=str(restored.requested),
                        used=str(restored.path),
                        generation=restored.generation,
                        skipped=[
                            str(path) for path, _ in restored.skipped
                        ],
                    )
            else:
                verifier = RealConfig(load_snapshot(config.snapshot_dir))
            engine = BatchEngine(
                verifier,
                DeadLetterBox(config.deadletter_dir),
                options=self.options,
                journal=TenantJournal(self.journal, state.tenant_id),
                recorder=self.recorder,
                stats=state.stats,
                breaker=state.breaker,
                clock=self._clock,
                sleep=self._sleep,
            )
        with self._flight_lock:
            state.engine = engine
            state.footprint = estimate_footprint(verifier)
            state.hydrations += 1
            self._lru[state.tenant_id] = None
            self._lru.move_to_end(state.tenant_id)
        self.journal.emit(
            EVENT_TENANT_HYDRATED,
            tenant=state.tenant_id,
            source=source,
            cursor=state.cursor,
            footprint_bytes=state.footprint,
        )
        count(names.TENANT_HYDRATIONS)
        self._publish_gauges()
        self.enforce_budget(keep=state.tenant_id)
        return engine

    # -- eviction --------------------------------------------------------------

    def evict(self, tenant_id: str, reason: str = "request") -> bool:
        """Checkpoint the tenant's verifier and release it.  Returns
        False when the tenant was already cold."""
        state = self.state(tenant_id)
        with self._flight_lock:
            engine = state.engine
            if engine is None:
                return False
            state.engine = None
            self._lru.pop(tenant_id, None)
        with span(
            names.SPAN_TENANT_EVICT, tenant=tenant_id, reason=reason
        ):
            if not self.checkpoint_tenant(state, engine):
                # The checkpoint did not land (disk full, I/O error):
                # releasing the engine now would throw away the only
                # copy of the tenant's state.  Reinstall it and keep
                # serving from memory — degraded, but nothing lost.
                with self._flight_lock:
                    state.engine = engine
                    self._lru[tenant_id] = None
                    self._lru.move_to_end(tenant_id)
                self._publish_gauges()
                return False
            engine.close()
        state.evictions += 1
        state.footprint = 0
        self.journal.emit(
            EVENT_TENANT_EVICTED,
            tenant=tenant_id,
            reason=reason,
            cursor=state.cursor,
        )
        count(names.TENANT_EVICTIONS)
        self._publish_gauges()
        return True

    def checkpoint_tenant(
        self, state: TenantState, engine: Optional[BatchEngine] = None
    ) -> bool:
        """Durable per-tenant lineage: verifier state + stream cursor +
        quarantine ledger + breaker snapshot, crash-safely.  A storage
        fault marks the tenant degraded (``checkpoint_failed``) and
        returns False instead of crashing the service — the tenant keeps
        serving and the next checkpoint attempt may land."""
        engine = engine if engine is not None else state.engine
        if engine is None:
            return False
        error = write_cursor_checkpoint(
            engine,
            state.config.checkpoint_file,
            state.cursor,
            extras={
                "tenant": {
                    "id": state.tenant_id,
                    "breaker": (
                        state.breaker.snapshot() if state.breaker else None
                    ),
                },
            },
        )
        if error is not None:
            state.checkpoint_failed = True
            state.last_error = str(error)
            self._publish_gauges()
            return False
        state.checkpoint_failed = False
        return True

    def enforce_budget(self, keep: Optional[str] = None) -> int:
        """Evict least-recently-served tenants until the hydrated
        footprint fits the budget.  ``keep`` (typically the tenant just
        hydrated) is never evicted — one tenant over budget beats
        thrashing the tenant we are about to serve.  Returns the number
        of evictions performed."""
        if self.memory_budget_bytes <= 0:
            return 0
        evicted = 0
        tried: set = set()
        while self.total_footprint() > self.memory_budget_bytes:
            victim = next(
                (tid for tid in self._lru if tid != keep and tid not in tried),
                None,
            )
            if victim is None:
                break
            tried.add(victim)
            # A failed eviction (checkpoint write fault) leaves the
            # tenant resident; the ``tried`` guard keeps one stuck
            # victim from spinning this loop forever over budget.
            if self.evict(victim, reason="budget"):
                evicted += 1
        return evicted

    def evict_all(self, reason: str = "shutdown") -> int:
        """Checkpoint and release every hydrated tenant (graceful
        shutdown)."""
        evicted = 0
        for tenant_id in list(self._lru):
            if self.evict(tenant_id, reason=reason):
                evicted += 1
        return evicted

    # -- telemetry -------------------------------------------------------------

    def _publish_gauges(self) -> None:
        metrics = get_metrics()
        if not metrics.enabled:
            return
        metrics.gauge(names.TENANTS_HYDRATED).set(len(self._lru))
        metrics.gauge(names.TENANT_FOOTPRINT_BYTES).set(
            self.total_footprint()
        )
        metrics.gauge(names.TENANTS_DEGRADED).set(
            sum(1 for state in self._states.values() if state.degraded)
        )
