"""The serving shell both serving modes extend, and the checkpoint cursor.

:class:`ServeShell` owns what the single-stream daemon and the
multi-tenant service share: stop flag and signal handlers, the journal
with its flight recorder, the introspection server, the run prologue and
epilogue, ``/events`` and the health file.  A mode supplies admission
(:meth:`~ServeShell._serve_step`, :meth:`~ServeShell._drained`), disposal
at shutdown (:meth:`~ServeShell._dispose`) and the extra fields of its
events and payloads.  DESIGN.md §4e tabulates the split.
"""

from __future__ import annotations

import json
import os
import signal
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs import (
    EVENT_CHECKPOINT_FAILED,
    EVENT_START,
    EVENT_STOP,
    EventJournal,
    FlightRecorder,
    IntrospectionServer,
    ObsState,
)
from repro.resilience.checkpoint import (
    CheckpointError,
    read_checkpoint_extras,
    write_checkpoint,
)
from repro.serve.engine import BatchEngine, ServeOptions
from repro.telemetry import atomic_write_text, count, names, set_gauge


def write_cursor_checkpoint(
    engine: BatchEngine,
    path: Union[str, Path],
    cursor: int,
    extras: Optional[Dict[str, Any]] = None,
) -> Optional[CheckpointError]:
    """Checkpoint ``engine``'s verifier with ``extras["serve"] = {"cursor",
    "quarantined_ids"}`` beside the caller's ``extras``.  A storage fault
    degrades instead of killing the loop: it is counted, journaled as
    ``checkpoint-failed`` and returned; None means the write landed."""
    try:
        write_checkpoint(
            engine.verifier,
            path,
            extras={
                "serve": {
                    "cursor": cursor,
                    "quarantined_ids": list(engine.stats.quarantined_ids),
                },
                **(extras or {}),
            },
            keep=engine.options.checkpoint_generations,
        )
    except CheckpointError as error:
        engine.stats.checkpoint_failures += 1
        count(names.CHECKPOINT_WRITE_FAILURES)
        engine.journal.emit(
            EVENT_CHECKPOINT_FAILED, cursor=cursor, error=str(error)
        )
        return error
    return None


def cursor_from_extras(extras: Dict[str, Any]) -> int:
    """The cursor :func:`write_cursor_checkpoint` stored (0 for
    checkpoints written outside a serve run)."""
    return int((extras.get("serve") or {}).get("cursor", 0))


def resume_cursor_from(checkpoint_path: Union[str, Path]) -> int:
    """The stream cursor stored by a serve checkpoint file."""
    return cursor_from_extras(read_checkpoint_extras(checkpoint_path))


class ServeShell:
    """The loop and lifecycle of a serving mode.  A subclass builds its
    admission state after this constructor (it needs :attr:`journal`),
    then calls :meth:`_start_obs_server`."""

    # What each mode supplies (DESIGN.md §4e tabulates the split):
    #: Admit work and serve one batch; False when none was ready.
    _serve_step: Callable[[], bool]
    #: True once no batch will ever be ready again.
    _drained: Callable[[], bool]
    #: Make the served state durable; the first step of shutdown.
    _dispose: Callable[[], None]
    #: The mode's extra fields of its start/stop events and payloads.
    _start_fields: Callable[[], Dict[str, Any]]
    _stop_fields: Callable[[], Dict[str, Any]]
    _health_fields: Callable[[], Dict[str, Any]]
    _stats_fields: Callable[[], Dict[str, Any]]
    #: ``GET /tenants`` source: a fleet overrides it; None answers 404.
    tenants_payload: Optional[Callable[[], Dict[str, Any]]] = None

    def __init__(
        self, options: ServeOptions, sleep: Callable[[float], None]
    ) -> None:
        self._shell_options = options
        self._sleep = sleep
        self._stop_requested = False
        self._installed_handlers: List = []
        self._status = "starting"
        #: ``last_batch`` / ``last_tenant``: what the mode served last.
        self._last_served: Dict[str, str] = {}
        #: The event journal (file-backed when a journal file is set,
        #: in-memory otherwise) and the flight recorder tapping it.
        self.journal = EventJournal(options.journal_file)
        self.recorder = FlightRecorder()
        self.journal.subscribe(self.recorder.record_event)
        self.obs_server: Optional[IntrospectionServer] = None

    def _start_obs_server(self) -> None:
        """Started eagerly (not in run()) so callers can read the bound
        port / print the URL before the blocking loop begins."""
        options = self._shell_options
        if options.obs_port is None:
            return
        state = ObsState(
            health=self.health_payload,
            stats=self.stats_payload,
            events_since=self._events_since,
            tenants=self.tenants_payload,
        )
        self.obs_server = IntrospectionServer(
            state, host=options.obs_host, port=options.obs_port
        ).start()

    # -- control ---------------------------------------------------------------

    def request_stop(self) -> None:
        """Finish the in-flight batch, dispose (checkpoint), and exit."""
        self._stop_requested = True

    @property
    def stopping(self) -> bool:
        return self._stop_requested

    def install_signal_handlers(self) -> None:
        """Route SIGINT/SIGTERM to :meth:`request_stop` (graceful drain)."""
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.signal(
                signum, lambda _signum, _frame: self.request_stop()
            )
            self._installed_handlers.append((signum, previous))

    def _restore_signal_handlers(self) -> None:
        while self._installed_handlers:
            signum, previous = self._installed_handlers.pop()
            signal.signal(signum, previous)

    # -- the loop --------------------------------------------------------------

    def _run(self, handle_signals: bool) -> None:
        if handle_signals:
            self.install_signal_handlers()
        self._status = "serving"
        self._journal_start()
        self._write_health("serving")
        set_gauge(names.SERVE_HEALTHY, 1)
        try:
            while not self._stop_requested:
                if self._serve_step():
                    continue
                if self._drained():
                    break
                # Nothing ready yet: heartbeat and wait.
                self._write_health("serving")
                self._sleep(self._shell_options.poll_interval)
        finally:
            self._finalize(handle_signals)

    def _journal_start(self) -> None:
        self.journal.emit(EVENT_START, pid=os.getpid(), **self._start_fields())

    def _finalize(self, handle_signals: bool) -> None:
        self._dispose()
        self._status = "stopped"
        self.journal.emit(
            EVENT_STOP, stopped_early=self._stop_requested, **self._stop_fields()
        )
        self._write_health("stopped")
        set_gauge(names.SERVE_HEALTHY, 0)
        # Health/journal before teardown: a last scrape during shutdown
        # still sees the final state; then the server and journal go away.
        if self.obs_server is not None:
            self.obs_server.stop()
        self.journal.close()
        if handle_signals:
            self._restore_signal_handlers()

    # -- the introspection surface ---------------------------------------------

    def health_payload(self, status: Optional[str] = None) -> Dict[str, Any]:
        """The liveness/readiness JSON — one shape for both the
        ``--health-file`` heartbeat and ``GET /health``."""
        return {
            "status": status or self._status,
            "pid": os.getpid(),
            "updated_unix": time.time(),
            "journal_degraded": self.journal.degraded,
            **self._health_fields(),
            **self._last_served,
        }

    def stats_payload(self) -> Dict[str, Any]:
        """``GET /stats``: the mode's counters + journal position + the
        flight recorder's per-stage latency summaries."""
        return {
            **self._stats_fields(),
            "journal_seq": self.journal.seq,
            "journal_file": (
                str(self.journal.path) if self.journal.path else None
            ),
            "flight_dumps": self.recorder.dumps_written,
            "histograms": self.recorder.histograms(),
        }

    def _events_since(self, since: int) -> List[Dict[str, Any]]:
        """``GET /events``: durable journal replay when a file is
        configured, the flight recorder's in-memory ring otherwise —
        including after the journal degraded on a write error (the file
        is frozen mid-stream; the ring has everything since)."""
        if self.journal.path is not None and not self.journal.degraded:
            return self.journal.events_since(since)
        return self.recorder.events(since)

    def _write_health(self, status: str, **last_served: str) -> None:
        self._last_served.update(last_served)
        if self._shell_options.health_file is None:
            return
        atomic_write_text(
            Path(self._shell_options.health_file),
            json.dumps(self.health_payload(status), sort_keys=True, indent=2),
        )
