"""The change-stream serving loop.

``ServeDaemon`` keeps a :class:`~repro.core.realconfig.RealConfig` alive
across an arbitrarily long stream of change batches:

- a **bounded prefetch queue** applies backpressure to the stream source
  (never more than ``queue_capacity`` batches in memory);
- each batch runs under a wall-clock **deadline** (cooperative abort at
  the verifier's stage boundaries) and a **retry policy** (exponential
  backoff + jitter for transient failures);
- a batch that exhausts its budget is **quarantined** to the dead-letter
  directory — payload, exception, pre-batch state fingerprint — and the
  stream continues;
- a **circuit breaker** counts consecutive incremental failures and
  degrades to full-rebuild mode (from-scratch verification per batch),
  probing incremental mode again after a cooldown;
- a **watchdog** audits the incremental state against a from-scratch
  recomputation every N batches, and a ``--health-file`` JSON heartbeat
  reports liveness/readiness;
- **graceful shutdown** (SIGINT/SIGTERM or :meth:`request_stop`) finishes
  the in-flight batch, then writes a checkpoint whose ``extras`` carry the
  stream cursor, so a later daemon resumes with no batch lost or applied
  twice.

The batch-level machinery (retry, quarantine, breaker, rebuild) lives in
:class:`~repro.serve.engine.BatchEngine`; signals, journal, health and the
introspection server live in :class:`~repro.serve.shell.ServeShell`, which
the multi-tenant service (:mod:`repro.tenants`) extends too.  The daemon
composes exactly one engine and adds what a single stream needs: the
source queue with its resume skip, the watchdog and the checkpoint.

Every verification is transactional (PR 3), which is what makes retries
and quarantine safe: a failed attempt always leaves the verifier at the
pre-batch state.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, Optional

from repro.chaos.points import crash_point
from repro.core.realconfig import RealConfig
from repro.obs import EVENT_AUDIT, EVENT_CHECKPOINT, EVENT_CHECKPOINT_FALLBACK
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.deadletter import DeadLetterBox
from repro.serve.engine import BatchEngine, ServeOptions, ServeStats
from repro.serve.shell import ServeShell, write_cursor_checkpoint
from repro.serve.stream import ChangeBatch
from repro.telemetry import names, set_gauge

__all__ = [
    "ServeDaemon",
    "ServeOptions",
    "ServeStats",
]


class ServeDaemon(ServeShell):
    """Drive a verifier over a stream of change batches, fault-tolerantly.

    ``source`` yields :class:`ChangeBatch` objects; it may also yield
    ``None`` to signal "nothing available right now" (the watch source
    does), in which case the daemon sleeps ``poll_interval`` and polls
    again.  ``clock``/``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        verifier: RealConfig,
        source: Iterable[Optional[ChangeBatch]],
        dead_letter: DeadLetterBox,
        options: Optional[ServeOptions] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        resume_cursor: int = 0,
        on_batch_done: Optional[
            Callable[["ServeDaemon", ChangeBatch, bool], None]
        ] = None,
        resume_fallback: Optional[dict] = None,
    ) -> None:
        self.options = options or ServeOptions()
        super().__init__(self.options, sleep)
        self._source: Iterator[Optional[ChangeBatch]] = iter(source)
        self._queue: Deque[ChangeBatch] = deque()
        self._exhausted = False
        self._on_batch_done = on_batch_done
        #: Stream entries fully disposed of (committed or quarantined) —
        #: the resume cursor persisted in checkpoint extras.
        self.cursor = resume_cursor
        self._to_skip = resume_cursor
        #: Set when the resume checkpoint was served by an older ring
        #: generation (the newest was corrupt) — journaled after start.
        self._resume_fallback = resume_fallback
        self._batches_since_audit = 0
        self._batches_since_checkpoint = 0
        #: The per-batch fault domain: retry, quarantine, breaker, rebuild.
        self.engine = BatchEngine(
            verifier,
            dead_letter,
            options=self.options,
            journal=self.journal,
            recorder=self.recorder,
            clock=clock,
            sleep=sleep,
        )
        self._start_obs_server()

    # -- the engine's surface, re-exposed --------------------------------------

    @property
    def verifier(self) -> RealConfig:
        return self.engine.verifier

    @property
    def breaker(self) -> Optional[CircuitBreaker]:
        return self.engine.breaker

    @property
    def stats(self) -> ServeStats:
        return self.engine.stats

    @property
    def dead_letter(self) -> DeadLetterBox:
        return self.engine.dead_letter

    def _process_batch(self, batch: ChangeBatch) -> bool:
        return self.engine.process_batch(batch)

    # -- admission: the queue ----------------------------------------------------

    def _refill(self) -> None:
        """Pull from the source up to capacity — the backpressure bound:
        the daemon never materializes more than ``queue_capacity`` batches
        ahead of the verifier."""
        while (
            not self._exhausted
            and len(self._queue) < self.options.queue_capacity
        ):
            try:
                batch = next(self._source)
            except StopIteration:
                self._exhausted = True
                break
            if batch is None:  # watch source: nothing available right now
                break
            if self._to_skip > 0:
                self._to_skip -= 1
                self.stats.skipped_on_resume += 1
                continue
            self._queue.append(batch)
        set_gauge(names.SERVE_QUEUE_DEPTH, len(self._queue))
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue)
        )

    # -- the loop -------------------------------------------------------------

    def run(self, handle_signals: bool = False) -> ServeStats:
        self._run(handle_signals)
        return self.stats

    def _journal_start(self) -> None:
        super()._journal_start()
        if self._resume_fallback is not None:
            self.journal.emit(
                EVENT_CHECKPOINT_FALLBACK, **self._resume_fallback
            )

    def _serve_step(self) -> bool:
        if not self._queue:
            self._refill()
        if not self._queue:
            return False
        batch = self._queue.popleft()
        ok = self._process_batch(batch)
        self.cursor += 1
        crash_point("cursor.commit")
        self._after_batch(batch, ok)
        return True

    def _drained(self) -> bool:
        return self._exhausted and not self._queue

    def _after_batch(self, batch: ChangeBatch, ok: bool) -> None:
        self._batches_since_checkpoint += 1
        if (
            self.options.checkpoint_every > 0
            and self.options.checkpoint_file is not None
            and self._batches_since_checkpoint >= self.options.checkpoint_every
        ):
            self._batches_since_checkpoint = 0
            self.write_checkpoint()
        self._watchdog()
        self._write_health("serving", last_batch=batch.batch_id)
        if self._on_batch_done is not None:
            self._on_batch_done(self, batch, ok)

    def _dispose(self) -> None:
        if self.options.checkpoint_file is not None:
            self.write_checkpoint()
        self.verifier.close()  # release the worker pool, if any
        self.stats.stopped_early = self._stop_requested

    # -- watchdog / checkpoint -------------------------------------------------

    def _watchdog(self) -> None:
        if self.options.audit_every <= 0:
            return
        self._batches_since_audit += 1
        if self._batches_since_audit < self.options.audit_every:
            return
        self._batches_since_audit = 0
        from repro.resilience.audit import audit

        report = audit(self.verifier)
        self.stats.audits += 1
        if not report.ok:
            self.verifier.rebuild()
            self.stats.audit_rebuilds += 1
        self.journal.emit(EVENT_AUDIT, ok=report.ok, cursor=self.cursor)

    def write_checkpoint(self) -> bool:
        """Checkpoint the verifier + cursor; a storage fault (disk full,
        dying device) degrades — counted, journaled, kept serving —
        instead of killing the daemon: the stream keeps draining and the
        next cadence retries the write."""
        assert self.options.checkpoint_file is not None
        error = write_cursor_checkpoint(
            self.engine, self.options.checkpoint_file, self.cursor
        )
        if error is not None:
            return False
        self.journal.emit(EVENT_CHECKPOINT, cursor=self.cursor)
        return True

    # -- payload fields --------------------------------------------------------

    def _start_fields(self) -> Dict[str, Any]:
        return {"cursor": self.cursor}

    def _stop_fields(self) -> Dict[str, Any]:
        return {
            "cursor": self.cursor,
            "batches_ok": self.stats.batches_ok,
            "batches_seen": self.stats.batches_seen,
            "quarantined": self.stats.quarantined,
        }

    def _health_fields(self) -> Dict[str, Any]:
        return {
            "cursor": self.cursor,
            "mode": (
                "rebuild"
                if self.breaker and self.breaker.state == OPEN
                else "incremental"
            ),
            "breaker": (
                self.breaker.snapshot() if self.breaker else None
            ),
            "queue_depth": len(self._queue),
            "batches_seen": self.stats.batches_seen,
            "batches_ok": self.stats.batches_ok,
            "retries": self.stats.retries,
            "quarantined": self.stats.quarantined,
            "new_violations": self.stats.new_violations,
            "lint_rejected": self.stats.lint_rejected,
            "lint_new_errors": self.stats.lint_new_errors,
            "checkpoint_failures": self.stats.checkpoint_failures,
        }

    def _stats_fields(self) -> Dict[str, Any]:
        return {
            "stats": dict(vars(self.stats)),
            "cursor": self.cursor,
            "queue_depth": len(self._queue),
            "breaker_state": self.breaker.state if self.breaker else None,
        }
