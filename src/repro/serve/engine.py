"""The per-batch fault domain: one verifier, one breaker, one dead-letter box.

``BatchEngine`` is the unit of isolation extracted from the original
single-tenant ``ServeDaemon``: everything that decides the fate of one
change batch — retry with backoff, deadline aborts, poison-batch
quarantine, breaker-gated degradation to full rebuild, lint accounting —
lives here, with **no** knowledge of queues, sources, signals, health
files, or HTTP.  The daemon composes exactly one engine; the
multi-tenant service (:mod:`repro.tenants`) composes one engine *per
tenant*, which is what makes a tenant a fault domain: a poison batch,
an open breaker, or a crash-looping verifier is confined to the engine
it happened in.

The journal handed in may be a plain :class:`~repro.obs.EventJournal`
or a :class:`~repro.obs.TenantJournal` tagging view — the engine calls
only ``emit``, so per-tenant attribution is the journal's concern, not
the engine's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.config.changes import apply_changes
from repro.core.realconfig import LintGateError, RealConfig
from repro.obs import (
    EVENT_BREAKER,
    EVENT_COMMITTED,
    EVENT_DEADLINE,
    EVENT_FINDING,
    EVENT_LINT_REJECTED,
    EVENT_MALFORMED,
    EVENT_QUARANTINED,
    EVENT_REBUILD,
    EVENT_RETRIED,
    EVENT_STAGE,
    FlightRecorder,
)
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.deadletter import DeadLetterBox
from repro.serve.policy import (
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    classify_failure,
)
from repro.serve.stream import ChangeBatch, StreamError, fib_fingerprint
from repro.telemetry import count, names, set_gauge, span


@dataclass
class ServeOptions:
    """Knobs of the serving loop (all come straight from the CLI)."""

    deadline_seconds: float = 0.0  # 0 = no deadline
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    retry_seed: int = 0
    breaker_threshold: int = 3  # 0 = breaker disabled
    breaker_cooldown: float = 5.0
    queue_capacity: int = 16
    poll_interval: float = 0.5  # sleep when a watch source is idle
    audit_every: int = 0  # watchdog self-check cadence (batches)
    checkpoint_every: int = 0  # periodic checkpoint cadence (batches)
    #: Checkpoint generations kept on disk (the live file plus ``N - 1``
    #: numbered fallbacks a corrupt newest generation falls back to).
    checkpoint_generations: int = 3
    health_file: Optional[Union[str, Path]] = None
    checkpoint_file: Optional[Union[str, Path]] = None
    #: JSONL event-journal file (None = in-memory seqs only, events are
    #: still fed to the flight recorder and the introspection server).
    journal_file: Optional[Union[str, Path]] = None
    #: Port for the live introspection server (None = no server, 0 = pick
    #: an ephemeral port, published via ``ServeDaemon.obs_server.port``).
    obs_port: Optional[int] = None
    obs_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.checkpoint_generations < 1:
            raise ValueError("checkpoint_generations must be >= 1")


@dataclass
class ServeStats:
    """What happened over one daemon run (or one tenant's lifetime)."""

    batches_seen: int = 0
    batches_ok: int = 0
    retries: int = 0
    quarantined: int = 0
    deadline_exceeded: int = 0
    rebuild_batches: int = 0
    breaker_opens: int = 0
    audits: int = 0
    audit_rebuilds: int = 0
    new_violations: int = 0
    lint_rejected: int = 0
    lint_new_errors: int = 0
    max_queue_depth: int = 0
    skipped_on_resume: int = 0
    checkpoint_failures: int = 0
    stopped_early: bool = False
    quarantined_ids: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.quarantined == 0 and self.new_violations == 0

    def summary(self) -> str:
        parts = [
            f"{self.batches_ok}/{self.batches_seen} batches ok",
            f"{self.retries} retries",
            f"{self.quarantined} quarantined",
        ]
        if self.rebuild_batches:
            parts.append(f"{self.rebuild_batches} in rebuild mode")
        if self.breaker_opens:
            parts.append(f"breaker opened {self.breaker_opens}x")
        if self.deadline_exceeded:
            parts.append(f"{self.deadline_exceeded} deadline aborts")
        if self.new_violations:
            parts.append(f"{self.new_violations} new policy violations")
        if self.lint_rejected:
            parts.append(f"{self.lint_rejected} lint-rejected")
        if self.lint_new_errors:
            parts.append(f"{self.lint_new_errors} new lint errors")
        if self.skipped_on_resume:
            parts.append(f"resumed past {self.skipped_on_resume}")
        if self.checkpoint_failures:
            parts.append(f"{self.checkpoint_failures} checkpoint failures")
        if self.stopped_early:
            parts.append("stopped early")
        return ", ".join(parts)


class BatchEngine:
    """Apply change batches to one verifier with the full robustness
    stack: retry + backoff, deadline, quarantine, breaker degradation.

    ``journal`` is anything with an ``emit(event, **fields)`` method
    (an :class:`~repro.obs.EventJournal` or a per-tenant
    :class:`~repro.obs.TenantJournal` view); ``recorder`` is the flight
    recorder fed by that journal.  ``clock``/``sleep`` are injectable
    for deterministic tests.
    """

    def __init__(
        self,
        verifier: RealConfig,
        dead_letter: DeadLetterBox,
        options: Optional[ServeOptions] = None,
        journal=None,
        recorder: Optional[FlightRecorder] = None,
        stats: Optional[ServeStats] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from repro.obs import EventJournal

        self.verifier = verifier
        self.dead_letter = dead_letter
        self.options = options or ServeOptions()
        self.journal = journal if journal is not None else EventJournal(None)
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.stats = stats if stats is not None else ServeStats()
        self._clock = clock
        self._sleep = sleep
        self.retry_policy = RetryPolicy(
            max_retries=self.options.max_retries,
            backoff_base=self.options.backoff_base,
            backoff_cap=self.options.backoff_cap,
            jitter=self.options.jitter,
            seed=self.options.retry_seed,
        )
        #: A caller-provided breaker survives engine teardown — the
        #: multi-tenant registry keeps it in the tenant's resident state
        #: so an evict/hydrate cycle cannot reset a tripping tenant.
        self.breaker: Optional[CircuitBreaker] = breaker
        if self.breaker is None and self.options.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                failure_threshold=self.options.breaker_threshold,
                cooldown_seconds=self.options.breaker_cooldown,
                clock=clock,
            )
        # Warn-mode lint accounting: error fingerprints already present at
        # engine start (or at the last rebuild) — anything beyond these is
        # a *new* lint error introduced by the stream.
        self._lint_errors_seen: Optional[set] = None
        baseline = verifier.lint_result
        if baseline is not None:
            self._lint_errors_seen = {
                diag.fingerprint() for diag in baseline.errors()
            }

    # -- one batch -------------------------------------------------------------

    def process_batch(self, batch: ChangeBatch) -> bool:
        self.stats.batches_seen += 1
        count(names.SERVE_BATCHES)
        started = time.perf_counter()
        try:
            with span(names.SPAN_SERVE_BATCH, batch=batch.batch_id) as sp:
                if batch.decode_error is not None:
                    self.journal.emit(
                        EVENT_MALFORMED,
                        batch=batch.batch_id,
                        error=batch.decode_error,
                    )
                    self._quarantine(
                        batch,
                        StreamError(batch.decode_error),
                        attempts=0,
                        failure_class="permanent",
                    )
                    sp.set("outcome", "malformed")
                    return False
                incremental = (
                    self.breaker.allows_incremental() if self.breaker else True
                )
                set_gauge(
                    names.SERVE_BREAKER_STATE,
                    self.breaker.gauge_value() if self.breaker else 0,
                )
                if not incremental:
                    ok = self._serve_rebuild(batch)
                    sp.set("outcome", "rebuild" if ok else "quarantined")
                    return ok
                ok = self._serve_incremental(batch)
                sp.set("outcome", "ok" if ok else "failed-incremental")
                return ok
        finally:
            self.recorder.observe_stage(
                "batch", time.perf_counter() - started
            )

    def _serve_incremental(self, batch: ChangeBatch) -> bool:
        attempt = 0
        while True:
            attempt += 1
            error: Optional[Exception] = None
            with span(
                names.SPAN_SERVE_ATTEMPT,
                batch=batch.batch_id,
                attempt=attempt,
            ):
                try:
                    delta = self._attempt(batch)
                except Exception as caught:  # noqa: BLE001 - rolled back
                    error = caught
            if error is None:
                if self.breaker:
                    self.breaker.record_success()
                self.stats.batches_ok += 1
                count(names.SERVE_BATCHES_OK)
                self.stats.new_violations += len(delta.newly_violated)
                if delta.lint is not None:
                    self._track_lint_errors(delta.lint)
                self._record_commit(batch, delta, attempt)
                return True
            if isinstance(error, DeadlineExceeded):
                self.stats.deadline_exceeded += 1
                count(names.SERVE_DEADLINE_EXCEEDED)
                self.journal.emit(
                    EVENT_DEADLINE,
                    batch=batch.batch_id,
                    attempt=attempt,
                    deadline_seconds=self.options.deadline_seconds,
                )
            if self.retry_policy.should_retry(attempt, error):
                self.stats.retries += 1
                count(names.SERVE_RETRIES)
                self.journal.emit(
                    EVENT_RETRIED,
                    batch=batch.batch_id,
                    attempt=attempt,
                    error_type=type(error).__name__,
                    error=str(error),
                )
                self._sleep(self.retry_policy.backoff_seconds(attempt))
                continue
            # Retry budget spent (or the failure is permanent).
            if self.breaker:
                opens_before = self.breaker.opens
                self.breaker.record_failure()
                set_gauge(
                    names.SERVE_BREAKER_STATE, self.breaker.gauge_value()
                )
                if self.breaker.opens > opens_before:
                    self.stats.breaker_opens += 1
                    count(names.SERVE_BREAKER_OPENS)
                    self.journal.emit(
                        EVENT_BREAKER,
                        batch=batch.batch_id,
                        state=self.breaker.state,
                        opens=self.breaker.opens,
                        consecutive_failures=(
                            self.breaker.consecutive_failures
                        ),
                    )
                    self._dump_flight(
                        self.dead_letter.directory
                        / f"flight-breaker-open-{self.breaker.opens:03d}.json"
                    )
                if self.breaker.state == OPEN:
                    # The incremental path just proved systematically bad:
                    # give this batch the robust from-scratch path before
                    # writing it off as poison.
                    return self._serve_rebuild(batch, prior_attempts=attempt)
            self._quarantine(
                batch, error, attempt, self._failure_class(error)
            )
            return False

    def _attempt(self, batch: ChangeBatch):
        """One incremental verification under the deadline."""
        deadline = None
        if self.options.deadline_seconds > 0:
            deadline = Deadline(
                self.options.deadline_seconds, clock=self._clock
            ).start()
            self.verifier.abort_check = deadline.check
        try:
            return self.verifier.apply_changes(batch.changes)
        finally:
            self.verifier.abort_check = None

    #: delta.timings attribute -> the stage label used in journal events
    #: and the flight recorder's latency histograms.
    _STAGES = (
        ("config_diff", "diff"),
        ("lint", "lint"),
        ("generation", "generation"),
        ("model_update", "model"),
        ("policy_check", "policy"),
    )

    def _record_commit(self, batch: ChangeBatch, delta, attempts: int) -> None:
        """Journal one committed batch: per-stage latencies (also fed to
        the flight recorder), the commit itself, and one finding event per
        newly violated policy — the batch -> stage / batch -> finding legs
        of the correlation-id scheme."""
        timings = delta.timings
        for attr, stage_label in self._STAGES:
            seconds = getattr(timings, attr, 0.0)
            self.recorder.observe_stage(stage_label, seconds)
            self.journal.emit(
                EVENT_STAGE,
                batch=batch.batch_id,
                stage=stage_label,
                seconds=seconds,
            )
        self.journal.emit(
            EVENT_COMMITTED,
            batch=batch.batch_id,
            attempts=attempts,
            seconds=timings.total,
            new_violations=len(delta.newly_violated),
        )
        for status in delta.newly_violated:
            self.journal.emit(
                EVENT_FINDING,
                batch=batch.batch_id,
                finding=status.policy.name,
            )

    def _dump_flight(self, path: Path) -> None:
        """Best-effort atomic flight-recorder dump (observability must
        never take the serving loop down with it)."""
        try:
            self.recorder.dump_to(path)
        except OSError:
            pass

    def _serve_rebuild(self, batch: ChangeBatch, prior_attempts: int = 0) -> bool:
        """Degraded mode: apply the batch to the snapshot and re-verify the
        result from scratch (Plankton-style), bypassing the incremental
        pipeline entirely.  No deadline — the from-scratch path is the
        fallback of last resort and must be allowed to finish."""
        self.stats.rebuild_batches += 1
        count(names.SERVE_REBUILD_BATCHES)
        options = self.verifier._options
        try:
            with span(names.SPAN_REBUILD, batch=batch.batch_id):
                new_snapshot, _ = apply_changes(
                    self.verifier.snapshot, batch.changes
                )
                before = {
                    status.policy.name: status.holds
                    for status in self.verifier.checker.statuses()
                }
                fresh = RealConfig(
                    new_snapshot,
                    endpoints=options["endpoints"],
                    policies=self.verifier.checker.policies(),
                    update_order=options["update_order"],
                    merge_ecs=options["merge_ecs"],
                    model_mode=options["model_mode"],
                    lint_mode=options["lint_mode"],
                    lint_suppressions=options["lint_suppressions"],
                    transactional=options["transactional"],
                    audit_every=options["audit_every"],
                    workers=options.get("workers", 1),
                    parallel_backend=options.get("parallel_backend", "auto"),
                )
        except Exception as error:  # noqa: BLE001 - old verifier untouched
            self._quarantine(
                batch,
                error,
                prior_attempts + 1,
                self._failure_class(error),
            )
            return False
        self.verifier.close()  # release the replaced verifier's worker pool
        self.verifier = fresh
        if fresh.lint_result is not None:
            self._track_lint_errors(fresh.lint_result)
        self.stats.batches_ok += 1
        count(names.SERVE_BATCHES_OK)
        after = {
            status.policy.name: status.holds
            for status in fresh.checker.statuses()
        }
        newly_violated = sorted(
            policy_name
            for policy_name, holds in after.items()
            if not holds and before.get(policy_name, True)
        )
        self.stats.new_violations += len(newly_violated)
        self.journal.emit(
            EVENT_REBUILD,
            batch=batch.batch_id,
            attempts=prior_attempts + 1,
            new_violations=len(newly_violated),
        )
        for policy_name in newly_violated:
            self.journal.emit(
                EVENT_FINDING,
                batch=batch.batch_id,
                finding=policy_name,
                mode="rebuild",
            )
        return True

    @staticmethod
    def _failure_class(error: BaseException) -> str:
        """Dead-letter taxonomy: lint-gate refusals get their own class so
        operators can triage "your change is malformed text" apart from
        "the verifier choked"."""
        if isinstance(error, LintGateError):
            return "lint-rejected"
        return classify_failure(error)

    def _track_lint_errors(self, lint_result) -> None:
        """Warn-mode accounting: count lint errors never seen before.

        Under ``--lint enforce`` the gate quarantines offending batches, so
        this stays zero; under ``--lint warn`` accepted batches may carry
        new errors, and this is how many distinct ones the stream added."""
        current = {diag.fingerprint() for diag in lint_result.errors()}
        if self._lint_errors_seen is None:
            self._lint_errors_seen = current
            return
        fresh = current - self._lint_errors_seen
        if fresh:
            self.stats.lint_new_errors += len(fresh)
            self._lint_errors_seen |= fresh

    def _quarantine(
        self,
        batch: ChangeBatch,
        error: BaseException,
        attempts: int,
        failure_class: str,
    ) -> None:
        if failure_class == "lint-rejected":
            self.stats.lint_rejected += 1
            count(names.SERVE_LINT_REJECTED)
            self.journal.emit(
                EVENT_LINT_REJECTED, batch=batch.batch_id, error=str(error)
            )
        # The transaction rolled back, so the verifier is at the pre-batch
        # state — exactly what the fingerprint must describe.
        entry = self.dead_letter.quarantine(
            batch,
            error,
            attempts=attempts,
            failure_class=failure_class,
            fingerprint=fib_fingerprint(self.verifier),
        )
        self.stats.quarantined += 1
        self.stats.quarantined_ids.append(batch.batch_id)
        count(names.SERVE_QUARANTINED)
        self.journal.emit(
            EVENT_QUARANTINED,
            batch=batch.batch_id,
            attempts=attempts,
            failure_class=failure_class,
            error_type=type(error).__name__,
            error=str(error),
        )
        # The post-mortem dump rides next to batch.json / error.txt /
        # meta.json, with the quarantine event already in its ring.
        self._dump_flight(entry / "flight.json")

    def close(self) -> None:
        """Release the verifier's worker pool, if any."""
        self.verifier.close()
