"""The serving loop end-to-end: poison isolation, breaker degradation,
deadlines, backpressure, health, checkpoint/resume, graceful shutdown.

Everything here follows the same shape: drive a daemon over a
deterministic flap stream on the OSPF ring, then compare its final state
fingerprint against :func:`tests.serve.conftest.apply_direct` — the same
batches applied straight through a fresh verifier.
"""

import json
import os
import signal

from repro.core.realconfig import RealConfig
from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve import (
    CLOSED,
    OPEN,
    DeadLetterBox,
    ServeDaemon,
    ServeOptions,
    fib_fingerprint,
    read_stream,
    resume_cursor_from,
    write_stream,
)
from repro.serve.stream import ChangeBatch
from repro.resilience.checkpoint import read_checkpoint

from tests.serve.conftest import apply_direct


class TestHappyPath:
    def test_all_batches_commit_and_state_matches_direct_application(
        self, make_daemon, ring_snapshot
    ):
        daemon, batches = make_daemon(count=10, queue_capacity=4)
        stats = daemon.run()
        assert stats.batches_seen == 10
        assert stats.batches_ok == 10
        assert stats.quarantined == 0
        assert stats.retries == 0
        assert stats.clean
        assert not stats.stopped_early
        assert stats.max_queue_depth <= 4
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )

    def test_transient_fault_is_retried_to_success(
        self, make_daemon, ring_snapshot
    ):
        daemon, batches = make_daemon(count=5, max_retries=2)
        # Batch 2's first attempt is generation call 3; it faults once.
        plan = FaultPlan(FaultSpec("generation", call=3))
        with inject(plan):
            stats = daemon.run()
        assert plan.fired
        assert stats.batches_ok == 5
        assert stats.retries == 1
        assert stats.quarantined == 0
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )


class TestPoisonIsolation:
    def test_one_poison_batch_in_fifty_is_quarantined_alone(
        self, make_daemon, ring_snapshot
    ):
        """The headline acceptance test: a 50-batch stream with one batch
        that fails permanently.  The other 49 must commit, the dead-letter
        directory must contain exactly the poison batch (with its error
        and pre-batch fingerprint), and the final state must match a
        from-scratch application of the 49 survivors."""
        daemon, batches = make_daemon(count=50, max_retries=2)
        poison = 7  # 0-based stream index
        # Its first attempt is generation call poison+1; repeat covers the
        # whole retry budget (3 attempts), so the batch is truly poison.
        plan = FaultPlan(
            FaultSpec("generation", call=poison + 1, repeat=3)
        )
        pre_poison = fib_fingerprint(
            apply_direct(ring_snapshot, batches[:poison])
        )
        with inject(plan):
            stats = daemon.run()
        assert len(plan.fired) == 3  # every attempt faulted
        assert stats.batches_seen == 50
        assert stats.batches_ok == 49
        assert stats.retries == 2
        assert stats.quarantined == 1
        assert stats.quarantined_ids == ["000007"]
        assert not stats.clean

        box = daemon.dead_letter
        assert box.batch_ids() == ["000007"]
        meta = box.meta("000007")
        assert meta["attempts"] == 3
        assert meta["failure_class"] == "transient"
        assert meta["error_type"] == "FaultInjected"
        assert "generation" in meta["error"]
        # The fingerprint describes the rolled-back (pre-batch) state.
        assert meta["pre_batch_fingerprint"] == pre_poison
        error_text = (
            box.directory / "000007" / "error.txt"
        ).read_text()
        assert "FaultInjected" in error_text

        # The survivors' state is exactly a direct application of the 49.
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches, skip_ids={"000007"})
        )

    def test_quarantined_batch_replays_cleanly_once_the_fault_clears(
        self, make_daemon, ring_snapshot
    ):
        """The dead-letter runbook: after the root cause is fixed, the
        quarantined payload replays through the verifier and converges to
        the full-stream state."""
        daemon, batches = make_daemon(count=10, max_retries=0)
        plan = FaultPlan(FaultSpec("generation", call=4, repeat=1))
        with inject(plan):
            daemon.run()
        assert daemon.dead_letter.batch_ids() == ["000003"]
        for replayed in daemon.dead_letter.replay():  # no plan active now
            daemon.verifier.apply_changes(replayed.changes)
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )

    def test_malformed_stream_line_is_quarantined_not_fatal(
        self, labeled_ring, ring_snapshot, tmp_path
    ):
        from repro.workloads import stream_batches

        batches = stream_batches(labeled_ring, count=4, seed=3)
        path = tmp_path / "stream.jsonl"
        write_stream(batches, path)
        lines = path.read_text().splitlines()
        lines.insert(2, '{"id": "poison", "changes": [{"kind": "Nope"}]}')
        path.write_text("\n".join(lines) + "\n")
        daemon = ServeDaemon(
            RealConfig(ring_snapshot),
            read_stream(path),
            DeadLetterBox(tmp_path / "dl"),
            ServeOptions(breaker_threshold=0, backoff_base=0.0),
            sleep=lambda s: None,
        )
        stats = daemon.run()
        assert stats.batches_seen == 5
        assert stats.batches_ok == 4
        assert stats.quarantined == 1
        meta = daemon.dead_letter.meta("poison")
        assert meta["failure_class"] == "permanent"
        assert meta["error_type"] == "StreamError"
        assert meta["attempts"] == 0
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )


class TestCircuitBreaker:
    def test_opens_after_threshold_then_probe_closes_it(
        self, make_daemon, ring_snapshot
    ):
        daemon, batches = make_daemon(
            count=6,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=0.0,
        )
        # The first two incremental attempts fault; everything after is
        # healthy, so the cooldown probe succeeds and the breaker closes.
        plan = FaultPlan(FaultSpec("generation", call=1, repeat=2))
        with inject(plan):
            stats = daemon.run()
        # Batch 0 fails below threshold -> quarantined.  Batch 1 trips
        # the breaker -> served via rebuild fallback.  Batch 2 is the
        # probe, succeeds, closes.  Batches 3-5 run incrementally.
        assert stats.quarantined_ids == ["000000"]
        assert stats.breaker_opens == 1
        assert stats.rebuild_batches == 1
        assert stats.batches_ok == 5
        assert daemon.breaker.state == CLOSED
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches, skip_ids={"000000"})
        )

    def test_rebuild_mode_serves_correctly_while_cooldown_runs(
        self, make_daemon, ring_snapshot
    ):
        now = {"value": 0.0}
        daemon, batches = make_daemon(
            count=6,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=1000.0,
            clock=lambda: now["value"],
        )
        plan = FaultPlan(FaultSpec("generation", call=1, repeat=2))
        with inject(plan):
            stats = daemon.run()
        # The clock never advances, so after the breaker opens every
        # remaining batch is served in full-rebuild mode — and the final
        # state must still be correct.
        assert daemon.breaker.state == OPEN
        assert stats.rebuild_batches == 5
        assert stats.batches_ok == 5
        assert stats.quarantined_ids == ["000000"]
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches, skip_ids={"000000"})
        )

    def test_failed_probe_reopens_and_falls_back_to_rebuild(
        self, make_daemon, ring_snapshot
    ):
        daemon, batches = make_daemon(
            count=6,
            max_retries=0,
            breaker_threshold=2,
            breaker_cooldown=0.0,
        )
        # Every incremental attempt faults, forever: each probe fails and
        # the rebuild fallback carries the whole stream.
        plan = FaultPlan(FaultSpec("generation", call=1, repeat=0))
        with inject(plan):
            stats = daemon.run()
        assert daemon.breaker.state == OPEN
        assert stats.breaker_opens >= 2  # initial open plus re-opens
        assert stats.quarantined_ids == ["000000"]
        assert stats.batches_ok == 5
        assert stats.rebuild_batches == 5
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches, skip_ids={"000000"})
        )


class TestDeadline:
    def test_slow_attempt_is_aborted_and_retried(
        self, make_daemon, ring_snapshot
    ):
        # A fake clock that only the injected delay advances: verification
        # itself takes no time on it, so the outcome cannot depend on how
        # fast (or how garbage-laden) the host is.
        now = [0.0]

        def advance(seconds):
            now[0] += seconds

        daemon, batches = make_daemon(
            count=4,
            max_retries=2,
            deadline_seconds=0.05,
            clock=lambda: now[0],
        )
        # One slow attempt: the injected delay burns the 50ms budget, the
        # cooperative abort fires at the next stage boundary, the
        # transaction rolls back, and the retry (fault-free) commits.
        plan = FaultPlan(
            FaultSpec(
                "generation", call=1, action="delay", delay_seconds=0.2
            ),
            sleep=advance,
        )
        with inject(plan):
            stats = daemon.run()
        assert stats.deadline_exceeded == 1
        assert stats.retries == 1
        assert stats.batches_ok == 4
        assert stats.quarantined == 0
        assert fib_fingerprint(daemon.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )


class TestBackpressure:
    def test_source_is_pulled_lazily_within_queue_capacity(
        self, labeled_ring, ring_snapshot, tmp_path
    ):
        from repro.workloads import stream_batches

        batches = stream_batches(labeled_ring, count=12, seed=3)
        path = tmp_path / "stream.jsonl"
        write_stream(batches, path)
        pulled = {"count": 0}

        def counting_source():
            for batch in read_stream(path):
                pulled["count"] += 1
                yield batch

        capacity = 3

        def check(daemon, batch, ok):
            assert (
                pulled["count"] <= daemon.stats.batches_seen + capacity
            )

        daemon = ServeDaemon(
            RealConfig(ring_snapshot),
            counting_source(),
            DeadLetterBox(tmp_path / "dl"),
            ServeOptions(
                breaker_threshold=0,
                backoff_base=0.0,
                queue_capacity=capacity,
            ),
            sleep=lambda s: None,
            on_batch_done=check,
        )
        stats = daemon.run()
        assert stats.batches_ok == 12
        assert stats.max_queue_depth <= capacity

    def test_idle_source_sleeps_poll_interval(
        self, ring_snapshot, tmp_path
    ):
        from repro.config.changes import SetOspfCost, ShutdownInterface

        work = [
            ChangeBatch("000000", [ShutdownInterface("r0", "eth0")]),
            ChangeBatch("000001", [SetOspfCost("r1", "eth1", 5)]),
        ]

        def flaky_source():
            yield None  # "nothing available yet"
            yield None
            yield from work

        sleeps = []
        daemon = ServeDaemon(
            RealConfig(ring_snapshot),
            flaky_source(),
            DeadLetterBox(tmp_path / "dl"),
            ServeOptions(
                breaker_threshold=0, backoff_base=0.0, poll_interval=0.25
            ),
            sleep=sleeps.append,
        )
        stats = daemon.run()
        assert stats.batches_ok == 2
        assert sleeps == [0.25, 0.25]


class TestWatchdogAndHealth:
    def test_watchdog_audits_on_cadence(self, make_daemon):
        daemon, _ = make_daemon(count=6, audit_every=3)
        stats = daemon.run()
        assert stats.audits == 2
        assert stats.audit_rebuilds == 0  # incremental state never drifted

    def test_health_file_heartbeats_then_reports_stopped(
        self, make_daemon, tmp_path
    ):
        health = tmp_path / "health.json"
        seen = []

        def peek(daemon, batch, ok):
            payload = json.loads(health.read_text())
            seen.append((payload["status"], payload["last_batch"]))

        daemon, _ = make_daemon(
            count=3, health_file=health, on_batch_done=peek
        )
        daemon.run()
        assert seen == [
            ("serving", "000000"),
            ("serving", "000001"),
            ("serving", "000002"),
        ]
        final = json.loads(health.read_text())
        assert final["status"] == "stopped"
        assert final["cursor"] == 3
        assert final["batches_ok"] == 3
        assert final["quarantined"] == 0
        assert final["mode"] == "incremental"
        assert final["pid"] == os.getpid()


class TestShutdownAndResume:
    def test_graceful_stop_checkpoints_and_resume_finishes_the_stream(
        self, make_daemon, ring_snapshot, tmp_path
    ):
        ckpt = tmp_path / "serve.ckpt"

        def stop_at_four(daemon, batch, ok):
            if daemon.cursor == 4:
                daemon.request_stop()

        first, batches = make_daemon(
            count=10, checkpoint_file=ckpt, on_batch_done=stop_at_four
        )
        stats = first.run()
        assert stats.stopped_early
        assert stats.batches_seen == 4
        assert resume_cursor_from(ckpt) == 4

        second, _ = make_daemon(
            count=10,
            verifier=read_checkpoint(ckpt),
            resume_cursor=resume_cursor_from(ckpt),
            checkpoint_file=ckpt,
        )
        stats2 = second.run()
        # No batch lost, none applied twice.
        assert stats2.skipped_on_resume == 4
        assert stats2.batches_seen == 6
        assert resume_cursor_from(ckpt) == 10
        assert fib_fingerprint(second.verifier) == fib_fingerprint(
            apply_direct(ring_snapshot, batches)
        )

    def test_periodic_checkpoints_carry_the_cursor(
        self, make_daemon, tmp_path
    ):
        ckpt = tmp_path / "serve.ckpt"
        observed = {}

        def peek(daemon, batch, ok):
            if daemon.cursor == 3:
                observed["mid"] = resume_cursor_from(ckpt)

        daemon, _ = make_daemon(
            count=6,
            checkpoint_file=ckpt,
            checkpoint_every=2,
            on_batch_done=peek,
        )
        daemon.run()
        assert observed["mid"] == 2  # last cadence checkpoint before 3
        assert resume_cursor_from(ckpt) == 6  # final shutdown checkpoint

    def test_sigint_stops_gracefully_and_restores_handlers(
        self, make_daemon, tmp_path
    ):
        ckpt = tmp_path / "serve.ckpt"
        previous = signal.getsignal(signal.SIGINT)

        def interrupt(daemon, batch, ok):
            if daemon.cursor == 2:
                os.kill(os.getpid(), signal.SIGINT)

        daemon, _ = make_daemon(
            count=10, checkpoint_file=ckpt, on_batch_done=interrupt
        )
        stats = daemon.run(handle_signals=True)
        assert stats.stopped_early
        assert stats.batches_seen == 2  # in-flight batch finished, then out
        assert resume_cursor_from(ckpt) == 2
        assert signal.getsignal(signal.SIGINT) is previous
