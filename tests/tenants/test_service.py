"""TenantService: the loop, admission, controls, shutdown, introspection."""

from __future__ import annotations

import json
import threading

from repro.resilience.faults import FaultPlan, FaultSpec, inject
from repro.serve.stream import ChangeBatch, read_stream
from repro.tenants import TenantService, discover_tenants
from repro.workloads.tenants import build_tenant, poison_stream


def stream_length(config) -> int:
    return sum(1 for _ in read_stream(config.stream_file))


class TestDrainRun:
    def test_serves_every_tenant_to_exhaustion(self, make_fleet, make_service):
        root = make_fleet(count=3, total_batches=12)
        service = make_service(root)
        stats = service.run()
        for config in discover_tenants(root):
            expected = stream_length(config)
            assert stats[config.tenant_id].batches_ok == expected
            assert stats[config.tenant_id].quarantined == 0
        assert service.registry.hydrated_ids == []  # all evicted on stop

    def test_resume_after_stop_loses_and_repeats_nothing(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=2, total_batches=8)
        expected = {
            c.tenant_id: stream_length(c) for c in discover_tenants(root)
        }
        service = make_service(root)
        # Stop mid-run: request_stop after the third commit (the journal
        # subscriber fires synchronously inside the serving loop).
        commits = []

        def stop_after_three(event):
            if event.get("event") == "committed":
                commits.append(event)
                if len(commits) == 3:
                    service.request_stop()

        service.journal.subscribe(stop_after_three)
        first = service.run()
        done_first = {
            tid: stats.batches_seen for tid, stats in first.items()
        }
        assert sum(done_first.values()) == 3
        # A fresh service (fresh process) resumes from the checkpoints.
        service2 = make_service(root)
        second = service2.run()
        for tid, total in expected.items():
            assert (
                done_first[tid] + second[tid].batches_seen == total
            ), f"{tid} lost or repeated a batch across restart"

    def test_journal_events_are_tenant_tagged(self, make_fleet, make_service):
        root = make_fleet(count=2, total_batches=6)
        journal_file = root / "journal.jsonl"
        service = make_service(root, journal_file=journal_file)
        service.run()
        events = [
            json.loads(line)
            for line in journal_file.read_text().splitlines()
        ]
        committed = [e for e in events if e["event"] == "committed"]
        assert committed
        for event in committed:
            assert event["tenant"].startswith("t")
            assert event["cid"].startswith(event["tenant"] + ":")
        assert {e["event"] for e in events} >= {
            "daemon-start",
            "daemon-stop",
            "tenant-hydrated",
            "tenant-evicted",
        }


class TestFaultContainment:
    def test_poison_stream_degrades_only_its_tenant(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=3, total_batches=9)
        poison_stream(root / "t001")
        service = make_service(root)
        stats = service.run()
        assert stats["t001"].quarantined == 1
        assert stats["t000"].quarantined == 0
        assert stats["t002"].quarantined == 0
        payload = service.tenants_payload()
        assert payload["degraded"] == ["t001"]
        # The poison batch sits in t001's private dead-letter box.
        box = discover_tenants(root)[1].deadletter_dir
        assert box.is_dir() and any(box.iterdir())

    def test_hydration_failure_marks_tenant_failed_not_service(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=3, total_batches=9)
        (root / "t002" / "checkpoint.ckpt").write_bytes(b"corrupt")
        service = make_service(root)
        stats = service.run()
        assert service.registry.state("t002").failed
        assert stats["t000"].batches_ok > 0
        assert stats["t001"].batches_ok > 0
        events = [e["event"] for e in service.recorder.events(0)]
        assert "tenant-failed" in events

    def test_failed_tenant_checkpoint_keeps_committed_cursor(
        self, make_fleet, make_service, monkeypatch
    ):
        root = make_fleet(count=1, total_batches=6)
        service = make_service(root, checkpoint_every=1)
        state = service.registry.state("t000")
        # Blow up the tenant after its third commit.
        real_hydrate = service.registry.hydrate

        def exploding_hydrate(tenant_id):
            if state.stats.batches_ok >= 3:
                raise RuntimeError("simulated engine loss")
            return real_hydrate(tenant_id)

        monkeypatch.setattr(service.registry, "hydrate", exploding_hydrate)
        service.run()
        assert state.failed
        from repro.resilience.checkpoint import read_checkpoint_extras

        extras = read_checkpoint_extras(state.config.checkpoint_file)
        assert extras["serve"]["cursor"] == 3


class TestJournalDegradation:
    """The fleet's side of tests/serve/test_storage_faults.py::
    TestJournalDegradation: after a journal write fault the durable file
    is frozen mid-stream, so ``/events`` must answer from the flight
    recorder and health must report the degradation."""

    def run_degraded(self, make_fleet, make_service):
        root = make_fleet(count=2, total_batches=6)
        service = make_service(root, journal_file=root / "journal.jsonl")
        plan = FaultPlan(FaultSpec("journal_write", action="errno", call=4))
        with inject(plan):
            stats = service.run()
        assert plan.fired
        assert service.journal.degraded
        return service, stats

    def test_events_fall_back_to_the_recorder(self, make_fleet, make_service):
        service, stats = self.run_degraded(make_fleet, make_service)
        events = service._events_since(0)
        assert events == service.recorder.events(0)
        committed = sum(e["event"] == "committed" for e in events)
        assert committed == sum(s.batches_ok for s in stats.values())

    def test_health_reports_journal_degraded(self, make_fleet, make_service):
        service, _ = self.run_degraded(make_fleet, make_service)
        assert service.health_payload()["journal_degraded"] is True


class TestAdmission:
    def test_submit_sheds_when_queue_full(self, make_fleet, make_service):
        root = make_fleet(count=1, total_batches=2)
        service = make_service(root, tenant_queue_capacity=2)
        batch = ChangeBatch(batch_id="push-0", changes=[], payload={})
        assert service.submit("t000", batch)
        assert service.submit("t000", batch)
        assert service.submit("t000", batch) is False  # full -> shed
        assert service.registry.state("t000").shed == 1
        events = service.recorder.events(0)
        assert any(e["event"] == "load-shed" for e in events)

    def test_submit_to_failed_tenant_sheds(self, make_fleet, make_service):
        root = make_fleet(count=1, total_batches=2)
        service = make_service(root)
        service.registry.state("t000").failed = True
        batch = ChangeBatch(batch_id="push-1", changes=[], payload={})
        assert service.submit("t000", batch) is False


class TestControls:
    def test_evict_marker_releases_tenant_mid_run(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=2, total_batches=10)
        service = make_service(root, control_scan_every=1)
        marker_dropped = []

        def drop_marker(event):
            if event.get("event") == "committed" and not marker_dropped:
                (root / "t000" / ".evict").touch()
                marker_dropped.append(True)

        service.journal.subscribe(drop_marker)
        service.run()
        state = service.registry.state("t000")
        # Evicted by the control scan (reason=request), then rehydrated
        # to finish its stream, then evicted again at shutdown.
        events = service.recorder.events(0)
        requests = [
            e
            for e in events
            if e["event"] == "tenant-evicted"
            and e.get("reason") == "request"
            and e["tenant"] == "t000"
        ]
        assert requests
        assert state.stats.batches_ok > 0
        assert not (root / "t000" / ".evict").exists()  # consumed

    def test_new_tenant_directory_is_admitted_mid_run(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=1, total_batches=4)
        service = make_service(root, control_scan_every=1)
        added = []

        def add_tenant(event):
            if event.get("event") == "committed" and not added:
                build_tenant(root, "late", batches=2, seed=99)
                added.append(True)

        service.journal.subscribe(add_tenant)
        stats = service.run()
        assert "late" in stats
        assert stats["late"].batches_ok == 2


class TestShutdown:
    def test_stop_during_inflight_restore_leaves_valid_cursor(
        self, make_fleet, make_service, monkeypatch
    ):
        """SIGTERM arriving while a tenant restore is in flight must not
        corrupt the cursor: the restore finishes, the popped batch is
        served, and the shutdown checkpoint records exactly what was
        disposed — a restarted service neither loses nor repeats."""
        import repro.tenants.registry as registry_mod

        root = make_fleet(count=2, total_batches=8)
        expected = {
            c.tenant_id: stream_length(c) for c in discover_tenants(root)
        }
        service = make_service(root)
        restore_started = threading.Event()
        release_restore = threading.Event()
        real_realconfig = registry_mod.RealConfig

        class SlowRealConfig(real_realconfig):
            def __init__(self, *args, **kwargs):
                restore_started.set()
                assert release_restore.wait(timeout=30)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(registry_mod, "RealConfig", SlowRealConfig)
        runner = threading.Thread(target=service.run)
        runner.start()
        assert restore_started.wait(timeout=30)
        service.request_stop()  # the SIGTERM, mid-restore
        release_restore.set()
        runner.join(timeout=60)
        assert not runner.is_alive()
        # Exactly one batch was disposed (the one in flight when the
        # stop arrived), and its tenant's checkpoint cursor says so.
        from repro.resilience.checkpoint import read_checkpoint_extras

        disposed = {
            state.tenant_id: state.stats.batches_seen
            for state in service.registry.states()
        }
        assert sum(disposed.values()) == 1
        for state in service.registry.states():
            if state.config.checkpoint_file.exists():
                extras = read_checkpoint_extras(state.config.checkpoint_file)
                assert extras["serve"]["cursor"] == disposed[state.tenant_id]
        # Restart without the slow restore: the fleet finishes exactly.
        monkeypatch.setattr(registry_mod, "RealConfig", real_realconfig)
        service2 = make_service(root)
        second = service2.run()
        for tid, total in expected.items():
            assert disposed[tid] + second[tid].batches_seen == total


class TestIntrospection:
    def test_tenants_endpoint_serves_fleet_state(
        self, make_fleet, make_service
    ):
        import urllib.request

        root = make_fleet(count=2, total_batches=4)
        service = make_service(root, obs_port=0)
        url = service.obs_server.url
        try:
            with urllib.request.urlopen(url + "/tenants") as response:
                payload = json.loads(response.read())
            assert payload["registered"] == 2
            assert [t["tenant"] for t in payload["tenants"]] == [
                "t000",
                "t001",
            ]
            assert payload["memory"]["budget_bytes"] == 0
        finally:
            service.run()  # drains and stops the obs server

    def test_single_tenant_daemon_answers_404_on_tenants(self, tmp_path):
        import urllib.error
        import urllib.request

        from repro.obs import IntrospectionServer, ObsState

        state = ObsState(
            health=lambda: {}, stats=lambda: {}, events_since=lambda s: []
        )
        server = IntrospectionServer(state, port=0).start()
        try:
            try:
                urllib.request.urlopen(server.url + "/tenants")
                raise AssertionError("expected HTTP 404")
            except urllib.error.HTTPError as error:
                assert error.code == 404
        finally:
            server.stop()

    def test_health_and_summary_aggregate_fleet(
        self, make_fleet, make_service
    ):
        root = make_fleet(count=2, total_batches=6)
        poison_stream(root / "t001")
        health_file = root / "health.json"
        service = make_service(root, health_file=health_file)
        service.run()
        health = json.loads(health_file.read_text())
        assert health["status"] == "stopped"
        assert health["mode"] == "multi-tenant"
        assert health["tenants"] == 2
        assert health["quarantined"] == 1
        assert health["degraded"] == 1
        assert "1 degraded" in service.summary()
