"""The acceptance property for multi-tenant robustness: blast-radius
containment.  Poisoning one tenant's stream AND crash-restarting the
service while that tenant is being served must leave every *other*
tenant's final FIB fingerprint byte-identical to a fault-free run."""

from __future__ import annotations

from repro.resilience.checkpoint import read_checkpoint
from repro.serve.engine import ServeOptions
from repro.serve.stream import fib_fingerprint
from repro.tenants import TenantService, TenantServiceOptions, discover_tenants
from repro.workloads.tenants import build_fleet, poison_stream

TENANTS = 100
TOTAL_BATCHES = 160
SEED = 2020
VICTIM = "t000"  # the zipf head: plenty of batches around the crash


def make_service(root, **overrides):
    options = TenantServiceOptions(
        serve=ServeOptions(
            breaker_threshold=0, backoff_base=0.0, poll_interval=0.01
        ),
        **overrides,
    )
    return TenantService(root, options)


def fleet_fingerprints(root):
    """tenant id -> FIB fingerprint of the tenant's durable final state.
    After a drained run every tenant has been checkpointed at eviction,
    so the checkpoint *is* the tenant's end-of-stream truth."""
    prints = {}
    for config in discover_tenants(root):
        assert config.checkpoint_file.exists(), (
            f"{config.tenant_id} finished a drained run without a "
            "checkpoint"
        )
        prints[config.tenant_id] = fib_fingerprint(
            read_checkpoint(config.checkpoint_file)
        )
    return prints


def test_poison_and_crash_restart_contain_to_one_tenant(tmp_path):
    # Two byte-identical fleets from the same seed.
    clean_root = tmp_path / "clean"
    fault_root = tmp_path / "fault"
    for root in (clean_root, fault_root):
        build_fleet(
            root, TENANTS, total_batches=TOTAL_BATCHES, seed=SEED
        )

    # Arm 1: no faults, straight to drain.
    clean_stats = make_service(clean_root).run()
    clean_prints = fleet_fingerprints(clean_root)
    assert len(clean_prints) == TENANTS

    # Arm 2: poison the victim's stream, then crash the service while
    # the victim is mid-stream and restart it to finish the drain.
    poison_stream(fault_root / VICTIM)
    first = make_service(fault_root)

    def crash_after_victim_commits(event):
        if event.get("event") == "committed" and event.get("tenant") == VICTIM:
            first.request_stop()

    first.journal.subscribe(crash_after_victim_commits)
    first_stats = first.run()
    assert first_stats[VICTIM].batches_seen >= 1
    # The victim still had work pending when the service died.
    total_first = sum(s.batches_seen for s in first_stats.values())
    assert total_first < TOTAL_BATCHES

    second = make_service(fault_root)
    second_stats = second.run()
    fault_prints = fleet_fingerprints(fault_root)

    # The fault landed: the poison batch is quarantined, the victim is
    # the one and only degraded tenant.
    assert second_stats[VICTIM].quarantined == 1
    assert second.tenants_payload()["degraded"] == [VICTIM]

    # Containment: everyone else's final dataplane + verdicts are
    # byte-identical to the fault-free arm.
    mismatched = [
        tid
        for tid in clean_prints
        if tid != VICTIM and fault_prints[tid] != clean_prints[tid]
    ]
    assert mismatched == [], (
        f"fault leaked into {len(mismatched)} other tenant(s): "
        f"{mismatched[:5]}"
    )
    # And no tenant lost or repeated a batch across the crash-restart:
    # the two arms committed the same totals outside the victim.
    for tid, stats in clean_stats.items():
        if tid == VICTIM:
            continue
        served = (
            first_stats[tid].batches_seen + second_stats[tid].batches_seen
        )
        assert served == stats.batches_seen, tid
