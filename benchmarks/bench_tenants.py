"""Multi-tenant serving — throughput, tail latency, and blast radius.

Two rounds over a zipf-skewed fleet of 100+ tenants (tiny rings, so the
numbers isolate the tenancy machinery, not verification cost):

1. **sustained** — drain the whole fleet under a memory budget far below
   the fleet's total hydrated footprint, so the LRU constantly evicts and
   rehydrates (the p99 serve latency is dominated by checkpoint
   restores, which is exactly the tail multi-tenancy adds);
2. **fault round** — poison one tenant's stream and kill-and-restart the
   service mid-drain; the fleet must finish with exactly one degraded
   tenant and everyone else fully committed.

Results land in ``BENCH_tenants.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

from benchmarks.conftest import record_row
from ledger.stats import percentile
from repro.serve.engine import ServeOptions
from repro.tenants import (
    TenantRegistry,
    TenantService,
    TenantServiceOptions,
    discover_tenants,
)
from repro.workloads.tenants import build_fleet, poison_stream

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_tenants.json"

NUM_TENANTS = int(os.environ.get("REPRO_BENCH_TENANTS", "120"))
TOTAL_BATCHES = int(os.environ.get("REPRO_BENCH_TENANT_BATCHES", "360"))
ZIPF_EXPONENT = 1.1
SEED = 2020
#: Hydrated tenants the LRU budget roughly admits; far below the fleet.
BUDGET_TENANTS = int(os.environ.get("REPRO_BENCH_TENANT_BUDGET", "20"))
VICTIM = "t000"


def _per_tenant_footprint(root) -> int:
    registry = TenantRegistry(
        ServeOptions(breaker_threshold=0, backoff_base=0.0)
    )
    config = discover_tenants(root)[0]
    registry.register(config)
    registry.hydrate(config.tenant_id)
    footprint = registry.state(config.tenant_id).footprint
    registry.evict_all()
    return footprint


def _service(root, budget=0):
    return TenantService(
        root,
        TenantServiceOptions(
            serve=ServeOptions(
                breaker_threshold=0, backoff_base=0.0, poll_interval=0.01
            ),
            memory_budget_bytes=budget,
        ),
    )


def _timed_run(service):
    """Run the service, timing every _serve_one dispatch (hydration
    included — that is the tail the LRU budget creates)."""
    latencies = []
    inner = service._serve_one

    def timed(ready):
        started = time.perf_counter()
        inner(ready)
        latencies.append(time.perf_counter() - started)

    service._serve_one = timed
    started = time.perf_counter()
    stats = service.run()
    wall = time.perf_counter() - started
    return stats, wall, latencies


def test_tenant_fleet_throughput_and_blast_radius(tmp_path):
    # -- sustained round under eviction pressure -----------------------------
    root = tmp_path / "fleet"
    build_fleet(
        root,
        NUM_TENANTS,
        total_batches=TOTAL_BATCHES,
        exponent=ZIPF_EXPONENT,
        seed=SEED,
    )
    footprint = _per_tenant_footprint(root)
    budget = footprint * BUDGET_TENANTS
    service = _service(root, budget=budget)
    stats, wall, latencies = _timed_run(service)

    batches = sum(s.batches_seen for s in stats.values())
    hydrations = sum(s.hydrations for s in service.registry.states())
    evictions = sum(s.evictions for s in service.registry.states())
    assert batches >= TOTAL_BATCHES * 0.9
    assert all(s.quarantined == 0 for s in stats.values())
    # The budget really was binding: the fleet cannot fit, so the LRU
    # had to cycle tenants through their checkpoints.
    assert budget < footprint * NUM_TENANTS
    assert evictions > NUM_TENANTS - BUDGET_TENANTS
    p99 = percentile(latencies, 0.99)
    sustained = {
        "wall_seconds": wall,
        "batches": batches,
        "batches_per_second": batches / wall,
        "serve_samples": len(latencies),
        "serve_p50_ms": statistics.median(latencies) * 1e3,
        # None unless >= 10 samples lie beyond the p99 (ledger/stats.py).
        "serve_p99_ms": p99 * 1e3 if p99 is not None else None,
        "hydrations": hydrations,
        "evictions": evictions,
        "memory_budget_bytes": budget,
        "fleet_footprint_bytes_if_all_hydrated": footprint * NUM_TENANTS,
    }

    # -- fault round: poison + kill-one-tenant restart -----------------------
    fault_root = tmp_path / "fault-fleet"
    build_fleet(
        fault_root,
        NUM_TENANTS,
        total_batches=TOTAL_BATCHES,
        exponent=ZIPF_EXPONENT,
        seed=SEED,
    )
    poison_stream(fault_root / VICTIM)
    first = _service(fault_root, budget=budget)
    first.journal.subscribe(
        lambda e: first.request_stop()
        if e.get("event") == "committed" and e.get("tenant") == VICTIM
        else None
    )
    started = time.perf_counter()
    first_stats = first.run()
    second = _service(fault_root, budget=budget)
    second_stats = second.run()
    fault_wall = time.perf_counter() - started

    degraded = second.tenants_payload()["degraded"]
    assert degraded == [VICTIM]
    survivors_ok = sum(
        first_stats[tid].batches_ok + second_stats[tid].batches_ok
        for tid in first_stats
        if tid != VICTIM
    )
    fault_batches = sum(
        first_stats[tid].batches_seen + second_stats[tid].batches_seen
        for tid in first_stats
    )
    fault = {
        "wall_seconds": fault_wall,
        "batches": fault_batches,
        "batches_per_second": fault_batches / fault_wall,
        "degraded_tenants": degraded,
        "victim_quarantined": second_stats[VICTIM].quarantined,
        "survivor_batches_ok": survivors_ok,
    }

    payload = {
        "benchmark": "tenant-fleet",
        "tenants": NUM_TENANTS,
        "total_batches": TOTAL_BATCHES,
        "zipf_exponent": ZIPF_EXPONENT,
        "budget_tenants": BUDGET_TENANTS,
        "per_tenant_footprint_bytes": footprint,
        "sustained": sustained,
        "fault_round": fault,
        "note": (
            "tiny per-tenant rings isolate tenancy overhead (scheduling, "
            "LRU checkpoint churn) from verification cost; serve latency "
            "includes rehydration when the tenant was evicted"
        ),
    }
    OUTPUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    p99_text = "n/a" if p99 is None else f"{p99 * 1e3:.1f} ms"
    record_row(
        "multi-tenant serving (bench_tenants.py)",
        f"{NUM_TENANTS} tenants, budget {BUDGET_TENANTS}: "
        f"{sustained['batches_per_second']:.1f} batches/s, "
        f"p50 {sustained['serve_p50_ms']:.1f} ms, "
        f"p99 {p99_text} (n={len(latencies)}), "
        f"{evictions} evictions",
    )
    record_row(
        "multi-tenant serving (bench_tenants.py)",
        f"fault round: {fault['batches_per_second']:.1f} batches/s, "
        f"degraded={degraded}, survivors committed {survivors_ok}",
    )
    assert statistics.median(latencies) >= 0  # latencies were collected
