"""Serving throughput — what the fault-tolerance machinery costs.

The serving loop wraps each batch in a deadline, a retry policy, breaker
bookkeeping, telemetry spans, and (optionally) periodic checkpoints and
health writes.  This bench streams the same flap workload through a bare
verifier loop and through :class:`~repro.serve.daemon.ServeDaemon` with
robustness features off and on, reporting batches/sec and per-batch
p50/p99 latency — the number the "Serving & fault tolerance" docs section
quotes when it claims the daemon's overhead is noise next to verification
itself.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.conftest import NUM_CHANGES, record_row
from ledger.stats import percentile
from repro.core.realconfig import RealConfig
from repro.serve import DeadLetterBox, ServeDaemon, ServeOptions
from repro.serve.stream import ChangeBatch, encode_batch
from repro.workloads import ospf_snapshot, stream_batches

#: Batches per configuration (flap pairs keep the stream applicable).
NUM_BATCHES = max(10, NUM_CHANGES * 4)


def _stream(labeled):
    batches = stream_batches(labeled, count=NUM_BATCHES, seed=11)
    return [
        ChangeBatch(
            batch_id=f"{index:06d}",
            changes=changes,
            payload=encode_batch(f"{index:06d}", changes),
        )
        for index, changes in enumerate(batches)
    ]


def _run_daemon(snapshot, batches, options, tmp_path, tag):
    latencies = []
    clock = time.perf_counter

    def sample(daemon, batch, ok):
        latencies.append(clock() - sample.started)

    def stamp(daemon=None, batch=None, ok=None):
        sample.started = clock()

    daemon = ServeDaemon(
        RealConfig(snapshot),
        iter(batches),
        DeadLetterBox(tmp_path / f"dl-{tag}"),
        options,
        sleep=lambda seconds: None,
        on_batch_done=sample,
    )
    # Time the whole run for throughput; per-batch latency is measured
    # from each batch's pop to its completion callback.
    original_process = daemon._process_batch

    def timed_process(batch):
        stamp()
        return original_process(batch)

    daemon._process_batch = timed_process
    started = clock()
    stats = daemon.run()
    elapsed = clock() - started
    assert stats.batches_ok == len(batches)
    return elapsed, latencies


def test_serve_throughput(fattree, tmp_path):
    snapshot = ospf_snapshot(fattree)
    batches = _stream(fattree)

    # Baseline: the verifier loop with no serving machinery at all.
    bare = RealConfig(snapshot)
    bare_latencies = []
    started = time.perf_counter()
    for batch in batches:
        t0 = time.perf_counter()
        bare.apply_changes(batch.changes)
        bare_latencies.append(time.perf_counter() - t0)
    bare_elapsed = time.perf_counter() - started

    plain = ServeOptions(
        max_retries=0, breaker_threshold=0, backoff_base=0.0
    )
    robust = ServeOptions(
        deadline_seconds=30.0,
        max_retries=2,
        breaker_threshold=3,
        backoff_base=0.0,
        audit_every=0,
        checkpoint_every=NUM_BATCHES // 2,
        checkpoint_file=tmp_path / "serve.ckpt",
        health_file=tmp_path / "health.json",
    )
    plain_elapsed, plain_latencies = _run_daemon(
        snapshot, batches, plain, tmp_path, "plain"
    )
    robust_elapsed, robust_latencies = _run_daemon(
        snapshot, batches, robust, tmp_path, "robust"
    )

    for tag, elapsed, latencies in (
        ("bare verifier loop", bare_elapsed, bare_latencies),
        ("daemon, robustness off", plain_elapsed, plain_latencies),
        ("daemon, robustness on", robust_elapsed, robust_latencies),
    ):
        # p99 is None unless >= 10 samples lie beyond it (ledger/stats.py).
        p99 = percentile(latencies, 0.99)
        p99_text = "n/a" if p99 is None else f"{p99 * 1000:7.2f}ms"
        record_row(
            "Serving throughput (flap stream)",
            f"{tag:24s} | {len(batches) / elapsed:8.1f} batches/s | "
            f"p50 {statistics.median(latencies) * 1000:7.2f}ms | "
            f"p99 {p99_text} (n={len(latencies)})",
        )

    # The serving wrapper (queue + spans + breaker bookkeeping) must not
    # dominate verification; health/checkpoint writes are bounded I/O.
    assert plain_elapsed < bare_elapsed * 3 + 1.0
    assert robust_elapsed < bare_elapsed * 5 + 2.0
