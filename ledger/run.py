#!/usr/bin/env python3
"""The RealConfig performance ledger: one harness, one schema.

Two ways to run it, one measurement underneath:

``python3 ledger/run.py [--seed N] [--workload NAME] [--out FILE]``
    The ledger run.  Every workload runs twice, each time in a fresh
    subprocess, sequentially — once untraced for the end-to-end metrics
    (a fixed number of timed operations, 120 or more) and once traced for
    the per-layer metrics — and one record per workload is printed and
    written.  This is the run a performance claim cites.

``python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One measured run of one workload in this process, the form
    ``BENCHMARK.json`` names and the driver gates on: a shorter stream
    (:attr:`Workload.gated_ops`), the same phases and checks.  Its last
    line of output is one JSON object: ``correct``, ``attempted``,
    ``failed``, ``metrics``.

Closed loop, one client, one process, no threads.  The change stream comes
from the ``repro.workloads`` generators and depends only on ``--seed``;
the program under test sees only the generated ``Change`` objects (or the
JSONL stream file).  Every run checks its final state against from-scratch
oracles and counts the operations that failed.

Phases, identical for every workload:

A. *set-up*: topology, snapshot, policies, verifier, warm-up operations;
B. *timed stream*: each operation timed around the one public call the
   caller makes;
C. *epilogue* on the final state: checkpoint writes, restores, from-scratch
   constructions, then the oracle.

An untraced run goes through them three times (:data:`ROUNDS`), each round
with a fresh verifier and the next third of the stream, and pools the
rounds' samples, so that every metric is a median of samples spread over
the whole run: the host this was built on slows by 40-80 % for some ten
seconds every minute or two, and a median survives that only when fewer
than half of its samples are inside the slow spell.

A traced run (``--trace 1``) is one round with :mod:`tracing` installed
and every do/undo pair of the stream executed twice, one execution traced
and one not; its numbers feed only the per-layer metrics, and the ratio of
each traced operation to its untraced twin is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(
        f"{ROOT / 'src' / 'repro'} not found: the ledger measures the "
        "repro package of the checkout it sits in"
    )
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.baseline import simulate  # noqa: E402
from repro.config.changes import Change, CompositeChange  # noqa: E402
from repro.core.realconfig import RealConfig  # noqa: E402
from repro.net.headerspace import HeaderBox  # noqa: E402
from repro.net.topologies import LabeledTopology, fat_tree  # noqa: E402
from repro.policy.spec import (  # noqa: E402
    BlackholeFree,
    LoopFree,
    Policy,
    Reachability,
)
from repro.resilience.audit import audit  # noqa: E402
from repro.serve import DeadLetterBox, ServeDaemon, ServeOptions  # noqa: E402
from repro.serve.stream import (  # noqa: E402
    fib_fingerprint,
    read_stream,
    write_stream,
)
from repro.workloads import (  # noqa: E402
    acl_changes,
    snapshot_for,
    stream_batches,
)

import stats  # noqa: E402
from tracing import OP, Tracer, interleave, interleaved, summarize  # noqa: E402

OUT = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"

#: Untimed operations at the end of set-up (two flap pairs).
WARMUP_OPS = 4
#: Traced operations of a ledger run.
TRACED_OPS = 40
#: ``--quick``: fat-tree arity and operations — a smoke test, never a claim.
QUICK_K = 4
QUICK_OPS = 12
#: Rounds of an untraced run.
ROUNDS = 3


class Reps(NamedTuple):
    """Repetitions, in one round, of the epilogue's measurements."""

    writes: int
    restores: int
    builds: int
    #: Each measurement goes on for at least this long.
    fill_seconds: float


E2E_REPS = Reps(writes=2, restores=1, builds=1, fill_seconds=0.5)
#: A traced run needs each figure once, for the ratios and the oracle.
TRACED_REPS = Reps(1, 1, 1, 0.0)
#: ACL composites per operation of ``acl-batch-k6``.
ACL_BATCH = 4
#: The tail BENCHMARK.json gates on: the highest round percentile that the
#: shortest gated stream (42 operations) supports with ten samples beyond.
TAIL = 0.75
#: What an untraced run records beyond BENCHMARK.json's end-to-end metrics.
#: The three correctness figures are not there because its metrics may
#: never be 0 (``fail_share`` and ``oracle_mismatches`` are the ``failed``
#: and ``correct`` fields of a run's result line); ``change_p90_ms`` is not
#: because only a ledger-sized stream supports it — elsewhere it is null.
LEDGER_ONLY_UNITS = {
    "change_p90_ms": "ms",
    "fail_share": "ratio",
    "unreported_flip_share": "ratio",
    "oracle_mismatches": "count",
}


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    protocol: str
    #: ``flap``: one change per op from ``stream_batches``; ``acl``: four
    #: ``acl_changes`` composites per op, alternating with their inverse;
    #: ``serve``: the flap stream through ``ServeDaemon.run()``.
    driver: str
    #: Timed operations of a ledger run, all rounds together; a claim
    #: needs at least 110.
    ops: int
    #: Timed operations of a gated run (the BENCHMARK.json command): what
    #: the driver's 92 runs in 3420 s leave room for, and at least the 40
    #: that :data:`TAIL` needs.  A fixed amount of work, not a stopwatch,
    #: because an operation's cost grows with the number of epochs before
    #: it (the captured histories grow): a run that fitted more operations
    #: into a time box would report a different verifier, not a different
    #: speed.  Both counts split into :data:`ROUNDS` rounds of whole
    #: do/undo pairs.
    gated_ops: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ospf-flap-k6", 6, "ospf", "flap", 120, 42),
        Workload("bgp-lp-k8", 8, "bgp", "flap", 120, 42),
        Workload("acl-batch-k6", 6, "ospf", "acl", 120, 42),
        Workload("serve-durable-k6", 6, "bgp", "serve", 150, 96),
    )
}


# -- phase A: set-up ------------------------------------------------------------


def policies_for(labeled: LabeledTopology) -> List[Policy]:
    """Loop-free, blackhole-free, and one reachability per host prefix to
    the prefix half a ring away."""
    policies: List[Policy] = [
        LoopFree("loop-free"),
        BlackholeFree("blackhole-free"),
    ]
    endpoints = sorted(labeled.host_prefixes)
    for index, src in enumerate(endpoints):
        dst = endpoints[(index + len(endpoints) // 2) % len(endpoints)]
        if src != dst:
            policies.append(
                Reachability(
                    f"reach-{src}-{dst}",
                    src=src,
                    dst=dst,
                    match=HeaderBox.from_dst_prefix(
                        labeled.host_prefixes[dst][0]
                    ),
                )
            )
    return policies


def acl_operations(
    labeled: LabeledTopology, snapshot, seed: int, count: int
) -> List[List[Change]]:
    """``count`` operations: install+bind four deny-ACLs, then undo them,
    cycling through the generator's interfaces.  The inverse is computed
    here, on the generator's side, against the base snapshot every pair
    returns to."""
    composites = acl_changes(labeled, seed=seed)
    pairs = []
    for start in range(0, len(composites) - ACL_BATCH + 1, ACL_BATCH):
        batch: List[Change] = list(composites[start : start + ACL_BATCH])
        pairs.append((batch, list(CompositeChange(batch).invert(snapshot).changes)))
    operations: List[List[Change]] = []
    while len(operations) < count:
        do, undo = pairs[(len(operations) // 2) % len(pairs)]
        operations += [do, undo]
    return operations[:count]


@dataclass
class Bench:
    """What phase A hands to the stream."""

    workload: Workload
    verifier: RealConfig
    #: Every operation of the run, warm-up first; all are do/undo pairs,
    #: so the network is back at the base snapshot after any even count.
    operations: List[List[Change]]
    #: Index of the first operation this verifier's stream times: an even
    #: number past the warm-up, so it starts from the base snapshot.
    start: int
    #: Constructor arguments of a from-scratch verifier for the oracle.
    endpoints: List[str]
    policies: List[Policy]
    options: Dict[str, Any]
    #: ``serve`` only: the JSONL file holding ``operations``.
    stream_file: Optional[Path] = None


def set_up(
    workload: Workload, seed: int, quick: bool, count: int, scratch: Path,
    start: int = WARMUP_OPS, traced: bool = False,
) -> Bench:
    """Phase A.  ``count`` operations are generated, warm-up included; a
    traced run executes every pair after the warm-up twice (see
    :func:`tracing.interleave`)."""
    labeled = fat_tree(QUICK_K if quick else workload.k)
    snapshot = snapshot_for(labeled, workload.protocol)
    endpoints = sorted(labeled.host_prefixes)
    policies = policies_for(labeled)
    # Defaults everywhere — what a caller gets without setting a knob.
    options = {"lint_mode": "warn"} if workload.driver == "serve" else {}
    verifier = RealConfig(
        snapshot, endpoints=endpoints, policies=policies, **options
    )
    stream_file = None
    if workload.driver == "acl":
        operations = acl_operations(labeled, snapshot, seed, count)
    else:
        operations = stream_batches(
            labeled, protocol=workload.protocol, count=count, seed=seed
        )
    if traced:
        operations[WARMUP_OPS:] = interleave(operations[WARMUP_OPS:])
    if workload.driver == "serve":
        stream_file = scratch / "stream.jsonl"
        write_stream(operations, stream_file)
    for batch in operations[:WARMUP_OPS]:
        verifier.apply_changes(batch)
    return Bench(
        workload, verifier, operations, start, endpoints, policies, options,
        stream_file,
    )


# -- phase B: the timed stream ------------------------------------------------


@dataclass
class Stream:
    """What phase B measured."""

    #: Caller wall seconds of each operation attempted.
    samples: List[float]
    failed: int
    wall: float
    #: Operations whose delta left out a verdict change or reported one
    #: wrongly (the serving daemon hands its caller no deltas: always 0
    #: there).
    misreporting_ops: int = 0
    #: ``serve`` only: the daemon's counters and its journal file.
    retries: int = 0
    quarantined: int = 0
    journal_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples)


def _verdicts(verifier: RealConfig) -> Dict[str, bool]:
    return {s.policy.name: s.holds for s in verifier.policy_statuses()}


def _unreported_flips(
    before: Dict[str, bool], after: Dict[str, bool], delta
) -> int:
    """Policies whose verdict moved across one operation otherwise than
    its delta says.  Counted apart from ``failed``, which must be 0 on
    every workload at the commit that defines a benchmark, and this is
    not: undoing an ACL merges away the EC that carried a blackhole, and
    ``IncrementalChecker`` then re-evaluates no invariant, so
    ``blackhole-free`` flips back with no ``newly_satisfied`` entry."""
    reported = {s.policy.name: False for s in delta.newly_violated}
    reported.update((s.policy.name, True) for s in delta.newly_satisfied)
    moved = {name: holds for name, holds in after.items() if before[name] != holds}
    return sum(
        moved.get(name) != reported.get(name) for name in set(moved) | set(reported)
    )


def drive_apply(bench: Bench, ops: int, tracer: Optional[Tracer]) -> Stream:
    """The caller's one public call per operation is ``apply_changes``."""
    verifier = bench.verifier
    verdicts = _verdicts(verifier)
    samples: List[float] = []
    failed = misreporting = 0
    started = time.perf_counter()
    for done, batch in enumerate(bench.operations[bench.start : bench.start + ops]):
        op_started = time.perf_counter()
        if tracer is not None:
            tracer.begin_op(done)
        try:
            delta = verifier.apply_changes(batch)
        except Exception:  # noqa: BLE001 - a failed operation is a result
            traceback.print_exc()
            failed += 1
            delta = None
        finally:
            if tracer is not None:
                tracer.end_op()
        samples.append(time.perf_counter() - op_started)
        if delta is not None:
            before, verdicts = verdicts, _verdicts(verifier)
            misreporting += _unreported_flips(before, verdicts, delta) > 0
    wall = time.perf_counter() - started
    return Stream(samples, failed, wall, misreporting)


def drive_serve(
    bench: Bench, ops: int, tracer: Optional[Tracer], scratch: Path
) -> Stream:
    """The caller's one public call is ``ServeDaemon.run()``; an operation
    is one batch, from the completion of the previous batch (the start of
    ``run()`` for the first) to its own ``on_batch_done``."""
    samples: List[float] = []
    not_ok: List[str] = []
    mark = [0.0, 0.0]  # stream start, current operation's start

    def batch_done(daemon: ServeDaemon, batch, ok: bool) -> None:
        if tracer is not None:
            tracer.end_op()
        now = time.perf_counter()
        samples.append(now - mark[1])
        mark[1] = now
        if not ok:
            not_ok.append(batch.batch_id)
        if len(samples) == ops:
            daemon.request_stop()
        elif tracer is not None:
            tracer.begin_op(len(samples))

    journal = scratch / "journal.jsonl"
    daemon = ServeDaemon(
        bench.verifier,
        read_stream(bench.stream_file),
        DeadLetterBox(scratch / "deadletter"),
        ServeOptions(
            journal_file=journal,
            health_file=scratch / "health.json",
            checkpoint_file=scratch / "serve.ckpt",
            checkpoint_every=5,
        ),
        resume_cursor=bench.start,
        on_batch_done=batch_done,
    )
    mark[0] = mark[1] = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(0)
    served = daemon.run()
    wall = mark[1] - mark[0]
    bench.verifier = daemon.verifier
    failed = max(len(not_ok), served.quarantined, len(daemon.dead_letter.batch_ids()))
    return Stream(
        samples,
        failed,
        wall,
        retries=served.retries,
        quarantined=served.quarantined,
        journal_bytes=journal.stat().st_size,
    )


def drive(
    bench: Bench, ops: int, tracer: Optional[Tracer], scratch: Path
) -> Stream:
    if bench.workload.driver == "serve":
        return drive_serve(bench, ops, tracer, scratch)
    return drive_apply(bench, ops, tracer)


# -- phase C: epilogue and oracle ----------------------------------------------


def oracle(
    verifier: RealConfig,
    reference_fib,
    fresh: RealConfig,
    restored: RealConfig,
    full_audit: bool,
) -> List[str]:
    """Every way the maintained state differs from a from-scratch one."""
    mismatches: List[str] = []
    live_fib = set(verifier.generator.control_plane.fib())
    mismatches += [f"fib: missing {e}" for e in sorted(reference_fib - live_fib)]
    mismatches += [f"fib: extra {e}" for e in sorted(live_fib - reference_fib)]
    fingerprint = fib_fingerprint(verifier)
    if fingerprint != fib_fingerprint(fresh):
        mismatches.append("fingerprint: maintained != from-scratch verifier")
    if fingerprint != fib_fingerprint(restored):
        mismatches.append("fingerprint: maintained != restored checkpoint")
    expected, actual = _verdicts(fresh), _verdicts(verifier)
    for name in sorted(set(expected) | set(actual)):
        if expected.get(name) != actual.get(name):
            mismatches.append(
                f"policy {name}: from-scratch {expected.get(name)}, "
                f"maintained {actual.get(name)}"
            )
    if full_audit:
        report = audit(verifier)
        mismatches += [
            f"audit: {entry}"
            for entry in report.fib_missing
            + report.fib_extra
            + report.port_drift
            + report.policy_drift
        ]
    return mismatches


def timed(call: Callable[[], Any]) -> Tuple[float, Any]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def repeat(
    call: Callable[[], Any], reps: int, fill_seconds: float
) -> Tuple[List[float], Any]:
    """Wall seconds of ``reps`` calls, and the last result.  A call too
    short for ``reps`` of them to fill ``fill_seconds`` is repeated until
    they do (three times ``reps`` at most), so that cheap workloads are
    measured as steadily as expensive ones.  Every call starts from a
    collected heap with the previous result gone: only one result is ever
    live, none is timed freeing its predecessor, and all start equally far
    from the collector's next full pass."""
    walls: List[float] = []
    result = None
    while len(walls) < reps or (
        sum(walls) < fill_seconds and len(walls) < 3 * reps
    ):
        result = None
        gc.collect()
        wall, result = timed(call)
        walls.append(wall)
    return walls, result


def epilogue(
    bench: Bench,
    stream: Stream,
    reps: Reps,
    scratch: Path,
    full_audit: bool,
) -> Dict[str, Any]:
    """Phase C.  ``write_s``, ``restore_s`` and ``build_s`` are the wall
    seconds of every repetition."""
    verifier = bench.verifier
    # One more untimed operation, so that what is checkpointed, restored,
    # rebuilt and checked is a perturbed network, not the base snapshot.
    verifier.apply_changes(bench.operations[bench.start + stream.attempted])
    path = scratch / "epilogue.ckpt"
    fill = reps.fill_seconds
    write_s, _ = repeat(lambda: verifier.checkpoint(path), reps.writes, fill)
    restore_s, restored = repeat(
        lambda: RealConfig.restore(path), reps.restores, fill
    )
    build_s, built = repeat(
        lambda: RealConfig(
            verifier.snapshot,
            endpoints=bench.endpoints,
            policies=bench.policies,
            **bench.options,
        ),
        reps.builds,
        fill,
    )
    simulate_s, reference = timed(lambda: simulate(verifier.snapshot))
    return {
        "write_s": write_s,
        "checkpoint_bytes": path.stat().st_size,
        "restore_s": restore_s,
        "build_s": build_s,
        "simulate_s": simulate_s,
        "mismatches": oracle(
            verifier, set(reference.fib), built, restored, full_audit
        ),
    }


# -- one measured run -------------------------------------------------------------


def host_calibration_ms() -> float:
    """A fixed pure-Python loop: how fast this host is right now.  It
    allocates and walks containers, as the verifier does, because a busy
    neighbour slows memory long before it slows arithmetic.  The collector
    is off while it runs: with it on, the loop's allocations trigger
    collections that walk whatever heap the run has built (70 ms after a
    k=6 stream against 20 ms before it), which measures the process, not
    the host."""
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            started = time.perf_counter()
            table = {i: [i, str(i)] for i in range(100_000)}
            sum(len(row) for row in table.values())
            del table
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best * 1000


def end_to_end_run(
    workload: Workload, seed: int, quick: bool, ops: int,
    full_audit: bool, scratch: Path,
) -> Dict[str, Any]:
    """:data:`ROUNDS` rounds of set-up, ``ops / ROUNDS`` timed operations
    and epilogue, each on a fresh verifier; every metric pools the rounds."""
    count = WARMUP_OPS + ops + 1
    per_round = ops // ROUNDS
    setup_s: List[float] = []
    streams: List[Stream] = []
    ends: List[Dict[str, Any]] = []
    calibration: List[float] = []
    for done in range(ROUNDS):
        round_dir = scratch / f"round{done}"
        round_dir.mkdir()
        # The previous round's verifier goes before the next is built.
        bench = None
        gc.collect()
        wall, bench = timed(
            lambda: set_up(
                workload, seed, quick, count, round_dir,
                start=WARMUP_OPS + done * per_round,
            )
        )
        setup_s.append(wall)
        gc.collect()
        streams.append(drive(bench, per_round, None, round_dir))
        ends.append(epilogue(bench, streams[-1], E2E_REPS, round_dir, full_audit))
        shutil.rmtree(round_dir)
        calibration.append(host_calibration_ms())
    millis = [s * 1000 for stream in streams for s in stream.samples]
    failed = sum(stream.failed for stream in streams)
    misreporting = sum(stream.misreporting_ops for stream in streams)
    mismatches = [
        f"round {done}: {line}"
        for done, end in enumerate(ends)
        for line in end["mismatches"]
    ]

    def pooled(key: str) -> float:
        return stats.median([wall for end in ends for wall in end[key]])

    return {
        "attempted": len(millis),
        "failed": failed,
        "misreporting_ops": misreporting,
        "mismatches": mismatches,
        "calibration_ms": calibration,
        "metrics": {
            "setup_s": stats.median(setup_s),
            "change_p50_ms": stats.median(millis),
            "change_p75_ms": stats.percentile(millis, TAIL),
            "change_p90_ms": stats.percentile(millis, 0.90),
            "changes_per_s": len(millis) / sum(stream.wall for stream in streams),
            "full_verify_s": pooled("build_s"),
            "checkpoint_write_ms": pooled("write_s") * 1000,
            "restore_ms": pooled("restore_s") * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_share": failed / len(millis),
            "unreported_flip_share": misreporting / len(millis),
            "oracle_mismatches": len(mismatches),
        },
    }


def layer_metrics(
    spans: List[List[Any]], stream: Stream, ec_count: int, end: Dict[str, Any]
) -> Dict[str, float]:
    per_op = summarize(spans)
    n = len(per_op)
    # Operation i (traced) and operation i - 2 or i + 2 (not) are the
    # same change applied to the same state.
    untraced = [s for i, s in enumerate(stream.samples) if not interleaved(i)]
    ratios = [
        stream.samples[i] / stream.samples[i ^ 2] for i in sorted(per_op)
    ]

    def self_ms(name: str) -> float:
        return 1000 * sum(op["self"].get(name, 0.0) for op in per_op.values()) / n

    def total(key: str) -> float:
        return sum(op["counts"].get(key, 0) for op in per_op.values())

    def count(key: str) -> float:
        return total(key) / n

    objects_total = count("lint.gate.objects_total")
    untraced_p50 = stats.median(untraced)
    op_wall = sum(sum(op["self"].values()) for op in per_op.values())
    (restore_s,), (full_s,) = end["restore_s"], end["build_s"]
    return {
        "config.diff_ms": self_ms("config.diff"),
        "config.diff_lines": count("config.diff.diff_lines"),
        "lint.gate_ms": self_ms("lint.gate"),
        "lint.scan_ratio": (
            count("lint.gate.objects_scanned") / objects_total if objects_total else 0.0
        ),
        "routing.generation_ms": self_ms("routing.generation"),
        "routing.rule_updates": count("routing.generation.rule_updates"),
        "ddlog.epoch_ms": self_ms("ddlog.epoch"),
        "ddlog.records": count("ddlog.epoch.records"),
        "ddlog.recompute_calls": count("ddlog.epoch.recompute_calls"),
        "ddlog.iterations": count("ddlog.epoch.iterations"),
        "dataplane.update_ms": self_ms("dataplane.update"),
        "dataplane.ec_moves": count("dataplane.update.ec_moves"),
        "dataplane.ec_splits": count("dataplane.update.ec_splits"),
        "dataplane.ec_count": ec_count,
        "policy.check_ms": self_ms("policy.check"),
        "policy.analysis_ms": 1000 * total("policy.check.analysis_seconds") / n,
        "policy.affected_ecs": count("policy.check.affected_ecs"),
        "policy.policies_rechecked": count("policy.check.policies_rechecked"),
        "policy.unreported_flips": stream.misreporting_ops / stream.attempted,
        "core.txn_capture_ms": self_ms("core.txn_capture"),
        "core.unattributed_ms": self_ms("core.verify"),
        "core.stage_coverage": total("core.verify.stage_seconds") / op_wall,
        "core.incr_fraction": untraced_p50 / full_s,
        "resilience.checkpoint_bytes": end["checkpoint_bytes"],
        "resilience.restore_over_full": restore_s / full_s,
        "serve.checkpoint_ms": self_ms("serve.checkpoint"),
        "serve.shell_ms": self_ms(OP),
        "serve.retries": stream.retries,
        "serve.quarantined": stream.quarantined,
        "obs.journal_emit_ms": self_ms("obs.journal_emit"),
        "obs.events_per_batch": count("obs.journal_emit.calls"),
        "obs.journal_bytes": stream.journal_bytes / stream.attempted,
        "baseline.simulate_s": end["simulate_s"],
        "bench.trace_overhead_pct": 100 * (stats.median(ratios) - 1),
    }


def traced_run(
    workload: Workload, seed: int, quick: bool, ops: int, scratch: Path
) -> Dict[str, Any]:
    """One stream in which every do/undo pair runs twice, once traced and
    once not; ``ops`` counts the traced half."""
    executed = 2 * ops
    count = WARMUP_OPS + ops + 2
    bench = set_up(workload, seed, quick, count, scratch, traced=True)
    tracer = Tracer(traces=interleaved)
    gc.collect()
    tracer.install()
    try:
        stream = drive(bench, executed, tracer, scratch)
    finally:
        tracer.uninstall()
    ec_count = bench.verifier.model.num_ecs()
    end = epilogue(bench, stream, TRACED_REPS, scratch, False)
    tracer.write(
        OUT / f"{workload.name}.trace.json", workload=workload.name, seed=seed
    )
    return {
        "attempted": stream.attempted,
        "failed": stream.failed,
        "misreporting_ops": stream.misreporting_ops,
        "mismatches": end["mismatches"],
        "calibration_ms": [host_calibration_ms()],
        "traced_ops": stream.attempted // 2,
        "metrics": layer_metrics(tracer.spans, stream, ec_count, end),
    }


def measure(args: argparse.Namespace) -> int:
    """One run of one workload in this process (the BENCHMARK.json form)."""
    workload = WORKLOADS[args.workload]
    manifest = json.loads(MANIFEST.read_text())
    if args.seconds not in (None, manifest["run_seconds"]):
        # A run is a fixed amount of work sized for run_seconds.
        raise SystemExit(
            f"--seconds {args.seconds:g}: a run is sized for the "
            f"{manifest['run_seconds']} of BENCHMARK.json's run_seconds"
        )
    if args.quick:
        ops = QUICK_OPS
    elif args.full:
        ops = TRACED_OPS if args.trace else workload.ops
    elif args.trace:
        # As many executions as the untraced gated run times, in whole
        # blocks of four (a do/undo pair traced and its untraced twin).
        ops = workload.gated_ops // 4 * 2
    else:
        ops = workload.gated_ops
    units = dict(LEDGER_ONLY_UNITS)
    for section in ("end_to_end", "per_layer"):
        units.update((m["name"], m["unit"]) for m in manifest[section])
    reported = manifest["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}.", dir=OUT))
    calibration = [host_calibration_ms()]
    try:
        if args.trace:
            result = traced_run(workload, args.seed, args.quick, ops, scratch)
        else:
            result = end_to_end_run(
                workload, args.seed, args.quick, ops, args.full, scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # Before the run and after every round: one slow spell of the host
    # then moves one sample in four, not the figure.
    calibration += result.pop("calibration_ms")
    result["metrics"]["bench.host_calib_ms"] = stats.median(calibration)
    result.update(workload=workload.name, seed=args.seed, trace=args.trace)
    (OUT / f"{workload.name}.trace{args.trace}.result.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    for line in result["mismatches"]:
        print(f"MISMATCH {line}", file=sys.stderr)
    if result["misreporting_ops"]:
        print(
            f"DEFECT {workload.name}: {result['misreporting_ops']} of "
            f"{result['attempted']} operations returned a delta that "
            "misreports a verdict flip",
            file=sys.stderr,
        )
    for name, value in result["metrics"].items():
        # A percentile the stream is too short for is null, never a
        # weaker statistic under the same name.
        shown = "null".rjust(14) if value is None else f"{value:14.4f}"
        print(f"{workload.name:18s} {name:28s} {shown} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not result["mismatches"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {
                        "value": result["metrics"][m["name"]],
                        "unit": m["unit"],
                    }
                    for m in reported
                },
            }
        )
    )
    return 0


# -- the ledger run ---------------------------------------------------------------


def git_commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def ledger(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    names = [args.workload] if args.workload else list(WORKLOADS)
    run: Dict[str, Any] = {
        "commit": git_commit(),
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "quick": args.quick,
        "workloads": {},
    }
    ok = True
    for name in names:
        record: Dict[str, Any] = {"metrics": {}, "samples": {}, "mismatches": []}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace), "--quick" if args.quick else "--full",
            ]
            worker = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(worker.stdout)
            if worker.returncode != 0:
                print(f"{name}: run failed with code {worker.returncode}", file=sys.stderr)
                return 1
            result = json.loads(
                (OUT / f"{name}.trace{trace}.result.json").read_text()
            )
            calib = result["metrics"].pop("bench.host_calib_ms")
            if trace:
                result["metrics"]["bench.host_calib_ms"] = calib
                record["samples"]["traced_ops"] = result["traced_ops"]
            else:
                record["host_calib_ms"] = calib
                record["samples"]["ops"] = result["attempted"]
            record["metrics"].update(result["metrics"])
            record["mismatches"] += result["mismatches"]
            ok &= not result["mismatches"] and not result["failed"]
        run["workloads"][name] = record
    run["wall_s"] = time.perf_counter() - started
    line = json.dumps(run, sort_keys=True)
    if args.out:
        Path(args.out).write_text(line + "\n")
    if args.append_history:
        with (HERE / "history.jsonl").open("a") as history:
            history.write(line + "\n")
    print(f"ledger: {len(names)} workload(s) in {run['wall_s']:.1f} s, "
          f"{'all verdicts match the oracle' if ok else 'FAILURES (see above)'}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--out", help="ledger run: write the run's record here")
    parser.add_argument(
        "--append-history", action="store_true",
        help="ledger run: append the run's record to ledger/history.jsonl",
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument(
        "--quick", action="store_true",
        help=f"fat-tree k={QUICK_K}, {QUICK_OPS} operations: a smoke test, "
        "never valid for a claim",
    )
    size.add_argument(
        "--full", action="store_true",
        help="with --trace: the ledger run's stream length and, with "
        "--trace 0, repro.resilience.audit in the oracle (the ledger run "
        "passes this to its subprocesses)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="measure one workload in this process: 0 prints the "
        "end-to-end metrics, 1 the per-layer metrics",
    )
    parser.add_argument(
        "--seconds", type=float,
        help="with --trace: BENCHMARK.json's run_seconds, which the gated "
        "stream lengths are sized for; any other value is refused",
    )
    args = parser.parse_args(argv)
    if args.trace is None:
        return ledger(args)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
