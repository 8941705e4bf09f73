"""The ``repro`` command line interface.

Subcommands (also available as ``python -m repro``):

- ``generate``  synthesize a topology + configuration snapshot on disk;
- ``show-fib``  compute and print the converged FIB of a snapshot;
- ``verify``    incrementally verify the change from one snapshot to
  another (loop- and blackhole-freedom plus optional all-pairs edge
  reachability), printing the paper-style delta report;
- ``trace``     dump the forwarding paths of a concrete packet;
- ``mine``      mine the fault-tolerance specification (which pairs stay
  reachable under every single link failure, and how many disjoint paths
  survive);
- ``diff``      show the configuration-line diff between two snapshots;
- ``lint``      run semantic static analysis over a snapshot (full, or
  scoped to the diff against a base snapshot), with text / JSON / SARIF
  output;
- ``profile``   replay a generated change workload through the verifier
  and print the per-stage latency breakdown with incremental-work ratios;
- ``checkpoint`` verify a snapshot and serialize the verifier's full state
  to a file; ``verify --resume-from FILE`` later resumes from it without
  re-converging the control plane;
- ``audit``     recompute the FIB / EC model / policy verdicts from
  scratch and diff them against a verifier's incremental state (built
  from a snapshot directory or restored from a checkpoint file); with
  ``--recover``, rebuild on drift and re-audit;
- ``serve``     long-lived change-stream daemon: verify a stream of
  change batches with per-batch deadlines, retry + backoff, poison-batch
  quarantine, a circuit breaker that degrades to full-rebuild mode, a
  health-file heartbeat, and graceful checkpointing shutdown;
- ``watch``     the polling alias of ``serve`` — pick up new batch files
  dropped into a directory;
- ``serve --tenants DIR`` serves a whole fleet: one verifier per tenant
  directory, with per-tenant fault isolation, weighted-fair scheduling,
  bounded per-tenant queues, and an LRU memory budget over hydrated
  models (cold tenants live as checkpoints);
- ``tenant``    fleet administration for ``serve --tenants``:
  ``add`` / ``evict`` / ``status`` / ``replay``;
- ``top``       compact dashboard of a running serve daemon, read from
  the live introspection server (``serve --obs-port``);
- ``tail``      replay / follow a serve daemon's event journal over the
  same introspection server (``--journal FILE --repair`` fixes a torn
  final line in place);
- ``chaos``     run the deterministic crash matrix: kill a serve
  workload at every instrumented durability boundary in turn and prove
  recovery (byte-identical FIB fingerprint, gapless journal seqs, no
  batch lost or applied twice);
- ``emit-stream`` generate a JSONL change-batch stream (the producer
  side of ``serve``).

Global observability flags (before the subcommand):

- ``--trace FILE``    record spans and write Chrome trace-event JSON
  (loadable in Perfetto / ``chrome://tracing``);
- ``--metrics FILE``  record counters/histograms and write the Prometheus
  text exposition.

Exit-code contract (CI gates rely on it):

- ``0`` — clean: empty diff, no lint finding at/above the failure
  threshold, verification/trace/mine succeeded;
- ``1`` — finding: non-empty diff, lint diagnostics at/above ``--fail-on``,
  a newly violated policy, an undelivered packet, or a fragile pair;
- ``2`` — usage or input error (bad arguments, unparseable snapshot).

Example session::

    python -m repro generate --topology fat-tree:4 --protocol bgp --out base
    cp -r base changed && $EDITOR changed/configs/agg0_0.cfg
    python -m repro diff base changed
    python -m repro lint changed --base base --format text
    python -m repro verify base changed
    python -m repro trace changed --source edge0_0 --dst 172.16.7.5
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.config.diff import diff_snapshots
from repro.config.io import load_snapshot, save_snapshot
from repro.config.schema import ConfigError
from repro.core.realconfig import LintGateError, RealConfig
from repro.lint import LintRunner, Severity, Suppression
from repro.lint.output import FORMATTERS
from repro.net.addr import parse_ipv4
from repro.net.headerspace import HeaderBox, header
from repro.net.topologies import fat_tree, grid, line, random_connected, ring
from repro.policy.spec import BlackholeFree, LoopFree, Reachability
from repro.policy.trace import format_traces, trace_packet
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    atomic_write_text,
    chrome_trace,
    get_tracer,
    names,
    prometheus_text,
    set_metrics,
    set_tracer,
    summary_tree,
    tracing_enabled,
)
from repro.workloads import snapshot_for


class CliError(Exception):
    """User-facing CLI failure."""


def _build_topology(spec: str):
    """Parse 'fat-tree:4', 'ring:5', 'line:3', 'grid:3x4', 'random:8:3'."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "fat-tree":
            return fat_tree(int(rest))
        if kind == "ring":
            return ring(int(rest))
        if kind == "line":
            return line(int(rest))
        if kind == "grid":
            rows, _, cols = rest.partition("x")
            return grid(int(rows), int(cols))
        if kind == "random":
            n, _, extra = rest.partition(":")
            return random_connected(int(n), int(extra or 0), seed=0)
    except ValueError as error:
        raise CliError(f"bad topology spec {spec!r}: {error}") from error
    raise CliError(
        f"unknown topology kind {kind!r} "
        "(expected fat-tree:k, ring:n, line:n, grid:RxC, random:n[:extra])"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    labeled = _build_topology(args.topology)
    snapshot = snapshot_for(labeled, args.protocol)
    save_snapshot(snapshot, args.out)
    print(
        f"wrote {labeled.topology.num_nodes()} device configs "
        f"({args.protocol}) and topology to {args.out}/"
    )
    return 0


def cmd_show_fib(args: argparse.Namespace) -> int:
    snapshot = load_snapshot(args.snapshot)
    from repro.routing.program import ControlPlane

    control_plane = ControlPlane()
    control_plane.update_to(snapshot)
    entries = control_plane.fib()
    for entry in entries:
        if args.node is None or entry.node == args.node:
            print(entry)
    print(f"-- {len(entries)} entries total", file=sys.stderr)
    return 0


def _reachability_policies(snapshot) -> List[Reachability]:
    """All-pairs reachability between prefix-originating devices."""
    owners = {}
    for device in snapshot.iter_devices():
        prefixes = []
        if device.bgp is not None:
            prefixes.extend(device.bgp.networks)
        for iface in device.interfaces.values():
            if (
                iface.prefix is not None
                and iface.name.startswith("host")
                and iface.is_up()
            ):
                prefixes.append(iface.prefix)
        if prefixes:
            owners[device.hostname] = prefixes[0]
    policies = []
    for src in sorted(owners):
        for dst in sorted(owners):
            if src == dst:
                continue
            policies.append(
                Reachability(
                    f"reach:{src}->{dst}",
                    src=src,
                    dst=dst,
                    match=HeaderBox.from_dst_prefix(owners[dst]),
                )
            )
    return policies


def _pool_kwargs(args: argparse.Namespace) -> dict:
    """RealConfig kwargs for the global --workers/--parallel-backend flags."""
    return {
        "workers": args.workers or 1,
        "parallel_backend": args.parallel_backend or "auto",
    }


def _restore_resolved(args: argparse.Namespace, path: str):
    """Restore a checkpoint through the generation ring, applying any
    pool-flag overrides.  Returns the full
    :class:`~repro.resilience.checkpoint.RestoredCheckpoint` so callers
    can read the extras (stream cursor) from the *same* resolution that
    produced the verifier.  A fallback to an older generation is
    reported on stderr — the newest file was corrupt and the operator
    should know — but never fails the restore."""
    from repro.resilience.checkpoint import restore_checkpoint

    restored = restore_checkpoint(path)
    verifier = restored.verifier
    if args.workers is not None or args.parallel_backend is not None:
        verifier.set_workers(
            verifier._options.get("workers", 1)
            if args.workers is None
            else args.workers,
            args.parallel_backend,
        )
    if restored.fell_back:
        for skipped_path, error in restored.skipped:
            print(
                f"warning: skipped checkpoint generation "
                f"{skipped_path}: {error}",
                file=sys.stderr,
            )
        print(
            f"warning: fell back to checkpoint generation "
            f"{restored.generation} ({restored.path})",
            file=sys.stderr,
        )
    return restored


def _restore_verifier(args: argparse.Namespace, path: str) -> RealConfig:
    """Restore a checkpoint, applying any pool-flag overrides."""
    return _restore_resolved(args, path).verifier


def cmd_verify(args: argparse.Namespace) -> int:
    base = load_snapshot(args.base)
    changed = load_snapshot(args.changed)
    policies = [LoopFree("loop-free"), BlackholeFree("blackhole-free")]
    if args.all_pairs:
        policies.extend(_reachability_policies(base))
    if args.resume_from is not None:
        verifier = _restore_verifier(args, args.resume_from)
        print(
            f"resumed verifier from {args.resume_from}: "
            f"{verifier.initial.report.summary()}"
        )
    else:
        verifier = RealConfig(
            base, policies=policies, lint_mode=args.lint, **_pool_kwargs(args)
        )
        print(f"base snapshot verified: {verifier.initial.report.summary()}")
    broken_at_base = verifier.violated_policies()
    for status in broken_at_base:
        print(f"  already violated at base: {status}")
    try:
        delta = verifier.verify_snapshot(changed)
    except LintGateError as error:
        print(f"REFUSED by lint gate: {error}", file=sys.stderr)
        verifier.close()
        return 1
    except ConfigError as error:
        # e.g. the changed snapshot alters the topology: refused up front,
        # the verifier's state is untouched.
        print(f"error: cannot verify changed snapshot: {error}", file=sys.stderr)
        verifier.close()
        return 2
    verifier.close()
    print(delta.summary())
    if delta.lint is not None:
        for diag in delta.lint.diagnostics:
            print(f"  lint: {diag}")
    for status in delta.newly_violated:
        print(f"  NEWLY VIOLATED: {status}")
    for status in delta.newly_satisfied:
        print(f"  newly satisfied: {status}")
    return 0 if delta.ok else 1


def _serve_verifier(args: argparse.Namespace):
    """The (verifier, resume_cursor, resume_fallback) triple for a
    serve/watch run.  Verifier and cursor come from one checkpoint
    resolution — resolving twice could straddle a concurrent write and
    pair generation N state with generation N-1's cursor."""
    policies = [LoopFree("loop-free"), BlackholeFree("blackhole-free")]
    if args.all_pairs:
        snapshot = load_snapshot(args.snapshot)
        policies.extend(_reachability_policies(snapshot))
    if args.resume_from is not None:
        from repro.serve import cursor_from_extras

        restored = _restore_resolved(args, args.resume_from)
        cursor = cursor_from_extras(restored.extras)
        fallback = None
        if restored.fell_back:
            fallback = {
                "requested": str(restored.requested),
                "used": str(restored.path),
                "generation": restored.generation,
                "skipped": [
                    {"path": str(p), "error": str(e)}
                    for p, e in restored.skipped
                ],
            }
        print(
            f"resumed verifier from {restored.path} "
            f"at stream cursor {cursor}"
        )
        return restored.verifier, cursor, fallback
    snapshot = load_snapshot(args.snapshot)
    verifier = RealConfig(
        snapshot, policies=policies, lint_mode=args.lint, **_pool_kwargs(args)
    )
    print(f"base snapshot verified: {verifier.initial.report.summary()}")
    return verifier, 0, None


def _serve_options(args: argparse.Namespace, **single_stream):
    """The ServeOptions both serving modes build from the shared flags;
    ``single_stream`` adds the daemon-only ones."""
    from repro.serve import ServeOptions

    return ServeOptions(
        deadline_seconds=args.deadline,
        max_retries=args.max_retries,
        backoff_base=args.backoff_base,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        poll_interval=args.poll_interval,
        checkpoint_every=args.checkpoint_every,
        checkpoint_generations=args.checkpoint_generations,
        health_file=args.health_file,
        journal_file=args.journal,
        obs_port=args.obs_port,
        **single_stream,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Long-lived serving loop over a change stream (and ``repro watch``,
    which polls a directory for new batch files instead of reading a
    finite stream)."""
    from repro.serve import DeadLetterBox, ServeDaemon, read_stream, watch_stream

    if getattr(args, "tenants", None) is not None:
        if args.snapshot is not None or args.stream is not None:
            raise CliError(
                "--tenants serves per-tenant snapshots/streams from DIR; "
                "do not also pass SNAPSHOT or --stream"
            )
        if args.resume_from is not None:
            raise CliError(
                "--resume-from is implicit in multi-tenant mode: each "
                "tenant resumes from its own checkpoint.ckpt"
            )
        return _cmd_serve_tenants(args)
    if args.snapshot is None or args.stream is None:
        raise CliError(
            f"{args.command} needs SNAPSHOT and --stream"
            + (" (or --tenants DIR)" if args.command == "serve" else "")
        )
    verifier, cursor, resume_fallback = _serve_verifier(args)
    watching = args.command == "watch"
    options = _serve_options(
        args,
        queue_capacity=args.queue_capacity,
        audit_every=args.audit_every,
        checkpoint_file=args.checkpoint,
    )
    if watching:
        source = watch_stream(
            args.stream,
            idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        )
    else:
        source = read_stream(args.stream)
    daemon = ServeDaemon(
        verifier,
        source,
        DeadLetterBox(args.dead_letter),
        options,
        resume_cursor=cursor,
        resume_fallback=resume_fallback,
    )
    if daemon.obs_server is not None:
        print(
            f"introspection server on {daemon.obs_server.url} "
            f"(try: repro top {daemon.obs_server.host}:"
            f"{daemon.obs_server.port})"
        )
    stats = daemon.run(handle_signals=True)
    print(f"serve finished: {stats.summary()}")
    if stats.quarantined:
        print(
            f"  {stats.quarantined} poison batch(es) in {args.dead_letter} "
            f"— inspect error.txt/meta.json, fix the cause, then replay "
            f"with: repro serve {args.snapshot} --stream {args.dead_letter}",
            file=sys.stderr,
        )
    if args.checkpoint is not None:
        print(f"  final checkpoint: {args.checkpoint} (cursor {daemon.cursor})")
    return 0 if stats.clean else 1


def _cmd_serve_tenants(args: argparse.Namespace) -> int:
    """``repro serve --tenants DIR``: the multi-tenant service."""
    from repro.tenants import TenantService, TenantServiceOptions

    options = TenantServiceOptions(
        serve=_serve_options(args),
        memory_budget_bytes=int(args.memory_budget * 1024 * 1024),
        tenant_queue_capacity=args.tenant_queue,
        drain=not args.linger,
    )
    service = TenantService(args.tenants, options)
    print(f"serving {len(service.registry)} tenant(s) from {args.tenants}")
    if service.obs_server is not None:
        print(
            f"introspection server on {service.obs_server.url} "
            f"(try: curl {service.obs_server.url}/tenants)"
        )
    service.run(handle_signals=True)
    totals = service._totals()
    print(f"serve finished: {service.summary()}")
    for state in service.registry.states():
        if state.degraded:
            print(
                f"  degraded tenant {state.tenant_id}: "
                f"{state.stats.quarantined} quarantined "
                f"(replay with: repro tenant replay {args.tenants} "
                f"{state.tenant_id})",
                file=sys.stderr,
            )
    clean = (
        totals["quarantined"] == 0
        and totals["new_violations"] == 0
        and totals["failed"] == 0
    )
    return 0 if clean else 1


def cmd_tenant(args: argparse.Namespace) -> int:
    """``repro tenant {add,evict,status,replay}`` fleet administration."""
    from repro.tenants import TenantConfig, discover_tenants

    directory = args.directory
    if args.tenant_command == "add":
        from repro.config.io import save_snapshot as _save
        from repro.serve.stream import write_stream
        from repro.workloads import snapshot_for, stream_batches

        root = os.path.join(directory, args.id)
        if os.path.isdir(root):
            raise CliError(f"tenant directory {root} already exists")
        labeled = _build_topology(args.topology)
        config = TenantConfig(args.id, root, weight=args.weight)
        config.save()
        snapshot = snapshot_for(labeled, args.protocol)
        _save(snapshot, config.snapshot_dir)
        if args.batches > 0:
            write_stream(
                stream_batches(
                    labeled,
                    protocol=args.protocol,
                    count=args.batches,
                    seed=args.seed,
                ),
                config.stream_file,
            )
        print(
            f"added tenant {args.id} ({args.topology}, {args.protocol}, "
            f"{args.batches} batch(es), weight {args.weight}) under "
            f"{directory} — a live 'serve --tenants' picks it up at its "
            "next control scan"
        )
        return 0

    if args.tenant_command == "evict":
        config = TenantConfig.load(os.path.join(directory, args.id))
        config.evict_marker.touch()
        print(
            f"eviction requested for tenant {config.tenant_id}: a live "
            "service will checkpoint and release it at its next control "
            "scan"
        )
        return 0

    if args.tenant_command == "status":
        import json as _json

        if args.server is not None:
            payload = _json.loads(
                _obs_get(_obs_base_url(args.server) + "/tenants")
            )
            tenants = payload["tenants"]
        else:
            from repro.serve import DeadLetterBox, resume_cursor_from

            tenants = []
            for config in discover_tenants(directory):
                cursor = 0
                if config.checkpoint_file.exists():
                    cursor = resume_cursor_from(config.checkpoint_file)
                quarantined = (
                    len(DeadLetterBox(config.deadletter_dir))
                    if config.deadletter_dir.is_dir()
                    else 0
                )
                tenants.append(
                    {
                        "tenant": config.tenant_id,
                        "weight": config.weight,
                        "status": "offline",
                        "degraded": quarantined > 0,
                        "cursor": cursor,
                        "quarantined": quarantined,
                    }
                )
        degraded = 0
        for entry in tenants:
            flag = " DEGRADED" if entry.get("degraded") else ""
            degraded += 1 if entry.get("degraded") else 0
            print(
                f"{entry['tenant']:<12} {entry.get('status', '?'):<9} "
                f"cursor {entry.get('cursor', 0):>5}  "
                f"quarantined {entry.get('quarantined', 0)}"
                f"{flag}"
            )
        print(f"-- {len(tenants)} tenant(s), {degraded} degraded")
        return 1 if degraded else 0

    if args.tenant_command == "replay":
        from repro.core.realconfig import RealConfig as _RealConfig
        from repro.resilience.checkpoint import read_checkpoint
        from repro.serve import BatchEngine, DeadLetterBox, ServeOptions

        config = TenantConfig.load(os.path.join(directory, args.id))
        box = DeadLetterBox(config.deadletter_dir)
        if len(box) == 0:
            print(f"tenant {config.tenant_id}: dead-letter box is empty")
            return 0
        if config.checkpoint_file.exists():
            verifier = read_checkpoint(config.checkpoint_file)
            print(f"restored {config.tenant_id} from its checkpoint")
        else:
            verifier = _RealConfig(load_snapshot(config.snapshot_dir))
            print(f"built {config.tenant_id} from its snapshot")
        engine = BatchEngine(
            verifier,
            DeadLetterBox(config.deadletter_dir / "replay-failures"),
            options=ServeOptions(breaker_threshold=0, backoff_base=0.0),
        )
        replayed = failed = 0
        for batch in box.replay():
            if engine.process_batch(batch):
                replayed += 1
            else:
                failed += 1
        engine.close()
        print(
            f"replayed {replayed}/{replayed + failed} quarantined "
            f"batch(es) for {config.tenant_id}"
            + (f"; {failed} failed again" if failed else "")
        )
        return 0 if failed == 0 else 1

    raise CliError(f"unknown tenant subcommand {args.tenant_command!r}")


def cmd_emit_stream(args: argparse.Namespace) -> int:
    """Producer side of ``repro serve``: generate a change-batch stream."""
    from repro.net.topologies import LabeledTopology
    from repro.workloads import emit_stream

    snapshot = load_snapshot(args.snapshot)
    labeled = LabeledTopology(snapshot.topology)
    count = emit_stream(
        labeled,
        args.out,
        protocol=args.protocol,
        count=args.count,
        seed=args.seed,
    )
    print(f"wrote {count} change batch(es) to {args.out}")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    import os

    snapshot = load_snapshot(args.snapshot)
    policies = [LoopFree("loop-free"), BlackholeFree("blackhole-free")]
    if args.all_pairs:
        policies.extend(_reachability_policies(snapshot))
    verifier = RealConfig(
        snapshot, policies=policies, lint_mode=args.lint, **_pool_kwargs(args)
    )
    print(f"snapshot verified: {verifier.initial.report.summary()}")
    verifier.checkpoint(args.out)
    verifier.close()
    print(f"wrote checkpoint to {args.out} ({os.path.getsize(args.out)} bytes)")
    return 0


def _load_verifier_state(state: str, args: argparse.Namespace) -> RealConfig:
    """A verifier from either a checkpoint file or a snapshot directory."""
    import os

    if os.path.isdir(state):
        snapshot = load_snapshot(state)
        verifier = RealConfig(
            snapshot,
            policies=[LoopFree("loop-free"), BlackholeFree("blackhole-free")],
            **_pool_kwargs(args),
        )
        print(f"built verifier from snapshot {state}")
        return verifier
    verifier = _restore_verifier(args, state)
    print(f"restored verifier from checkpoint {state}")
    return verifier


def _print_drift(report) -> None:
    print(report.summary())
    for entry in report.fib_missing[:10]:
        print(f"  FIB missing: {entry}")
    for entry in report.fib_extra[:10]:
        print(f"  FIB extra:   {entry}")
    for drift in report.port_drift[:10]:
        print(f"  port drift:  {drift}")
    for drift in report.policy_drift[:10]:
        print(f"  policy drift: {drift}")


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.resilience.audit import audit, recover

    verifier = _load_verifier_state(args.state, args)
    try:
        if args.recover:
            report, post = recover(verifier)
            _print_drift(report)
            if post is not None:
                print(f"recovered by rebuild: {post.summary()}")
            return 0 if report.ok else 1
        report = audit(verifier)
        _print_drift(report)
        return 0 if report.ok else 1
    finally:
        verifier.close()


def cmd_trace(args: argparse.Namespace) -> int:
    snapshot = load_snapshot(args.snapshot)
    verifier = RealConfig(snapshot)
    packet = header(
        parse_ipv4(args.dst),
        src_ip=parse_ipv4(args.src) if args.src else 0,
        proto=args.proto,
        dst_port=args.port,
    )
    traces = trace_packet(verifier.model, packet, args.source)
    print(format_traces(traces))
    return 0 if any(t.delivered() for t in traces) else 1


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine the fault-tolerance specification under single link failures."""
    from repro.net.topologies import LabeledTopology
    from repro.policy.mining import SpecificationMiner

    snapshot = load_snapshot(args.snapshot)
    labeled = LabeledTopology(snapshot.topology)
    # Endpoints: devices originating host prefixes (host* stubs or BGP
    # network statements) — same heuristic as verify --all-pairs.
    endpoints = sorted(
        {
            device.hostname
            for device in snapshot.iter_devices()
            if (device.bgp is not None and device.bgp.networks)
            or any(
                iface.name.startswith("host") and iface.prefix is not None
                for iface in device.interfaces.values()
            )
        }
    )
    if len(endpoints) < 2:
        print("error: fewer than two endpoint devices found", file=sys.stderr)
        return 2
    miner = SpecificationMiner(labeled, snapshot, endpoints=endpoints)
    spec = miner.mine(with_widths=not args.no_widths)
    print(spec.summary())
    for src, dst in sorted(spec.always_reachable):
        width = spec.min_width.get((src, dst))
        suffix = f" (width >= {width})" if width is not None else ""
        print(f"  always: {src} -> {dst}{suffix}")
    for src, dst in sorted(spec.fragile):
        print(f"  FRAGILE: {src} -> {dst}")
    return 0 if not spec.fragile else 1


def cmd_diff(args: argparse.Namespace) -> int:
    base = load_snapshot(args.base)
    changed = load_snapshot(args.changed)
    diff = diff_snapshots(base, changed)
    print(diff)
    print(f"-- {diff.summary()}", file=sys.stderr)
    return 0 if diff.is_empty() else 1


def cmd_lint(args: argparse.Namespace) -> int:
    if args.explain is not None:
        from repro.lint.passes import explain_code

        text = explain_code(args.explain)
        if text is None:
            raise CliError(f"unknown lint code {args.explain!r}")
        print(text)
        return 0
    if args.snapshot is None:
        raise CliError("snapshot directory required (or use --explain CODE)")
    try:
        suppressions = [Suppression.parse(text) for text in args.suppress]
    except ValueError as error:
        raise CliError(str(error)) from error
    # Load without referential validation: dangling references are exactly
    # what the undefined-references pass reports as diagnostics.
    snapshot = load_snapshot(args.snapshot, validate=False)
    runner = LintRunner(suppressions=suppressions)
    if args.base is not None:
        base = load_snapshot(args.base, validate=False)
        previous = runner.run(base)
        diff = diff_snapshots(base, snapshot)
        result = runner.run_incremental(snapshot, diff, previous)
        print(
            f"-- incremental: {len(result.passes_run)}/"
            f"{len(runner.passes)} passes re-run over "
            f"{diff.summary()}; "
            f"{result.objects_scanned}/{result.objects_total} graph "
            "objects analyzed",
            file=sys.stderr,
        )
    else:
        result = runner.run(snapshot)
    print(FORMATTERS[args.format](result, snapshot))
    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 0 if result.ok(fail_on=threshold) else 1


def _profile_changes(args: argparse.Namespace, snapshot):
    from repro.net.topologies import LabeledTopology
    from repro.workloads import lc_changes, link_failures, lp_changes

    labeled = LabeledTopology(snapshot.topology)
    generators = {
        "link-failure": link_failures,
        "lc": lc_changes,
        "lp": lp_changes,
    }
    changes = generators[args.workload](labeled, seed=args.seed)
    if not changes:
        raise CliError(
            f"workload {args.workload!r} produced no changes for this snapshot"
        )
    return changes[: args.count]


def _stat_row(label: str, samples: List[float]) -> str:
    import statistics

    ms = [s * 1000 for s in samples]
    return (
        f"  {label:<14s} {statistics.mean(ms):9.2f} "
        f"{statistics.median(ms):9.2f} {min(ms):9.2f} {max(ms):9.2f}"
    )


def _ratio(part: float, whole: float) -> str:
    if whole <= 0:
        return "n/a"
    return f"{part / whole:.3f}"


def _print_worker_attribution(tracer: Tracer) -> None:
    """Aggregate the grafted ``parallel.worker`` spans into a per-worker
    wall-clock table: rounds handled, dispatch-queue wait, and compute
    per phase — plus the compute split across the worker-side stages."""
    per_worker = {}
    stage_totals = {}
    for sp in tracer.finished:
        if sp.name == names.SPAN_WORKER:
            idx = sp.attributes.get("worker", -1)
            row = per_worker.setdefault(
                idx,
                {
                    "rounds": 0,
                    "queue_wait": 0.0,
                    "seed": 0.0,
                    "model": 0.0,
                    "policy": 0.0,
                },
            )
            row["rounds"] += 1
            row["queue_wait"] += sp.attributes.get("queue_wait_seconds", 0.0)
            phase = sp.attributes.get("phase")
            if phase in ("seed", "model", "policy"):
                row[phase] += sp.duration
        elif sp.name.startswith(names.SPAN_WORKER + "."):
            stage = sp.name[len(names.SPAN_WORKER) + 1:]
            stage_totals[stage] = stage_totals.get(stage, 0.0) + sp.duration
    print()
    print("parallel worker attribution (grafted worker spans, ms)")
    if not per_worker:
        print("  no worker spans recorded (inline backend seeds eagerly; "
              "rounds may have run before tracing was enabled)")
        return
    print(f"  {'worker':<8s} {'rounds':>6s} {'queue':>9s} {'seed':>9s} "
          f"{'model':>9s} {'policy':>9s}")
    for idx in sorted(per_worker):
        row = per_worker[idx]
        print(
            f"  w{idx:<7d} {row['rounds']:>6d} "
            f"{row['queue_wait'] * 1000:>9.2f} {row['seed'] * 1000:>9.2f} "
            f"{row['model'] * 1000:>9.2f} {row['policy'] * 1000:>9.2f}"
        )
    if stage_totals:
        split = ", ".join(
            f"{stage} {seconds * 1000:.2f}"
            for stage, seconds in sorted(stage_totals.items())
        )
        print(f"  compute split across workers (ms): {split}")


def cmd_profile(args: argparse.Namespace) -> int:
    """Replay a generated change workload and print where time and
    incremental work went — the CLI face of the paper's Tables 2-3."""
    if (args.workers or 1) > 1 and not tracing_enabled():
        # Per-worker attribution is built from grafted worker spans, so a
        # parallel profile records them on a local tracer even when the
        # global --trace flag did not install one.
        local = Tracer()
        previous = set_tracer(local)
        try:
            return _profile_run(args)
        finally:
            set_tracer(previous)
    return _profile_run(args)


def _profile_run(args: argparse.Namespace) -> int:
    import statistics

    snapshot = load_snapshot(args.snapshot)
    policies = [LoopFree("loop-free"), BlackholeFree("blackhole-free")]
    if args.all_pairs:
        policies.extend(_reachability_policies(snapshot))
    verifier = RealConfig(
        snapshot, policies=policies, lint_mode=args.lint, **_pool_kwargs(args)
    )
    changes = _profile_changes(args, snapshot)
    initial = verifier.initial

    stages = {
        "config diff": [],
        "lint gate": [],
        "generation": [],
        "model update": [],
        "policy check": [],
        "total": [],
    }
    work = {
        "ddlog records": [],
        "ddlog messages": [],
        "ddlog recomputes": [],
        "ecs affected": [],
        "ec moves": [],
        "ports touched": [],
        "policies rechecked": [],
        "lint units reused": [],
        "lint units run": [],
        "lint objects scanned": [],
        "lint objects total": [],
    }
    verified = 0
    for _ in range(args.repeat):
        for change in changes:
            inverse = change.invert(verifier.snapshot)
            delta = verifier.apply_change(change)
            verified += 1
            timings = delta.timings
            stages["config diff"].append(timings.config_diff)
            stages["lint gate"].append(timings.lint)
            stages["generation"].append(timings.generation)
            stages["model update"].append(timings.model_update)
            stages["policy check"].append(timings.policy_check)
            stages["total"].append(timings.total)
            if delta.engine is not None:
                work["ddlog records"].append(delta.engine.records)
                work["ddlog messages"].append(delta.engine.messages)
                work["ddlog recomputes"].append(delta.engine.recompute_calls)
            if delta.batch is not None:
                work["ecs affected"].append(
                    len(delta.batch.affected_ec_ids(verifier.model))
                )
                work["ec moves"].append(delta.batch.num_moves)
                work["ports touched"].append(delta.batch.ports_touched)
            work["policies rechecked"].append(delta.report.policies_rechecked)
            if delta.lint is not None:
                work["lint units reused"].append(delta.lint.units_reused)
                work["lint units run"].append(delta.lint.units_run)
                work["lint objects scanned"].append(
                    delta.lint.objects_scanned
                )
                work["lint objects total"].append(delta.lint.objects_total)
            verifier.apply_change(inverse)  # roll back (also verified)

    num_devices = sum(1 for _ in snapshot.iter_devices())
    print(
        f"profiled {len(changes)} {args.workload} change(s) x "
        f"{args.repeat} repeat(s) = {verified} verification(s) "
        f"on {args.snapshot} ({num_devices} devices, "
        f"{verifier.model.num_ecs()} ECs, "
        f"{len(verifier.checker.policies())} policies, lint={args.lint})"
    )
    print(
        f"initial convergence: {initial.timings.total * 1000:.1f} ms, "
        f"{len(initial.rule_updates)} rule updates"
        + (
            f", {initial.engine.records} ddlog records"
            if initial.engine is not None
            else ""
        )
    )
    print()
    print(f"  {'stage':<14s} {'mean ms':>9s} {'median':>9s} "
          f"{'min':>9s} {'max':>9s}")
    for label, samples in stages.items():
        print(_stat_row(label, samples))
    print()
    print("incremental work (mean per change / snapshot total = ratio)")

    def mean_of(key: str) -> Optional[float]:
        return statistics.mean(work[key]) if work[key] else None

    records = mean_of("ddlog records")
    if records is not None and initial.engine is not None:
        print(
            f"  ddlog records      {records:10.1f} / "
            f"{initial.engine.records} initial-epoch = "
            f"{_ratio(records, initial.engine.records)}"
        )
        print(
            f"  ddlog messages     {mean_of('ddlog messages'):10.1f}   "
            f"(recomputes {mean_of('ddlog recomputes'):.1f})"
        )
    ecs = mean_of("ecs affected")
    if ecs is not None:
        total_ecs = verifier.model.num_ecs()
        print(
            f"  ECs affected       {ecs:10.1f} / {total_ecs} total = "
            f"{_ratio(ecs, total_ecs)}"
        )
        print(
            f"  EC moves           {mean_of('ec moves'):10.1f}   "
            f"(ports touched {mean_of('ports touched'):.1f})"
        )
    rechecked = mean_of("policies rechecked")
    if rechecked is not None:
        registered = len(verifier.checker.policies())
        print(
            f"  policies rechecked {rechecked:10.1f} / {registered} "
            f"registered = {_ratio(rechecked, registered)}"
        )
    reused = mean_of("lint units reused")
    if reused is not None:
        units = reused + (mean_of("lint units run") or 0.0)
        print(
            f"  lint units reused  {reused:10.1f} / {units:.1f} total = "
            f"{_ratio(reused, units)}"
        )
    scanned = mean_of("lint objects scanned")
    if scanned is not None:
        graph_objects = mean_of("lint objects total") or 0.0
        print(
            f"  lint objects       {scanned:10.1f} / {graph_objects:.1f} "
            f"graph = {_ratio(scanned, graph_objects)}"
        )
    if (args.workers or 1) > 1 and get_tracer().enabled:
        _print_worker_attribution(get_tracer())
    verifier.close()
    return 0


def _obs_base_url(target: str) -> str:
    """Accept 'HOST:PORT', ':PORT', or a full URL for top/tail."""
    if target.startswith(":"):
        target = "127.0.0.1" + target
    if "://" not in target:
        target = "http://" + target
    return target.rstrip("/")


def _obs_get(url: str, timeout: float = 5.0) -> str:
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout) as response:  # noqa: S310 - loopback
        return response.read().decode("utf-8")


def _render_top(health: dict, stats: dict) -> None:
    breaker = health.get("breaker") or {}
    print(
        f"status={health.get('status')} mode={health.get('mode')} "
        f"cursor={health.get('cursor')} "
        f"queue={health.get('queue_depth')} "
        f"breaker={breaker.get('state', 'off')}"
    )
    print(
        f"  batches {health.get('batches_ok')}/{health.get('batches_seen')}"
        f" ok, {health.get('retries')} retries, "
        f"{health.get('quarantined')} quarantined, "
        f"{health.get('new_violations')} new violations"
    )
    histograms = stats.get("histograms") or {}
    if histograms:
        print(f"  {'stage':<12s} {'count':>6s} {'mean ms':>9s} {'p50':>8s} "
              f"{'p95':>8s} {'p99':>8s} {'max':>8s}")
        for stage, h in sorted(histograms.items()):
            print(
                f"  {stage:<12s} {h['count']:>6d} "
                f"{h['mean_seconds'] * 1000:>9.2f} "
                f"{h['p50_seconds'] * 1000:>8.2f} "
                f"{h['p95_seconds'] * 1000:>8.2f} "
                f"{h['p99_seconds'] * 1000:>8.2f} "
                f"{h['max_seconds'] * 1000:>8.2f}"
            )
    print(
        f"  journal seq {stats.get('journal_seq')}, "
        f"flight dumps {stats.get('flight_dumps')}"
    )


def cmd_top(args: argparse.Namespace) -> int:
    """One-shot (or --watch) dashboard over /health and /stats."""
    import json

    base = _obs_base_url(args.server)
    try:
        while True:
            health = json.loads(_obs_get(base + "/health"))
            stats = json.loads(_obs_get(base + "/stats"))
            if args.watch > 0:
                print(f"-- {time.strftime('%H:%M:%S')} {base}")
            _render_top(health, stats)
            if args.watch <= 0:
                return 0
            time.sleep(args.watch)
            print()
    except KeyboardInterrupt:
        return 0
    except (OSError, ValueError) as error:
        raise CliError(
            f"cannot read introspection server at {base}: {error}"
        ) from error


def _format_event(event: dict) -> str:
    threaded = {"seq", "ts", "event", "cid", "batch", "stage", "worker",
                "finding"}
    extras = " ".join(
        f"{key}={event[key]}" for key in sorted(event) if key not in threaded
    )
    stamp = time.strftime("%H:%M:%S", time.localtime(event.get("ts", 0)))
    line = (
        f"{event.get('seq', '?'):>6} {stamp} "
        f"{event.get('event', '?'):<18s} {event.get('cid', '')}"
    )
    return f"{line}  {extras}" if extras else line


def cmd_tail(args: argparse.Namespace) -> int:
    """Replay (and with --follow, keep streaming) the event journal."""
    import json

    if args.journal is None and args.server is None:
        raise CliError("tail needs a SERVER address or --journal FILE")
    if args.journal is not None and args.server is not None:
        raise CliError("pass either a SERVER address or --journal, not both")
    if args.repair:
        if args.journal is None:
            raise CliError("--repair works on a --journal FILE, not a server")
        from repro.obs import repair_journal

        report = repair_journal(args.journal)
        if report.action == "missing":
            raise CliError(f"no journal file at {args.journal}")
        if report.action == "none":
            print(
                f"{args.journal}: clean ({report.kept_bytes} bytes, "
                f"last seq {report.last_seq})"
            )
        else:
            print(f"{args.journal}: {report.action} — {report.detail}")
        return 0
    since = args.since

    if args.journal is not None:
        # Offline mode: replay the JSONL file directly — works after the
        # daemon has exited (seqs are the same ones /events serves).
        from repro.obs import follow_events, read_events

        try:
            if not args.follow:
                for event in read_events(args.journal, since=since):
                    print(_format_event(event))
                return 0
            # follow_events survives logrotate-style rotation and
            # in-place truncation: it re-opens on inode change and
            # resets its cursor when the file shrinks, where a naive
            # re-read with a rising `since` would go silent forever.
            for event in follow_events(
                args.journal, since=since, poll_interval=args.interval
            ):
                print(_format_event(event))
        except KeyboardInterrupt:
            return 0
        return 0

    base = _obs_base_url(args.server)
    try:
        while True:
            body = _obs_get(f"{base}/events?since={since}")
            for line in body.splitlines():
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                since = max(since, event.get("seq", since))
                print(_format_event(event))
            if not args.follow:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ValueError) as error:
        raise CliError(
            f"cannot read introspection server at {base}: {error}"
        ) from error


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the deterministic crash matrix.

    Kills a subprocess running the serve workload at each named
    durability boundary, restarts it, and asserts the recovery
    invariants (byte-identical FIB fingerprint, gapless journal seqs,
    every batch disposed exactly once).  Exits 0 when every cell
    passes, 1 on any failure, 2 on workload errors.
    """
    from pathlib import Path

    from repro.chaos.harness import matrix_cells, run_matrix
    from repro.chaos.points import CRASH_POINTS

    if args.list:
        width = max(len(name) for name, _ in CRASH_POINTS)
        for name, description in CRASH_POINTS:
            print(f"{name:<{width}}  {description}")
        return 0

    points = None
    if args.points:
        points = [p.strip() for p in args.points.split(",") if p.strip()]
    try:
        cells = matrix_cells(points, smoke=not args.matrix)
    except ValueError as error:
        raise CliError(str(error)) from error
    print(
        f"crash matrix: {len(cells)} cell(s), "
        f"{args.batches} batches, seed {args.seed}"
    )
    report = run_matrix(
        root=Path(args.workdir) if args.workdir else None,
        points=points,
        smoke=not args.matrix,
        batches=args.batches,
        seed=args.seed,
        timeout=args.timeout,
        progress=print,
    )
    if args.report is not None:
        import json as _json

        atomic_write_text(
            args.report,
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        print(f"report written to {args.report}")
    if report.error is not None:
        print(f"error: {report.error}", file=sys.stderr)
        return 2
    failed = report.failed_cells
    print(
        f"crash matrix: {len(report.cells) - len(failed)}/"
        f"{len(report.cells)} cells passed "
        f"(baseline fingerprint {report.baseline_fingerprint[:12]})"
    )
    for cell in failed:
        print(
            f"  FAIL {cell.point} (hit {cell.hits}): "
            + "; ".join(cell.failures),
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RealConfig: incremental network configuration verification",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record spans across the run and write Chrome trace-event "
             "JSON to FILE (open in Perfetto or chrome://tracing)")
    parser.add_argument(
        "--trace-summary", action="store_true",
        help="print the recorded span tree (durations + work attributes) "
             "to stderr when the command finishes")
    parser.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="record work counters across the run and write the "
             "Prometheus text exposition to FILE")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="verify with a pool of N worker processes (sharded model "
             "update + parallel policy re-check); default 1 = serial. "
             "With --resume-from, overrides the checkpointed setting")
    parser.add_argument(
        "--parallel-backend", choices=["auto", "fork", "inline"],
        default=None,
        help="worker pool backend for --workers > 1 (default auto: "
             "forked processes where available, inline otherwise)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a snapshot directory")
    p.add_argument("--topology", required=True,
                   help="fat-tree:k | ring:n | line:n | grid:RxC | random:n[:extra]")
    p.add_argument("--protocol", choices=["ospf", "bgp"], default="ospf")
    p.add_argument("--out", required=True, help="output snapshot directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("show-fib", help="print the converged FIB")
    p.add_argument("snapshot", help="snapshot directory")
    p.add_argument("--node", help="restrict to one device")
    p.set_defaults(func=cmd_show_fib)

    p = sub.add_parser(
        "verify",
        help="verify base -> changed incrementally",
        description="Verify the change incrementally. Exits 0 when no "
        "policy became violated, 1 on a new violation or when the "
        "--lint enforce gate refuses the change, 2 on input errors.",
    )
    p.add_argument("base", help="base snapshot directory")
    p.add_argument("changed", help="changed snapshot directory")
    p.add_argument("--all-pairs", action="store_true",
                   help="also check all-pairs reachability between "
                        "prefix-originating devices")
    p.add_argument("--lint", choices=["off", "warn", "enforce"], default="off",
                   help="pre-flight static analysis gate: 'warn' annotates "
                        "the report with diagnostics, 'enforce' refuses "
                        "changes that introduce lint errors (default: off)")
    p.add_argument("--resume-from", metavar="FILE", default=None,
                   help="resume the verifier from a checkpoint file "
                        "(written by 'repro checkpoint') instead of "
                        "re-verifying the base snapshot from scratch")
    p.set_defaults(func=cmd_verify)

    def add_serve_parser(name: str, help_text: str, description: str):
        p = sub.add_parser(name, help=help_text, description=description)
        p.add_argument("snapshot", nargs="?", default=None,
                       help="base snapshot directory (omit with --tenants)")
        p.add_argument("--stream", default=None,
                       help="JSONL stream file or batch directory"
                       if name == "serve"
                       else "directory to poll for new batch files")
        if name == "serve":
            p.add_argument("--tenants", default=None, metavar="DIR",
                           help="multi-tenant mode: serve every tenant "
                                "directory under DIR (each holding "
                                "snapshot/, stream.jsonl, tenant.json) "
                                "with per-tenant fault isolation, "
                                "weighted-fair scheduling, and an LRU "
                                "memory budget over hydrated models")
            p.add_argument("--memory-budget", type=float, default=0.0,
                           metavar="MB",
                           help="multi-tenant: LRU budget over hydrated "
                                "verifier state in megabytes; cold "
                                "tenants are evicted to their checkpoint "
                                "and rehydrated on demand (default: 0 = "
                                "unlimited)")
            p.add_argument("--tenant-queue", type=int, default=8, metavar="N",
                           help="multi-tenant: bound of each tenant's "
                                "pending-batch queue — the per-tenant "
                                "backpressure/load-shed limit (default: 8)")
            p.add_argument("--linger", action="store_true",
                           help="multi-tenant: keep polling for appended "
                                "batches and new tenant directories after "
                                "the streams drain (stop with "
                                "SIGINT/SIGTERM)")
        p.add_argument("--dead-letter", default="deadletter", metavar="DIR",
                       help="quarantine directory for poison batches "
                            "(default: ./deadletter)")
        p.add_argument("--deadline", type=float, default=0.0, metavar="SECONDS",
                       help="wall-clock budget per verification attempt, "
                            "enforced at stage boundaries (default: off)")
        p.add_argument("--max-retries", type=int, default=2,
                       help="retries per batch for transient failures "
                            "(default: 2)")
        p.add_argument("--backoff-base", type=float, default=0.05,
                       metavar="SECONDS",
                       help="base of the exponential retry backoff "
                            "(default: 0.05)")
        p.add_argument("--breaker-threshold", type=int, default=3, metavar="N",
                       help="consecutive incremental failures that open the "
                            "circuit breaker and degrade to full-rebuild "
                            "mode; 0 disables the breaker (default: 3)")
        p.add_argument("--breaker-cooldown", type=float, default=5.0,
                       metavar="SECONDS",
                       help="seconds in rebuild mode before probing "
                            "incremental mode again (default: 5)")
        p.add_argument("--queue-size", dest="queue_capacity", type=int,
                       default=16, metavar="N",
                       help="bounded prefetch queue capacity — the "
                            "backpressure limit (default: 16)")
        p.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="sleep between polls when the stream is idle "
                            "(default: 0.5)")
        p.add_argument("--idle-timeout", type=float, default=0.0,
                       metavar="SECONDS",
                       help="watch mode: exit after this long with no new "
                            "batch file (default: 0 = poll forever)")
        p.add_argument("--audit-every", type=int, default=0, metavar="N",
                       help="watchdog: audit incremental state against a "
                            "from-scratch recomputation every N batches "
                            "(default: 0 = off)")
        p.add_argument("--health-file", default=None, metavar="FILE",
                       help="write a JSON liveness/readiness heartbeat "
                            "here after every batch")
        p.add_argument("--checkpoint", default=None, metavar="FILE",
                       help="write a checkpoint (with the stream cursor) "
                            "here on shutdown")
        p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                       help="also checkpoint every N batches (default: 0 = "
                            "only on shutdown)")
        p.add_argument("--checkpoint-generations", type=int, default=3,
                       metavar="N",
                       help="keep the last N checkpoint generations "
                            "(FILE, FILE.1, ...); a corrupt newest "
                            "generation falls back to the previous one "
                            "that verifies (default: 3)")
        p.add_argument("--resume-from", default=None, metavar="FILE",
                       help="restore the verifier and stream cursor from a "
                            "serve checkpoint and continue the stream")
        p.add_argument("--journal", default=None, metavar="FILE",
                       help="append every batch outcome to this JSONL "
                            "event journal (sequence numbers stay gapless "
                            "across daemon restarts on the same file)")
        p.add_argument("--obs-port", type=int, default=None, metavar="PORT",
                       help="start the live introspection HTTP server on "
                            "127.0.0.1:PORT (/health /stats /events "
                            "/metrics; 0 picks an ephemeral port). "
                            "Inspect with 'repro top' and 'repro tail'")
        p.add_argument("--all-pairs", action="store_true",
                       help="also register all-pairs reachability policies")
        p.add_argument("--lint", choices=["off", "warn", "enforce"],
                       default="off", help="lint gate mode (default: off)")
        p.set_defaults(func=cmd_serve)
        return p

    add_serve_parser(
        "serve",
        "serve a change-batch stream fault-tolerantly",
        "Keep a verifier alive across a stream of change batches with "
        "per-batch deadlines, retry with exponential backoff, poison-batch "
        "quarantine to a dead-letter directory, a circuit breaker that "
        "degrades to full-rebuild mode, and graceful shutdown that "
        "checkpoints the stream cursor. Exits 0 when every batch "
        "committed cleanly, 1 when any batch was quarantined or a policy "
        "became violated, 2 on input errors.",
    )
    add_serve_parser(
        "watch",
        "poll a directory for change batches and serve them",
        "The polling alias of 'serve': watch --stream DIR picks up new "
        "*.json batch files in sorted-name order as producers drop them, "
        "with the same deadline/retry/quarantine/breaker machinery. "
        "Stop with SIGINT/SIGTERM (graceful, checkpointing) or "
        "--idle-timeout.",
    )

    p = sub.add_parser(
        "tenant",
        help="administer a multi-tenant service root (add/evict/status/replay)",
        description="Fleet administration for 'repro serve --tenants DIR'. "
        "'add' materializes a new tenant directory (snapshot + stream + "
        "tenant.json) that a live service admits at its next control "
        "scan; 'evict' asks a live service to checkpoint-and-release a "
        "tenant's in-memory model; 'status' lists the fleet (offline "
        "from the directory, or live via --server); 'replay' re-runs a "
        "tenant's quarantined dead-letter batches against its "
        "checkpoint. Exits 0 on success, 1 when status finds degraded "
        "tenants or a replay fails again, 2 on input errors.",
    )
    tenant_sub = p.add_subparsers(dest="tenant_command", required=True)

    tp = tenant_sub.add_parser("add", help="materialize a new tenant dir")
    tp.add_argument("directory", help="the service root (--tenants DIR)")
    tp.add_argument("id", help="tenant id (also the directory name)")
    tp.add_argument("--topology", default="ring:4",
                    help="fat-tree:k | ring:n | line:n | grid:RxC "
                         "(default: ring:4)")
    tp.add_argument("--protocol", choices=["ospf", "bgp"], default="ospf")
    tp.add_argument("--batches", type=int, default=10,
                    help="change batches to pre-generate into the "
                         "tenant's stream (default: 10)")
    tp.add_argument("--weight", type=float, default=1.0,
                    help="fair-share scheduling weight (default: 1)")
    tp.add_argument("--seed", type=int, default=0)
    tp.set_defaults(func=cmd_tenant)

    tp = tenant_sub.add_parser(
        "evict", help="ask a live service to checkpoint-and-release a tenant"
    )
    tp.add_argument("directory", help="the service root")
    tp.add_argument("id", help="tenant id")
    tp.set_defaults(func=cmd_tenant)

    tp = tenant_sub.add_parser("status", help="list the fleet's health")
    tp.add_argument("directory", help="the service root")
    tp.add_argument("--server", default=None, metavar="ADDR",
                    help="read live state from a service's introspection "
                         "server (HOST:PORT) instead of the directory")
    tp.set_defaults(func=cmd_tenant)

    tp = tenant_sub.add_parser(
        "replay", help="re-run a tenant's dead-letter batches"
    )
    tp.add_argument("directory", help="the service root")
    tp.add_argument("id", help="tenant id")
    tp.set_defaults(func=cmd_tenant)

    p = sub.add_parser(
        "top",
        help="dashboard of a running serve daemon (via --obs-port)",
        description="Fetch /health and /stats from a daemon's live "
        "introspection server and print a compact dashboard: serving "
        "counters, breaker state, queue depth, and the flight recorder's "
        "per-stage latency percentiles. With --watch, refresh until "
        "interrupted.",
    )
    p.add_argument("server",
                   help="introspection address: HOST:PORT, :PORT, or URL "
                        "(printed by 'repro serve --obs-port')")
    p.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                   help="refresh every SECONDS until interrupted "
                        "(default: print once and exit)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "tail",
        help="stream a serve daemon's event journal (via --obs-port)",
        description="Replay /events from a daemon's live introspection "
        "server — one line per journal event with its seq, correlation "
        "id, and fields. Sequence numbers are gapless across daemon "
        "restarts, so '--since SEQ' resumes exactly where a previous "
        "tail stopped. With --follow, keep polling for new events. "
        "Pass --journal FILE instead of a server address to replay a "
        "journal file offline (after the daemon has exited).",
    )
    p.add_argument("server", nargs="?", default=None,
                   help="introspection address: HOST:PORT, :PORT, or URL")
    p.add_argument("--journal", metavar="FILE", default=None,
                   help="replay this journal file instead of a live server")
    p.add_argument("--since", type=int, default=0, metavar="SEQ",
                   help="only events with seq > SEQ (default: 0 = all)")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep polling for new events until interrupted")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="poll interval with --follow (default: 1)")
    p.add_argument("--repair", action="store_true",
                   help="with --journal: repair a torn final line in "
                        "place (a complete line that merely lost its "
                        "newline is terminated; a torn fragment is "
                        "truncated) and report what was done, instead "
                        "of only tolerating the tear on read")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser(
        "chaos",
        help="crash-inject every durability boundary and prove recovery",
        description="Run the deterministic crash matrix: for each named "
        "crash point, kill a subprocess serving a fixed workload at that "
        "exact storage instant, restart it, and assert recovery — FIB "
        "fingerprint byte-identical to the fault-free run, no batch lost "
        "or applied twice, journal seqs gapless. Default: the smoke set "
        "(one point per boundary class); --matrix runs every point at "
        "multiple hit depths. Exits 0 all-pass, 1 on failures, 2 on "
        "workload errors.",
    )
    p.add_argument("--matrix", action="store_true",
                   help="run the full matrix (every crash point at "
                        "multiple hit depths) instead of the smoke set")
    p.add_argument("--points", default=None, metavar="A,B,...",
                   help="comma-separated crash points to run instead "
                        "(see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the registered crash points and exit")
    p.add_argument("--workdir", default=None, metavar="DIR",
                   help="keep per-cell scratch dirs (journals, rings, "
                        "dead letters) under DIR for post-mortems "
                        "(default: a fresh temp dir)")
    p.add_argument("--batches", type=int, default=8, metavar="N",
                   help="stream length of the workload (default: 8)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="workload seed (default: 0)")
    p.add_argument("--timeout", type=float, default=300.0, metavar="SECONDS",
                   help="per-subprocess timeout (default: 300)")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the full matrix report as JSON")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "emit-stream",
        help="generate a change-batch stream file for 'repro serve'",
        description="Generate a deterministic flap workload (fail/recover "
        "link pairs, cost/preference toggles) as a JSONL change-batch "
        "stream — the producer side of 'repro serve'.",
    )
    p.add_argument("snapshot", help="snapshot directory to generate against")
    p.add_argument("--out", required=True, help="JSONL stream file to write")
    p.add_argument("--protocol", choices=["ospf", "bgp"], default="ospf")
    p.add_argument("--count", type=int, default=20,
                   help="number of batches (default: 20)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_emit_stream)

    p = sub.add_parser(
        "checkpoint",
        help="verify a snapshot and serialize the verifier state",
        description="Build the verifier on the snapshot and write its "
        "full state (engine histories, EC partition, policy verdicts) to "
        "a checkpoint file. 'repro verify --resume-from FILE' and "
        "'repro audit FILE' load it back without re-convergence.",
    )
    p.add_argument("snapshot", help="snapshot directory")
    p.add_argument("out", help="checkpoint file to write")
    p.add_argument("--all-pairs", action="store_true",
                   help="also register all-pairs reachability policies")
    p.add_argument("--lint", choices=["off", "warn", "enforce"], default="off",
                   help="lint gate mode baked into the checkpoint "
                        "(default: off)")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "audit",
        help="diff incremental verifier state against a from-scratch run",
        description="Recompute the FIB with the from-scratch baseline "
        "simulator (and, in ecmp mode, a freshly built EC model and "
        "policy checker) and diff the results against the verifier's "
        "incremental state. STATE is a snapshot directory (build fresh) "
        "or a checkpoint file (restore). Exits 0 when no drift is found, "
        "1 on drift (even when --recover repaired it), 2 on input errors.",
    )
    p.add_argument("state", help="snapshot directory or checkpoint file")
    p.add_argument("--recover", action="store_true",
                   help="on drift, rebuild the verifier from its current "
                        "snapshot and audit again")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("trace", help="trace a packet through the data plane")
    p.add_argument("snapshot", help="snapshot directory")
    p.add_argument("--source", required=True, help="injection device")
    p.add_argument("--dst", required=True, help="destination IP")
    p.add_argument("--src", help="source IP (default 0.0.0.0)")
    p.add_argument("--proto", type=int, default=0)
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "mine",
        help="mine fault-tolerance spec under all single link failures",
    )
    p.add_argument("snapshot", help="snapshot directory")
    p.add_argument("--no-widths", action="store_true",
                   help="skip disjoint-path width computation")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser(
        "diff",
        help="configuration-line diff of two snapshots",
        description="Print the line-level diff. Exits 0 when the snapshots "
        "are identical and 1 when the diff is non-empty, so the command "
        "doubles as a CI gate ('fail the build when configs drifted').",
    )
    p.add_argument("base")
    p.add_argument("changed")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "lint",
        help="semantic static analysis of a snapshot",
        description="Run the repro.lint passes over the snapshot. With "
        "--base, lints incrementally: only passes whose stanza scope "
        "intersects the diff re-run (the rest reuse the base result). "
        "Exits 0 when clean, 1 when any diagnostic reaches --fail-on, "
        "2 on input errors — usable directly as a CI gate. "
        "Cross-device passes (LNK/BGP/BLK/RDL/ISO and friends) analyze "
        "neighborhoods of the network dependency graph; incremental runs "
        "re-analyze only the dependency closure of the changed devices.",
    )
    p.add_argument("snapshot", nargs="?", default=None,
                   help="snapshot directory to lint")
    p.add_argument("--base",
                   help="base snapshot directory: lint incrementally, "
                        "scoped to the diff base -> snapshot")
    p.add_argument("--explain", metavar="CODE", default=None,
                   help="print the documentation for a finding code "
                        "(e.g. BLK001) or pass prefix (e.g. LNK) and exit")
    p.add_argument("--format", choices=sorted(FORMATTERS), default="text",
                   help="output format (default: text)")
    p.add_argument("--fail-on", choices=["error", "warning", "info", "never"],
                   default="error",
                   help="lowest severity that causes exit code 1 "
                        "(default: error)")
    p.add_argument("--suppress", action="append", default=[],
                   metavar="CODE[:device[:stanza]]",
                   help="mute diagnostics matching the glob patterns "
                        "(repeatable)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "profile",
        help="replay a change workload and print the per-stage profile",
        description="Build the verifier on the snapshot, generate a "
        "deterministic change workload, verify each change (plus its "
        "inverse, restoring the snapshot) --repeat times, and print the "
        "per-stage latency breakdown with incremental-work ratios "
        "(ddlog records vs the initial epoch, affected vs total ECs, "
        "rechecked vs registered policies, reused vs run lint units). "
        "Combine with the global --trace/--metrics flags to export the "
        "same run as a Perfetto trace or Prometheus exposition.",
    )
    p.add_argument("snapshot", help="snapshot directory to profile against")
    p.add_argument("--workload", choices=["link-failure", "lc", "lp"],
                   default="link-failure",
                   help="change type to replay (default: link-failure)")
    p.add_argument("--count", type=int, default=5,
                   help="changes sampled from the workload (default: 5)")
    p.add_argument("--repeat", type=int, default=3,
                   help="times the workload is replayed (default: 3)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload sampling seed (default: 0)")
    p.add_argument("--all-pairs", action="store_true",
                   help="register all-pairs reachability policies too")
    p.add_argument("--lint", choices=["off", "warn", "enforce"],
                   default="warn",
                   help="lint gate mode during the replay (default: warn, "
                        "so lint reuse counters are reported)")
    p.set_defaults(func=cmd_profile)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = registry = None
    previous_tracer = previous_metrics = None
    if args.trace is not None or args.trace_summary:
        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
    if args.metrics is not None:
        registry = MetricsRegistry()
        previous_metrics = set_metrics(registry)
    try:
        return args.func(args)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # `repro tail ... | head` closes stdout early; that is not an
        # error.  Detach stdout so the interpreter's shutdown flush does
        # not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        # Export even when the command failed: a trace of a refused or
        # crashed verification is exactly what one wants to look at.
        if tracer is not None:
            set_tracer(previous_tracer)
            if args.trace is not None:
                atomic_write_text(args.trace, chrome_trace(tracer))
                print(
                    f"-- wrote {len(tracer.finished)} span(s) to "
                    f"{args.trace} (Chrome trace-event JSON)",
                    file=sys.stderr,
                )
            if args.trace_summary:
                print(summary_tree(tracer), file=sys.stderr)
        if registry is not None:
            set_metrics(previous_metrics)
            atomic_write_text(args.metrics, prometheus_text(registry))
            print(
                f"-- wrote metrics exposition to {args.metrics}",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
