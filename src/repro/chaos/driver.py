"""The crash-matrix workload: one deterministic serve run per invocation.

The harness (:mod:`repro.chaos.harness`) runs this module as a subprocess
— first with ``REPRO_CRASH_POINT`` armed so the process dies at one named
durability boundary, then again unarmed so recovery resumes from whatever
the crash left on disk.  Determinism is the whole point: given the same
``WORKDIR``/``--batches``/``--seed``, the fault-free end state (FIB
fingerprint, cursor, disposal set) is a constant the harness can compare
every crashed-and-recovered run against.

The workload is a ring topology serving a flap-pair change stream with a
checkpoint cadence of two batches, plus one deliberately malformed
stream line — so a single run crosses *every* durability boundary this
PR instruments: checkpoint tmp/fsync/rotate/replace/manifest, journal
append, cursor commit, telemetry export (via the health file's sibling,
the journal), and the dead-letter dump for the poison batch.

Run it by hand to poke at a crashed workdir::

    python -m repro.chaos.driver /tmp/chaos --batches 8 --seed 0
    REPRO_CRASH_POINT=checkpoint.replace \\
        python -m repro.chaos.driver /tmp/chaos --batches 8 --seed 0

Exit codes: 0 on a clean run (quarantines expected — the poison line is
part of the workload), 1 on verification failure, 2 on workload error.
An armed crash point exits with :data:`repro.chaos.points.EXIT_CODE`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

#: Workdir layout — shared with the harness, which reads these back.
STREAM_NAME = "stream.jsonl"
CHECKPOINT_NAME = "ckpt"
JOURNAL_NAME = "journal.jsonl"
HEALTH_NAME = "health.json"
DEADLETTER_NAME = "deadletter"
RESULT_NAME = "result.json"

#: Ring size: small enough to converge in milliseconds, large enough
#: that flap pairs actually move equivalence classes.
RING_NODES = 6

DEFAULT_BATCHES = 8
DEFAULT_SEED = 0


def poison_index(batches: int) -> int:
    """The stream index rewritten as a malformed batch (never the last
    one, so recovery always has committed work on both sides of it)."""
    return batches // 2


def build_stream(workdir: Path, batches: int, seed: int) -> Path:
    """Write the change stream once per workdir (idempotent across the
    crash/recover pair — recovery must see the *same* stream)."""
    from repro.net.topologies import ring
    from repro.serve.stream import write_stream
    from repro.workloads.changegen import stream_batches

    stream_path = workdir / STREAM_NAME
    if stream_path.exists():
        return stream_path
    labeled = ring(RING_NODES)
    write_stream(
        stream_batches(labeled, "ospf", count=batches, seed=seed),
        stream_path,
    )
    # One malformed line mid-stream: keeps its id but loses its changes
    # list, so decode yields a ChangeBatch with decode_error and the
    # daemon exercises malformed → quarantine → deadletter.dump.
    index = poison_index(batches)
    lines = stream_path.read_text().splitlines()
    lines[index] = json.dumps(
        {"id": f"{index:06d}", "changes": "not-a-list"}, sort_keys=True
    )
    stream_path.write_text("\n".join(lines) + "\n")
    return stream_path


def _fresh_verifier(seed: int):
    from repro.core.realconfig import RealConfig
    from repro.net.topologies import ring
    from repro.policy.spec import BlackholeFree, LoopFree
    from repro.workloads.fattree_configs import snapshot_for

    snapshot = snapshot_for(ring(RING_NODES), "ospf")
    return RealConfig(
        snapshot,
        policies=[LoopFree("loop-free"), BlackholeFree("blackhole-free")],
    )


def _write_result(workdir: Path, payload: dict) -> None:
    """Atomic result drop — the harness must never read a torn result."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(workdir), prefix=RESULT_NAME, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, workdir / RESULT_NAME)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def run(
    workdir: Path, batches: int = DEFAULT_BATCHES, seed: int = DEFAULT_SEED
) -> int:
    from repro.resilience.checkpoint import CheckpointError, restore_checkpoint
    from repro.serve import (
        DeadLetterBox,
        ServeDaemon,
        ServeOptions,
        cursor_from_extras,
    )
    from repro.serve.stream import fib_fingerprint, read_stream

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    stream_path = build_stream(workdir, batches, seed)

    checkpoint_file = workdir / CHECKPOINT_NAME
    resume_fallback: Optional[dict] = None
    cursor = 0
    if checkpoint_file.exists() or checkpoint_file.with_name(
        checkpoint_file.name + ".1"
    ).exists():
        try:
            restored = restore_checkpoint(checkpoint_file)
        except CheckpointError as error:
            # Nothing in the ring verified: start over from the snapshot
            # (cursor 0 replays the whole stream — slow but correct).
            print(f"chaos driver: no usable checkpoint ({error})")
            verifier = _fresh_verifier(seed)
        else:
            verifier = restored.verifier
            cursor = cursor_from_extras(restored.extras)
            if restored.fell_back:
                resume_fallback = {
                    "requested": str(restored.requested),
                    "used": str(restored.path),
                    "generation": restored.generation,
                    "skipped": [
                        {"path": str(p), "error": str(e)}
                        for p, e in restored.skipped
                    ],
                }
    else:
        verifier = _fresh_verifier(seed)

    options = ServeOptions(
        checkpoint_every=2,
        checkpoint_file=checkpoint_file,
        journal_file=workdir / JOURNAL_NAME,
        health_file=workdir / HEALTH_NAME,
        max_retries=1,
        backoff_base=0.0,
        breaker_threshold=0,
    )
    daemon = ServeDaemon(
        verifier,
        read_stream(stream_path),
        DeadLetterBox(workdir / DEADLETTER_NAME),
        options,
        resume_cursor=cursor,
        resume_fallback=resume_fallback,
    )
    stats = daemon.run()

    result = {
        "fib_fingerprint": fib_fingerprint(daemon.verifier),
        "cursor": daemon.cursor,
        "stream_batches": batches,
        "resume_cursor": cursor,
        "resume_fallback": resume_fallback,
        "journal_seq": daemon.journal.seq,
        "journal_degraded": daemon.journal.degraded,
        "batches_seen": stats.batches_seen,
        "batches_ok": stats.batches_ok,
        "quarantined": stats.quarantined,
        "quarantined_ids": list(stats.quarantined_ids),
        "checkpoint_failures": stats.checkpoint_failures,
        "skipped_on_resume": stats.skipped_on_resume,
    }
    _write_result(workdir, result)
    print(
        f"chaos driver: cursor {daemon.cursor}/{batches}, "
        f"fingerprint {result['fib_fingerprint'][:12]}, "
        f"{stats.quarantined} quarantined"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.driver", description=__doc__
    )
    parser.add_argument("workdir", help="scratch directory for this run")
    parser.add_argument(
        "--batches", type=int, default=DEFAULT_BATCHES, metavar="N"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S")
    args = parser.parse_args(argv)
    try:
        return run(Path(args.workdir), batches=args.batches, seed=args.seed)
    except Exception as error:  # noqa: BLE001 — workload error, exit 2
        print(f"chaos driver error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
