"""Per-layer tracing from outside the program.

The ledger measures each layer (= module under ``src/repro/``) without
touching it: for the duration of a traced run, :class:`Tracer` replaces a
fixed list of *public* callables with wrappers that record one in-memory
span per call — name, start, end, the span that caused it, and the
operation it belongs to — plus the work counts the callable's return
value already carries.  Spans are kept in memory and written out once,
after the run.

A layer's *self time* is its span's duration minus the part its child
spans cover, so the self times of one operation sum to the operation's
wall time with nothing left over; what no wrapped callable covers stays
on the enclosing span (``core.verify`` for the verifier, ``op`` for the
serving shell) and is reported as such, not dropped.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Name of the root span of every operation.
OP = "op"


class Target(NamedTuple):
    """One public callable to wrap: ``owner.attr``, recorded as ``name``."""

    owner: Any
    attr: str
    name: str
    #: Work counts read off the callable's return value.
    counts: Optional[Callable[[Any], Dict[str, float]]] = None
    #: A leaf span swallows the wrapped calls beneath it.
    leaf: bool = False


def default_targets() -> List[Target]:
    """The public callables the ledger wraps, one span name per layer.

    ``leaf`` spans swallow the wrapped calls beneath them: a checkpoint
    write captures component state too, and that time belongs to the
    checkpoint, not to the transaction's capture.
    """
    import repro.core.realconfig as realconfig
    from repro.core.generator import IncrementalDataPlaneGenerator
    from repro.dataplane.batch import BatchUpdater
    from repro.dataplane.model import NetworkModel
    from repro.ddlog.engine import Engine
    from repro.lint.framework import LintRunner
    from repro.obs.journal import EventJournal
    from repro.policy.checker import IncrementalChecker
    from repro.serve.daemon import ServeDaemon

    capture = "core.txn_capture"
    return [
        Target(
            realconfig.RealConfig,
            "apply_changes",
            "core.verify",
            lambda delta: {"stage_seconds": delta.timings.total},
        ),
        # repro.config.changes.apply_changes, through the name the
        # verifier calls it by.
        Target(
            realconfig,
            "apply_changes",
            "config.diff",
            lambda result: {"diff_lines": result[1].size()},
        ),
        Target(
            LintRunner,
            "run_incremental",
            "lint.gate",
            lambda result: {
                "objects_scanned": result.objects_scanned,
                "objects_total": result.objects_total,
            },
        ),
        Target(
            IncrementalDataPlaneGenerator,
            "update_to",
            "routing.generation",
            lambda updates: {"rule_updates": len(updates)},
        ),
        Target(
            Engine,
            "run_epoch",
            "ddlog.epoch",
            lambda stats: {
                "records": stats.records,
                "recompute_calls": stats.recompute_calls,
                "iterations": stats.iterations,
            },
        ),
        Target(
            BatchUpdater,
            "apply",
            "dataplane.update",
            lambda batch: {
                "ec_moves": len(batch.moves),
                "ec_splits": batch.ec_splits,
            },
        ),
        Target(
            IncrementalChecker,
            "check_batch",
            "policy.check",
            lambda report: {
                "affected_ecs": len(report.affected_ecs),
                "policies_rechecked": report.policies_rechecked,
                "analysis_seconds": report.analysis_seconds,
            },
        ),
        Target(IncrementalDataPlaneGenerator, "capture_state", capture, leaf=True),
        Target(NetworkModel, "capture_state", capture, leaf=True),
        Target(IncrementalChecker, "capture_state", capture, leaf=True),
        Target(ServeDaemon, "write_checkpoint", "serve.checkpoint", leaf=True),
        Target(EventJournal, "emit", "obs.journal_emit", leaf=True),
    ]


def interleave(operations: List[Any]) -> List[Any]:
    """Every do/undo pair twice in a row: ``a b c d`` -> ``a b a b c d c d``.

    A traced run executes one such stream and traces one execution of each
    pair (:func:`interleaved`), so every traced operation has an untraced
    twin — the same change applied to the same state moments apart — and
    the tracing overhead is a ratio of twins, free of whatever else
    differs between two passes or two processes."""
    doubled: List[Any] = []
    for start in range(0, len(operations) - 1, 2):
        doubled += operations[start : start + 2] * 2
    return doubled


def interleaved(op: int) -> bool:
    """Whether operation ``op`` of an :func:`interleave` stream is the
    traced execution of its pair: the second one in even blocks of four,
    the first one in odd blocks, so neither order is favoured."""
    return (op // 2 + op // 4) % 2 == 1


class Tracer:
    """Records spans of wrapped callables while a traced operation is
    open.  ``traces(op)`` picks the operations to trace; for the others
    the wrappers pass straight through."""

    def __init__(self, traces: Callable[[int], bool]) -> None:
        self._traces = traces
        #: One ``[name, start, end, parent, op, counts]`` list per span;
        #: ``parent`` indexes this list (``None`` for an operation's root).
        self.spans: List[List[Any]] = []
        self._open: List[int] = []
        self._op: Optional[int] = None
        self._in_leaf = False
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for target in default_targets():
            original = getattr(target.owner, target.attr)
            self._patched.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, target: Target) -> Callable:
        name, counts, leaf = target.name, target.counts, target.leaf

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Outside a traced operation and beneath a leaf span, calls
            # pass through unrecorded.
            if self._op is None or self._in_leaf:
                return original(*args, **kwargs)
            index = self._begin(name)
            self._in_leaf = leaf
            try:
                result = original(*args, **kwargs)
            finally:
                self._in_leaf = False
                self._end(index)
            if counts is not None:
                self.spans[index][5] = counts(result)
            return result

        return traced

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self._open.append(index)
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def begin_op(self, op: int) -> None:
        """Operation ``op`` starts: if it is one to trace, every span
        until :meth:`end_op` is its."""
        if self._traces(op):
            self._op = op
            self._begin(OP)

    def end_op(self) -> None:
        if self._op is not None:
            self._end(self._open[0])
            self._op = None

    # -- output ---------------------------------------------------------------

    def write(self, path: Path, **header: Any) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        document = dict(header)
        document["spans"] = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "op": op,
                "counts": counts or {},
            }
            for name, start, end, parent, op, counts in self.spans
        ]
        path.write_text(json.dumps(document, indent=1) + "\n")


def summarize(spans: List[List[Any]]) -> Dict[int, Dict[str, Dict[str, float]]]:
    """Per operation: ``{"self": {span name: self seconds}, "counts":
    {"<span name>.<count>": sum, "<span name>.calls": calls}}``.  The
    self times of one operation sum to its root span's duration."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    ops: Dict[int, Dict[str, Dict[str, float]]] = {}
    for index, (name, start, end, _, op, counts) in enumerate(spans):
        entry = ops.setdefault(op, {"self": {}, "counts": {}})
        self_times, totals = entry["self"], entry["counts"]
        self_times[name] = self_times.get(name, 0.0) + (end - start) - covered[index]
        totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    return ops
