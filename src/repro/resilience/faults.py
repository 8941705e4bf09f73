"""Fault injection for resilience testing.

The pipeline calls :func:`fault_point` at its stage boundaries (data plane
generation, each model rule update, policy check, lint gate, commit).  In
production no plan is active and the call is a no-op dict lookup.  Tests
activate a :class:`FaultPlan` via :func:`inject` to make a specific stage
fail on a specific call — raising, corrupting the stage payload in place,
or stalling — and then assert that the transactional wrapper restores the
verifier to its pre-change state.

This module is intentionally dependency-free (stdlib only) so every layer
of the pipeline can import it without cycles.
"""

from __future__ import annotations

import errno as _errno
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Actions a fault spec may take when it fires.
ACTIONS = ("raise", "corrupt", "delay", "errno")


class FaultInjected(RuntimeError):
    """The default exception raised by a firing ``raise`` fault."""


@dataclass
class FaultSpec:
    """Fail stage ``stage`` on its ``call``-th invocation (1-based).

    - ``action="raise"`` raises ``exception`` (default :class:`FaultInjected`);
    - ``action="corrupt"`` calls ``mutate(payload)`` to damage the stage's
      in-flight payload, then lets the stage proceed;
    - ``action="delay"`` sleeps ``delay_seconds`` then proceeds;
    - ``action="errno"`` raises ``OSError(err, strerror)`` — a *storage*
      fault (``err`` defaults to ENOSPC) exactly as the OS would surface
      a full disk or failing device, so the degradation paths that catch
      ``OSError`` are exercised rather than the generic fault exception.

    ``repeat`` widens the spec to a run of consecutive calls: it fires on
    calls ``call .. call + repeat - 1`` (``repeat=0`` means every call from
    ``call`` onward).  The serving tests use this to make one batch fail
    across its entire retry budget — a *poison* batch rather than a
    transient hiccup.
    """

    stage: str
    call: int = 1
    action: str = "raise"
    mutate: Optional[Callable[[Any], None]] = None
    delay_seconds: float = 0.0
    exception: Optional[BaseException] = None
    repeat: int = 1
    err: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (expected one of {ACTIONS})"
            )
        if self.action == "corrupt" and self.mutate is None:
            raise ValueError("a 'corrupt' fault needs a mutate callable")
        if self.action == "errno" and self.err == 0:
            self.err = _errno.ENOSPC
        if self.call < 1:
            raise ValueError("call numbers are 1-based")
        if self.repeat < 0:
            raise ValueError("repeat must be >= 0 (0 = fire forever)")

    def matches(self, count: int) -> bool:
        if count < self.call:
            return False
        return self.repeat == 0 or count < self.call + self.repeat


@dataclass
class FaultPlan:
    """A set of fault specs plus the record of what fired.

    ``sleep`` is what a ``delay`` fault calls; a test that runs the code
    under a fake clock passes a sleeper that advances that clock, so the
    delay is deterministic instead of wall-clock time.
    """

    specs: Tuple[FaultSpec, ...]
    calls: Dict[str, int] = field(default_factory=dict)
    fired: List[Tuple[str, int, str]] = field(default_factory=list)
    sleep: Callable[[float], None] = time.sleep

    def __init__(
        self, *specs: FaultSpec, sleep: Callable[[float], None] = time.sleep
    ) -> None:
        self.specs = tuple(specs)
        self.calls = {}
        self.fired = []
        self.sleep = sleep

    def record(self, stage: str, payload: Any) -> None:
        """Count one invocation of ``stage``; fire any matching spec."""
        count = self.calls.get(stage, 0) + 1
        self.calls[stage] = count
        for spec in self.specs:
            if spec.stage != stage or not spec.matches(count):
                continue
            self.fired.append((stage, count, spec.action))
            if spec.action == "delay":
                self.sleep(spec.delay_seconds)
            elif spec.action == "corrupt":
                assert spec.mutate is not None
                spec.mutate(payload)
            elif spec.action == "errno":
                raise OSError(spec.err, os.strerror(spec.err))
            else:
                raise spec.exception or FaultInjected(
                    f"injected fault at stage {stage!r} (call {count})"
                )


_active: Optional[FaultPlan] = None


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    global _active
    _active = plan


def get_fault_plan() -> Optional[FaultPlan]:
    return _active


def fault_point(stage: str, payload: Any = None) -> None:
    """Pipeline hook: a no-op unless a fault plan is active."""
    if _active is not None:
        _active.record(stage, payload)


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block."""
    set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(None)
