"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Like the tracer, metrics dispatch through a process-global registry whose
default is a no-op: ``get_metrics().counter(...)`` returns a shared inert
instrument unless a real :class:`MetricsRegistry` has been installed, so
instrumented hot paths pay only a lookup when metrics are off.

Instruments are keyed by ``(name, sorted label items)``; histograms use
fixed bucket boundaries declared at creation, so two runs of the same
workload produce byte-identical Prometheus expositions (no wall clock, no
RNG).  The metric name catalogue lives in :mod:`repro.telemetry.names`.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram boundaries for stage latencies, in seconds.  Spaced
#: roughly 2.5x from 100µs to 30s — wide enough for both a one-link change
#: on a small fat-tree and a full initial convergence at paper scale.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default boundaries for work counts per verification (records, moves...).
WORK_BUCKETS: Tuple[float, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500,
    1000, 2000, 5000, 10000, 50000, 100000, 1000000,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Cumulative histogram over fixed, sorted bucket boundaries.

    ``counts[i]`` counts observations ``<= boundaries[i]``; observations
    above the last boundary only land in the implicit ``+Inf`` bucket
    (tracked by ``count``).
    """

    __slots__ = ("name", "labels", "boundaries", "counts", "count", "total")

    def __init__(
        self, name: str, labels: LabelKey, boundaries: Sequence[float]
    ) -> None:
        if not boundaries:
            raise ValueError(f"histogram {name} needs at least one bucket")
        ordered = list(boundaries)
        if ordered != sorted(ordered):
            raise ValueError(f"histogram {name} boundaries must be sorted")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"histogram {name} boundaries must be distinct")
        self.name = name
        self.labels = labels
        self.boundaries: List[float] = ordered
        #: non-cumulative per-bucket counts; exposition cumulates.
        self.counts: List[int] = [0] * len(ordered)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        index = bisect.bisect_left(self.boundaries, value)
        if index < len(self.counts):
            self.counts[index] += 1

    def cumulative(self) -> List[int]:
        """Per-boundary cumulative counts (the Prometheus ``le`` series)."""
        out: List[int] = []
        running = 0
        for bucket in self.counts:
            running += bucket
            out.append(running)
        return out


class _NullInstrument:
    """Absorbs every instrument operation; shared singleton."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The do-nothing default registry."""

    enabled = False

    def counter(self, name: str, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT


class MetricsRegistry:
    """Creates-or-returns instruments keyed by name + labels."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        #: name -> help text, registered via describe().
        self.help: Dict[str, str] = {}

    def describe(self, name: str, text: str) -> None:
        self.help[name] = text

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(name, key[1], buckets)
        elif list(buckets) != instrument.boundaries:
            raise ValueError(
                f"histogram {name} re-declared with different buckets"
            )
        return instrument

    # -- introspection -------------------------------------------------------

    def counters(self) -> List[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def value(self, name: str, **labels: str) -> Optional[float]:
        """Current value of a counter or gauge (None when never touched)."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return float(self._counters[key].value)
        if key in self._gauges:
            return float(self._gauges[key].value)
        return None


#: The process-global registry instrumented code dispatches to.
_GLOBAL_METRICS: "NullMetrics | MetricsRegistry" = NullMetrics()


def get_metrics() -> "NullMetrics | MetricsRegistry":
    return _GLOBAL_METRICS


def set_metrics(
    registry: "NullMetrics | MetricsRegistry",
) -> "NullMetrics | MetricsRegistry":
    """Install the process-global registry; returns the previous one."""
    global _GLOBAL_METRICS
    previous = _GLOBAL_METRICS
    _GLOBAL_METRICS = registry
    return previous


def count(name: str) -> None:
    """Increment counter ``name`` on the installed registry (no-op when
    metrics are off)."""
    if _GLOBAL_METRICS.enabled:
        _GLOBAL_METRICS.counter(name).inc()


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the installed registry (no-op when metrics
    are off)."""
    if _GLOBAL_METRICS.enabled:
        _GLOBAL_METRICS.gauge(name).set(value)
