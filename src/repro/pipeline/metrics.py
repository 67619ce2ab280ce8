"""Live metrics for the streaming monitor.

A long-running monitor is only operable if it can answer "is it
keeping up?" without being stopped: events per second, queue depths,
window lag, checkpoint age. This module is a dependency-free metrics
core — counters, gauges and fixed-bucket histograms collected in a
:class:`MetricsRegistry` — with two render surfaces:

* :meth:`MetricsRegistry.snapshot` — a JSON-serializable dict, written
  to disk by ``repro monitor --metrics-out`` (the CI artifact);
* :meth:`MetricsRegistry.render_text` — a Prometheus-style plain-text
  exposition.

A scrape does its work where a value moved, not on every read: a
registered family's HELP/TYPE head and a histogram's bucket label
prefixes are built once, at registration, and each family's rendered
lines are held beside the value they were rendered from (a counter's
or gauge's ``value``, a histogram's ``count``). A scrape re-renders
only the families whose value moved and joins held text for the
rest; collectors' families are built fresh at every scrape.

Serving either over HTTP is the serve layer's job
(:func:`repro.serve.app.serve_metrics`: ``/metrics`` for the text,
``/metrics.json`` for the snapshot, behind both ``repro serve`` and
``repro monitor --metrics-port``). This package does not import it.
A scrape runs on the event loop that feeds the pipeline, between two
batches, so the registry and its collectors read state nothing is
mutating.

The registry is deliberately *not* process-global (no module-level
mutable state — the PIPE001 rule polices exactly that pattern in
stages): the monitor owns one registry per run, so two monitors in one
process never share counters and a resumed run starts from a clean
slate.
"""

from __future__ import annotations

from bisect import insort
from itertools import accumulate
from typing import Callable, Iterable, Sequence

#: Default histogram buckets (seconds): tuned for window-lag style
#: latencies, microseconds through a minute.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_value(self) -> float:
        return self.value

    def render(self) -> list[str]:
        return [f"{self.name} {_format_number(self.value)}"]


class Gauge:
    """A value that goes up and down (queue depth, checkpoint age)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def to_value(self) -> float:
        return self.value

    def render(self) -> list[str]:
        return [f"{self.name} {_format_number(self.value)}"]


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Bounds are upper bucket edges; observations above the last bound
    land in an implicit overflow bucket. Quantiles interpolate to a
    bucket's upper bound (the overflow bucket answers with the maximum
    observed value), which is the usual fixed-bucket trade-off: cheap,
    bounded memory, and monotonic — good enough to tell a 5 ms window
    lag from a 5 s one, which is what the p99 gauge is for.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.help = help
        self.bounds = tuple(float(b) for b in bounds)
        #: Each finite bucket's exposition line up to its count.
        self._bucket_prefixes = [
            f'{name}_bucket{{le="{_format_number(bound)}"}} '
            for bound in self.bounds
        ]
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        """The value at quantile *q* in [0, 1], 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[index]
            if cumulative >= target:
                return min(bound, self.max)
        return self.max

    def to_value(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": {
                _format_number(bound): count
                for bound, count in zip(self.bounds, self.bucket_counts)
            },
            "overflow": self.bucket_counts[-1],
        }

    def render(self) -> list[str]:
        lines = [
            prefix + str(cumulative)
            for prefix, cumulative in zip(
                self._bucket_prefixes, accumulate(self.bucket_counts)
            )
        ]
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_number(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class LabelledGauge:
    """Gauges keyed by one label: ``name{label="key"} value`` per key."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, label: str, values: dict[str, float]
    ) -> None:
        self.name = name
        self.help = help
        self.label = label
        self.values = values

    def to_value(self) -> dict[str, float]:
        return self.values

    def render(self) -> list[str]:
        return [
            f'{self.name}{{{self.label}="{key}"}} {_format_number(value)}'
            for key, value in self.values.items()
        ]


Metric = Counter | Gauge | Histogram | LabelledGauge
#: Called at every scrape; returns metrics built fresh from owned state.
Collector = Callable[[], Iterable[Metric]]


def _head(metric: Metric) -> str:
    """A family's ``# HELP`` (if it has help) and ``# TYPE`` lines."""
    type_line = f"# TYPE {metric.name} {metric.kind}"
    if metric.help:
        return f"# HELP {metric.name} {metric.help}\n{type_line}"
    return type_line


def _family_text(head: str, metric: Metric) -> str:
    return "\n".join((head, *metric.render()))


#: What a held family's text was rendered from before its first scrape.
_NEVER = object()


class _Family:
    """A registered metric, its head, and its text held between moves.

    A counter's or gauge's ``value`` moves with every ``inc``/``set``
    that changes it, a histogram's ``count`` with every ``observe``:
    while that value stands, the held text is what a render would
    give.
    """

    __slots__ = ("metric", "head", "field", "rendered_from", "text")

    def __init__(self, metric: Metric) -> None:
        self.metric = metric
        self.head = _head(metric)
        self.field = "count" if isinstance(metric, Histogram) else "value"
        self.rendered_from: object = _NEVER
        self.text = ""

    def render(self) -> str:
        value = getattr(self.metric, self.field)
        if value != self.rendered_from:
            self.text = _family_text(self.head, self.metric)
            self.rendered_from = value
        return self.text


class MetricsRegistry:
    """A named collection of metrics, one per monitor run.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    pipeline, the window stage and the monitor loop can all reach for
    ``registry.counter("repro_pipeline_events_total")`` without
    coordinating construction. Re-requesting a name with a different
    metric kind is a programming error and raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: The same families in name order, kept at registration.
        self._sorted: list[_Family] = []
        self._collectors: list[Collector] = []

    def register_collector(self, collector: Collector) -> None:
        """Attach a collector called fresh at every scrape.

        A collector computes its metrics from owned state at render
        time (e.g. incident ages from the current incident set) instead
        of pushing updates into the registry. Its metrics follow the
        registered ones on both exposition surfaces.
        """
        self._collectors.append(collector)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, bounds)

    def _get_or_create(self, cls: type, name: str, help: str, *args):
        family = self._families.get(name)
        if family is None:
            family = _Family(cls(name, help, *args))
            self._families[name] = family
            insort(self._sorted, family, key=lambda held: held.metric.name)
        elif not isinstance(family.metric, cls):
            raise ValueError(
                f"metric {name!r} is a {family.metric.kind},"
                f" not a {cls.kind}"
            )
        return family.metric

    def _collected(self) -> list[Metric]:
        """Every collector's metrics, built fresh."""
        return [
            metric
            for collector in self._collectors
            for metric in collector()
        ]

    def snapshot(self) -> dict[str, object]:
        """JSON-serializable view of every metric, keyed by name.

        Registered metrics in name order, then each collector's.
        """
        values = {
            family.metric.name: family.metric.to_value()
            for family in self._sorted
        }
        for metric in self._collected():
            values[metric.name] = metric.to_value()
        return values

    def render_text(self) -> str:
        """Prometheus-style plain-text exposition.

        Registered families in name order, each re-rendered only if its
        value moved since the last scrape, then each collector's.
        """
        parts = [family.render() for family in self._sorted]
        parts.extend(
            _family_text(_head(metric), metric)
            for metric in self._collected()
        )
        return "\n".join(parts) + "\n"


def _format_number(value: float) -> str:
    """Render 3 as ``3`` and 0.25 as ``0.25`` (no trailing zeros), and
    the non-finite values as the Prometheus text format spells them:
    ``NaN``, ``+Inf``, ``-Inf``."""
    try:
        if value == int(value):
            return str(int(value))
    except (ValueError, OverflowError):  # int() of NaN, of ±Inf
        if value != value:
            return "NaN"
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)

