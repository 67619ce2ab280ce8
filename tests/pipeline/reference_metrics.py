"""The exposition renderer as it was before families were held.

A reference for the equivalence test: it walks every metric and
formats every line at every call, exactly as ``MetricsRegistry
.render_text`` once did. It reads only the metrics' public state, so
it shares no code with the renderer under test.
"""

from repro.pipeline.metrics import Histogram, LabelledGauge


def format_number(value):
    """Render 3 as ``3`` and 0.25 as ``0.25`` (no trailing zeros)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


def render(metric):
    """One metric's exposition lines."""
    if isinstance(metric, Histogram):
        lines = []
        cumulative = 0
        for bound, count in zip(metric.bounds, metric.bucket_counts):
            cumulative += count
            lines.append(
                f'{metric.name}_bucket{{le="{format_number(bound)}"}}'
                f" {cumulative}"
            )
        lines.append(f'{metric.name}_bucket{{le="+Inf"}} {metric.count}')
        lines.append(f"{metric.name}_sum {format_number(metric.sum)}")
        lines.append(f"{metric.name}_count {metric.count}")
        return lines
    if isinstance(metric, LabelledGauge):
        return [
            f'{metric.name}{{{metric.label}="{key}"}} {format_number(value)}'
            for key, value in metric.values.items()
        ]
    return [f"{metric.name} {format_number(metric.value)}"]


def render_text(registered, collectors):
    """*registered* metrics by name, then each collector's, as text."""
    metrics = sorted(registered, key=lambda metric: metric.name)
    for collector in collectors:
        metrics.extend(collector())
    lines = []
    for metric in metrics:
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        lines.extend(render(metric))
    return "\n".join(lines) + "\n"
