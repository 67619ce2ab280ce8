"""Shared fixtures for the streaming-monitor tests.

Monitor runs here are deliberately small (a few hundred routes, a few
thousand events) — the determinism properties under test do not depend
on scale, and the monitor's throughput and report latency are
measured by ``bench/``'s ``monitor_*`` workloads.
"""

import pytest

import repro.collector.events
import repro.tamp.incremental
from repro.collector.events import BGPEvent
from repro.pipeline import MonitorConfig, SyntheticSource


def small_source() -> SyntheticSource:
    """A fresh deterministic feed; call again for an identical one."""
    return SyntheticSource(1600, 600.0, seed=7, n_routes=400)


def count_encodes(monkeypatch) -> list[BGPEvent]:
    """Wrap ``BGPEvent.to_json``; the returned list grows by the event
    encoded at each call, for tests that pin how often encoding runs."""
    encoded: list[BGPEvent] = []
    to_json = BGPEvent.to_json

    def counting(event: BGPEvent) -> str:
        encoded.append(event)
        return to_json(event)

    monkeypatch.setattr(BGPEvent, "to_json", counting)
    return encoded


def count_lines(monkeypatch) -> list[tuple]:
    """Wrap the line assembler ``event_json`` wherever it is called
    from; the returned list grows by the arguments of each call."""
    assembled: list[tuple] = []
    event_json = repro.collector.events.event_json

    def counting(*fields) -> str:
        assembled.append(fields)
        return event_json(*fields)

    for module in (repro.collector.events, repro.tamp.incremental):
        monkeypatch.setattr(module, "event_json", counting)
    return assembled


@pytest.fixture
def sliding_config() -> MonitorConfig:
    return MonitorConfig(
        window=120.0, slide=60.0, batch_size=64, checkpoint_every=1
    )


@pytest.fixture
def tumbling_config() -> MonitorConfig:
    return MonitorConfig(window=150.0, batch_size=64, checkpoint_every=3)
