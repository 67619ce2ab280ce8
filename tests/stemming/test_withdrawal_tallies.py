"""Per-sequence withdrawal tallies.

Each :class:`StemIndex` bucket keeps how many of its events are
withdrawals, updated at admission and at eviction, and an extraction
sums the popped buckets into ``Component.withdrawals``. Whatever got
the index where it is — a batch load, adds, evictions, the window
stage's reload once its symbol table has doubled — every component's
tally must equal a count over its events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.collector.events import EventKind
from repro.net.prefix import Prefix
from repro.pipeline.runtime import Batch
from repro.pipeline.windows import WindowedStemmer, WindowReport
from repro.stemming.stemmer import Stemmer
from repro.stemming.weighted import TrafficWeightedStemmer
from tests.stemming.test_stemmer import mk_event

KINDS = (EventKind.WITHDRAW, EventKind.ANNOUNCE)

#: (peer, path, prefix, kind): few enough values that sequences repeat
#: and mix both kinds in one bucket.
tally_spec = st.tuples(
    st.integers(1, 4),
    st.sampled_from(
        ["100 200 300", "100 200 400", "100 500", "600", "700 800"]
    ),
    st.integers(0, 7),
    st.sampled_from(KINDS),
)


def events_of(specs, start=0.0):
    return [
        mk_event(
            start + i, f"1.1.1.{peer}", "2.2.2.2", path,
            f"10.0.{prefix}.0/24", kind=kind,
        )
        for i, (peer, path, prefix, kind) in enumerate(specs)
    ]


def withdrawn(events) -> int:
    return sum(event.kind is EventKind.WITHDRAW for event in events)


def assert_tallied(result) -> None:
    for component in result.components:
        assert component.withdrawals == withdrawn(component.events)


def assert_buckets_tallied(index) -> None:
    for bucket in index.by_ids.values():
        assert bucket.withdrawals == withdrawn(bucket)


class TallyIndex(RuleBasedStateMachine):
    """A slid :class:`StemIndex` under generated adds and evictions."""

    def __init__(self):
        super().__init__()
        self.stemmer = Stemmer(min_strength=1)
        self.index = self.stemmer.load([])
        self.held = []
        self.clock = 0.0

    @rule(specs=st.lists(tally_spec, min_size=1, max_size=12))
    def add(self, specs):
        batch = events_of(specs, self.clock)
        self.clock += len(batch)
        self.index.add(batch)
        self.held.extend(batch)

    @precondition(lambda self: self.held)
    @rule(data=st.data())
    def remove_oldest(self, data):
        count = data.draw(st.integers(1, len(self.held)))
        self.index.remove(count)
        del self.held[:count]

    @invariant()
    def every_bucket_counts_its_withdrawals(self):
        assert_buckets_tallied(self.index)

    @invariant()
    def slid_and_batch_components_are_tallied(self):
        assert_tallied(self.stemmer.extract(self.index))
        assert_tallied(self.stemmer.decompose(self.held))


TallyIndex.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)
TestTallyIndex = TallyIndex.TestCase


def window_reports(stage, events, batch_size):
    reports = []
    for start in range(0, len(events), batch_size):
        chunk = tuple(events[start:start + batch_size])
        batch = Batch(chunk, start, start + len(chunk))
        reports.extend(stage.process(batch))
    reports.extend(stage.flush())
    return [item for item in reports if isinstance(item, WindowReport)]


class TestWindowStage:
    @settings(max_examples=40, deadline=None)
    @given(
        specs=st.lists(tally_spec, min_size=1, max_size=120),
        geometry=st.sampled_from([(8.0, 3.0), (12.0, 12.0), (20.0, 1.0)]),
        batch_size=st.integers(1, 32),
    )
    def test_every_report_is_tallied(self, specs, geometry, batch_size):
        stage = WindowedStemmer(*geometry, min_strength=1)
        reports = window_reports(stage, events_of(specs), batch_size)
        assert reports
        for report in reports:
            assert_tallied(report.result)

    def test_through_the_reload_on_doubling(self, monkeypatch):
        """Ever-new prefixes double the symbol table, so the stage drops
        its index and loads the buffer again."""
        loads = []
        load = Stemmer.load

        def counting(self, events):
            loads.append(len(events))
            return load(self, events)

        monkeypatch.setattr(Stemmer, "load", counting)
        events = [
            mk_event(
                float(i), f"1.1.1.{i % 3 + 1}", "2.2.2.2",
                ("100 200", "100 300")[i % 2],
                f"10.{i // 256}.{i % 256}.0/24",
                kind=KINDS[i % 3 == 0],
            )
            for i in range(400)
        ]
        reports = window_reports(
            WindowedStemmer(20.0, 5.0, min_strength=1), events, 7
        )
        assert len(loads) > 2
        assert any(report.result.components for report in reports)
        for report in reports:
            assert_tallied(report.result)


class TestWeighted:
    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(tally_spec, min_size=1, max_size=60))
    def test_weighted_components_are_tallied(self, specs):
        assert_tallied(
            TrafficWeightedStemmer(
                {Prefix.parse("10.0.1.0/24"): 50.0}
            ).decompose(events_of(specs))
        )
