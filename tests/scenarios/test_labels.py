"""Unit tests for the v2 label schema."""

import dataclasses
import json

import pytest

from repro.net.prefix import Prefix
from repro.scenarios.labels import (
    IncidentClass,
    LabeledIncident,
    ScenarioDetails,
    TimeWindow,
)
from tests.collector.test_stream import event


def stream_fixture(n=6):
    from repro.collector.stream import EventStream

    return EventStream([event(10.0 + float(t)) for t in range(n)])


class TestScenarioDetails:
    def test_mapping_protocol(self):
        details = ScenarioDetails(flap_count=10, period=60.0, tag="x")
        assert details["flap_count"] == 10
        assert details["period"] == 60.0
        assert len(details) == 3
        assert set(details) == {"flap_count", "period", "tag"}
        assert details.get("missing") is None
        assert "flap_count" in details

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            ScenarioDetails(a=1)["b"]

    def test_no_item_assignment(self):
        details = ScenarioDetails(a=1)
        with pytest.raises(TypeError):
            details["a"] = 2  # type: ignore[index]

    def test_lists_become_int_tuples(self):
        details = ScenarioDetails(path=[7018, 64900])
        assert details["path"] == (7018, 64900)

    def test_rejects_non_int_tuple(self):
        with pytest.raises(TypeError, match="all-int"):
            ScenarioDetails(path=(1, "a"))

    def test_rejects_unsupported_value_type(self):
        with pytest.raises(TypeError, match="unsupported type"):
            ScenarioDetails(nested={"a": 1})

    def test_equality_with_plain_mapping(self):
        details = ScenarioDetails(a=1, b="x")
        assert details == {"a": 1, "b": "x"}
        assert details == ScenarioDetails(a=1, b="x")
        assert details != {"a": 2, "b": "x"}

    def test_hashable(self):
        assert hash(ScenarioDetails(a=1)) == hash(ScenarioDetails(a=1))

    def test_to_dict_json_round_trip(self):
        details = ScenarioDetails(path=(1, 2, 3), rate=0.5, on=True)
        plain = details.to_dict()
        assert plain["path"] == [1, 2, 3]
        assert json.loads(json.dumps(plain)) == plain
        assert ScenarioDetails.from_mapping(plain) == details


class TestTimeWindow:
    def test_duration(self):
        assert TimeWindow(10.0, 70.0).duration == 60.0

    def test_end_before_start_raises(self):
        with pytest.raises(ValueError, match="ends before"):
            TimeWindow(10.0, 5.0)

    def test_overlap_semantics(self):
        window = TimeWindow(100.0, 200.0)
        assert window.overlaps(150.0, 160.0)
        assert window.overlaps(50.0, 101.0)
        assert window.overlaps(199.0, 300.0)
        assert not window.overlaps(0.0, 100.0)
        assert not window.overlaps(200.0, 300.0)

    def test_zero_length_window_overlaps_containing_span(self):
        instant = TimeWindow(50.0, 50.0)
        assert instant.overlaps(0.0, 100.0)
        assert instant.overlaps(50.0, 60.0)
        assert not instant.overlaps(60.0, 100.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TimeWindow(0.0, 1.0).start = 5.0  # type: ignore[misc]


class TestLabeledIncident:
    def build(self, **kwargs):
        defaults = dict(
            name="test-incident",
            incident_class=IncidentClass.BURST,
            stream=stream_fixture(),
            true_stems=((100, 200), (200, 300)),
            affected_prefixes=frozenset({Prefix.parse("10.0.0.0/24")}),
            window=TimeWindow(10.0, 16.0),
            details=ScenarioDetails(bursts=4),
            seed=7,
        )
        defaults.update(kwargs)
        return LabeledIncident(**defaults)

    def test_frozen(self):
        incident = self.build()
        with pytest.raises(dataclasses.FrozenInstanceError):
            incident.name = "other"  # type: ignore[misc]

    def test_true_stem_is_first_of_true_stems(self):
        assert self.build().true_stem == (100, 200)
        assert self.build(true_stems=()).true_stem is None

    def test_labels_dict_is_json_serializable(self):
        labels = self.build().labels_dict()
        assert labels["name"] == "test-incident"
        assert labels["class"] == "burst"
        assert labels["seed"] == 7
        assert labels["true_stems"] == [["100", "200"], ["200", "300"]]
        assert labels["affected_prefixes"] == ["10.0.0.0/24"]
        assert labels["window"] == {"start": 10.0, "end": 16.0}
        assert labels["events"] == 6
        assert labels["details"] == {"bursts": 4}
        round_tripped = json.loads(self.build().labels_json())
        assert round_tripped["fingerprint"] == labels["fingerprint"]
