"""The monitor's output bytes, pinned.

Every other monitor test compares a run with another run of the same
tree (a resume, a sharded feed), so a drift that moves both alike
passes them. This one compares three small runs with SHA-256 digests
committed in ``output_digests.json``: the reports' ``to_dict()`` JSON,
``incidents.jsonl``, the final checkpoint file and the incident rows
the sqlite store hands back.

A change that moves the output on purpose regenerates the file and
commits it with the change::

    PYTHONPATH=src python -m tests.pipeline.test_output_digests

writes ``tests/pipeline/output_digests.json`` in place.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.incidents import load_incident_rows
from repro.pipeline import MonitorConfig, SyntheticSource, run_monitor

DIGESTS = Path(__file__).with_name("output_digests.json")

#: (window, slide) geometries, seconds.
GEOMETRIES = ((120, 60), (600, 60), (60, 15))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lines(items) -> bytes:
    return "\n".join(
        json.dumps(item, sort_keys=True) for item in items
    ).encode()


def run_digests(window: int, slide: int, work: Path) -> dict[str, str]:
    """Digests of one monitor run checkpointed into *work*."""
    result = run_monitor(
        SyntheticSource(3000, 1800.0, seed=5),
        MonitorConfig(
            window=float(window),
            slide=float(slide),
            batch_size=64,
            resolve_after=300.0,
        ),
        checkpoint_dir=work,
    )
    final = sorted(work.glob("checkpoint-*.json"))[-1]
    return {
        "reports": _sha(_lines(r.to_dict() for r in result.reports)),
        "incidents_jsonl": _sha((work / "incidents.jsonl").read_bytes()),
        "checkpoint": _sha(final.read_bytes()),
        "checkpoint_name": final.name,
        "incident_rows": _sha(
            _lines(r.to_dict() for r in load_incident_rows(work))
        ),
    }


def _key(window: int, slide: int) -> str:
    return f"{window}/{slide}"


@pytest.mark.parametrize("window,slide", GEOMETRIES)
def test_output_bytes_match_pinned_digests(window, slide, tmp_path):
    expected = json.loads(DIGESTS.read_text())[_key(window, slide)]
    assert run_digests(window, slide, tmp_path) == expected


def main() -> None:
    out = {}
    for window, slide in GEOMETRIES:
        with tempfile.TemporaryDirectory() as work:
            out[_key(window, slide)] = run_digests(window, slide, Path(work))
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
