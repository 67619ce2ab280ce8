"""The examples must stay runnable: they are the public API's contract."""

import py_compile
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert len(ALL_EXAMPLES) >= 3


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_quickstart_runs_end_to_end(tmp_path):
    """Execute the quickstart in a subprocess; it must report detection
    and write its SVG output."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert "matches injected incident: True" in result.stdout
    assert (EXAMPLES_DIR / "output" / "berkeley_picture.svg").exists()


def test_live_detection_finds_the_oscillation_in_the_long_window():
    main = runpy.run_path(str(EXAMPLES_DIR / "live_detection.py"))["main"]
    by_window = main()
    assert len(by_window) == 3
    top = by_window[max(by_window)].strongest
    # The one oscillating prefix, behind the AS both of its paths share.
    assert top.location[0] == 4545
    assert len(top.prefixes) == 1
    assert top.location[1] in top.prefixes


def test_routeviews_mrt_grows_an_incident_holding_the_leak(tmp_path):
    main = runpy.run_path(str(EXAMPLES_DIR / "routeviews_mrt.py"))["main"]
    result = main(tmp_path)
    assert (tmp_path / "updates.incident.mrt").exists()
    assert result.stopped == "end" and result.reports
    stems = {
        stem
        for record in result.incidents.all_incidents()
        for stem in (record.stem, *record.related_stems)
    }
    assert ("11423", "209") in stems  # route_leak's labeled true stem
