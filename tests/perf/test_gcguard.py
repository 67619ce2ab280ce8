"""``gc_paused`` leaves the collector the way it found it."""

import gc

import pytest

from repro.perf import gc_paused


@pytest.fixture(autouse=True)
def restore_collector():
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_collector_paused_inside_and_enabled_after():
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_collector_enabled_again_after_an_exception():
    gc.enable()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("build failed")
    assert gc.isenabled()


def test_already_disabled_collector_stays_disabled():
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_guards_restore_only_at_the_outermost_exit():
    gc.enable()
    with gc_paused():
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
