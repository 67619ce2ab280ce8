"""A clock that runs at the machine's current speed.

The boxes this benchmark runs on are small shared VMs whose effective
CPU speed wanders by tens of percent over seconds (measured here: the
same pure-Python loop takes 36 to 62 ms inside one minute), which is
wider than any regression bound worth having. Wall-clock seconds
therefore cannot be compared between two runs, let alone two commits.

:class:`Meter` measures the drift instead of ignoring it. Every
:data:`PERIOD` of wall time it times a fixed spin loop — plain
interpreter work, nothing from the program under test — and from then
until the next sample it advances *calibrated seconds* at
``NOMINAL / spin_time`` per wall second; while the spin itself runs,
calibrated time stands still, so sampling costs the measured code
nothing. One calibrated second is thus a fixed amount of interpreter
work (``1 / NOMINAL`` spins), whatever the host is doing. On this box
in its fast state it is about one wall second.

A spin is timed cold, right after whatever the program was doing, on
purpose: a spin repeated until its data sits in cache runs a third
faster and follows the program's slowdowns worse (8.6 % deviation
left on ``monitor_durable`` repeats against 5.9 %), because much of
what slows a shared host is its memory system. The price is that the
sample also sees how much cache the program itself just used.

Everything the benchmark times — repeats, report delays, request
latencies, set-up, spans — is read from :meth:`Meter.now`, and the
open-loop schedules the bench owns are laid out on it as well, so the
offered load stays the same fraction of what the machine can do.
CPU time comes from the kernel in wall units and is converted with the
run's average speed.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Wall seconds one spin takes on the reference box when nothing else
#: runs, and the wall seconds between samples (a tick sooner than that
#: is free). Changing the spin or ``NOMINAL`` redefines the calibrated
#: second, so neither may change between compared commits.
NOMINAL = 0.0011
PERIOD = 0.02

_RECORD = {f"k{i}": [i, str(i) * 3, i * 0.5] for i in range(12)}
#: Too big for a core's own caches, small enough not to show in
#: ``peak_rss_mb``: reads from it go to the cache the host shares out.
_HEAP = bytearray(8 << 20)


def _spin(at: int) -> int:
    """A fixed mix of what an interpreter spends its time on.

    Integer and dict work, tuple building, sorting and hashing, JSON
    and SHA-256 and string formatting, and scattered reads over a
    few megabytes — in one host slowdown these do not all slow by the
    same factor, and a mix tracks the program (which does all of
    them) closer than any one alone: measured against
    ``monitor_overlap`` repeats, an arithmetic loop alone left 5.1 % of
    run-to-run deviation, the mix without the scattered reads 4.3 %,
    with them 3.4 %.
    """
    table: dict[int, int] = {}
    total = 0
    for turn in range(2000):
        table[turn & 255] = total
        total += turn * turn % 7
    items = [(i * 7919 % 1009, i & 15, str(i & 63)) for i in range(400)]
    items.sort()
    seen: dict[tuple, int] = {}
    for item in items:
        seen[item] = seen.get(item, 0) + 1
    for turn in range(4):
        text = json.dumps(_RECORD, sort_keys=True)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        total += len(f"{turn}:{total}:{digest[:8]}")
    for _ in range(1500):
        at = (at * 1103515245 + 12345) % len(_HEAP)
        total += _HEAP[at]
    return at if total + len(seen) else 0


class Meter:
    """Calibrated seconds since construction; see the module docstring."""

    def __init__(self) -> None:
        self._wall = time.perf_counter
        self._base_wall = self._wall()
        self._base_now = 0.0
        #: Calibrated seconds per wall second since the last sample.
        self.speed = 1.0
        self.samples = 0
        #: Wall seconds spent spinning so far (they are CPU seconds too).
        self.spin_wall = 0.0
        #: Where the spin's scattered reads go on: a new place each time.
        self._cursor = 1
        self.sample()

    def now(self) -> float:
        return self._base_now + (self._wall() - self._base_wall) * self.speed

    def sample(self) -> None:
        """Time one spin and adopt its speed from here on."""
        started = self._wall()
        self._base_now += (started - self._base_wall) * self.speed
        self._cursor = _spin(self._cursor)
        ended = self._wall()
        self._base_wall = ended
        self.speed = NOMINAL / (ended - started)
        self.spin_wall += ended - started
        self.samples += 1

    def tick(self) -> None:
        """Sample if a :data:`PERIOD` has passed; call this often."""
        if self._wall() - self._base_wall >= PERIOD:
            self.sample()

    def wall_until(self, at: float) -> float:
        """Wall seconds from now until calibrated time *at* (<= 0: late)."""
        return (at - self.now()) / self.speed

    def sleep_until(self, at: float) -> float:
        """Block until *at*; returns how late (calibrated s) it was."""
        while True:
            delay = self.wall_until(at)
            if delay <= 0:
                return -delay * self.speed
            # Sleep at most one period, then look at the speed again.
            time.sleep(min(delay, PERIOD))
            self.tick()


class Lap:
    """Calibrated elapsed and CPU seconds of one ``with`` block."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.seconds = 0.0
        self.cpu = 0.0
        #: Plain wall seconds, for what a wall-clock schedule fixes,
        #: and the block's mean calibrated seconds per wall second.
        self.wall = 0.0
        self.speed = 1.0

    def __enter__(self) -> "Lap":
        meter = self.meter
        meter.sample()
        self._now = meter.now()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        self._spun = meter.spin_wall
        return self

    def __exit__(self, *exc_info: object) -> None:
        meter = self.meter
        cpu = time.process_time() - self._cpu
        self.wall = wall = time.perf_counter() - self._wall
        self.seconds = meter.now() - self._now
        spun = meter.spin_wall - self._spun
        # The spins burned CPU and wall alike; neither is the
        # program's. What is left converts at the block's mean speed.
        self.speed = self.seconds / (wall - spun)
        self.cpu = (cpu - spun) * self.speed
