"""In-memory spans recorded from outside the program under test.

A span is ``(name, start, end, parent, window_index)``. Names are
``<layer>.<operation>`` with the layer prefixes of ``bench/README.md``;
``parent`` is the index of the span that caused this one (``None`` for
the root) and ``window_index`` the window the pipeline was in, where
the caller can tell; times are read from the clock the tracer is given
(the benchmark's calibrated clock, ``bench/clock.py``). Spans live in
a list until the pass ends.

Two ways to open one, both from bench code only:

* :meth:`Tracer.span` / :meth:`Tracer.begin` around a call the bench
  makes itself;
* :meth:`Tracer.wrap`, which rebinds a *bound method on one instance*
  so calls the program makes into that object (a ``Pipeline`` calling
  ``stage.process``, a ``PipelineShard`` calling ``store.save``) are
  spanned too; :meth:`Tracer.proxy` does the same for an instance
  whose class has ``__slots__`` by standing a forwarding object in
  front of it. Nothing under ``src/`` changes and no class is patched,
  so objects the bench did not hand to the tracer run untouched.

:func:`self_times` attributes every instant of wall time to the
innermost span open at that instant. The loops measured here are
single-threaded, so a synchronous span is never interrupted and always
is the innermost while it runs; a span held open across an ``await``
(a client waiting for its response) keeps only what no other span
claims — socket handling and idle time.
"""

from __future__ import annotations

import heapq
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, TypeVar, Union

T = TypeVar("T")

#: ``window_index`` source handed to :meth:`Tracer.wrap`.
WindowFn = Optional[Callable[[], int]]
#: A fixed span name, or one chosen from the call's argument and result.
Namer = Union[str, Callable[[tuple, object], str]]


class _Proxy:
    """Forwards every attribute to *inner*; spanned methods shadow it."""

    def __init__(self, inner: object) -> None:
        self._inner = inner

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)


class Tracer:
    """A list of spans plus the stack of synchronous ones now open."""

    def __init__(self, clock: Callable[[], float]) -> None:
        #: ``[name, start, end, parent, window_index]`` per span.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def begin(
        self,
        name: str,
        *,
        parent: Optional[int] = None,
        window: Optional[int] = None,
    ) -> int:
        """Open a span that stays off the stack (it may span awaits)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append([name, self._clock(), None, parent, window])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = self._clock()

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[int]:
        """A synchronous span: children opened inside nest under it."""
        index = self.begin(name, parent=parent, window=window)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.end(index)

    def wrap(
        self,
        obj: object,
        method: str,
        name: Namer,
        window: WindowFn = None,
        onto: Optional[object] = None,
    ) -> None:
        """Span every call of ``obj.method`` from now on.

        The spanned method is bound on *onto* (default: *obj* itself).
        """
        inner = getattr(obj, method)
        spans, stack, clock = self.spans, self._stack, self._clock

        def spanned(*args, **kwargs):
            index = len(spans)
            record = [
                name if isinstance(name, str) else "",
                0.0,
                None,
                stack[-1] if stack else None,
                None if window is None else window(),
            ]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if not record[0]:
                record[0] = name(args, result)
            return result

        setattr(obj if onto is None else onto, method, spanned)

    def proxy(
        self,
        obj: T,
        methods: dict[str, Namer],
        window: WindowFn = None,
    ) -> T:
        """A stand-in for *obj* whose *methods* are spanned.

        For instances that refuse new attributes; the caller must put
        the stand-in wherever the program looks the object up.
        """
        shadow = _Proxy(obj)
        for method, name in methods.items():
            self.wrap(obj, method, name, window, onto=shadow)
        return shadow  # type: ignore[return-value]

    @contextmanager
    def aside(self) -> Iterator[Callable[[], list[list]]]:
        """Spans opened inside are dropped when the block ends.

        For probes run after the measured pass on instrumented
        objects; the yielded callable returns the block's spans so far.
        """
        mark = len(self.spans)
        try:
            yield lambda: self.spans[mark:]
        finally:
            del self.spans[mark:]

    def total(self, name: str) -> float:
        """Summed duration (not self time) of the spans called *name*."""
        return sum(
            span[2] - span[1] for span in self.spans if span[0] == name
        )

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path, **header: object) -> None:
        payload = dict(header)
        payload["fields"] = [
            "name", "start", "end", "parent", "window_index",
        ]
        payload["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of wall time owned by each span name.

    Sweeps the span boundaries in time order and credits each interval
    to the latest-started span still open, so nested and partially
    overlapping spans both sum to exactly the wall time they cover.
    """
    boundaries: list[tuple[float, int, int]] = []
    for index, span in enumerate(spans):
        if span[2] is None:
            raise ValueError(f"span {span[0]!r} was never closed")
        boundaries.append((span[1], 1, index))
        boundaries.append((span[2], 0, index))
    # Ends sort before starts at equal times: a zero-length gap
    # between siblings must not nest one under the other.
    boundaries.sort()
    owned: dict[str, float] = {}
    open_heap: list[int] = []  # negated indices: latest start on top
    closed: set[int] = set()
    previous = 0.0
    for at, is_start, index in boundaries:
        while open_heap and -open_heap[0] in closed:
            closed.discard(-heapq.heappop(open_heap))
        if open_heap and at > previous:
            name = spans[-open_heap[0]][0]
            owned[name] = owned.get(name, 0.0) + (at - previous)
        previous = at
        if is_start:
            heapq.heappush(open_heap, -index)
        else:
            closed.add(index)
    return owned
