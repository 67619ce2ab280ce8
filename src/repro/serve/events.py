"""The server-sent-events feed of incident transitions.

SSE contract (DESIGN.md §13): ``GET /events`` streams
``text/event-stream`` where every incident state-machine transition
becomes one event::

    id: <monotonic integer>
    event: incident
    data: {"incident": 3, "shard": 0, "to": "resolved", ...}

Ids are assigned at publish time and strictly increase for the life
of the serving process. A reconnecting client sends the standard
``Last-Event-ID`` header and receives exactly the suffix it missed,
as long as the events are still inside the replay ring (a bounded
deque — the feed is a live tail with bounded catch-up, not an event
store; full history lives in the incident stores). A fresh client
(no header) gets the whole ring, so a subscriber that connects after
a quiet start still sees how the current incidents got where they
are.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque


def format_sse(event_id: int, payload: dict) -> bytes:
    """One wire-format SSE frame (``id`` + ``event`` + ``data``)."""
    data = json.dumps(payload, sort_keys=True)
    return (
        f"id: {event_id}\nevent: incident\ndata: {data}\n\n"
    ).encode("utf-8")


class TransitionFeed:
    """Bounded replay ring plus live fan-out queues."""

    def __init__(self, capacity: int = 1024) -> None:
        #: (id, frame bytes), oldest first, bounded.
        self._ring: deque[tuple[int, bytes]] = deque(maxlen=capacity)
        self._next_id = 1
        self._subscribers: set[asyncio.Queue] = set()
        self.published = 0

    def publish(self, payload: dict) -> int:
        """Assign an id, buffer the frame, wake every subscriber."""
        event_id = self._next_id
        self._next_id += 1
        frame = format_sse(event_id, payload)
        self._ring.append((event_id, frame))
        self.published += 1
        for queue in self._subscribers:
            queue.put_nowait(frame)
        return event_id

    def publish_all(self, payloads: list) -> None:
        for payload in payloads:
            self.publish(payload)

    def replay_since(self, last_id: int) -> list[bytes]:
        """Frames with id > *last_id* still in the ring, in order."""
        return [
            frame for event_id, frame in self._ring if event_id > last_id
        ]

    def subscribe(self) -> asyncio.Queue:
        """An unbounded queue receiving every frame from now on.

        Unbounded is deliberate: the feed must never block the
        pipeline on a slow reader; a reader that can't drain its queue
        is dropped when its connection dies, not throttled.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        self._subscribers.discard(queue)

    def close(self) -> None:
        """End every live stream: subscribers get a ``None`` sentinel."""
        for queue in self._subscribers:
            queue.put_nowait(None)

    @property
    def last_id(self) -> int:
        return self._next_id - 1
