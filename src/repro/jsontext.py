"""JSON text encoded once and spliced into later documents.

A checkpoint is written every window, and most of what it holds — the
route table, the incident rows — has not changed since the last one.
An :class:`EncodedList` is how a producer hands such a list out
together with the text ``json.dumps`` would write for each item — the
TAMP maintainer its route lines, the incident manager its rows — so the
checkpoint encoder (:mod:`repro.pipeline.checkpoint`) joins the held
texts instead of encoding the items again.
"""

from __future__ import annotations

import json
from typing import Iterable

#: ``json.dumps(value, sort_keys=True)`` without building an encoder
#: per call. No ``indent``: asking for one selects the pure-Python
#: encoder, and a checkpoint is hundreds of kilobytes.
dumps = json.JSONEncoder(sort_keys=True).encode


class EncodedList(list):
    """A list that carries the JSON text of each of its items.

    ``texts[i]`` is ``json.dumps(self[i], sort_keys=True)``; an encoder
    that meets the list writes ``"[" + ", ".join(texts) + "]"``, the
    bytes ``json.dumps`` would write for it. It compares, iterates and
    encodes as a plain list everywhere else. Read-only by contract:
    changing an item would leave its text stale, so a holder copies
    what it wants to change.
    """

    __slots__ = ("texts",)

    def __init__(self, items: Iterable[object], texts: list[str]) -> None:
        super().__init__(items)
        if len(self) != len(texts):
            raise ValueError(
                f"{len(self)} items but {len(texts)} encoded texts"
            )
        self.texts = texts
