"""SRV001: serve handlers read snapshots, never live pipeline state.

The serve layer's consistency contract (DESIGN.md §13) is that HTTP
handlers only ever observe shard state at a batch boundary, through
the snapshot surface — :class:`~repro.serve.snapshot.SnapshotHub`,
:meth:`~repro.serve.sharding.ShardSet.incident_rows` and friends. The
live pipeline objects (``Pipeline``, ``WindowedStemmer``,
``TampAnnotator``, ``IncidentManager``) are held behind the
``live_``-prefixed attributes of each shard's ``MonitorCore`` precisely
so the boundary is mechanically checkable: any ``x.live_something`` access
outside the sanctioned modules is a handler reaching into state that
mutates mid-request — a torn read today, a race the moment serving
and feeding ever run on different threads.

Scope: modules inside ``repro.serve``. Sanctioned:
``repro.serve.sharding`` (it *owns* the live state) and
``repro.serve.snapshot`` (the one reader allowed to cross the
boundary to build snapshots).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

#: Modules allowed to touch ``live_*`` attributes: the live-state
#: owner and the snapshot builder.
SANCTIONED_MODULES = (
    "repro.serve.sharding",
    "repro.serve.snapshot",
)

_REMEDY = (
    " — read through the snapshot surface (SnapshotHub.snapshot(),"
    " ShardSet.version()/incident_rows()/status()) instead"
)


@register
class ServeSnapshotDiscipline(Checker):
    """SRV001 over live-state reads in serve-layer modules."""

    rules = (
        Rule(
            "SRV001",
            "serve-layer code reads live pipeline state instead of"
            " the snapshot surface",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(("repro.serve",)):
            return
        if ctx.module in SANCTIONED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not node.attr.startswith("live_"):
                continue
            owner = ast.unparse(node.value)
            yield self.finding(
                ctx,
                node,
                "SRV001",
                f"access to {owner}.{node.attr} crosses the snapshot"
                " boundary: live pipeline state mutates between"
                " batches" + _REMEDY,
            )
