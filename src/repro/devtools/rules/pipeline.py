"""PIPE001: pipeline stages must not reference module-global mutable
state.

A :class:`repro.pipeline.runtime.Stage` is checkpointed and rebuilt on
resume: everything it knows must live on the instance (restored via
``export_state``/``restore_state``) or flow through ``process()``.
State parked in a module-level container silently survives the
rebuild — the resumed stage sees data from before the "crash" and the
bit-identical-resume contract quietly breaks.

The rule finds stage classes (module-level classes with a ``Stage``
base), then flags any ``global`` declaration and any reference to a
module-global bound to a mutable container (literal list/dict/set,
comprehension, or a call to a known container factory). A read is as
bad as a write here — the reference itself is the hidden channel.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.astutil import ImportMap
from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

#: Base classes that make a ClassDef a pipeline stage.
STAGE_BASES = frozenset(
    {
        "repro.pipeline.Stage",
        "repro.pipeline.runtime.Stage",
    }
)

#: Callables whose result is a mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "deque",
        "collections.deque",
        "Counter",
        "collections.Counter",
        "defaultdict",
        "collections.defaultdict",
        "OrderedDict",
        "collections.OrderedDict",
    }
)

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)

def is_mutable_value(node: ast.AST, imports: ImportMap) -> bool:
    """True when *node* statically evaluates to a mutable container."""
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return (
        isinstance(node, ast.Call)
        and imports.resolve(node.func) in _MUTABLE_FACTORIES
    )


def mutable_module_globals(
    tree: ast.Module, imports: ImportMap
) -> set[str]:
    """Module-level names bound to recognizably mutable containers."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not is_mutable_value(value, imports):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def stage_definitions(
    tree: ast.Module, imports: ImportMap
) -> list[ast.ClassDef]:
    """Module-level classes with a ``Stage`` base."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(imports.resolve(base) in STAGE_BASES for base in node.bases)
    ]


@register
class PipelineStagePurity(Checker):
    """PIPE001 over stage definitions in a module."""

    rules = (
        Rule(
            "PIPE001",
            "pipeline stage holds references to module-global mutable"
            " state",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        mutable_globals = mutable_module_globals(ctx.tree, imports)
        for stage in stage_definitions(ctx.tree, imports):
            yield from self._check_stage(ctx, stage, mutable_globals)

    def _check_stage(
        self,
        ctx: ModuleContext,
        stage: ast.ClassDef,
        mutable_globals: set[str],
    ) -> Iterator[Finding]:
        flagged: set[str] = set()
        for node in ast.walk(stage):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx,
                    node,
                    "PIPE001",
                    f"stage class {stage.name} declares"
                    f" global {', '.join(node.names)}; stage state must"
                    " live on the instance so checkpoint/resume can"
                    " rebuild it",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
                and node.id not in flagged
            ):
                flagged.add(node.id)
                yield self.finding(
                    ctx,
                    node,
                    "PIPE001",
                    f"stage class {stage.name} references module-global"
                    f" mutable '{node.id}'; that state survives a"
                    " checkpoint rebuild and breaks bit-identical"
                    " resume",
                )
