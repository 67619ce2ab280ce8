"""MUT001: mutable default arguments.

A mutable default is evaluated once at import and shared by every call;
state leaks across calls — and across test runs in the same process —
which is both a plain bug and a determinism hazard (the Nth call's
result depends on the N−1 before it). Flagged everywhere in
``src/repro``, not just algorithm modules.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.devtools.astutil import ImportMap
from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)

#: Constructors of mutable containers (post import-alias resolution).
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.Counter",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
    }
)

_AnyFunction = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def default_bindings(
    node: _AnyFunction,
) -> list[tuple[Optional[str], ast.expr]]:
    """``(parameter name, default expression)`` pairs, in source order.

    Positional defaults right-align against the positional parameters;
    keyword-only defaults align one-to-one.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    pairs: list[tuple[Optional[str], ast.expr]] = []
    for arg, default in zip(
        positional[len(positional) - len(args.defaults) :], args.defaults
    ):
        pairs.append((arg.arg, default))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            pairs.append((arg.arg, default))
    return pairs


@register
class MutableDefaults(Checker):
    """MUT001: flag every mutable default anywhere in the tree."""

    rules = (Rule("MUT001", "mutable default argument"),)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            for _, default in default_bindings(node):
                kind = self._mutable_kind(default, imports)
                if kind is not None:
                    yield self.finding(
                        ctx,
                        default,
                        "MUT001",
                        f"default {kind} of {name}() is created once at"
                        " import and shared across calls; default to None"
                        " and construct inside the function",
                    )

    @staticmethod
    def _mutable_kind(
        default: ast.AST, imports: ImportMap
    ) -> Optional[str]:
        if isinstance(default, _MUTABLE_LITERALS):
            return type(default).__name__.lower().replace("comp", " comprehension")
        if isinstance(default, ast.Call):
            resolved = imports.resolve(default.func)
            if resolved in _MUTABLE_CALLS:
                return f"{resolved}()"
        return None
