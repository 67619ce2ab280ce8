"""CACHE001: TampGraph mutators must invalidate the prefix-count cache.

``TampGraph.total_prefixes()`` memoizes the distinct-prefix count
because pruning divides by it once per edge. The memo is only correct
while edge membership is stable, so every method that mutates the
edge, adjacency or leaf-fringe state must call the invalidation hook
(``self._invalidate_cache()``). Forgetting it does not crash — it
serves a stale 100% mark, which skews every pruning fraction and
therefore which edges appear in the rendered picture. The granularity
is method-level on purpose: refcount-only branches legitimately skip
invalidation (membership did not change), so the rule demands the hook
be *reachable* in the method, not executed on every path.

Known limitation (documented, not fixed): mutations through a local
alias (``inner = self._edges.get(e); inner.update(...)``) are invisible
to the rule. The hook call in the enclosing method still satisfies it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

#: Classes the rule applies to, by name.
_GRAPH_CLASSES = frozenset({"TampGraph"})

#: Instance attributes whose mutation can change prefix membership:
#: the edge stores and adjacency, and the leaf fringe that
#: ``total_prefixes()`` unions with the edges.
_STATE_ATTRS = frozenset({"_edges", "_children", "_parents", "_fringe"})

#: The invalidation hook, and the cache attribute a direct reset of
#: which also counts (the hook's own body).
_HOOK = "_invalidate_cache"
_CACHE_ATTR = "_total"

#: Receiver methods that mutate in place (reads like .get/.items don't
#: fire).
_MUTATORS = frozenset(
    {
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "remove",
        "append",
        "extend",
    }
)

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@register
class CacheInvalidation(Checker):
    """CACHE001 over every configured graph class in the module."""

    rules = (
        Rule(
            "CACHE001",
            "TampGraph mutator does not call the cache-invalidation hook",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name in _GRAPH_CLASSES
            ):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        for method in cls.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            mutation = self._first_mutation(method)
            if mutation is None:
                continue
            if self._invalidates(method):
                continue
            yield self.finding(
                ctx,
                method,
                "CACHE001",
                f"{cls.name}.{method.name}() mutates"
                f" {mutation} but never calls"
                f" self.{_HOOK}(); total_prefixes() would serve a stale"
                " count and skew every pruning fraction",
            )

    def _first_mutation(self, method: _AnyFunc) -> Optional[str]:
        """Description of the first state mutation in *method*, if any."""
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = self._state_attr(target)
                    if attr is not None:
                        return f"self.{attr}"
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = self._state_attr(target)
                    if attr is not None:
                        return f"self.{attr}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                attr = self._state_attr(node.func.value)
                if attr is not None:
                    return f"self.{attr}.{node.func.attr}()"
        return None

    @staticmethod
    def _state_attr(node: ast.AST) -> Optional[str]:
        """The state attribute a store/receiver expression is rooted at.

        Matches ``self._edges``, ``self._edges[...]`` and deeper
        subscript chains, for ``self`` only.
        """
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in _STATE_ATTRS
        ):
            return node.attr
        return None

    @staticmethod
    def _invalidates(method: _AnyFunc) -> bool:
        """True when the method reaches the hook (or resets the cache
        attribute directly — the hook's own implementation)."""
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == _HOOK
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                return True
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr == _CACHE_ATTR
                    ):
                        return True
        return False
