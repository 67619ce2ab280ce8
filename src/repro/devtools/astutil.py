"""Shared AST plumbing for the checkers.

Two things every rule needs: turning an ``a.b.c`` attribute chain back
into a dotted string, and resolving the *local* head of such a chain
through the module's import statements so ``from random import choice``
and ``import random as rnd; rnd.choice`` both surface as
``random.choice``. Keeping resolution here means each rule matches on
canonical fully-qualified names and never re-implements import
bookkeeping.
"""

from __future__ import annotations

import ast
from typing import Optional


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else.

    Chains rooted in calls or subscripts (``f().x``, ``d[k].y``) return
    None: their runtime head is unknowable statically, so rules treat
    them as unresolvable rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportMap:
    """What each module-local name refers to, per the import statements.

    ``import a.b`` binds ``a`` → ``a``; ``import a.b as c`` binds ``c``
    → ``a.b``; ``from a import b as c`` binds ``c`` → ``a.b``. Relative
    imports keep their tail (the package prefix is unknowable without a
    package root, and no rule currently needs it).
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of *node*, through the aliases.

        Unimported heads pass through unchanged (``self.x`` resolves to
        ``"self.x"``), so callers can still match on local patterns.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


def parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Child → parent for every node; lets rules inspect a node's sink."""
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents
