"""The parse-once record every checker reads.

:class:`ModuleInfo` is one analyzed file: source, AST, suppressions,
import map and parent map, each computed lazily and exactly once, so
no rule re-derives the import map or re-tokenizes for suppressions
per checker per file.
"""

from __future__ import annotations

import ast
from functools import cached_property
from typing import Optional

from repro.devtools.astutil import ImportMap, parent_map
from repro.devtools.suppress import Suppressions


class ModuleInfo:
    """One analyzed file, with every shared derivation computed once."""

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source

    @cached_property
    def _parsed(self) -> tuple[Optional[ast.Module], Optional[SyntaxError]]:
        try:
            return ast.parse(self.source, filename=self.path), None
        except SyntaxError as exc:
            return None, exc

    @property
    def tree(self) -> Optional[ast.Module]:
        """The AST, or ``None`` for a file that does not parse."""
        return self._parsed[0]

    @property
    def syntax_error(self) -> Optional[SyntaxError]:
        return self._parsed[1]

    @cached_property
    def suppressions(self) -> Suppressions:
        """Tokenized once here; every rule and the engine share it."""
        return Suppressions.scan(self.source)

    @cached_property
    def imports(self) -> ImportMap:
        tree = self.tree
        return ImportMap(tree if tree is not None else ast.Module([], []))

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        tree = self.tree
        return parent_map(tree) if tree is not None else {}
