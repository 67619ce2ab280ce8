"""The checker framework: base classes, registries, module context.

One checker class per invariant family; a class may own several rule
ids (the determinism checker owns DET001–DET003). Registration is a
decorator so adding a rule is: write the class in
:mod:`repro.devtools.rules`, decorate it, add fixtures. The registry
is sorted by class name and the catalog by rule id, keeping analyzer
output order independent of import order — the analyzer holds itself
to the determinism bar it enforces.

Every :class:`Checker` sees one :class:`ModuleContext` at a time. The
context carries the shared derivations the engine computed once per
file (import map, parent map, suppressions), so no rule re-tokenizes or
re-walks what the engine already has.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.devtools.findings import Finding, Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.devtools.astutil import ImportMap
    from repro.devtools.project import ModuleInfo
    from repro.devtools.suppress import Suppressions


@dataclass(frozen=True)
class ModuleContext:
    """Everything a per-module checker may look at for one module.

    *module* is the dotted import name (``repro.tamp.render``) — rules
    scoped to algorithm packages match on it, and tests can analyze a
    fixture *as if* it lived anywhere in the tree by passing a
    synthetic module name. *info* is the parse-once record the shared
    derivations live on.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    info: "ModuleInfo" = field(repr=False)

    def in_package(self, packages: tuple[str, ...]) -> bool:
        """True when the module sits in (or is) one of *packages*.

        Matches on package boundaries: ``repro.net`` covers
        ``repro.net.trie`` but not ``repro.network``.
        """
        return any(
            self.module == package or self.module.startswith(package + ".")
            for package in packages
        )

    @property
    def imports(self) -> "ImportMap":
        """The module's import map, computed once for all checkers."""
        return self.info.imports

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent for every node, computed once per module."""
        return self.info.parents

    @property
    def suppressions(self) -> "Suppressions":
        """The file's suppression table (tokenized exactly once)."""
        return self.info.suppressions


class Checker:
    """Base class: declare ``rules``, implement :meth:`check`."""

    rules: tuple[Rule, ...] = ()

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, rule: str, message: str
    ) -> Finding:
        """A finding at *node*'s location (the common constructor)."""
        return Finding(
            path=ctx.path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=rule,
            message=message,
        )


_CHECKERS: list[type[Checker]] = []


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a per-module checker to the registry."""
    _CHECKERS.append(cls)
    return cls


def _load_rules() -> None:
    # Imported lazily: the rules package imports this module to reach
    # the decorator, so a top-level import would be circular.
    import repro.devtools.rules  # noqa: F401  (registration side effect)


def all_checkers() -> list[Checker]:
    """Fresh instances of every module checker, in stable order."""
    _load_rules()
    return [cls() for cls in sorted(_CHECKERS, key=lambda c: c.__name__)]


def rule_catalog() -> list[Rule]:
    """Every rule of every registered checker, sorted by id."""
    rules: set[Rule] = set()
    for checker in all_checkers():
        rules.update(checker.rules)
    return sorted(rules)


def rule_ids() -> set[str]:
    return {rule.id for rule in rule_catalog()}
