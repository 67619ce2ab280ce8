"""The project layer: whole-program context for the analyzer.

PR 2's engine handed every checker one module at a time, which makes
any invariant that spans a module boundary invisible (a decoded token
returned by a helper in ``repro.interning`` leaking into a stemming hot
loop, a stage helper touching state another module owns). This module
parses the analyzed tree **once** and derives everything the
cross-module rules need:

* :class:`ModuleInfo` — one analyzed file: source, AST, suppressions,
  import map, parent map, and the module-level function index, each
  computed lazily and exactly once (rules used to re-derive the import
  map and re-tokenize for suppressions per checker per file);
* :class:`ProjectContext` — the set of modules plus a **symbol index**
  that resolves a call expression to the :class:`FunctionInfo` it
  names — through import aliases, one-hop re-exports, and
  ``self.method`` within a class — without type inference.
  Unresolvable calls resolve to ``None`` and rules treat them as
  opaque, which is the safe direction for every current rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.devtools.astutil import ImportMap, parent_map
from repro.devtools.suppress import Suppressions

AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: How many re-export hops the symbol index follows. Package
#: ``__init__`` files re-export one level deep in this repo; the bound
#: keeps a pathological import cycle from looping the resolver.
_REEXPORT_HOPS = 4


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, locatable across the project."""

    module: str
    qualname: str  # "fn" or "Class.fn"
    node: AnyFunc
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @cached_property
    def params(self) -> tuple[str, ...]:
        """Positional parameter names, ``self``/``cls`` stripped for
        methods so argument indices line up with call-site positions."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
        if self.class_name is not None and names:
            decorators = {
                d.id
                for d in self.node.decorator_list
                if isinstance(d, ast.Name)
            }
            if "staticmethod" not in decorators:
                names = names[1:]
        return tuple(names)

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self.params.index(name)
        except ValueError:
            return None


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

    @cached_property
    def functions(self) -> dict[str, FunctionInfo]:
        """Module-level functions and class methods, by qualname."""
        index: dict[str, FunctionInfo] = {}
        tree = self.tree
        if tree is None:
            return index
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index[node.name] = FunctionInfo(
                    self.module, node.name, node
                )
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = f"{node.name}.{item.name}"
                        index[qualname] = FunctionInfo(
                            self.module, qualname, item, node.name
                        )
        return index


class ProjectContext:
    """Every analyzed module plus the symbol index over them."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        #: Path-ordered (the engine's deterministic file order).
        self.infos: tuple[ModuleInfo, ...] = tuple(modules)
        self.by_module: dict[str, ModuleInfo] = {}
        for info in self.infos:
            # First wins on (pathological) duplicate module names so the
            # mapping is independent of anything but sorted path order.
            self.by_module.setdefault(info.module, info)

    # -- symbol index ---------------------------------------------------

    def _project_module(self, dotted: str) -> Optional[str]:
        """Longest analyzed-module prefix of *dotted*, if any.

        ``repro.tamp.graph.TampGraph`` → ``repro.tamp.graph``.
        """
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.by_module:
                return candidate
        return None

    def resolve_function(
        self,
        info: ModuleInfo,
        callee: ast.AST,
        scope: Optional[FunctionInfo] = None,
    ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call expression names, if it is
        statically resolvable.

        Handles: a module-local name, an imported name (through
        aliases and up to ``_REEXPORT_HOPS`` re-export hops),
        ``module.attr`` chains, and ``self.method``/``cls.method``
        inside a class body. Anything else — a call on a runtime
        object, a subscript, a name rebound locally — returns ``None``.
        """
        if (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
            and scope is not None
            and scope.class_name is not None
        ):
            return info.functions.get(f"{scope.class_name}.{callee.attr}")
        dotted = info.imports.resolve(callee)
        if dotted is None:
            return None
        if "." not in dotted:
            local = info.functions.get(dotted)
            if local is not None:
                return local
        return self._resolve_dotted(dotted)

    def _resolve_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        for _ in range(_REEXPORT_HOPS):
            module = self._project_module(dotted)
            if module is None:
                return None
            remainder = dotted[len(module) :].lstrip(".")
            if not remainder:
                return None
            owner = self.by_module[module]
            found = owner.functions.get(remainder)
            if found is not None:
                return found
            # One re-export hop: the owning module imports the name
            # itself (`from repro.x.y import fn` in a package __init__).
            head = remainder.split(".")[0]
            target = owner.imports.aliases.get(head)
            if target is None or target == dotted:
                return None
            tail = remainder[len(head) :].lstrip(".")
            dotted = f"{target}.{tail}" if tail else target
        return None

    def iter_functions(self) -> Iterator[tuple[ModuleInfo, FunctionInfo]]:
        """Every function of every module, in deterministic order."""
        for info in self.infos:
            for qualname in sorted(info.functions):
                yield info, info.functions[qualname]


def build_project(files: Sequence[tuple[Path, str]]) -> ProjectContext:
    """Build a :class:`ProjectContext` for ``(path, module_name)`` pairs.

    Undecodable bytes become U+FFFD rather than an exception: the file
    then fails to parse (a ``SYNTAX`` finding) or lints as written.
    """
    return ProjectContext(
        [
            ModuleInfo(
                str(path),
                module,
                path.read_bytes().decode("utf-8", errors="replace"),
            )
            for path, module in files
        ]
    )
