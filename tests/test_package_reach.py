"""The package holds only what a command reaches.

Walks the static import graph from ``repro.cli`` (every subcommand) and
``repro`` itself — imports inside functions included, since the CLI
imports most subcommands' code lazily — and asserts that it reaches
every module under ``src/repro``. A module nothing imports is dead
weight or a test oracle, and oracles live under ``tests/``.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def module_files() -> dict[str, Path]:
    """Dotted module name -> source file, for every module of the
    package (a package is named by its ``__init__.py``)."""
    found = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def imported_names(name: str, path: Path) -> set[str]:
    """Every dotted name the module's import statements can load: each
    imported module, each ``from`` import's target as a possible
    submodule, and the packages above them."""
    is_package = path.name == "__init__.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = name.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join([*anchor, base] if base else anchor)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    parents = set()
    for dotted in names:
        parts = dotted.split(".")
        parents.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return names | parents


def reached(modules: dict[str, Path], roots) -> set[str]:
    seen = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        todo.extend(imported_names(name, modules[name]))
    return seen


def test_the_commands_reach_every_module():
    modules = module_files()
    assert "repro.cli" in modules and "repro.tamp.graph" in modules
    unreached = sorted(set(modules) - reached(modules, ["repro", "repro.cli"]))
    assert unreached == []


def test_the_walk_sees_imports_inside_functions():
    """``repro.cli`` imports ``repro.serve`` only inside its handlers,
    so a walk of module-level imports alone would miss it."""
    modules = module_files()
    top_level = set()
    tree = ast.parse(modules["repro.cli"].read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module:
            top_level.add(node.module)
    assert "repro.serve" not in top_level
    assert "repro.serve" in imported_names("repro.cli", modules["repro.cli"])
