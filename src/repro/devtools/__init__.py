"""Determinism & hot-path static analysis (``repro lint``).

The repo's core correctness claim is *results are bit-for-bit
identical regardless of shard count, resume point or run*. Nothing in
the runtime enforces that claim: a single unsorted ``set`` iteration
feeding the SVG renderer, a stage parking state in a module global, or
a ``TampGraph`` mutator that forgets to invalidate the
``total_prefixes()`` cache would silently skew the Table I numbers
while every unit test of the touched module still passes. This package
proves those invariants at lint time with a stdlib-``ast`` analyzer:

* a checker framework (:mod:`repro.devtools.registry`) — one checker
  class per invariant family, registered by decorator; every checker
  sees one module at a time;
* a parse-once record (:mod:`repro.devtools.project`) — every file
  parsed once into a :class:`ModuleInfo` whose import map, parent map
  and suppressions all checkers share;
* one analysis path (:mod:`repro.devtools.engine`) — discover files,
  parse each once, run the checkers, apply suppressions, sort; every
  run analyzes everything it is given, and nothing is cached, scoped
  or rewritten;
* per-line suppression via ``# repro: allow[RULE]`` comments
  (:mod:`repro.devtools.suppress`), so a justified exception is an
  explicit, reviewable artifact rather than a disabled rule;
* text and JSON reporters (:mod:`repro.devtools.reporters`) — the JSON
  form is the CI artifact;
* the rule catalog under :mod:`repro.devtools.rules` (DET001–DET003,
  MUT001, CACHE001, PIPE001, INT001–INT002, INC001, SRV001 — see
  ``repro lint --list-rules`` or the DESIGN.md rule catalog for one
  paragraph per rule).

Three consumers: the ``repro lint`` CLI subcommand (exit-code gate),
the tier-1 self-lint test (``tests/devtools/test_self_lint.py``) which
runs the analyzer over ``src/repro`` itself, and the fixture corpus
tests asserting each rule's findings and suppressions.
"""

from __future__ import annotations

from repro.devtools.engine import (
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import all_checkers, rule_catalog
from repro.devtools.reporters import render_json, render_text

__all__ = [
    "Finding",
    "Rule",
    "all_checkers",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "render_json",
    "render_text",
    "rule_catalog",
]
