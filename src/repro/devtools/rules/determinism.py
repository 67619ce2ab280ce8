"""DET001–DET003: the output-determinism rules.

The repro's results are compared bit-for-bit across shard counts and
runs (the serve and resume identity tests), so every source of run-to-run
variation in an algorithm module is a reproduction bug waiting for a
code path to reach it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.devtools.astutil import ImportMap
from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

#: Packages holding the paper's algorithms: anything nondeterministic
#: here changes published numbers. Simulators are exempt — they own
#: seeded randomness by design.
ALGORITHM_PACKAGES = (
    "repro.stemming",
    "repro.tamp",
    "repro.collector",
    "repro.net",
)

#: Wall-clock and monotonic-clock reads: both vary run to run.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The one blessed entry into the random module: an explicitly seeded
#: generator instance. Everything else (module-level functions, the
#: OS-entropy SystemRandom) is nondeterministic.
_SEEDED_FACTORY = "random.Random"


@register
class UnseededEntropy(Checker):
    """DET001: unseeded randomness / clock reads in algorithm modules."""

    rules = (
        Rule(
            "DET001",
            "unseeded random or wall-clock call in an algorithm module",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(ALGORITHM_PACKAGES):
            return
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None or resolved == _SEEDED_FACTORY:
                continue
            head = resolved.split(".", 1)[0]
            if resolved in _CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    "DET001",
                    f"{resolved}() reads the clock; algorithm results must"
                    " not depend on when they run — take timestamps from"
                    " the event stream or inject them",
                )
            elif head == "random":
                yield self.finding(
                    ctx,
                    node,
                    "DET001",
                    f"{resolved}() draws from unseeded global state; use"
                    " an explicitly seeded random.Random instance",
                )


#: Call expressions whose value is an unordered collection.
_UNORDERED_FACTORIES = frozenset({"set", "frozenset"})

#: Method names returning unordered (or insertion-order-dependent)
#: collections in this codebase. ``values`` covers dict/Counter views:
#: insertion order is real order, but it varies with shard merge order
#: under different shard counts — exactly the variation the
#: bit-for-bit claim forbids. The rest are the TampGraph set-returning
#: accessors.
_UNORDERED_METHODS = frozenset(
    {
        "values",
        "nodes",
        "children",
        "parents",
        "all_prefixes",
        "edge_prefixes",
    }
)

#: Consumers whose result does not depend on iteration order — an
#: unordered expression may flow into these freely.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {
        "sorted",
        "set",
        "frozenset",
        "sum",
        "max",
        "min",
        "any",
        "all",
        "len",
        "Counter",
        "collections.Counter",
    }
)

#: Calls that materialize their argument's iteration order.
_ORDERED_CALL_SINKS = frozenset({"list", "tuple", "enumerate"})

#: List-mutators that make a bare ``for`` loop an ordered sink.
_APPENDERS = frozenset({"append", "extend", "insert"})


@register
class UnorderedIteration(Checker):
    """DET002: unordered iteration feeding ordered output.

    Flags a statically-recognizable unordered expression (set literal,
    set comprehension, ``set()``/``frozenset()`` call, ``.values()`` or
    a TampGraph set accessor) whose iteration order escapes into an
    ordered artifact: ``join``, ``list``/``tuple``/``enumerate``, a
    list comprehension, or a ``for`` loop that appends or yields. The
    fix is an enclosing ``sorted()``; order-insensitive consumers
    (``sum``, ``max``, ``set`` …) never fire.
    """

    rules = (
        Rule(
            "DET002",
            "unordered iteration (set / dict.values) feeds ordered output"
            " without sorted()",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parents = ctx.parents
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not self._is_unordered(node):
                continue
            sink = self._ordered_sink(node, parents, imports)
            if sink is not None:
                yield self.finding(
                    ctx,
                    node,
                    "DET002",
                    f"iteration order of this unordered value reaches {sink};"
                    " wrap it in sorted(...) or consume it"
                    " order-insensitively",
                )

    @staticmethod
    def _is_unordered(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return func.id in _UNORDERED_FACTORIES
            if isinstance(func, ast.Attribute):
                return func.attr in _UNORDERED_METHODS
        return False

    def _ordered_sink(
        self,
        node: ast.AST,
        parents: dict[ast.AST, ast.AST],
        imports: ImportMap,
    ) -> Optional[str]:
        """Name of the ordered sink *node* flows into, or None if safe."""
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            return self._call_sink(parent, imports)
        if isinstance(parent, ast.comprehension) and parent.iter is node:
            comp = parents.get(parent)
            if isinstance(comp, ast.ListComp):
                if self._consumed_insensitively(comp, parents, imports):
                    return None
                return "a list comprehension"
            if isinstance(comp, ast.GeneratorExp):
                outer = parents.get(comp)
                if isinstance(outer, ast.Call) and comp in outer.args:
                    return self._call_sink(outer, imports)
                return None
            return None  # set/dict comprehensions stay unordered
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            if self._loop_accumulates(parent):
                return "an appending/yielding for loop"
            return None
        return None

    @staticmethod
    def _call_sink(call: ast.Call, imports: ImportMap) -> Optional[str]:
        """Classify the call consuming an unordered argument."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return "str.join"
        resolved = imports.resolve(func)
        if resolved in _ORDER_INSENSITIVE_CALLS:
            return None
        if resolved in _ORDERED_CALL_SINKS:
            return f"{resolved}()"
        return None  # unknown callee: default-allow

    def _consumed_insensitively(
        self,
        comp: ast.ListComp,
        parents: dict[ast.AST, ast.AST],
        imports: ImportMap,
    ) -> bool:
        """True when a list comprehension is itself order-insensitively
        consumed, e.g. ``sorted([... for x in s])``."""
        outer = parents.get(comp)
        if isinstance(outer, ast.Call) and comp in outer.args:
            return self._call_sink(outer, imports) is None and (
                imports.resolve(outer.func) in _ORDER_INSENSITIVE_CALLS
            )
        return False

    @staticmethod
    def _loop_accumulates(loop: ast.For | ast.AsyncFor) -> bool:
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _APPENDERS
                ):
                    return True
        return False


@register
class IdentityOrdering(Checker):
    """DET003: ``id()`` used anywhere in analyzed code.

    Object addresses differ between runs and between processes;
    any key, sort, or dedup built on ``id()`` is nondeterministic by
    construction. The rule flags every call — the rare legitimate use
    (within-pass object identity) should prefer an explicit marker
    object or dict keyed by the object itself, or carry a justified
    suppression.
    """

    rules = (Rule("DET003", "id()-based keys or ordering"),)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                yield self.finding(
                    ctx,
                    node,
                    "DET003",
                    "id() is address-dependent and varies across runs and"
                    " processes; key or order by stable identity",
                )
            for keyword in node.keywords:
                # sorted(xs, key=id) passes the builtin by reference —
                # no call node, same hazard.
                if (
                    keyword.arg == "key"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == "id"
                ):
                    yield self.finding(
                        ctx,
                        keyword.value,
                        "DET003",
                        "ordering by id() sorts by object address, which"
                        " varies across runs and processes",
                    )
