"""INT001/INT002: hot paths must stay on interned ids.

The DESIGN.md §10 rewrite moved the picture build onto dense interned
ids: edge stores are keyed by packed int edge ids
(:func:`repro.interning.pack_edge`) and prefix membership lives in
id-keyed refcount maps.
Reintroducing object-level state in the build/merge hot path — a
``set[Prefix]`` column, or a ``(parent, child)`` token tuple used as an
edge-store key — type-checks, passes every equivalence test, and
silently reverts the Table I(b) performance win, which is why it gets a
static gate (INT001) instead of a code-review note.

Stemming and the animator run interned too: sequences are id tuples,
pair stores are keyed by packed pair ints, frame diffs are keyed by
packed edge ids, and tokens reappear only at the decode boundary (a
component's subsequence and prefixes, frame ``LazyEdgeMap`` access, SVG
emission). The equivalent regression there is *decoding inside the hot
loop* — a ``symbols.token(...)``/``decode_pair(...)`` call, or a
``route_path_tokens`` re-render (the token-level chain the object
oracle under ``tests/tamp/reference.py`` walks) that the apply memo
exists to avoid — which is what INT002 gates.

Both rules are deliberately narrow: they watch only the named hot
functions inside their packages, so decode-boundary queries (which
legitimately speak tokens and ``set[Prefix]``) and every other package
stay out of scope. The preserved pre-rewrite builder the equivalence
suite checks against violates INT001 by design; it lives under
``tests/``, outside the packages these rules watch, so ``src`` carries
no INT001 suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.devtools.findings import Finding, Rule
from repro.devtools.registry import Checker, ModuleContext, register

#: Only modules in these packages are checked.
_PACKAGES = ("repro.tamp",)

#: The build/merge hot path, by function name: the one batch merge
#: every picture build runs. Everything else in the package (queries,
#: rendering, layout) is decode-boundary code.
HOT_FUNCTIONS = frozenset({"merge_id_view"})

#: INT002 scope: the interned stemming/animation hot paths.
_ID_PACKAGES = ("repro.stemming", "repro.tamp")

#: The id-level stemming/animation hot path, by function name. These
#: run between the encode and decode boundaries, so any token decode or
#: chain re-render inside them is a regression.
ID_HOT_FUNCTIONS = frozenset(
    {
        # repro.stemming.counter — packed-pair bulk counting
        "count_pairs",
        "distinct_pairs",
        # repro.stemming.stemmer — the index's pair-table add/subtract,
        # the tie walk over winning pairs, interned grouping, the
        # extraction's working counts and the posting lists it asks
        "add",
        "remove",
        "rank_top",
        "_candidate_windows",
        "_run_windows",
        "_admit",
        "_working_counts",
        "_subtract_pairs",
        "post",
        "unpost",
        "holding_any",
        "holding",
        "ending_in",
        # repro.tamp.incremental / graph / animate — one-call route
        # applies and id-keyed frame diffing
        "_install",
        "_withdraw",
        "_remove_contribution",
        "_ids_for",
        "_memoize",
        "add_route_ids",
        "discard_route_ids",
        "animate_stream",
        # repro.tamp.svg_animation — id-keyed keyframe tracks
        "_edge_tracks",
    }
)

#: Decode-boundary method names: calling one inside an id-level hot
#: function means tokens are being materialized in the loop.
DECODE_METHODS = frozenset({"token", "decode_pair", "decode_edge", "prefix"})

#: Chain re-renderers the apply/grouping memos exist to avoid.
RETOKENIZERS = frozenset({"route_path_tokens"})

#: Object-set constructors that must not type prefix containers here.
_SET_TYPES = frozenset({"set", "frozenset"})

#: Receiver methods that take the key as their first argument.
_KEYED_METHODS = frozenset({"get", "setdefault", "pop"})

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@register
class InternedHotPath(Checker):
    """INT001 over the TAMP hot functions of a module."""

    rules = (
        Rule(
            "INT001",
            "TAMP hot path uses an object-set edge store or un-interned"
            " token keys",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in HOT_FUNCTIONS
            ):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: ModuleContext, func: _AnyFunc
    ) -> Iterator[Finding]:
        tuple_keys: set[str] = set()
        findings: list[Finding] = []
        for node in ast.walk(func):
            annotation = self._prefix_set_annotation(node)
            if annotation is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "INT001",
                        f"{func.name}() declares an object prefix set"
                        f" ({annotation}) on the TAMP hot path; prefix"
                        " membership must use id-keyed refcount maps"
                        " (DESIGN.md §10)",
                    )
                )
                continue
            key = self._edge_store_key(node)
            if key is None:
                continue
            if isinstance(key, ast.Tuple):
                findings.append(
                    self.finding(
                        ctx,
                        key,
                        "INT001",
                        f"{func.name}() keys an edge store by a token"
                        " tuple; hot-path stores must be keyed by packed"
                        " int edge ids (repro.interning.pack_edge)",
                    )
                )
            elif isinstance(key, ast.Name):
                tuple_keys.add(key.id)
        if tuple_keys:
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Tuple)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id in tuple_keys
                ):
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "INT001",
                            f"{func.name}() builds the token-tuple edge"
                            f" key '{node.targets[0].id}' for an edge"
                            " store; hot-path stores must be keyed by"
                            " packed int edge ids"
                            " (repro.interning.pack_edge)",
                        )
                    )
        yield from sorted(findings)

    @staticmethod
    def _prefix_set_annotation(node: ast.AST) -> Optional[str]:
        """The offending annotation text when *node* types an object
        prefix set (``set[Prefix]``/``frozenset[Prefix]``, possibly
        nested inside a container annotation)."""
        if isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotation = node.annotation
        else:
            return None
        for sub in ast.walk(annotation):
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in _SET_TYPES
                and any(
                    isinstance(inner, ast.Name) and inner.id == "Prefix"
                    for inner in ast.walk(sub.slice)
                )
            ):
                return ast.unparse(sub)
        return None

    @classmethod
    def _edge_store_key(cls, node: ast.AST) -> Optional[ast.expr]:
        """The key expression when *node* reads/writes an edge store.

        Matches subscripts (``edges[key]``) and keyed method calls
        (``edges.get(key, ...)``) whose receiver is rooted at a name or
        attribute containing "edges".
        """
        if isinstance(node, ast.Subscript) and cls._is_edge_store(
            node.value
        ):
            return node.slice
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _KEYED_METHODS
            and node.args
            and cls._is_edge_store(node.func.value)
        ):
            return node.args[0]
        return None

    @staticmethod
    def _is_edge_store(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return "edges" in node.attr.lower()
        if isinstance(node, ast.Name):
            return "edges" in node.id.lower()
        return False


@register
class IdLevelHotPath(Checker):
    """INT002 over the stemming/animation id-level hot functions."""

    rules = (
        Rule(
            "INT002",
            "stemming/animation hot path decodes interned ids or"
            " re-tokenizes a chain inside the loop",
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package(_ID_PACKAGES):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ID_HOT_FUNCTIONS
            ):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: ModuleContext, func: _AnyFunc
    ) -> Iterator[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in DECODE_METHODS
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "INT002",
                        f"{func.name}() calls .{callee.attr}() on the"
                        " id-level hot path; tokens must only"
                        " materialize at the decode boundary"
                        " (DESIGN.md §10)",
                    )
                )
            elif self._callee_name(callee) in RETOKENIZERS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "INT002",
                        f"{func.name}() re-renders a token chain via"
                        f" {self._callee_name(callee)}() on the id-level"
                        " hot path; chains must come from the interned"
                        " apply/grouping memo (DESIGN.md §10)",
                    )
                )
        yield from sorted(findings)

    @staticmethod
    def _callee_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None
