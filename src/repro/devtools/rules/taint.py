"""INT003 / PIPE002: the whole-program rules.

Two invariants the per-file rules structurally cannot see:

* **INT003 — interprocedural id-taint.** A value decoded out of a
  :class:`~repro.interning.symbols.SymbolTable` (``.token()``,
  ``.prefix()``, ``.decode_edge()``, ``.decode_pair()``) or re-rendered
  by a chain tokenizer is *token-level*. Token-level values must never
  reach the hot functions of the INT001/INT002 registry — those run
  between the encode and decode boundaries on dense ints, and an
  object-token argument silently reverts the §10 columnar win while
  every equivalence test still passes. The analysis propagates taint
  through assignments, container literals, comprehensions, returns and
  direct calls, using per-function summaries (does it return tokens?
  does parameter *i* flow into a hot call?) computed to a fixed point
  over the project call graph, so a leak spanning helper functions —
  or modules — is flagged at the call site where the token value
  actually escapes. Findings deliberately anchor where taint *enters*
  a callee, never inside the callee on behalf of a caller: a finding
  sits in the file whose edit fixes it.

* **PIPE002 — stage escape.** PIPE001 flags a stage referencing its
  own module's mutable globals; PIPE002 chases one level of calls into
  helpers (any module) that touch *their* module-global mutables, and
  flags stage callables built from closures that capture a mutable
  local of the enclosing function — state a checkpoint rebuild cannot
  restore, however it is reached.

Both run as :class:`~repro.devtools.registry.ProjectChecker`\\ s:
they see the whole :class:`~repro.devtools.project.ProjectContext`
once and emit findings wherever the evidence sits.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.devtools.astutil import enclosing_function_map
from repro.devtools.findings import Finding, Rule
from repro.devtools.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
)
from repro.devtools.registry import ProjectChecker, register_project
from repro.devtools.rules.interning import (
    DECODE_METHODS,
    HOT_FUNCTIONS,
    ID_HOT_FUNCTIONS,
    RETOKENIZERS,
)
from repro.devtools.rules.pipeline import (
    is_mutable_value,
    mutable_module_globals,
    stage_definitions,
    stage_kind,
)

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: The combined hot-path registry: the id-level functions token-level
#: values must never reach.
HOT_SINKS: frozenset[str] = HOT_FUNCTIONS | ID_HOT_FUNCTIONS

#: The taint label for "this is a decoded token-level value".
_TOK = "tok"

#: Builtins through which taint passes unchanged from arguments.
_PASSTHROUGH = frozenset(
    {
        "list",
        "tuple",
        "set",
        "frozenset",
        "sorted",
        "reversed",
        "iter",
        "next",
        "zip",
        "enumerate",
        "copy.copy",
        "copy.deepcopy",
    }
)

#: Receiver-mutating methods: a tainted argument taints the receiver.
_RECEIVER_MUTATORS = frozenset(
    {"append", "add", "insert", "extend", "update", "setdefault"}
)

Label = Union[str, int]
Taint = frozenset  # of Label

_EMPTY: Taint = frozenset()


@dataclass
class FnSummary:
    """What the fixed point knows about one function."""

    #: Returns a token-level value regardless of arguments.
    returns_token: bool = False
    #: Returns taint when the given parameter index is tainted.
    returns_params: set[int] = field(default_factory=set)
    #: Parameter indices that flow into a hot call inside the function
    #: (directly or through further summarized calls).
    hot_params: set[int] = field(default_factory=set)
    #: Human-readable hot target per hot parameter, for messages.
    hot_via: dict[int, str] = field(default_factory=dict)

    def snapshot(self) -> tuple[bool, frozenset, frozenset]:
        return (
            self.returns_token,
            frozenset(self.returns_params),
            frozenset(self.hot_params),
        )


class _TaintPass:
    """One abstract-interpretation pass over one function body."""

    def __init__(
        self,
        project: ProjectContext,
        info: ModuleInfo,
        fn: FunctionInfo,
        summaries: dict[tuple[str, str], FnSummary],
        emit: Optional[list[tuple[ModuleInfo, ast.AST, str]]],
    ) -> None:
        self.project = project
        self.info = info
        self.fn = fn
        self.summaries = summaries
        self.summary = summaries[(fn.module, fn.qualname)]
        self.emit = emit
        self.param_index = {
            name: idx for idx, name in enumerate(fn.params)
        }
        self.env: dict[str, Taint] = {}
        #: True when the function is itself a hot sink: decode calls in
        #: here are INT002's finding, not a fresh INT003.
        self.in_hot_function = fn.name in HOT_SINKS

    # -- driving --------------------------------------------------------

    def run(self) -> None:
        # Two statement sweeps approximate loop-carried taint: a name
        # tainted late in a loop body is seen by earlier statements on
        # the second sweep.
        for _ in range(2):
            for stmt in self.fn.node.body:
                self._stmt(stmt)

    # -- statements -----------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            taint = self._expr(node.value)
            for target in node.targets:
                self._bind(target, taint)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._expr(node.value))
        elif isinstance(node, ast.AugAssign):
            taint = self._expr(node.value)
            if isinstance(node.target, ast.Name):
                self._merge(node.target.id, taint)
            else:
                self._bind(node.target, taint)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind(node.target, self._expr(node.iter))
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
        elif isinstance(node, (ast.If, ast.While)):
            self._expr(node.test)
            for stmt in node.body + node.orelse:
                self._stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            for stmt in node.body:
                self._stmt(stmt)
        elif isinstance(node, ast.Try):
            for stmt in (
                node.body + node.orelse + node.finalbody
            ):
                self._stmt(stmt)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._stmt(stmt)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._record_return(self._expr(node.value))
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        # Nested defs/classes are separate analysis units; `pass`,
        # `raise` etc. carry no taint.

    def _bind(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Writing a tainted value *into* a local container taints
            # the container.
            root = target
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                root = root.value
            if isinstance(root, ast.Name) and taint:
                self._merge(root.id, taint)

    def _merge(self, name: str, taint: Taint) -> None:
        if taint:
            self.env[name] = self.env.get(name, _EMPTY) | taint

    def _record_return(self, taint: Taint) -> None:
        if _TOK in taint:
            self.summary.returns_token = True
        for label in taint:
            if isinstance(label, int):
                self.summary.returns_params.add(label)

    # -- expressions ----------------------------------------------------

    def _expr(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            local = self.env.get(node.id)
            if local is not None:
                return local
            index = self.param_index.get(node.id)
            if index is not None:
                return frozenset({index})
            return _EMPTY
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            return self._expr(node.value)
        if isinstance(node, ast.Subscript):
            taint = self._expr(node.value)
            if isinstance(node.slice, ast.expr):
                self._expr(node.slice)
            return taint
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint = _EMPTY
            for element in node.elts:
                taint = taint | self._expr(element)
            return taint
        if isinstance(node, ast.Dict):
            taint = _EMPTY
            for key in node.keys:
                if key is not None:
                    taint = taint | self._expr(key)
            for value in node.values:
                taint = taint | self._expr(value)
            return taint
        if isinstance(node, ast.BinOp):
            return self._expr(node.left) | self._expr(node.right)
        if isinstance(node, ast.BoolOp):
            taint = _EMPTY
            for value in node.values:
                taint = taint | self._expr(value)
            return taint
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return self._expr(node.body) | self._expr(node.orelse)
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        if isinstance(node, ast.Await):
            return self._expr(node.value)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)
        ):
            return self._comprehension(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension(node, [node.key, node.value])
        if isinstance(node, ast.Compare):
            self._expr(node.left)
            for comparator in node.comparators:
                self._expr(comparator)
            return _EMPTY
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            # Formatting renders tokens to text; the result is a string
            # artifact, not a token-level value.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)
            return _EMPTY
        return _EMPTY

    def _comprehension(
        self,
        node: Union[
            ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp
        ],
        results: list[ast.expr],
    ) -> Taint:
        saved = dict(self.env)
        for generator in node.generators:
            iter_taint = self._expr(generator.iter)
            self._bind(generator.target, iter_taint)
            for condition in generator.ifs:
                self._expr(condition)
        taint = _EMPTY
        for result in results:
            taint = taint | self._expr(result)
        self.env = saved
        return taint

    # -- calls ----------------------------------------------------------

    def _call(self, node: ast.Call) -> Taint:
        arg_taints = [self._expr(arg) for arg in node.args]
        kw_taints = [
            (kw.arg, self._expr(kw.value)) for kw in node.keywords
        ]
        callee = node.func
        callee_name = self._callee_name(callee)
        resolved = self.project.resolve_function(
            self.info, callee, self.fn
        )

        # Sources: decode-boundary methods and chain re-renderers.
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr in DECODE_METHODS
        ):
            return frozenset({_TOK})
        if callee_name in RETOKENIZERS:
            return frozenset({_TOK})

        # Receiver mutation: container.append(tok) taints container.
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr in _RECEIVER_MUTATORS
            and isinstance(callee.value, ast.Name)
        ):
            incoming = _EMPTY
            for taint in arg_taints:
                incoming = incoming | taint
            for _, taint in kw_taints:
                incoming = incoming | taint
            self._merge(callee.value.id, incoming)

        # Sink checks.
        self._check_sink(
            node, callee_name, resolved, arg_taints, kw_taints
        )

        # Result taint.
        if resolved is not None:
            summary = self.summaries.get(
                (resolved.module, resolved.qualname)
            )
            if summary is not None:
                result = _EMPTY
                if summary.returns_token:
                    result = result | frozenset({_TOK})
                for index in summary.returns_params:
                    if index < len(arg_taints):
                        result = result | arg_taints[index]
                for name, taint in kw_taints:
                    if name is None:
                        continue
                    index = resolved.param_index(name)
                    if index is not None and index in summary.returns_params:
                        result = result | taint
                return result
        if callee_name is not None:
            dotted = self.info.imports.resolve(callee)
            if dotted in _PASSTHROUGH or callee_name in _PASSTHROUGH:
                result = _EMPTY
                for taint in arg_taints:
                    result = result | taint
                return result
        if isinstance(callee, ast.Attribute):
            # Unresolved method call: propagate the receiver's taint
            # (tokens.copy(), chain.pop(), " ".join-like accessors keep
            # token-level content token-level).
            return self._expr(callee.value)
        return _EMPTY

    def _check_sink(
        self,
        node: ast.Call,
        callee_name: Optional[str],
        resolved: Optional[FunctionInfo],
        arg_taints: list[Taint],
        kw_taints: list[tuple[Optional[str], Taint]],
    ) -> None:
        """Flag token taint entering a hot function, or propagate the
        hot-reachability of a parameter label to this function's
        summary."""
        is_hot = callee_name in HOT_SINKS
        summary = None
        if resolved is not None:
            summary = self.summaries.get(
                (resolved.module, resolved.qualname)
            )

        def handle(taint: Taint, hot_target: Optional[str]) -> None:
            if hot_target is None:
                return
            if _TOK in taint and not self.in_hot_function:
                if self.emit is not None:
                    self.emit.append(
                        (
                            self.info,
                            node,
                            f"{self.fn.qualname}() passes a token-level"
                            f" value into {hot_target}; hot paths run on"
                            " interned ids — decode at the boundary"
                            " instead (DESIGN.md §10)",
                        )
                    )
            for label in taint:
                if isinstance(label, int):
                    self.summary.hot_params.add(label)
                    self.summary.hot_via.setdefault(label, hot_target)

        for index, taint in enumerate(arg_taints):
            target: Optional[str] = None
            if is_hot:
                target = f"hot function {callee_name}()"
            elif (
                summary is not None
                and index in summary.hot_params
            ):
                via = summary.hot_via.get(index, "a hot function")
                target = (
                    f"{resolved.qualname}()"  # type: ignore[union-attr]
                    f" (parameter {index}, which reaches {via})"
                )
            handle(taint, target)
        for name, taint in kw_taints:
            target = None
            if is_hot:
                target = f"hot function {callee_name}()"
            elif (
                summary is not None
                and resolved is not None
                and name is not None
            ):
                index = resolved.param_index(name)
                if index is not None and index in summary.hot_params:
                    via = summary.hot_via.get(index, "a hot function")
                    target = (
                        f"{resolved.qualname}() (parameter"
                        f" '{name}', which reaches {via})"
                    )
            handle(taint, target)

    @staticmethod
    def _callee_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None


@register_project
class IdTaint(ProjectChecker):
    """INT003: interprocedural token-taint into the hot registry."""

    rules = (
        Rule(
            "INT003",
            "token-level value (SymbolTable decode) flows into an"
            " interned hot-path function",
        ),
    )

    #: Fixed-point bound; summaries are monotone so this is a safety
    #: net, not a tuning knob (real chains settle in 2-3 rounds).
    MAX_ROUNDS = 8

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        summaries: dict[tuple[str, str], FnSummary] = {
            (fn.module, fn.qualname): FnSummary()
            for _, fn in project.iter_functions()
        }
        for _ in range(self.MAX_ROUNDS):
            before = {
                key: summary.snapshot()
                for key, summary in summaries.items()
            }
            for info, fn in project.iter_functions():
                _TaintPass(project, info, fn, summaries, None).run()
            after = {
                key: summary.snapshot()
                for key, summary in summaries.items()
            }
            if after == before:
                break
        emitted: list[tuple[ModuleInfo, ast.AST, str]] = []
        for info, fn in project.iter_functions():
            _TaintPass(project, info, fn, summaries, emitted).run()
        seen: set[tuple[str, int, int, str]] = set()
        for info, node, message in emitted:
            key = (
                info.path,
                int(getattr(node, "lineno", 1)),
                int(getattr(node, "col_offset", 0)),
                message,
            )
            if key in seen:
                continue
            seen.add(key)
            yield self.finding_at(info, node, "INT003", message)


@register_project
class StageEscape(ProjectChecker):
    """PIPE002: stage state escaping through helpers or closures."""

    rules = (
        Rule(
            "PIPE002",
            "pipeline stage reaches module-global or closure-captured"
            " mutable state through a call",
        ),
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for info in project.infos:
            tree = info.tree
            if tree is None:
                continue
            for stage in stage_definitions(tree, info.imports):
                yield from self._check_stage_calls(project, info, stage)
            yield from self._check_closure_stages(info, tree)

    # -- one level of calls ---------------------------------------------

    def _check_stage_calls(
        self,
        project: ProjectContext,
        info: ModuleInfo,
        stage: "ast.ClassDef | _AnyFunc",
    ) -> Iterator[Finding]:
        kind = stage_kind(stage)
        reported: set[tuple[str, str]] = set()
        if isinstance(stage, ast.ClassDef):
            scopes = [
                info.functions.get(f"{stage.name}.{item.name}")
                for item in stage.body
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            ]
        else:
            scopes = [info.functions.get(stage.name)]
        for scope in scopes:
            if scope is None:
                continue
            for node in ast.walk(scope.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = project.resolve_function(info, node.func, scope)
                if callee is None:
                    continue
                if (
                    isinstance(stage, ast.ClassDef)
                    and callee.class_name == stage.name
                ):
                    continue  # intra-stage method: PIPE001 territory
                if callee.qualname == scope.qualname and (
                    callee.module == scope.module
                ):
                    continue
                owner = project.by_module.get(callee.module)
                if owner is None or owner.tree is None:
                    continue
                key = (callee.module, callee.qualname)
                if key in reported:
                    continue
                touched = self._touched_mutable_global(
                    callee.node,
                    mutable_module_globals(owner.tree, owner.imports),
                )
                if touched is None:
                    continue
                reported.add(key)
                where = (
                    ""
                    if callee.module == info.module
                    else f" in {callee.module}"
                )
                yield self.finding_at(
                    info,
                    node,
                    "PIPE002",
                    f"{kind} {stage.name} calls {callee.qualname}()"
                    f"{where}, which touches module-global mutable"
                    f" '{touched}'; state hidden behind a helper still"
                    " survives a checkpoint rebuild and breaks"
                    " bit-identical resume",
                )

    @staticmethod
    def _touched_mutable_global(
        func: _AnyFunc, mutable_globals: set[str]
    ) -> Optional[str]:
        shadowed = {
            a.arg
            for a in func.args.posonlyargs
            + func.args.args
            + func.args.kwonlyargs
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    return name
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
                and node.id not in shadowed
            ):
                return node.id
        return None

    # -- closure-captured state -----------------------------------------

    def _check_closure_stages(
        self, info: ModuleInfo, tree: ast.Module
    ) -> Iterator[Finding]:
        from repro.devtools.rules.pipeline import STAGE_FACTORIES

        enclosing = enclosing_function_map(tree)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and info.imports.resolve(node.func) in STAGE_FACTORIES
                and node.args
                and isinstance(node.args[0], ast.Name)
            ):
                continue
            scope = enclosing.get(node)
            if scope is None:
                continue
            target = node.args[0].id
            nested = next(
                (
                    child
                    for child in ast.walk(scope)
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and child.name == target
                    and enclosing.get(child) is scope
                ),
                None,
            )
            if nested is None:
                continue
            captured = self._captured_mutables(scope, nested, info)
            for name in sorted(captured):
                yield self.finding_at(
                    info,
                    node,
                    "PIPE002",
                    f"stage function {target} is a closure over mutable"
                    f" '{name}' from {scope.name}(); captured state is"
                    " invisible to checkpoint/resume and diverges the"
                    " rebuilt stage",
                )

    @staticmethod
    def _captured_mutables(
        scope: _AnyFunc, nested: _AnyFunc, info: ModuleInfo
    ) -> set[str]:
        mutable_locals: set[str] = set()
        for stmt in ast.walk(scope):
            if stmt is nested or isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and stmt is not scope:
                continue
            if isinstance(stmt, ast.Assign) and is_mutable_value(
                stmt.value, info.imports
            ):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        mutable_locals.add(target.id)
        own = {
            a.arg
            for a in nested.args.posonlyargs
            + nested.args.args
            + nested.args.kwonlyargs
        }
        own.update(
            t.id
            for n in ast.walk(nested)
            if isinstance(n, ast.Assign)
            for t in n.targets
            if isinstance(t, ast.Name)
        )
        captured: set[str] = set()
        for node in ast.walk(nested):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_locals
                and node.id not in own
            ):
                captured.add(node.id)
        return captured
