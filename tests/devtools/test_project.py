"""Project-layer tests: symbol index, cross-module rules.

The multi-file cases build little ``repro.*`` trees on disk (the
``repro`` anchor is what :func:`module_name_for` keys on) and run the
real engine over them, so the re-export resolver and the whole-program
rules are exercised exactly as ``repro lint`` runs them.
"""

import ast
from pathlib import Path

from repro.devtools.engine import analyze_paths, module_name_for
from repro.devtools.project import ProjectContext, build_project


def make_tree(root: Path, files: dict[str, str]) -> list[Path]:
    paths = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        paths.append(path)
    return sorted(paths)


def project_for(root: Path, files: dict[str, str]) -> ProjectContext:
    paths = make_tree(root, files)
    return build_project([(p, module_name_for(p)) for p in paths])


class TestSymbolIndex:
    def test_resolves_local_imported_and_aliased_calls(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "repro/util.py": "def helper(x):\n    return x\n",
                "repro/use.py": (
                    "import repro.util as u\n"
                    "from repro.util import helper\n"
                    "def local():\n    return 1\n"
                ),
            },
        )
        info = project.by_module["repro.use"]

        def callee(expr):
            return ast.parse(expr, mode="eval").body

        local = project.resolve_function(info, callee("local"))
        assert local is not None and local.qualname == "local"
        imported = project.resolve_function(info, callee("helper"))
        assert imported is not None and imported.module == "repro.util"
        aliased = project.resolve_function(info, callee("u.helper"))
        assert aliased is not None and aliased.qualname == "helper"
        assert project.resolve_function(info, callee("json.loads")) is None

    def test_resolves_through_a_package_reexport(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "repro/pkg/__init__.py": "from repro.pkg.impl import fn\n",
                "repro/pkg/impl.py": "def fn():\n    return 1\n",
                "repro/use.py": (
                    "from repro.pkg import fn\n"
                    "def g():\n    return fn()\n"
                ),
            },
        )
        info = project.by_module["repro.use"]
        call = ast.parse("fn", mode="eval").body
        found = project.resolve_function(info, call)
        assert found is not None
        assert found.module == "repro.pkg.impl"

    def test_resolves_self_methods(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "repro/cls.py": (
                    "class C:\n"
                    "    def a(self):\n        return self.b()\n"
                    "    def b(self):\n        return 1\n"
                ),
            },
        )
        info = project.by_module["repro.cls"]
        scope = info.functions["C.a"]
        call = ast.parse("self.b", mode="eval").body
        found = project.resolve_function(info, call, scope)
        assert found is not None and found.qualname == "C.b"

    def test_method_params_strip_self(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "repro/cls.py": (
                    "class C:\n"
                    "    def m(self, first, second):\n        return first\n"
                ),
            },
        )
        fn = project.by_module["repro.cls"].functions["C.m"]
        assert fn.params == ("first", "second")
        assert fn.param_index("second") == 1


class TestCrossModuleTaint:
    def test_int003_tracks_a_token_across_modules(self, tmp_path):
        paths = make_tree(
            tmp_path,
            {
                "repro/decode.py": (
                    "def decode_route(table, i):\n"
                    "    return table.token(i)\n"
                ),
                "repro/flow.py": (
                    "from repro.decode import decode_route\n"
                    "from repro.tamp.graph import merge_view\n"
                    "def leak(table, store):\n"
                    "    value = decode_route(table, 3)\n"
                    "    merge_view(store, value)\n"
                ),
            },
        )
        findings = analyze_paths(paths)
        int003 = [f for f in findings if f.rule == "INT003"]
        assert len(int003) == 1
        assert int003[0].path.endswith("flow.py")
        assert "merge_view" in int003[0].message

    def test_clean_cross_module_flow_stays_clean(self, tmp_path):
        paths = make_tree(
            tmp_path,
            {
                "repro/ids.py": (
                    "def normalize(ids):\n"
                    "    return sorted(ids)\n"
                ),
                "repro/flow.py": (
                    "from repro.ids import normalize\n"
                    "from repro.tamp.graph import merge_view\n"
                    "def hot(store, ids):\n"
                    "    merge_view(store, normalize(ids))\n"
                ),
            },
        )
        assert analyze_paths(paths) == []


class TestAnalyzeProjectBasics:
    def test_findings_are_sorted_and_files_recorded(self, tmp_path):
        paths = make_tree(
            tmp_path,
            {
                "repro/b.py": "def f(x=[]):\n    return x\n",
                "repro/a.py": "def g(y={}):\n    return y\n",
            },
        )
        findings = analyze_paths(paths)
        assert findings == sorted(findings)
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]
