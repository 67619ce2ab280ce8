"""Fixture-corpus tests: every rule's violation and suppression path.

Each fixture under ``fixtures/`` is analyzed statically (never
imported). DET001 is package-scoped, so its fixtures are analyzed with
a synthetic module name placing them inside an algorithm package.
"""

from pathlib import Path

import pytest

from repro.devtools import analyze_paths, analyze_source

FIXTURES = Path(__file__).parent / "fixtures"

#: Module name placing a fixture inside an algorithm package (DET001).
ALGO_MODULE = "repro.stemming.fixture"

#: Module name placing a fixture inside the TAMP package (INT001).
TAMP_MODULE = "repro.tamp.fixture"

#: Module name placing a fixture inside the serve package (SRV001).
SERVE_MODULE = "repro.serve.fixture"


def analyze_fixture(name: str, module: str = ALGO_MODULE):
    source = (FIXTURES / name).read_text()
    return analyze_source(source, path=name, module=module)


def fixture_module(name: str) -> str:
    """The module name under which a fixture's rule actually fires."""
    if name.startswith("det001"):
        return ALGO_MODULE
    if name.startswith("int001"):
        return TAMP_MODULE
    if name.startswith("int002"):
        return ALGO_MODULE
    if name.startswith("srv001"):
        return SERVE_MODULE
    return "fixture"


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestDet001:
    def test_bad_flags_every_entropy_source(self):
        findings = analyze_fixture("det001_bad.py")
        assert rule_ids(findings) == ["DET001"] * 5
        messages = " ".join(f.message for f in findings)
        assert "random.random" in messages
        assert "random.choice" in messages
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("det001_ok.py") == []

    def test_suppressions_silence_both_styles(self):
        assert analyze_fixture("det001_suppressed.py") == []

    def test_rule_is_scoped_to_algorithm_packages(self):
        findings = analyze_fixture(
            "det001_bad.py", module="repro.simulator.fixture"
        )
        assert findings == []


class TestDet002:
    def test_bad_flags_each_ordered_sink(self):
        findings = analyze_fixture("det002_bad.py")
        assert rule_ids(findings) == ["DET002"] * 4
        messages = " ".join(f.message for f in findings)
        assert "str.join" in messages
        assert "list()" in messages
        assert "list comprehension" in messages
        assert "for loop" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("det002_ok.py") == []

    def test_suppressions(self):
        assert analyze_fixture("det002_suppressed.py") == []


class TestDet003:
    def test_bad_flags_identity_key_and_sort(self):
        findings = analyze_fixture("det003_bad.py")
        assert rule_ids(findings) == ["DET003"] * 2

    def test_suppressions(self):
        assert analyze_fixture("det003_suppressed.py") == []


class TestPipe001:
    def test_bad_flags_global_decl_and_mutable_refs(self):
        findings = analyze_fixture("pipe001_bad.py")
        assert rule_ids(findings) == ["PIPE001"] * 3
        messages = " ".join(f.message for f in findings)
        assert "global _CACHE" in messages
        assert "'_SEEN'" in messages
        assert "'_RECENT'" in messages
        assert "stage class DedupStage" in messages
        assert "stage class CountStage" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("pipe001_ok.py") == []

    def test_suppressions(self):
        assert analyze_fixture("pipe001_suppressed.py") == []

    def test_the_real_pipeline_stages_are_clean(self):
        import repro.pipeline.runtime
        import repro.pipeline.windows

        for mod in (repro.pipeline.runtime, repro.pipeline.windows):
            source = Path(mod.__file__).read_text()
            findings = analyze_source(
                source, path=mod.__file__, module=mod.__name__
            )
            assert findings == [], mod.__name__


class TestInc001:
    def test_bad_flags_attribute_subscript_and_sql_writes(self):
        findings = analyze_fixture("inc001_bad.py")
        assert rule_ids(findings) == ["INC001"] * 3
        messages = " ".join(f.message for f in findings)
        assert "record.status" in messages
        assert 'row["status"]' in messages
        assert "SQL UPDATE" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("inc001_ok.py") == []

    def test_suppressions(self):
        assert analyze_fixture("inc001_suppressed.py") == []

    def test_rule_needs_an_incident_import_or_package(self):
        # The same writes in a module that never touches
        # repro.incidents are someone else's status field.
        source = (
            "def close(ticket):\n"
            '    ticket.status = "resolved"\n'
        )
        assert analyze_source(source, path="x.py", module="fixture") == []
        findings = analyze_source(
            source, path="x.py", module="repro.incidents.tools"
        )
        assert rule_ids(findings) == ["INC001"]

    def test_the_sanctioned_writer_is_exempt(self):
        import repro.incidents.lifecycle as lifecycle

        source = Path(lifecycle.__file__).read_text()
        findings = analyze_source(
            source, path=lifecycle.__file__, module=lifecycle.__name__
        )
        assert findings == []

    def test_the_real_incident_modules_are_clean(self):
        import repro.incidents.manager
        import repro.incidents.store

        for mod in (repro.incidents.manager, repro.incidents.store):
            source = Path(mod.__file__).read_text()
            findings = analyze_source(
                source, path=mod.__file__, module=mod.__name__
            )
            assert findings == [], mod.__name__


class TestMut001:
    def test_bad_flags_every_mutable_default(self):
        findings = analyze_fixture("mut001_bad.py")
        assert rule_ids(findings) == ["MUT001"] * 4

    def test_ok_is_clean(self):
        assert analyze_fixture("mut001_ok.py") == []

    def test_suppressions(self):
        assert analyze_fixture("mut001_suppressed.py") == []


class TestCache001:
    def test_bad_flags_hookless_mutators(self):
        findings = analyze_fixture("cache001_bad.py")
        assert rule_ids(findings) == ["CACHE001"] * 3
        messages = " ".join(f.message for f in findings)
        assert "add_edge" in messages
        assert "drop_edge" in messages
        assert "drop_leaf() mutates self._fringe" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("cache001_ok.py") == []

    def test_suppressions(self):
        assert analyze_fixture("cache001_suppressed.py") == []


class TestInt001:
    def test_bad_flags_every_hot_path_regression(self):
        findings = analyze_fixture("int001_bad.py", module=TAMP_MODULE)
        assert rule_ids(findings) == ["INT001"] * 3
        messages = " ".join(f.message for f in findings)
        assert "set[Prefix]" in messages
        assert "'edge'" in messages
        assert "pack_edge" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("int001_ok.py", module=TAMP_MODULE) == []

    def test_suppressions(self):
        findings = analyze_fixture(
            "int001_suppressed.py", module=TAMP_MODULE
        )
        assert findings == []

    def test_rule_is_scoped_to_the_tamp_package(self):
        findings = analyze_fixture(
            "int001_bad.py", module="repro.simulator.fixture"
        )
        assert findings == []

    def test_the_real_hot_path_is_clean(self):
        """The interned builders themselves must pass their own gate."""
        import repro.tamp.graph
        import repro.tamp.tree

        for mod in (repro.tamp.tree, repro.tamp.graph):
            source = Path(mod.__file__).read_text()
            findings = analyze_source(
                source, path=mod.__file__, module=mod.__name__
            )
            int_findings = [f for f in findings if f.rule == "INT001"]
            assert int_findings == [], mod.__name__


class TestInt002:
    def test_bad_flags_decodes_and_retokenization(self):
        findings = analyze_fixture("int002_bad.py", module=ALGO_MODULE)
        assert rule_ids(findings) == ["INT002"] * 5
        messages = " ".join(f.message for f in findings)
        assert "route_path_tokens" in messages
        assert ".token()" in messages
        assert ".decode_pair()" in messages
        # The route-level apply and the tie ranking are watched too.
        assert "add_route_ids() calls .decode_pair()" in messages
        assert "rank_top() re-renders" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("int002_ok.py", module=ALGO_MODULE) == []

    def test_suppressions(self):
        findings = analyze_fixture(
            "int002_suppressed.py", module=ALGO_MODULE
        )
        assert findings == []

    def test_rule_fires_in_both_packages(self):
        findings = analyze_fixture("int002_bad.py", module=TAMP_MODULE)
        assert "INT002" in rule_ids(findings)

    def test_rule_is_scoped_to_stemming_and_tamp(self):
        findings = analyze_fixture(
            "int002_bad.py", module="repro.simulator.fixture"
        )
        assert findings == []

    def test_the_real_hot_paths_are_clean(self):
        """The interned counter/stemmer/animator pass their own gate."""
        import repro.stemming.counter
        import repro.stemming.stemmer
        import repro.tamp.animate
        import repro.tamp.graph
        import repro.tamp.incremental
        import repro.tamp.svg_animation

        for mod in (
            repro.stemming.counter,
            repro.stemming.stemmer,
            repro.tamp.graph,
            repro.tamp.incremental,
            repro.tamp.animate,
            repro.tamp.svg_animation,
        ):
            source = Path(mod.__file__).read_text()
            findings = analyze_source(
                source, path=mod.__file__, module=mod.__name__
            )
            int_findings = [f for f in findings if f.rule == "INT002"]
            assert int_findings == [], mod.__name__


class TestSrv001:
    def test_bad_flags_every_live_state_read(self):
        findings = analyze_fixture("srv001_bad.py", module=SERVE_MODULE)
        assert rule_ids(findings) == ["SRV001"] * 3
        messages = " ".join(f.message for f in findings)
        assert "shard.live_tamp" in messages
        assert "shard.live_window" in messages
        assert "shard.live_manager" in messages
        assert "snapshot surface" in messages

    def test_ok_is_clean(self):
        assert analyze_fixture("srv001_ok.py", module=SERVE_MODULE) == []

    def test_suppressions(self):
        findings = analyze_fixture(
            "srv001_suppressed.py", module=SERVE_MODULE
        )
        assert findings == []

    def test_rule_is_scoped_to_the_serve_package(self):
        findings = analyze_fixture(
            "srv001_bad.py", module="repro.pipeline.fixture"
        )
        assert findings == []

    def test_the_sanctioned_owners_are_exempt(self):
        findings = analyze_fixture(
            "srv001_bad.py", module="repro.serve.sharding"
        )
        assert findings == []

    def test_the_real_serve_handlers_are_clean(self):
        import repro.serve.app
        import repro.serve.driver
        import repro.serve.events
        import repro.serve.http

        for mod in (
            repro.serve.app,
            repro.serve.driver,
            repro.serve.events,
            repro.serve.http,
        ):
            source = Path(mod.__file__).read_text()
            findings = analyze_source(
                source, path=mod.__file__, module=mod.__name__
            )
            assert findings == [], mod.__name__


class TestEngineBehavior:
    def test_syntax_error_becomes_a_finding(self):
        findings = analyze_source("def broken(:\n", path="broken.py")
        assert len(findings) == 1
        assert findings[0].rule == "SYNTAX"

    def test_findings_are_sorted(self):
        source = (FIXTURES / "det001_bad.py").read_text()
        findings = analyze_source(source, path="x.py", module=ALGO_MODULE)
        assert findings == sorted(findings)

    def test_rules_filter(self):
        source = (FIXTURES / "mut001_bad.py").read_text()
        findings = analyze_source(source, path="x.py")
        assert rule_ids(findings) == ["MUT001"] * 4
        # An explicit filter excluding MUT001 leaves the file clean.
        from repro.devtools.engine import analyze_source as analyze

        assert analyze(source, path="x.py", rules={"DET002"}) == []

    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in FIXTURES.glob("*_bad.py")),
    )
    def test_every_bad_fixture_has_findings(self, name):
        assert analyze_fixture(name, module=fixture_module(name)) != []

    @pytest.mark.parametrize(
        "name",
        sorted(p.name for p in FIXTURES.glob("*_suppressed.py")),
    )
    def test_every_suppressed_fixture_is_clean(self, name):
        assert analyze_fixture(name, module=fixture_module(name)) == []


class TestAnalyzePaths:
    def test_findings_are_sorted_and_files_recorded(self, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "b.py").write_text("def f(x=[]):\n    return x\n")
        (package / "a.py").write_text("def g(y={}):\n    return y\n")
        findings = analyze_paths([package])
        assert findings == sorted(findings)
        assert [Path(f.path).name for f in findings] == ["a.py", "b.py"]
