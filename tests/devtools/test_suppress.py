"""Unit tests for the ``# repro: allow[RULE]`` suppression scanner."""

from repro.devtools.suppress import Suppressions


class TestInline:
    def test_inline_comment_silences_its_own_line(self):
        sup = Suppressions.scan(
            "x = 1\ny = rng()  # repro: allow[DET001] justified\n"
        )
        assert sup.is_allowed("DET001", 2)
        assert not sup.is_allowed("DET001", 1)

    def test_rule_must_match(self):
        sup = Suppressions.scan("y = f()  # repro: allow[DET001]\n")
        assert not sup.is_allowed("DET002", 1)

    def test_multiple_rules_one_comment(self):
        sup = Suppressions.scan(
            "y = f()  # repro: allow[DET001, PIPE001]\n"
        )
        assert sup.is_allowed("DET001", 1)
        assert sup.is_allowed("PIPE001", 1)

    def test_star_allows_everything(self):
        sup = Suppressions.scan("y = f()  # repro: allow[*]\n")
        assert sup.is_allowed("CACHE001", 1)


class TestStandalone:
    def test_standalone_comment_covers_next_code_line(self):
        sup = Suppressions.scan(
            "# repro: allow[DET002] insertion order is deterministic\n"
            "x = list(d.values())\n"
        )
        assert sup.is_allowed("DET002", 2)
        assert not sup.is_allowed("DET002", 1)

    def test_justification_block_skips_continuation_comments(self):
        sup = Suppressions.scan(
            "# repro: allow[DET002] the builder is single-threaded\n"
            "# by construction, so insertion order is stable.\n"
            "\n"
            "x = list(d.values())\n"
        )
        assert sup.is_allowed("DET002", 4)

    def test_trailing_comment_at_eof_is_inert(self):
        sup = Suppressions.scan("x = 1\n# repro: allow[DET001]\n")
        assert not sup.is_allowed("DET001", 1)
        # Falls back to its own (code-free) line; nothing to silence.
        assert sup.is_allowed("DET001", 2)


class TestRobustness:
    def test_marker_inside_string_is_not_a_suppression(self):
        sup = Suppressions.scan(
            's = "# repro: allow[DET001]"\nx = f()\n'
        )
        assert not sup.is_allowed("DET001", 1)
        assert not sup.is_allowed("DET001", 2)

    def test_untokenizable_source_falls_back_to_line_scan(self):
        # Unterminated string: tokenize raises, the line scan still
        # honors the comment.
        sup = Suppressions.scan(
            'x = f()  # repro: allow[DET001]\ns = "unterminated\n'
        )
        assert sup.is_allowed("DET001", 1)

    def test_plain_comments_are_ignored(self):
        sup = Suppressions.scan("# just a note\nx = 1\n")
        assert sup.line_count == 0
