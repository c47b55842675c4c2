"""Suppression parsing and runner integration."""

import ast
import tokenize

from repro.analysis.findings import RULES
from repro.analysis.runner import run_checks
from repro.analysis.suppress import (
    is_suppressed,
    scan_suppression_comments,
    suppression_map,
)


def suppressions_in(text):
    """Line -> suppressed rule ids, the way ``Project`` builds them."""
    return suppression_map(scan_suppression_comments(text))


class TestSuppressionParsing:
    def test_single_rule(self):
        sup = suppressions_in("x = 1  # metaprep: ignore[MP203]\n")
        assert is_suppressed(sup, 1, "MP203")
        assert not is_suppressed(sup, 1, "MP201")
        assert not is_suppressed(sup, 2, "MP203")

    def test_multiple_rules(self):
        sup = suppressions_in("x = 1  # metaprep: ignore[MP201, MP203]\n")
        assert is_suppressed(sup, 1, "MP201")
        assert is_suppressed(sup, 1, "MP203")

    def test_wildcard(self):
        sup = suppressions_in("x = 1  # metaprep: ignore[*]\n")
        for rule in RULES:
            assert is_suppressed(sup, 1, rule)

    def test_string_literal_does_not_count(self):
        sup = suppressions_in('x = "# metaprep: ignore[MP203]"\n')
        assert sup == {}

    def test_plain_comment_does_not_count(self):
        assert suppressions_in("x = 1  # a normal comment\n") == {}

    def test_prose_mention_is_not_a_directive(self):
        # a comment *talking about* the marker mid-text is not a directive
        text = "x = 1  # findings silenced via `# metaprep: ignore[...]`\n"
        assert suppressions_in(text) == {}
        assert scan_suppression_comments(text) == []

    def test_multiple_rules_deduplicated_and_sorted(self):
        text = "x = 1  # metaprep: ignore[MP203, MP201, MP203]\n"
        (comment,) = scan_suppression_comments(text)
        assert comment.rules == ("MP201", "MP203")
        assert not comment.malformed

    def test_malformed_missing_brackets(self):
        (comment,) = scan_suppression_comments("x = 1  # metaprep: ignore\n")
        assert comment.malformed
        assert comment.rules == ()
        assert suppressions_in("x = 1  # metaprep: ignore\n") == {}

    def test_malformed_empty_brackets(self):
        (comment,) = scan_suppression_comments("x = 1  # metaprep: ignore[]\n")
        assert comment.malformed

    def test_malformed_unclosed_bracket(self):
        (comment,) = scan_suppression_comments("x = 1  # metaprep: ignore[MP203\n")
        assert comment.malformed

    def test_continuation_line_comment_location(self):
        # the comment lives on the physical line it is written on — a
        # suppression on a continuation line does not cover a finding
        # anchored at the statement's first line
        text = "value = max(\n    1,  # metaprep: ignore[MP203]\n    2,\n)\n"
        sup = suppressions_in(text)
        assert is_suppressed(sup, 2, "MP203")
        assert not is_suppressed(sup, 1, "MP203")


OFFENDING = {
    "index/build.py": """
        def names(items):
            seen = set(items)
            return [x for x in seen]
    """
}

SUPPRESSED = {
    "index/build.py": """
        def names(items):
            seen = set(items)
            return [x for x in seen]  # metaprep: ignore[MP203]
    """
}


class TestRunnerIntegration:
    def test_finding_gates_without_baseline(self, make_project, project_root):
        make_project(OFFENDING)
        report = run_checks(project_root)
        assert not report.ok
        assert [f.rule for f in report.new] == ["MP203"]

    def test_inline_suppression_clears(self, make_project, project_root):
        make_project(SUPPRESSED)
        report = run_checks(project_root)
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["MP203"]

    def test_mp001_unknown_rule_id(self, make_project, project_root):
        make_project(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]  # metaprep: ignore[MP999]
                """
            }
        )
        report = run_checks(project_root)
        assert not report.ok
        assert sorted(f.rule for f in report.new) == ["MP001", "MP203"]
        (audit,) = [f for f in report.new if f.rule == "MP001"]
        assert "MP999" in audit.message

    def test_mp001_suppresses_nothing(self, make_project, project_root):
        make_project(
            {
                "index/build.py": """
                    def names(items):  # metaprep: ignore[MP203]
                        return sorted(items)
                """
            }
        )
        report = run_checks(project_root)
        assert [f.rule for f in report.new] == ["MP001"]
        assert "matches no finding" in report.new[0].message

    def test_mp001_malformed_comment(self, make_project, project_root):
        make_project(
            {
                "index/build.py": """
                    def names(items):  # metaprep: ignore[MP203
                        return sorted(items)
                """
            }
        )
        report = run_checks(project_root)
        assert [f.rule for f in report.new] == ["MP001"]
        assert "malformed" in report.new[0].message

    def test_mp001_not_emitted_for_working_suppression(
        self, make_project, project_root
    ):
        make_project(SUPPRESSED)
        report = run_checks(project_root)
        assert report.ok
        assert report.per_checker["suppress"] == 0

    def test_suppression_on_continuation_line_does_not_cover(
        self, make_project, project_root
    ):
        # the MP203 finding anchors at the comprehension's line; a
        # suppression on the closing-paren continuation line is useless
        # and is itself reported by MP001
        make_project(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [
                            x for x in seen
                        ]  # metaprep: ignore[MP203]
                """
            }
        )
        report = run_checks(project_root)
        assert not report.ok
        assert sorted(f.rule for f in report.new) == ["MP001", "MP203"]

    def test_per_checker_counts(self, make_project, project_root):
        make_project(OFFENDING)
        report = run_checks(project_root)
        assert report.per_checker["determinism"] == 1
        assert set(report.per_checker) == {"determinism", "gateway", "suppress"}

    def test_each_file_parsed_and_tokenized_once(
        self, make_project, project_root, monkeypatch
    ):
        project = make_project(
            {
                **OFFENDING,
                "util/stamp.py": """
                    import time

                    def stamp():
                        return time.time()  # metaprep: ignore[MP201]
                """,
                "core/emit.py": """
                    from repro.util.stamp import stamp

                    def emit(record):
                        record["at"] = stamp()
                        return record
                """,
            }
        )
        calls = {"parse": 0, "tokenize": 0}
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return real_parse(*args, **kwargs)

        def counting_tokens(*args, **kwargs):
            calls["tokenize"] += 1
            return real_tokens(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        report = run_checks(project_root)
        assert report.files == len(project.modules) == 3
        assert calls == {"parse": 3, "tokenize": 3}
        assert [f.rule for f in report.suppressed] == ["MP201"]
