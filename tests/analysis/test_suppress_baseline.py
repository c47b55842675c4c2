"""The ban on ``# metaprep: ignore`` comments (MP001): what counts as one,
and that such a comment silences nothing."""

import ast
import tokenize
from collections import Counter

from tests.analysis.hazards import scan


def mp001_lines(text, pkgpath="core/emit.py"):
    """Lines of ``text`` that MP001 flags."""
    return [line for _, line, rule in scan({pkgpath: text}) if rule == "MP001"]


class TestSuppressionParsing:
    def test_single_rule(self):
        assert mp001_lines("x = 1  # metaprep: ignore[MP203]\n") == [1]

    def test_multiple_rules(self):
        assert mp001_lines("x = 1  # metaprep: ignore[MP201, MP203]\n") == [1]

    def test_wildcard(self):
        assert mp001_lines("x = 1  # metaprep: ignore[*]\n") == [1]

    def test_string_literal_does_not_count(self):
        assert mp001_lines('x = "# metaprep: ignore[MP203]"\n') == []

    def test_plain_comment_does_not_count(self):
        assert mp001_lines("x = 1  # a normal comment\n") == []

    def test_prose_mention_is_not_a_directive(self):
        # a comment *talking about* the marker mid-text is not a directive
        text = "x = 1  # findings silenced via `# metaprep: ignore[...]`\n"
        assert mp001_lines(text) == []

    def test_multiple_rules_deduplicated_and_sorted(self):
        # one comment is one finding, however many rule ids it names
        text = "x = 1  # metaprep: ignore[MP203, MP201, MP203]\n"
        assert mp001_lines(text) == [1]

    def test_malformed_missing_brackets(self):
        assert mp001_lines("x = 1  # metaprep: ignore\n") == [1]

    def test_malformed_empty_brackets(self):
        assert mp001_lines("x = 1  # metaprep: ignore[]\n") == [1]

    def test_malformed_unclosed_bracket(self):
        assert mp001_lines("x = 1  # metaprep: ignore[MP203\n") == [1]

    def test_continuation_line_comment_location(self):
        # the finding lives on the physical line the comment is written on,
        # not on the statement's first line
        text = "value = max(\n    1,  # metaprep: ignore[MP203]\n    2,\n)\n"
        assert mp001_lines(text) == [2]


OFFENDING = {
    "index/build.py": """
        def names(items):
            seen = set(items)
            return [x for x in seen]
    """
}


class TestRunnerIntegration:
    def test_finding_gates_without_baseline(self):
        # no baseline file forgives a finding
        assert scan(OFFENDING) == [("index/build.py", 4, "MP203")]

    def test_mp001_unknown_rule_id(self):
        findings = scan(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]  # metaprep: ignore[MP999]
                """
            }
        )
        assert findings == [
            ("index/build.py", 4, "MP001"),
            ("index/build.py", 4, "MP203"),
        ]

    def test_mp001_suppresses_nothing(self):
        findings = scan(
            {
                "index/build.py": """
                    def names(items):  # metaprep: ignore[MP203]
                        return sorted(items)
                """
            }
        )
        assert findings == [("index/build.py", 2, "MP001")]

    def test_mp001_malformed_comment(self):
        findings = scan(
            {
                "index/build.py": """
                    def names(items):  # metaprep: ignore[MP203
                        return sorted(items)
                """
            }
        )
        assert findings == [("index/build.py", 2, "MP001")]

    def test_suppression_on_continuation_line_does_not_cover(self):
        # the MP203 finding anchors at the comprehension's line and the
        # comment at the closing bracket's; both are reported
        findings = scan(
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
        assert findings == [
            ("index/build.py", 5, "MP203"),
            ("index/build.py", 6, "MP001"),
        ]

    def test_per_checker_counts(self):
        findings = scan(
            {
                **OFFENDING,
                "runtime/stamp.py": """
                    import time

                    def stamp():
                        return time.time()  # metaprep: ignore[MP201]
                """,
                "gateway/app.py": """
                    import time

                    async def handle(request):
                        time.sleep(0.1)
                """,
                "cc/jitter.py": """
                    import numpy as np

                    def jitter():
                        return np.random.rand()
                """,
            }
        )
        assert Counter(rule for _, _, rule in findings) == {
            "MP001": 1,
            "MP201": 1,
            "MP202": 1,
            "MP203": 1,
            "MP605": 1,
        }

    def test_each_file_parsed_and_tokenized_once(self, monkeypatch):
        files = {
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
        findings = scan(files)
        assert calls == {"parse": 3, "tokenize": 3}
        assert findings == [
            ("index/build.py", 4, "MP203"),
            ("util/stamp.py", 5, "MP001"),
            ("util/stamp.py", 5, "MP201"),
        ]
