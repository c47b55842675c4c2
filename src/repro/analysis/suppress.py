"""Inline suppression comments: ``# metaprep: ignore[RULE, ...]``.

A finding is suppressed when the line it points at carries a suppression
comment naming its rule id (or the wildcard ``*``)::

    started = time.time()    # metaprep: ignore[MP201]
    for item in candidates:  # metaprep: ignore[MP203, MP201]

Suppressions are parsed from the token stream, not by regex over raw
lines, so rule text inside string literals never counts.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

#: matches the suppression payload; anchored at the start of the
#: comment token so prose that merely *mentions* the marker text
#: mid-comment is not a directive
_PATTERN = re.compile(r"#[#:!]*\s*metaprep:\s*ignore\[([A-Za-z0-9*,\s]+)\]")

#: matches the suppression *intent* — used to catch malformed comments
#: (missing/empty/unclosed brackets) that the strict pattern rejects
_MARKER = re.compile(r"#[#:!]*\s*metaprep:\s*ignore")


@dataclass(frozen=True)
class SuppressionComment:
    """One ``# metaprep: ignore[...]`` comment, parsed or not.

    ``malformed`` comments carry no rules: the marker was present but
    the bracket payload did not parse, which MP001 reports rather than
    silently ignoring (the author *believed* they suppressed something).
    """

    line: int
    rules: Tuple[str, ...]
    malformed: bool = False


def scan_suppression_comments(text: str) -> List[SuppressionComment]:
    """Every suppression comment in ``text``, malformed ones included.

    A file that fails to tokenize (which would also fail to parse)
    yields no comments.
    """
    comments: List[SuppressionComment] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except tokenize.TokenizeError:
        return []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        if not _MARKER.match(tok.string):
            continue
        match = _PATTERN.match(tok.string)
        rules = (
            tuple(
                sorted(
                    {
                        part.strip()
                        for part in match.group(1).split(",")
                        if part.strip()
                    }
                )
            )
            if match
            else ()
        )
        comments.append(
            SuppressionComment(
                line=tok.start[0], rules=rules, malformed=not rules
            )
        )
    return comments


def suppression_map(
    comments: List[SuppressionComment],
) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> rule ids suppressed on that line, from
    scanned comments.  The wildcard ``*`` suppresses every rule on the
    line; malformed comments contribute nothing."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for comment in comments:
        if comment.malformed:
            continue
        suppressions[comment.line] = suppressions.get(
            comment.line, frozenset()
        ) | frozenset(comment.rules)
    return suppressions


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule: str
) -> bool:
    """True when ``rule`` is suppressed on ``line``."""
    rules = suppressions.get(line)
    return rules is not None and (rule in rules or "*" in rules)
