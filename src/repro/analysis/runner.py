"""Orchestration for ``metaprep check``: one pass over one parse.

:meth:`Project.load <repro.analysis.project.Project.load>` parses and
tokenizes each source file once; every checker in :data:`CHECKERS`
then runs over that one :class:`~repro.analysis.project.Project`.  The
MP001 audit then checks every suppression comment against the raw
findings, and inline suppressions (``# metaprep: ignore[RULE]``) — the
only way to silence a finding — split the rest into suppressed and new.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.analysis.checkers.determinism import check_determinism
from repro.analysis.checkers.gateway import check_gateway_purity
from repro.analysis.findings import RULES, Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.suppress import is_suppressed

#: checker name -> checker function, in run order
CHECKERS: Dict[str, Callable[[Project], List[Finding]]] = {
    "determinism": check_determinism,
    "gateway": check_gateway_purity,
}


# ----------------------------------------------------------------------
# MP001 — suppression audit
# ----------------------------------------------------------------------
def _audit_suppressions(
    modules: List[SourceModule], raw: List[Finding]
) -> List[Finding]:
    """One MP001 per suppression comment that cannot do its job."""
    by_location: Dict[Tuple[str, int], List[Finding]] = {}
    for finding in raw:
        by_location.setdefault((finding.path, finding.line), []).append(finding)

    audits: List[Finding] = []
    for module in modules:
        for comment in module.comments:
            if comment.malformed:
                audits.append(
                    Finding(
                        path=module.relpath,
                        line=comment.line,
                        rule="MP001",
                        message=(
                            "malformed suppression comment: expected "
                            "'# metaprep: ignore[RULE, ...]'"
                        ),
                    )
                )
                continue
            unknown = sorted(
                rule for rule in comment.rules if rule != "*" and rule not in RULES
            )
            if unknown:
                audits.append(
                    Finding(
                        path=module.relpath,
                        line=comment.line,
                        rule="MP001",
                        message=(
                            "suppression comment names unknown rule id"
                            f"{'s' if len(unknown) > 1 else ''} "
                            f"{', '.join(unknown)}"
                        ),
                    )
                )
                continue
            here = by_location.get((module.relpath, comment.line), ())
            if "*" in comment.rules:
                useful = bool(here)
            else:
                useful = any(f.rule in comment.rules for f in here)
            if not useful:
                audits.append(
                    Finding(
                        path=module.relpath,
                        line=comment.line,
                        rule="MP001",
                        message=(
                            f"suppression of {', '.join(comment.rules)} "
                            "matches no finding on this line; delete the "
                            "comment or move it to the offending line"
                        ),
                    )
                )
    return audits


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class CheckReport:
    """Outcome of one analysis run."""

    root: Path
    #: every finding the checkers produced, sorted
    raw: List[Finding] = field(default_factory=list)
    #: findings removed by inline ``# metaprep: ignore[...]`` comments
    suppressed: List[Finding] = field(default_factory=list)
    #: findings that gate (every unsuppressed finding)
    new: List[Finding] = field(default_factory=list)
    #: checker name -> number of raw findings it produced
    per_checker: Dict[str, int] = field(default_factory=dict)
    #: number of source files analyzed
    files: int = 0

    @property
    def ok(self) -> bool:
        """True when no new findings remain."""
        return not self.new


def run_checks(root: Path) -> CheckReport:
    """Run every checker in :data:`CHECKERS` over the checkout at ``root``."""
    root = Path(root).resolve()
    project = Project.load(root)
    report = CheckReport(root=root, files=len(project.modules))

    raw: List[Finding] = []
    for name, checker in CHECKERS.items():
        found = checker(project)
        report.per_checker[name] = len(found)
        raw.extend(found)
    audits = _audit_suppressions(project.modules, raw)
    report.per_checker["suppress"] = len(audits)
    report.raw = sorted(raw + audits)

    by_relpath = {module.relpath: module for module in project.modules}
    for finding in report.raw:
        module = by_relpath.get(finding.path)
        if (
            finding.rule != "MP001"  # the audit is not self-suppressible
            and module is not None
            and is_suppressed(module.suppressions, finding.line, finding.rule)
        ):
            report.suppressed.append(finding)
        else:
            report.new.append(finding)
    return report
