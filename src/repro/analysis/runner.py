"""Orchestration for ``metaprep check`` — parallel, incremental,
interprocedural.

The run is split the same way the pipeline itself splits work:

1. a **per-file pass** producing one :class:`FileArtifact` per source
   file — the module-local findings (determinism/purity/overflow/
   resources direct scans), the file's dataflow summary
   (:mod:`repro.analysis.dataflow`), and its suppression comments.
   Each artifact depends only on that file's bytes, so it is cached in
   ``.metaprep-cache/`` keyed by ``sha256(version, pkgpath, bytes)`` —
   the same content-fingerprint discipline the pipeline's checkpoint
   store uses — and the pass fans out over a process pool with
   ``--jobs N``;
2. a **driver pass** that always runs fresh: fingerprint coverage
   (cross-file by nature), the call-graph transitive MP201/MP302
   upgrades, the MP6xx lifecycle analysis over the assembled summaries,
   and the MP001 suppression audit.  Cross-file findings are never
   cached, which is what makes warm incremental runs sound — a change
   to one file re-derives every conclusion that could observe it.

Then the two noise controls apply in order: inline suppressions
(``# metaprep: ignore[RULE]``) remove findings at the source, and the
committed baseline absorbs known findings so only *new* ones gate.
Baseline entries no current finding consumes are reported as stale
(``--prune-baseline`` rewrites the file without them).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Counter as CounterType
from typing import Dict, List, Optional, Tuple

from repro.analysis.baseline import (
    BASELINE_FILENAME,
    Key,
    load_baseline,
    partition_baseline,
)
from repro.analysis.checkers.determinism import (
    check_determinism_direct,
    check_determinism_transitive,
)
from repro.analysis.checkers.fingerprint import check_fingerprint_coverage
from repro.analysis.checkers.gateway import check_gateway_purity
from repro.analysis.checkers.lifecycle import check_lifecycle
from repro.analysis.checkers.overflow import check_kmer_overflow
from repro.analysis.checkers.purity import (
    check_executor_purity_direct,
    check_executor_purity_transitive,
)
from repro.analysis.checkers.resources import check_executor_resources
from repro.analysis.dataflow import DATAFLOW_VERSION, ModuleSummary, summarize_module
from repro.analysis.findings import RULES, Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.suppress import (
    SuppressionComment,
    is_suppressed,
    parse_suppressions,
    scan_suppression_comments,
)

#: bump to invalidate every cached artifact (checker semantics changed)
ANALYSIS_VERSION = 4

#: cache directory name, created under the check root
CACHE_DIRNAME = ".metaprep-cache"

#: the module-local checkers of the per-file pass, in run order
_LOCAL_CHECKERS = (
    ("determinism", check_determinism_direct),
    ("purity", check_executor_purity_direct),
    ("overflow", check_kmer_overflow),
    ("resources", check_executor_resources),
    ("gateway", check_gateway_purity),
)


@dataclass
class FileArtifact:
    """Everything the driver needs from one source file — the unit of
    caching and of process-pool fan-out."""

    pkgpath: str
    relpath: str
    local_findings: Dict[str, List[Finding]] = field(default_factory=dict)
    summary: Optional[ModuleSummary] = None
    comments: List[SuppressionComment] = field(default_factory=list)


def analyze_file(task: Tuple[str, str, str]) -> FileArtifact:
    """Per-file pass: parse one source file and run every module-local
    analysis over it.

    Module-level (not nested) so :class:`ProcessPoolExecutor` can ship
    it to workers by reference.  The file is wrapped in a single-module
    mini :class:`Project` so the checkers run unchanged; their
    cross-file passes are structurally inert on one module.
    """
    pkgpath, relpath, text = task
    import ast as _ast

    tree = _ast.parse(text, filename=relpath)
    module = SourceModule(
        path=Path(relpath),
        relpath=relpath,
        pkgpath=pkgpath,
        text=text,
        tree=tree,
        suppressions=parse_suppressions(text),
    )
    mini = Project(Path("."), [module])
    artifact = FileArtifact(pkgpath=pkgpath, relpath=relpath)
    for name, checker in _LOCAL_CHECKERS:
        artifact.local_findings[name] = checker(mini)
    artifact.summary = summarize_module(module)
    artifact.comments = scan_suppression_comments(text)
    return artifact


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
def _cache_key(pkgpath: str, data: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(f"metaprep-check:v{ANALYSIS_VERSION}:d{DATAFLOW_VERSION}:".encode())
    digest.update(pkgpath.encode())
    digest.update(b"\x00")
    digest.update(data)
    return digest.hexdigest()


def _cache_load(cache_dir: Path, key: str) -> Optional[FileArtifact]:
    path = cache_dir / f"{key}.pkl"
    try:
        with path.open("rb") as handle:
            artifact = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
        return None
    return artifact if isinstance(artifact, FileArtifact) else None


def _cache_store(cache_dir: Path, key: str, artifact: FileArtifact) -> None:
    """Atomic (write-then-rename) so a crashed run never leaves a
    torn entry a later run would deserialize."""
    try:
        cache_dir.mkdir(exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, cache_dir / f"{key}.pkl")
    except OSError:
        pass  # a read-only checkout still checks, just without the cache


# ----------------------------------------------------------------------
# MP001 — suppression audit
# ----------------------------------------------------------------------
def _audit_suppressions(
    artifacts: List[FileArtifact], raw: List[Finding]
) -> List[Finding]:
    """One MP001 per suppression comment that cannot do its job."""
    by_location: Dict[Tuple[str, int], List[Finding]] = {}
    for finding in raw:
        by_location.setdefault((finding.path, finding.line), []).append(finding)

    audits: List[Finding] = []
    for artifact in artifacts:
        for comment in artifact.comments:
            if comment.malformed:
                audits.append(
                    Finding(
                        path=artifact.relpath,
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
                        path=artifact.relpath,
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
            here = by_location.get((artifact.relpath, comment.line), ())
            if "*" in comment.rules:
                useful = bool(here)
            else:
                useful = any(f.rule in comment.rules for f in here)
            if not useful:
                audits.append(
                    Finding(
                        path=artifact.relpath,
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
    #: findings absorbed by the baseline file
    baselined: List[Finding] = field(default_factory=list)
    #: findings that gate (new relative to suppressions + baseline)
    new: List[Finding] = field(default_factory=list)
    #: checker name -> number of raw findings it produced
    per_checker: Dict[str, int] = field(default_factory=dict)
    #: baseline keys consumed by current findings (what pruning keeps)
    baseline_used: "CounterType[Key]" = field(default_factory=Counter)
    #: baseline keys no current finding produces (dead weight)
    stale_baseline: "CounterType[Key]" = field(default_factory=Counter)
    #: per-file artifacts served from / written to the cache
    cache_hits: int = 0
    cache_misses: int = 0
    #: worker processes used for the per-file pass (1 = in-process)
    jobs: int = 1
    #: number of source files analyzed
    files: int = 0

    @property
    def ok(self) -> bool:
        """True when no new findings remain."""
        return not self.new


def run_checks(
    root: Path,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> CheckReport:
    """Run the full analysis over the checkout at ``root``.

    ``jobs > 1`` fans the per-file pass over a process pool; findings
    are identical to a serial run because the driver pass assembles the
    same artifacts either way.  ``use_cache=False`` (or a cold
    ``.metaprep-cache/``) recomputes every artifact.
    ``baseline_path`` defaults to ``<root>/.metaprep-baseline.json``;
    pass ``use_baseline=False`` to gate on the suppressed-only findings
    (what ``--write-baseline`` snapshots).
    """
    root = Path(root).resolve()
    project = Project.load(root)
    if cache_dir is None:
        cache_dir = root / CACHE_DIRNAME

    report = CheckReport(root=root, jobs=max(1, jobs), files=len(project.modules))

    # -- per-file pass (cached, parallel) ------------------------------
    artifacts: Dict[str, FileArtifact] = {}
    pending: List[Tuple[str, str, str]] = []
    pending_keys: Dict[str, str] = {}
    for module in project.modules:
        key = _cache_key(module.pkgpath, module.text.encode())
        artifact = _cache_load(cache_dir, key) if use_cache else None
        if artifact is not None:
            artifacts[module.pkgpath] = artifact
            report.cache_hits += 1
        else:
            pending.append((module.pkgpath, module.relpath, module.text))
            pending_keys[module.pkgpath] = key
            report.cache_misses += 1

    if pending:
        if report.jobs > 1 and len(pending) > 1:
            with ProcessPoolExecutor(max_workers=report.jobs) as pool:
                produced = list(pool.map(analyze_file, pending))
        else:
            produced = [analyze_file(task) for task in pending]
        for artifact in produced:
            artifacts[artifact.pkgpath] = artifact
            if use_cache:
                _cache_store(cache_dir, pending_keys[artifact.pkgpath], artifact)

    per_checker: Dict[str, List[Finding]] = {name: [] for name, _ in _LOCAL_CHECKERS}
    for pkgpath in sorted(artifacts):
        for name, found in artifacts[pkgpath].local_findings.items():
            per_checker.setdefault(name, []).extend(found)

    # -- driver pass (cross-file, always fresh) ------------------------
    # seed the memoized model from the (possibly cached) summaries so
    # the graph passes never re-derive what the per-file pass computed
    project._dataflow_summaries = {  # type: ignore[attr-defined]
        pkgpath: artifact.summary
        for pkgpath, artifact in artifacts.items()
        if artifact.summary is not None
    }
    fingerprint = check_fingerprint_coverage(project)
    per_checker["determinism"].extend(check_determinism_transitive(project))
    per_checker["purity"].extend(check_executor_purity_transitive(project))
    lifecycle = check_lifecycle(project)

    report.raw = sorted(
        fingerprint
        + lifecycle
        + [f for found in per_checker.values() for f in found]
    )
    ordered_artifacts = [artifacts[pkgpath] for pkgpath in sorted(artifacts)]
    audits = sorted(_audit_suppressions(ordered_artifacts, report.raw))
    report.raw = sorted(report.raw + audits)

    report.per_checker = {
        "fingerprint": len(fingerprint),
        "determinism": len(per_checker["determinism"]),
        "purity": len(per_checker["purity"]),
        "overflow": len(per_checker["overflow"]),
        "resources": len(per_checker["resources"]),
        "lifecycle": len(lifecycle),
        "gateway": len(per_checker["gateway"]),
        "suppress": len(audits),
    }

    # -- suppressions --------------------------------------------------
    by_relpath = {module.relpath: module for module in project.modules}
    unsuppressed: List[Finding] = []
    for finding in report.raw:
        module = by_relpath.get(finding.path)
        if (
            finding.rule != "MP001"  # the audit is not self-suppressible
            and module is not None
            and is_suppressed(module.suppressions, finding.line, finding.rule)
        ):
            report.suppressed.append(finding)
        else:
            unsuppressed.append(finding)

    # -- baseline ------------------------------------------------------
    if use_baseline:
        if baseline_path is None:
            baseline_path = root / BASELINE_FILENAME
        baseline = load_baseline(baseline_path)
        report.new, report.baseline_used, report.stale_baseline = partition_baseline(
            unsuppressed, baseline
        )
        new_ids = {id(finding) for finding in report.new}
        report.baselined = [f for f in unsuppressed if id(f) not in new_ids]
    else:
        report.new = unsuppressed
    return report
