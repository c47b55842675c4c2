"""Invariant-checking static analysis for the METAPREP codebase.

``metaprep check`` runs six AST-based checkers over ``src/repro`` and
reports structured findings (file, line, rule id, message):

* **fingerprint** (MP101–MP104) — every ``PipelineConfig`` field read by
  partition-affecting code must be covered by the checkpoint/artifact
  fingerprint (:func:`repro.core.checkpoint.config_payload`) or
  explicitly declared partition-irrelevant;
* **determinism** (MP201–MP203) — no wall-clock time, unseeded RNGs, or
  unordered-set iteration in result-affecting paths;
* **purity** (MP301–MP302) — callables submitted to the execution
  backends must be picklable module-level functions free of
  module-global writes;
* **overflow** (MP401) — k-derived shift widths must not exceed one
  64-bit packed-kmer limb unless guarded by the limb count;
* **resources** (MP502) — spill files and the tupleblock spill schema
  are touched only inside the disk block plane's spill module;
* **gateway** (MP605) — ``async`` gateway handlers must not write
  module globals or block the event loop in ``time.sleep``.

Findings are silenced only inline, with ``# metaprep: ignore[RULE]``;
the MP001 audit reports a suppression comment that is malformed, names
an unknown rule, or silences nothing.  ``metaprep check --strict`` exits
non-zero on any unsuppressed finding.  The whole subsystem is
stdlib-only (``ast`` + ``tokenize``) so the CI gate runs without the
numeric stack.
"""

from repro.analysis.findings import RULES, Finding
from repro.analysis.project import Project, ProjectLayoutError, SourceModule
from repro.analysis.runner import CHECKERS, CheckReport, run_checks
from repro.analysis.suppress import is_suppressed, parse_suppressions

__all__ = [
    "CHECKERS",
    "CheckReport",
    "Finding",
    "Project",
    "ProjectLayoutError",
    "RULES",
    "SourceModule",
    "is_suppressed",
    "parse_suppressions",
    "run_checks",
]
