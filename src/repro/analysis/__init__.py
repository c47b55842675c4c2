"""Invariant-checking static analysis for the METAPREP codebase.

``metaprep check`` runs two AST-based checkers over ``src/repro`` and
reports structured findings (file, line, rule id, message):

* **determinism** (MP201–MP203) — no wall-clock time outside the service
  layer, no unseeded RNGs, and no unordered-set iteration in
  result-affecting paths;
* **gateway** (MP605) — ``async`` gateway handlers must not write
  module globals or block the event loop in ``time.sleep``.

A rule stays here only while it guards a hazard no test sees: the
config fingerprint, executor payloads, k-mer limb overflow and spill
file access are guarded by tests instead (DESIGN.md §9 maps each to
its test).

Findings are silenced only inline, with ``# metaprep: ignore[RULE]``;
the MP001 audit reports a suppression comment that is malformed, names
an unknown rule, or silences nothing.  ``metaprep check --strict`` exits
non-zero on any unsuppressed finding.  The whole subsystem is
stdlib-only (``ast`` + ``tokenize``) so the CI gate runs without the
numeric stack.
"""
