"""MP502 — disk block plane hygiene for spill files.

Spill files carry the tupleblock wire format and live in the disk block
plane's crash-swept spill directory (:mod:`repro.runtime.spill`), and
both guarantees hold only while every access routes through the spill
module's hygiene-managed helpers (``write_spill``/``read_spill``, and
for ``DiskBlockTransport`` blocks ``write_spill_region``/
``map_spill_ids``/``seal_spill``/``resident_spill``).  Outside that
module, MP502 flags

* a ``read_table``/``write_table``/``preallocate_table``/
  ``table_layout`` call handed the tupleblock schema (the
  ``"metaprep/tupleblock"`` literal or a ``TUPLEBLOCK_SCHEMA``/
  ``_BLOCK_SCHEMA`` name) — a bespoke reimplementation of the spill
  format that the torn-write and publish guarantees do not cover;
* an ``open()`` call whose path argument is a string constant
  containing ``.spill`` — raw I/O against a spill file, bypassing the
  fsync'd temp-then-rename seal and the residency accounting.

The spill module itself is exempt — it *is* the API whose discipline
this rule enforces.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import terminal_name

#: the one module allowed to touch the spill wire format directly
SPILL_MODULE = "runtime/spill.py"

#: the tupleblock container schema tag (kept literal here: the checker
#: must not import runtime modules to analyze them)
TUPLEBLOCK_SCHEMA_LITERAL = "metaprep/tupleblock"

#: names that denote the tupleblock schema when referenced symbolically
TUPLEBLOCK_SCHEMA_NAMES = frozenset({"TUPLEBLOCK_SCHEMA", "_BLOCK_SCHEMA"})

#: table-container entry points that accept a schema argument
TABLE_FORMAT_CALLS = frozenset(
    {"read_table", "write_table", "preallocate_table", "table_layout"}
)


def _mentions_tupleblock_schema(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Constant):
        return expr.value == TUPLEBLOCK_SCHEMA_LITERAL
    return terminal_name(expr) in TUPLEBLOCK_SCHEMA_NAMES


def _check_spill_hygiene(module: SourceModule) -> List[Finding]:
    """MP502: direct spill-format/spill-file access outside the spill
    module."""
    findings: List[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func_name = terminal_name(node.func)
        arguments = list(node.args) + [kw.value for kw in node.keywords]
        if func_name in TABLE_FORMAT_CALLS and any(
            _mentions_tupleblock_schema(a) for a in arguments
        ):
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    rule="MP502",
                    message=(
                        f"{func_name}() handed the tupleblock spill schema "
                        "outside repro.runtime.spill; use write_spill/"
                        "read_spill (or a disk-plane block) so torn-write "
                        "detection and the seal protocol cover the file"
                    ),
                )
            )
        elif func_name == "open" and any(
            isinstance(a, ast.Constant)
            and isinstance(a.value, str)
            and ".spill" in a.value
            for a in arguments
        ):
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    rule="MP502",
                    message=(
                        "raw open() on a spill file outside "
                        "repro.runtime.spill; spill files are only valid "
                        "through the disk block plane (DiskBlockTransport "
                        "handles via write_block_region/resolve_block)"
                    ),
                )
            )
    return findings


def check_executor_resources(project: Project) -> List[Finding]:
    """Run the MP502 spill-hygiene analysis over ``project``."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.pkgpath != SPILL_MODULE:
            # the spill API itself owns the wire format and file I/O
            findings.extend(_check_spill_hygiene(module))
    return findings
