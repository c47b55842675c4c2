"""MP5xx — executor resource hygiene for shared memory and spill files.

The zero-copy dataplane (:mod:`repro.runtime.buffers`) owns every
shared-memory segment in the repository: pools create segments with
tracked names and guaranteed unlink-on-exit, and workers attach through
:func:`~repro.runtime.buffers.open_block`, which owns no lifecycle at
all.  A ``SharedMemory`` object constructed anywhere else is a leak
waiting for a crash: nothing sweeps it in the pipeline's ``finally``,
the ``/dev/shm`` name outlives the process, and the resource tracker's
exit warning is the only witness.  One rule, two triggers:

* **MP501** — a ``SharedMemory`` segment is *created*
  (``create=True``) outside the buffer-pool module.  Creation is the
  pool's exclusive privilege — routing through
  :class:`~repro.runtime.buffers.SharedMemoryBufferPool` (the shm block
  plane's backing) is what makes the crash-sweep guarantee airtight, so
  out-of-pool creation is flagged even when the author remembered a
  ``finally``.
* **MP501** — a ``SharedMemory`` *attachment* (no ``create=True``)
  whose object is neither context-managed (``with``), nor released
  (``close``/``unlink``/``cleanup``) in a ``finally`` block, nor handed
  to an owner (assigned to an attribute or passed into a call).  Use
  :func:`~repro.runtime.buffers.open_block` instead.

The buffer-pool module itself is exempt — it *is* the API whose
discipline this rule enforces, and its lifecycle invariants are pinned
by the block-plane crash-safety tests rather than by syntax.

**MP502** extends the same discipline to the disk block plane
(:mod:`repro.runtime.spill`): spill files carry the tupleblock wire
format and live in the plane's crash-swept spill directory, and both
guarantees hold only while every access routes through the spill
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
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import dotted_name, import_aliases, terminal_name

#: the one module allowed to construct SharedMemory objects
BUFFER_POOL_MODULE = "runtime/buffers.py"

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

SHARED_MEMORY_PATHS = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
    }
)
SHARED_MEMORY_NAMES = frozenset({"SharedMemory", "ShareableList"})

#: method calls that count as releasing a segment object
RELEASERS = frozenset({"close", "unlink", "cleanup"})


def _is_shared_memory_ctor(call: ast.Call, aliases: Dict[str, str]) -> bool:
    dotted = dotted_name(call.func, aliases)
    if dotted is not None:
        return dotted in SHARED_MEMORY_PATHS
    return terminal_name(call.func) in SHARED_MEMORY_NAMES


def _is_create(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "create":
            return not (
                isinstance(kw.value, ast.Constant) and kw.value.value is False
            )
    if len(call.args) >= 2:
        arg = call.args[1]
        return not (isinstance(arg, ast.Constant) and arg.value is False)
    return False


def _finally_released(scope: ast.AST, name: str) -> bool:
    """True when any ``finally`` block under ``scope`` releases ``name``.

    Deliberately module-local and name-based (the repo's checkers trade
    recall for zero-surprise precision): a ``finally`` anywhere in the
    module that calls ``<name>.close()``/``.unlink()``/``.cleanup()``
    counts as managing that name.
    """
    for node in ast.walk(scope):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for final_stmt in node.finalbody:
            for sub in ast.walk(final_stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in RELEASERS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == name
                ):
                    return True
    return False


class _SegmentScanner(ast.NodeVisitor):
    """Collect SharedMemory constructor sites and how they are managed."""

    def __init__(self, aliases: Dict[str, str]) -> None:
        self.aliases = aliases
        #: (call node, bound name or None) for unmanaged constructor sites
        self.loose: List[tuple] = []
        #: constructor calls already under a ``with`` or handed to an owner
        self.managed: Set[ast.Call] = set()
        #: every constructor call with its create-flag
        self.ctors: List[ast.Call] = []

    def _note(self, call: ast.expr, managed: bool) -> None:
        if isinstance(call, ast.Call) and _is_shared_memory_ctor(
            call, self.aliases
        ):
            self.ctors.append(call)
            if managed:
                self.managed.add(call)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            self._note(item.context_expr, managed=True)
            # with closing(SharedMemory(...)): the ctor is the first arg
            ctx = item.context_expr
            if isinstance(ctx, ast.Call) and ctx.args:
                self._note(ctx.args[0], managed=True)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call) and _is_shared_memory_ctor(
            node.value, self.aliases
        ):
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.ctors.append(node.value)
                self.loose.append((node.value, target.id))
            else:
                # attribute/subscript target: ownership handed to an
                # object whose lifecycle is its own checker's problem
                self._note(node.value, managed=True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # a ctor used as an argument escapes into the callee (owner)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._note(arg, managed=True)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call) and _is_shared_memory_ctor(
            node.value, self.aliases
        ):
            self.ctors.append(node.value)
            self.loose.append((node.value, None))
        self.generic_visit(node)


def _check_module(module: SourceModule) -> List[Finding]:
    findings: List[Finding] = []
    aliases = import_aliases(module.tree)
    scanner = _SegmentScanner(aliases)
    scanner.visit(module.tree)
    # creation sites come from a full walk, not the scanner: creation is
    # flagged wherever it appears (returned, yielded, nested) while the
    # scanner only classifies how attachments are *managed*
    creations = [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, ast.Call)
        and _is_shared_memory_ctor(node, aliases)
        and _is_create(node)
    ]
    if not creations and not scanner.ctors:
        return findings

    seen: Set[int] = set()

    def flag(call: ast.Call, detail: str) -> None:
        if id(call) in seen:
            return
        seen.add(id(call))
        findings.append(
            Finding(
                path=module.relpath,
                line=call.lineno,
                rule="MP501",
                message=detail,
            )
        )

    for call in creations:
        flag(
            call,
            "SharedMemory segment created outside the buffer-pool API; "
            "allocate through repro.runtime.buffers.SharedMemoryBufferPool "
            "(the shm block plane) so crash sweep and unlink-on-exit cover it",
        )

    for call, name in scanner.loose:
        if id(call) in seen or call in scanner.managed:
            continue
        released = name is not None and _finally_released(module.tree, name)
        if not released:
            flag(
                call,
                "SharedMemory attachment has no finally/context-managed "
                "release; attach through repro.runtime.buffers.open_block() "
                "or release it in a finally block",
            )
    return findings


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
    """Run the MP501/MP502 resource-hygiene analyses over ``project``."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.pkgpath != BUFFER_POOL_MODULE:
            # the buffer-pool API itself owns segment lifecycle
            findings.extend(_check_module(module))
        if module.pkgpath != SPILL_MODULE:
            # the spill API itself owns the wire format and file I/O
            findings.extend(_check_spill_hygiene(module))
    return findings
