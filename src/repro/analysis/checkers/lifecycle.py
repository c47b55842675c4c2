"""MP6xx — resource lifecycle over the interprocedural model.

The block plane hands out three kinds of process-spanning resources:
``/dev/shm`` tuple-block attachments (:func:`repro.runtime.buffers
.attach_block` / ``open_block``), resident disk-plane blocks
(:func:`repro.runtime.spill.resident_spill` / raw ``read_spill``
handles), and telemetry spool writers
(:class:`repro.telemetry.spool.SpoolWriter`).  MP501/MP502 already
police *where* those APIs may be called; this family polices *what
happens afterwards*: every acquisition must be released on **every**
path out of the acquiring function — including the exception edges of
the lite CFG (:mod:`repro.analysis.dataflow`) — unless it is
context-managed or ownership demonstrably escapes (returned, yielded,
or stored on an owning object).

* **MP601** — shared-memory attachment leaked (`shm` kind)
* **MP602** — disk-plane residency or raw spill handle leaked (`spill` kind)
* **MP603** — telemetry spool writer leaked (`spool` kind)
* **MP604** — network socket leaked (`socket` kind: the block plane's
  :func:`repro.runtime.transport.connect_with_retry` or a raw
  ``socket.create_connection``)

The pass is interprocedural in both directions: a binding is traced to
an acquirer *through* thin wrappers (a helper whose return value flows
from an acquirer call makes its callers the owners — the
``returns-acquired`` fixpoint below), and the defining modules of each
plane's API are exempt (they implement the lifecycle the rule
enforces everywhere else).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionId, project_callgraph
from repro.analysis.dataflow import (
    ACQUIRER_KINDS,
    ESCAPED,
    LEAKY,
    LEAKY_EXC,
    MANAGED,
    CalleeRef,
)
from repro.analysis.findings import Finding
from repro.analysis.project import Project

#: kind -> (rule id, human phrase)
KIND_RULES = {
    "shm": ("MP601", "shared-memory attachment"),
    "spill": ("MP602", "resident disk-plane block"),
    "spool": ("MP603", "telemetry spool writer"),
    "socket": ("MP604", "network socket"),
}

#: kind -> exempt modules/prefixes (the implementations of the lifecycle)
KIND_EXEMPT = {
    "shm": ("runtime/buffers.py",),
    "spill": ("runtime/spill.py",),
    "spool": ("telemetry/",),
    # connect_with_retry itself wraps socket.create_connection and is
    # obliged to return the live socket to its caller
    "socket": ("runtime/transport.py",),
}


def _exempt(pkgpath: str, kind: str) -> bool:
    return any(
        pkgpath.startswith(entry) if entry.endswith("/") else pkgpath == entry
        for entry in KIND_EXEMPT[kind]
    )


# ----------------------------------------------------------------------
# returns-acquired fixpoint
# ----------------------------------------------------------------------
def returns_acquired(graph: CallGraph) -> Dict[FunctionId, str]:
    """Functions whose return value *is* an acquired resource.

    Seeded from return-flow calls whose terminal name is a known
    acquirer, then iterated to fixpoint through wrapper chains (a
    function returning the result of a returns-acquired function is
    itself returns-acquired).  Conflicting kinds cannot arise from the
    seed table, and ties resolve to the first kind in sorted order.
    """
    kinds: Dict[FunctionId, str] = {}
    changed = True
    while changed:
        changed = False
        for fid in sorted(graph.functions):
            if fid in kinds:
                continue
            fn = graph.functions[fid]
            for ref in fn.return_calls:
                kind = _ref_kind(graph, fid, ref, kinds)
                if kind is not None:
                    kinds[fid] = kind
                    changed = True
                    break
    return kinds


def _ref_kind(
    graph: CallGraph,
    caller: FunctionId,
    ref: CalleeRef,
    kinds: Dict[FunctionId, str],
) -> Optional[str]:
    """Resource kind acquired by calling ``ref`` from ``caller``."""
    direct = ACQUIRER_KINDS.get(ref.terminal)
    if direct is not None:
        return direct
    target = graph.resolve(caller[0], caller[1], ref)
    if target is not None:
        return kinds.get(target)
    return None


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def check_lifecycle(project: Project) -> List[Finding]:
    """Run the MP6xx lifecycle analysis over ``project``."""
    graph = project_callgraph(project)
    wrapper_kinds = returns_acquired(graph)
    relpath_by_pkg = {m.pkgpath: m.relpath for m in project.modules}
    findings: List[Finding] = []
    seen: Set[Tuple] = set()

    for fid in sorted(graph.functions):
        pkgpath, qualname = fid
        fn = graph.functions[fid]
        for binding in fn.bindings:
            if binding.coverage in (MANAGED, ESCAPED):
                continue
            kind = _ref_kind(graph, fid, binding.callee, wrapper_kinds)
            if kind is None or _exempt(pkgpath, kind):
                continue
            if binding.coverage not in (LEAKY, LEAKY_EXC):
                continue  # RELEASED: explicitly released on every path
            rule, phrase = KIND_RULES[kind]
            via = f"'{binding.callee.display}'"
            if binding.callee.terminal not in ACQUIRER_KINDS:
                via += f" (which returns an acquired {phrase})"
            if not binding.name:
                leak = "discards the handle without releasing it"
            elif binding.coverage == LEAKY_EXC:
                leak = (
                    f"an exception edge can leave '{binding.name}' unreleased"
                )
            else:
                leak = f"a path reaches return without releasing '{binding.name}'"
            key = (rule, pkgpath, qualname, binding.callee.display, leak)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                Finding(
                    path=relpath_by_pkg[pkgpath],
                    line=binding.line,
                    rule=rule,
                    message=(
                        f"'{qualname}' acquires a {phrase} via {via} but "
                        f"{leak}; context-manage the acquisition or release "
                        "it in a finally block"
                    ),
                )
            )
    return sorted(findings)
