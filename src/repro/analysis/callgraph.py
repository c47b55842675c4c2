"""Project-wide call graph over per-module effect summaries.

Resolution is deliberately conservative — precision over recall, the
same trade every checker in this package makes:

* a **local** callee name resolves to a top-level function of the same
  module (or stays unresolved);
* a **self** method call resolves within the caller's own class first,
  then to a uniquely-named method anywhere in the module;
* a **dotted** callee (always import-rooted, see
  :func:`repro.analysis.checkers.common.dotted_name`) resolves inside
  the ``repro`` package by mapping the module part onto a ``pkgpath``
  (``repro.runtime.buffers.attach_block`` → ``runtime/buffers.py`` /
  ``attach_block``); a class name falls through to its ``__init__``.

Everything else — ``obj.method()`` on an arbitrary local, calls into
third-party code — is dropped rather than guessed.  A dropped edge can
only cause a missed finding, never a false one, which is the correct
failure direction for a gating checker.

On top of the graph, :meth:`CallGraph.tainted` runs a backward
breadth-first fixpoint per effect kind (global writes, wall-clock
reads, unseeded RNG): a function is tainted if it has a direct effect
site or calls a tainted function.  Each tainted function carries a
witness — its next hop toward a shortest offending path and the
originating effect site — so findings can print a deterministic
``f -> g -> h`` chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.dataflow import (
    CalleeRef,
    EffectSite,
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

#: (pkgpath, qualname) — the node identity of the graph
FunctionId = Tuple[str, str]

EFFECT_KINDS = ("global_write", "wall_clock", "unseeded_rng")


@dataclass(frozen=True)
class Taint:
    """Why one function is tainted for one effect kind.

    ``depth`` 0 means the effect site is local to the function itself
    and ``next_hop`` is ``None``; otherwise ``next_hop`` is the callee
    one step along a shortest path to the source.
    """

    depth: int
    site: EffectSite
    source: FunctionId
    next_hop: Optional[FunctionId] = None
    call_line: int = 0


@dataclass(frozen=True)
class JobRoot:
    """One resolved executor submission: the job function and where it
    was submitted from."""

    target: FunctionId
    submitted_in: str  # pkgpath of the submitting module
    line: int
    local: bool  # submitted as a bare local name (already scanned
    # directly by check_executor_purity)


class CallGraph:
    """Resolved call edges + per-effect transitive taint."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.summaries = summaries
        self.functions: Dict[FunctionId, FunctionSummary] = {}
        for pkgpath in sorted(summaries):
            for qualname, fn in sorted(summaries[pkgpath].functions.items()):
                self.functions[(pkgpath, qualname)] = fn
        #: caller -> sorted list of (callee, call line)
        self.edges: Dict[FunctionId, List[Tuple[FunctionId, int]]] = {}
        self.job_roots: List[JobRoot] = []
        self._taints: Dict[str, Dict[FunctionId, Taint]] = {}
        self._build()

    # -- resolution ----------------------------------------------------
    def resolve(self, pkgpath: str, caller: Optional[str], ref: CalleeRef) -> Optional[FunctionId]:
        """Resolve a callee reference seen in ``pkgpath`` (from function
        ``caller`` when known) to a graph node, or ``None``."""
        module = self.summaries.get(pkgpath)
        if ref.kind == "local":
            if module is not None and ref.name in module.functions:
                return (pkgpath, ref.name)
            return None
        if ref.kind == "self":
            if module is None:
                return None
            if caller is not None and "." in caller:
                cls = caller.split(".", 1)[0]
                candidate = f"{cls}.{ref.name}"
                if candidate in module.functions:
                    return (pkgpath, candidate)
            matches = [
                q
                for q in module.functions
                if "." in q and q.split(".", 1)[1] == ref.name
            ]
            if len(matches) == 1:
                return (pkgpath, matches[0])
            return None
        # dotted: must live inside the repro package
        parts = ref.name.split(".")
        if parts[0] != "repro" or len(parts) < 3:
            return None
        tail = parts[1:]
        candidates = []
        # repro.a.b.f      -> a/b.py :: f  (also f.__init__ for classes)
        mod = "/".join(tail[:-1]) + ".py"
        candidates.append((mod, tail[-1]))
        candidates.append((mod, f"{tail[-1]}.__init__"))
        if len(tail) >= 3:
            # repro.a.b.C.m -> a/b.py :: C.m
            mod2 = "/".join(tail[:-2]) + ".py"
            candidates.append((mod2, f"{tail[-2]}.{tail[-1]}"))
        for candidate in candidates:
            if candidate in self.functions:
                return candidate
        return None

    def _build(self) -> None:
        for (pkgpath, qualname), fn in self.functions.items():
            resolved: List[Tuple[FunctionId, int]] = []
            for call in fn.calls:
                target = self.resolve(pkgpath, qualname, call.callee)
                if target is not None and target != (pkgpath, qualname):
                    resolved.append((target, call.line))
            self.edges[(pkgpath, qualname)] = sorted(resolved)
            for sub in fn.submissions:
                target = self.resolve(pkgpath, qualname, sub.callee)
                if target is not None:
                    self.job_roots.append(
                        JobRoot(
                            target=target,
                            submitted_in=pkgpath,
                            line=sub.line,
                            local=sub.callee.kind == "local",
                        )
                    )
        self.job_roots.sort(key=lambda r: (r.submitted_in, r.line, r.target))

    # -- transitive taint ----------------------------------------------
    def tainted(self, kind: str) -> Dict[FunctionId, Taint]:
        """All functions transitively carrying effect ``kind``.

        Backward BFS from direct effect sites; ties broken by sorted
        node order so witnesses are deterministic run to run.
        """
        cached = self._taints.get(kind)
        if cached is not None:
            return cached

        taints: Dict[FunctionId, Taint] = {}
        frontier: List[FunctionId] = []
        for fid in sorted(self.functions):
            sites = self.functions[fid].effect_sites(kind)
            if sites:
                taints[fid] = Taint(depth=0, site=sites[0], source=fid)
                frontier.append(fid)

        # reverse adjacency: callee -> [(caller, call line)]
        callers: Dict[FunctionId, List[Tuple[FunctionId, int]]] = {}
        for caller, targets in self.edges.items():
            for target, line in targets:
                callers.setdefault(target, []).append((caller, line))

        while frontier:
            frontier.sort()
            next_frontier: List[FunctionId] = []
            for fid in frontier:
                taint = taints[fid]
                for caller, line in sorted(callers.get(fid, ())):
                    if caller in taints:
                        continue
                    taints[caller] = Taint(
                        depth=taint.depth + 1,
                        site=taint.site,
                        source=taint.source,
                        next_hop=fid,
                        call_line=line,
                    )
                    next_frontier.append(caller)
            frontier = next_frontier

        self._taints[kind] = taints
        return taints

    def chain(self, fid: FunctionId, kind: str) -> List[FunctionId]:
        """Shortest witness path from ``fid`` to the effect source."""
        taints = self.tainted(kind)
        path = [fid]
        current = taints.get(fid)
        while current is not None and current.next_hop is not None:
            path.append(current.next_hop)
            current = taints.get(current.next_hop)
        return path


def project_callgraph(project) -> CallGraph:
    """Call graph over the summaries of every module of a
    :class:`~repro.analysis.project.Project`, memoized on the instance
    so the determinism and purity checkers share one computation."""
    cached = getattr(project, "_callgraph", None)
    if cached is None:
        cached = CallGraph(
            {m.pkgpath: summarize_module(m) for m in project.modules}
        )
        project._callgraph = cached  # type: ignore[attr-defined]
    return cached


def format_chain(graph: CallGraph, fid: FunctionId, kind: str) -> str:
    """``f -> g -> h`` witness rendering used in finding messages."""
    return " -> ".join(q for _p, q in graph.chain(fid, kind))
