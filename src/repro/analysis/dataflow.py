"""Per-function effect-summary dataflow engine.

This module is the intraprocedural half of the interprocedural layer
(the other half is :mod:`repro.analysis.callgraph`).  For every
module-level function and class method it computes a
:class:`FunctionSummary` carrying

* **effect sites** — local occurrences of the three taints the
  transitive MP2xx/MP3xx rules propagate: module-global writes,
  wall-clock reads, and unseeded-RNG draws;
* **call sites** — symbolic :class:`CalleeRef` targets (local name,
  ``self.method``, or import-resolved dotted path) that the call graph
  resolves project-wide;
* **executor submissions** — callables handed to ``<executor>.map``,
  the roots of the transitive purity analysis.

Summaries depend only on their own file's source; cross-file reasoning
happens in the call graph, over the summaries of every module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.checkers.common import dotted_name, terminal_name
from repro.analysis.checkers.determinism import rng_sites, wall_clock_sites
from repro.analysis.checkers.purity import (
    _ExecutorScanner,
    _ModuleContext,
    global_write_sites,
)
from repro.analysis.project import SourceModule

# ----------------------------------------------------------------------
# symbolic callee references
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class CalleeRef:
    """A call target before project-wide resolution.

    ``kind`` is ``"local"`` (a bare name defined — maybe — in the same
    module), ``"self"`` (a ``self.method(...)`` call, resolved against
    the enclosing class), or ``"dotted"`` (an import-rooted chain such
    as ``repro.runtime.buffers.attach_block``).
    """

    kind: str
    name: str


def callee_ref(func: ast.expr, aliases: Dict[str, str]) -> Optional[CalleeRef]:
    """Classify a call's ``func`` expression into a :class:`CalleeRef`.

    Chains that are neither import-rooted, local names, nor ``self``
    methods (e.g. ``obj.method()`` on an arbitrary local) return
    ``None`` — the engine drops those edges rather than guess.
    """
    dotted = dotted_name(func, aliases)
    if dotted is not None:
        return CalleeRef("dotted", dotted)
    if isinstance(func, ast.Name):
        return CalleeRef("local", func.id)
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return CalleeRef("self", func.attr)
    return None


# ----------------------------------------------------------------------
# summary model
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class EffectSite:
    """One local occurrence of a propagated effect."""

    kind: str  # "global_write" | "wall_clock" | "unseeded_rng"
    line: int
    detail: str


@dataclass(frozen=True, order=True)
class CallSite:
    callee: CalleeRef
    line: int


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the interprocedural passes need to know about one
    function, with no reference back to its AST."""

    qualname: str
    line: int
    effects: Tuple[EffectSite, ...] = ()
    calls: Tuple[CallSite, ...] = ()
    submissions: Tuple[CallSite, ...] = ()

    def effect_sites(self, kind: str) -> Tuple[EffectSite, ...]:
        return tuple(e for e in self.effects if e.kind == kind)


@dataclass
class ModuleSummary:
    """All function summaries of one source file."""

    pkgpath: str
    relpath: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


# ----------------------------------------------------------------------
# per-function summarization
# ----------------------------------------------------------------------
def _named_scopes(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Top-level functions and class methods with stable qualnames.

    Functions nested inside functions are deliberately folded into
    their parent's summary (their effects are attributed to the parent
    by the full-subtree walks below); they are not independently
    callable across modules, so they get no graph node of their own.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{sub.name}", sub


def _collect_effects(
    fn: ast.AST, aliases: Dict[str, str], module_names: Set[str]
) -> List[EffectSite]:
    effects: List[EffectSite] = []
    for line, detail in global_write_sites(fn, module_names):
        effects.append(EffectSite("global_write", line, detail))
    for line, detail in wall_clock_sites(fn, aliases):
        effects.append(EffectSite("wall_clock", line, detail))
    for line, detail in rng_sites(fn, aliases):
        effects.append(EffectSite("unseeded_rng", line, detail))
    return sorted(effects)


def _collect_calls(fn: ast.AST, aliases: Dict[str, str]) -> List[CallSite]:
    calls: List[CallSite] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            ref = callee_ref(node.func, aliases)
            if ref is not None:
                calls.append(CallSite(ref, node.lineno))
    return sorted(set(calls))


def _submission_ref(
    fn_expr: ast.expr, aliases: Dict[str, str]
) -> Optional[CalleeRef]:
    """The callable submitted at an ``<executor>.map`` site."""
    if isinstance(fn_expr, ast.Call):  # functools.partial(fn, ...)
        if terminal_name(fn_expr.func) == "partial" and fn_expr.args:
            return _submission_ref(fn_expr.args[0], aliases)
        return None
    if isinstance(fn_expr, (ast.Name, ast.Attribute)):
        return callee_ref(fn_expr, aliases)
    return None


def summarize_module(module: SourceModule) -> ModuleSummary:
    """Compute every function summary of one parsed module."""
    aliases = module.aliases
    context = _ModuleContext(module)
    scanner = _ExecutorScanner(context)
    scanner.visit(module.tree)

    summary = ModuleSummary(pkgpath=module.pkgpath, relpath=module.relpath)
    scopes = list(_named_scopes(module.tree))
    spans = [
        (name, fn, fn.lineno, max(n.lineno for n in ast.walk(fn) if hasattr(n, "lineno")))
        for name, fn in scopes
    ]

    submissions_by_scope: Dict[str, List[CallSite]] = {}
    for site in scanner.sites:
        fn_expr = site.args[0] if site.args else None
        if fn_expr is None:
            continue
        ref = _submission_ref(fn_expr, aliases)
        if ref is None:
            continue
        owner = None
        for name, _fn, lo, hi in spans:
            if lo <= site.lineno <= hi:
                owner = name  # innermost wins: spans listed outer-first
        if owner is not None:
            submissions_by_scope.setdefault(owner, []).append(
                CallSite(ref, site.lineno)
            )

    for name, fn in scopes:
        summary.functions[name] = FunctionSummary(
            qualname=name,
            line=fn.lineno,
            effects=tuple(_collect_effects(fn, aliases, context.module_names)),
            calls=tuple(_collect_calls(fn, aliases)),
            submissions=tuple(sorted(set(submissions_by_scope.get(name, ())))),
        )
    return summary
