"""MP605 — purity of gateway request handlers.

The gateway's handlers (``async def`` functions in ``repro.gateway``
modules) run on one shared asyncio event loop serving every tenant.
Two classes of bug are cheap to write and expensive to debug there, so
``metaprep check`` polices them statically:

* **module-global writes** — handler state must live on the app
  instance (or in the spool), never in module globals: a module global
  written from a handler is shared across tenants, lost on restart,
  and invisible to the ownership ledger's replay.  A write is a
  ``global`` statement, an attribute/item assignment through a module
  name, or a mutating method call on one (:func:`global_write_sites`);
  ``threading.local``/``ContextVar`` carriers are per-context by design
  and do not count.
* **blocking the event loop with ``time.sleep``** — one sleeping
  handler stalls every connection.  Handlers must use
  ``asyncio.sleep`` or push blocking work through
  ``loop.run_in_executor`` (the convention the shipped handlers follow
  for dataset hashing and artifact reads).

Scope: only modules under ``gateway/``; only ``async def`` scopes
(synchronous helpers may sleep — they run on executor threads).
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import dotted_name

#: the package prefix this rule polices
GATEWAY_PREFIX = "gateway/"

#: blocking sleep callables (resolved through import aliases)
_BLOCKING_SLEEPS = ("time.sleep",)

#: module-level carriers of deliberately per-thread/per-context state —
#: writing through these is the sanctioned alternative to a module global
_THREAD_LOCAL_FACTORIES = ("threading.local", "contextvars.ContextVar")

#: container-mutating method names
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "appendleft",
        "extendleft",
    }
)


def global_write_sites(fn: ast.AST, module_names: Set[str]) -> List[tuple]:
    """``(line, detail)`` for every module-global write inside ``fn``."""
    sites = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            sites.append((node.lineno, f"declares global {', '.join(node.names)}"))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base = target
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if (
                    target is not base  # an attribute/item write, not a local
                    and isinstance(base, ast.Name)
                    and base.id in module_names
                ):
                    sites.append(
                        (node.lineno, f"writes module-level object '{base.id}'")
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in module_names
            ):
                sites.append(
                    (
                        node.lineno,
                        f"mutates module-level object '{func.value.id}."
                        f"{func.attr}(...)'",
                    )
                )
    return sites


def _module_names(module: SourceModule) -> Set[str]:
    """Module-level bindings that count as global state (thread-local
    carriers excepted)."""
    names: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func, module.aliases)
                in _THREAD_LOCAL_FACTORIES
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def check_gateway_purity(project: Project) -> List[Finding]:
    """Run the MP605 handler-purity analysis over ``project``."""
    findings: List[Finding] = []
    for module in project.modules:
        if not module.pkgpath.startswith(GATEWAY_PREFIX):
            continue
        module_names = _module_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            for line, detail in global_write_sites(node, module_names):
                findings.append(
                    Finding(
                        path=module.relpath,
                        line=line,
                        rule="MP605",
                        message=(
                            f"gateway handler '{node.name}' {detail}; "
                            "handler state belongs on the app instance, "
                            "never in module globals"
                        ),
                    )
                )
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                resolved = dotted_name(call.func, module.aliases)
                if resolved in _BLOCKING_SLEEPS:
                    findings.append(
                        Finding(
                            path=module.relpath,
                            line=call.lineno,
                            rule="MP605",
                            message=(
                                f"gateway handler '{node.name}' blocks the "
                                f"event loop with {resolved}(); use "
                                "asyncio.sleep or loop.run_in_executor"
                            ),
                        )
                    )
    return findings
