"""MP3xx — purity of callables submitted to the execution backends.

The process engine (:class:`repro.runtime.executor.ProcessExecutor`)
ships submitted callables to worker processes by pickling, and the
serial/process bit-identity contract assumes jobs communicate only
through their payloads and the per-run shared context.  Two rules:

* **MP301** — the callable handed to ``<executor>.map(...)`` must be a
  module-level function (or an imported name / ``functools.partial`` of
  one).  Lambdas, nested functions, and bound methods either fail to
  pickle or smuggle closure state that differs between engines.
* **MP302** — a submitted module-level function must not write module
  globals (``global`` statements, mutation of module-level containers):
  under the serial engine such writes leak between jobs and runs; under
  the process engine they silently diverge per worker — the exact class
  of bug the thread-local shared-state fix in the executor addressed.

Executor receivers are found by local inference: parameters annotated
``ExecutionBackend``/``SerialExecutor``/``ProcessExecutor``, variables
assigned from ``create_engine(...)`` or a backend constructor,
variables literally named ``executor``, and ``*.executor`` attributes.
This deliberately does not match arbitrary ``.map`` calls (``pool.map``
inside the backend implementation, ``Executor.map`` definitions).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import (
    annotation_mentions,
    dotted_name,
    terminal_name,
)

#: module-level carriers of deliberately per-thread/per-context state —
#: writing through these is the *sanctioned* alternative to a module
#: global (the executor's shared-state fix), so they are not MP302 sinks
_THREAD_LOCAL_FACTORIES = ("threading.local", "contextvars.ContextVar")

BACKEND_TYPES = (
    "ExecutionBackend",
    "SerialExecutor",
    "ProcessExecutor",
    "DistributedExecutor",
)
BACKEND_FACTORIES = frozenset(
    {
        "create_engine",
        "SerialExecutor",
        "ProcessExecutor",
        "DistributedExecutor",
    }
)
EXECUTOR_NAME = "executor"

#: container-mutating method names (MP302)
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


# ----------------------------------------------------------------------
# module context
# ----------------------------------------------------------------------
class _ModuleContext:
    """Name tables needed to classify a submitted callable."""

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self.aliases = module.aliases
        self.toplevel_defs: Dict[str, ast.FunctionDef] = {}
        self.toplevel_lambdas: Set[str] = set()
        self.module_names: Set[str] = set()
        self.nested_defs: Set[str] = set()

        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel_defs[node.name] = node  # type: ignore[assignment]
            elif isinstance(node, ast.Assign):
                if (
                    isinstance(node.value, ast.Call)
                    and dotted_name(node.value.func, self.aliases)
                    in _THREAD_LOCAL_FACTORIES
                ):
                    continue  # sanctioned per-thread carrier, not a global
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.module_names.add(target.id)
                        if isinstance(node.value, ast.Lambda):
                            self.toplevel_lambdas.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.module_names.add(node.target.id)

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name not in self.toplevel_defs:
                    self.nested_defs.add(node.name)


# ----------------------------------------------------------------------
# executor receiver inference
# ----------------------------------------------------------------------
class _ExecutorScanner(ast.NodeVisitor):
    """Find ``<executor>.map(fn, ...)`` call sites in one module."""

    def __init__(self, context: _ModuleContext) -> None:
        self.context = context
        self.sites: List[ast.Call] = []
        self._typed: Set[str] = set()

    def _is_executor_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._typed or node.id == EXECUTOR_NAME
        if isinstance(node, ast.Attribute):
            return node.attr == EXECUTOR_NAME
        if isinstance(node, ast.Call):
            return terminal_name(node.func) in BACKEND_FACTORIES
        return False

    def _bind_params(self, node: ast.AST) -> None:
        args = getattr(node, "args", None)
        if args is None:
            return
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if annotation_mentions(arg.annotation, BACKEND_TYPES):
                self._typed.add(arg.arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved = set(self._typed)
        self._bind_params(node)
        self.generic_visit(node)
        self._typed = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if self._is_executor_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._typed.add(target.id)

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "map"
            and self._is_executor_expr(func.value)
        ):
            self.sites.append(node)


# ----------------------------------------------------------------------
# MP302: global-write analysis of one module-level function
# ----------------------------------------------------------------------
def global_write_sites(fn: ast.AST, module_names: Set[str]) -> List[tuple]:
    """``(line, detail)`` for every module-global write inside ``fn``.

    Shared by the direct MP302 scan below and the per-function effect
    summaries (:mod:`repro.analysis.dataflow`), so the direct and
    transitive passes can never disagree on what counts as a write.
    """
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


def _global_writes(fn: ast.FunctionDef, context: _ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    module = context.module
    for line, detail in global_write_sites(fn, context.module_names):
        findings.append(
            Finding(
                path=module.relpath,
                line=line,
                rule="MP302",
                message=(
                    f"executor job '{fn.name}' {detail}; job functions must "
                    "communicate only through payloads and worker_shared()"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# submitted-callable classification
# ----------------------------------------------------------------------
def _classify_submission(
    fn_expr: ast.expr,
    site: ast.Call,
    context: _ModuleContext,
    findings: List[Finding],
    seen_fns: Set[str],
) -> None:
    module = context.module

    def flag301(detail: str) -> None:
        findings.append(
            Finding(
                path=module.relpath,
                line=site.lineno,
                rule="MP301",
                message=(
                    f"callable submitted to an execution backend {detail}; "
                    "submit a module-level function so the process engine "
                    "can pickle it"
                ),
            )
        )

    if isinstance(fn_expr, ast.Lambda):
        flag301("is a lambda")
        return
    if isinstance(fn_expr, ast.Name):
        name = fn_expr.id
        if name in context.toplevel_defs:
            if name not in seen_fns:
                seen_fns.add(name)
                findings.extend(
                    _global_writes(context.toplevel_defs[name], context)
                )
            return
        if name in context.toplevel_lambdas:
            flag301(f"('{name}') is a module-level lambda")
            return
        if name in context.nested_defs:
            flag301(f"('{name}') is a nested function")
            return
        # imported names and unresolved locals: assume module-level
        return
    if isinstance(fn_expr, ast.Attribute):
        base = fn_expr.value
        if isinstance(base, ast.Name) and base.id in context.aliases:
            return  # module attribute of an import: module-level by definition
        flag301(f"('{ast.unparse(fn_expr)}') is a bound method or attribute")
        return
    if isinstance(fn_expr, ast.Call):
        if terminal_name(fn_expr.func) == "partial" and fn_expr.args:
            _classify_submission(fn_expr.args[0], site, context, findings, seen_fns)
        return


# ----------------------------------------------------------------------
# transitive MP302 over the call graph
# ----------------------------------------------------------------------
def _scan_transitive_writes(project: Project, findings: List[Finding]) -> None:
    """Global writes the per-site scan cannot see: a resolved executor
    job function that *calls* (at any depth) a function writing module
    globals, or a job submitted by dotted/attribute reference whose own
    body writes them.

    Direct writes in a locally-submitted job are skipped — the per-site
    scan above already reported those at the write line.  Findings are
    anchored at the job function's ``def`` line in its defining module
    and carry the witness chain in the message (no embedded line
    numbers, so it is stable under edits to the helper modules).
    """
    from repro.analysis.callgraph import format_chain, project_callgraph

    graph = project_callgraph(project)
    taints = graph.tainted("global_write")
    relpath_by_pkg = {m.pkgpath: m.relpath for m in project.modules}
    reported: Set[tuple] = set()
    for root in graph.job_roots:
        if root.submitted_in == "runtime/executor.py":
            continue  # the backend implementation itself proxies fn through
        taint = taints.get(root.target)
        if taint is None or root.target in reported:
            continue
        if root.local and taint.depth == 0:
            continue  # the direct scan already flagged the write itself
        reported.add(root.target)
        pkgpath, qualname = root.target
        if taint.depth == 0:
            detail = taint.site.detail
        else:
            chain = format_chain(graph, root.target, "global_write")
            detail = (
                f"transitively {_as_transitive(taint.site.detail)} "
                f"via {chain}"
            )
        findings.append(
            Finding(
                path=relpath_by_pkg[pkgpath],
                line=graph.functions[root.target].line,
                rule="MP302",
                message=(
                    f"executor job '{qualname}' {detail}; job functions must "
                    "communicate only through payloads and worker_shared()"
                ),
            )
        )


def _as_transitive(detail: str) -> str:
    # "declares global X" reads badly after "transitively"; normalise
    # the three direct-site spellings to a reached-effect phrasing
    if detail.startswith("declares global"):
        return detail.replace("declares global", "writes global", 1)
    return detail


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def check_executor_purity(project: Project) -> List[Finding]:
    """Run the MP3xx executor-payload purity analysis over ``project``."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.pkgpath == "runtime/executor.py":
            continue  # the backend implementation itself proxies fn through
        context = _ModuleContext(module)
        scanner = _ExecutorScanner(context)
        scanner.visit(module.tree)
        seen_fns: Set[str] = set()
        for site in scanner.sites:
            fn_expr: Optional[ast.expr] = site.args[0] if site.args else None
            if fn_expr is None:
                continue
            _classify_submission(fn_expr, site, context, findings, seen_fns)
    _scan_transitive_writes(project, findings)
    return findings
