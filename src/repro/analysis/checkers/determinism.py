"""MP2xx — determinism lint over result-affecting paths.

Partition output is bit-identical across executors (PR 1) and cached by
content address (PR 2); both contracts die silently the moment a
result-affecting module consults a nondeterministic source.  Three rules:

* **MP201** — wall-clock time (``time.time``, ``datetime.now``...) in a
  result-affecting module.  Monotonic measurement clocks
  (``time.perf_counter``, ``time.monotonic``) are allowed: they feed the
  timing reports, which are not part of the result contract.
* **MP202** — unseeded or module-global random sources, anywhere in the
  package: ``np.random.default_rng()`` with no seed, the legacy
  ``np.random.*`` global API, ``random.*`` module functions, unseeded
  ``RandomState()``/``Random()``.  Seeded generators and generators
  received as parameters pass.
* **MP203** — iteration over an unordered ``set``/``frozenset`` (literal,
  constructor call, or a local so assigned) in a result-affecting module.
  Iteration order of a set of strings depends on ``PYTHONHASHSEED``;
  wrap in ``sorted(...)`` to fix an order.

Scope: MP201/MP203 apply to the result-affecting directories below;
timing/perf machinery (``perf/``, ``runtime/``, ``util/``) and the
service layer (wall-clock job timestamps are part of *its* contract) are
deliberately outside.  ``telemetry/`` *is* in scope even though it is
observability-only: its spans must stay on the monotonic timeline (a
wall-clock read there would silently break cross-process span merging
and re-introduce nondeterministic content into exported artifacts), and
the monotonic sources it is built on are exactly the
:data:`MONOTONIC_ALLOWED` allowlist.  MP202 applies to the whole
package — an unseeded RNG anywhere is a reproducibility hazard.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import (
    annotation_mentions,
    dotted_name,
    terminal_name,
    walk_scope,
)

#: modules whose behaviour flows into partition/assembly results, plus
#: ``telemetry/`` whose span timeline must stay monotonic (see module
#: docstring)
RESULT_AFFECTING_SCOPES = (
    "kmers/",
    "sort/",
    "cc/",
    "index/",
    "core/",
    "seqio/",
    "assembly/",
    "telemetry/",
)

#: monotonic measurement clocks MP201 deliberately allows — the clocks
#: the telemetry span timeline is defined over (CLOCK_MONOTONIC, shared
#: across processes on one host).  Kept as an explicit allowlist so the
#: trip/pass fixtures can pin the split; every entry here must stay
#: absent from :data:`WALL_CLOCK`.
MONOTONIC_ALLOWED = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: wall-clock sources (monotonic clocks are deliberately absent)
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.asctime",
        "time.localtime",
        "time.gmtime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: legacy numpy module-global RNG entry points (always hidden shared state)
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "poisson",
        "binomial",
        "beta",
        "gamma",
        "exponential",
    }
)

#: stdlib ``random`` module-global functions
STDLIB_GLOBAL_RNG = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "seed",
    }
)


# ----------------------------------------------------------------------
# MP201 / MP202 — site extraction (shared with the dataflow engine)
# ----------------------------------------------------------------------
def wall_clock_sites(scope: ast.AST, aliases) -> List[tuple]:
    """``(line, dotted-source)`` for every wall-clock read under
    ``scope``.  Also feeds the per-function effect summaries."""
    sites = []
    for node in ast.walk(scope):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        dotted = dotted_name(node, aliases)
        if dotted in WALL_CLOCK:
            sites.append((node.lineno, dotted))
    return sites


def rng_sites(scope: ast.AST, aliases) -> List[tuple]:
    """``(line, detail)`` for every unseeded/global RNG use under
    ``scope``.  Also feeds the per-function effect summaries."""
    sites = []
    for node in ast.walk(scope):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func, aliases)
        if dotted is None:
            continue
        message = None
        if dotted in ("numpy.random.default_rng", "numpy.random.RandomState"):
            if _is_unseeded_call(node):
                message = f"'{dotted}()' without a seed"
        elif dotted.startswith("numpy.random.") and (
            dotted.rsplit(".", 1)[1] in NUMPY_GLOBAL_RNG
        ):
            message = (
                f"'{dotted}' draws from the numpy module-global RNG "
                "(hidden shared state); use a seeded Generator"
            )
        elif dotted == "random.Random":
            if _is_unseeded_call(node):
                message = "'random.Random()' without a seed"
        elif dotted.startswith("random.") and (
            dotted.rsplit(".", 1)[1] in STDLIB_GLOBAL_RNG
        ):
            message = (
                f"'{dotted}' draws from the stdlib module-global RNG; "
                "use a seeded random.Random or numpy Generator"
            )
        if message is not None:
            sites.append((node.lineno, message))
    return sites


def _is_unseeded_call(node: ast.Call) -> bool:
    """No positional seed and no non-``None`` ``seed=`` keyword."""
    if node.args and not (
        isinstance(node.args[0], ast.Constant) and node.args[0].value is None
    ):
        return False
    for kw in node.keywords:
        if kw.arg == "seed" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        ):
            return False
    # every remaining form is seedless or an explicit None seed
    return True


def _scan_clocks(module: SourceModule, findings: List[Finding]) -> None:
    for line, dotted in wall_clock_sites(module.tree, module.aliases):
        findings.append(
            Finding(
                path=module.relpath,
                line=line,
                rule="MP201",
                message=(
                    f"wall-clock source '{dotted}' in a result-affecting "
                    "path; use a monotonic clock for measurement or move "
                    "timestamps out of the result"
                ),
            )
        )


def _scan_rng(module: SourceModule, findings: List[Finding]) -> None:
    for line, message in rng_sites(module.tree, module.aliases):
        findings.append(
            Finding(
                path=module.relpath,
                line=line,
                rule="MP202",
                message=message,
            )
        )


# ----------------------------------------------------------------------
# MP203
# ----------------------------------------------------------------------
_SET_CONSTRUCTORS = ("set", "frozenset")


def _collect_set_names(scope: ast.AST) -> Set[str]:
    """Names bound to set values within one scope (no nested functions)."""
    names: Set[str] = set()

    def is_setish(expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and terminal_name(expr.func) in _SET_CONSTRUCTORS:
            return True
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return is_setish(expr.left) or is_setish(expr.right)
        return False

    # two passes so forward-flowing chains (a = set(); b = a) settle
    for _ in range(2):
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign) and is_setish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if annotation_mentions(
                    node.annotation, ("set", "Set", "frozenset", "FrozenSet")
                ) or (node.value is not None and is_setish(node.value)):
                    names.add(node.target.id)
    return names


def _scan_set_iteration(module: SourceModule, findings: List[Finding]) -> None:
    scopes: List[ast.AST] = [module.tree]
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)

    for scope in scopes:
        set_names = _collect_set_names(scope)

        def is_setish(expr: ast.expr) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if (
                isinstance(expr, ast.Call)
                and terminal_name(expr.func) in _SET_CONSTRUCTORS
            ):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in set_names
            if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
            ):
                return is_setish(expr.left) or is_setish(expr.right)
            return False

        def flag(expr: ast.expr) -> None:
            findings.append(
                Finding(
                    path=module.relpath,
                    line=expr.lineno,
                    rule="MP203",
                    message=(
                        "iteration over an unordered set; wrap in sorted(...) "
                        "to fix a deterministic order"
                    ),
                )
            )

        for node in walk_scope(scope):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple", "enumerate", "iter") and node.args:
                    iters.append(node.args[0])
            for candidate in iters:
                if is_setish(candidate):
                    flag(candidate)


# ----------------------------------------------------------------------
# transitive MP201 over the call graph
# ----------------------------------------------------------------------
def _in_scope(pkgpath: str) -> bool:
    return any(
        pkgpath.startswith(scope) if scope.endswith("/") else pkgpath == scope
        for scope in RESULT_AFFECTING_SCOPES
    )


def _scan_transitive_clocks(project: Project, findings: List[Finding]) -> None:
    """Wall-clock reads that the per-module scan cannot see: a function
    in a result-affecting module calling an out-of-scope helper that
    (transitively) reads the wall clock.

    Emission is restricted to *boundary edges* — the call site where a
    result-affecting path first leaves scope — and only when the taint
    source is itself out of scope (in-scope sources are already flagged
    directly).  One finding per (caller, callee) pair, anchored at the
    first offending call line; the message carries the witness chain,
    not line numbers, so it is stable under edits to the helper module.
    """
    from repro.analysis.callgraph import format_chain, project_callgraph

    graph = project_callgraph(project)
    taints = graph.tainted("wall_clock")
    relpath_by_pkg = {m.pkgpath: m.relpath for m in project.modules}
    seen = set()
    for caller, targets in sorted(graph.edges.items()):
        if not _in_scope(caller[0]):
            continue
        for target, line in targets:
            if _in_scope(target[0]):
                continue  # still in scope: its own boundary edge reports
            taint = taints.get(target)
            if taint is None or _in_scope(taint.source[0]):
                continue
            if (caller, target) in seen:
                continue
            seen.add((caller, target))
            chain = format_chain(graph, target, "wall_clock")
            findings.append(
                Finding(
                    path=relpath_by_pkg[caller[0]],
                    line=line,
                    rule="MP201",
                    message=(
                        f"'{caller[1]}' reaches wall-clock source "
                        f"'{taint.site.detail}' via {chain}; use a monotonic "
                        "clock for measurement or move timestamps out of "
                        "the result"
                    ),
                )
            )


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def check_determinism(project: Project) -> List[Finding]:
    """Run the MP2xx determinism lint over ``project``."""
    findings: List[Finding] = []
    for module in project.select(RESULT_AFFECTING_SCOPES):
        _scan_clocks(module, findings)
        _scan_set_iteration(module, findings)
    for module in project.modules:
        _scan_rng(module, findings)
    _scan_transitive_clocks(project, findings)
    return findings
