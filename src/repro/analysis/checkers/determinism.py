"""MP2xx — determinism lint.

Partition output is bit-identical across executors and cached by
content address; both contracts die silently the moment code on
a result path consults a nondeterministic source.  Three rules:

* **MP201** — wall-clock time (``time.time``, ``datetime.now``...).
  Monotonic measurement clocks (``time.perf_counter``,
  ``time.monotonic``) are allowed: they feed the timing reports and the
  telemetry span timeline, which are not part of the result contract.
* **MP202** — unseeded or module-global random sources: ``np.random.
  default_rng()`` with no seed, the legacy ``np.random.*`` global API,
  ``random.*`` module functions, unseeded ``RandomState()``/
  ``Random()``.  Seeded generators and generators received as
  parameters pass.
* **MP203** — iteration over an unordered ``set``/``frozenset`` (literal,
  constructor call, or a local so assigned) in a result-affecting module.
  Iteration order of a set of strings depends on ``PYTHONHASHSEED``;
  wrap in ``sorted(...)`` to fix an order.

Scope: MP201 scans every module except ``service/`` and ``gateway/``,
whose wall-clock job-record timestamps are part of *their* contract.
Only ``cli.py`` imports either of them (a layering test pins that), so
a wall-clock read can reach a result only through a module this scan
covers.  MP202 applies to the whole package — an unseeded RNG anywhere
is a reproducibility hazard.  MP203 applies to
:data:`RESULT_AFFECTING_SCOPES`.
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
#: ``telemetry/`` whose exported artifacts must not depend on hash order
#: (MP203)
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

#: packages outside MP201: their wall-clock reads are job-record timestamps
WALL_CLOCK_EXEMPT = ("service/", "gateway/")

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
# MP201 / MP202
# ----------------------------------------------------------------------
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
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        dotted = dotted_name(node, module.aliases)
        if dotted not in WALL_CLOCK:
            continue
        findings.append(
            Finding(
                path=module.relpath,
                line=node.lineno,
                rule="MP201",
                message=(
                    f"wall-clock source '{dotted}' outside the service "
                    "layer; use a monotonic clock for measurement or move "
                    "timestamps out of the result"
                ),
            )
        )


def _scan_rng(module: SourceModule, findings: List[Finding]) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func, module.aliases)
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
            findings.append(
                Finding(
                    path=module.relpath,
                    line=node.lineno,
                    rule="MP202",
                    message=message,
                )
            )


# ----------------------------------------------------------------------
# MP203
# ----------------------------------------------------------------------
_SET_CONSTRUCTORS = ("set", "frozenset")


def _is_setish(expr: ast.expr, set_names: Set[str]) -> bool:
    """A set literal/comprehension/constructor, a name bound to one, or
    set algebra over either."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and terminal_name(expr.func) in _SET_CONSTRUCTORS:
        return True
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish(expr.left, set_names) or _is_setish(expr.right, set_names)
    return False


def _collect_set_names(scope: ast.AST) -> Set[str]:
    """Names bound to set values within one scope (no nested functions)."""
    names: Set[str] = set()
    # two passes so forward-flowing chains (a = set(); b = a) settle
    for _ in range(2):
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign) and _is_setish(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if annotation_mentions(
                    node.annotation, ("set", "Set", "frozenset", "FrozenSet")
                ) or (node.value is not None and _is_setish(node.value, names)):
                    names.add(node.target.id)
    return names


def _scan_set_iteration(module: SourceModule, findings: List[Finding]) -> None:
    scopes: List[ast.AST] = [module.tree]
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)

    for scope in scopes:
        set_names = _collect_set_names(scope)

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
                if _is_setish(candidate, set_names):
                    flag(candidate)


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def check_determinism(project: Project) -> List[Finding]:
    """Run the MP2xx determinism lint over ``project``."""
    findings: List[Finding] = []
    for module in project.modules:
        if not module.pkgpath.startswith(WALL_CLOCK_EXEMPT):
            _scan_clocks(module, findings)
        _scan_rng(module, findings)
    for module in project.select(RESULT_AFFECTING_SCOPES):
        _scan_set_iteration(module, findings)
    return findings
