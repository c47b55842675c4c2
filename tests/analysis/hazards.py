"""The static hazards of ``src/repro`` that no runtime test sees.

Partition output is bit-identical across engines and cached by content
address, and the gateway serves every tenant from one event loop.  Both
contracts break silently, without a failing run, when code does one of
these things:

* **MP201**: reads a wall clock (:data:`WALL_CLOCK`) in any module
  outside :data:`WALL_CLOCK_EXEMPT`, whose job-record timestamps are the
  service layer's own contract.  Only ``cli.py`` imports those packages
  (``tests/test_public_api.py::test_nothing_below_the_service_layer_imports_it``),
  so a wall-clock read can reach a result only through a module this scan
  covers, and no call graph is needed.  The monotonic clocks of
  :data:`MONOTONIC_ALLOWED` feed timing reports and the telemetry span
  timeline, not the result, and pass.
* **MP202**: draws from an unseeded or module-global random source,
  anywhere in the package.  Seeded generators and generators received as
  parameters pass.
* **MP203**: iterates an unordered ``set``/``frozenset`` (a literal, a
  constructor call, set algebra or a local so bound) in a
  :data:`RESULT_AFFECTING_SCOPES` module.  The order of a set of strings
  depends on ``PYTHONHASHSEED``; ``sorted(...)`` fixes one.
* **MP605**: an ``async def`` under :data:`GATEWAY_SCOPE` writes a module
  global (handler state belongs on the app instance) or blocks the event
  loop with ``time.sleep`` (use ``asyncio.sleep`` or
  ``loop.run_in_executor``).  Synchronous helpers run on executor threads
  and may do either.
* **MP001**: carries a ``# metaprep: ignore`` comment, well-formed or
  not.  Nothing honours such a comment, so it can only mislead a reader.
  Only a comment that opens with the marker counts: the marker inside a
  string literal, or mentioned mid-comment, is not a directive.

:func:`scan` is local, per-module analysis over the stdlib ``ast``:
import aliases are resolved (``import numpy as np``, ``from time import
sleep``) and nothing else is inferred.
"""

from __future__ import annotations

import ast
import io
import re
import textwrap
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

#: the package the live tests scan
PACKAGE_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"

#: packages outside MP201: their wall-clock reads are job-record timestamps
WALL_CLOCK_EXEMPT = ("service/", "gateway/")

#: modules whose behaviour flows into partition/assembly results, plus
#: ``telemetry/``, whose exported artifacts must not depend on hash order
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

#: the package whose ``async def`` handlers MP605 polices
GATEWAY_SCOPE = "gateway/"

#: monotonic measurement clocks MP201 allows: the clocks the telemetry
#: span timeline is defined over.  Every entry must stay absent from
#: :data:`WALL_CLOCK`.
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

#: wall-clock sources (MP201)
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

#: legacy numpy module-global RNG entry points: always hidden shared state
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

#: RNG constructors that are deterministic only when given a seed
SEEDABLE_RNG = ("numpy.random.default_rng", "numpy.random.RandomState", "random.Random")

#: container-mutating method names (MP605)
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

#: module-level carriers of per-thread/per-context state: writing through
#: one is the sanctioned alternative to a module global (MP605)
THREAD_LOCAL_FACTORIES = ("threading.local", "contextvars.ContextVar")

#: the suppression marker MP001 forbids, anchored at the start of a
#: comment token
IGNORE_COMMENT = re.compile(r"#[#:!]*\s*metaprep:\s*ignore")

#: ``(package-relative path, line, rule id)``
Finding = Tuple[str, int, str]


def package_files() -> Dict[str, str]:
    """Package-relative path -> source text of every ``*.py`` under
    ``src/repro``."""
    return {
        path.relative_to(PACKAGE_DIR).as_posix(): path.read_text()
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def scan(files: Mapping[str, str]) -> List[Finding]:
    """Every hazard in ``files`` (package-relative path -> source), sorted.

    Each source is dedented, then parsed and tokenized once, so a test
    may pass an indented triple-quoted snippet.
    """
    findings: List[Finding] = []
    for pkgpath, text in files.items():
        text = textwrap.dedent(text)
        tree = ast.parse(text, filename=pkgpath)
        aliases = import_aliases(tree)
        lines: List[Tuple[int, str]] = []
        if not pkgpath.startswith(WALL_CLOCK_EXEMPT):
            lines += [(line, "MP201") for line in _wall_clock_reads(tree, aliases)]
        lines += [(line, "MP202") for line in _random_draws(tree, aliases)]
        if pkgpath.startswith(RESULT_AFFECTING_SCOPES):
            lines += [(line, "MP203") for line in _set_iterations(tree)]
        if pkgpath.startswith(GATEWAY_SCOPE):
            lines += [(line, "MP605") for line in _impure_handler_sites(tree, aliases)]
        lines += [(line, "MP001") for line in _ignore_comments(text)]
        findings += [(pkgpath, line, rule) for line, rule in lines]
    return sorted(findings)


# ----------------------------------------------------------------------
# name resolution
# ----------------------------------------------------------------------
def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted path they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    time`` maps ``time -> time.time``; ``import os.path`` binds ``os``.
    Relative imports stay package-local and bind nothing here.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    first = alias.name.split(".")[0]
                    aliases[first] = first
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to its imported dotted path,
    or ``None`` when the chain is not rooted in an imported name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# MP201 / MP202
# ----------------------------------------------------------------------
def _wall_clock_reads(tree: ast.Module, aliases: Dict[str, str]) -> Iterator[int]:
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Attribute, ast.Name))
            and isinstance(node.ctx, ast.Load)
            and dotted_name(node, aliases) in WALL_CLOCK
        ):
            yield node.lineno


def _unseeded(call: ast.Call) -> bool:
    """No positional seed and no ``seed=`` keyword other than ``None``."""
    seeds = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "seed"]
    return all(isinstance(s, ast.Constant) and s.value is None for s in seeds)


def _random_draws(tree: ast.Module, aliases: Dict[str, str]) -> Iterator[int]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func, aliases) or ""
        name = dotted.rsplit(".", 1)[-1]
        if dotted in SEEDABLE_RNG:
            hazard = _unseeded(node)
        else:
            hazard = (
                dotted.startswith("numpy.random.") and name in NUMPY_GLOBAL_RNG
            ) or (dotted.startswith("random.") and name in STDLIB_GLOBAL_RNG)
        if hazard:
            yield node.lineno


# ----------------------------------------------------------------------
# MP001
# ----------------------------------------------------------------------
def _ignore_comments(text: str) -> Iterator[int]:
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT and IGNORE_COMMENT.match(token.string):
            yield token.start[0]


# ----------------------------------------------------------------------
# MP203
# ----------------------------------------------------------------------
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet")


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope``, yielding nested function/class defs but not their
    bodies."""
    yield scope
    stack = [scope]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            yield child
            if not isinstance(child, _NESTED_SCOPES):
                stack.append(child)


def _is_setish(expr: ast.expr, set_names: Set[str]) -> bool:
    """A set literal/comprehension/constructor, a name bound to one, or
    set algebra over either."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        return getattr(func, "attr", getattr(func, "id", None)) in ("set", "frozenset")
    if isinstance(expr, ast.Name):
        return expr.id in set_names
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish(expr.left, set_names) or _is_setish(expr.right, set_names)
    return False


def _annotated_as_set(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    return any(
        getattr(node, "id", getattr(node, "attr", None)) in _SET_ANNOTATIONS
        for node in ast.walk(annotation)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _set_names(scope: ast.AST) -> Set[str]:
    """Names bound to set values within one scope (no nested functions)."""
    names: Set[str] = set()
    # two passes so forward-flowing chains (a = set(); b = a) settle
    for _ in range(2):
        for node in _walk_scope(scope):
            if isinstance(node, ast.Assign) and _is_setish(node.value, names):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotated_as_set(node.annotation) or (
                    node.value is not None and _is_setish(node.value, names)
                ):
                    names.add(node.target.id)
    return names


def _set_iterations(tree: ast.Module) -> Iterator[int]:
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        set_names = _set_names(scope)
        for node in _walk_scope(scope):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate", "iter")
                and node.args
            ):
                iters.append(node.args[0])
            yield from (it.lineno for it in iters if _is_setish(it, set_names))


# ----------------------------------------------------------------------
# MP605
# ----------------------------------------------------------------------
def _module_globals(tree: ast.Module, aliases: Dict[str, str]) -> Set[str]:
    """Module-level bindings that count as global state (thread-local
    carriers excepted)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if (
                isinstance(node.value, ast.Call)
                and dotted_name(node.value.func, aliases) in THREAD_LOCAL_FACTORIES
            ):
                continue
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _impure_handler_sites(tree: ast.Module, aliases: Dict[str, str]) -> Iterator[int]:
    """Lines where an ``async def`` writes a module global or calls
    ``time.sleep``.  A write is a ``global`` statement, an attribute or
    item assignment through a module-level name, or a :data:`MUTATORS`
    call on one."""
    module_names = _module_globals(tree, aliases)
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.AsyncFunctionDef):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Global):
                yield node.lineno
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
                        yield node.lineno
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_names
                ) or dotted_name(func, aliases) == "time.sleep":
                    yield node.lineno
