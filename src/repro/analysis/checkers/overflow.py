"""MP401 — k-derived shift width versus the 64-bit packed-kmer limb.

The codec packs a k-mer at 2 bits per base: for ``k <= 31``
(:data:`repro.kmers.codec.MAX_K_ONE_LIMB`) everything fits one ``uint64``
limb, and expressions like ``1 << (2 * k)`` or ``x >> (2 * (k - i))`` are
safe.  Beyond 31 they silently wrap under numpy's modular ``uint64``
arithmetic — correctness only survives when the value is split across
limbs (:func:`repro.kmers.codec.limb_count` of them).  This checker flags
k-derived shift expressions in numeric modules that are not visibly
guarded against ``k > 31``.

Heuristics (all local to one module):

* a *k-name* is an identifier matching ``k`` / ``k1`` / ``k2`` ... either
  bare or as an attribute (``self.k``, ``cfg.k``);
* a *suspect expression* is ``<< / >>`` with a k-name in the shift
  amount, or ``2 ** (...k...)`` / ``4 ** (...k...)``;
* a scope is *guarded* when it (or its enclosing class) contains a
  ``check_in_range("k", ..., <= 31)`` call, a reference to ``limb_count``
  / ``MAX_K_ONE_LIMB`` / ``MAX_K_TWO_LIMB``, or a comparison of a k-name
  against a small constant — any of these shows the author confronted
  the limb boundary;
* shifting a value that is a plain Python ``int`` (an ``int``-annotated
  name or an ``int(...)`` conversion) is exempt: Python integers are
  arbitrary precision, only fixed-width numpy lanes wrap.  A literal
  ``1`` is *not* exempt — ``1 << (2 * k)`` routinely feeds a ``uint64``
  bound or mask.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule
from repro.analysis.checkers.common import (
    K_NAME,
    contains_k_name,
    function_scopes,
    terminal_name,
    walk_scope,
)

#: modules doing packed-kmer arithmetic
OVERFLOW_SCOPES = (
    "kmers/",
    "sort/",
    "cc/",
    "index/",
    "assembly/",
    "perf/",
    "core/",
)

GUARD_NAMES = frozenset({"limb_count", "MAX_K_ONE_LIMB", "MAX_K_TWO_LIMB"})
RANGE_GUARD_FUNCTION = "check_in_range"
ONE_LIMB_MAX = 31
#: comparisons of k against anything up to the widest k count as
#: engagement with the limb boundary
COMPARE_GUARD_MAX = 64


# ----------------------------------------------------------------------
# guard detection
# ----------------------------------------------------------------------
def _is_range_guard(node: ast.Call) -> bool:
    if terminal_name(node.func) != RANGE_GUARD_FUNCTION:
        return False
    if not node.args:
        return False
    first = node.args[0]
    if not (
        isinstance(first, ast.Constant)
        and isinstance(first.value, str)
        and K_NAME.match(first.value)
    ):
        return False
    last = node.args[-1]
    if isinstance(last, ast.Constant) and isinstance(last.value, int):
        return last.value <= ONE_LIMB_MAX
    return terminal_name(last) in GUARD_NAMES


def _is_compare_guard(node: ast.Compare) -> bool:
    exprs = [node.left, *node.comparators]
    has_k = any(
        terminal_name(e) is not None and K_NAME.match(terminal_name(e) or "")
        for e in exprs
    )
    if not has_k:
        return False
    for expr in exprs:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, int):
            if expr.value <= COMPARE_GUARD_MAX:
                return True
        if terminal_name(expr) in GUARD_NAMES:
            return True
    return False


def _subtree_guarded(scope: ast.AST) -> bool:
    """Does this subtree (entire, including nested defs) show a k guard?"""
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and _is_range_guard(node):
            return True
        if isinstance(node, ast.Compare) and _is_compare_guard(node):
            return True
        if isinstance(node, ast.Name) and node.id in GUARD_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in GUARD_NAMES:
            return True
    return False


# ----------------------------------------------------------------------
# exemptions
# ----------------------------------------------------------------------
def _int_annotated_names(scope: ast.AST) -> Set[str]:
    """Names provably plain Python ``int`` within ``scope``."""
    names: Set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            ann = arg.annotation
            if isinstance(ann, ast.Name) and ann.id == "int":
                names.add(arg.arg)
    for node in walk_scope(scope):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if isinstance(node.annotation, ast.Name) and node.annotation.id == "int":
                names.add(node.target.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if terminal_name(node.value.func) == "int":
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return names


def _is_python_int(expr: ast.expr, int_names: Set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in int_names
    if isinstance(expr, ast.Call):
        return terminal_name(expr.func) == "int"
    return False


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def _scan_scope(
    module: SourceModule,
    scope: ast.AST,
    guarded: bool,
    findings: List[Finding],
) -> None:
    int_names = _int_annotated_names(scope)
    for node in walk_scope(scope):
        if not isinstance(node, ast.BinOp):
            continue
        suspect = False
        operand: Optional[ast.expr] = None
        if isinstance(node.op, (ast.LShift, ast.RShift)):
            if contains_k_name(node.right):
                suspect = True
                operand = node.left
        elif isinstance(node.op, ast.Pow):
            if (
                isinstance(node.left, ast.Constant)
                and node.left.value in (2, 4)
                and contains_k_name(node.right)
            ):
                suspect = True
        if not suspect or guarded:
            continue
        if operand is not None and _is_python_int(operand, int_names):
            continue
        findings.append(
            Finding(
                path=module.relpath,
                line=node.lineno,
                rule="MP401",
                message=(
                    "k-derived shift width can exceed the 64-bit limb for "
                    f"k > {ONE_LIMB_MAX}; guard with "
                    f"check_in_range(..., MAX_K_ONE_LIMB) or split it "
                    "across limbs with limb_count(k)"
                ),
            )
        )


def _scope_guarded(node: ast.AST) -> bool:
    """Guard evidence in one scope's own statements (not nested defs)."""
    for sub in walk_scope(node):
        if isinstance(sub, ast.Call) and _is_range_guard(sub):
            return True
        if isinstance(sub, ast.Compare) and _is_compare_guard(sub):
            return True
        if isinstance(sub, ast.Name) and sub.id in GUARD_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in GUARD_NAMES:
            return True
    return False


def check_kmer_overflow(project: Project) -> List[Finding]:
    """Run the MP401 k-mer shift-overflow analysis over ``project``."""
    findings: List[Finding] = []
    for module in project.select(OVERFLOW_SCOPES):
        class_guarded = {
            node: _subtree_guarded(node)
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        for scope, owner in function_scopes(module.tree):
            if isinstance(scope, ast.Module):
                guarded = _scope_guarded(scope)
            else:
                guarded = _subtree_guarded(scope) or (
                    owner is not None and class_guarded.get(owner, False)
                )
            _scan_scope(module, scope, guarded, findings)
    return findings
