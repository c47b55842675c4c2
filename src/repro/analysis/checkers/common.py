"""Shared AST utilities for the checkers.

Everything here is deliberately *local* static analysis: import-alias
resolution, annotation matching, and scope walking within one module.
No cross-module type inference is attempted — the checkers trade recall
for zero-dependency, zero-surprise precision, and document their
heuristics in :mod:`repro.analysis.findings`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple


def dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a ``Name``/``Attribute`` chain to its imported dotted path.

    Returns ``None`` when the chain is not rooted in an imported name —
    locals and attributes of locals never resolve, which keeps matching
    against module-function tables (``time.time`` etc.) precise.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    parts.append(aliases[node.id])
    return ".".join(reversed(parts))


def annotation_mentions(annotation: Optional[ast.expr], names: Tuple[str, ...]) -> bool:
    """True when an annotation expression references any of ``names``.

    Handles plain names, attributes, subscripts, unions (``X | None``),
    and string annotations.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in names:
            return True
    return False


def terminal_name(node: ast.expr) -> Optional[str]:
    """The last identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class defs.

    The scope node itself is yielded first; nested ``FunctionDef`` /
    ``AsyncFunctionDef`` / ``ClassDef`` / ``Lambda`` nodes are yielded
    (so callers can recurse explicitly) but their bodies are not.
    """
    yield scope
    stack: List[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child
            if not isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                stack.append(child)
