"""Source-tree model for the checkers.

A :class:`Project` wraps one repository root (a directory containing
``src/repro``) and reads every Python file under the package once —
one ``ast.parse``, one tokenization (the suppression comments), one
import-alias table — so every checker shares one pass over the tree.
Checkers address files by *package-relative* path
(``core/pipeline.py``), while findings report *root-relative* paths
(``src/repro/core/pipeline.py``) so they are clickable from the repo
root.

The loader is dependency-free (stdlib ``ast``/``tokenize`` only): the CI
gate can run it without installing the pipeline's numeric stack.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Sequence

from repro.analysis.suppress import (
    SuppressionComment,
    scan_suppression_comments,
    suppression_map,
)

#: package directory relative to the project root
PACKAGE_RELDIR = Path("src") / "repro"


class ProjectLayoutError(ValueError):
    """The given root does not contain a ``src/repro`` package."""


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted path they import.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    time`` maps ``time -> time.time``; ``import os.path`` binds ``os``.
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
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay package-local
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class SourceModule:
    """One parsed Python file."""

    path: Path
    #: path relative to the project root, POSIX separators (finding paths)
    relpath: str
    #: path relative to the package dir, POSIX separators (scope matching)
    pkgpath: str
    text: str
    tree: ast.Module
    #: line -> suppressed rule ids (see :mod:`repro.analysis.suppress`)
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: every suppression comment, malformed ones included (the MP001 audit)
    comments: List[SuppressionComment] = field(default_factory=list)
    #: local name -> imported dotted path (:func:`import_aliases`)
    aliases: Dict[str, str] = field(init=False)

    def __post_init__(self) -> None:
        self.aliases = import_aliases(self.tree)


class Project:
    """All parsed modules of one checkout, indexed for the checkers."""

    def __init__(self, root: Path, modules: List[SourceModule]) -> None:
        self.root = root
        self.modules = modules

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: Path) -> "Project":
        """Parse and tokenize every ``*.py`` under ``<root>/src/repro``.

        A file that fails to parse raises ``SyntaxError`` annotated with
        its path: the analyzer refuses to certify a tree it cannot read.
        """
        root = Path(root).resolve()
        package_dir = root / PACKAGE_RELDIR
        if not package_dir.is_dir():
            raise ProjectLayoutError(
                f"{root}: expected a '{PACKAGE_RELDIR}' package directory"
            )
        modules: List[SourceModule] = []
        for path in sorted(package_dir.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            text = path.read_text()
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                exc.filename = str(path)
                raise
            comments = scan_suppression_comments(text)
            modules.append(
                SourceModule(
                    path=path,
                    relpath=path.relative_to(root).as_posix(),
                    pkgpath=path.relative_to(package_dir).as_posix(),
                    text=text,
                    tree=tree,
                    suppressions=suppression_map(comments),
                    comments=comments,
                )
            )
        return cls(root, modules)

    # ------------------------------------------------------------------
    def select(self, scopes: Sequence[str]) -> Iterator[SourceModule]:
        """Modules whose package path matches any scope.

        A scope ending in ``/`` matches a directory prefix; otherwise it
        must match a file exactly.  ``("sort/", "core/pipeline.py")``
        selects the whole sort package plus the pipeline driver.
        """
        for module in self.modules:
            for scope in scopes:
                if scope.endswith("/"):
                    if module.pkgpath.startswith(scope):
                        yield module
                        break
                elif module.pkgpath == scope:
                    yield module
                    break
