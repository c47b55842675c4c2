"""Finding model and rule catalog for ``metaprep check``.

A finding is one violation of a repository invariant, located at a file
and line, tagged with a stable rule id.  Rule ids are grouped by the
invariant family they guard:

* ``MP2xx`` — determinism: partition output must be bit-identical across
  runs and executors, so code outside the service layer must not consult
  wall-clock time, no code may draw from an unseeded random source, and
  result-affecting code must not iterate an unordered set.
* ``MP6xx`` — gateway event loop: ``async`` request handlers must not
  write module globals or block in ``time.sleep`` (MP605).
* ``MP001`` — meta: a ``# metaprep: ignore[...]`` comment that is
  malformed, names an unknown rule id, or suppresses nothing on its
  line is itself a finding, so dead suppressions cannot accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

#: rule id -> one-line description (the complete rule catalog)
RULES = {
    "MP001": (
        "metaprep suppression comment is malformed, names an unknown rule "
        "id, or suppresses nothing on its line"
    ),
    "MP201": "wall-clock time source used outside the service layer",
    "MP202": "unseeded or module-global random source",
    "MP203": (
        "iteration over an unordered set in a result-affecting path "
        "(order depends on PYTHONHASHSEED)"
    ),
    "MP605": (
        "gateway request handler writes module-global state or blocks "
        "the event loop with time.sleep"
    ),
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordering is (path, line, rule, message) so sorted output reads like a
    compiler log.
    """

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """Compiler-style one-liner: ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }
