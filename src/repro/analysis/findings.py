"""Finding model and rule catalog for ``metaprep check``.

A finding is one violation of a repository invariant, located at a file
and line, tagged with a stable rule id.  Rule ids are grouped by the
invariant family they guard:

* ``MP1xx`` — fingerprint coverage: the artifact store and checkpoint
  fingerprints (:func:`repro.core.checkpoint.config_payload`) must cover
  every :class:`~repro.core.config.PipelineConfig` field that can change
  partition output.
* ``MP2xx`` — determinism: partition output must be bit-identical across
  runs and executors, so result-affecting code must not consult
  wall-clock time, unseeded random sources, or unordered-set iteration.
* ``MP3xx`` — executor payload purity: work submitted to
  :mod:`repro.runtime.executor` must be picklable module-level functions
  free of module-global writes.
* ``MP4xx`` — k-mer dtype/overflow: ``k``-derived shifts/multiplies must
  not exceed one 64-bit limb unless split across limbs (``limb_count``).
* ``MP5xx`` — disk block plane hygiene: spill files and the tupleblock
  spill schema are touched only inside :mod:`repro.runtime.spill`, so
  its torn-write detection, seal protocol and crash sweep cover them.
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
    "MP101": (
        "PipelineConfig field is read by partition-affecting code but is "
        "neither emitted by config_payload nor declared partition-irrelevant"
    ),
    "MP102": (
        "config_payload emits a key that is not a PipelineConfig field "
        "(stale fingerprint key)"
    ),
    "MP103": (
        "field is declared partition-irrelevant but is also emitted by "
        "config_payload (contradictory classification)"
    ),
    "MP104": (
        "PipelineConfig field is neither fingerprinted by config_payload "
        "nor declared partition-irrelevant (unclassified field)"
    ),
    "MP201": "wall-clock time source used in a result-affecting path",
    "MP202": "unseeded or module-global random source",
    "MP203": (
        "iteration over an unordered set in a result-affecting path "
        "(order depends on PYTHONHASHSEED)"
    ),
    "MP301": (
        "callable submitted to an execution backend is not a module-level "
        "function (unpicklable under the process engine)"
    ),
    "MP302": "executor job function writes module-global state",
    "MP401": (
        "k-derived shift/multiply can exceed one 64-bit limb without "
        "splitting it across limbs (limb_count(k) > 1 for k > 31)"
    ),
    "MP502": (
        "spill file or tupleblock spill schema accessed outside "
        "repro.runtime.spill (the disk block plane's file operations)"
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
