"""IndexCreate: the sequential once-per-dataset indexing step.

Builds FASTQPart then derives merHist by summing the per-chunk histograms
(one scan of the input, exactly as the paper's Table 5 measures the two
sub-steps separately: chunk-boundary discovery vs. histogramming).  Each
sub-step is timed once, where it runs, so every input file is read once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro.index.fastqpart import (
    STEP_FASTQPART,
    STEP_MERHIST,
    FastqPartTable,
    build_fastqpart,
)
from repro.index.merhist import MerHist
from repro.util.logging import get_logger
from repro.util.timers import TimeBreakdown

_LOG = get_logger("index.create")


@dataclass
class IndexCreateResult:
    """The two tables plus the timing split reported in paper Table 5."""

    merhist: MerHist
    fastqpart: FastqPartTable
    fastqpart_seconds: float
    merhist_seconds: float
    merhist_path: str | None = None
    fastqpart_path: str | None = None

    @property
    def total_seconds(self) -> float:
        return self.fastqpart_seconds + self.merhist_seconds


def index_create(
    units: Sequence,
    k: int,
    m: int,
    n_chunks: int,
    output_dir: str | os.PathLike | None = None,
) -> IndexCreateResult:
    """Run IndexCreate; optionally persist both tables under ``output_dir``.

    The FASTQPart timing covers chunk-boundary discovery; the merHist
    timing covers canonical-k-mer histogramming and its summation (which
    the paper notes "is similar to the KmerGen preprocessing step and can
    be parallelized in the same manner" — kept sequential here, as
    published).
    """
    times = TimeBreakdown()
    table = build_fastqpart(units, k=k, m=m, n_chunks=n_chunks, times=times)
    with telemetry.span(STEP_MERHIST, times=times):
        merhist = MerHist(
            k=k, m=m, counts=table.global_histogram().astype("uint32")
        )

    result = IndexCreateResult(
        merhist=merhist,
        fastqpart=table,
        fastqpart_seconds=times.get(STEP_FASTQPART),
        merhist_seconds=times.get(STEP_MERHIST),
    )
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        mh_path = out / f"merhist_k{k}_m{m}.bin"
        fp_path = out / f"fastqpart_k{k}_m{m}_c{n_chunks}.bin"
        merhist.save(mh_path)
        table.save(fp_path)
        result.merhist_path = str(mh_path)
        result.fastqpart_path = str(fp_path)
        _LOG.info(
            "IndexCreate: %d chunks, %d reads, tables saved to %s",
            table.n_chunks,
            table.total_reads,
            out,
        )
    return result
