#!/usr/bin/env python
"""Large-dataset workflow: multipass partitioning under a memory budget.

This mirrors the paper's headline experiment — the 223 Gbp Iowa
Continuous Corn soil dataset processed in ~14 minutes on 16 Edison nodes
using 8 I/O passes to fit 64 GB/node — at reproduction scale:

1. build the IS (Iowa soil) analogue,
2. let the pass planner derive the fewest passes for a per-task memory
   budget (paper section 3.7),
3. run with 16 simulated tasks,
4. project the run onto the Edison machine model at the paper's data
   scale and report the step breakdown and memory estimate.

Run:  python examples/soil_metagenome_partitioning.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import MetaPrep, PipelineConfig, build_dataset
from repro.core.report import format_breakdown
from repro.runtime.machines import get_machine
from repro.runtime.timing import TimingModel
from repro.util.sizes import human_bytes

PAPER_IS_GBP = 223.26
N_TASKS = 16
THREADS = 12


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="metaprep_soil_")
    )
    dataset = build_dataset("IS", workdir / "data", seed=3, scale=0.4)
    print(
        f"IS analogue: {dataset.n_pairs} pairs, "
        f"{dataset.total_bases / 1e6:.1f} Mbp, "
        f"{dataset.community.n_species} species"
    )

    # Budget-driven pass planning: give each simulated task a budget that
    # forces multipass execution, exactly how the real 64 GB/node limit
    # forces 8 passes on the full dataset.  IndexCreate runs first so the
    # budget can be sized with the section 3.7 memory model itself: its
    # fixed terms (tables, FASTQ chunk buffers, component arrays) plus
    # tuple buffers for ~1/4 of the data per pass.
    from repro.index.create import index_create
    from repro.runtime.work import task_memory

    n_chunks = N_TASKS * THREADS * 2
    index = index_create(dataset.units, k=27, m=7, n_chunks=n_chunks)
    table = index.fastqpart
    sized = task_memory(
        table_bytes=table.nbytes + index.merhist.nbytes,
        chunk_bytes=table.peak_chunk_bytes,
        n_threads=THREADS,
        n_reads=table.total_reads,
        tuple_bytes=12,
        tuples_per_task_pass=-(-index.merhist.total_tuples // (N_TASKS * 4)),
    )
    budget = sized.total
    config = PipelineConfig(
        k=27,
        m=7,
        n_tasks=N_TASKS,
        n_threads=THREADS,
        n_passes=None,  # derive from the budget
        memory_budget_per_task=budget,
        n_chunks=n_chunks,
        write_outputs=False,
    )
    print(
        f"per-task memory budget: {human_bytes(budget)} (fixed terms: "
        f"{human_bytes(budget - sized.kmer_out - sized.kmer_in)})"
    )

    result = MetaPrep(config).run(dataset.units, index=index)
    print(
        f"planner chose S = {result.n_passes} passes; "
        f"{result.total_tuples} tuples; "
        f"{result.partition.summary.n_components} components "
        f"(LC {result.partition.summary.largest_component_percent:.1f}%)"
    )
    print(
        f"memory/task at the largest pass: "
        f"{human_bytes(result.memory_per_task_bytes())} "
        f"(budget {human_bytes(budget)})"
    )

    # Project at the paper's 223 Gbp scale on the Edison model.
    factor = PAPER_IS_GBP / (dataset.total_bases / 1e9)
    scaled = result.work.scaled(factor)
    model = TimingModel(get_machine("edison"))
    projected = model.project(scaled)
    print()
    print(
        format_breakdown(
            projected.breakdown(),
            f"projected on Edison at {PAPER_IS_GBP} Gbp, "
            f"{N_TASKS} nodes, S={result.n_passes} "
            f"(paper: ~14 minutes on 16 nodes)",
        )
    )
    print(
        f"\nprojected memory/task: "
        f"{human_bytes(scaled.mean_pass_memory().total)} "
        f"(paper example: ~49 GB)"
    )
    print(
        f"projected total: {projected.total_seconds / 60:.1f} minutes"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
