"""METAPREP reproduction: parallel, memory-efficient metagenome preprocessing.

This package reimplements the METAPREP system of Rengasamy, Medvedev and
Madduri ("Parallel and Memory-efficient Preprocessing for Metagenome
Assembly", IPDPS Workshops 2017) as a pure-Python / NumPy library, together
with every substrate its evaluation depends on:

* a simulated multi-node cluster runtime (:mod:`repro.runtime`),
* FASTQ sequence I/O and binary index tables (:mod:`repro.seqio`),
* a vectorized canonical k-mer engine (:mod:`repro.kmers`),
* LSD radix sorting of (k-mer, read) tuples (:mod:`repro.sort`),
* parallel union-find connectivity (:mod:`repro.cc`),
* the IndexCreate tables and static load-balancing math (:mod:`repro.index`),
* a de Bruijn unitig assembler standing in for MEGAHIT (:mod:`repro.assembly`),
* synthetic metagenome dataset generation (:mod:`repro.datasets`),
* the paper's comparison baselines (:mod:`repro.baselines`), and
* substrate calibration of this host's kernel rates (:mod:`repro.perf`).

Paper section 3.7's per-task memory model is one function,
:func:`repro.runtime.work.task_memory`.

The top-level convenience exports cover the common entry points::

    from repro import MetaPrep, PipelineConfig, build_dataset

    ds = build_dataset("HG", workdir)      # synthetic Human-gut analogue
    result = MetaPrep(PipelineConfig(k=27)).run(ds.fastq_files, workdir)
    print(result.partition.largest_component_fraction)
"""

from typing import Any

__version__ = "1.0.0"

# Top-level conveniences are imported lazily (PEP 562) so that importing a
# single substrate (e.g. ``repro.kmers``) never drags in the whole pipeline.
_LAZY = {
    "PipelineConfig": ("repro.core.config", "PipelineConfig"),
    "MetaPrep": ("repro.core.pipeline", "MetaPrep"),
    "build_dataset": ("repro.datasets.registry", "build_dataset"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> "list[str]":
    return sorted(list(globals()) + list(_LAZY))


__all__ = ["MetaPrep", "PipelineConfig", "build_dataset", "__version__"]
