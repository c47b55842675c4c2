"""Timing projection: work volumes -> per-task step times on a machine.

See :mod:`repro.runtime.machines` for the calibration philosophy.  Every
method returns a per-task seconds array, so Figure 8-style load-balance
plots fall out of the same projection as the Figure 5-7 step stacks (which
take the max over tasks, i.e. the critical path under the pipeline's
per-step barriers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.runtime.machines import MachineSpec
from repro.runtime.work import RunWork, StepNames
from repro.util.timers import TimeBreakdown


@dataclass
class ProjectedTimes:
    """Per-step, per-task projected seconds."""

    machine: str
    n_tasks: int
    per_task: Dict[str, np.ndarray] = field(default_factory=dict)

    def step_seconds(self, step: str) -> float:
        """Critical-path time of a step: max over tasks (steps are
        barrier-separated in METAPREP's phases)."""
        arr = self.per_task.get(step)
        return float(arr.max()) if arr is not None and len(arr) else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.step_seconds(s) for s in self.per_task)

    def breakdown(self) -> TimeBreakdown:
        bd = TimeBreakdown()
        for step in StepNames.ORDER:
            if step in self.per_task:
                bd.add(step, self.step_seconds(step))
        for step in self.per_task:
            if step not in StepNames.ORDER:
                bd.add(step, self.step_seconds(step))
        return bd

    def task_totals(self) -> np.ndarray:
        out = np.zeros(self.n_tasks)
        for arr in self.per_task.values():
            out += arr
        return out

    def spread(self, step: str) -> Dict[str, float]:
        """min/median/max across tasks for one step (Figure 8 box stats)."""
        arr = self.per_task[step]
        return {
            "min": float(arr.min()),
            "median": float(np.median(arr)),
            "max": float(arr.max()),
        }


class TimingModel:
    """Projects a :class:`RunWork` onto a :class:`MachineSpec`."""

    #: relative cost of scanning (and range-rejecting) a k-mer position vs.
    #: emitting a tuple; see the KmerGen projection below.
    SCAN_COST_FRACTION = 0.3

    #: fraction of a radix pass spent on record-size-independent bucket
    #: bookkeeping; the rest moves the record (see the Table 6 discussion
    #: in project()).
    SORT_BOOKKEEPING_FRACTION = 0.65

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine

    # ------------------------------------------------------------------
    def _thread_parallel_time(
        self,
        volumes: np.ndarray,
        rate_per_core: float,
        saturate: bool = True,
        bytes_touched: float | None = None,
    ) -> np.ndarray:
        """Per-task time for thread-parallel compute: max over threads of
        volume / effective per-core rate."""
        m = self.machine
        p, t = volumes.shape
        rate = (
            m.core_rate_with_saturation(rate_per_core, t, bytes_touched)
            if saturate
            else rate_per_core * min(1.0, m.cores_per_node / t)
        )
        return volumes.max(axis=1) / rate

    def _io_time(self, volumes: np.ndarray, bw_task: float, scales_with_threads: bool) -> np.ndarray:
        """Per-task I/O time.

        On a scalable FS (Lustre) each thread drives its own stream at up
        to ``io_stream_bw`` and threads together are capped by the task's
        bandwidth share — this is why parallel per-thread file I/O scales
        with thread count until the node cap.  On a shared FS extra
        threads buy nothing (the paper's Ganga behaviour)."""
        p, t = volumes.shape
        per_task_bytes = volumes.sum(axis=1).astype(np.float64)
        active = np.maximum((volumes > 0).sum(axis=1), 1)
        if scales_with_threads:
            per_thread_bw = np.minimum(
                self.machine.io_stream_bw, bw_task / active
            )
            worst_thread = volumes.max(axis=1).astype(np.float64)
            return worst_thread / per_thread_bw
        # shared FS: concurrency actively degrades throughput
        contention = 1.0 + self.machine.io_contention_alpha * (active - 1)
        return per_task_bytes * contention / bw_task

    # ------------------------------------------------------------------
    def project(self, work: RunWork) -> ProjectedTimes:
        m = self.machine
        p = work.n_tasks
        out = ProjectedTimes(machine=m.name, n_tasks=p)

        # --- KmerGen-I/O: redundant reads accumulate across passes.
        read_bw = m.task_io_read_bw(p)
        io = self._io_time(work.kmergen_io_bytes, read_bw, m.io_scales_with_nodes)
        out.per_task[StepNames.KMERGEN_IO] = io + work.n_passes * m.pass_overhead

        # --- KmerGen: FASTQ parsing + tuple generation.  A scanned-but-
        # discarded position (multipass range test) costs a fraction of an
        # emitted tuple: the shift/canonicalize work happens, the 12-byte
        # store does not.
        parse = self._thread_parallel_time(
            work.fastq_parse_bytes, m.fastq_parse_rate
        )
        scan_only = np.maximum(
            work.kmergen_positions_scanned - work.kmergen_tuples, 0
        )
        gen_volume = work.kmergen_tuples + (
            self.SCAN_COST_FRACTION * scan_only
        ).astype(np.int64)
        gen = self._thread_parallel_time(
            gen_volume, m.kmer_rate, bytes_touched=m.kmer_bytes_touched
        )
        out.per_task[StepNames.KMERGEN] = (
            parse + gen + work.n_passes * m.pass_overhead
        )

        # Under memory pressure (few passes => huge buffers) message volume
        # degrades; see MachineSpec.comm_memory_pressure_penalty.  The
        # section 3.7 model is taken at the paper's mean pass M/(S P).
        pressure = 1.0
        if p > 1:
            util = work.mean_pass_memory().total / m.memory_per_node
            floor = m.comm_pressure_floor
            pressure = 1.0 + m.comm_memory_pressure_penalty * max(
                0.0, util - floor
            ) / (1.0 - floor)

        # --- KmerGen-Comm: P synchronized stages per pass; each stage costs
        # its largest message (all links run concurrently).
        comm = np.zeros(p)
        if p > 1:
            for pass_idx, stage_maxes in enumerate(work.comm_stage_max_bytes):
                setup = (
                    m.comm_setup_first_pass
                    if pass_idx == 0
                    else m.comm_setup_next_pass
                )
                t_pass = setup + sum(
                    b * pressure / m.link_bw + m.link_latency
                    for b in stage_maxes
                    if b
                )
                comm += t_pass
        out.per_task[StepNames.KMERGEN_COMM] = comm

        # --- LocalSort: the paper's range partitioning + radix passes (the
        # machines model the paper's algorithm, not the substrate's one sort).
        part = self._thread_parallel_time(
            work.partition_tuples,
            m.partition_rate,
            bytes_touched=m.partition_bytes_touched,
        )
        # Radix pass cost splits into bucket bookkeeping (record-size
        # independent) and record movement (proportional to tuple bytes):
        # 20-byte two-limb tuples cost ~1.23x a 12-byte pass, which is what
        # makes k=63 LocalSort slower despite fewer tuples (Table 6).
        record_factor = (
            self.SORT_BOOKKEEPING_FRACTION
            + (1.0 - self.SORT_BOOKKEEPING_FRACTION) * work.tuple_bytes / 12.0
        )
        sort_volume = (work.sort_tuple_passes * record_factor).astype(np.int64)
        sort = self._thread_parallel_time(
            sort_volume, m.sort_rate, bytes_touched=m.sort_bytes_touched
        )
        out.per_task[StepNames.LOCALSORT] = part + sort

        # --- LocalCC(-Opt): pass-1 edges at base rate; later passes enjoy
        # the component-id locality speedup (section 3.5.1).  Union-find is
        # latency- not bandwidth-bound: no stream saturation.
        first = self._thread_parallel_time(
            work.cc_edges_first_pass, m.uf_rate, saturate=False
        )
        later = self._thread_parallel_time(
            work.cc_edges_later_passes,
            m.uf_rate * m.localcc_opt_speedup,
            saturate=False,
        )
        out.per_task[StepNames.LOCALCC] = first + later

        # --- Merge-Comm + MergeCC: sequential tree rounds; a task is busy
        # in a round only while sending/receiving (Figure 8's spread).
        # Component arrays are resident alongside the tuple buffers, so the
        # same memory-pressure factor applies to their transfer; the
        # receiver's fold parallelizes across a bounded thread count.
        merge_comm = np.zeros(p)
        merge_compute = np.zeros(p)
        if p > 1:
            per_send_t = (
                work.merge_bytes_per_send * pressure / m.link_bw
                + m.link_latency
            )
            merge_threads = min(work.n_threads, m.merge_parallel_max)
            per_merge_t = work.n_reads / (m.merge_rate * merge_threads)
            for pairs in work.merge_rounds:
                for sender, receiver in pairs:
                    merge_comm[sender] += per_send_t
                    merge_comm[receiver] += per_send_t
                    merge_compute[receiver] += per_merge_t
        out.per_task[StepNames.MERGE_COMM] = merge_comm
        out.per_task[StepNames.MERGECC] = merge_compute + (
            work.broadcast_bytes / m.link_bw if p > 1 else 0.0
        )

        # --- CC-I/O: partitioned FASTQ output.
        write_bw = m.task_io_write_bw(p)
        out.per_task[StepNames.CC_IO] = self._io_time(
            work.ccio_bytes, write_bw, m.io_scales_with_nodes
        )
        return out
