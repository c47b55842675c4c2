"""Simulated cluster runtime.

The paper runs METAPREP with MPI across nodes and OpenMP within a node on
NERSC Edison and the Penn State Ganga cluster.  This package replaces the
physical machines with a deterministic simulation:

* the *algorithm* executes for real, decomposed into P tasks x T threads
  exactly as the paper prescribes (same chunk assignment, same k-mer
  ranges, same message schedule) and produces bit-identical results to a
  sequential run;
* every step records its **work volumes** (bytes read, tuples produced,
  messages sent, edges unioned, bytes written) per task and thread;
* a calibrated :class:`~repro.runtime.timing.TimingModel` projects those
  volumes onto a named :class:`~repro.runtime.machines.MachineSpec`
  (Edison, Ganga), reproducing the *shape* of the paper's scaling figures
  — load imbalance, communication overhead, multipass trade-offs and
  crossovers all derive from measured volumes, not fitted curves;
* a pluggable :mod:`~repro.runtime.executor` backend optionally runs the
  decomposed work units on a real multiprocessing pool
  (``executor="process"``), bit-identical to the serial reference engine.
"""

from repro.runtime.executor import (
    ENGINES,
    EXECUTOR_NAMES,
    DistributedExecutor,
    ExecutionBackend,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    available_cpu_count,
    create_engine,
)
from repro.runtime.machines import MachineSpec, EDISON, GANGA, get_machine
from repro.runtime.buffers import (
    BlockDescriptor,
    BufferPool,
    HeapBufferPool,
    SharedMemoryBufferPool,
    TupleBlock,
    attach_block,
    open_block,
)
from repro.runtime.comm import (
    AllToAllStats,
    block_exchange_stats,
    all_to_all_schedule,
)
from repro.runtime.transport import (
    TRANSPORT_NAMES,
    BlockTransport,
    DiskBlockTransport,
    PoolBlockTransport,
    SocketBlockRef,
    SocketBlockTransport,
    TransportClosed,
    TransportCorruption,
    TransportError,
    create_block_transport,
)
from repro.runtime.work import RunWork, StepNames
from repro.runtime.timing import TimingModel, ProjectedTimes

__all__ = [
    "ENGINES",
    "EXECUTOR_NAMES",
    "DistributedExecutor",
    "ExecutionBackend",
    "ExecutorError",
    "ProcessExecutor",
    "SerialExecutor",
    "available_cpu_count",
    "create_engine",
    "TRANSPORT_NAMES",
    "BlockTransport",
    "DiskBlockTransport",
    "PoolBlockTransport",
    "SocketBlockRef",
    "SocketBlockTransport",
    "TransportClosed",
    "TransportCorruption",
    "TransportError",
    "create_block_transport",
    "MachineSpec",
    "EDISON",
    "GANGA",
    "get_machine",
    "BlockDescriptor",
    "BufferPool",
    "HeapBufferPool",
    "SharedMemoryBufferPool",
    "TupleBlock",
    "attach_block",
    "open_block",
    "AllToAllStats",
    "block_exchange_stats",
    "all_to_all_schedule",
    "RunWork",
    "StepNames",
    "TimingModel",
    "ProjectedTimes",
]
