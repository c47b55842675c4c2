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
