"""Workload specs and the plumbing every workload shares: the scratch
directory, child processes, seeded inputs, the independent reference
partition, one timed ``metaprep run`` subprocess, output verification."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.baselines.ap_lb import shiloach_vishkin
from repro.core.config import PipelineConfig
from repro.datasets.registry import build_dataset
from repro.kmers.engine import enumerate_canonical_kmers
from repro.runtime.buffers import SEGMENT_PREFIX
from repro.seqio.fastq import read_fastq
from repro.seqio.records import ReadBatch

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SCRATCH_PARENT = ROOT / ".bench_scratch"

M_MER, N_TASKS, N_THREADS = 6, 2, 2
#: k-mer lengths of the service mix; x S in {1, 2} gives the 12 cold configs
SERVICE_KS = (21, 23, 25, 27, 29, 31)
#: --quick shrinks every dataset by this factor (self-test only)
QUICK_SCALE = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    scale: float
    k: int
    passes: int
    executor: str = "serial"
    spill: str = "never"
    service: bool = False
    warm: bool = False
    #: traced pass also isolates the kernels / runs the in-tree yardsticks
    kernels: bool = False
    yardsticks: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("mm_k27_s2_serial", "MM", 1.0, 27, 2, kernels=True, yardsticks=True),
    Workload("mm_k27_s2_process", "MM", 1.0, 27, 2, executor="process"),
    Workload("mm_k27_s2_dist", "MM", 1.0, 27, 2, executor="distributed"),
    Workload("mm_k27_s8_spill", "MM", 1.0, 27, 8, spill="always"),
    Workload("ll_k63_s1_serial", "LL", 2.0, 63, 1, kernels=True),
    Workload("svc_gateway_cold", "HG", 0.5, 27, 2, service=True),
    Workload("svc_gateway_warm", "HG", 0.5, 27, 2, service=True, warm=True),
)}


def pipeline_config(wl: Workload, **overrides):
    kw = dict(k=wl.k, m=M_MER, n_tasks=N_TASKS, n_threads=N_THREADS,
              n_passes=wl.passes, spill=wl.spill)
    kw.update(overrides)
    return PipelineConfig(**kw)


@dataclass
class Context:
    """One workload invocation: scratch space, children, the check tally."""

    workload: Workload
    seed: int
    quick: bool = False
    scratch: Path = None
    attempted: int = 0
    failed: int = 0
    children: list = field(default_factory=list)
    _shm_before: set = field(default_factory=set)
    _tmpdir_before: str | None = None

    def __enter__(self) -> "Context":
        adopt_orphans()
        SCRATCH_PARENT.mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
        # everything the pipeline, the clients and the daemons put in "the
        # system temp dir" (spill, telemetry spools, result downloads)
        # must land under the scratch directory as well
        self._tmpdir_before = os.environ.get("TMPDIR")
        os.environ["TMPDIR"] = str(self.scratch)
        tempfile.tempdir = None
        self._shm_before = _shm_segments()
        return self

    def __exit__(self, *exc) -> None:
        try:
            for proc in list(self.children):
                self.stop(proc)
            reap_descendants(timeout=5.0)
        finally:
            if self._tmpdir_before is None:
                del os.environ["TMPDIR"]
            else:
                os.environ["TMPDIR"] = self._tmpdir_before
            tempfile.tempdir = None
            shutil.rmtree(self.scratch, ignore_errors=True)
            try:
                SCRATCH_PARENT.rmdir()
            except OSError:
                pass  # a concurrent invocation still has its scratch there

    @property
    def scale(self) -> float:
        return self.workload.scale * (QUICK_SCALE if self.quick else 1.0)

    def env(self) -> dict:
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return dict(os.environ, PYTHONPATH=path, TMPDIR=str(self.scratch))

    def check(self, what: str, ok: bool) -> bool:
        """Tally one operation or verification; a failure is reported and
        counted, never raised, so one bad repetition cannot hide the rest."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED [{self.workload.name}] {what}", file=sys.stderr)
        return bool(ok)

    # -- child processes ------------------------------------------------
    def spawn_daemon(self, verb: str, *args: str) -> tuple[subprocess.Popen, str]:
        """Start ``metaprep <verb> --port 0 ...``; returns (process,
        announced host:port)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", verb, "--port", "0", *args],
            stdout=subprocess.PIPE, text=True, env=self.env(), cwd=self.scratch,
        )
        self.children.append(proc)
        line = proc.stdout.readline().strip()
        prefix = f"metaprep {verb} listening on "
        if not line.startswith(prefix):
            raise RuntimeError(f"metaprep {verb} did not announce: {line!r}")
        return proc, line[len(prefix):]

    def stop(self, proc: subprocess.Popen) -> None:
        """Terminate and reap a child."""
        if proc in self.children:
            self.children.remove(proc)
        if proc.stdout is not None:
            proc.stdout.close()
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def assert_no_residue(self) -> None:
        self.check("every child process reaped", not self.children)
        self.check("every descendant process ended on its own", reap_descendants())
        leaked = _shm_segments() - self._shm_before
        self.check(f"no leftover /dev/shm segment {sorted(leaked)}", not leaked)


def adopt_orphans() -> None:
    """Make this process the subreaper of its descendants.  A finished
    ``metaprep run --executor process`` leaves its multiprocessing resource
    tracker to notice the closed pipe and exit a moment later; orphans go
    to the nearest subreaper, so they come here to be waited for instead of
    to a pid 1 that may never reap them."""
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants(timeout: float = 30.0) -> bool:
    """Wait until this process has no child left, adopted orphans and its
    own resource tracker included.  Call only when every ``Popen`` has been
    waited for.  Returns False if some had to be killed after ``timeout``."""
    resource_tracker._resource_tracker._stop()  # ends at once; restarts on demand
    deadline, clean = time.monotonic() + timeout, True
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return clean
        if pid == 0:
            if time.monotonic() > deadline:
                clean = False
                for child in _children_of(os.getpid()):
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.01)


def _children_of(parent: int) -> list:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError):
                continue  # ended while we looked
            if ppid == parent:
                found.append(int(entry))
    return found


def peak_rss_mb(pid: int) -> float:
    """A live daemon's own high-water RSS (``VmHWM`` restarts at exec, unlike
    ``ru_maxrss`` — see ``launch.py``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    return 0.0


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# inputs and the reference partition
# ----------------------------------------------------------------------
def make_dataset(ctx: Context):
    return build_dataset(ctx.workload.dataset, ctx.scratch / "data",
                         seed=ctx.seed, scale=ctx.scale)


def canonical(labels: np.ndarray) -> np.ndarray:
    """Relabel each component by its smallest read id: two label arrays
    are the same set partition iff their canonical forms are equal."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


@dataclass
class Reference:
    """What a correct run must produce for one (dataset, k)."""

    labels: np.ndarray  # canonical
    n_tuples: int
    headers: dict  # FASTQ header line -> read id


def reference_partition(ds, k: int) -> Reference:
    """Ground truth that shares only seqio + k-mer enumeration with the
    pipeline: whole-array stable sort, consecutive-equal-k-mer edges, and
    the Shiloach-Vishkin baseline for connectivity."""
    mates = [read_fastq(ds.r1_path), read_fastq(ds.r2_path)]
    seqs, ids, headers = [], [], {}
    for i, pair in enumerate(zip(*mates)):
        for rec in pair:
            seqs.append(rec.sequence)
            ids.append(i)
            headers[rec.name] = i
    tuples = enumerate_canonical_kmers(ReadBatch.from_sequences(seqs, read_ids=ids), k)
    kmers = tuples.kmers
    if kmers.hi is None:
        order = np.argsort(kmers.lo, kind="stable")
        same = kmers.lo[order][1:] == kmers.lo[order][:-1]
    else:
        order = np.lexsort((kmers.lo, kmers.hi))
        same = (kmers.lo[order][1:] == kmers.lo[order][:-1]) & (
            kmers.hi[order][1:] == kmers.hi[order][:-1])
    by_kmer = tuples.read_ids[order].astype(np.int64)
    labels, _ = shiloach_vishkin(len(mates[0]), by_kmer[:-1][same], by_kmer[1:][same])
    return Reference(canonical(labels), len(tuples), headers)


# ----------------------------------------------------------------------
# one timed `metaprep run`
# ----------------------------------------------------------------------
@dataclass
class CliRun:
    wall_s: float
    rss_mb: float
    cpu_s: float
    ok: bool


def run_cli(ctx: Context, ds, out_dir: Path, executor: str | None = None,
            workers: tuple = ()) -> CliRun:
    """A fresh ``python -m repro.cli run`` reaped with wait4 (by
    ``launch.py``): wall from before the fork to after the exit, rusage of
    the process tree."""
    wl = ctx.workload
    executor = executor or wl.executor
    argv = [sys.executable, "-m", "repro.cli", "run",
            "--r1", ds.r1_path, "--r2", ds.r2_path, "--out", str(out_dir),
            "--k", str(wl.k), "--m", str(M_MER), "--tasks", str(N_TASKS),
            "--threads", str(N_THREADS), "--passes", str(wl.passes),
            "--spill", wl.spill, "--spill-dir", str(ctx.scratch),
            "--executor", executor]
    if executor == "process":
        argv += ["--workers", str(N_TASKS)]
    for address in workers if executor == "distributed" else ():
        argv += ["--worker", address]
    log = ctx.scratch / "cli.log"
    launched = subprocess.run(
        [sys.executable, "-S", str(Path(__file__).with_name("launch.py")), str(log), *argv],
        stdout=subprocess.PIPE, env=ctx.env(), cwd=ctx.scratch, check=True)
    report = json.loads(launched.stdout)
    if report["status"] != 0:
        print(log.read_text()[-2000:], file=sys.stderr)
    return CliRun(report["wall_s"], report["rss_mb"], report["cpu_s"],
                  report["status"] == 0)


def hash_dir(directory: Path) -> str:
    """sha256 over the directory's files in name order (names + bytes)."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def outputs_match_reference(out_dir: Path, ref: Reference) -> bool:
    """The lc_* files hold both mates of exactly one largest reference
    component, the other_* files both mates of every remaining read."""
    n = len(ref.labels)
    seen = {}
    for prefix in ("lc", "other"):
        ids = []
        for path in sorted(Path(out_dir).glob(f"{prefix}_*.fastq")):
            with open(path) as fh:
                for lineno, line in enumerate(fh):
                    if lineno % 4 == 0:
                        ids.append(ref.headers.get(line[1:].rstrip("\n"), n))
        seen[prefix] = np.bincount(np.asarray(ids, dtype=np.int64), minlength=n + 1)
    if seen["lc"][n] or seen["other"][n]:
        return False  # a header the input never had
    in_lc = seen["lc"][:n] > 0
    lc_labels = np.unique(ref.labels[in_lc])
    sizes = np.bincount(ref.labels)
    return bool(
        len(lc_labels) == 1
        and sizes[lc_labels[0]] == sizes.max()
        and np.array_equal(in_lc, ref.labels == lc_labels[0])
        and np.array_equal(seen["lc"][:n], 2 * in_lc)
        and np.array_equal(seen["other"][:n], 2 * ~in_lc)
    )
