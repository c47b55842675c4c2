"""Shared fixtures for the METAPREP test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import build_dataset
from repro.seqio.records import FastqRecord, ReadBatch


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    return tmp_path_factory.mktemp("metaprep_data")


@pytest.fixture(scope="session")
def tiny_hg(data_root):
    """A ~300-pair HG analogue (cached for the whole session)."""
    return build_dataset("HG", data_root / "hg", seed=7, scale=0.12)


@pytest.fixture(scope="session")
def tiny_ll(data_root):
    return build_dataset("LL", data_root / "ll", seed=7, scale=0.10)


@pytest.fixture(scope="session")
def tiny_hg_batch(tiny_hg):
    """All reads of the tiny HG analogue as one batch with pair-shared ids."""
    from repro.seqio.fastq import read_fastq

    r1 = read_fastq(tiny_hg.r1_path)
    r2 = read_fastq(tiny_hg.r2_path)
    seqs, ids = [], []
    for i, (a, b) in enumerate(zip(r1, r2)):
        seqs.extend((a.sequence, b.sequence))
        ids.extend((i, i))
    return ReadBatch.from_sequences(seqs, ids)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_reads(
    rng: np.random.Generator,
    n: int,
    length: int = 40,
    alphabet: str = "ACGT",
    n_prob: float = 0.0,
) -> list:
    """Random read strings (helper importable from conftest)."""
    out = []
    for _ in range(n):
        chars = rng.choice(list(alphabet), size=length)
        if n_prob > 0:
            mask = rng.random(length) < n_prob
            chars[mask] = "N"
        out.append("".join(chars))
    return out


@pytest.fixture()
def small_batch(rng) -> ReadBatch:
    """12 random 40 bp reads, ids 0..11."""
    return ReadBatch.from_sequences(random_reads(rng, 12, 40))


def make_records(seqs):
    return [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(seqs)]
