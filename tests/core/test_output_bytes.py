"""What CC-I/O writes, byte for byte.

The partition files hold the input records' own bytes, and the run path
(IndexCreate, KmerGen, CC-I/O) never builds a ``FastqRecord``.  The sha256
pins were recorded before the chunk reader and the partition writer moved
onto the vectorised record scanner; any change to them is a change in
output bytes.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.seqio.records import FastqRecord


def _hash_dir(directory: Path) -> str:
    """sha256 over the directory's files in name order (names + bytes)."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def test_run_path_builds_no_fastq_record(tiny_hg, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("the run path built a FastqRecord")

    monkeypatch.setattr(FastqRecord, "__post_init__", refuse)
    cfg = PipelineConfig(k=27, m=5, n_tasks=2, n_threads=2, n_passes=2)
    res = MetaPrep(cfg).run(tiny_hg.units, output_dir=tmp_path)
    written = res.partition.lc_reads_written + res.partition.other_reads_written
    assert written == 2 * tiny_hg.n_pairs


#: (fixture, k, passes) -> (output-directory sha256, FASTQPart table sha256)
PINS = {
    ("tiny_hg", 27, 2): (
        "f761d927c09b6ffed0551c6ba22579c7040f31b1d85d4c64e140c1a9cf2ab598",
        "aceeaedb6d269b6c24ead8379d5e2fc1bf7950fa994099ee854de473b7e5c340",
    ),
    ("tiny_ll", 63, 1): (
        "23ff32f98b113643b9b9f12718051657c35c7a56a8939d388b3383f92dd5fdca",
        "af8ee75c17284ba50289370204d6628dfa7abfb8b46a5859224d377fe3db0b3b",
    ),
}


@pytest.mark.parametrize("fixture, k, passes", sorted(PINS))
def test_run_output_and_table_bytes_pinned(
    request, fixture, k, passes, tmp_path, monkeypatch, capsys
):
    ds = request.getfixturevalue(fixture)
    # relative input names keep the table's unit paths, and so its bytes,
    # independent of where the session's datasets live
    monkeypatch.chdir(Path(ds.r1_path).parent)
    r1, r2 = Path(ds.r1_path).name, Path(ds.r2_path).name
    out = tmp_path / "out"
    rc = main([
        "run", "--r1", r1, "--r2", r2, "--k", str(k), "--m", "5",
        "--tasks", "2", "--threads", "2", "--passes", str(passes),
        "--out", str(out),
    ])
    assert rc == 0
    index = index_create([(r1, r2)], k=k, m=5, n_chunks=8, output_dir=tmp_path)
    table_hash = hashlib.sha256(
        Path(index.fastqpart_path).read_bytes()
    ).hexdigest()
    assert (_hash_dir(out), table_hash) == PINS[(fixture, k, passes)]


def test_unusual_records_written_back_verbatim(tmp_path):
    """Lowercase bases, IUPAC letters and a repeated name on the ``+``
    line reach the partition files exactly as they were read."""
    records = [
        b"@low\nacgtacgtacgtacgtac\n+\nIIIIIIIIIIIIIIIIII\n",
        b"@iupac\nACGTRYACGTACGTACGT\n+iupac\nIIIII#IIIIIIIIIIII\n",
        b"@plain\nACGTACGTACGTACGTAC\n+\nIIIIIIIIIIIIIIIIII\n",
        b"@other\nTTTTGGGGTTTTGGGGTT\n+other\n!!!!!!!!!!!!!!!!!!\n",
    ]
    src = tmp_path / "in.fastq"
    src.write_bytes(b"".join(records))
    out = tmp_path / "out"
    cfg = PipelineConfig(k=5, m=2, n_tasks=1, n_threads=2, n_chunks=2)
    MetaPrep(cfg).run([str(src)], output_dir=out)
    written = b"".join(p.read_bytes() for p in sorted(out.iterdir()))
    assert len(written) == len(b"".join(records))
    for rec in records:
        assert rec in written
