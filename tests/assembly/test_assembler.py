import pytest

from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.seqio.alphabet import reverse_complement
from repro.seqio.records import ReadBatch
from repro.util.rng import rng_for


def assemble(batch, **config):
    return MiniAssembler(AssemblyConfig(**config)).assemble_batch(batch)


def simulate_reads(genome, read_len=40, step=5):
    return [genome[i : i + read_len] for i in range(0, len(genome) - read_len + 1, step)]


@pytest.fixture(scope="module")
def genome():
    rng = rng_for(55, "assembler-genome")
    return "".join(rng.choice(list("ACGT"), size=600))


class TestAssembleReads:
    def test_high_coverage_recovers_genome(self, genome):
        reads = simulate_reads(genome)
        batch = ReadBatch.from_sequences(reads * 2)  # coverage for min_count=2
        result = assemble(batch, k=20, min_count=2, min_contig_length=63)
        assert result.stats.n_contigs == 1
        contig = result.contigs[0]
        assert contig in (genome, reverse_complement(genome))
        assert result.stats.max_bp == len(genome)

    def test_min_count_removes_error_kmers(self, genome):
        reads = simulate_reads(genome) * 2
        # inject a read with an error in the middle
        bad = genome[100:140]
        bad = bad[:20] + ("A" if bad[20] != "A" else "C") + bad[21:]
        batch = ReadBatch.from_sequences(reads + [bad])
        result = assemble(batch, k=20, min_count=2, min_contig_length=63)
        assert result.stats.n_contigs == 1  # the error k-mers are pruned

    def test_no_filter_error_breaks_assembly(self, genome):
        reads = simulate_reads(genome) * 2
        bad = genome[100:140]
        bad = bad[:20] + ("A" if bad[20] != "A" else "C") + bad[21:]
        batch = ReadBatch.from_sequences(reads + [bad])
        dirty = assemble(batch, k=20, min_count=1, min_contig_length=0)
        clean = assemble(batch, k=20, min_count=2, min_contig_length=0)
        assert dirty.stats.n_contigs > clean.stats.n_contigs

    def test_runtime_grows_with_input(self, genome):
        small = ReadBatch.from_sequences(simulate_reads(genome)[:20] * 2)
        big = ReadBatch.from_sequences(simulate_reads(genome) * 8)
        rs = assemble(small, k=16)
        rb = assemble(big, k=16)
        assert rb.n_reads > rs.n_reads
        assert rb.seconds >= 0 and rs.seconds >= 0

    def test_empty_input(self):
        result = assemble(ReadBatch.from_sequences(["ACG"]), k=16)
        assert result.contigs == []
        assert result.stats.n_contigs == 0


class TestAssembleFiles:
    def test_from_fastq(self, genome, tmp_path):
        from repro.seqio.fastq import write_fastq
        from repro.seqio.records import FastqRecord

        reads = simulate_reads(genome) * 2
        path = tmp_path / "reads.fastq"
        write_fastq(
            path,
            [FastqRecord(f"r{i}", s, "I" * len(s)) for i, s in enumerate(reads)],
        )
        result = MiniAssembler(AssemblyConfig(k=20)).assemble_files([str(path)])
        assert result.stats.n_contigs == 1

    def test_empty_file_list_result(self, tmp_path):
        p = tmp_path / "empty.fastq"
        p.write_text("")
        result = MiniAssembler().assemble_files([str(p)])
        assert result.empty


class TestMultiK:
    def test_multi_k_runs_rounds(self, genome):
        reads = simulate_reads(genome, read_len=40, step=3) * 2
        batch = ReadBatch.from_sequences(reads)
        cfg = AssemblyConfig(k=20, k_list=(14, 20), min_contig_length=63)
        result = MiniAssembler(cfg).assemble_batch(batch)
        assert len(result.rounds) == 2
        assert result.stats.n_contigs >= 1

    def test_multi_k_no_worse_than_final_k(self, genome):
        """Feeding round-1 contigs forward cannot lose covered bases."""
        reads = simulate_reads(genome, read_len=35, step=6) * 2
        batch = ReadBatch.from_sequences(reads)
        single = MiniAssembler(AssemblyConfig(k=20, min_contig_length=0)).assemble_batch(batch)
        multi = MiniAssembler(
            AssemblyConfig(k=20, k_list=(14, 20), min_contig_length=0)
        ).assemble_batch(batch)
        assert multi.stats.total_bp >= 0.9 * single.stats.total_bp

    def test_k_list_must_increase(self):
        with pytest.raises(ValueError):
            AssemblyConfig(k_list=(20, 14))


class TestConfigValidation:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            AssemblyConfig(k=33)

    def test_min_count_positive(self):
        with pytest.raises(ValueError):
            AssemblyConfig(min_count=0)
