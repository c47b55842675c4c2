import os

import pytest

from repro.datasets.registry import DATASETS, build_dataset
from repro.seqio.fastq import read_fastq


class TestRegistry:
    def test_table2_roster(self):
        assert set(DATASETS) == {"HG", "LL", "MM", "IS"}

    def test_size_ordering_follows_table2(self):
        """Table 2: HG < LL < MM < IS in read count."""
        sizes = [DATASETS[n].n_pairs for n in ("HG", "LL", "MM", "IS")]
        assert sizes == sorted(sizes)

    def test_mm_higher_coverage_than_ll(self):
        """MM is a mock community: fewer genomes, far deeper coverage."""
        mm, ll = DATASETS["MM"], DATASETS["LL"]
        mm_cov = mm.total_bases / (
            mm.community.n_species * mm.community.genome_length
        )
        ll_cov = ll.total_bases / (
            ll.community.n_species * ll.community.genome_length
        )
        assert mm_cov > 2 * ll_cov

    def test_is_most_diverse(self):
        assert DATASETS["IS"].community.n_species == max(
            d.community.n_species for d in DATASETS.values()
        )

    def test_scaled(self):
        spec = DATASETS["HG"].scaled(0.1)
        assert spec.n_pairs == DATASETS["HG"].n_pairs // 10
        with pytest.raises(ValueError):
            DATASETS["HG"].scaled(0)


class TestBuildDataset:
    def test_materializes_files(self, tiny_hg):
        assert os.path.exists(tiny_hg.r1_path)
        assert os.path.exists(tiny_hg.r2_path)
        assert len(read_fastq(tiny_hg.r1_path)) == tiny_hg.n_pairs
        assert len(read_fastq(tiny_hg.r2_path)) == tiny_hg.n_pairs

    def test_cached_on_second_call(self, tiny_hg, data_root):
        mtime = os.path.getmtime(tiny_hg.r1_path)
        again = build_dataset("HG", str(data_root) + "/hg", seed=7, scale=0.12)
        assert os.path.getmtime(again.r1_path) == mtime
        assert again.species_of_pair == tiny_hg.species_of_pair

    def test_ground_truth_species(self, tiny_hg):
        assert len(tiny_hg.species_of_pair) == tiny_hg.n_pairs
        assert max(tiny_hg.species_of_pair) < tiny_hg.community.n_species

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            build_dataset("XX", tmp_path)

    def test_different_seeds_different_data(self, tmp_path):
        a = build_dataset("HG", tmp_path, seed=1, scale=0.02)
        b = build_dataset("HG", tmp_path, seed=2, scale=0.02)
        sa = [r.sequence for r in read_fastq(a.r1_path)]
        sb = [r.sequence for r in read_fastq(b.r1_path)]
        assert sa != sb

    def test_units_paired(self, tiny_hg):
        assert len(tiny_hg.units) == 1
        assert tiny_hg.units[0].paired
        assert tiny_hg.file_bytes > 0
