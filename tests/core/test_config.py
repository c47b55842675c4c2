import pytest

from repro.core.config import PipelineConfig
from repro.kmers.filter import FrequencyFilter


class TestDefaults:
    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k == 27
        assert cfg.tuple_bytes == 12
        assert cfg.kmer_filter.is_identity
        assert cfg.machine == "edison"

    def test_k63_tuple_bytes(self):
        assert PipelineConfig(k=63).tuple_bytes == 20

    def test_resolved_chunks_default(self):
        cfg = PipelineConfig(n_tasks=2, n_threads=3)
        assert cfg.resolved_chunks() == 24
        assert cfg.total_slots == 6

    def test_explicit_chunks(self):
        cfg = PipelineConfig(n_tasks=2, n_threads=2, n_chunks=10)
        assert cfg.resolved_chunks() == 10


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "dead", [dict(sampling_seed=1), dict(verify_static_counts=False)]
    )
    def test_dead_knobs_are_not_fields(self, dead):
        """No run read ``sampling_seed``; ``verify_static_counts`` had one
        value in use — the driver-side aggregate check always runs."""
        with pytest.raises(TypeError):
            PipelineConfig(**dead)


class TestValidation:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=1)
        with pytest.raises(ValueError):
            PipelineConfig(k=64)

    def test_m_must_be_below_k(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=5, m=5)
        PipelineConfig(k=5, m=4)  # ok

    def test_chunks_must_cover_slots(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_tasks=4, n_threads=4, n_chunks=8)

    def test_passes_or_budget_required(self):
        with pytest.raises(ValueError, match="memory_budget"):
            PipelineConfig(n_passes=None)
        PipelineConfig(n_passes=None, memory_budget_per_task=10**9)  # ok

    def test_zero_passes_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(n_passes=0)

    def test_filter_accepted(self):
        cfg = PipelineConfig(kmer_filter=FrequencyFilter(10, 30))
        assert cfg.kmer_filter.describe() == "10 <= KF < 30"

    @pytest.mark.parametrize("budget", [0, -1, -(1 << 30)])
    def test_nonpositive_budget_rejected_with_fixed_passes(self, budget):
        """Regression: with n_passes set, a zero/negative budget used to
        pass validation silently (it still drives the spill schedule)."""
        with pytest.raises(ValueError, match="memory_budget_per_task"):
            PipelineConfig(n_passes=2, memory_budget_per_task=budget)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_nonpositive_budget_rejected_with_derived_passes(self, budget):
        with pytest.raises(ValueError, match="memory_budget_per_task"):
            PipelineConfig(n_passes=None, memory_budget_per_task=budget)


class TestSpillKnob:
    def test_default_is_auto(self):
        assert PipelineConfig().spill == "auto"
        assert PipelineConfig().spill_dir is None

    @pytest.mark.parametrize("mode", ["auto", "never", "always"])
    def test_valid_modes_accepted(self, mode):
        assert PipelineConfig(spill=mode).spill == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="spill"):
            PipelineConfig(spill="sometimes")

    def test_spill_fields_partition_irrelevant(self):
        """The spill knobs must never enter the partition fingerprint:
        spill and in-memory runs are bit-identical by contract."""
        from repro.core.checkpoint import (
            PARTITION_IRRELEVANT_FIELDS,
            config_payload,
        )

        assert "spill" in PARTITION_IRRELEVANT_FIELDS
        assert "spill_dir" in PARTITION_IRRELEVANT_FIELDS
        payload = config_payload(PipelineConfig())
        assert "spill" not in payload
        assert "spill_dir" not in payload
