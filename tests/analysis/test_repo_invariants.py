"""The hazard scan over the live tree and over deliberately broken copies
of it, and the fingerprint split no scan re-proves statically."""

from tests.analysis.hazards import package_files, scan


class TestRealTreeIsClean:
    def test_strict_run_is_green(self):
        assert scan(package_files()) == []


class TestBrokenInvariantsGate:
    def test_unseeded_rng_in_localcc_trips_mp202(self):
        files = package_files()
        files["cc/localcc.py"] += (
            "\n\ndef _jitter():\n    return np.random.default_rng().random()\n"
        )
        assert [(path, rule) for path, _, rule in scan(files)] == [
            ("cc/localcc.py", "MP202")
        ]

    def test_wall_clock_in_runtime_helper_trips_mp201(self):
        # runtime/ is outside the result-affecting scopes, but every module
        # outside the service layer is inside MP201's
        files = package_files()
        files["runtime/stamp.py"] = (
            "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        assert [(path, rule) for path, _, rule in scan(files)] == [
            ("runtime/stamp.py", "MP201")
        ]


class TestSamplingSeedFingerprinted:
    """A field that changes what a run computes rides in the payload and
    moves the fingerprint (``localcc_opt`` is the example); a field no run
    reads is not a field at all."""

    def test_seed_in_config_payload(self):
        from repro.core.checkpoint import config_payload
        from repro.core.config import PipelineConfig

        payload = config_payload(PipelineConfig(localcc_opt=False))
        assert payload["localcc_opt"] is False
        assert "sampling_seed" not in payload

    def test_seed_changes_fingerprint(self):
        from repro.core.checkpoint import config_payload, payload_fingerprint
        from repro.core.config import PipelineConfig

        a = payload_fingerprint(config_payload(PipelineConfig(localcc_opt=True)))
        b = payload_fingerprint(config_payload(PipelineConfig(localcc_opt=False)))
        assert a != b

    def test_every_field_classified(self):
        """Every ``PipelineConfig`` field is fingerprinted or declared
        partition-irrelevant, never both: a field added without either
        would let two different runs share one artifact key."""
        import dataclasses

        from repro.core.checkpoint import (
            PARTITION_IRRELEVANT_FIELDS,
            config_payload,
        )
        from repro.core.config import PipelineConfig

        config = PipelineConfig()
        fields = {f.name for f in dataclasses.fields(PipelineConfig)}
        payload_keys = set(config_payload(config))
        assert payload_keys | PARTITION_IRRELEVANT_FIELDS == fields
        assert payload_keys & PARTITION_IRRELEVANT_FIELDS == set()
