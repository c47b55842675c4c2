"""Acceptance: ``metaprep check`` on the real tree, on deliberately
broken copies of it, and the fingerprint split the checker no longer
re-proves statically."""

import shutil
from pathlib import Path

from repro.analysis.runner import run_checks
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def broken_copy(tmp_path: Path) -> Path:
    """Copy the real ``src/repro`` tree into a scratch root."""
    root = tmp_path / "checkout"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        root / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


class TestRealTreeIsClean:
    def test_strict_run_is_green(self):
        report = run_checks(REPO_ROOT)
        assert report.ok, [f.format() for f in report.new]

    def test_cli_strict_exit_zero(self, capsys):
        rc = cli_main(["check", "--root", str(REPO_ROOT), "--strict"])
        assert rc == 0
        assert "0 new" in capsys.readouterr().out


class TestBrokenInvariantsGate:
    def test_unseeded_rng_in_localcc_trips_mp202(self, tmp_path, capsys):
        root = broken_copy(tmp_path)
        localcc = root / "src" / "repro" / "cc" / "localcc.py"
        localcc.write_text(
            localcc.read_text()
            + "\n\ndef _jitter():\n"
            + "    return np.random.default_rng().random()\n"
        )

        report = run_checks(root)
        assert any(
            f.rule == "MP202" and f.path == "src/repro/cc/localcc.py"
            for f in report.new
        )
        rc = cli_main(["check", "--root", str(root), "--strict"])
        assert rc == 1
        assert "MP202" in capsys.readouterr().out

    def test_wall_clock_in_runtime_helper_trips_mp201(self, tmp_path, capsys):
        # runtime/ is outside the result-affecting scopes, but every module
        # outside the service layer is inside MP201's
        root = broken_copy(tmp_path)
        helper = root / "src" / "repro" / "runtime" / "stamp.py"
        helper.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")

        report = run_checks(root)
        assert [(f.rule, f.path) for f in report.new] == [
            ("MP201", "src/repro/runtime/stamp.py")
        ]
        rc = cli_main(["check", "--root", str(root), "--strict"])
        assert rc == 1
        assert "MP201" in capsys.readouterr().out


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
