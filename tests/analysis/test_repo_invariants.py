"""Acceptance: ``metaprep check`` on the real tree, and on deliberately
broken copies of it (the ISSUE's three sabotage scenarios)."""

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
    def test_removed_payload_field_trips_mp101(self, tmp_path, capsys):
        root = broken_copy(tmp_path)
        checkpoint = root / "src" / "repro" / "core" / "checkpoint.py"
        text = checkpoint.read_text()
        assert '"m": config.m,' in text
        checkpoint.write_text(text.replace('"m": config.m,\n        ', ""))

        report = run_checks(root)
        assert {"MP101", "MP104"} <= {f.rule for f in report.new}
        assert any(
            f.rule == "MP101" and "PipelineConfig.m" in f.message
            for f in report.new
        )
        rc = cli_main(["check", "--root", str(root), "--strict"])
        assert rc == 1
        assert "MP101" in capsys.readouterr().out

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

    def test_lambda_submission_trips_mp301(self, tmp_path, capsys):
        root = broken_copy(tmp_path)
        pipeline = root / "src" / "repro" / "core" / "pipeline.py"
        pipeline.write_text(
            pipeline.read_text()
            + "\n\ndef _broken(executor, jobs):\n"
            + "    return executor.map(lambda job: job, jobs)\n"
        )

        report = run_checks(root)
        assert any(
            f.rule == "MP301" and f.path == "src/repro/core/pipeline.py"
            for f in report.new
        )
        rc = cli_main(["check", "--root", str(root), "--strict"])
        assert rc == 1
        assert "MP301" in capsys.readouterr().out


class TestInterproceduralSabotage:
    """The ISSUE-8 acceptance scenarios: hazards only the call-graph
    engine can see, with matching pass fixtures proving the clean
    variants stay clean."""

    def test_helper_global_write_trips_transitive_mp302(self, tmp_path, capsys):
        # the job function is pure; the helper it calls writes a module
        # global — invisible to the per-site scan
        root = broken_copy(tmp_path)
        pipeline = root / "src" / "repro" / "core" / "pipeline.py"
        pipeline.write_text(
            pipeline.read_text()
            + "\n\n_SAB_COUNTER = {}\n"
            + "\n\ndef _sab_helper_bump(key):\n"
            + '    _SAB_COUNTER[key] = _SAB_COUNTER.get(key, 0) + 1\n'
            + "\n\ndef _sab_job(x):\n"
            + '    _sab_helper_bump("jobs")\n'
            + "    return x * 2\n"
            + "\n\ndef _sab_drive(executor, jobs):\n"
            + "    return list(executor.map(_sab_job, jobs))\n"
        )

        report = run_checks(root)
        trips = [f for f in report.new if f.rule == "MP302"]
        assert trips, [f.format() for f in report.new]
        assert any(
            "_sab_job -> _sab_helper_bump" in f.message for f in trips
        )
        rc = cli_main(["check", "--root", str(root), "--strict"])
        assert rc == 1
        assert "MP302" in capsys.readouterr().out

    def test_pure_helper_chain_stays_clean(self, tmp_path):
        root = broken_copy(tmp_path)
        pipeline = root / "src" / "repro" / "core" / "pipeline.py"
        pipeline.write_text(
            pipeline.read_text()
            + "\n\ndef _sab_helper_double(x):\n"
            + "    return x * 2\n"
            + "\n\ndef _sab_job(x):\n"
            + "    return _sab_helper_double(x)\n"
            + "\n\ndef _sab_drive(executor, jobs):\n"
            + "    return list(executor.map(_sab_job, jobs))\n"
        )
        report = run_checks(root)
        assert report.ok, [f.format() for f in report.new]


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
