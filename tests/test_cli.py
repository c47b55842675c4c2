import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

#: what a serial, in-memory run must not import: the process pool, the
#: test-only graph library, and the k-mer tools only other verbs use
SERIAL_RUN_NEVER_IMPORTS = {
    "multiprocessing",
    "concurrent.futures",
    "networkx",
    "repro.kmers.counter",
    "repro.kmers.minimizers",
    "repro.kmers.normalization",
    "repro.kmers.spectrum_analysis",
    "repro.seqio.fasta",
    "selectors",
    "socket",
}


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ["dataset", "index", "run", "assemble"]:
            args = {
                "dataset": ["dataset", "--list"],
                "index": ["index", "--r1", "x.fastq"],
                "run": ["run", "--r1", "x.fastq"],
                "assemble": ["assemble", "--fastq", "x.fastq"],
            }[cmd]
            ns = parser.parse_args(args)
            assert ns.command == cmd

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDatasetCommand:
    def test_list(self, capsys):
        assert main(["dataset", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("HG", "LL", "MM", "IS"):
            assert name in out

    def test_build(self, tmp_path, capsys):
        rc = main(
            ["dataset", "--name", "HG", "--workdir", str(tmp_path), "--scale", "0.02"]
        )
        assert rc == 0
        assert "built HG" in capsys.readouterr().out


class TestIndexAndRun:
    @pytest.fixture()
    def files(self, tiny_hg):
        return tiny_hg.r1_path, tiny_hg.r2_path

    def test_index(self, files, tmp_path, capsys):
        r1, r2 = files
        rc = main(
            [
                "index",
                "--r1", r1, "--r2", r2,
                "--k", "27", "--m", "5", "--chunks", "4",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "IndexCreate" in out
        assert "tables:" in out

    def test_run_without_output(self, files, capsys):
        r1, r2 = files
        rc = main(
            [
                "run",
                "--r1", r1, "--r2", r2,
                "--k", "27", "--m", "5",
                "--tasks", "2", "--threads", "2", "--passes", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "largest component" in out
        assert "projected step times" in out

    def test_run_budget_too_small_is_one_line(self, files, capsys):
        """A budget no pass count fits is a usage error, not a traceback."""
        r1, r2 = files
        rc = main(
            [
                "run",
                "--r1", r1, "--r2", r2,
                "--k", "27", "--m", "5",
                "--tasks", "2", "--threads", "2", "--budget-mb", "0.01",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("metaprep run: no pass count up to 64 fits")
        assert "alone take" in lines[0]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tasks", "0"], "n_tasks must be positive, got 0"),
            (["--k", "70"], "k must be in [2, 63], got 70"),
            (["--filter", "bogus"], "bogus"),
        ],
        ids=["tasks", "k", "filter"],
    )
    def test_run_config_error_is_one_line(self, files, capsys, flags, message):
        """An option value the config rejects is a usage error, not a
        traceback."""
        r1, r2 = files
        rc = main(["run", "--r1", r1, "--r2", r2, "--m", "5", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("metaprep run: ")
        assert message in lines[0]

    def test_serial_run_module_set(self, files, tmp_path):
        """A serial, non-spill ``metaprep run`` in a fresh interpreter
        loads neither the process pool nor any module it does not use."""
        r1, r2 = files
        script = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "rc = main(sys.argv[2:])\n"
            "json.dump({'rc': rc, 'modules': sorted(sys.modules)}, open(sys.argv[1], 'w'))\n"
        )
        report = tmp_path / "modules.json"
        args = ["run", "--r1", r1, "--r2", r2, "--k", "27", "--m", "5", "--passes", "2"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run(
            [sys.executable, "-c", script, str(report), *args],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        loaded = json.loads(report.read_text())
        assert loaded["rc"] == 0
        assert "repro.core.pipeline" in loaded["modules"]
        assert sorted(SERIAL_RUN_NEVER_IMPORTS & set(loaded["modules"])) == []

    def test_run_executor_flags_parsed(self):
        ns = build_parser().parse_args(
            ["run", "--r1", "x.fastq", "--executor", "process", "--workers", "3"]
        )
        assert ns.executor == "process"
        assert ns.workers == 3
        # defaults
        ns = build_parser().parse_args(["run", "--r1", "x.fastq"])
        assert ns.executor == "serial"
        assert ns.workers is None

    def test_run_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--r1", "x.fastq", "--executor", "mpi"]
            )

    def test_run_with_process_executor(self, files, capsys):
        r1, r2 = files
        rc = main(
            [
                "run",
                "--r1", r1, "--r2", r2,
                "--k", "27", "--m", "5",
                "--tasks", "2", "--threads", "2",
                "--executor", "process", "--workers", "2",
            ]
        )
        assert rc == 0
        assert "largest component" in capsys.readouterr().out

    def test_run_with_filter_and_output(self, files, tmp_path, capsys):
        r1, r2 = files
        rc = main(
            [
                "run",
                "--r1", r1, "--r2", r2,
                "--k", "27", "--m", "5",
                "--filter", "<15",
                "--out", str(tmp_path / "parts"),
            ]
        )
        assert rc == 0
        assert "partitions written" in capsys.readouterr().out

    def test_spectrum(self, files, capsys):
        r1, r2 = files
        rc = main(["spectrum", "--fastq", r1, r2, "--k", "17"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coverage peak" in out
        assert "suggested --filter" in out

    def test_normalize(self, files, tmp_path, capsys):
        r1, _ = files
        out_path = tmp_path / "norm.fastq"
        rc = main(
            [
                "normalize",
                "--fastq", r1,
                "--k", "17", "--coverage", "5",
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        assert "kept" in capsys.readouterr().out
        assert out_path.exists()

    def test_calibrate(self, capsys):
        rc = main(["calibrate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kmer_rate" in out
        assert "model" in out

    def test_assemble(self, files, tmp_path, capsys):
        r1, r2 = files
        rc = main(
            [
                "assemble",
                "--fastq", r1, r2,
                "--k", "20",
                "--out", str(tmp_path / "contigs.fasta"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "contigs" in out
        assert (tmp_path / "contigs.fasta").exists()


class TestServiceVerbs:
    def test_parsers(self):
        parser = build_parser()
        ns = parser.parse_args(["serve", "--spool", "/tmp/s", "--once"])
        assert ns.command == "serve" and ns.once
        ns = parser.parse_args(
            ["submit", "--spool", "/tmp/s", "--r1", "x.fastq", "--wait", "30"]
        )
        assert ns.command == "submit" and ns.wait == 30.0
        ns = parser.parse_args(["status", "--spool", "/tmp/s"])
        assert ns.command == "status" and ns.job is None
        ns = parser.parse_args(["result", "--spool", "/tmp/s", "--job", "j-1"])
        assert ns.command == "result" and ns.job == "j-1"
        ns = parser.parse_args(["cancel", "--spool", "/tmp/s", "--job", "j-1"])
        assert ns.command == "cancel"

    def test_spool_required(self):
        for verb in ("serve", "status", "cancel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb])

    def test_submit_serve_status_result_loop(self, tiny_hg, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        common = ["--k", "21", "--m", "5", "--tasks", "2", "--threads", "2"]
        rc = main(
            ["submit", "--spool", spool,
             "--r1", tiny_hg.r1_path, "--r2", tiny_hg.r2_path, *common]
        )
        assert rc == 0
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert job_id.startswith("j-")

        assert main(["status", "--spool", spool]) == 0
        assert job_id in capsys.readouterr().out

        assert main(["serve", "--spool", spool, "--once"]) == 0
        assert "spool drained" in capsys.readouterr().out

        assert main(["status", "--spool", spool, "--job", job_id]) == 0
        out = capsys.readouterr().out
        assert "succeeded" in out
        assert "measured step times" in out

        labels_path = tmp_path / "labels.txt"
        rc = main(
            ["result", "--spool", spool, "--job", job_id,
             "--out", str(labels_path)]
        )
        assert rc == 0
        assert "components" in capsys.readouterr().out
        labels = labels_path.read_text().splitlines()
        assert len(labels) == tiny_hg.n_pairs
        assert all(line.lstrip("-").isdigit() for line in labels)

    def test_submit_wait_drives_to_terminal_state(
        self, tiny_hg, tmp_path, capsys
    ):
        import threading

        spool = str(tmp_path / "spool")
        server = threading.Thread(
            target=main,
            args=(["serve", "--spool", spool, "--once",
                   "--drain-timeout", "120"],),
        )
        rc_holder = {}

        def submit():
            rc_holder["rc"] = main(
                ["submit", "--spool", spool,
                 "--r1", tiny_hg.r1_path, "--r2", tiny_hg.r2_path,
                 "--k", "21", "--m", "5", "--wait", "120"]
            )

        client = threading.Thread(target=submit)
        client.start()
        import time

        time.sleep(0.3)  # let the submission land before the drain starts
        server.start()
        client.join(timeout=150)
        server.join(timeout=150)
        assert rc_holder["rc"] == 0
        assert "succeeded" in capsys.readouterr().out

    def test_cancel_queued_job(self, tiny_hg, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        main(
            ["submit", "--spool", spool,
             "--r1", tiny_hg.r1_path, "--k", "21", "--m", "5"]
        )
        job_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["cancel", "--spool", spool, "--job", job_id]) == 0
        assert main(["serve", "--spool", spool, "--once"]) == 0
        assert main(["status", "--spool", spool]) == 0
        assert "cancelled" in capsys.readouterr().out.splitlines()[-1]

    def test_status_empty_spool(self, tmp_path, capsys):
        assert main(["status", "--spool", str(tmp_path / "empty")]) == 0
        assert "no jobs" in capsys.readouterr().out
