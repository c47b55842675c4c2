from repro.cc.components import ComponentSummary
from repro.core.report import (
    format_breakdown,
    format_job_metrics,
    format_job_table,
    format_partition_summary,
    format_table,
)
from repro.util.timers import TimeBreakdown


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["a", "bee"], [["x", 1], ["long", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")
        assert "long" in lines[3]

    def test_columns_padded_to_widest_cell(self):
        out = format_table(["h", "k"], [["wide-cell", 1]])
        header, sep, row = out.splitlines()
        assert header.index("k") == row.index("1")
        assert set(sep) <= {"-", " "}
        assert len(sep) == len(row)

    def test_empty_rows(self):
        out = format_table(["h"], [])
        lines = out.splitlines()
        assert lines == ["h", "-"]

    def test_no_trailing_whitespace(self):
        out = format_table(["aaaa", "b"], [["x", "y"]])
        assert all(line == line.rstrip() for line in out.splitlines())

    def test_unicode_width_inputs_do_not_crash(self):
        # len()-based alignment treats each code point as one column;
        # the contract is merely consistent padding, no exceptions
        out = format_table(["name", "n"], [["λ-run", 1], ["naïve", 22]])
        lines = out.splitlines()
        assert "λ-run" in lines[2]
        assert "naïve" in lines[3]
        assert lines[2].index("1") == lines[3].index("2")


class TestFormatBreakdown:
    def test_paper_step_order(self):
        bd = TimeBreakdown({"LocalSort": 2.0, "KmerGen": 1.0, "CC-I/O": 0.5})
        out = format_breakdown(bd)
        assert out.index("KmerGen") < out.index("LocalSort") < out.index("CC-I/O")
        assert "Total" in out
        assert "3.500" in out

    def test_unknown_steps_appended(self):
        bd = TimeBreakdown({"Exotic": 1.0})
        out = format_breakdown(bd)
        assert "Exotic" in out


class TestFormatPartitionSummary:
    def test_contains_lc_percent(self):
        s = ComponentSummary(
            n_reads=100,
            n_components=3,
            largest_component_size=95,
            largest_component_fraction=0.95,
            singleton_components=2,
            size_histogram={95: 1, 1: 2, 3: 1},
        )
        out = format_partition_summary(s)
        assert "95.0%" in out
        assert "components" in out


class TestFormatJobTable:
    STATUS = {
        "job_id": "j-abc123",
        "state": "succeeded",
        "attempt": 1,
        "error": None,
        "result": {"cache_hit": True},
        "metrics": {"partition_cache": "hit"},
        "submitted_at": 100.0,
        "started_at": 101.5,
        "finished_at": 103.0,
    }

    def test_row_contents(self):
        out = format_job_table([self.STATUS])
        assert "j-abc123" in out
        assert "succeeded" in out
        assert "1.50" in out  # queue wait
        assert "hit" in out

    def test_empty_listing_is_just_headers(self):
        out = format_job_table([])
        assert out.splitlines()[0].startswith("job")
        assert len(out.splitlines()) == 2

    def test_long_error_truncated(self):
        status = dict(
            self.STATUS, state="failed", error="x" * 200, finished_at=None
        )
        out = format_job_table([status])
        assert "x" * 39 + "…" in out
        assert "x" * 41 not in out

    def test_unstarted_job_has_blank_timing_cells(self):
        status = dict(
            self.STATUS,
            state="queued",
            started_at=None,
            finished_at=None,
            metrics={},
        )
        out = format_job_table([status])
        assert "queued" in out
        assert "1.50" not in out

    def test_missing_fields_render_placeholders(self):
        out = format_job_table([{}])
        assert "?" in out.splitlines()[-1]


class TestFormatJobMetrics:
    def test_metrics_and_breakdown(self):
        status = {
            "state": "succeeded",
            "submitted_at": 10.0,
            "started_at": 12.0,
            "metrics": {
                "partition_cache": "miss",
                "index_cache": "hit",
                "run_seconds": 3.25,
                "measured_seconds": {"KmerGen": 1.0, "LocalSort": 2.0},
            },
        }
        out = format_job_metrics(status)
        assert "queue wait (s)" in out
        assert "2.000" in out
        assert "partition_cache" in out
        assert "measured step times" in out
        assert out.index("KmerGen") < out.index("LocalSort")

    def test_without_breakdown(self):
        out = format_job_metrics({"state": "queued", "metrics": {}})
        assert "queued" in out
        assert "step times" not in out

    def test_metric_keys_sorted(self):
        out = format_job_metrics(
            {"state": "done", "metrics": {"zeta": 1, "alpha": 2}}
        )
        assert out.index("alpha") < out.index("zeta")

    def test_no_metrics_key_at_all(self):
        assert "queued" in format_job_metrics({"state": "queued"})

