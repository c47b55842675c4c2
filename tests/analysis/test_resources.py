"""MP502 spill-hygiene checker: trip and pass fixtures."""

from repro.analysis.checkers.resources import check_executor_resources


def rules(findings):
    return sorted(f.rule for f in findings)


class TestMP502SpillHygiene:
    def test_tupleblock_schema_literal_trips(self, make_project):
        project = make_project(
            {
                "core/restore.py": """
                    from repro.seqio.tables import read_table

                    def restore(path):
                        return read_table(
                            path, expect_schema="metaprep/tupleblock"
                        )
                """
            }
        )
        findings = check_executor_resources(project)
        assert rules(findings) == ["MP502"]
        assert "repro.runtime.spill" in findings[0].message

    def test_tupleblock_schema_name_trips(self, make_project):
        project = make_project(
            {
                "core/dump.py": """
                    from repro.runtime.spill import TUPLEBLOCK_SCHEMA
                    from repro.seqio.tables import write_table

                    def dump(path, meta, arrays):
                        return write_table(
                            path, TUPLEBLOCK_SCHEMA, meta, arrays
                        )
                """
            }
        )
        assert rules(check_executor_resources(project)) == ["MP502"]

    def test_preallocate_with_schema_positional_trips(self, make_project):
        project = make_project(
            {
                "runtime/scratch.py": """
                    from repro.seqio.tables import preallocate_table

                    def make(path, specs):
                        return preallocate_table(
                            path, "metaprep/tupleblock", {}, specs
                        )
                """
            }
        )
        assert rules(check_executor_resources(project)) == ["MP502"]

    def test_raw_open_on_spill_path_trips(self, make_project):
        project = make_project(
            {
                "core/peek.py": """
                    def peek():
                        with open("/tmp/pass0-task1.spill", "rb") as fh:
                            return fh.read(8)
                """
            }
        )
        findings = check_executor_resources(project)
        assert rules(findings) == ["MP502"]
        assert "raw open()" in findings[0].message

    def test_spill_module_itself_exempt(self, make_project):
        project = make_project(
            {
                "runtime/spill.py": """
                    from repro.seqio.tables import read_table

                    def read_spill(path):
                        meta, arrays = read_table(
                            path, expect_schema="metaprep/tupleblock"
                        )
                        with open("fixture.spill", "rb") as fh:
                            fh.read()
                        return meta, arrays
                """
            }
        )
        assert check_executor_resources(project) == []

    def test_other_schema_and_paths_pass(self, make_project):
        project = make_project(
            {
                "core/checkpoint.py": """
                    from repro.seqio.tables import read_table, write_table

                    def save(path, meta, arrays):
                        write_table(path, "metaprep/checkpoint", meta, arrays)

                    def load(path):
                        with open("notes.txt", "rb") as fh:
                            fh.read()
                        return read_table(
                            path, expect_schema="metaprep/checkpoint"
                        )
                """
            }
        )
        assert check_executor_resources(project) == []
