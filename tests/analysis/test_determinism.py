"""MP2xx determinism checker: trip and pass fixtures."""

from repro.analysis.checkers.determinism import check_determinism


def rules(findings):
    return sorted(f.rule for f in findings)


class TestMP201WallClock:
    def test_time_time_trips_in_result_path(self, make_project):
        project = make_project(
            {
                "sort/local.py": """
                    import time

                    def stamp():
                        return time.time()
                """
            }
        )
        findings = check_determinism(project)
        assert rules(findings) == ["MP201"]
        assert "time.time" in findings[0].message

    def test_datetime_now_trips(self, make_project):
        project = make_project(
            {
                "cc/merge.py": """
                    from datetime import datetime

                    def stamp():
                        return datetime.now()
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP201"]

    def test_monotonic_clocks_allowed(self, make_project):
        project = make_project(
            {
                "sort/local.py": """
                    import time

                    def measure():
                        t0 = time.perf_counter()
                        return time.monotonic() - t0
                """
            }
        )
        assert check_determinism(project) == []

    def test_wall_clock_outside_result_scope_allowed(self, make_project):
        # job-record timestamps are the service layer's own contract
        project = make_project(
            {
                "service/queue.py": """
                    import time

                    def enqueued_at():
                        return time.time()
                """,
                "gateway/app.py": """
                    import time

                    def received_at():
                        return time.time()
                """,
            }
        )
        assert check_determinism(project) == []

    def test_wall_clock_in_perf_trips(self, make_project):
        # every module outside service/ and gateway/ is in MP201's scope
        project = make_project(
            {
                "perf/timer.py": """
                    import time

                    def now():
                        return time.time()
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP201"]

    def test_wall_clock_in_helper_module_trips_at_the_read(self, make_project):
        # a result-path caller of a wall-clock helper is covered by the
        # helper's own finding: the read itself is in scope
        project = make_project(
            {
                "util/stamp.py": """
                    import time

                    def stamp():
                        return time.time()
                """,
                "core/emit.py": """
                    from repro.util.stamp import stamp

                    def emit(record):
                        record["at"] = stamp()
                        return record
                """,
            }
        )
        findings = check_determinism(project)
        assert [(f.rule, f.path) for f in findings] == [
            ("MP201", "src/repro/util/stamp.py")
        ]

    def test_monotonic_helper_module_passes(self, make_project):
        project = make_project(
            {
                "util/stamp.py": """
                    import time

                    def elapsed(start):
                        return time.perf_counter() - start
                """,
                "core/emit.py": """
                    from repro.util.stamp import elapsed

                    def emit(record, start):
                        record["elapsed"] = elapsed(start)
                        return record
                """,
            }
        )
        assert check_determinism(project) == []


class TestMP202RandomSources:
    def test_unseeded_default_rng_trips_anywhere(self, make_project):
        project = make_project(
            {
                "service/jitter.py": """
                    import numpy as np

                    def rng():
                        return np.random.default_rng()
                """
            }
        )
        findings = check_determinism(project)
        assert rules(findings) == ["MP202"]
        assert "without a seed" in findings[0].message

    def test_seeded_default_rng_passes(self, make_project):
        project = make_project(
            {
                "sort/sampling.py": """
                    import numpy as np

                    def rng(seed: int):
                        return np.random.default_rng(seed)
                """
            }
        )
        assert check_determinism(project) == []

    def test_seed_none_keyword_trips(self, make_project):
        project = make_project(
            {
                "sort/sampling.py": """
                    import numpy as np

                    def rng():
                        return np.random.default_rng(seed=None)
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP202"]

    def test_numpy_module_global_api_trips(self, make_project):
        project = make_project(
            {
                "kmers/noise.py": """
                    import numpy as np

                    def sample(n):
                        return np.random.randint(0, 10, size=n)
                """
            }
        )
        findings = check_determinism(project)
        assert rules(findings) == ["MP202"]
        assert "module-global" in findings[0].message

    def test_stdlib_random_module_trips(self, make_project):
        project = make_project(
            {
                "util/pick.py": """
                    import random

                    def pick(items):
                        return random.choice(items)
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP202"]

    def test_seeded_stdlib_random_instance_passes(self, make_project):
        project = make_project(
            {
                "util/pick.py": """
                    import random

                    def pick(items, seed: int):
                        return random.Random(seed).choice(items)
                """
            }
        )
        assert check_determinism(project) == []


class TestMP203SetIteration:
    def test_for_over_set_literal_trips(self, make_project):
        project = make_project(
            {
                "index/build.py": """
                    def names():
                        out = []
                        for name in {"a", "b"}:
                            out.append(name)
                        return out
                """
            }
        )
        findings = check_determinism(project)
        assert rules(findings) == ["MP203"]
        assert "sorted" in findings[0].message

    def test_for_over_set_typed_local_trips(self, make_project):
        project = make_project(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP203"]

    def test_sorted_set_passes(self, make_project):
        project = make_project(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in sorted(seen)]
                """
            }
        )
        assert check_determinism(project) == []

    def test_list_over_set_algebra_trips(self, make_project):
        project = make_project(
            {
                "cc/labels.py": """
                    def diff(a, b):
                        return list(set(a) - set(b))
                """
            }
        )
        assert rules(check_determinism(project)) == ["MP203"]

    def test_set_iteration_outside_result_scope_allowed(self, make_project):
        project = make_project(
            {
                "service/store.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]
                """
            }
        )
        assert check_determinism(project) == []


class TestTelemetryScope:
    """telemetry/ is result-affecting for MP2xx, with monotonic clocks
    explicitly allowlisted — the subsystem's whole point is timing."""

    def test_wall_clock_in_telemetry_trips(self, make_project):
        project = make_project(
            {
                "telemetry/runtime.py": """
                    import time

                    def stamp():
                        return time.time()
                """
            }
        )
        findings = check_determinism(project)
        assert rules(findings) == ["MP201"]

    def test_monotonic_clocks_in_telemetry_pass(self, make_project):
        project = make_project(
            {
                "telemetry/runtime.py": """
                    import time

                    def now_ns():
                        return time.perf_counter_ns()

                    def coarse():
                        return time.monotonic_ns()
                """
            }
        )
        assert check_determinism(project) == []

    def test_allowlist_disjoint_from_wall_clock(self):
        from repro.analysis.checkers.determinism import (
            MONOTONIC_ALLOWED,
            WALL_CLOCK,
        )

        assert not (MONOTONIC_ALLOWED & WALL_CLOCK)

    def test_telemetry_is_result_affecting_scope(self):
        from repro.analysis.checkers.determinism import (
            RESULT_AFFECTING_SCOPES,
        )

        assert "telemetry/" in RESULT_AFFECTING_SCOPES
