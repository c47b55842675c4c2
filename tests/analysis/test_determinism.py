"""MP201–MP203 determinism hazards: trip and pass fixtures for
:func:`tests.analysis.hazards.scan`."""

from tests.analysis.hazards import scan


def rules(findings):
    return sorted(rule for _, _, rule in findings)


class TestMP201WallClock:
    def test_time_time_trips_in_result_path(self):
        findings = scan(
            {
                "sort/local.py": """
                    import time

                    def stamp():
                        return time.time()
                """
            }
        )
        assert findings == [("sort/local.py", 5, "MP201")]

    def test_datetime_now_trips(self):
        findings = scan(
            {
                "cc/merge.py": """
                    from datetime import datetime

                    def stamp():
                        return datetime.now()
                """
            }
        )
        assert rules(findings) == ["MP201"]

    def test_monotonic_clocks_allowed(self):
        findings = scan(
            {
                "sort/local.py": """
                    import time

                    def measure():
                        t0 = time.perf_counter()
                        return time.monotonic() - t0
                """
            }
        )
        assert findings == []

    def test_wall_clock_outside_result_scope_allowed(self):
        # job-record timestamps are the service layer's own contract
        findings = scan(
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
        assert findings == []

    def test_wall_clock_in_perf_trips(self):
        # every module outside service/ and gateway/ is in MP201's scope
        findings = scan(
            {
                "perf/timer.py": """
                    import time

                    def now():
                        return time.time()
                """
            }
        )
        assert rules(findings) == ["MP201"]

    def test_wall_clock_in_helper_module_trips_at_the_read(self):
        # a result-path caller of a wall-clock helper is covered by the
        # helper's own finding: the read itself is in scope
        findings = scan(
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
        assert findings == [("util/stamp.py", 5, "MP201")]

    def test_monotonic_helper_module_passes(self):
        findings = scan(
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
        assert findings == []


class TestMP202RandomSources:
    def test_unseeded_default_rng_trips_anywhere(self):
        findings = scan(
            {
                "service/jitter.py": """
                    import numpy as np

                    def rng():
                        return np.random.default_rng()
                """
            }
        )
        assert findings == [("service/jitter.py", 5, "MP202")]

    def test_seeded_default_rng_passes(self):
        findings = scan(
            {
                "sort/sampling.py": """
                    import numpy as np

                    def rng(seed: int):
                        return np.random.default_rng(seed)
                """
            }
        )
        assert findings == []

    def test_seed_none_keyword_trips(self):
        findings = scan(
            {
                "sort/sampling.py": """
                    import numpy as np

                    def rng():
                        return np.random.default_rng(seed=None)
                """
            }
        )
        assert rules(findings) == ["MP202"]

    def test_numpy_module_global_api_trips(self):
        findings = scan(
            {
                "kmers/noise.py": """
                    import numpy as np

                    def sample(n):
                        return np.random.randint(0, 10, size=n)
                """
            }
        )
        assert findings == [("kmers/noise.py", 5, "MP202")]

    def test_stdlib_random_module_trips(self):
        findings = scan(
            {
                "util/pick.py": """
                    import random

                    def pick(items):
                        return random.choice(items)
                """
            }
        )
        assert rules(findings) == ["MP202"]

    def test_seeded_stdlib_random_instance_passes(self):
        findings = scan(
            {
                "util/pick.py": """
                    import random

                    def pick(items, seed: int):
                        return random.Random(seed).choice(items)
                """
            }
        )
        assert findings == []


class TestMP203SetIteration:
    def test_for_over_set_literal_trips(self):
        findings = scan(
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
        assert findings == [("index/build.py", 4, "MP203")]

    def test_for_over_set_typed_local_trips(self):
        findings = scan(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]
                """
            }
        )
        assert rules(findings) == ["MP203"]

    def test_sorted_set_passes(self):
        findings = scan(
            {
                "index/build.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in sorted(seen)]
                """
            }
        )
        assert findings == []

    def test_list_over_set_algebra_trips(self):
        findings = scan(
            {
                "cc/labels.py": """
                    def diff(a, b):
                        return list(set(a) - set(b))
                """
            }
        )
        assert rules(findings) == ["MP203"]

    def test_set_iteration_outside_result_scope_allowed(self):
        findings = scan(
            {
                "service/store.py": """
                    def names(items):
                        seen = set(items)
                        return [x for x in seen]
                """
            }
        )
        assert findings == []


class TestTelemetryScope:
    """telemetry/ is result-affecting for MP2xx, with monotonic clocks
    explicitly allowlisted: the subsystem's whole point is timing."""

    def test_wall_clock_in_telemetry_trips(self):
        findings = scan(
            {
                "telemetry/runtime.py": """
                    import time

                    def stamp():
                        return time.time()
                """
            }
        )
        assert rules(findings) == ["MP201"]

    def test_monotonic_clocks_in_telemetry_pass(self):
        findings = scan(
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
        assert findings == []

    def test_allowlist_disjoint_from_wall_clock(self):
        from tests.analysis.hazards import MONOTONIC_ALLOWED, WALL_CLOCK

        assert not (MONOTONIC_ALLOWED & WALL_CLOCK)

    def test_telemetry_is_result_affecting_scope(self):
        from tests.analysis.hazards import RESULT_AFFECTING_SCOPES

        assert "telemetry/" in RESULT_AFFECTING_SCOPES
