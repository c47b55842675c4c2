"""MP605 gateway handler purity: trip and pass fixtures for
:func:`tests.analysis.hazards.scan`."""

from tests.analysis.hazards import scan


def rules(findings):
    return sorted(rule for _, _, rule in findings)


class TestGlobalWrites:
    def test_trip_handler_writes_module_global(self):
        findings = scan(
            {
                "gateway/app.py": """
                    JOBS = {}

                    async def post_job(request):
                        JOBS["latest"] = request
                        return 202
                """
            }
        )
        assert findings == [("gateway/app.py", 5, "MP605")]

    def test_trip_handler_declares_global(self):
        findings = scan(
            {
                "gateway/app.py": """
                    counter = 0

                    async def get_job(request):
                        global counter
                        counter += 1
                        return counter
                """
            }
        )
        assert "MP605" in rules(findings)

    def test_trip_handler_mutates_module_container(self):
        findings = scan(
            {
                "gateway/app.py": """
                    SEEN = []

                    async def list_jobs(request):
                        SEEN.append(request)
                        return SEEN
                """
            }
        )
        assert rules(findings) == ["MP605"]

    def test_pass_state_on_the_app_instance(self):
        findings = scan(
            {
                "gateway/app.py": """
                    class App:
                        def __init__(self):
                            self.jobs = {}

                        async def post_job(self, request):
                            self.jobs[request.job_id] = request
                            return 202
                """
            }
        )
        assert findings == []

    def test_pass_sync_function_out_of_scope(self):
        # only async handlers run on the event loop; a sync helper may
        # keep a module-level cache
        findings = scan(
            {
                "gateway/app.py": """
                    CACHE = {}

                    def warm(key, value):
                        CACHE[key] = value
                """
            }
        )
        assert findings == []


class TestBlockingSleep:
    def test_trip_time_sleep_in_handler(self):
        findings = scan(
            {
                "gateway/server.py": """
                    import time

                    async def throttle(request):
                        time.sleep(0.1)
                        return 429
                """
            }
        )
        assert findings == [("gateway/server.py", 5, "MP605")]

    def test_trip_aliased_sleep(self):
        findings = scan(
            {
                "gateway/server.py": """
                    from time import sleep

                    async def throttle(request):
                        sleep(0.1)
                """
            }
        )
        assert rules(findings) == ["MP605"]

    def test_pass_asyncio_sleep(self):
        findings = scan(
            {
                "gateway/server.py": """
                    import asyncio

                    async def throttle(request):
                        await asyncio.sleep(0.1)
                        return 429
                """
            }
        )
        assert findings == []

    def test_pass_sleep_in_sync_helper(self):
        findings = scan(
            {
                "gateway/client.py": """
                    import time

                    def wait_for(predicate):
                        while not predicate():
                            time.sleep(0.05)
                """
            }
        )
        assert findings == []

    def test_other_packages_out_of_scope(self):
        findings = scan(
            {
                "runtime/worker.py": """
                    import time

                    GLOBAL = {}

                    async def handler(request):
                        GLOBAL["x"] = 1
                        time.sleep(1)
                """
            }
        )
        assert findings == []
