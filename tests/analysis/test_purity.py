"""MP3xx executor-payload purity checker: trip and pass fixtures."""

from repro.analysis.checkers.purity import check_executor_purity


def rules(findings):
    return sorted(f.rule for f in findings)


class TestMP301Submissions:
    def test_lambda_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def run(executor, jobs):
                        return executor.map(lambda job: job + 1, jobs)
                """
            }
        )
        findings = check_executor_purity(project)
        assert rules(findings) == ["MP301"]
        assert "lambda" in findings[0].message

    def test_nested_function_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def run(executor, jobs):
                        def work(job):
                            return job + 1
                        return executor.map(work, jobs)
                """
            }
        )
        findings = check_executor_purity(project)
        assert rules(findings) == ["MP301"]
        assert "nested function" in findings[0].message

    def test_bound_method_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    class Driver:
                        def work(self, job):
                            return job + 1

                        def run(self, executor, jobs):
                            return executor.map(self.work, jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP301"]

    def test_module_level_lambda_assignment_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    work = lambda job: job + 1

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        findings = check_executor_purity(project)
        assert rules(findings) == ["MP301"]
        assert "module-level lambda" in findings[0].message

    def test_module_level_function_passes(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def work(job):
                        return job + 1

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        assert check_executor_purity(project) == []

    def test_partial_of_module_function_passes(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    from functools import partial

                    def work(scale, job):
                        return job * scale

                    def run(executor, jobs):
                        return executor.map(partial(work, 2), jobs)
                """
            }
        )
        assert check_executor_purity(project) == []

    def test_partial_of_lambda_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    from functools import partial

                    def run(executor, jobs):
                        return executor.map(partial(lambda s, j: j * s, 2), jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP301"]


class TestReceiverInference:
    def test_annotated_parameter_is_executor(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def run(backend: "ExecutionBackend", jobs):
                        return backend.map(lambda j: j, jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP301"]

    def test_create_executor_assignment_is_executor(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    from repro.runtime.executor import create_engine

                    def run(jobs):
                        pool = create_engine("process")
                        return pool.map(lambda j: j, jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP301"]

    def test_unrelated_map_receiver_ignored(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def run(pool, jobs):
                        return pool.map(lambda j: j, jobs)
                """
            }
        )
        assert check_executor_purity(project) == []

    def test_backend_implementation_module_exempt(self, make_project):
        project = make_project(
            {
                "runtime/executor.py": """
                    class ProcessExecutor:
                        def map(self, fn, jobs):
                            with self._pool() as pool:
                                return pool.map(lambda j: fn(j), jobs)
                """
            }
        )
        assert check_executor_purity(project) == []


class TestMP302GlobalWrites:
    def test_global_statement_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    _COUNT = 0

                    def work(job):
                        global _COUNT
                        _COUNT += 1
                        return job

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        findings = check_executor_purity(project)
        assert "MP302" in rules(findings)
        assert any("_COUNT" in f.message for f in findings)

    def test_module_container_mutation_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    _CACHE = {}

                    def work(job):
                        _CACHE[job] = True
                        return job

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP302"]

    def test_mutator_call_on_module_list_trips(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    _SEEN = []

                    def work(job):
                        _SEEN.append(job)
                        return job

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        assert rules(check_executor_purity(project)) == ["MP302"]

    def test_local_state_passes(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    def work(job):
                        cache = {}
                        cache[job] = True
                        out = []
                        out.append(job)
                        return out

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        assert check_executor_purity(project) == []

    def test_unsubmitted_function_may_write_globals(self, make_project):
        project = make_project(
            {
                "core/pipeline.py": """
                    _CACHE = {}

                    def warm(key):
                        _CACHE[key] = True

                    def work(job):
                        return job

                    def run(executor, jobs):
                        return executor.map(work, jobs)
                """
            }
        )
        assert check_executor_purity(project) == []
