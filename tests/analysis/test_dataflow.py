"""Unit tests for the per-function effect-summary engine."""

import ast
import pickle
import textwrap

from repro.analysis.dataflow import summarize_module
from repro.analysis.project import SourceModule
from repro.analysis.suppress import parse_suppressions
from pathlib import Path


def module_of(source: str, pkgpath: str = "core/mod.py") -> SourceModule:
    text = textwrap.dedent(source)
    return SourceModule(
        path=Path(pkgpath),
        relpath=f"src/repro/{pkgpath}",
        pkgpath=pkgpath,
        text=text,
        tree=ast.parse(text),
        suppressions=parse_suppressions(text),
    )


def summary_of(source: str, qualname: str, **kw):
    return summarize_module(module_of(source, **kw)).functions[qualname]


class TestSummaryContent:
    def test_effects_and_calls_recorded(self):
        fn = summary_of(
            """
            import time

            _CACHE = {}

            def helper():
                return 1

            def f(x):
                _CACHE[x] = time.time()
                return helper()
            """,
            "f",
        )
        assert {e.kind for e in fn.effects} == {"global_write", "wall_clock"}
        assert any(c.callee.name == "helper" for c in fn.calls)

    def test_submission_attributed_to_enclosing_function(self):
        summary = summarize_module(
            module_of(
                """
                def job(x):
                    return x

                def drive(executor, items):
                    return list(executor.map(job, items))
                """
            )
        )
        assert summary.functions["drive"].submissions
        assert summary.functions["drive"].submissions[0].callee.name == "job"
        assert not summary.functions["job"].submissions

    def test_methods_get_class_qualified_names(self):
        summary = summarize_module(
            module_of(
                """
                class Stage:
                    def run(self):
                        return self.step()

                    def step(self):
                        return 1
                """
            )
        )
        assert set(summary.functions) == {"Stage.run", "Stage.step"}
        (call,) = summary.functions["Stage.run"].calls
        assert call.callee.kind == "self"
        assert call.callee.name == "step"

    def test_summary_is_picklable(self):
        summary = summarize_module(
            module_of(
                """
                from repro.runtime.buffers import attach_block

                def f(d):
                    block = attach_block(d)
                    return 1
                """
            )
        )
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.functions["f"] == summary.functions["f"]
