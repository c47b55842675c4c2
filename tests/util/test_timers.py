import time

import pytest

from repro import telemetry
from repro.util.timers import TimeBreakdown


class TestTimeBreakdown:
    def test_add_and_total(self):
        bd = TimeBreakdown()
        bd.add("a", 1.0)
        bd.add("b", 2.0)
        bd.add("a", 0.5)
        assert bd.get("a") == pytest.approx(1.5)
        assert bd.total == pytest.approx(3.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("a", -1.0)

    def test_merge(self):
        a = TimeBreakdown({"x": 1.0})
        b = TimeBreakdown({"x": 2.0, "y": 3.0})
        a.merge(b)
        assert a.get("x") == pytest.approx(3.0)
        assert a.get("y") == pytest.approx(3.0)

    def test_scaled(self):
        bd = TimeBreakdown({"x": 2.0}).scaled(0.5)
        assert bd.get("x") == pytest.approx(1.0)

    def test_insertion_order_preserved(self):
        bd = TimeBreakdown()
        for name in ["c", "a", "b"]:
            bd.add(name, 1.0)
        assert [k for k, _ in bd.items()] == ["c", "a", "b"]

    def test_get_missing_is_zero(self):
        assert TimeBreakdown().get("nope") == 0.0


class TestStepTimer:
    """Steps are timed by ``telemetry.span(step, times=)``, telemetry on or
    off (the event side is covered in ``tests/telemetry/test_span_seam``)."""

    def test_step_context_records(self):
        times = TimeBreakdown()
        with telemetry.span("work", times=times):
            time.sleep(0.002)
        assert times.get("work") >= 0.002

    def test_exception_still_records(self):
        times = TimeBreakdown()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing", times=times):
                raise RuntimeError("boom")
        assert "failing" in times.seconds
