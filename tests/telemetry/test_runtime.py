"""Thread-local emission API: no-op paths, sinks, capture and fold."""

import os
import pickle

import pytest

from repro import telemetry
from repro.telemetry.runtime import KIND_COUNTER, KIND_GAUGE, KIND_SPAN


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


class TestDisabled:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()

    def test_emissions_are_noops(self, tmp_path):
        telemetry.add_counter("cc.unions", 5)
        telemetry.record_span("KmerGen", 0, 10)
        telemetry.set_gauge("service.queue_depth", 3)
        with telemetry.span("LocalSort"):
            pass
        telemetry.fold([(KIND_COUNTER, "cc.unions", 0, -1, 1, 0)])
        assert list(tmp_path.iterdir()) == []  # nothing written anywhere


class TestActivation:
    def test_activate_emit_deactivate(self):
        sink = []
        telemetry.activate(sink)
        assert telemetry.enabled()
        telemetry.add_counter("cc.unions", 5, task=2)
        telemetry.set_gauge("service.queue_depth", 3)
        telemetry.deactivate()
        assert not telemetry.enabled()
        telemetry.add_counter("cc.unions", 7)  # dropped: no sink

        assert sink == [
            (KIND_COUNTER, "cc.unions", 2, -1, 5, 0),
            (KIND_GAUGE, "service.queue_depth", -1, -1, 3, 0),
        ]

    def test_span_contextmanager(self):
        with telemetry.capture() as events:
            with telemetry.span("LocalSort", task=1, aux=0):
                pass
        ((kind, name, task, aux, t0_ns, t1_ns),) = events
        assert (kind, name, task, aux) == (KIND_SPAN, "LocalSort", 1, 0)
        assert t1_ns >= t0_ns

    def test_unregistered_name_raises_at_emission(self):
        with telemetry.capture():
            with pytest.raises(ValueError, match="unregistered"):
                telemetry.add_counter("no.such.metric")


class TestCapture:
    def test_capture_shadows_and_restores_the_outer_sink(self):
        outer = []
        telemetry.activate(outer)
        telemetry.add_counter("cc.unions", 1)
        with telemetry.capture() as inner:
            telemetry.add_counter("cc.unions", 2)
        telemetry.add_counter("cc.unions", 3)
        assert [ev[4] for ev in inner] == [2]
        assert [ev[4] for ev in outer] == [1, 3]

    def test_capture_without_outer_sink_disables_on_exit(self):
        with telemetry.capture() as events:
            assert telemetry.enabled()
            telemetry.add_counter("cc.unions", 4)
        assert not telemetry.enabled()
        assert [ev[4] for ev in events] == [4]

    def test_fold_appends_in_order_and_stamps_span_hosts(self):
        with telemetry.capture() as job:
            telemetry.record_span("KmerGen", 10, 20, task=1, aux=3)
            telemetry.add_counter("cc.unions", 5, task=1)
        sink = []
        telemetry.activate(sink)
        telemetry.fold(job, host="10.0.0.2:7000")
        telemetry.fold(job)
        assert sink == [
            (KIND_SPAN, "KmerGen", 1, 3, 10, 20, "10.0.0.2:7000"),
            (KIND_COUNTER, "cc.unions", 1, -1, 5, 0),
            (KIND_SPAN, "KmerGen", 1, 3, 10, 20),
            (KIND_COUNTER, "cc.unions", 1, -1, 5, 0),
        ]

    def test_events_are_picklable(self):
        # they ride home inside pool results and worker EVENTS frames
        with telemetry.capture() as events:
            with telemetry.span("LocalSort", task=0):
                pass
            telemetry.add_counter("net.frames")
        assert pickle.loads(pickle.dumps(events)) == events


class TestFork:
    def test_child_capture_returns_only_child_events(self):
        """A forked child inherits the driver's thread-local sink; what
        it sends home is its capture buffer, never the inherited events."""
        driver = []
        telemetry.activate(driver)
        telemetry.add_counter("cc.unions", 1)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.close(read_fd)
                telemetry.add_counter("cc.unions", 10)  # the inherited sink
                with telemetry.capture() as events:
                    telemetry.add_counter("cc.unions", 100)
                with os.fdopen(write_fd, "wb") as out:
                    pickle.dump(events, out)
                os._exit(0)
            except BaseException:
                os._exit(1)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as inp:
            child_events = pickle.load(inp)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert [ev[4] for ev in child_events] == [100]
        assert [ev[4] for ev in driver] == [1]
