"""End-to-end gateway tests over real TCP sockets.

Two server fixtures with different lifetimes:

* ``live`` (module scope) — gateway + background spool daemon against
  one spool; jobs really run the pipeline on the tiny HG analogue.
* ``idle`` (function scope) — gateway whose daemon accepts jobs but
  never starts one (:func:`held_daemon`), so submissions stay queued
  forever: the fixture for admission-control tests (quotas, rate
  limits, backpressure) and for handcrafted result documents
  (large-artifact streaming) without pipeline runs.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.gateway.app import GatewayApp
from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.server import GatewayServer
from repro.gateway.tenants import Tenant, TenantRegistry
from repro.service.client import ServiceClient
from repro.service.daemon import RESULTS_DIR, ServeDaemon
from repro.service.jobs import JobStateError

CFG = {"k": 21, "m": 5, "n_tasks": 2, "n_threads": 2, "n_passes": 2}


def two_tenant_registry(**overrides):
    tenants = {
        "lab-a": Tenant(name="lab-a", token="tok-a", **overrides),
        "lab-b": Tenant(name="lab-b", token="tok-b", **overrides),
    }
    return TenantRegistry(tenants)


def held_daemon(spool):
    """A running daemon whose scheduler never starts a job: handed-off
    submissions are logged and then stay queued."""
    daemon = ServeDaemon(spool)
    daemon.scheduler.tick = lambda: False
    daemon.start_background()
    return daemon


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live(tmp_path_factory):
    spool = tmp_path_factory.mktemp("gateway-spool")
    daemon = ServeDaemon(spool)
    app = GatewayApp(daemon, registry=two_tenant_registry())
    daemon.extra_counters = app.counters.snapshot
    server = GatewayServer(app)
    daemon.start_background()
    address = server.start()
    yield {"spool": spool, "app": app, "address": address, "daemon": daemon}
    server.stop()
    daemon.stop_background()


@pytest.fixture()
def idle(tmp_path):
    spool = tmp_path / "spool"
    daemon = held_daemon(spool)
    app = GatewayApp(
        daemon,
        registry=two_tenant_registry(max_queued_jobs=1, max_result_bytes=100),
    )
    server = GatewayServer(app, max_inflight=64)
    address = server.start()
    yield {"spool": spool, "app": app, "address": address, "daemon": daemon}
    server.stop()
    daemon.stop_background()


def client_of(env, token="tok-a"):
    return GatewayClient(env["address"], token=token)


# ----------------------------------------------------------------------
# E2E over the real pipeline
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_healthz_unauthenticated(self, live):
        assert GatewayClient(live["address"]).healthz() == {"status": "ok"}

    def test_submit_wait_stream_byte_identical(self, live, tiny_hg):
        client = client_of(live)
        job_id = client.submit(tiny_hg.units, config=CFG)
        status = client.wait(job_id, timeout=120)
        assert status["state"] == "succeeded"

        labels_http, info = client.result(job_id)
        labels_spool, info_spool = ServiceClient(live["spool"]).result(job_id)
        assert np.array_equal(labels_http, labels_spool)
        assert info["artifact_key"] == info_spool["artifact_key"]

        # the streamed bytes are exactly the artifact on disk
        raw = b"".join(client.stream_result(job_id))
        assert raw == open(info_spool["artifact_path"], "rb").read()
        assert live["app"].counters.bytes_streamed >= len(raw)

    def test_identical_submissions_coalesce_to_one_run(self, live, tiny_hg):
        a, b = client_of(live, "tok-a"), client_of(live, "tok-b")
        before = live["app"].counters.coalesced
        config = dict(CFG, n_passes=1)  # distinct work from other tests
        job_a = a.submit(tiny_hg.units, config=config)
        job_b = b.submit(tiny_hg.units, config=config)
        assert job_a == job_b
        assert live["app"].counters.coalesced == before + 1

        # both tenants see it and can fetch the result independently
        assert a.wait(job_a, timeout=120)["state"] == "succeeded"

        # one queue entry: the event log records exactly one submission
        events = [
            json.loads(line)
            for line in (live["spool"] / "events.jsonl").read_text().splitlines()
        ]
        submitted = [
            e for e in events
            if e["type"] == "submitted" and e["job_id"] == job_a
        ]
        assert len(submitted) == 1
        labels_a, _ = a.result(job_a)
        labels_b, _ = b.result(job_b)
        assert np.array_equal(labels_a, labels_b)

    def test_cross_tenant_job_is_404(self, live, tiny_hg):
        a, b = client_of(live, "tok-a"), client_of(live, "tok-b")
        job_id = a.submit(tiny_hg.units, config=dict(CFG, k=23))
        a.wait(job_id, timeout=120)
        for probe in (b.status, b.cancel):
            with pytest.raises(JobStateError):
                probe(job_id)
        with pytest.raises(JobStateError):
            b.result(job_id)
        assert job_id not in {j["job_id"] for j in b.list_jobs()}
        assert job_id in {j["job_id"] for j in a.list_jobs()}

    def test_cancel_through_gateway(self, live, tiny_hg):
        client = client_of(live)
        job_id = client.submit(tiny_hg.units, config=dict(CFG, k=25))
        client.cancel(job_id)
        status = client.wait(job_id, timeout=120)
        assert status["state"] in ("cancelled", "succeeded")

    def test_metrics_exposition(self, live):
        text = GatewayClient(live["address"]).metrics_text()
        assert "metaprep_gateway_requests" in text
        assert "metaprep_gateway_coalesced" in text
        assert "metaprep_service_queue_depth" in text

    def test_result_of_unfinished_job_is_conflict(self, live, tiny_hg):
        client = client_of(live)
        job_id = client.submit(
            tiny_hg.units, config=dict(CFG, k=19, n_passes=1)
        )
        try:
            with pytest.raises(JobStateError):
                next(client.stream_result(job_id))
        finally:
            client.wait(job_id, timeout=120)


# ----------------------------------------------------------------------
# the in-process hand-off: a 202 means the job is logged
# ----------------------------------------------------------------------
@pytest.fixture()
def held_slot(tmp_path):
    """Gateway over a one-slot daemon whose pipeline runs wait for
    ``gate`` (set by default)."""
    daemon = ServeDaemon(tmp_path / "spool", max_concurrent=1)
    gate, entered = threading.Event(), threading.Event()
    gate.set()
    run = daemon.scheduler.runner

    def gated(record, control):
        entered.set()
        assert gate.wait(60.0)
        return run(record, control)

    daemon.scheduler.runner = gated
    app = GatewayApp(daemon, registry=two_tenant_registry())
    server = GatewayServer(app)
    daemon.start_background()
    address = server.start()
    yield {"address": address, "daemon": daemon, "app": app,
           "gate": gate, "entered": entered}
    gate.set()
    server.stop()
    daemon.stop_background()


class TestHandoff:
    def test_store_hit_post_is_succeeded_at_first_status(self, live, tiny_hg):
        client = client_of(live)
        config = dict(CFG, k=17, n_passes=1)  # distinct work from other tests
        try:
            first = client.submit(tiny_hg.units, config=config)
            # a 202 means logged: the first status read finds the job (no 404)
            assert client.status(first)["state"] in ("queued", "running", "succeeded")
            assert client.wait(first, timeout=120)["state"] == "succeeded"
            for _ in range(3):
                job_id = client.submit(tiny_hg.units, config=config)
                status = client.status(job_id)  # the first call, no sleep before it
                assert status["state"] == "succeeded"
                assert status["result"]["cache_hit"] is True
        finally:
            client.close()

    def test_slow_miss_does_not_hold_up_posts_or_hits(self, held_slot, tiny_hg):
        env = held_slot
        client = client_of(env)
        primed = dict(CFG, n_passes=1)
        try:
            job_id = client.submit(tiny_hg.units, config=primed)
            assert client.wait(job_id, timeout=120)["state"] == "succeeded"

            env["gate"].clear()
            env["entered"].clear()
            slow = client.submit(tiny_hg.units, config=dict(CFG, k=23))
            assert env["entered"].wait(30.0)  # the slow miss holds the one slot
            t0 = time.monotonic()
            queued = client.submit(tiny_hg.units, config=dict(CFG, k=25))
            assert time.monotonic() - t0 < 2.0
            assert client.status(queued)["state"] == "queued"
            hit = client.submit(tiny_hg.units, config=primed)
            assert client.status(hit)["state"] == "succeeded"
            assert client.status(slow)["state"] == "running"

            env["gate"].set()
            for job_id in (slow, queued):
                assert client.wait(job_id, timeout=120)["state"] == "succeeded"
        finally:
            client.close()

    def test_ingest_error_answers_an_error_without_hanging(
        self, held_slot, tiny_hg, monkeypatch
    ):
        def disk_full(job):
            raise OSError("no space left on device")

        monkeypatch.setattr(held_slot["daemon"].queue, "submit", disk_full)
        client = GatewayClient(held_slot["address"], token="tok-a", timeout=10.0)
        try:
            t0 = time.monotonic()
            with pytest.raises(GatewayError) as err:
                client.submit(tiny_hg.units, config=CFG)
            assert err.value.status == 500
            assert time.monotonic() - t0 < 5.0
            assert client.healthz() == {"status": "ok"}
            assert client.list_jobs() == []  # nothing half-recorded
        finally:
            client.close()


# ----------------------------------------------------------------------
# admission control (a held daemon: jobs stay queued)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_queued_job_quota_exhaustion_is_429(self, idle, tiny_hg):
        client = client_of(idle)
        client.submit(tiny_hg.units, config=CFG)  # fills the quota of 1
        with pytest.raises(GatewayError) as err:
            client.submit(tiny_hg.units, config=dict(CFG, n_passes=1))
        assert err.value.status == 429
        assert err.value.retry_after is not None

    def test_result_bytes_quota_exhaustion_is_429(self, idle, tiny_hg, tmp_path):
        app = idle["app"]
        artifact = tmp_path / "big.bin"
        artifact.write_bytes(b"\x00" * 4096)  # over the 100-byte quota
        fake = "j-feedc0ffee99"
        (idle["spool"] / RESULTS_DIR / f"{fake}.json").write_text(
            json.dumps(
                {
                    "job_id": fake,
                    "state": "succeeded",
                    "attempt": 1,
                    "error": None,
                    "result": {"artifact_path": str(artifact)},
                    "metrics": {},
                    "submitted_at": 1.0,
                    "started_at": 2.0,
                    "finished_at": 3.0,
                }
            )
        )
        tenant = app.registry.authenticate("tok-a")
        app._record_owner(fake, tenant, "fp-fake")
        with pytest.raises(GatewayError) as err:
            client_of(idle).submit(tiny_hg.units, config=CFG)
        assert err.value.status == 429

    def test_rate_limit_is_429_with_retry_after(self, tmp_path, tiny_hg):
        registry = TenantRegistry(
            {"slow": Tenant(name="slow", token="tok-s", rate=0.5, burst=2)}
        )
        daemon = held_daemon(tmp_path / "spool")
        app = GatewayApp(daemon, registry=registry)
        server = GatewayServer(app)
        address = server.start()
        try:
            client = GatewayClient(address, token="tok-s")
            client.healthz()  # unauthenticated: does not consume tokens
            assert client.list_jobs() == []
            client.list_jobs()  # burst of 2 spent
            with pytest.raises(GatewayError) as err:
                client.list_jobs()
            assert err.value.status == 429
            assert err.value.retry_after == pytest.approx(2.0, abs=0.5)
        finally:
            server.stop()
            daemon.stop_background()

    def test_saturated_queue_is_503(self, tmp_path, tiny_hg):
        daemon = held_daemon(tmp_path / "spool")
        app = GatewayApp(
            daemon, registry=two_tenant_registry(), max_queue_depth=0
        )
        server = GatewayServer(app)
        address = server.start()
        try:
            with pytest.raises(GatewayError) as err:
                GatewayClient(address, token="tok-a").submit(
                    tiny_hg.units, config=CFG
                )
            assert err.value.status == 503
            assert app.counters.rejected == 1
        finally:
            server.stop()
            daemon.stop_background()

    def test_unknown_token_is_401(self, idle):
        with pytest.raises(GatewayError) as err:
            GatewayClient(idle["address"], token="who-dis").list_jobs()
        assert err.value.status == 401

    def test_invalid_job_spec_is_400(self, idle):
        with pytest.raises(GatewayError) as err:
            client_of(idle).submit(["/nonexistent/file.fastq"], config=CFG)
        assert err.value.status == 400


# ----------------------------------------------------------------------
# framing abuse: the server must answer 400, never die
# ----------------------------------------------------------------------
class TestFramingRobustness:
    def _raw(self, env, payload: bytes) -> bytes:
        host, _, port = env["address"].rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    def test_garbage_bytes_get_400_and_server_survives(self, idle):
        reply = self._raw(idle, b"\x89PNG\r\n\x1a\n not http at all\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert client_of(idle).healthz() == {"status": "ok"}

    def test_torn_request_drops_connection_not_server(self, idle):
        host, _, port = idle["address"].rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=10)
        sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\npartial")
        sock.close()  # tear mid-body
        assert client_of(idle).healthz() == {"status": "ok"}

    def test_oversized_declared_body_is_400(self, idle):
        reply = self._raw(
            idle,
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Length: 999999999\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"exceeds" in reply
        assert client_of(idle).healthz() == {"status": "ok"}

    def test_rejected_counter_tracks_abuse(self, idle):
        before = idle["app"].counters.rejected
        self._raw(idle, b"complete garbage\r\n\r\n")
        assert idle["app"].counters.rejected == before + 1


# ----------------------------------------------------------------------
# large-artifact chunked streaming (multi-gigabyte analogue)
# ----------------------------------------------------------------------
class TestLargeStreaming:
    def test_chunked_download_is_byte_identical(self, idle, tmp_path):
        app = idle["app"]
        rng = np.random.default_rng(99)
        blob = rng.integers(0, 256, size=8 * 1024 * 1024, dtype=np.uint8)
        artifact = tmp_path / "huge.partition.bin"
        artifact.write_bytes(blob.tobytes())

        fake = "j-b1gda7a00001"
        (idle["spool"] / RESULTS_DIR / f"{fake}.json").write_text(
            json.dumps(
                {
                    "job_id": fake,
                    "state": "succeeded",
                    "attempt": 1,
                    "error": None,
                    "result": {"artifact_path": str(artifact)},
                    "metrics": {},
                    "submitted_at": 1.0,
                    "started_at": 2.0,
                    "finished_at": 3.0,
                }
            )
        )
        app._record_owner(fake, app.registry.authenticate("tok-a"), "fp-big")

        client = client_of(idle)
        streamed = b"".join(client.stream_result(fake))
        assert streamed == blob.tobytes()
        assert app.counters.bytes_streamed >= len(streamed)

    def test_acl_survives_gateway_restart(self, idle):
        # a second app over the same spool replays the ownership ledger
        reloaded = GatewayApp(
            idle["daemon"], registry=two_tenant_registry()
        )
        assert reloaded._owners == idle["app"]._owners
