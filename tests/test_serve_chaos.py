"""Chaos suite for the query server: the failure modes it exists for.

Every scenario here injects a real fault — a dribbling client socket, a
crashing or hanging predict kernel (via
:class:`repro.robustness.faults.ServeFaultSpec`), overload past the
admission gate, a SIGTERM mid-request — and asserts the server's typed,
bounded reaction: 408/504 on deadlines, 429 on shedding, 503 with an
open circuit, a clean drain with zero dropped in-flight requests.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core.proclus import proclus
from repro.core.serialization import save_result
from repro.robustness.faults import ServeFaultSpec
from repro.serve import (BREAKER_CLOSED, BREAKER_OPEN, ProclusServer,
                         ServerConfig)

pytestmark = [pytest.mark.chaos]


@pytest.fixture(scope="module")
def model_env(tmp_path_factory):
    from repro.data import generate
    ds = generate(300, 8, 3, cluster_dim_counts=[3, 3, 4],
                  outlier_fraction=0.05, seed=55)
    result = proclus(ds.points, 3, 4.0, seed=55)
    path = save_result(result, tmp_path_factory.mktemp("chaos") / "model.npz")
    return ds, result, str(path)


def post_json(port: int, path: str, obj: Any,
              headers: Optional[Dict[str, str]] = None,
              timeout: float = 15.0,
              ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(obj).encode("utf-8")
        send = {"Content-Type": "application/json"}
        send.update(headers or {})
        conn.request("POST", path, body=body, headers=send)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), json.loads(resp.read())
    finally:
        conn.close()


def get_json(port: int, path: str,
             timeout: float = 5.0) -> Tuple[int, Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def recv_all(sock: socket.socket) -> bytes:
    """Drain a socket to EOF: the response may span TCP segments."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def make_server(path: str, **overrides: Any) -> ProclusServer:
    kwargs: Dict[str, Any] = dict(port=0, default_deadline_s=5.0,
                                  max_deadline_s=10.0)
    kwargs.update(overrides)
    return ProclusServer(ServerConfig(**kwargs), model_path=path).start()


# ---------------------------------------------------------------------------
# slow/malformed clients: deadlines and typed 4xx, never a 500
# ---------------------------------------------------------------------------

class TestHostileClients:
    def test_slow_loris_body_is_cut_off_with_408(self, model_env):
        _, _, path = model_env
        srv = make_server(path)
        try:
            sock = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=10.0)
            try:
                # declare a body, send half of it, then stall past the
                # 0.3s request deadline
                sock.sendall(b"POST /predict HTTP/1.0\r\n"
                             b"Content-Length: 1000\r\n"
                             b"X-Deadline-S: 0.3\r\n\r\n"
                             b'{"points": [[')
                response = recv_all(sock)
            finally:
                sock.close()
            assert b"408" in response.split(b"\r\n", 1)[0]
            assert b"request_timeout" in response
            assert srv.stats()["counters"]["read_timeouts"] == 1
        finally:
            assert srv.drain_and_stop(drain_s=2.0)

    def test_missing_content_length_is_400(self, model_env):
        _, _, path = model_env
        srv = make_server(path)
        try:
            sock = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=10.0)
            try:
                sock.sendall(b"POST /predict HTTP/1.0\r\n\r\n")
                response = recv_all(sock)
            finally:
                sock.close()
            assert b"400" in response.split(b"\r\n", 1)[0]
            assert b"Content-Length" in response
        finally:
            srv.drain_and_stop(drain_s=2.0)

    def test_oversized_declared_body_is_rejected_unread(self, model_env):
        _, _, path = model_env
        srv = make_server(path, max_body_bytes=1024)
        try:
            status, _, body = post_json(
                srv.port, "/predict", {"points": [[0.0] * 8] * 200})
            assert status == 400
            assert "exceeds" in body["error"]["message"]
        finally:
            srv.drain_and_stop(drain_s=2.0)

    def test_oversized_batch_is_structured_400(self, model_env):
        ds, _, path = model_env
        srv = make_server(path, max_points=10)
        try:
            status, _, body = post_json(
                srv.port, "/predict", {"points": ds.points[:50].tolist()})
            assert status == 400
            assert body["error"]["type"] == "invalid_request"
            assert "at most 10" in body["error"]["message"]
        finally:
            srv.drain_and_stop(drain_s=2.0)


# ---------------------------------------------------------------------------
# kernel faults: the circuit breaker opens, recovers via half-open probe
# ---------------------------------------------------------------------------

class TestCircuitBreakerChaos:
    def test_breaker_opens_on_faults_and_recovers(self, model_env):
        ds, result, path = model_env
        srv = make_server(path, breaker_threshold=2, breaker_reset_s=0.25)
        srv.set_fault(ServeFaultSpec("kernel_error", first=0, times=2))
        try:
            batch = {"points": ds.points[:5].tolist()}
            # the injected crashes surface as structured 500s...
            for _ in range(2):
                status, _, body = post_json(srv.port, "/predict", batch)
                assert status == 500
                assert body["error"]["type"] == "internal"
            assert srv.breaker.state == BREAKER_OPEN
            # ...and the opened breaker rejects before the kernel
            status, headers, body = post_json(srv.port, "/predict", batch)
            assert status == 503
            assert body["error"]["type"] == "circuit_open"
            assert int(headers["Retry-After"]) >= 1
            status, _, body = post_json(srv.port, "/reload", {})  # probe-free
            assert status == 200  # reload is not gated by the breaker
            stats = srv.stats()
            assert stats["counters"]["kernel_failures"] == 2
            assert stats["counters"]["breaker_rejections"] == 1
            # readiness reflects the open circuit
            conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                              timeout=10.0)
            conn.request("GET", "/readyz")
            resp = conn.getresponse()
            ready = json.loads(resp.read())
            conn.close()
            assert resp.status == 503 and ready["reason"] == "circuit_open"
            # after the reset window the half-open probe heals the server
            srv.set_fault(None)
            time.sleep(0.3)
            status, _, body = post_json(srv.port, "/predict", batch)
            assert status == 200
            assert np.array_equal(np.asarray(body["labels"]),
                                  result.labels[:5])
            assert srv.breaker.state == BREAKER_CLOSED
        finally:
            assert srv.drain_and_stop(drain_s=2.0)

    def test_failed_probe_reopens_the_breaker(self, model_env):
        ds, _, path = model_env
        srv = make_server(path, breaker_threshold=1, breaker_reset_s=0.2)
        srv.set_fault(ServeFaultSpec("kernel_error", first=0, times=2))
        try:
            batch = {"points": ds.points[:3].tolist()}
            assert post_json(srv.port, "/predict", batch)[0] == 500
            assert srv.breaker.state == BREAKER_OPEN
            time.sleep(0.25)
            # the half-open probe hits the second injected fault
            assert post_json(srv.port, "/predict", batch)[0] == 500
            assert srv.breaker.state == BREAKER_OPEN
        finally:
            srv.drain_and_stop(drain_s=2.0)

    def test_typed_probe_error_does_not_wedge_half_open(self, model_env):
        # regression: a half-open probe that dies of a *typed* error
        # (here a malformed batch, 400) records neither success nor
        # failure — the probe slot must be abandoned, or the circuit
        # sits in HALF_OPEN rejecting every request until restart
        ds, result, path = model_env
        srv = make_server(path, breaker_threshold=1, breaker_reset_s=0.2)
        srv.set_fault(ServeFaultSpec("kernel_error", first=0, times=1))
        try:
            batch = {"points": ds.points[:3].tolist()}
            assert post_json(srv.port, "/predict", batch)[0] == 500
            assert srv.breaker.state == BREAKER_OPEN
            time.sleep(0.25)
            # the probe is a wrong-dimensionality batch: typed 400
            status, _, body = post_json(srv.port, "/predict",
                                        {"points": [[1.0, 2.0]]})
            assert status == 400
            assert body["error"]["type"] == "invalid_request"
            # the freed probe lets the next good request heal the server
            status, _, body = post_json(srv.port, "/predict", batch)
            assert status == 200
            assert np.array_equal(np.asarray(body["labels"]),
                                  result.labels[:3])
            assert srv.breaker.state == BREAKER_CLOSED
        finally:
            assert srv.drain_and_stop(drain_s=2.0)

    def test_typed_errors_do_not_trip_the_breaker(self, model_env):
        _, _, path = model_env
        srv = make_server(path, breaker_threshold=1)
        try:
            # a malformed query is the client's fault, not the kernel's
            status, _, _ = post_json(srv.port, "/predict",
                                     {"points": [[1.0, 2.0]]})
            assert status == 400
            assert srv.breaker.state == BREAKER_CLOSED
        finally:
            srv.drain_and_stop(drain_s=2.0)

    def test_hung_kernel_is_bounded_by_the_deadline(self, model_env):
        ds, _, path = model_env
        srv = make_server(path, default_deadline_s=0.2, max_deadline_s=10.0)
        srv.set_fault(ServeFaultSpec("kernel_hang", first=0, times=1,
                                     hang_s=0.5))
        try:
            status, _, body = post_json(srv.port, "/predict",
                                        {"points": ds.points[:3].tolist()})
            assert status == 504
            assert body["error"]["type"] == "deadline_exceeded"
            # a slow dependency is not a crash: the breaker stays closed
            assert srv.breaker.state == BREAKER_CLOSED
            assert srv.stats()["counters"]["deadline_exceeded"] == 1
        finally:
            assert srv.drain_and_stop(drain_s=2.0)


# ---------------------------------------------------------------------------
# overload: bounded queue sheds with 429
# ---------------------------------------------------------------------------

class TestLoadShedding:
    def test_saturated_server_sheds_with_429(self, model_env):
        ds, result, path = model_env
        srv = make_server(path, max_concurrency=1, max_queue=0)
        srv.set_fault(ServeFaultSpec("kernel_hang", first=0, times=1,
                                     hang_s=0.8))
        try:
            batch = {"points": ds.points[:5].tolist()}
            first: Dict[str, Any] = {}

            def occupy() -> None:
                status, _, body = post_json(srv.port, "/predict", batch)
                first.update(status=status, body=body)

            holder = threading.Thread(target=occupy)
            holder.start()
            deadline = time.monotonic() + 5.0
            while srv.admission.inflight == 0:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            status, headers, body = post_json(
                srv.port, "/predict", batch,
                headers={"X-Deadline-S": "0.05"})
            assert status == 429
            assert body["error"]["type"] == "overloaded"
            assert headers["Retry-After"] == "1"
            holder.join(timeout=10.0)
            # the admitted request finished normally despite the overload
            assert first["status"] == 200
            assert np.array_equal(np.asarray(first["body"]["labels"]),
                                  result.labels[:5])
            assert srv.stats()["counters"]["shed"] == 1
        finally:
            assert srv.drain_and_stop(drain_s=2.0)


# ---------------------------------------------------------------------------
# graceful drain: in-flight work completes, new work is refused
# ---------------------------------------------------------------------------

class TestGracefulDrain:
    def test_drain_refuses_new_work_and_finishes_in_flight(self, model_env):
        ds, result, path = model_env
        srv = make_server(path, max_concurrency=2)
        srv.set_fault(ServeFaultSpec("kernel_hang", first=0, times=1,
                                     hang_s=0.6))
        try:
            batch = {"points": ds.points[:5].tolist()}
            inflight: Dict[str, Any] = {}

            def slow_request() -> None:
                status, _, body = post_json(srv.port, "/predict", batch)
                inflight.update(status=status, body=body)

            worker = threading.Thread(target=slow_request)
            worker.start()
            deadline = time.monotonic() + 5.0
            while srv.admission.inflight == 0:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            srv.initiate_drain()
            status, _, body = post_json(srv.port, "/predict", batch)
            assert status == 503
            assert body["error"]["type"] == "draining"
            drained = srv.drain_and_stop(drain_s=5.0)
            worker.join(timeout=10.0)
            assert drained, "drain must wait for the in-flight request"
            assert inflight["status"] == 200, "in-flight work was dropped"
            assert np.array_equal(np.asarray(inflight["body"]["labels"]),
                                  result.labels[:5])
        finally:
            srv.drain_and_stop(drain_s=1.0)

    def test_drain_budget_expiry_reports_unclean(self, model_env):
        ds, _, path = model_env
        srv = make_server(path)
        srv.set_fault(ServeFaultSpec("kernel_hang", first=0, times=1,
                                     hang_s=1.0))
        try:
            batch = {"points": ds.points[:3].tolist()}
            worker = threading.Thread(
                target=lambda: post_json(srv.port, "/predict", batch))
            worker.start()
            deadline = time.monotonic() + 5.0
            while srv.admission.inflight == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # a budget far below the hang cannot drain cleanly
            assert srv.drain_and_stop(drain_s=0.05) is False
            worker.join(timeout=10.0)
        finally:
            srv.drain_and_stop(drain_s=2.0)


# ---------------------------------------------------------------------------
# the real signal contract, against a real subprocess
# ---------------------------------------------------------------------------

_CHILD_SCRIPT = """
import sys
from repro.robustness.faults import ServeFaultSpec
from repro.serve import ProclusServer, ServerConfig

server = ProclusServer(
    ServerConfig(port=0, drain_s={drain_s}),
    model_path={model_path!r},
    fault=ServeFaultSpec("kernel_hang", first=0, times=1,
                         hang_s={hang_s}),
)
sys.exit(server.run())
"""


def _spawn_server(tmp_path, model_path: str, *, hang_s: float,
                  drain_s: float) -> Tuple[subprocess.Popen, int]:
    script = tmp_path / "serve_child.py"
    script.write_text(_CHILD_SCRIPT.format(
        model_path=model_path, hang_s=hang_s, drain_s=drain_s))
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.abspath("src") + os.pathsep +
                         env.get("PYTHONPATH", ""))
    proc = subprocess.Popen([sys.executable, str(script)], env=env,
                            stdout=subprocess.PIPE, text=True)
    banner = (proc.stdout.readline() or "").strip()
    assert banner.startswith("listening on "), banner
    return proc, int(banner.rsplit(":", 1)[1].rstrip("/"))


class TestSignalContract:
    def test_sigterm_mid_request_drains_cleanly(self, model_env, tmp_path):
        ds, result, path = model_env
        proc, port = _spawn_server(tmp_path, path, hang_s=0.8, drain_s=10.0)
        try:
            batch = {"points": ds.points[:5].tolist()}
            response: Dict[str, Any] = {}

            def in_flight() -> None:
                status, _, body = post_json(port, "/predict", batch)
                response.update(status=status, body=body)

            worker = threading.Thread(target=in_flight)
            worker.start()
            # signal only once the request is admitted: its 0.8s kernel
            # hang then keeps it in flight through the drain
            deadline = time.monotonic() + 5.0
            while get_json(port, "/stats")[1]["admission"]["inflight"] != 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=10.0)
            code = proc.wait(timeout=10.0)
            assert code == 0, f"drain must exit 0, got {code}"
            assert response["status"] == 200, "in-flight request was dropped"
            assert np.array_equal(np.asarray(response["body"]["labels"]),
                                  result.labels[:5])
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5.0)

    def test_second_signal_hard_exits_130(self, model_env, tmp_path):
        ds, _, path = model_env
        proc, port = _spawn_server(tmp_path, path, hang_s=8.0, drain_s=30.0)
        try:
            batch = {"points": ds.points[:3].tolist()}

            def doomed_request() -> None:
                # the hard exit kills the connection mid-request; any
                # transport error here is the expected outcome
                try:
                    post_json(port, "/predict", batch, timeout=3.0)
                except OSError:
                    pass

            worker = threading.Thread(target=doomed_request, daemon=True)
            worker.start()
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)  # starts a very long drain
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)  # impatient operator
            code = proc.wait(timeout=5.0)
            assert code == 130
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5.0)
