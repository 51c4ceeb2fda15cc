"""The serving stack under normal operation: unit + integration tests.

Chaos scenarios (injected kernel faults, slow-loris clients, signal
drains) live in ``test_serve_chaos.py``; this file covers the breaker
and admission state machines in isolation (injected clocks, no sleeps)
and the HTTP contract of a healthy server.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np
import pytest

from repro.core import predict as predict_module
from repro.core.predict import FittedModel
from repro.core.proclus import proclus
from repro.core.serialization import save_result
from repro.exceptions import ParameterError, ServeError
from repro.obs import Tracer, use_tracer, validate_trace_lines
from repro.serve import (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN,
                         AdmissionController, CircuitBreaker, PredictClient,
                         ProclusServer, RetryPolicy, ServerConfig)


# ---------------------------------------------------------------------------
# circuit breaker (injected clock: deterministic, sleep-free)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = FakeClock()
        return CircuitBreaker(failure_threshold=threshold,
                              reset_after_s=reset, clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()

    def test_success_resets_the_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_opens_on_the_monotonic_timer(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        clock.now += 9.9
        assert breaker.state == BREAKER_OPEN
        clock.now += 0.2
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_grants_exactly_one_probe(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.now += 2.0
        assert breaker.allow()
        assert not breaker.allow()

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.now += 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.now += 2.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.retry_after_s() == pytest.approx(1.0)

    def test_abandoned_probe_frees_the_slot(self):
        # a probe that ends in a typed error (no kernel verdict) must
        # release the half-open slot, or the circuit wedges forever
        breaker, clock = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.now += 2.0
        assert breaker.allow()
        assert not breaker.allow()
        breaker.abandon_probe()
        assert breaker.state == BREAKER_HALF_OPEN  # state unchanged
        assert breaker.allow()  # the probe is available again
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED

    def test_abandon_probe_outside_half_open_is_a_no_op(self):
        breaker, _ = self.make()
        breaker.abandon_probe()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_retry_after_counts_down(self):
        breaker, clock = self.make(threshold=1, reset=10.0)
        breaker.record_failure()
        clock.now += 4.0
        assert breaker.retry_after_s() == pytest.approx(6.0)

    def test_snapshot_is_json_friendly(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == BREAKER_OPEN
        json.dumps(snap)

    def test_validates_parameters(self):
        with pytest.raises(ParameterError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ParameterError):
            CircuitBreaker(reset_after_s=-1.0)


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def test_admits_up_to_concurrency(self):
        gate = AdmissionController(max_concurrency=2, max_queue=0)
        assert gate.acquire() and gate.acquire()
        assert gate.inflight == 2

    def test_sheds_immediately_when_queue_is_zero(self):
        gate = AdmissionController(max_concurrency=1, max_queue=0)
        assert gate.acquire()
        assert not gate.acquire()
        assert gate.snapshot()["shed_total"] == 1

    def test_sheds_on_queue_wait_timeout(self):
        gate = AdmissionController(max_concurrency=1, max_queue=1)
        assert gate.acquire()
        assert not gate.acquire(timeout_s=0.05)

    def test_release_unblocks_a_waiter(self):
        gate = AdmissionController(max_concurrency=1, max_queue=1)
        assert gate.acquire()
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(gate.acquire(timeout_s=5.0)))
        waiter.start()
        while gate.queued == 0:
            pass
        gate.release()
        waiter.join(timeout=5.0)
        assert got == [True]

    def test_unbalanced_release_is_an_error(self):
        gate = AdmissionController()
        with pytest.raises(ParameterError):
            gate.release()

    def test_wait_idle_is_the_drain_barrier(self):
        gate = AdmissionController(max_concurrency=1, max_queue=0)
        assert gate.wait_idle(0.01)
        assert gate.acquire()
        assert not gate.wait_idle(0.05)
        gate.release()
        assert gate.wait_idle(0.05)

    def test_validates_parameters(self):
        with pytest.raises(ParameterError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ParameterError):
            AdmissionController(max_queue=-1)


class TestServerConfig:
    def test_rejects_bad_port(self):
        with pytest.raises(ParameterError):
            ServerConfig(port=70000)

    def test_rejects_default_deadline_above_cap(self):
        with pytest.raises(ParameterError):
            ServerConfig(default_deadline_s=30.0, max_deadline_s=5.0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ParameterError):
            ServerConfig(on_bad_values="explode")


# ---------------------------------------------------------------------------
# HTTP contract of a healthy in-process server
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_env(tmp_path_factory):
    from repro.data import generate
    ds = generate(400, 8, 3, cluster_dim_counts=[3, 3, 4],
                  outlier_fraction=0.05, seed=77)
    result = proclus(ds.points, 3, 4.0, seed=77)
    path = save_result(result, tmp_path_factory.mktemp("serve") / "model.npz")
    return ds, result, str(path)


@pytest.fixture
def server(model_env):
    _, _, path = model_env
    srv = ProclusServer(ServerConfig(port=0, default_deadline_s=5.0,
                                     max_deadline_s=10.0),
                        model_path=path).start()
    yield srv
    srv.drain_and_stop(drain_s=2.0)


def raw_request(port: int, method: str, path: str,
                body: Optional[bytes] = None,
                headers: Optional[Dict[str, str]] = None,
                ) -> Tuple[int, Dict[str, str], Dict[str, Any]]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        raw = resp.read()
        try:
            body = json.loads(raw) if raw else {}
        except ValueError:
            # http.server answers unknown verbs itself, with HTML
            body = {"_raw": raw.decode("utf-8", "replace")}
        return resp.status, dict(resp.getheaders()), body
    finally:
        conn.close()


def post_json(port: int, path: str, obj: Any,
              headers: Optional[Dict[str, str]] = None):
    return raw_request(port, "POST", path, json.dumps(obj).encode("utf-8"),
                       headers)


class TestHTTPContract:
    def test_healthz_and_readyz(self, server):
        status, _, body = raw_request(server.port, "GET", "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, _, body = raw_request(server.port, "GET", "/readyz")
        assert (status, body["ready"]) == (200, True)

    def test_served_labels_bit_identical_to_local(self, model_env, server):
        ds, result, _ = model_env
        status, _, body = post_json(server.port, "/predict",
                                    {"points": ds.points.tolist()})
        assert status == 200
        assert np.array_equal(np.asarray(body["labels"]), result.labels)
        assert body["model"]["fingerprint"]
        assert body["n_points"] == ds.n_points

    def test_wrong_dimensionality_is_structured_400(self, server):
        status, _, body = post_json(server.port, "/predict",
                                    {"points": [[1.0, 2.0]]})
        assert status == 400
        assert body["error"]["type"] == "invalid_request"
        assert "d=8" in body["error"]["message"]

    def test_nan_under_raise_policy_is_400(self, server):
        status, _, body = post_json(
            server.port, "/predict", {"points": [[None] * 8]})
        assert status == 400
        assert body["error"]["type"] == "invalid_request"

    def test_nan_with_drop_policy_labels_minus_one(self, server):
        status, _, body = post_json(
            server.port, "/predict",
            {"points": [[None] * 8], "on_bad_values": "drop"})
        assert status == 200
        assert body["labels"] == [-1]
        assert body["warnings"]

    def test_unknown_policy_is_400(self, server):
        status, _, body = post_json(
            server.port, "/predict",
            {"points": [[0.0] * 8], "on_bad_values": "explode"})
        assert status == 400

    def test_invalid_json_is_400_not_500(self, server):
        status, _, body = raw_request(
            server.port, "POST", "/predict", b"{not json",
            {"Content-Length": "9"})
        assert status == 400
        assert body["error"]["type"] == "invalid_json"

    def test_missing_points_key_is_400(self, server):
        status, _, body = post_json(server.port, "/predict", {"rows": []})
        assert status == 400
        assert "points" in body["error"]["message"]

    def test_empty_body_is_400(self, server):
        # http.client supplies Content-Length: 0; the empty body must be
        # rejected as invalid JSON, not crash the handler
        status, _, body = raw_request(server.port, "POST", "/predict")
        assert status == 400
        assert body["error"]["type"] == "invalid_json"

    def test_bad_deadline_header_is_400(self, server):
        status, _, body = post_json(server.port, "/predict",
                                    {"points": [[0.0] * 8]},
                                    {"X-Deadline-S": "soon"})
        assert status == 400

    def test_unknown_route_and_method(self, server):
        status, _, _ = raw_request(server.port, "GET", "/nope")
        assert status == 404
        status, _, _ = raw_request(server.port, "PUT", "/predict")
        assert status in (405, 501)  # 501 is http.server's own unknown-verb

    def test_stats_counts_requests(self, server):
        post_json(server.port, "/predict", {"points": [[0.0] * 8]})
        status, _, body = raw_request(server.port, "GET", "/stats")
        assert status == 200
        assert body["counters"]["requests"] >= 1
        assert body["breaker"]["state"] == BREAKER_CLOSED
        assert body["model"]["loaded"] is True

    def test_reload_swaps_and_bad_path_is_rejected(self, model_env, server):
        _, _, path = model_env
        status, _, body = post_json(server.port, "/reload", {"path": path})
        assert status == 200 and body["reloaded"] is True
        status, _, body = post_json(server.port, "/reload",
                                    {"path": path + ".missing"})
        assert status == 400
        assert body["error"]["type"] == "bad_model"
        # the good model keeps serving after the failed reload
        status, _, _ = post_json(server.port, "/predict",
                                 {"points": [[0.0] * 8]})
        assert status == 200

    def test_model_less_server_is_not_ready(self):
        srv = ProclusServer(ServerConfig(port=0)).start()
        try:
            status, _, body = raw_request(srv.port, "GET", "/readyz")
            assert (status, body["reason"]) == (503, "no_model")
            status, _, body = post_json(srv.port, "/predict",
                                        {"points": [[0.0]]})
            assert (status, body["error"]["type"]) == (503, "no_model")
        finally:
            srv.drain_and_stop(drain_s=1.0)

    def test_traced_serving_bit_identical_and_schema_valid(
            self, model_env, tmp_path):
        ds, result, path = model_env
        untraced_srv = ProclusServer(ServerConfig(port=0),
                                     model_path=path).start()
        try:
            _, _, untraced = post_json(untraced_srv.port, "/predict",
                                       {"points": ds.points.tolist()})
        finally:
            untraced_srv.drain_and_stop(drain_s=2.0)
        tracer = Tracer()
        with use_tracer(tracer):
            traced_srv = ProclusServer(ServerConfig(port=0),
                                       model_path=path).start()
            try:
                _, _, traced = post_json(traced_srv.port, "/predict",
                                         {"points": ds.points.tolist()})
            finally:
                traced_srv.drain_and_stop(drain_s=2.0)
        assert traced["labels"] == untraced["labels"]
        assert np.array_equal(np.asarray(traced["labels"]), result.labels)
        records = list(tracer.iter_records())
        spans = [r for r in records if r.get("name") == "serve.request"]
        assert spans and all(r["attrs"]["status"] == 200 for r in spans)
        counters = next(r["values"] for r in records
                        if r.get("type") == "counters")
        assert counters["serve.requests"] >= 1
        assert counters["serve.predicted_points"] == ds.n_points
        trace_path = tracer.write_jsonl(tmp_path / "serve.jsonl")
        with open(trace_path, encoding="utf-8") as fh:
            validate_trace_lines(fh)

    def test_double_start_is_a_typed_error(self, server):
        with pytest.raises(ServeError):
            server.start()


# ---------------------------------------------------------------------------
# retrying client
# ---------------------------------------------------------------------------

class TestModelPreparedOncePerLoad:
    """``/predict`` runs on the model ``ModelStore.load`` prepared."""

    PREPARATION = ("check_array", "normalize_dimension_sets",
                   "spheres_of_influence", "segmental_layout")

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("build",) + self.PREPARATION, 0)

        def counting(name, real):
            def spy(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return spy

        for name in self.PREPARATION:
            monkeypatch.setattr(predict_module, name, counting(
                name, getattr(predict_module, name)))
        monkeypatch.setattr(FittedModel, "build", classmethod(counting(
            "build", FittedModel.build.__func__)))
        return counts

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_built_once_per_load_and_bit_identical(self, tmp_path, counts,
                                                   dtype):
        from repro.data import generate
        ds = generate(600, 8, 3, cluster_dim_counts=[3, 3, 4],
                      outlier_fraction=0.05, seed=78)
        result = proclus(ds.points[:400], 3, 4.0, seed=78, dtype=dtype)
        path = str(save_result(result, tmp_path / "model.npz"))
        clean = ds.points[400:]
        dirty = clean.copy()
        dirty[::25, 2] = np.nan
        requests = [(policy, batch, result.predict(
            batch, on_bad_values=policy).tolist()) for policy, batch in (
            ("raise", clean), ("drop", dirty), ("raise", clean))]
        counts.update(dict.fromkeys(counts, 0))
        srv = ProclusServer(ServerConfig(port=0), model_path=path).start()
        try:
            for policy, batch, expected in requests:
                points = [[None if np.isnan(v) else float(v) for v in row]
                          for row in batch]
                status, _, body = post_json(
                    srv.port, "/predict",
                    {"points": points, "on_bad_values": policy})
                assert status == 200
                assert body["labels"] == expected
            assert counts == dict.fromkeys(counts, 1)
            status, _, _ = post_json(srv.port, "/reload", {})
            assert status == 200
            post_json(srv.port, "/predict", {"points": clean.tolist()})
            assert counts == dict.fromkeys(counts, 2)
        finally:
            srv.drain_and_stop(drain_s=2.0)


class TestPredictClient:
    def test_round_trip(self, model_env, server):
        ds, result, _ = model_env
        client = PredictClient(port=server.port, seed=1)
        labels = np.asarray(client.predict(ds.points)["labels"])
        assert np.array_equal(labels, result.labels)
        assert client.healthz()["status"] == "ok"
        assert client.ready()
        assert client.stats()["model"]["loaded"] is True

    def test_400_raises_parameter_error_without_retry(self, server):
        client = PredictClient(port=server.port, seed=1)
        with pytest.raises(ParameterError):
            client.predict([[1.0, 2.0]])
        assert server.stats()["counters"]["invalid_requests"] == 1

    def test_connection_refused_exhausts_retries(self):
        # bind-then-close guarantees a dead port
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = PredictClient(
            port=dead_port, seed=1,
            policy=RetryPolicy(max_attempts=2, base_backoff_s=0.01))
        with pytest.raises(ServeError, match="2 attempt"):
            client.predict([[0.0]])
        assert not client.ready()

    def test_garbled_response_is_typed_and_retried(self):
        # a non-HTTP reply raises http.client.BadStatusLine, which is
        # not an OSError — the client must still treat it as a transport
        # failure: retry it, then fail with a typed ServeError
        import socket
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(5)
        port = listener.getsockname()[1]
        served = {"n": 0}
        stop = threading.Event()

        def garble() -> None:
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                with conn:
                    served["n"] += 1
                    conn.recv(65536)
                    conn.sendall(b"!!not http!!\r\n")

        thread = threading.Thread(target=garble, daemon=True)
        thread.start()
        try:
            client = PredictClient(
                port=port, seed=1,
                policy=RetryPolicy(max_attempts=2, base_backoff_s=0.01))
            with pytest.raises(ServeError, match="2 attempt"):
                client.predict([[0.0]])
            assert served["n"] == 2, "the garbled reply must be retried"
        finally:
            stop.set()
            listener.close()
            thread.join(timeout=5.0)

    def test_total_deadline_caps_retries(self):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = PredictClient(
            port=dead_port, seed=1,
            policy=RetryPolicy(max_attempts=50, base_backoff_s=0.2,
                               total_deadline_s=0.3))
        with pytest.raises(ServeError, match="deadline"):
            client.predict([[0.0]])

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ParameterError):
            PredictClient(request_timeout_s=0.0)
