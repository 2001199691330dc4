"""Integration tests for the evaluation service.

Every test runs a real listening server (``BackgroundServer``) inside
this process and talks to it through the pure-stdlib
:class:`~repro.serve.client.ServeClient` — the same path external
clients use. Slow/queue-shape tests monkeypatch the engine entry point
inside :mod:`repro.serve.app`, so they exercise admission control and
timeouts without paying for real model builds.
"""

import http.client
import json
import socket
import socketserver
import threading
import time

import pytest

from repro import obs
from repro.config import presets
from repro.config.loader import system_config_to_dict
from repro.engine import (
    EvalCache,
    EvalRecord,
    config_key,
    evaluate_many,
    run_sweep,
)
from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeConfig,
    ServeError,
)

from tests.config.test_schema import (
    MODEL_CONSTRAINT_VARIANTS,
    niagara1_variant,
)
from tests.conftest import make_tiny_config


def tiny_dict(**overrides):
    return system_config_to_dict(make_tiny_config(**overrides))


def fake_record(config) -> EvalRecord:
    return EvalRecord(
        name=config.name, key="fake", area_mm2=1.0, tdp_w=1.0,
        peak_dynamic_w=0.8, leakage_w=0.2, core_area_mm2=0.5,
        core_peak_dynamic_w=0.4, core_leakage_w=0.1,
    )


def sleepy_evaluate_many(sleep_s: float):
    """A fake ``evaluate_many`` sleeping for configs named ``slow*``."""

    def fake(configs, workload=None, jobs=1, cache=None, backend=None):
        if configs[0].name.startswith("slow"):
            time.sleep(sleep_s)
        return [fake_record(config) for config in configs]

    return fake


class TestServeConfig:
    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan")])
    def test_timeout_must_be_positive(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be positive"):
            ServeConfig(timeout_s=timeout_s)

    def test_cache_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="cache_entries must be >= 1"):
            ServeConfig(cache_entries=0)

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_port_must_be_a_tcp_port(self, port):
        with pytest.raises(ValueError, match="port must be within 0-65535"):
            ServeConfig(port=port)

    def test_an_infinite_timeout_serves(self):
        config = ServeConfig(port=0, timeout_s=float("inf"))
        with BackgroundServer(config) as server, server.client() as client:
            served = client.evaluate(config=tiny_dict(), report=False)
        offline = evaluate_many([make_tiny_config()], cache=None)[0]
        assert EvalRecord.from_dict(served["record"]) == offline


class TestBasicEndpoints:
    def test_healthz(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["uptime_s"] >= 0.0
                assert health["concurrency"] == server.config.concurrency

    def test_unknown_path_404(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request("GET", "/nope")
                assert exc.value.status == 404

    def test_wrong_method_405(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request("GET", "/evaluate")
                assert exc.value.status == 405

    def test_unknown_preset_400(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(preset="pentium-nope")
                assert exc.value.status == 400
                assert "unknown preset" in exc.value.detail

    def test_preset_and_config_are_exclusive(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request(
                        "POST", "/evaluate",
                        {"preset": "niagara1", "config": tiny_dict()},
                    )
                assert exc.value.status == 400

    def test_malformed_body_400(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10,
            )
            try:
                connection.request("POST", "/evaluate", body=b"{nope")
                response = connection.getresponse()
                assert response.status == 400
                response.read()
            finally:
                connection.close()

    def test_unknown_job_404(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.job("job-999999")
                assert exc.value.status == 404

    def test_keep_alive_connection_reuse(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10,
            )
            try:
                for _ in range(3):
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    assert response.status == 200
                    response.read()
            finally:
                connection.close()


class TestEvaluate:
    def test_round_trip_matches_offline_engine(self):
        config = make_tiny_config()
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                served = client.evaluate(
                    config=system_config_to_dict(config), report=False,
                )
        offline = evaluate_many([config], cache=None)[0]
        assert EvalRecord.from_dict(served["record"]) == offline
        assert served["from_cache"] is False

    def test_warm_repeat_served_from_shared_cache(self):
        payload = tiny_dict()
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                first = client.evaluate(config=payload, report=False)
                second = client.evaluate(config=payload, report=False)
                metrics = client.metrics()
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert second["record"] == first["record"]
        counters = metrics["counters"]
        assert counters["engine.cache.hits"] >= 1.0
        assert counters["engine.cache.misses"] >= 1.0

    def test_metrics_hit_counter_increases_on_repeat(self):
        payload = tiny_dict(name="metrics-case")
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                client.evaluate(config=payload, report=False)
                before = client.metrics()["counters"]["engine.cache.hits"]
                client.evaluate(config=payload, report=False)
                after = client.metrics()["counters"]["engine.cache.hits"]
        assert after == before + 1.0

    def test_report_text_memoized_on_warm_repeat(self):
        payload = tiny_dict(name="report-case")
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                first = client.evaluate(config=payload)
                second = client.evaluate(config=payload)
                counters = client.metrics()["counters"]
        assert first["report_text"] == second["report_text"]
        assert counters["memo.serve.report_text.hits"] >= 1.0

    @pytest.mark.usefixtures("fresh_batch_state")
    def test_report_miss_builds_the_parts_once(self):
        # The evaluation builds the chip's parts; the render finds them.
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                served = client.evaluate(config=tiny_dict(name="parts-once"))
                counters = client.metrics()["counters"]
        assert served["report_text"]
        assert counters["memo.chip.parts.misses"] == pytest.approx(1.0)
        assert counters["memo.chip.parts.hits"] == pytest.approx(1.0)

    def test_workload_round_trip(self):
        config = make_tiny_config()
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                served = client.evaluate(
                    config=system_config_to_dict(config),
                    workload="fft", report=False,
                )
        assert served["record"]["runtime_s"] is not None
        offline = evaluate_many(
            [config], workload=None, cache=None,
        )[0]
        assert served["record"]["tdp_w"] == pytest.approx(offline.tdp_w)

    def test_unknown_workload_400(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(
                        config=tiny_dict(), workload="not-a-benchmark",
                    )
                assert exc.value.status == 400

    def test_unserializable_config_400_names_field(self):
        # A config that deserializes but carries a bad inline value is
        # caught earlier by schema validation; the engine-level error
        # path is covered in tests/engine. Here: malformed inline config.
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(config={"name": "broken"})
                assert exc.value.status == 400
                assert "malformed config" in exc.value.detail

    def test_ill_typed_leaf_400_names_field(self):
        payload = system_config_to_dict(presets.niagara1())
        payload["l2"]["banks"] = 4.0
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(config=payload, report=False)
        assert exc.value.status == 400
        assert "config.l2.banks: expected int" in exc.value.detail

    def test_model_constraints_400_name_the_field(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                for path, value, message in MODEL_CONSTRAINT_VARIANTS:
                    with pytest.raises(ServeError) as exc:
                        client.evaluate(
                            config=niagara1_variant(path, value), report=False,
                        )
                    assert exc.value.status == 400, path
                    assert message in exc.value.detail, path
                assert len(server.server.cache) == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_config_float_400_names_field(self, value):
        # The client sends the NaN/Infinity literals Python's json reads.
        payload = tiny_dict(clock_hz=2.0e9)
        payload["memory_controller"]["peak_transfer_rate_mts"] = value
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(config=payload, report=False)
                assert exc.value.status == 400
                assert "peak_transfer_rate_mts" in exc.value.detail
                assert len(server.server.cache) == 0

    @pytest.mark.parametrize("field, value", [
        ("report", "false"),
        ("depth", True),
    ])
    def test_bad_request_field_400_names_it(self, field, value):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request(
                        "POST", "/evaluate",
                        {"config": tiny_dict(), field: value},
                    )
        assert exc.value.status == 400
        assert f"'{field}'" in exc.value.detail

    @pytest.mark.parametrize("body, field", [
        ({"preset": ["niagara1"]}, "preset"),
        ({"preset": "niagara1", "workload": ["barnes"]}, "workload"),
    ])
    def test_non_string_name_400_names_it(self, body, field):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request("POST", "/evaluate", body)
        assert exc.value.status == 400
        assert f"'{field}' must be a string" in exc.value.detail

    def test_restarted_server_answers_from_its_cache_log(self, tmp_path):
        config = ServeConfig(
            port=0, cache_path=str(tmp_path / "cache.jsonl"),
        )
        with BackgroundServer(config) as server:
            with server.client() as client:
                first = client.evaluate(config=tiny_dict(), report=False)
        with BackgroundServer(config) as server:
            with server.client() as client:
                again = client.evaluate(config=tiny_dict(), report=False)
        assert first["from_cache"] is False
        assert again["from_cache"] is True
        assert again["record"] == first["record"]

    def test_old_approximate_request_body_answered_exactly(self):
        # Bodies of older clients may still ask for approximate answers;
        # the service ignores those keys and answers exactly. The point
        # is a preset at a nearby clock, served first so that the exact
        # request after it is a cache hit on the same key.
        config = presets.niagara1()
        payload = system_config_to_dict(config)
        payload["clock_hz"] = config.clock_hz * 1.05
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                old = client.request("POST", "/evaluate", {
                    "config": payload, "exact": False, "rel_tol": 0.02,
                    "report": False,
                })
                exact = client.evaluate(config=payload, report=False)
        assert old["_status"] == 200
        assert old["record"] == exact["record"]
        assert exact["from_cache"] is True
        assert "tier" not in old and "tier" not in exact

    def test_client_trace_id_round_trips(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                served = client.evaluate(
                    config=tiny_dict(), report=False, trace_id="trace-42",
                )
        assert served["trace_id"] == "trace-42"

    def test_request_span_carries_trace_id(self):
        obs.reset()
        obs.enable()
        try:
            with BackgroundServer(ServeConfig(port=0)) as server:
                with server.client() as client:
                    client.evaluate(
                        config=tiny_dict(), report=False, trace_id="span-1",
                    )
            spans = [s for s in obs.spans() if s.name == "serve.request"]
            assert any(
                s.attrs.get("trace_id") == "span-1" for s in spans
            )
            # The evaluation's own spans hang under the request span.
            request_ids = {
                s.span_id for s in spans
                if s.attrs.get("trace_id") == "span-1"
            }
            children = [
                s for s in obs.spans()
                if s.parent_id in request_ids
            ]
            assert children, "no child spans under serve.request"
        finally:
            obs.disable()
            obs.reset()


class TestSweep:
    def test_sync_sweep_matches_grid(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                result = client.sweep(
                    axes={"cores": [1, 2]}, config=tiny_dict(),
                )
        assert result["n_points"] == 2
        overrides = [point["overrides"] for point in result["points"]]
        assert overrides == [{"cores": 1}, {"cores": 2}]

    def test_sweep_unknown_axis_400(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.sweep(
                        axes={"warp_drives": [1, 2]}, config=tiny_dict(),
                    )
                assert exc.value.status == 400
                assert "warp_drives" in exc.value.detail

    def test_async_sweep_job_lifecycle(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                submitted = client.sweep(
                    axes={"cores": [1, 2]}, config=tiny_dict(),
                    background=True,
                )
                assert submitted["_status"] == 202
                assert submitted["status"] in ("queued", "running")
                final = client.wait_job(submitted["job_id"])
        assert final["status"] == "done"
        assert final["result"]["n_points"] == 2

    def test_only_the_newest_finished_jobs_are_kept(self, monkeypatch):
        monkeypatch.setattr("repro.serve.app._FINISHED_JOBS_KEPT", 2)
        release = threading.Event()

        def gated(spec, **kwargs):
            if spec.base.name.startswith("slow"):
                release.wait(timeout=30)
            return run_sweep(spec, **kwargs)

        monkeypatch.setattr("repro.serve.app.run_sweep", gated)
        with BackgroundServer(ServeConfig(port=0, concurrency=2)) as server:
            with server.client() as client:
                def submit(name):
                    return client.sweep(
                        axes={"cores": [1]}, config=tiny_dict(name=name),
                        background=True,
                    )["job_id"]

                running = submit("slow")
                finished = []
                for i in range(4):
                    finished.append(submit(f"fast-{i}"))
                    assert client.wait_job(finished[-1])["status"] == "done"
                for job_id in finished[:2]:
                    with pytest.raises(ServeError) as exc:
                        client.job(job_id)
                    assert exc.value.status == 404
                    assert "unknown job" in exc.value.detail
                assert [client.job(j)["status"] for j in finished[2:]] == [
                    "done", "done",
                ]
                # Never dropped while running, however many finish meanwhile.
                assert client.job(running)["status"] == "running"
                release.set()
                assert client.wait_job(running)["status"] == "done"
                with pytest.raises(ServeError) as exc:
                    client.job(finished[2])
                assert exc.value.status == 404
                assert client.job(finished[3])["status"] == "done"

    def test_sweep_points_shared_with_evaluate_cache(self):
        """A sweep fills the same cache /evaluate reads from."""
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                client.sweep(axes={"cores": [1, 2]}, config=tiny_dict())
                served = client.evaluate(config=tiny_dict(), report=False)
        assert served["from_cache"] is True

    def test_sweep_backend_request_round_trips(self):
        from repro import batch

        axes = {"clock_hz": [1.0e9, 1.1e9, 1.2e9, 1.3e9]}
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                result = client.sweep(
                    axes=axes, config=tiny_dict(), backend="auto",
                )
                metrics = client.metrics()
        assert result["n_points"] == 4
        tdps = [p["record"]["tdp_w"] for p in result["points"]]
        assert tdps == sorted(tdps)  # TDP grows with frequency
        if batch.have_numpy():
            assert metrics["counters"]["batch.points_vectorized"] >= 4

    @pytest.mark.parametrize("body, field", [
        ({"axes": {"n_cores": [0]}}, "n_cores"),
        ({"axes": {"clock_hz": [-1.0]}}, "clock_hz"),
        ({"axes": {"n_cores": [2.5]}}, "n_cores"),
        ({"axes": {"cores": [1, 2]}, "jobs": True}, "jobs"),
        ({"axes": {"cores": [1, 2]}, "async": "false"}, "async"),
        ({"axes": {"cores": 2}}, "axes"),
    ])
    def test_sync_sweep_bad_value_400_names_it(self, body, field):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.request(
                        "POST", "/sweep", {"preset": "niagara1", **body},
                    )
        assert exc.value.status == 400
        assert field in exc.value.detail

    def test_sweep_invalid_backend_400(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.sweep(
                        axes={"cores": [1, 2]}, config=tiny_dict(),
                        backend="warp",
                    )
        assert exc.value.status == 400
        assert "backend" in exc.value.detail


class TestAdmissionControl:
    def test_queue_saturation_returns_503_with_retry_after(
        self, monkeypatch,
    ):
        monkeypatch.setattr(
            "repro.serve.app.evaluate_many", sleepy_evaluate_many(0.6),
        )
        config = ServeConfig(
            port=0, concurrency=1, queue_limit=1, timeout_s=30.0,
        )
        statuses: list[int] = []
        retry_hints: list[float] = []
        lock = threading.Lock()

        def fire(client, name):
            try:
                client.evaluate(
                    config=tiny_dict(name=name), report=False,
                )
                with lock:
                    statuses.append(200)
            except ServeError as exc:
                with lock:
                    statuses.append(exc.status)
                    if exc.retry_after_s is not None:
                        retry_hints.append(exc.retry_after_s)

        with BackgroundServer(config) as server:
            client = server.client()
            threads = [
                threading.Thread(
                    target=fire, args=(client, f"slow-{i}"),
                )
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = client.metrics()

        assert statuses.count(200) >= 2
        assert statuses.count(503) >= 1
        assert statuses.count(200) + statuses.count(503) == 4
        assert retry_hints and all(hint > 0 for hint in retry_hints)
        assert metrics["counters"]["serve.rejected"] >= 1.0

    def test_timeout_returns_504_and_pool_stays_healthy(
        self, monkeypatch,
    ):
        monkeypatch.setattr(
            "repro.serve.app.evaluate_many", sleepy_evaluate_many(1.0),
        )
        config = ServeConfig(
            port=0, concurrency=1, queue_limit=4, timeout_s=0.2,
        )
        with BackgroundServer(config) as server:
            with server.client() as client:
                with pytest.raises(ServeError) as exc:
                    client.evaluate(
                        config=tiny_dict(name="slow-one"), report=False,
                    )
                assert exc.value.status == 504
                # The stranded worker thread must not wedge the service:
                # a fresh (fast) request is admitted and served.
                healthy = client.evaluate(
                    config=tiny_dict(name="quick"), report=False,
                )
                assert healthy["record"]["name"] == "quick"
                metrics = client.metrics()
        assert metrics["counters"]["serve.timeouts"] >= 1.0
        assert metrics["counters"]["serve.responses.504"] >= 1.0


def _wait_for(predicate, timeout_s=10.0):
    deadline_s = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline_s, "condition never held"
        time.sleep(0.01)


def _warm_cache(*configs):
    """A cache holding the real records of ``configs``."""
    cache = EvalCache()
    evaluate_many(list(configs), cache=cache)
    return cache


def _lookups(counters):
    return counters["engine.cache.hits"] + counters["engine.cache.misses"]


class TestHitPath:
    """A stored answer is served on the event loop: no admission slot,
    no pool thread."""

    def test_saturated_server_still_answers_a_hit(self, monkeypatch):
        warm = make_tiny_config(name="warm")
        cache = _warm_cache(warm)
        monkeypatch.setattr(
            "repro.serve.app.evaluate_many", sleepy_evaluate_many(1.0),
        )
        config = ServeConfig(
            port=0, concurrency=1, queue_limit=0, timeout_s=30.0,
        )
        held: list[dict] = []
        with BackgroundServer(config, cache=cache) as server:
            client = server.client()
            holder = threading.Thread(target=lambda: held.append(
                client.evaluate(config=tiny_dict(name="slow-hold"),
                                report=False),
            ))
            holder.start()
            try:
                _wait_for(lambda: client.healthz()["active_requests"] == 1)
                hit = client.evaluate(
                    config=system_config_to_dict(warm), report=False,
                )
                with pytest.raises(ServeError) as exc:
                    client.evaluate(
                        config=tiny_dict(name="cold"), report=False,
                    )
            finally:
                holder.join()
        assert hit["_status"] == 200 and hit["from_cache"] is True
        assert hit["record"]["key"] == config_key(warm)
        assert exc.value.status == 503
        assert held and held[0]["from_cache"] is False

    def test_an_empty_queue_limit_admits_into_a_free_slot(self):
        config = ServeConfig(port=0, concurrency=1, queue_limit=0)
        with BackgroundServer(config) as server:
            with server.client() as client:
                served = client.evaluate(
                    config=tiny_dict(name="free-slot"), report=False,
                )
        assert served["from_cache"] is False

    def test_a_hit_never_reaches_the_pool(self, monkeypatch):
        warm = make_tiny_config(name="warm")
        cache = _warm_cache(warm)

        def unreachable(*args, **kwargs):
            raise AssertionError("a cache hit reached the evaluation pool")

        monkeypatch.setattr("repro.serve.app.evaluate_many", unreachable)
        with BackgroundServer(ServeConfig(port=0), cache=cache) as server:
            with server.client() as client:
                served = client.evaluate(
                    config=system_config_to_dict(warm), report=False,
                )
        assert served["from_cache"] is True
        assert EvalRecord.from_dict(served["record"]) == cache.get(
            config_key(warm))

    def test_a_warm_report_is_served_with_the_pool_shut_down(self):
        payload = tiny_dict(name="report-warm")
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                first = client.evaluate(config=payload)
                server.server._executor.shutdown(wait=True)
                second = client.evaluate(config=payload)
                # A miss still needs the pool, which is gone.
                with pytest.raises(ServeError) as exc:
                    client.evaluate(config=tiny_dict(name="report-cold"))
        assert second["from_cache"] is True
        assert second["report_text"] == first["report_text"]
        assert exc.value.status == 500

    def test_one_lookup_per_request(self):
        payload = tiny_dict(name="one-lookup")
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                steps = [
                    (False, False),  # a miss
                    (False, True),   # a hit
                    (True, True),    # a hit whose report is a miss
                    (True, True),    # a hit with its report
                ]
                before = client.metrics()["counters"]
                for report, from_cache in steps:
                    served = client.evaluate(config=payload, report=report)
                    after = client.metrics()["counters"]
                    assert _lookups(after) == _lookups(before) + 1.0
                    assert served["from_cache"] is from_cache
                    before = after
        assert after["engine.cache.misses"] == pytest.approx(1.0)
        assert after["memo.serve.report_text.misses"] == pytest.approx(1.0)
        assert after["memo.serve.report_text.hits"] == pytest.approx(1.0)

    @pytest.mark.parametrize("instrumented", [True, False])
    def test_stage_histograms(self, instrumented):
        obs.reset()
        if instrumented:
            obs.enable()
        try:
            with BackgroundServer(ServeConfig(port=0)) as server:
                with server.client() as client:
                    for _ in range(2):  # a miss, then a hit
                        client.evaluate(
                            config=tiny_dict(name="stages"), report=False,
                        )
                    histograms = client.metrics()["histograms"]
        finally:
            obs.disable()
            obs.reset()
        stages = {
            name: histogram["count"]
            for name, histogram in histograms.items()
            if name.startswith("serve.stage.")
        }
        if not instrumented:
            assert stages == {}
            return
        assert stages == {
            "serve.stage.parse_s": 2.0,
            "serve.stage.lookup_s": 2.0,
            "serve.stage.admission_s": 1.0,
            "serve.stage.evaluate_s": 1.0,
            "serve.stage.encode_s": 2.0,
        }


class TestKeepAliveRobustness:
    """A poisoned keep-alive connection must not wedge the server."""

    @staticmethod
    def _recv_response(sock, leftover=b""):
        """Read one HTTP response; returns (status, remaining bytes)."""
        data = leftover
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        status = int(head.split(b"\r\n", 1)[0].split()[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = sock.recv(4096)
            if not chunk:
                break
            rest += chunk
        return status, rest[length:]

    def test_malformed_second_request_gets_400_and_clean_close(self):
        import json as _json
        import socket

        with BackgroundServer(ServeConfig(port=0)) as server:
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            try:
                # A real evaluation first, so an admission slot cycles
                # through this very connection.
                body = _json.dumps(
                    {"config": tiny_dict(name="keepalive-case"),
                     "report": False},
                ).encode()
                sock.sendall(
                    b"POST /evaluate HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                status, rest = self._recv_response(sock)
                assert status == 200
                # Then garbage on the same keep-alive connection.
                sock.sendall(b"TOTAL GARBAGE\r\n\r\n")
                status, rest = self._recv_response(sock, rest)
                assert status == 400
                # The server closes its side: EOF, not a hang.
                assert sock.recv(4096) == b""
            finally:
                sock.close()
            # The listener stays healthy and the slot was returned.
            with server.client() as client:
                health = client.healthz()
            assert health["status"] == "ok"
            assert health["active_requests"] == 0
            assert health["queued_requests"] == 0


class _OneRequestHandler(socketserver.StreamRequestHandler):
    """Answers one request, then closes the connection without having
    said ``Connection: close``, as a server that drops idle
    connections does."""

    def handle(self):
        self.server.accepted += 1
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        body = b'{"status": "ok"}'
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )


class _OneRequestServer(socketserver.TCPServer):
    def __init__(self):
        super().__init__(("127.0.0.1", 0), _OneRequestHandler)
        self.accepted = 0
        self.port = self.server_address[1]
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._thread.start()

    def server_close(self):
        self.shutdown()
        self._thread.join()
        super().server_close()


def _unused_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConnectionReuse:
    def test_sequential_requests_share_one_connection(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            with server.client() as client:
                for _ in range(20):
                    client.evaluate(config=tiny_dict(), report=False)
                counters = client.metrics()["counters"]
        assert counters["serve.connections"] == pytest.approx(1.0)
        assert counters["serve.requests"] == pytest.approx(21.0)

    def test_a_request_goes_out_in_one_write(self, monkeypatch):
        writes = []
        client_thread = threading.get_ident()
        sendall = socket.socket.sendall

        def counted(sock, data, *args):
            if threading.get_ident() == client_thread:
                writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with _OneRequestServer() as stub, \
                ServeClient(port=stub.port) as client:
            client.request("POST", "/evaluate", {"preset": "niagara1"})
        (request,) = writes
        head, _, body = request.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /evaluate HTTP/1.1\r\n")
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"preset": "niagara1"}

    def test_connection_closed_by_the_server_is_replaced(self):
        with _OneRequestServer() as stub, \
                ServeClient(port=stub.port) as client:
            for _ in range(3):
                assert client.healthz()["status"] == "ok"
            assert stub.accepted == 3

    def test_refused_new_connection_raises(self):
        with ServeClient(port=_unused_port(), timeout_s=5) as client:
            with pytest.raises(ConnectionRefusedError):
                client.healthz()

    def test_refused_replacement_connection_raises(self):
        with ServeClient(timeout_s=5) as client:
            with _OneRequestServer() as stub:
                client.port = stub.port
                client.healthz()
            # The kept connection is closed and nothing listens anymore.
            with pytest.raises(ConnectionRefusedError):
                client.healthz()


class TestShutdown:
    def test_stop_closes_idle_kept_connections(self):
        server = BackgroundServer(ServeConfig(port=0)).start()
        thread = server._thread
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10,
        )
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
            started_s = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started_s < 2.0
            assert not thread.is_alive()
        finally:
            connection.close()

    def test_stop_closes_the_clients_it_made(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            client = server.client()
            client.healthz()
            assert len(client._idle) == 1
        assert client._idle == []

    def test_stop_raises_while_the_thread_runs(self, monkeypatch):
        server = BackgroundServer(ServeConfig(port=0)).start()
        release = threading.Event()
        server._loop.call_soon_threadsafe(release.wait)  # wedge the loop
        monkeypatch.setattr(server._thread, "join", lambda timeout: None)
        try:
            with pytest.raises(RuntimeError, match="did not exit"):
                server.stop()
        finally:
            release.set()
            monkeypatch.undo()
        # The thread was not forgotten: stopping again joins it.
        thread = server._thread
        server.stop()
        assert not thread.is_alive()
