"""The evaluation service: routing, admission control, shared cache.

One :class:`EvalServer` owns the resources every request shares:

* a process-wide content-hash :class:`~repro.engine.cache.EvalCache`
  (optionally JSONL-backed), so a config any client evaluated before is
  never modeled again;
* a report-text memo keyed on the record's content hash, so a warm
  ``POST /evaluate`` re-renders nothing;
* hits answered on the event loop: ``POST /evaluate`` keys its config
  once and looks it up in the cache (and its report text in the memo);
  a stored answer is returned right there, and only a miss goes on to
  admission and the evaluation pool;
* a bounded admission queue for evaluations — at most ``concurrency``
  run at once, at most ``queue_limit`` wait; beyond that the server
  answers ``503`` with ``Retry-After`` instead of building unbounded
  backlog, while hits are still answered;
* a per-request timeout (``504`` on expiry; the admission slot is
  released so the pool stays healthy);
* per-request trace ids that ride the :mod:`repro.obs` span hierarchy —
  run the server with instrumentation on and every span of a request's
  evaluation hangs under its ``serve.request`` span.

Endpoints::

    GET  /healthz          liveness + queue occupancy
    GET  /metrics          metrics-registry snapshot (cache hit rates,
                           memo counters, serve request counters; with
                           instrumentation on, the serve.stage.*
                           histograms of /evaluate: parse, lookup,
                           admission, evaluate, encode)
    POST /evaluate         one config -> EvalRecord (+ report text,
                           on by default); every answer is exact
    POST /sweep            SweepSpec grid -> batched results; with
                           {"async": true} returns a job id instead;
                           {"backend": "numpy"|"auto"} opts into the
                           vectorized batch backend (scalar default)
    GET  /jobs/<id>        async sweep status/result (the newest
                           finished jobs are kept; older ones 404)

Evaluations run on a small thread pool behind the event loop. Model
evaluation is pure CPU-bound Python, so threads interleave rather than
parallelize; real fan-out comes from the engine's fork pool (``jobs``)
*inside* a sweep request. The shared cache and the fast-path memos are
safe under this interleaving (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro import fastpath, obs
from repro.chip import REPORT_DEPTH, Processor, render_report_text
from repro.config import presets
from repro.config.loader import system_config_from_dict
from repro.config.schema import SystemConfig
from repro.engine import (
    CACHE_CAPACITY,
    EvalCache,
    EvalRecord,
    SweepSpec,
    config_key,
    evaluate_many,
    run_sweep,
)
from repro.perf import SPLASH2_PROFILES
from repro.perf.workload import Workload
from repro.serve.http import (
    HttpError,
    HttpRequest,
    encode_json,
    error_body,
    read_request,
    write_response,
)

#: Extra executor threads beyond the admission limit, so evaluations
#: stranded by a client-facing timeout (their thread keeps running to
#: completion) never starve freshly admitted requests.
_EXECUTOR_HEADROOM = 4

#: ``Retry-After`` seconds suggested to clients bounced by admission.
RETRY_AFTER_S = 1.0

#: Finished async sweep jobs (done or failed) kept, with their results,
#: for ``GET /jobs/<id>``; finishing one more drops the oldest, whose
#: id then answers 404. Queued and running jobs are always kept.
_FINISHED_JOBS_KEPT = 128


def _int_field(
    payload: Mapping[str, Any], name: str, default: int, minimum: int,
) -> int:
    """``payload[name]`` (or ``default``) as an integer ``>= minimum``.

    JSON ``true``/``false`` are not integers here, although Python's
    ``bool`` is an ``int`` subclass.

    Raises:
        HttpError: 400 naming the field on any other value.
    """
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) \
            or value < minimum:
        raise HttpError(400, f"'{name}' must be an integer >= {minimum}")
    return value


def _bool_field(
    payload: Mapping[str, Any], name: str, default: bool,
) -> bool:
    """``payload[name]`` as a boolean; ``default`` when absent or null.

    Raises:
        HttpError: 400 naming the field on any other value.
    """
    value = payload.get(name)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise HttpError(400, f"'{name}' must be a boolean")
    return value


def _str_field(payload: Mapping[str, Any], name: str) -> str | None:
    """``payload[name]`` as a string, or ``None`` when absent or null.

    Raises:
        HttpError: 400 naming the field on any other value.
    """
    value = payload.get(name)
    if value is not None and not isinstance(value, str):
        raise HttpError(400, f"'{name}' must be a string")
    return value


def _report_text(config: SystemConfig, depth: int) -> str:
    """The report text ``/evaluate`` serves for ``config``: a function
    of its own, so the cache-key soundness pass sees what the report
    memo's values are computed from."""
    return render_report_text(Processor(config), max_depth=depth) + "\n"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance.

    Attributes:
        host: Bind address.
        port: TCP port (0 = ephemeral, see ``EvalServer.port``).
        concurrency: Evaluations allowed to run at once.
        queue_limit: Evaluations allowed to wait for a slot; beyond
            this the server answers 503 with ``Retry-After``. A cache
            hit takes no slot and never waits.
        timeout_s: Per-request wall-clock budget (504 on expiry).
        jobs: Engine worker processes available to one sweep request.
        cache_entries: In-memory capacity of the shared result cache.
        cache_path: Optional JSONL file backing the shared cache.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    concurrency: int = 4
    queue_limit: int = 16
    timeout_s: float = 60.0
    jobs: int = 1
    cache_entries: int = CACHE_CAPACITY
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be within 0-65535, got {self.port}")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        # Written so NaN fails: ``nan > 0`` is False.
        if not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s!r}"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cache_entries < 1:
            raise ValueError("cache_entries must be >= 1")


class _Job:
    """Mutable state of one async sweep job."""

    __slots__ = ("job_id", "status", "result", "error", "submitted_s")

    def __init__(self, job_id: str, submitted_s: float) -> None:
        self.job_id = job_id
        self.status = "queued"
        self.result: Any = None
        self.error: str | None = None
        self.submitted_s = submitted_s

    def to_dict(self, now_s: float) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "job_id": self.job_id,
            "status": self.status,
            "age_s": max(0.0, now_s - self.submitted_s),
        }
        if self.status == "done":
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class EvalServer:
    """The long-running evaluation service (see module docstring).

    Args:
        config: Server tunables.
        cache: Shared result cache; built from ``config`` when omitted.
            Pass one explicitly to share a cache with in-process callers
            (tests).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: EvalCache | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else EvalCache(
            max_entries=self.config.cache_entries,
            path=self.config.cache_path,
        )
        self._report_memo = fastpath.Memo("serve.report_text",
                                          max_entries=256)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency + _EXECUTOR_HEADROOM,
            thread_name_prefix="serve-eval",
        )
        self._semaphore = asyncio.Semaphore(self.config.concurrency)
        self._waiting = 0
        self._active = 0
        self._request_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._jobs: dict[str, _Job] = {}
        self._finished_job_ids: collections.deque[str] = collections.deque()
        self._job_tasks: set[asyncio.Task[None]] = set()
        self._counters: dict[str, float] = {}
        self._started_s = time.monotonic()
        self._server: asyncio.AbstractServer | None = None
        # The open client connections, closed at shutdown: since Python
        # 3.12 an asyncio server's wait_closed() waits for every one,
        # idle kept-alive connections included.
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self.handle_connection, host=self.config.host,
            port=self.config.port,
        )
        return self._server

    @property
    def port(self) -> int:
        """The actually bound TCP port (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        port: int = self._server.sockets[0].getsockname()[1]
        return port

    async def serve_forever(self) -> None:
        """Start and serve until cancelled."""
        await self.start()
        await self.serve_until(asyncio.Event())

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve a started server until ``stop`` is set or the task is
        cancelled; then close it and wait for its connections to drop."""
        if self._server is None:
            raise RuntimeError("server is not started")
        async with self._server:
            try:
                await stop.wait()
            finally:
                self.close()

    def close(self) -> None:
        """Stop accepting connections, close the open ones and shut the
        evaluation pool down. With connections open, call it on the
        event loop's thread."""
        if self._server is not None:
            self._server.close()
        for writer in self._writers:
            writer.close()
        self._writers.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- connection / dispatch ------------------------------------------

    async def handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one (possibly keep-alive) client connection."""
        self._count("serve.connections")
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    await write_response(
                        writer, exc.status,
                        error_body(exc.status, exc.message),
                        headers=exc.headers, keep_alive=False,
                    )
                    return
                if request is None:
                    return
                status, body, headers = await self._dispatch(request)
                await write_response(
                    writer, status, body,
                    headers=headers, keep_alive=request.keep_alive,
                )
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop shutdown cancels in-flight teardown; the socket
                # is closed either way.
                pass

    async def _dispatch(
        self, request: HttpRequest,
    ) -> tuple[int, bytes, tuple[tuple[str, str], ...]]:
        """Route one request; never raises."""
        trace_id = (
            request.headers.get("x-trace-id")
            or f"req-{next(self._request_ids):06d}"
        )
        self._count("serve.requests")
        started_s = time.perf_counter()
        extra_headers: tuple[tuple[str, str], ...] = ()
        with obs.span(
            "serve.request", category="serve",
            trace_id=trace_id, method=request.method, path=request.path,
        ):
            try:
                status, payload = await self._route(request, trace_id)
                encode_s = time.perf_counter()
                body = encode_json(payload)
                if request.path == "/evaluate":
                    obs.observe("serve.stage.encode_s",
                                time.perf_counter() - encode_s)
            except HttpError as exc:
                status = exc.status
                body = error_body(status, exc.message, trace_id=trace_id)
                extra_headers = exc.headers
            except asyncio.TimeoutError:
                status = 504
                self._count("serve.timeouts")
                body = error_body(
                    status,
                    f"evaluation exceeded the "
                    f"{self.config.timeout_s:g} s request budget",
                    trace_id=trace_id,
                )
            except Exception as exc:  # never kill the connection loop
                status = 500
                self._count("serve.errors")
                body = error_body(
                    status, f"{type(exc).__name__}: {exc}",
                    trace_id=trace_id,
                )
        obs.observe("serve.request_s", time.perf_counter() - started_s)
        self._count(f"serve.responses.{status}")
        headers = (("X-Trace-Id", trace_id),) + extra_headers
        return status, body, headers

    async def _route(
        self, request: HttpRequest, trace_id: str,
    ) -> tuple[int, Any]:
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, self._healthz_payload()
        if path == "/metrics":
            self._require(method, "GET", path)
            return 200, self.metrics_payload()
        if path == "/evaluate":
            self._require(method, "POST", path)
            return 200, await self._handle_evaluate(request, trace_id)
        if path == "/sweep":
            self._require(method, "POST", path)
            return await self._handle_sweep(request, trace_id)
        if path.startswith("/jobs/"):
            self._require(method, "GET", path)
            return 200, self._handle_job(path[len("/jobs/"):])
        raise HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(
                405, f"{path} only accepts {expected}",
                headers=(("Allow", expected),),
            )

    def _count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    # -- admission -------------------------------------------------------

    async def _admitted(
        self, work: Callable[[], Any], stages: bool = False,
    ) -> Any:
        """Run ``work`` on the evaluation pool under admission control.

        With ``stages``, the wait for a slot is observed in
        ``serve.stage.admission_s`` and the run in
        ``serve.stage.evaluate_s`` (an ``/evaluate`` miss).

        Raises:
            HttpError: 503 when the wait queue is full.
            asyncio.TimeoutError: When the request budget expires; the
                admission slot is released (the stranded worker thread
                finishes on its own — see ``_EXECUTOR_HEADROOM``).
        """
        started_s = time.perf_counter()
        if self._semaphore.locked() and \
                self._waiting >= self.config.queue_limit:
            self._count("serve.rejected")
            raise HttpError(
                503,
                f"admission queue is full "
                f"({self._active} running, {self._waiting} waiting); "
                f"retry shortly",
                headers=(("Retry-After", f"{RETRY_AFTER_S:g}"),),
            )
        self._waiting += 1
        try:
            await self._semaphore.acquire()
        finally:
            self._waiting -= 1
        self._active += 1
        admitted_s = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(self._executor, work),
                self.config.timeout_s,
            )
        finally:
            self._active -= 1
            self._semaphore.release()
            if stages:
                obs.observe("serve.stage.admission_s",
                            admitted_s - started_s)
                obs.observe("serve.stage.evaluate_s",
                            time.perf_counter() - admitted_s)

    # -- request parsing -------------------------------------------------

    def _parse_config(
        self, payload: Mapping[str, Any],
    ) -> SystemConfig:
        """A config from a request body: ``preset`` name or inline dict."""
        preset = _str_field(payload, "preset")
        inline = payload.get("config")
        if (preset is None) == (inline is None):
            raise HttpError(
                400, "provide exactly one of 'preset' or 'config'"
            )
        if preset is not None:
            factory = presets.VALIDATION_PRESETS.get(preset)
            if factory is None:
                known = ", ".join(presets.VALIDATION_PRESETS)
                raise HttpError(
                    400, f"unknown preset {preset!r} (known: {known})"
                )
            return factory()
        if not isinstance(inline, Mapping):
            raise HttpError(400, "'config' must be a JSON object")
        try:
            return system_config_from_dict(dict(inline))
        except (KeyError, TypeError, ValueError) as exc:
            raise HttpError(
                400, f"malformed config: {exc!r}"
            ) from exc

    @staticmethod
    def _parse_workload(
        payload: Mapping[str, Any],
    ) -> Workload | None:
        name = _str_field(payload, "workload")
        if name is None:
            return None
        profile = SPLASH2_PROFILES.get(name)
        if profile is None:
            known = ", ".join(SPLASH2_PROFILES)
            raise HttpError(
                400, f"unknown workload {name!r} (known: {known})"
            )
        return profile

    # -- endpoints -------------------------------------------------------

    def _healthz_payload(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_s,
            "active_requests": self._active,
            "queued_requests": self._waiting,
            "concurrency": self.config.concurrency,
            "queue_limit": self.config.queue_limit,
        }

    def metrics_payload(self) -> dict[str, Any]:
        """The metrics-registry snapshot plus serve/cache counters.

        Always meaningful: cache and memo counters are maintained by
        their owners whether or not :mod:`repro.obs` instrumentation is
        enabled; span histograms appear only when it is.
        """
        snap = obs.snapshot(
            extra_counters={**self._counters, **self.cache.counters()},
        )
        payload = snap.to_dict()
        payload["uptime_s"] = time.monotonic() - self._started_s
        payload["active_requests"] = self._active
        payload["queued_requests"] = self._waiting
        return payload

    def _evaluate_work(
        self,
        config: SystemConfig,
        workload: Workload | None,
        key: str,
        record: EvalRecord | None,
        report_key: tuple[str, int] | None,
        report_text: str | None,
        parent_span_id: int | None,
    ) -> tuple[EvalRecord, str | None]:
        """Executor-side body of one ``/evaluate`` miss.

        Evaluates the config unless its ``record`` was found, and
        renders the report text when ``report_key`` asks for one unless
        it was found. ``key`` is ``config_key(config, workload)`` and
        ``report_key`` is ``(key, depth)``, each looked up once, on the
        loop.
        """
        with obs.attach(parent_span_id):
            if record is None:
                record = evaluate_many(
                    [config], workload=workload, jobs=1, cache=None,
                )[0]
                self.cache.put(key, record)
            if report_key is not None and report_text is None:
                report_text = _report_text(config, report_key[1])
                self._report_memo.put(report_key, report_text)
        return record, report_text

    async def _handle_evaluate(
        self, request: HttpRequest, trace_id: str,
    ) -> dict[str, Any]:
        """Answer from the shared cache and the report-text memo on the
        loop; only a miss takes an admission slot and a pool thread."""
        started_s = time.perf_counter()
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise HttpError(400, "request body must be a JSON object")
        config = self._parse_config(payload)
        workload = self._parse_workload(payload)
        want_report = _bool_field(payload, "report", True)
        depth = _int_field(payload, "depth", REPORT_DEPTH, 0)
        parsed_s = time.perf_counter()
        obs.observe("serve.stage.parse_s", parsed_s - started_s)
        try:
            key = config_key(config, workload)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        record = self.cache.get(key)
        report_key = (key, depth) if want_report else None
        report_text = None
        if report_key is not None:
            report_text = self._report_memo.lookup(report_key)
        obs.observe("serve.stage.lookup_s", time.perf_counter() - parsed_s)
        if record is None or (report_key is not None
                               and report_text is None):
            parent_span_id = obs.current_span_id()
            try:
                record, report_text = await self._admitted(
                    lambda: self._evaluate_work(
                        config, workload, key, record, report_key,
                        report_text, parent_span_id,
                    ),
                    stages=True,
                )
            except ValueError as exc:
                raise HttpError(400, str(exc)) from exc
        self._count("serve.evaluations")
        response: dict[str, Any] = {
            "trace_id": trace_id,
            "record": record.to_dict(),
            "from_cache": record.from_cache,
        }
        if report_text is not None:
            response["report_text"] = report_text
        return response

    def _sweep_work(
        self,
        spec: SweepSpec,
        workload: Workload | None,
        jobs: int,
        backend: str,
        parent_span_id: int | None,
    ) -> dict[str, Any]:
        """Executor-side body of one ``/sweep`` request."""
        with obs.attach(parent_span_id):
            results = run_sweep(
                spec, workload=workload, jobs=jobs, cache=self.cache,
                backend=backend,
            )
        return {
            "n_points": len(results),
            "points": [
                {
                    "overrides": result.overrides,
                    "record": result.record.to_dict(),
                    "from_cache": result.record.from_cache,
                }
                for result in results
            ],
        }

    async def _handle_sweep(
        self, request: HttpRequest, trace_id: str,
    ) -> tuple[int, dict[str, Any]]:
        payload = request.json()
        if not isinstance(payload, Mapping):
            raise HttpError(400, "request body must be a JSON object")
        base = self._parse_config(payload)
        workload = self._parse_workload(payload)
        axes = payload.get("axes")
        if not isinstance(axes, Mapping) or not axes or not all(
            isinstance(values, list) for values in axes.values()
        ):
            raise HttpError(
                400, "'axes' must be a non-empty object of "
                     "{axis name: [values...]}"
            )
        jobs = min(_int_field(payload, "jobs", 1, 1), self.config.jobs)
        backend = payload.get("backend", "scalar")
        if backend not in ("auto", "scalar", "numpy"):
            raise HttpError(
                400, "'backend' must be one of: auto, scalar, numpy"
            )
        run_async = _bool_field(payload, "async", False)
        try:
            spec = SweepSpec.from_axes(base, dict(axes))
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc

        parent_span_id = obs.current_span_id()
        if not run_async:
            try:
                result = await self._admitted(
                    lambda: self._sweep_work(
                        spec, workload, jobs, backend, parent_span_id,
                    ),
                )
            except ValueError as exc:
                raise HttpError(400, str(exc)) from exc
            self._count("serve.sweeps")
            result["trace_id"] = trace_id
            return 200, result

        job = _Job(
            f"job-{next(self._job_ids):06d}",
            submitted_s=time.monotonic(),
        )
        self._jobs[job.job_id] = job
        task = asyncio.get_running_loop().create_task(
            self._run_job(
                job, spec, workload, jobs, backend, parent_span_id,
            ),
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        self._count("serve.jobs_submitted")
        return 202, {
            "trace_id": trace_id,
            "job_id": job.job_id,
            "status": job.status,
        }

    async def _run_job(
        self,
        job: _Job,
        spec: SweepSpec,
        workload: Workload | None,
        jobs: int,
        backend: str,
        parent_span_id: int | None,
    ) -> None:
        """Drive one async sweep job through the same admission path."""
        try:
            job.status = "running"
            job.result = await self._admitted(
                lambda: self._sweep_work(
                    spec, workload, jobs, backend, parent_span_id,
                ),
            )
            job.status = "done"
        except HttpError as exc:
            job.status = "error"
            job.error = exc.message
        except asyncio.TimeoutError:
            job.status = "error"
            job.error = (
                f"sweep exceeded the {self.config.timeout_s:g} s budget"
            )
        except Exception as exc:
            job.status = "error"
            job.error = f"{type(exc).__name__}: {exc}"
        self._finished_job_ids.append(job.job_id)
        while len(self._finished_job_ids) > _FINISHED_JOBS_KEPT:
            del self._jobs[self._finished_job_ids.popleft()]

    def _handle_job(self, job_id: str) -> dict[str, Any]:
        job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job.to_dict(now_s=time.monotonic())


async def _serve_main(server: EvalServer) -> None:
    await server.serve_forever()


def serve_forever(
    config: ServeConfig | None = None,
    cache: EvalCache | None = None,
) -> None:
    """Run a server in the foreground until interrupted (CLI entry)."""
    server = EvalServer(config, cache=cache)
    try:
        asyncio.run(_serve_main(server))
    finally:
        server.close()
