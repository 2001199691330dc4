"""Pure-stdlib client for the evaluation service.

Used by the test suite and the benchmark, and small enough to
paste into an external simulator harness: one class over
:mod:`http.client`, JSON in, JSON out, with service errors surfaced as
:class:`ServeError` (carrying the HTTP status and any ``Retry-After``
hint) instead of raw socket plumbing.

A client keeps its HTTP/1.1 connections alive: a request takes an idle
connection (or opens one) and gives it back after a complete response,
so a closed loop of requests pays for one TCP connection, not one per
request. Threads may share a client; each request in flight holds its
own connection. :meth:`ServeClient.close` (or leaving a ``with`` block)
closes the idle connections. A request goes out in one write, its head
and body together.

Example::

    from repro.serve.client import ServeClient

    with ServeClient(port=8080) as client:
        result = client.evaluate(preset="niagara2")
    print(result["record"]["tdp_w"], "W")
    print(result["report_text"])          # == `mcpat-repro report` output
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Mapping, Sequence


class _Connection(http.client.HTTPConnection):
    """An :class:`http.client.HTTPConnection` that sends a request's
    head and its ``bytes`` body in one write.

    The stock connection sends them in two, so a server on the same CPU
    wakes once for the head and again for the body.
    """

    def _send_output(
        self, message_body: Any = None, encode_chunked: bool = False,
    ) -> None:
        if not isinstance(message_body, bytes) or encode_chunked:
            super()._send_output(message_body, encode_chunked)
            return
        self._buffer.extend((b"", message_body))
        message = b"\r\n".join(self._buffer)
        del self._buffer[:]
        self.send(message)


class ServeError(RuntimeError):
    """A non-2xx service response.

    Attributes:
        status: HTTP status code.
        detail: The service's error detail text.
        retry_after_s: Parsed ``Retry-After`` header (None if absent).
    """

    def __init__(
        self,
        status: int,
        detail: str,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail
        self.retry_after_s = retry_after_s


class ServeClient:
    """Talk to one :class:`~repro.serve.app.EvalServer`.

    Args:
        host: Server address.
        port: Server port.
        timeout_s: Socket timeout for one request/response exchange.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout_s: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        # Connections with no request in flight. Only list.pop() and
        # list.append() touch it, each atomic, so threads sharing the
        # client need no lock and their requests stay concurrent.
        self._idle: list[http.client.HTTPConnection] = []

    # -- connections -----------------------------------------------------

    def close(self) -> None:
        """Close the idle connections (a later request opens a new one)."""
        while True:
            try:
                connection = self._idle.pop()
            except IndexError:
                return
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _connect(self) -> http.client.HTTPConnection:
        return _Connection(self.host, self.port, timeout=self.timeout_s)

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """Send one request over an idle or new connection; read the
        whole response.

        A kept connection that fails before any response arrives was
        closed by the server while idle: the request goes once more over
        a new connection. A failure on a new connection raises.
        """
        try:
            connection = self._idle.pop()
            reused = True
        except IndexError:
            connection = self._connect()
            reused = False
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            self._idle.append(connection)
        return response, raw

    # -- plumbing --------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """One JSON round trip; raises :class:`ServeError` on non-2xx."""
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        response, raw = self._exchange(method, path, body, headers)
        status = response.status
        retry_after_raw = response.getheader("Retry-After")
        response_headers = {
            name.lower(): value for name, value in response.getheaders()
        }
        try:
            decoded = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            decoded = {"detail": raw.decode("utf-8", "replace")}
        if status >= 400:
            retry_after_s = None
            if retry_after_raw is not None:
                try:
                    retry_after_s = float(retry_after_raw)
                except ValueError:
                    retry_after_s = None
            raise ServeError(
                status,
                str(decoded.get("detail", decoded)),
                retry_after_s=retry_after_s,
            )
        if not isinstance(decoded, dict):
            raise ServeError(status, f"non-object response: {decoded!r}")
        decoded["_status"] = status
        decoded["_headers"] = response_headers
        return decoded

    # -- endpoints -------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """Liveness probe (``GET /healthz``)."""
        return self.request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """Metrics snapshot (``GET /metrics``)."""
        return self.request("GET", "/metrics")

    def evaluate(
        self,
        preset: str | None = None,
        config: Mapping[str, Any] | None = None,
        workload: str | None = None,
        report: bool | None = None,
        depth: int | None = None,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Evaluate one architecture config (``POST /evaluate``).

        Args:
            preset: A validation preset name (``niagara1``, ...).
            config: Inline config dict (exclusive with ``preset``), in
                :func:`repro.config.loader.system_config_to_dict` form.
            workload: Optional SPLASH-2 profile name for runtime metrics.
            report: Include the McPAT-style ``report_text`` breakdown
                (server default: yes).
            depth: Report-tree depth (server default when None).
            trace_id: Propagate a caller-chosen trace id.
        """
        payload: dict[str, Any] = {}
        if report is not None:
            payload["report"] = report
        if preset is not None:
            payload["preset"] = preset
        if config is not None:
            payload["config"] = dict(config)
        if workload is not None:
            payload["workload"] = workload
        if depth is not None:
            payload["depth"] = depth
        return self.request(
            "POST", "/evaluate", payload, trace_id=trace_id,
        )

    def sweep(
        self,
        axes: Mapping[str, Sequence[Any]],
        preset: str | None = None,
        config: Mapping[str, Any] | None = None,
        workload: str | None = None,
        jobs: int = 1,
        backend: str | None = None,
        background: bool = False,
        trace_id: str | None = None,
    ) -> dict[str, Any]:
        """Batch-evaluate a parameter grid (``POST /sweep``).

        ``backend`` selects the evaluation path (``"scalar"`` default;
        ``"numpy"``/``"auto"`` opt into the vectorized batch backend).
        With ``background=True`` the server answers immediately with a
        ``job_id``; poll it with :meth:`job` or :meth:`wait_job`.
        """
        payload: dict[str, Any] = {
            "axes": {name: list(values) for name, values in axes.items()},
            "jobs": jobs,
            "async": background,
        }
        if preset is not None:
            payload["preset"] = preset
        if config is not None:
            payload["config"] = dict(config)
        if workload is not None:
            payload["workload"] = workload
        if backend is not None:
            payload["backend"] = backend
        return self.request("POST", "/sweep", payload, trace_id=trace_id)

    def job(self, job_id: str) -> dict[str, Any]:
        """Status of one async sweep job (``GET /jobs/<id>``)."""
        return self.request("GET", f"/jobs/{job_id}")

    def wait_job(
        self,
        job_id: str,
        poll_interval_s: float = 0.05,
        timeout_s: float = 120.0,
    ) -> dict[str, Any]:
        """Poll a job until it finishes.

        Returns:
            The final job payload (``status`` is ``done`` or ``error``).

        Raises:
            TimeoutError: When the job is still running after
                ``timeout_s``.
        """
        deadline_s = time.monotonic() + timeout_s
        while True:
            state = self.job(job_id)
            if state.get("status") in ("done", "error"):
                return state
            if time.monotonic() >= deadline_s:
                raise TimeoutError(
                    f"job {job_id} still {state.get('status')!r} after "
                    f"{timeout_s:g} s"
                )
            time.sleep(poll_interval_s)
