"""Run an :class:`~repro.serve.app.EvalServer` on a background thread.

The test suite and the benchmark's server process both need a real
listening server inside one Python process — same-process servers
keep the shared :class:`~repro.engine.cache.EvalCache` and the fast-path
memos inspectable (and monkeypatchable) from the test body. The context
manager owns a daemon thread running a private event loop::

    with BackgroundServer(ServeConfig(port=0)) as server:
        with server.client() as client:
            client.evaluate(preset="niagara1")

Binding to port 0 picks a free ephemeral port; ``server.port`` reports
the real one. Stopping the server closes every connection still open,
and the clients :meth:`BackgroundServer.client` made.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from repro.engine import EvalCache
from repro.serve.app import EvalServer, ServeConfig
from repro.serve.client import ServeClient


class BackgroundServer:
    """Context manager: a live server on a daemon thread.

    Args:
        config: Server tunables; defaults to an ephemeral port on
            localhost.
        cache: Optional shared cache, for tests that want to inspect or
            pre-warm it.
        startup_timeout_s: How long to wait for the socket to bind.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: EvalCache | None = None,
        startup_timeout_s: float = 10.0,
    ) -> None:
        self.config = config or ServeConfig(port=0)
        self.server = EvalServer(self.config, cache=cache)
        self.startup_timeout_s = startup_timeout_s
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._clients: list[ServeClient] = []

    # -- lifecycle -------------------------------------------------------

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to the starting thread
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until(self._stop)

    def start(self) -> "BackgroundServer":
        """Start the server thread and wait for the socket to bind."""
        self._thread = threading.Thread(
            target=self._run, name="serve-background", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout_s):
            raise RuntimeError("background server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                "background server failed to start"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Shut the server down, join its thread and close the clients
        :meth:`client` made.

        Raises:
            RuntimeError: If the server thread is still running after
                the join timeout (10 s).
        """
        thread = self._thread
        if self._loop is not None and thread is not None:
            # Signal once: a second stop() after a failed join only joins,
            # and never schedules on a loop that may have closed since.
            stop, self._stop = self._stop, None
            if thread.is_alive() and stop is not None:
                self._loop.call_soon_threadsafe(stop.set)
            thread.join(timeout=10.0)
            if thread.is_alive():
                raise RuntimeError(
                    "background server thread did not exit within 10 s"
                )
        self._thread = None
        self._loop = None
        for client in self._clients:
            client.close()
        self._clients.clear()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- conveniences ----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self.server.port

    @property
    def cache(self) -> EvalCache:
        """The server's shared result cache."""
        return self.server.cache

    def client(self, timeout_s: float = 120.0) -> ServeClient:
        """A client pointed at this server, kept until :meth:`stop`
        closes it."""
        client = ServeClient(
            host=self.config.host, port=self.port, timeout_s=timeout_s,
        )
        self._clients.append(client)
        return client
