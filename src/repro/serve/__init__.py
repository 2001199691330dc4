"""McPAT as a long-running async evaluation service.

McPAT was designed to be driven repeatedly by external performance
simulators over an XML interface; this package is that interface for the
reproduction, shaped for sustained traffic instead of one-shot CLI
invocations: a stdlib-only HTTP/JSON service over asyncio streams that
batches concurrent requests onto the existing :mod:`repro.engine`
machinery and shares **one process-wide content-hash result cache**
across every client, so nothing is ever modeled twice.

Pieces:

* :mod:`repro.serve.app` — :class:`EvalServer` (routes, admission queue,
  per-request timeouts and trace ids, shared
  :class:`~repro.engine.cache.EvalCache`) and :class:`ServeConfig`.
* :mod:`repro.serve.http` — minimal HTTP/1.1 framing over asyncio
  streams (no ``http.server``).
* :mod:`repro.serve.client` — pure-stdlib :class:`ServeClient`, used by
  the tests and the benchmark.
* :mod:`repro.serve.background` — :class:`BackgroundServer`, a live
  in-process server on a daemon thread for tests/benchmarks.

Start one from the CLI with ``mcpat-repro serve``, or in code::

    from repro.serve import ServeConfig, serve_forever

    serve_forever(ServeConfig(port=8080, concurrency=4))

The benchmark's ``serve_mixed`` workload measures it
(``python3 benchmarks/suite/run.py --workload serve_mixed --seed 1
--seconds 10``): request time in reference units, and traced, server
p50/p99 and the cache hit ratio.
"""

from __future__ import annotations

from repro.serve.app import (
    RETRY_AFTER_S,
    EvalServer,
    ServeConfig,
    serve_forever,
)
from repro.serve.background import BackgroundServer
from repro.serve.client import ServeClient, ServeError
from repro.serve.http import HttpError, HttpRequest

__all__ = [
    "RETRY_AFTER_S",
    "BackgroundServer",
    "EvalServer",
    "HttpError",
    "HttpRequest",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "serve_forever",
]
