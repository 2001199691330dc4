"""Evaluation server for the serve_mixed workload, in its own process.

Binds an ephemeral port, prints ``port <N>`` on stdout, and serves until
its stdin closes. Lines on stdin control tracing, each answered with
``ok`` on stdout:

* ``trace on`` / ``trace off`` start and stop recording ``repro.obs``
  spans (detail tier), so the harness can read the server side of the
  requests of a traced stretch;
* ``spans PATH`` writes the spans recorded so far to PATH as JSONL.

Run::

    python benchmarks/suite/serve_child.py
"""

from __future__ import annotations

import sys

from harness import require_src


def main() -> int:
    require_src()
    from repro import obs
    from repro.serve import BackgroundServer, ServeConfig

    with BackgroundServer(ServeConfig(port=0)) as server:
        print(f"port {server.port}", flush=True)
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace" and argument == "on":
                obs.enable(detail=True)
            elif command == "trace" and argument == "off":
                obs.disable()
            elif command == "spans" and argument:
                obs.write_jsonl(argument)
            else:
                print(f"unknown command {line.strip()!r}", flush=True)
                continue
            print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
